"""Lower-level API tour: partition a wider circuit, synthesize one block,
and verify the Sec. 3.8 process-distance bound empirically.

Demonstrates the pieces `run_quest` composes — useful when embedding
QUEST into another toolchain (custom partitioners, remote synthesis
workers, alternative selection policies).

Run with: ``python examples/partitioned_synthesis.py``
"""

from __future__ import annotations

import time

from repro.algorithms import xy_model
from repro.core import verify_bound
from repro.observability import Record, use_record
from repro.partition import scan_partition, stitch_blocks
from repro.synthesis import LeapConfig, synthesize


def main() -> None:
    circuit = xy_model(num_spins=6, steps=1)
    print(f"input: {circuit.summary()}")

    blocks = scan_partition(circuit, max_block_qubits=3)
    print(f"scan partitioner produced {len(blocks)} blocks:")
    for block in blocks:
        print(
            f"  block {block.index}: qubits {block.qubits}, "
            f"{block.circuit.cnot_count()} CNOTs"
        )

    # Synthesize an approximation pool for the first multi-CNOT block.
    # The ambient record counts LEAP's work while it runs.
    target_block = next(b for b in blocks if b.circuit.cnot_count() >= 2)
    record = Record()
    start = time.perf_counter()
    with use_record(record):
        solutions = synthesize(
            target_block.unitary(),
            LeapConfig(max_layers=4, seed=0, solutions_per_layer=3,
                       target_distance=0.15),
        )
    elapsed = time.perf_counter() - start
    counters = record.snapshot()["counters"]
    print(
        f"\nLEAP on block {target_block.index}: "
        f"{len(solutions)} solutions from "
        f"{counters['leap.instantiations']} instantiations over "
        f"{counters['leap.layers']} layers ({elapsed:.1f}s)"
    )
    for solution in solutions[:6]:
        print(f"  {solution.cnot_count} CNOTs -> distance {solution.distance:.4f}")

    # Swap an approximation in and verify the additive bound.
    chosen = min(
        (s for s in solutions if s.distance < 0.2),
        key=lambda s: s.cnot_count,
    )
    approx_blocks = [
        b.with_circuit(chosen.circuit) if b.index == target_block.index else b
        for b in blocks
    ]
    check = verify_bound(circuit, blocks, approx_blocks)
    print(
        f"\nbound check: actual full-circuit distance "
        f"{check.actual_distance:.4f} <= bound {check.upper_bound:.4f} "
        f"(holds: {check.holds}, tightness {check.tightness:.2f})"
    )

    stitched = stitch_blocks(approx_blocks, circuit.num_qubits)
    print(
        f"approximate circuit: {stitched.summary()} "
        f"(baseline {circuit.cnot_count()} CNOTs)"
    )


if __name__ == "__main__":
    main()
