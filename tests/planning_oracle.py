"""Independent replay of the executor's synthesis planning.

:class:`repro.parallel.executor.BlockSynthesisExecutor` plans one
synthesis job per distinct block of a run.  This module rebuilds that
plan from the public recipe alone — partition, up-front block seeds,
content key, entry key — so tests can count the jobs a run or a batch
must synthesize without reading the executor's own bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.core.quest import _draw_block_seeds
from repro.parallel.cache import content_key, entry_key
from repro.parallel.executor import leap_config_for_block
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis


def planned_entry_keys(circuit, config) -> list[str]:
    """The entry key of every block a solo run of ``circuit`` plans to
    synthesize: the first occurrence of each content key claims its own
    positional seed, and later occurrences repeat that key."""
    blocks = scan_partition(
        lower_to_basis(circuit.without_measurements()), config.max_block_qubits
    )
    seeds = _draw_block_seeds(np.random.default_rng(config.seed), len(blocks))
    keys, first = [], {}
    for index, block in enumerate(blocks):
        cnots = block.circuit.cnot_count()
        if block.num_qubits == 1 or cnots == 0:
            continue
        fingerprint = leap_config_for_block(cnots, config, seed=None).fingerprint()
        content = content_key(block.unitary(), fingerprint)
        keys.append(entry_key(content, first.setdefault(content, seeds[index])))
    return keys
