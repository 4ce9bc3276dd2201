"""The certification driver: confirm a stitched circuit's epsilon claims.

A QUEST run reports, for every selected approximation, a per-block
Hilbert-Schmidt distance ``epsilon_i`` and their sum (the Sec. 3.8 bound
on the whole-circuit distance).  This module re-derives those claims
from the artifacts alone:

* **Claims** (:class:`BlockClaim`) name, per block, the global qubits it
  acts on, how many operations it contributes to the stitched circuit,
  and its claimed epsilon.  Claims travel as a JSON manifest
  (:func:`claims_to_manifest` / :func:`claims_from_manifest`) next to
  each emitted ``approx_XX.qasm``, so certification needs nothing from
  the process that produced the circuit.
* **Block localization**: the stitched circuit is sliced back into block
  spans using the claimed operation counts, each span is remapped onto
  the block's local qubits, and its sub-unitary, rebuilt from the span
  by :mod:`repro.verify.independent`, is diffed against the matching
  block of the *original* circuit's partition.
  The first block whose span strays outside its claimed qubits or whose
  distance exceeds its epsilon is named in the report.
* **Whole-circuit check**: exact unitary diff up to
  ``max_exact_qubits``; beyond that, Haar/computational-basis stimulus
  probes whose confidence-bounded distance estimate and per-state
  deviation cap must both be consistent with the claimed total.

A violated claim is a *result* (``CertificationReport.ok == False``),
not an exception; :class:`~repro.exceptions.CertificationError` is
reserved for inputs the certifier cannot even interpret (width
mismatches, manifests that do not describe the circuits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit, Operation
from repro.exceptions import CertificationError
from repro.metrics.tolerances import CERTIFICATION_SLACK
from repro.partition.scan import scan_partition
from repro.transpile.basis import lower_to_basis
from repro.verify.independent import (
    DEFAULT_BASIS_STIMULI,
    DEFAULT_HAAR_STIMULI,
    DEFAULT_MAX_EXACT_QUBITS,
    StimulusEvidence,
    circuit_hs_distance,
    per_state_deviation_cap,
    stimulus_evidence,
)

#: Schema version of the claims manifest.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class BlockClaim:
    """What the producer claims about one block of a stitched circuit."""

    #: Position of the block in the partition's topological order.
    index: int
    #: Sorted global qubit indices the block acts on.
    qubits: tuple[int, ...]
    #: Operations the block contributes to the stitched circuit.
    op_count: int
    #: Claimed HS distance between the block's approximation and the
    #: original block.
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if not self.qubits or tuple(sorted(self.qubits)) != self.qubits:
            raise CertificationError(
                f"claim {self.index}: qubits must be non-empty and sorted, "
                f"got {self.qubits}"
            )
        if self.op_count < 0:
            raise CertificationError(
                f"claim {self.index}: negative op_count {self.op_count}"
            )
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise CertificationError(
                f"claim {self.index}: epsilon must be finite and >= 0, "
                f"got {self.epsilon}"
            )


@dataclass(frozen=True)
class BlockCertificate:
    """Verdict on one block claim."""

    index: int
    qubits: tuple[int, ...]
    claimed_epsilon: float
    #: Independently measured HS distance of the block's span against
    #: the original block; None when the span is structurally invalid
    #: (operations outside the claimed qubits), in which case no
    #: distance is defined.
    measured_distance: float | None
    ok: bool
    #: Human-readable defect description; empty when ``ok``.
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "index": self.index,
            "qubits": list(self.qubits),
            "claimed_epsilon": self.claimed_epsilon,
            "measured_distance": self.measured_distance,
            "ok": self.ok,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class CertificationReport:
    """Everything one certification established."""

    #: Overall verdict: every block claim held and the whole-circuit
    #: evidence is consistent with the claimed total.
    ok: bool
    #: Whole-circuit check used: ``"exact"`` (unitary diff) or
    #: ``"stimulus"`` (random state probes).
    regime: str
    num_qubits: int
    #: Claimed bound on the whole-circuit HS distance (sum of block
    #: epsilons, or the explicit budget).
    claimed_total: float
    #: Exact whole-circuit HS distance (``regime == "exact"`` only).
    measured_distance: float | None
    #: Stimulus-probe evidence (``regime == "stimulus"`` only).
    stimulus: StimulusEvidence | None
    #: Per-block verdicts, in block order; empty when certified without
    #: claims (budget-only mode).
    blocks: tuple[BlockCertificate, ...] = ()
    #: Whole-circuit-level defect descriptions; empty when consistent.
    failures: tuple[str, ...] = ()

    @property
    def first_failed_block(self) -> int | None:
        """Index of the first block whose claim failed, if any."""
        for certificate in self.blocks:
            if not certificate.ok:
                return certificate.index
        return None

    @property
    def failed_blocks(self) -> tuple[int, ...]:
        """Indices of every block whose claim failed."""
        return tuple(c.index for c in self.blocks if not c.ok)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        if self.regime == "exact":
            evidence = f"distance {self.measured_distance:.3e}"
        else:
            evidence = (
                f"distance bound {self.stimulus.distance_bound:.3e} "
                f"({self.stimulus.haar_count} Haar + "
                f"{self.stimulus.basis_count} basis stimuli)"
            )
        verdict = "CERTIFIED" if self.ok else "VIOLATED"
        text = (
            f"{verdict}: {self.regime} regime, {evidence} vs "
            f"claimed total {self.claimed_total:.3e}"
        )
        if self.blocks:
            failed = self.failed_blocks
            if failed:
                text += (
                    f"; {len(failed)}/{len(self.blocks)} block claim(s) "
                    f"violated, first at block {failed[0]}"
                )
            else:
                text += f"; all {len(self.blocks)} block claim(s) hold"
        for failure in self.failures:
            text += f"; {failure}"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``verify-run --json`` payload)."""
        payload = {
            "ok": self.ok,
            "regime": self.regime,
            "num_qubits": self.num_qubits,
            "claimed_total": self.claimed_total,
            "measured_distance": self.measured_distance,
            "stimulus": None,
            "blocks": [c.to_dict() for c in self.blocks],
            "first_failed_block": self.first_failed_block,
            "failures": list(self.failures),
        }
        if self.stimulus is not None:
            payload["stimulus"] = {
                "haar_count": self.stimulus.haar_count,
                "basis_count": self.stimulus.basis_count,
                "distance_bound": self.stimulus.distance_bound,
                "distance_estimate": self.stimulus.distance_estimate,
                "worst_deviation": self.stimulus.worst_deviation,
                "delta": self.stimulus.delta,
            }
        return payload


# ----------------------------------------------------------------------
# Claims: construction and manifest round-trip
# ----------------------------------------------------------------------
def claims_for_choice(pools, choice) -> list[BlockClaim]:
    """Build the block claims of one selected approximation.

    ``pools`` are the run's :class:`~repro.core.pool.BlockPool` list and
    ``choice`` the per-block candidate indices of one selection — the
    exact inputs :func:`~repro.partition.blocks.stitch_blocks` consumed,
    so the claimed op counts tile the stitched circuit by construction.
    """
    if len(pools) != len(choice):
        raise CertificationError(
            f"choice names {len(choice)} blocks but the run has "
            f"{len(pools)} pools"
        )
    claims = []
    for pool, candidate_index in zip(pools, choice):
        candidate_index = int(candidate_index)
        if not 0 <= candidate_index < len(pool.candidates):
            raise CertificationError(
                f"block {pool.block.index}: choice {candidate_index} out of "
                f"range for a pool of {len(pool.candidates)}"
            )
        candidate = pool.candidates[candidate_index]
        claims.append(
            BlockClaim(
                index=pool.block.index,
                qubits=pool.block.qubits,
                op_count=len(candidate.circuit.operations),
                epsilon=float(candidate.distance),
            )
        )
    return claims


def claims_to_manifest(
    claims: list[BlockClaim], *, block_qubits: int
) -> dict:
    """Serialize claims (plus the partition width) to a JSON-ready dict.

    ``block_qubits`` is the partition's ``max_block_qubits``: the
    certifier re-partitions the original circuit with it, so it must
    travel with the claims for the block structure to be reproducible.
    """
    ordered = sorted(claims, key=lambda c: c.index)
    return {
        "version": MANIFEST_VERSION,
        "block_qubits": int(block_qubits),
        "total_epsilon": float(sum(c.epsilon for c in ordered)),
        "blocks": [
            {
                "index": c.index,
                "qubits": list(c.qubits),
                "op_count": c.op_count,
                "epsilon": c.epsilon,
            }
            for c in ordered
        ],
    }


def claims_from_manifest(data: dict) -> tuple[int, list[BlockClaim]]:
    """Parse a claims manifest; returns ``(block_qubits, claims)``.

    Raises :class:`CertificationError` on anything malformed, including
    a recorded ``total_epsilon`` that disagrees with the per-block sum —
    a tampered total is a defect in its own right.
    """
    if not isinstance(data, dict):
        raise CertificationError(
            f"manifest must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("version")
    if version != MANIFEST_VERSION:
        raise CertificationError(
            f"unsupported manifest version {version!r} "
            f"(expected {MANIFEST_VERSION})"
        )
    try:
        block_qubits = int(data["block_qubits"])
        raw_blocks = data["blocks"]
        claims = [
            BlockClaim(
                index=int(entry["index"]),
                qubits=tuple(int(q) for q in entry["qubits"]),
                op_count=int(entry["op_count"]),
                epsilon=float(entry["epsilon"]),
            )
            for entry in raw_blocks
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificationError(f"malformed claims manifest: {exc}") from exc
    if block_qubits < 2:
        raise CertificationError(
            f"manifest block_qubits must be >= 2, got {block_qubits}"
        )
    recorded_total = float(data.get("total_epsilon", 0.0))
    actual_total = sum(c.epsilon for c in claims)
    if abs(recorded_total - actual_total) > CERTIFICATION_SLACK:
        raise CertificationError(
            f"manifest total_epsilon {recorded_total:.6e} disagrees with "
            f"the per-block sum {actual_total:.6e}"
        )
    return block_qubits, claims


# ----------------------------------------------------------------------
# Block-localized diagnosis
# ----------------------------------------------------------------------
def _ordered_claims(claims: list[BlockClaim]) -> list[BlockClaim]:
    ordered = sorted(claims, key=lambda c: c.index)
    if [c.index for c in ordered] != list(range(len(ordered))):
        raise CertificationError(
            "claims do not form a contiguous 0..K-1 block order: "
            f"{[c.index for c in ordered]}"
        )
    return ordered


def _certify_blocks(
    baseline: Circuit,
    approximate: Circuit,
    claims: list[BlockClaim],
    block_qubits: int,
) -> tuple[BlockCertificate, ...]:
    """Slice the stitched circuit along the claims and diff every block.

    The original blocks are re-derived by re-partitioning the lowered
    original circuit — the scan partitioner is deterministic, so an
    honest manifest reproduces the producer's block structure exactly.
    A manifest whose structure disagrees with the re-derived partition
    does not describe these circuits at all and raises
    :class:`CertificationError`; a span that fails inside its block is a
    *finding* and lands in that block's certificate.
    """
    ordered = _ordered_claims(claims)
    blocks = scan_partition(baseline, block_qubits)
    if len(blocks) != len(ordered):
        raise CertificationError(
            f"claims describe {len(ordered)} blocks but the original "
            f"circuit partitions into {len(blocks)}"
        )
    for block, claim in zip(blocks, ordered):
        if block.qubits != claim.qubits:
            raise CertificationError(
                f"claim {claim.index} covers qubits {claim.qubits} but the "
                f"original partition's block {block.index} acts on "
                f"{block.qubits}"
            )
    total_ops = sum(c.op_count for c in ordered)
    if total_ops != len(approximate.operations):
        raise CertificationError(
            f"claims cover {total_ops} operations but the stitched "
            f"circuit has {len(approximate.operations)}"
        )

    certificates = []
    cursor = 0
    for block, claim in zip(blocks, ordered):
        span = approximate.operations[cursor : cursor + claim.op_count]
        cursor += claim.op_count
        mapping = {q: local for local, q in enumerate(claim.qubits)}
        stray = sorted(
            {q for op in span for q in op.qubits if q not in mapping}
        )
        if stray:
            certificates.append(
                BlockCertificate(
                    index=claim.index,
                    qubits=claim.qubits,
                    claimed_epsilon=claim.epsilon,
                    measured_distance=None,
                    ok=False,
                    reason=(
                        f"span operates on qubit(s) {stray} outside the "
                        f"claimed block qubits {list(claim.qubits)}"
                    ),
                )
            )
            continue
        local = Circuit(len(claim.qubits))
        for op in span:
            local.append(
                Operation(op.gate, tuple(mapping[q] for q in op.qubits))
            )
        measured = circuit_hs_distance(block.circuit, local)
        ok = measured <= claim.epsilon + CERTIFICATION_SLACK
        certificates.append(
            BlockCertificate(
                index=claim.index,
                qubits=claim.qubits,
                claimed_epsilon=claim.epsilon,
                measured_distance=measured,
                ok=ok,
                reason=(
                    ""
                    if ok
                    else (
                        f"block HS distance {measured:.6e} exceeds claimed "
                        f"epsilon {claim.epsilon:.6e}"
                    )
                ),
            )
        )
    return tuple(certificates)


# ----------------------------------------------------------------------
# The certification driver
# ----------------------------------------------------------------------
def certify_equivalence(
    original: Circuit,
    approximate: Circuit,
    claims: list[BlockClaim] | None = None,
    *,
    block_qubits: int | None = None,
    budget: float | None = None,
    max_exact_qubits: int = DEFAULT_MAX_EXACT_QUBITS,
    haar_stimuli: int = DEFAULT_HAAR_STIMULI,
    basis_stimuli: int = DEFAULT_BASIS_STIMULI,
    rng: np.random.Generator | int | None = None,
) -> CertificationReport:
    """Independently certify that ``approximate`` honors its claims.

    With ``claims`` (and the partition width ``block_qubits`` that
    produced them), every block claim is checked exactly and a failing
    whole-circuit claim is localized to the first offending block; the
    claimed total is the sum of block epsilons unless an explicit
    ``budget`` overrides it.  Without claims, only the whole-circuit
    distance is certified against ``budget``.

    Circuits up to ``max_exact_qubits`` wide get the exact unitary
    diff; wider ones get Haar/computational-basis stimulus probes
    (deterministic for a fixed ``rng`` seed).
    """
    if original.num_qubits != approximate.num_qubits:
        raise CertificationError(
            f"circuit widths differ: {original.num_qubits} vs "
            f"{approximate.num_qubits} qubits"
        )
    stripped_original = original.without_measurements()
    stripped_approx = approximate.without_measurements()

    block_certificates: tuple[BlockCertificate, ...] = ()
    claimed_total = budget
    if claims is not None:
        if block_qubits is None:
            raise CertificationError(
                "certifying block claims needs the partition width "
                "(block_qubits) that produced them"
            )
        baseline = lower_to_basis(stripped_original)
        block_certificates = _certify_blocks(
            baseline, stripped_approx, claims, block_qubits
        )
        if claimed_total is None:
            claimed_total = sum(c.epsilon for c in claims)
    if claimed_total is None:
        raise CertificationError(
            "nothing to certify against: provide claims or a budget"
        )

    failures: list[str] = []
    num_qubits = original.num_qubits
    if num_qubits <= max_exact_qubits:
        regime = "exact"
        measured = circuit_hs_distance(stripped_original, stripped_approx)
        evidence = None
        if measured > claimed_total + CERTIFICATION_SLACK:
            failures.append(
                f"whole-circuit HS distance {measured:.6e} exceeds the "
                f"claimed total {claimed_total:.6e}"
            )
    else:
        regime = "stimulus"
        measured = None
        evidence = stimulus_evidence(
            stripped_original,
            stripped_approx,
            haar_stimuli=haar_stimuli,
            basis_stimuli=basis_stimuli,
            rng=rng,
        )
        if evidence.distance_bound > claimed_total + CERTIFICATION_SLACK:
            failures.append(
                f"stimulus distance bound {evidence.distance_bound:.6e} "
                f"(confidence 1-{evidence.delta:.0e}) exceeds the claimed "
                f"total {claimed_total:.6e}"
            )
        cap = per_state_deviation_cap(2**num_qubits, claimed_total)
        if evidence.worst_deviation > cap + CERTIFICATION_SLACK:
            failures.append(
                f"a stimulus deviated by {evidence.worst_deviation:.6e}, "
                f"refuting the claimed total {claimed_total:.6e} "
                f"(sound cap {cap:.6e})"
            )

    ok = not failures and all(c.ok for c in block_certificates)
    return CertificationReport(
        ok=ok,
        regime=regime,
        num_qubits=num_qubits,
        claimed_total=float(claimed_total),
        measured_distance=measured,
        stimulus=evidence,
        blocks=block_certificates,
        failures=tuple(failures),
    )


#: Fixed entropy tag separating certification RNG streams from every
#: other consumer of the run seed.
_CERTIFY_STREAM = 0xCE27


def certify_result(
    result,
    *,
    block_qubits: int,
    max_exact_qubits: int = DEFAULT_MAX_EXACT_QUBITS,
    seed: int | None = None,
) -> list[CertificationReport]:
    """Certify every selected approximation of a :class:`QuestResult`.

    Claims are rebuilt from the run's pools and choices (the same data
    the stitcher consumed) and each stitched circuit is certified
    against the run's baseline, wider ones with the default stimulus
    counts.  The stimulus RNG is derived from
    ``seed`` and the circuit index through a dedicated
    :class:`~numpy.random.SeedSequence` stream, so certification never
    perturbs — and is never perturbed by — the pipeline's own draws.
    """
    reports = []
    for index, (choice, circuit) in enumerate(
        zip(result.selection.choices, result.circuits)
    ):
        claims = claims_for_choice(result.pools, choice)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [_CERTIFY_STREAM, 0 if seed is None else int(seed), index]
            )
        )
        reports.append(
            certify_equivalence(
                result.baseline,
                circuit,
                claims,
                block_qubits=block_qubits,
                max_exact_qubits=max_exact_qubits,
                rng=rng,
            )
        )
    return reports
