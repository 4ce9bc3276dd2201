"""Independent equivalence certification (the production guardrail).

QUEST's promise is that every stitched approximation stays within its
reported Hilbert-Schmidt budget of the original circuit — but the only
code that computed that distance used to be the synthesis path itself,
so a bug there would certify its own output.  Following *Verifying
Results of the IBM Qiskit Quantum Circuit Compilation Flow*, this
package re-derives equivalence **from the artifacts alone**: every
unitary and distance is recomputed from the circuits, never read from
the matrices and distances recorded beside them:

* :mod:`repro.verify.independent` — unitaries rebuilt from the
  circuits through :func:`repro.sim.unitary.circuit_unitary`, never
  read from a stored matrix; the HS overlap taken as the trace of the
  explicit matrix product (not the elementwise contraction); and
  Haar/computational-basis stimulus probes with a confidence-bounded
  distance estimate for circuits too wide to diff exactly;
* :mod:`repro.verify.certifier` — the certification driver: exact
  unitary diff for small ``n``, random-stimulus probes for large ``n``,
  and block-localized diagnosis that slices a stitched circuit along
  its partition structure to name the first block whose sub-unitary
  drifts past its claimed epsilon.

Two seams consume it: ``run_quest`` (``QuestConfig.certify``) and the
``python -m repro verify-run`` CLI.
"""

from repro.verify.certifier import (
    MANIFEST_VERSION,
    BlockCertificate,
    BlockClaim,
    CertificationReport,
    certify_equivalence,
    certify_result,
    claims_for_choice,
    claims_from_manifest,
    claims_to_manifest,
)
from repro.verify.independent import (
    DEFAULT_BASIS_STIMULI,
    DEFAULT_HAAR_STIMULI,
    DEFAULT_MAX_EXACT_QUBITS,
    StimulusEvidence,
    basis_states,
    circuit_hs_distance,
    haar_states,
    independent_hs_distance,
    per_state_deviation_cap,
    stimulus_evidence,
)

__all__ = [
    "certify_equivalence",
    "certify_result",
    "CertificationReport",
    "BlockCertificate",
    "BlockClaim",
    "claims_for_choice",
    "claims_to_manifest",
    "claims_from_manifest",
    "independent_hs_distance",
    "circuit_hs_distance",
    "haar_states",
    "basis_states",
    "stimulus_evidence",
    "per_state_deviation_cap",
    "StimulusEvidence",
    "MANIFEST_VERSION",
    "DEFAULT_MAX_EXACT_QUBITS",
    "DEFAULT_HAAR_STIMULI",
    "DEFAULT_BASIS_STIMULI",
]
