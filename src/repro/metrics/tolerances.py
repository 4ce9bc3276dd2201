"""Single source of truth for numeric tolerances on trust boundaries.

Every threshold that decides whether data crossing a trust boundary is
*accepted* — candidate health checks, equivalence certification, bound
verification, distribution normalization — lives here.  They used to be
re-declared ad hoc at each call site, which let the same conceptual
tolerance drift apart between layers (and made it impossible to audit
what "close enough" meant for the system as a whole).

``tests/test_tolerances.py`` enforces the hoist: it tokenizes the
validation/certification modules and fails if a scientific-notation
float literal reappears outside this file.

Purely numerical algorithm internals (optimizer convergence criteria,
Weyl-chamber classification cutoffs) are *not* tolerances in this sense
and stay local to their modules.
"""

from __future__ import annotations

#: Max elementwise deviation of ``U^dag U`` from the identity before a
#: candidate is rejected.  Circuits are products of exactly-unitary gate
#: matrices, so honest candidates sit at ~1e-15; this leaves orders of
#: magnitude of slack while still catching real corruption.
UNITARITY_TOL = 1e-6

#: Max |recomputed - recorded| HS distance for a candidate's claim.
#: Recorded distances are produced from the same parameters the circuit
#: is built from, so honest candidates agree to float precision.
DISTANCE_CONSISTENCY_TOL = 1e-6

#: Max elementwise deviation between a matrix a pool stores (its
#: original unitary, each candidate's) and the unitary rebuilt from the
#: matching circuit (same code path, so only corruption or tampering can
#: separate them).
POOL_UNITARY_MATCH_TOL = 1e-9

#: Float slack added to every claimed distance bound during
#: certification: a measured distance may exceed its claim by this much
#: before the claim counts as violated.  Covers rounding between the
#: two derivations of one distance from unitaries built by
#: ``circuit_unitary`` (the synthesis path's elementwise overlap and the
#: certifier's trace of the explicit product), nothing more.
CERTIFICATION_SLACK = 1e-7

#: Probability vectors must sum to 1 within this before any
#: distribution distance is computed.
DISTRIBUTION_NORM_TOL = 1e-6

#: Most negative a "probability" may go (float noise from subtraction /
#: renormalization) before the vector is rejected as invalid.
NEGATIVE_PROBABILITY_TOL = 1e-12

#: Float slack on the Sec. 3.8 inequality check (actual <= sum of block
#: distances): the bound is exact mathematics, the slack is rounding.
BOUND_SLACK = 1e-7

#: Max deviation of a compiled Pauli-transfer matrix's first row from
#: ``e_0`` (trace preservation).  Honest PTMs are built from exact
#: Pauli traces and sit at ~1e-15; any real violation means a corrupted
#: gate matrix or channel term reached the compiler.
PTM_TRACE_PRESERVATION_TOL = 1e-9

#: Most negative a compiled PTM's Choi-matrix eigenvalue may go (and
#: max Hermiticity defect of the Choi matrix) before the channel is
#: rejected as not completely positive.  Pure eigensolver rounding
#: slack: physical channels have exactly nonnegative Choi spectra.
PTM_CP_TOL = 1e-9

#: Failure probability budget of the random-stimulus certification
#: regime: the stimulus-derived distance bound is a lower confidence
#: bound on the true HS distance that holds with probability at least
#: ``1 - STIMULUS_CONFIDENCE_DELTA`` over the Haar draw.
STIMULUS_CONFIDENCE_DELTA = 1e-6

__all__ = [
    "UNITARITY_TOL",
    "DISTANCE_CONSISTENCY_TOL",
    "POOL_UNITARY_MATCH_TOL",
    "CERTIFICATION_SLACK",
    "DISTRIBUTION_NORM_TOL",
    "NEGATIVE_PROBABILITY_TOL",
    "BOUND_SLACK",
    "PTM_TRACE_PRESERVATION_TOL",
    "PTM_CP_TOL",
    "STIMULUS_CONFIDENCE_DELTA",
]
