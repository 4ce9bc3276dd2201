"""Property-based tests for the certification layer.

Three invariants hold for *any* circuit pair, so we let hypothesis pick
the circuits: the independent exact path agrees with the production
metric to near machine precision, the stimulus lower bound never claims
more distance than actually exists, and the stimulus evidence is a pure
function of its seed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.linalg.unitary import hs_distance
from repro.verify import (
    certify_equivalence,
    circuit_hs_distance,
    stimulus_evidence,
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 5),
)
def test_independent_distance_matches_production_metric(seed, n, depth):
    """Exact HS agreement to 1e-10 between the elementwise overlap and
    the certifier's trace of the explicit product."""
    a = random_circuit(n, depth, rng=seed)
    b = random_circuit(n, depth, rng=seed + 1)
    via_production = hs_distance(a.unitary(), b.unitary())
    via_certifier = circuit_hs_distance(a, b)
    assert abs(via_certifier - via_production) < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_stimulus_bound_never_exceeds_exact_distance(seed, n, depth):
    """Probing can only *under*-estimate distance, never overshoot it."""
    a = random_circuit(n, depth, rng=seed)
    b = random_circuit(n, depth, rng=seed + 7)
    exact = circuit_hs_distance(a, b)
    evidence = stimulus_evidence(
        a, b, haar_stimuli=8, basis_stimuli=4, rng=seed
    )
    assert evidence.distance_bound <= exact + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
)
def test_stimulus_evidence_is_deterministic_in_the_seed(seed, n):
    a = random_circuit(n, 3, rng=seed)
    b = random_circuit(n, 3, rng=seed + 13)
    first = stimulus_evidence(a, b, haar_stimuli=6, basis_stimuli=3, rng=seed)
    second = stimulus_evidence(a, b, haar_stimuli=6, basis_stimuli=3, rng=seed)
    assert first == second


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_a_circuit_always_certifies_against_itself(seed, n, depth):
    circuit = random_circuit(n, depth, rng=seed)
    report = certify_equivalence(circuit, circuit, budget=0.0)
    assert report.ok

