"""Property-based agreement tests for the PTM engine (hypothesis).

The PTM and density-matrix engines implement the same exact channel
semantics through entirely different linear algebra (Pauli-basis
contraction vs. operator conjugation), so pointwise agreement on random
circuits under random noise models is a strong end-to-end check of
both.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_circuit
from repro.noise import NoiseModel, run_ptm
from repro.noise.ptm import unitary_ptm
from repro.resilience.validation import validate_ptm
from tests.density_oracle import PTM_DENSITY_AGREEMENT_ATOL, run_density

noise_models = st.builds(
    NoiseModel,
    one_qubit_error=st.floats(0.0, 0.05),
    two_qubit_error=st.floats(0.0, 0.1),
    readout_error=st.floats(0.0, 0.05),
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    depth=st.integers(1, 5),
    noise=noise_models,
)
def test_ptm_agrees_with_density(seed, n, depth, noise):
    circuit = random_circuit(n, depth, rng=seed)
    np.testing.assert_allclose(
        run_ptm(circuit, noise),
        run_density(circuit, noise),
        atol=PTM_DENSITY_AGREEMENT_ATOL,
        rtol=0.0,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4), noise=noise_models)
def test_ptm_distribution_is_normalized(seed, n, noise):
    circuit = random_circuit(n, 3, rng=seed)
    probs = run_ptm(circuit, noise)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 2))
def test_random_unitary_ptm_validates(seed, k):
    from repro.circuits.random_circuits import random_unitary

    gate = random_unitary(2**k, rng=seed)
    ptm = unitary_ptm(gate, k)
    validate_ptm(ptm, k)  # trace-preserving and completely positive
