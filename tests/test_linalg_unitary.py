"""Tests for unitary utilities and the HS process distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_unitary
from repro.exceptions import ReproError
from repro.linalg import hs_distance, hs_inner, is_unitary
from tests.helpers import equal_up_to_global_phase


def test_hs_distance_zero_for_identical(rng):
    u = random_unitary(8, rng)
    assert hs_distance(u, u) < 1e-7


def test_hs_distance_phase_invariant(rng):
    u = random_unitary(4, rng)
    phase = np.exp(1j * 0.83)
    assert hs_distance(u, phase * u) < 1e-7


def test_hs_distance_range(rng):
    for _ in range(20):
        a, b = random_unitary(4, rng), random_unitary(4, rng)
        d = hs_distance(a, b)
        assert 0.0 <= d <= 1.0


def test_hs_distance_maximal_for_orthogonal():
    # Tr(Z^dag X) = 0, so X and Z are maximally distant.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert hs_distance(x, z) == pytest.approx(1.0)



def test_hs_inner_shape_mismatch():
    with pytest.raises(ReproError):
        hs_inner(np.eye(2), np.eye(4))


def test_is_unitary(rng):
    assert is_unitary(random_unitary(8, rng))
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.eye(3)[:2])


def test_equal_up_to_global_phase(rng):
    u = random_unitary(4, rng)
    assert equal_up_to_global_phase(u, np.exp(1j * 1.234) * u)
    assert not equal_up_to_global_phase(u, random_unitary(4, rng))






@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hs_distance_symmetry(seed):
    gen = np.random.default_rng(seed)
    a, b = random_unitary(4, gen), random_unitary(4, gen)
    assert hs_distance(a, b) == pytest.approx(hs_distance(b, a), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_hs_distance_unitary_invariance(seed):
    # d(WA, WB) == d(A, B): the metric is left-invariant.
    gen = np.random.default_rng(seed)
    a, b, w = (random_unitary(4, gen) for _ in range(3))
    assert hs_distance(w @ a, w @ b) == pytest.approx(
        hs_distance(a, b), abs=1e-9
    )
