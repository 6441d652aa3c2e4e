"""Property tests of the closed-form Choi projector on small random pairs."""

import numpy as np
import pytest

from conftest import random_isometry
from matconv import sampling
from matconv.sets import GenTuple, HermTuple
from matconv.ucp import choi_affine_projector, choi_constraint_residual

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 3), d=st.integers(1, 3),
       hermitian=st.booleans(), dependent=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_projector_idempotent_and_feasible(k, m, d, hermitian, dependent,
                                           seed):
    rng = np.random.default_rng(seed)
    draw = sampling.random_herm if hermitian else sampling.random_gen
    mats = [draw(k, rng) for _ in range(d)]
    if dependent:
        mats[-1] = 2.0 * mats[0]
    A = (HermTuple if hermitian else GenTuple)(mats)
    # Targets from a unital compression of an ampliation: a linear map takes
    # them, so the affine set is nonempty whatever the sources' rank.
    r = k * m
    W = random_isometry(k * r, m, rng)
    B = GenTuple([W.conj().T @ np.kron(M, np.eye(r)) @ W for M in mats])
    project, short = choi_affine_projector(A, B)
    assert short is None
    P = project([sampling.random_herm(k * m, rng)])[0]
    drift = np.linalg.norm(project([P])[0] - P)
    assert drift <= 1e-10 * (1.0 + np.linalg.norm(P))
    assert choi_constraint_residual(P, A, B) <= 1e-10
