"""Property test of the level-synchronous frame symmetry search against the
backtracking oracle, on small random Gram matrices."""

import numpy as np
import pytest

from conftest import assert_search_matches_backtracking

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), kind=st.sampled_from(["real", "int", "sign"]),
       dim=st.integers(1, 3), tol=st.sampled_from([1e-8, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_grams_match_backtracking(n, kind, dim, tol, seed):
    # Gram matrices of n vectors in Z^dim with entries in {-1, 0, 1}, or in
    # {-1, 1}, repeat entries, so ties and groups of order up to 8! occur;
    # real ones have ties only within tol.
    rng = np.random.default_rng(seed)
    if kind == "real":
        G = rng.uniform(-1.0, 1.0, size=(n, n))
        G = G + G.T
    else:
        X = (rng.integers(-1, 2, size=(n, dim)) if kind == "int"
             else rng.choice([-1, 1], size=(n, dim)))
        G = (X @ X.T).astype(float)
    assert_search_matches_backtracking(G, tol)
