"""Property tests of the frame symmetry search against the backtracking
oracle, on small random Gram matrices, of the group closure check against
the all-pairs oracle, on random subgroups of S_N, and of projection
invariance against the per-point oracle, on rotated harmonic frames."""

import numpy as np
import pytest

from conftest import (
    assert_search_matches_backtracking,
    closure_all_pairs,
    projection_invariance_per_point,
)
from matconv.frames import SymmetryGroup, check_tight, projection_invariance

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


def _generated(gens: np.ndarray) -> np.ndarray:
    """The subgroup of S_N that the rows of ``gens`` generate, by a set
    search over compositions."""
    rows = {tuple(range(gens.shape[1]))}
    frontier = list(rows)
    while frontier:
        p = np.array(frontier.pop())
        for q in gens:
            r = tuple(p[q].tolist())
            if r not in rows:
                rows.add(r)
                frontier.append(r)
    return np.array(sorted(rows))


def _closure(perms: np.ndarray) -> bool:
    return SymmetryGroup(perms, np.ones((len(perms), 1, 1))).verify_closure()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), gens=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_subgroups_match_all_pairs(n, gens, seed):
    # Random generators of S_n give subgroups of every size up to 6! = 720;
    # each is checked in a shuffled row order, with one non-identity row
    # removed, and with one random permutation added.
    rng = np.random.default_rng(seed)
    H = _generated(np.array([rng.permutation(n) for _ in range(gens)]))
    H = H[rng.permutation(len(H))]
    assert _closure(H) and closure_all_pairs(H)
    others = np.flatnonzero((H != np.arange(n)).any(axis=1))
    if others.size:
        # A group of order 2 without its non-identity row is the trivial
        # group; any larger one is no longer closed.
        fewer = np.delete(H, rng.choice(others), axis=0)
        assert _closure(fewer) == closure_all_pairs(fewer) == (len(H) == 2)
    more = np.vstack([H, rng.permutation(n)])
    assert _closure(more) == closure_all_pairs(more)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), symmetric=st.booleans(),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_harmonic_frames_match_per_point_oracle(n, symmetric, angle):
    # The n unit vectors at angles pi k / n, turned by angle, form a tight
    # frame whose hull is not invariant: the projection of one vector onto
    # the line of another falls outside.  With their negatives added they
    # are the regular 2n-gon, which is invariant.
    th = angle + np.pi * np.arange(n) / n
    V = np.column_stack([np.cos(th), np.sin(th)])
    if symmetric:
        V = np.vstack([V, -V])
    f = check_tight(V)
    assert projection_invariance(f) == projection_invariance_per_point(f) \
        == symmetric
