"""Property tests of the Dykstra solver's batched kernels: the Frobenius gap
against the per-block oracle, bit for bit, and the soundness of the
Rayleigh screen of the affine-side PSD test; the witness residual of a
constraint map against the hand-written constraint oracles.  Property tests
of the hull LP: bit for bit against the per-scalar simplex loop, verdicts
against HiGHS, and its convex weights checked in plain numpy."""

import numpy as np
import pytest

from conftest import (
    choi_constraint_residual,
    convex_weights_hold,
    frob_blocks_loop,
    hull_weights_loop,
    povm_constraint_residual,
    random_gen,
)
from matconv import sampling, sdp
from matconv.sets import GenTuple, HermTuple
from matconv.ucp import _REDUCTIONS, MapMode, choi_constraints

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(N=st.integers(1, 512), n=st.integers(1, 36),
       exponent=st.integers(-150, 150),
       kind=st.sampled_from(["complex", "real", "real_as_complex",
                             "real_view"]),
       zero_every=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
# A block norm whose ``** 2`` (the C library's ``pow``) is one ulp off its
# correctly rounded square.
@example(N=393, n=1, exponent=59, kind="real", zero_every=2, seed=962)
def test_frob_matches_per_block_oracle(N, n, exponent, kind, zero_every,
                                       seed):
    # Block magnitudes spread over six decades around 10^exponent, so the
    # left-to-right order of the sum shows in the last bit.
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-3, 3, (N, 1, 1))
    K = (10.0 ** exponent) * spread * (
        rng.standard_normal((N, n, n)) + 1j * rng.standard_normal((N, n, n)))
    if zero_every:
        K[::zero_every] = 0.0
    K = {"complex": K, "real": np.ascontiguousarray(K.real),
         "real_as_complex": K.real + 0j, "real_view": K.real}[kind]
    with np.errstate(over="ignore"):         # both overflow to inf alike
        assert sdp._frob(K) == frob_blocks_loop(K)


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@settings(max_examples=300, deadline=None)
@given(N=st.integers(1, 12), n=st.integers(1, 36),
       tol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-3, 1.0]),
       place=st.sampled_from([1.0 + 1e-9, 1.0, 1.0 - 1e-9]),
       top=st.integers(-10, 4),
       vec=st.sampled_from(["eigh", "exact", "perturbed", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rayleigh_screen_fires_only_below_tol(N, n, tol, place, top, vec,
                                              seed):
    # Hermitian blocks whose smallest eigenvalue over the stack is placed at
    # -tol (1 +- 1e-9) or exactly at -tol, with the other eigenvalues up to
    # 10^top above it, so |K_b|_F ranges from about tol to far above it.
    rng = np.random.default_rng(seed)
    low = -tol * place
    K = np.empty((N, n, n), dtype=complex)
    exact = np.empty((N, n), dtype=complex)
    for b in range(N):
        w = np.sort(low + 10.0 ** top * rng.uniform(0.0, 1.0, n))
        w[0] = low if b == 0 else max(low, w[0])
        Q = _unitary(rng, n)
        K[b] = (Q * w) @ Q.conj().T
        exact[b] = Q[:, 0]
    K = (K + K.conj().swapaxes(1, 2)) / 2.0
    if vec == "eigh":
        v = np.linalg.eigh(K)[1][:, :, 0]
    elif vec == "exact":
        v = exact
    else:
        v = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
        if vec == "perturbed":
            v = exact + 1e-8 * v
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    if sdp._rayleigh_rules_out(K, v, tol):
        assert float(np.linalg.eigvalsh(K)[:, 0].min()) < -tol


@settings(max_examples=100, deadline=None)
@given(N=st.integers(1, 6), d=st.integers(1, 3), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_povm_residual_matches_oracle(N, d, n, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((N, d))
    X = [sampling.random_herm(n, rng) for _ in range(d)]
    K = np.stack([sampling.random_herm(n, rng) for _ in range(N)])
    got = sdp.povm_constraints(V, X).residual(K)
    assert got == pytest.approx(povm_constraint_residual(V, X, K), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 3), d=st.integers(1, 3),
       mode=st.sampled_from(list(MapMode)), hermitian=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_choi_residual_matches_oracle(k, m, d, mode, hermitian, seed):
    # The map's family weights A_i and A_i* by 1/sqrt 2 each; on Hermitian
    # Choi matrices phi(A_i*) = phi(A_i)*, so the two rows count each
    # prescribed value once, as the oracle does.
    rng = np.random.default_rng(seed)
    draw = sampling.random_herm if hermitian else random_gen
    kind = HermTuple if hermitian else GenTuple
    reduce = _REDUCTIONS[mode]
    A = reduce(kind([draw(k, rng) for _ in range(d)]))
    B = reduce(kind([draw(m, rng) for _ in range(d)]))
    C = sampling.random_herm(A.n * B.n, rng)
    got = choi_constraints(A, B).residual([C])
    assert got == pytest.approx(choi_constraint_residual(C, A, B), rel=1e-12)


def _hull_instance(rng, n, dim, points, target):
    """Points and a query point: real, rounded to a grid of 1/4 (ties and
    degenerate hulls), with repeated rows, or integer; the query a convex
    combination, a vertex, an edge midpoint or a random point."""
    P = rng.uniform(-2.0, 2.0, (n, dim))
    if points == "rounded":
        P = np.round(4.0 * P) / 4.0
    elif points == "repeated":
        P = P[rng.integers(0, n, n)]
    elif points == "integer":
        P = rng.integers(-1, 2, (n, dim)).astype(float)
    if target == "combination":
        x = P.T @ rng.dirichlet(np.ones(n))
    elif target == "vertex":
        x = P[rng.integers(n)].copy()
    elif target == "midpoint":
        x = (P[rng.integers(n)] + P[rng.integers(n)]) / 2.0
    else:
        x = np.round(4.0 * rng.uniform(-2.0, 2.0, dim)) / 4.0
    return P, x


HULL_POINTS = st.sampled_from(["real", "rounded", "repeated", "integer"])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), dim=st.integers(1, 5), points=HULL_POINTS,
       target=st.sampled_from(["combination", "vertex", "midpoint",
                               "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hull_weights_match_loop_oracle(n, dim, points, target, seed):
    P, x = _hull_instance(np.random.default_rng(seed), n, dim, points, target)
    lam = sdp.hull_weights(P, x)
    ref = hull_weights_loop(P, x)
    assert (lam is None) == (ref is None)
    if ref is not None:
        assert lam.tobytes() == ref.tobytes()
        assert convex_weights_hold(P, x, lam)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), dim=st.integers(1, 5), points=HULL_POINTS,
       push=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hull_verdict_matches_highs(n, dim, points, push, seed):
    # A convex combination (push 0), or one pushed out along a unit
    # direction u to push beyond the hull's support value in u, so that its
    # distance to the hull is at least push.
    from scipy.optimize import linprog
    rng = np.random.default_rng(seed)
    P, x = _hull_instance(rng, n, dim, points, "combination")
    if push:
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        x = x + (float(np.max(P @ u)) - float(x @ u) + push) * u
    lam = sdp.hull_weights(P, x)
    ref = linprog(np.zeros(n), A_eq=np.vstack([np.ones(n), P.T]),
                  b_eq=np.concatenate([[1.0], x]),
                  bounds=[(0, None)] * n, method="highs")
    assert ref.status in (0, 2)
    assert (lam is not None) == (ref.status == 0) == (push == 0.0)
    if lam is not None:
        assert convex_weights_hold(P, x, lam)
