from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from matconv import dilation, frames
from matconv import numkernel as nk
from matconv import sampling, sdp, sets
from matconv.frames import Frame, check_tight
from matconv.numkernel import (
    EigenSolveError,
    NumKernelError,
    hermitize,
    lincomb,
    opnorm,
    opnorms,
)
from matconv.sets import HermTuple
from matconv.witnesses import CliffordTuple

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without it
    pass
else:
    # ``pytest --hypothesis-profile=ci`` draws the same examples on every
    # run, so a property test cannot pass on one push and fail on the next.
    settings.register_profile("ci", derandomize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def spectrum_inside_target(monkeypatch):
    """Every dilation that a test builds and that passes its own checks has
    its joint spectrum inside its theorem's target set: ``spectrum_excess``
    is at most 0 wherever the record carries it."""
    validate = dilation._validate

    def checked(dil):
        dil = validate(dil)
        assert dil.residuals.get("spectrum_excess", 0.0) <= 0.0
        return dil

    monkeypatch.setattr(dilation, "_validate", checked)


def pauli_pair() -> HermTuple:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return HermTuple([sx, sz])


def frob(A) -> float:
    return float(np.linalg.norm(np.asarray(A)))


def apply_choi(C: np.ndarray, X: np.ndarray, k: int, m: int) -> np.ndarray:
    """Evaluate the map encoded by Choi matrix C in M_k (x) M_m at X in M_k."""
    C = np.asarray(C, dtype=complex).reshape(k, m, k, m)
    X = np.asarray(X, dtype=complex)
    # phi(X) = partial trace over the first factor of (X^T (x) I) C;
    # with C[a, i, b, j] = phi(E_ab)[i, j] this is a single contraction.
    return np.einsum("ab,aibj->ij", X, C)


def choi_constraint_residual(C: np.ndarray, A, B) -> float:
    """Raw violation of a candidate Choi witness: the norm of
    ``(phi_C(I) - I, phi_C(A_1) - B_1, ...)``."""
    k, m = A.n, B.n
    res = [apply_choi(C, np.eye(k), k, m) - np.eye(m)]
    for Ai, Bi in zip(A, B):
        res.append(apply_choi(C, np.asarray(Ai), k, m) - np.asarray(Bi))
    return float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))


def povm_constraint_residual(vertices, X, blocks) -> float:
    """Raw violation of a candidate vertex decomposition: the norm of
    ``(sum_v K_v - I, sum_v v_1 K_v - X_1, ...)``."""
    V = np.asarray(vertices, dtype=float)
    K = np.stack([np.asarray(B, dtype=complex) for B in blocks])
    n = K.shape[1]
    res = [np.sum(K, axis=0) - np.eye(n)]
    for i in range(V.shape[1]):
        res.append(np.tensordot(V[:, i], K, axes=(0, 0)) - np.asarray(X[i]))
    return float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))


def random_gen(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex n x n matrix with standard normal real and imaginary
    parts."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_isometry(big: int, small: int, rng) -> np.ndarray:
    """Random (big x small) complex isometry, V* V = I_small."""
    Q, R = np.linalg.qr(random_gen(big, rng))
    return (Q * (np.diag(R) / np.abs(np.diag(R))))[:, :small]


def random_ball_member(d: int, n: int, rng: np.random.Generator,
                       radius: float = 1.0) -> np.ndarray:
    """Random Hermitian tuple, as a ``(d, n, n)`` stack, with sum of squares
    <= radius^2 * I."""
    H = np.stack([sampling.random_herm(n, rng) for _ in range(d)])
    top = float(np.linalg.eigvalsh((H @ H).sum(axis=0))[-1])
    t = radius * rng.uniform(0.2, 1.0) / np.sqrt(max(top, 1e-12))
    return t * H


def random_povm(n: int, atoms: int, rng) -> list[np.ndarray]:
    """Random POVM: PSD effects summing exactly (numerically) to the
    identity."""
    G = []
    for _ in range(atoms):
        A = random_gen(n, rng)
        G.append(A @ A.conj().T)
    S = sum(G)
    w, Q = np.linalg.eigh((S + S.conj().T) / 2.0)
    S_isqrt = (Q / np.sqrt(w)) @ Q.conj().T
    return [S_isqrt @ g @ S_isqrt for g in G]


def spectra_match(a: JointSpectrum, b: JointSpectrum, tol: float) -> bool:
    """Two joint spectra agree as multisets, within ``tol`` per
    coordinate.  Both are sorted along one fixed generic direction of the
    real and imaginary parts: the lexicographic ``sorted_points`` can pair
    points wrongly where a coordinate is 0.0 in one spectrum and +-1e-32 in
    the other."""
    if a.points.shape != b.points.shape:
        return False
    r = np.random.default_rng(0).standard_normal((2, a.points.shape[1]))

    def ordered(p):
        return p[np.argsort(p.real @ r[0] + p.imag @ r[1], kind="stable")]

    err = np.abs(ordered(a.points) - ordered(b.points))
    return bool(np.max(err, initial=0.0) <= tol)


def combine_frames(f1: Frame, f2: Frame) -> Frame:
    """The union of two frames placed on orthogonal coordinate blocks; tight
    when they share the vector norm and the frame constant."""
    V = np.zeros((f1.count + f2.count, f1.dim + f2.dim))
    V[:f1.count, :f1.dim] = f1.vectors
    V[f1.count:, f1.dim:] = f2.vectors
    return check_tight(V)


def dense_residuals(T, V, X, scale) -> dict:
    """Reference residual record of a dilation, from the dense matrices:
    every pairwise commutator and normality defect of size ``dim`` and its
    norm through a full eigensolve or SVD."""
    d = len(T)
    comm = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            comm = max(comm, nk.opnorm(T[i] @ T[j] - T[j] @ T[i]))
    normality = max(
        nk.opnorm(Ti @ Ti.conj().T - Ti.conj().T @ Ti) for Ti in T)
    compression = max(
        nk.opnorm(V.conj().T @ Ti @ V - scale * np.asarray(Xi))
        for Ti, Xi in zip(T, X))
    return {
        "isometry": nk.opnorm(V.conj().T @ V - np.eye(V.shape[1])),
        "commutator": comm,
        "normality": normality,
        "compression": compression,
        "max_norm": max(nk.opnorm(Ti) for Ti in T),
    }


# ---------------------------------------------------------------------------
# Per-member loops that the batched stack forms replaced, kept as oracles
# ---------------------------------------------------------------------------


def frob_blocks_loop(blocks) -> float:
    """Frobenius norm of a block stack, one ``np.linalg.norm`` per block,
    squares added left to right: the ``sdp._frob`` that the batched form
    replaced, whose printed residuals that form must keep bit for bit."""
    return float(np.sqrt(sum(np.linalg.norm(B) ** 2 for B in blocks)))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: bit for bit, signs of zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def first_failing_row_eig(X, count: int, chunk, tol: float):
    """``sets.first_failing_row`` without its Cholesky gate: the rows
    ``sum_j c_j X_j <= a I`` built with ``lincomb`` and one batched
    ``min_eig`` per ``SWEEP_CHUNK`` rows, the sweep that the gated one must
    agree with row for row."""
    I = np.eye(X.n)
    for lo in range(0, count, sets.SWEEP_CHUNK):
        hi = min(lo + sets.SWEEP_CHUNK, count)
        coeffs, offsets = chunk(lo, hi)
        S = np.reshape(offsets, (-1, 1, 1)) * I - lincomb(coeffs, X.matrices)
        bad = np.flatnonzero(nk.min_eig(S, tol=np.inf) < -tol)
        if bad.size:
            return lo + int(bad[0])
    return None


def tensor_sum_extremes_dense(mats) -> tuple[float, float]:
    """Top eigenvalue and operator norm of ``sum_i M_i (x) M_i`` for a real
    integer family, from one dense ``eigvalsh`` of the tensor sum: the
    eigensolve that the exact certificate of ``witnesses.tensor_certificate``
    replaced, kept as an independent oracle for small tensor dimensions."""
    M = np.asarray(mats, dtype=float)
    w = np.linalg.eigvalsh(nk.kron_sum(M, M))
    return float(w[-1]), float(max(abs(w[0]), abs(w[-1])))


def clifford_from_dense(mats) -> CliffordTuple:
    """The ``CliffordTuple`` of a dense ``(d, size, size)`` integer stack,
    read off as ``mats[i, a, perm[i, a]] = sign[i, a]``: the reader that
    ``CliffordTuple`` ran on construction when it still held the dense
    stack.  A stack with a row that is not a single +-1 entry has no such
    form and is refused."""
    mats = np.asarray(mats, dtype=np.int64)
    nonzero = mats != 0
    perm = nonzero.argmax(axis=2)
    sign = np.take_along_axis(mats, perm[:, :, None], axis=2)[:, :, 0]
    if (nonzero.sum(axis=2) != 1).any() or (np.abs(sign) != 1).any():
        raise ValueError("a row is not a single +-1 entry")
    return CliffordTuple(len(mats), perm, sign)


def clifford_dense_kron(d: int) -> np.ndarray:
    """The dense ``(d, 2^(d-1), 2^(d-1))`` int64 Clifford stack by the
    Kronecker recursion ``(E1 (x) B_i, E2 (x) I)`` from ``[1]``: the build
    that the signed-permutation recursion of ``witnesses.clifford_tuple``
    replaced, kept as its oracle."""
    E1 = np.array([[0, 1], [1, 0]], dtype=np.int64)
    E2 = np.array([[1, 0], [0, -1]], dtype=np.int64)
    mats = np.ones((1, 1, 1), dtype=np.int64)
    for _ in range(d - 1):
        size = mats.shape[1]
        mats = np.concatenate([
            np.kron(E1[None], mats),
            np.kron(E2, np.eye(size, dtype=np.int64))[None]])
    return mats


def tensor_matvec_dense(mats, conj_right: bool, v) -> np.ndarray:
    """``vec(V) -> vec(sum_i M_i V R_i^T)`` with ``R_i = conj(M_i)`` or
    ``M_i``, by dense matrix products: the action of the tensor sum
    ``sum_i M_i (x) R_i`` that a signed gather on the ``(perm, sign)`` form
    of a signed-permutation family must reproduce."""
    mats = np.asarray(mats, dtype=complex)
    q = mats.shape[1]
    rights = (np.conj(mats) if conj_right else mats).swapaxes(1, 2)
    V = v.reshape(q, q)
    out = np.zeros_like(V)
    for M, R in zip(mats, rights):
        out += M @ V @ R
    return out.reshape(-1)


def kron_sum_loop(A, B) -> np.ndarray:
    return sum(np.kron(Aj, Bj) for Aj, Bj in zip(A, B))


def square_sum_loop(X) -> np.ndarray:
    return sum(M @ M for M in X)


def norms_loop(X) -> list[float]:
    return [nk.opnorm(M) for M in X]


def herm_stack_loop(mats, tol: float = nk.HERMITICITY_TOL) -> np.ndarray:
    return np.stack([nk.hermitize(M, tol=tol) for M in mats])


def hat_tuple_loop(X) -> list[np.ndarray]:
    mats = []
    for M in X:
        n = M.shape[0]
        H = np.zeros((2 * n, 2 * n), dtype=complex)
        H[:n, n:] = M
        H[n:, :n] = M.conj().T
        mats.append(H)
    return mats


def tilde_tuple_loop(X) -> list[np.ndarray]:
    mats = []
    for M in X:
        n = M.shape[0]
        H = np.zeros((n + 1, n + 1), dtype=complex)
        H[:n, :n] = M
        mats.append(H)
    return mats


def re_im_parts(mats) -> np.ndarray:
    """Hermitian real and imaginary parts of a ``(d, n, n)`` stack,
    interleaved: ``(Re M_1, Im M_1, ..., Re M_d, Im M_d)`` with
    ``M = Re M + i Im M``."""
    M = np.asarray(mats, dtype=complex)
    if M.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim {M.ndim}")
    Mh = M.conj().swapaxes(1, 2)
    parts = np.empty((2 * len(M),) + M.shape[1:], dtype=complex)
    parts[0::2] = (M + Mh) / 2.0
    parts[1::2] = (M - Mh) / 2.0j
    return parts


def re_im_parts_loop(mats) -> list[np.ndarray]:
    parts = []
    for M in mats:
        M = np.asarray(M, dtype=complex)
        parts.append((M + M.conj().T) / 2.0)
        parts.append((M - M.conj().T) / 2.0j)
    return parts


def first_coincident_pair_loop(V, radius):
    for i in range(V.shape[0]):
        for j in range(i + 1, V.shape[0]):
            if np.linalg.norm(V[i] - V[j]) <= radius[i]:
                return i, j
    return None


def gram_permutations_backtrack(G, tol) -> np.ndarray:
    """Gram-preserving index permutations by depth-first backtracking with
    partial-Gram pruning: the search that the level-synchronous one of
    ``frames._gram_permutations`` replaced, rows in the order found."""
    N = G.shape[0]
    out: list[list[int]] = []
    assigned = [-1] * N
    used = [False] * N

    def extend(i: int):
        if i == N:
            out.append(assigned.copy())
            return
        for j in range(N):
            if used[j] or abs(G[j, j] - G[i, i]) > tol:
                continue
            ok = True
            for k in range(i):
                if abs(G[assigned[k], j] - G[k, i]) > tol:
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                extend(i + 1)
                used[j] = False
                assigned[i] = -1

    extend(0)
    return np.array(out, dtype=np.intp).reshape(-1, N)


def assert_search_matches_backtracking(G, tol) -> None:
    """``frames._gram_permutations`` returns the oracle's rows, in its
    order, which is strictly increasing lexicographic order."""
    rows = frames._gram_permutations(G, tol)
    assert rows.dtype == np.intp and rows.shape[1:] == (G.shape[0],)
    assert np.array_equal(rows, gram_permutations_backtrack(G, tol))
    listed = rows.tolist()
    assert all(a < b for a, b in zip(listed, listed[1:]))


def _rows_within_sort(rows, table) -> bool:
    """Is every row of ``rows`` a row of ``table``?  One lexicographic sort
    of both, table rows first among equal rows."""
    both = np.concatenate([table, rows.astype(table.dtype)])
    from_rows = np.repeat([False, True], [len(table), len(rows)])
    order = np.lexsort((from_rows, *both.T[::-1]))
    both = both[order]
    starts = np.ones(len(both), dtype=bool)
    starts[1:] = np.any(both[1:] != both[:-1], axis=1)
    return not np.any(from_rows[order][starts])


def closure_all_pairs(perms) -> bool:
    """Do the rows of ``perms`` hold every inverse and all P^2 compositions?
    A chunk of compositions at a time: the O(P^2 N) check that the
    generator growth of ``SymmetryGroup.verify_closure`` replaced."""
    perms = np.asarray(perms)
    N = perms.shape[1]
    perms = perms.astype(np.min_scalar_type(N))
    if not _rows_within_sort(np.argsort(perms, axis=1), perms):
        return False
    step = max(1, (1 << 16) // max(len(perms), 1))
    for lo in range(0, len(perms), step):
        composed = perms[:, perms[lo:lo + step]]
        if not _rows_within_sort(composed.reshape(-1, N), perms):
            return False
    return True


def dilation_residuals_loop(T, V, X, scale) -> dict:
    """``dilation.dilation_residuals`` with the blocks and compressions
    gathered matrix by matrix."""
    d, n = len(T), V.shape[1]
    k = T[0].shape[0] // n
    p = np.arange(k)
    B = np.stack([Ti.reshape(n, k, n, k)[:, p, :, p] for Ti in T], axis=1)
    Bh = B.conj().swapaxes(-1, -2)
    i, j = np.triu_indices(d, 1)
    comm = B[:, i] @ B[:, j] - B[:, j] @ B[:, i]
    if np.array_equal(B, Bh):
        comm = 0.5j * (comm - comm.conj().swapaxes(-1, -2))
    Vh = V.conj().T
    return {
        "isometry": nk.opnorm(Vh @ V - np.eye(n)),
        "commutator": nk.opnorm(comm),
        "normality": nk.opnorm(B @ Bh - Bh @ B),
        "compression": nk.opnorm(np.stack([Vh @ Ti @ V for Ti in T])
                                 - scale * np.stack(list(X))),
        "max_norm": nk.opnorm(B),
    }


def hull_weights_loop(points, x):
    """``sdp.hull_weights`` with a per-scalar entering scan and a per-row
    elimination: the phase-1 Bland simplex of the general ``lp_feasible``
    that it replaced, on the same system ``[1^T; P^T] lam = [1; x]``, whose
    verdicts and weights ``hull_weights`` must keep bit for bit."""
    P = np.asarray(points, dtype=float)
    N = P.shape[0]
    A = np.vstack([np.ones((1, N)), P.T])
    b = np.concatenate([[1.0], np.asarray(x, dtype=float).ravel()])
    m = A.shape[0]
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1
    T = np.zeros((m + 1, N + m + 1))
    T[:m, :N] = A
    T[:m, N:N + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(N, N + m))
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, N:N + m] = 0.0
    for _ in range(sdp.LP_PIVOT_CAP):
        enter = -1
        for j in range(N + m):
            if T[m, j] < -sdp.PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio, best_basis = -1, np.inf, None
        for i in range(m):
            a = T[i, enter]
            if a > sdp.PIVOT_TOL:
                ratio = T[i, -1] / a
                if (ratio < best_ratio - 1e-15 or
                        (abs(ratio - best_ratio) <= 1e-15 and
                         (best_basis is None or basis[i] < best_basis))):
                    leave, best_ratio, best_basis = i, ratio, basis[i]
        if leave < 0:
            T[m, enter] = 0.0
            continue
        piv = T[leave, enter]
        T[leave] /= piv
        for r in range(m + 1):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    else:
        raise sdp.LpCycleGuardError("simplex iteration cap reached")
    if -T[m, -1] > 1e-8 * max(1.0, float(np.max(np.abs(b)))):
        return None
    lam = np.zeros(N)
    for i, bi in enumerate(basis):
        if bi < N:
            lam[bi] = T[i, -1]
    return lam


def convex_weights_hold(points, x, lam, tol: float = 1e-8) -> bool:
    """Are ``lam`` convex weights that reproduce ``x`` from the rows of
    ``points``, each of ``lam >= 0``, ``sum lam = 1`` and ``P^T lam = x``
    within ``tol * max(1, ||x||_inf)``?  The simplex leaves basic weights
    that should be 0 at about -1e-17 now and then."""
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
    return bool(lam is not None and np.all(lam >= -tol * scale)
                and abs(lam.sum() - 1.0) <= tol * scale
                and np.max(np.abs(P.T @ lam - x), initial=0.0) <= tol * scale)


def projection_invariance_per_point(frame: Frame) -> bool:
    """One LP per distinct projected vertex ``(1/l^2) <v_j, v_i> v_i``: the
    test that the one-point-per-vector ``frames.projection_invariance``
    replaced."""
    V = frame.vectors
    W = ((frame.gram().T / frame.norm ** 2)[:, :, None] * V[:, None, :]
         ).reshape(-1, frame.dim)
    order, starts = frames._sorted_runs(W)
    return all(sdp.hull_weights(V, w) is not None for w in W[order][starts])

# ---------------------------------------------------------------------------
# Joint diagonalisation of a commuting family, kept as the oracle for the
# closed-form joint spectra of the rank-one-family dilations
# ---------------------------------------------------------------------------


# Simultaneous diagonalization: eigenvalue clusters of a random combination are
# split at 1e-8 * max operator norm of the family.
CLUSTER_TOL_REL = 1e-8


class NotCommutingError(NumKernelError):
    """A family handed to the joint diagonalizer fails the commutator test."""

    def __init__(self, i: int, j: int, norm: float, bound: float):
        super().__init__(
            f"matrices {i} and {j} do not commute: "
            f"commutator norm {norm:.3e} exceeds bound {bound:.3e}"
        )
        self.pair = (i, j)
        self.norm = norm
        self.bound = bound


@dataclass(frozen=True)
class JointSpectrum:
    """Joint eigenvalue tuples of a commuting family, listed with multiplicity.

    ``points`` has one row per ambient dimension; rows repeat according to
    multiplicity.  Rows are real for Hermitian families, complex for normal
    ones.
    """

    points: np.ndarray  # (n, d)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def sorted_points(self) -> np.ndarray:
        """Rows sorted lexicographically (real then imaginary parts)."""
        pts = self.points
        keys = []
        for j in range(pts.shape[1] - 1, -1, -1):
            keys.append(pts[:, j].imag)
            keys.append(pts[:, j].real)
        order = np.lexsort(keys)
        return pts[order]


def _offdiag_norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norms of the off-diagonal parts of an ``(F, n, n)`` stack."""
    return np.linalg.norm(M * (1.0 - np.eye(M.shape[-1])), axis=(-2, -1))


def _split_clusters(w: np.ndarray, gap: float) -> list[slice]:
    """Slice the ascending eigenvalue list into clusters separated by > gap."""
    clusters = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > gap:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, len(w)))
    return clusters


def _simdiag_recurse(mats: np.ndarray, rng: np.random.Generator,
                     cluster_tol: float, depth: int) -> np.ndarray:
    n = mats.shape[1]
    if n == 1:
        return np.eye(1, dtype=complex)
    if not _offdiag_norms(mats).any():
        return np.eye(n, dtype=complex)
    # Deviation from a scalar family: any orthonormal basis diagonalizes it.
    means = np.trace(mats, axis1=1, axis2=2)[:, None, None] / n
    dev = float(np.linalg.norm(mats - means * np.eye(n), axis=(1, 2)).max())
    if dev <= cluster_tol:
        return np.eye(n, dtype=complex)
    if depth > 40:
        raise EigenSolveError(
            "joint diagonalization failed to split a degenerate cluster",
            residual=dev,
        )
    coeffs = rng.standard_normal(len(mats))
    M = lincomb(coeffs[None, :], mats)[0]
    w, Q = np.linalg.eigh((M + M.conj().T) / 2.0)
    clusters = _split_clusters(w, cluster_tol)
    if len(clusters) == 1:
        # Unlucky combination; retry with fresh coefficients.
        return _simdiag_recurse(mats, rng, cluster_tol, depth + 1)
    blocks = []
    for cl in clusters:
        Qc = Q[:, cl]
        if cl.stop - cl.start == 1:
            blocks.append(Qc)
            continue
        Usub = _simdiag_recurse(Qc.conj().T @ mats @ Qc, rng, cluster_tol,
                                depth + 1)
        blocks.append(Qc @ Usub)
    return np.hstack(blocks)


def simultaneous_diagonalize(mats: Sequence, tol: float = 1e-8,
                             seed: int = 0) -> tuple[np.ndarray, JointSpectrum]:
    """Jointly diagonalize a commuting family of Hermitian matrices of one
    size (a ``(d, n, n)`` stack or a sequence): a unitary ``U`` with
    ``U* T_i U`` diagonal to within the commutator bound, and the joint
    spectrum read off the diagonals.  An already-diagonal family comes back
    exactly, with ``U = I``.

    ``tol`` bounds every commutator relative to the largest operator norm;
    the first pair in index order that breaks it raises
    :class:`NotCommutingError`.  ``seed`` seeds the random combinations
    that split degenerate eigenspaces, so the result is deterministic.
    """
    mats = np.asarray(mats, dtype=complex)
    if not len(mats):
        raise ValueError("empty family")
    if mats.ndim != 3:
        raise ValueError("family members must share one size")
    mats = hermitize(mats)
    n = mats.shape[1]
    scale = opnorm(mats)
    bound = tol * max(scale, 1e-300)
    # One row of commutators at a time: [T_i, T_j] for every j > i.
    for i in range(len(mats) - 1):
        comm = mats[i] @ mats[i + 1:] - mats[i + 1:] @ mats[i]
        if opnorm(comm) > bound:
            norms = opnorms(comm)
            j = int(np.argmax(norms > bound))
            raise NotCommutingError(i, i + 1 + j, float(norms[j]), bound)
    if not _offdiag_norms(mats).any():
        points = np.diagonal(mats, axis1=1, axis2=2).real.T.copy()
        return np.eye(n, dtype=complex), JointSpectrum(points=points)
    rng = np.random.default_rng(seed)
    cluster_tol = CLUSTER_TOL_REL * max(scale, 1e-300)
    U = _simdiag_recurse(mats, rng, cluster_tol, 0)
    D = U.conj().T @ mats @ U
    res = float(_offdiag_norms(D).max())
    if res > max(bound * 10 * n, cluster_tol * 10 * n):
        raise EigenSolveError(
            f"joint diagonalization residual {res:.3e} too large",
            residual=res,
        )
    points = np.real(np.diagonal(D, axis1=1, axis2=2)).T.copy()
    return U, JointSpectrum(points=points)


def joint_spectrum_normal(mats: Sequence, tol: float = 1e-8,
                          seed: int = 0) -> tuple[np.ndarray, JointSpectrum]:
    """Joint spectrum of a commuting *normal* family via real/imaginary parts.

    Each matrix splits as ``M = R + iS`` with ``R, S`` Hermitian; for a
    commuting normal family the 2d-tuple of parts commutes, so the Hermitian
    routine applies and the complex points are recombined afterwards.
    """
    U, spec = simultaneous_diagonalize(re_im_parts(mats), tol=tol, seed=seed)
    pts = spec.points
    complex_pts = pts[:, 0::2] + 1j * pts[:, 1::2]
    return U, JointSpectrum(points=complex_pts)
