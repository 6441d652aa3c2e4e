"""Constructive commuting dilations.

Rank-one family construction.  Given rank-one real d x d matrices
``lam^(1..k)`` and convex weights with ``sum_p beta_p lam^(p) = I``, the
block-diagonal recipe ``T_i = sum_j X_j (x) S_ij`` with
``S_ij = diag(lam^(p)_ij)_p`` commutes (rank-one-ness kills every commutator
block), and the isometry ``h -> h (x) sum_p sqrt(beta_p) e_p`` compresses it
to ``X``.  Block ``p`` of ``T`` is the tuple ``Y^(p)_i = sum_j lam^(p)_ij
X_j``; with ``lam^(p) = u w^T`` it is ``u_i`` times one Hermitian matrix, so
its joint spectrum is ``u`` times that matrix's spectrum.  Every
Hermitian dilation below is this recipe applied to some family: one builder
makes ``(T, V)`` and one finisher recomputes and checks the residual record.
Coordinate projections scaled by d give the cube-to-scaled-diamond
dilation; weighted frame families give spectra inside a prescribed polytope.

Flip construction.  The sign-vector family, ``u u^T`` for every u in
``{-1, 1}^d`` with leading entry +1 and uniform weights ``2^(1-d)``, dilates
a Hermitian contraction tuple on C^n to a commuting self-adjoint tuple on
``C^n (x) C^(2^(d-1))``.  Block u of ``T_i`` is ``u_i sum_j u_j X_j``, a sum
of d contractions, so ``||T_i|| <= d``.  The classical swap form
(``T_1 = sum_j X_j (x) W_j`` with ``W_j`` the swap of factor j-1 of
``(C^2)^(d-1)``, ``T_i = T_1 (I (x) W_i)``, isometry along the first basis
vector) is the same dilation seen through the Hadamard transform on
``(C^2)^(d-1)``: column u of that transform is the joint eigenvector of the
swaps with eigenvalues ``u_2, ..., u_d``.  Tuples whose signed sums stay
below I get the same family with norm bound 1.

Size and verification.  The family has 2^(d-1) members, and a report
prints every entry of the d dense matrices of size n k, so every rank-one
dilation is capped at ``DILATION_ENTRY_CAP`` entries ``d (n k)^2``, checked
from (d, n, k) before the family or any array is built.  Every dilation is
exactly block-diagonal in the builder's layout, so the residual record is
computed block by block: a masked max shows that every entry between blocks
is exactly 0.0 (any other value raises ``DilationError``), then the
commutators, normality defects and norms of the k diagonal n x n blocks
each come from one batched ``opnorm``.  A stated ``norm_bound`` is checked
against the largest norm.  Where a theorem names the set that holds the
joint spectrum (d times the cube for flip, the cube for diamond, d times the
l1 ball for cube-to-diamond, ``conv{+-c_m v^(m)}`` for a frame), the record
also carries ``spectrum_excess``, the largest gauge of a joint eigenvalue in
that set less 1, and a positive one is refused.  It needs the family's
factors ``lam^(p) = u_p w_p^T`` as well: the spectrum is the points
``mu u_p``, mu an eigenvalue of ``H_p = sum_j w_pj X_j``, from one batched
``eigvalsh`` of the k n x n matrices H_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numkernel as nk
from .sdp import hull_weights
from .sets import (
    GenTuple,
    HermTuple,
    cube_member,
    first_failing_row,
    first_violated_sign,
)

# Most matrix entries, d (n k)^2 for d matrices of size n k, that a
# rank-one-family dilation may have.  Output size is what costs, since the
# report prints every entry: `matconv dilate flip` at d = 5, n = 57 (4.16M
# entries, just under the cap) wrote 177 MB in 2.8 s with a peak RSS of
# 444 MB (2-core Xeon, one BLAS thread).
DILATION_ENTRY_CAP = 2 ** 22
RANK_ONE_REL_TOL = 1e-9
IDENTITY_RECON_TOL = 1e-9


class DilationError(Exception):
    pass


class DilationInputError(DilationError):
    """Inputs that do not fit together or do not describe a construction's
    data (a family or frame of another dimension, a frame that is not
    tight): an input error, not a negative answer about the tuple."""


@dataclass
class Dilation:
    """A commuting dilation with recomputable diagnostics.

    ``V* T_i V`` equals ``scale * X_i`` for the source tuple ``X``; the
    residual record carries nothing that cannot be recomputed from
    ``(T, V, scale)``, the source and, for ``spectrum_excess``, the factors
    ``(u, w)`` of the rank-one family it was built from.
    """

    T: np.ndarray                # (d, dim, dim)
    V: np.ndarray
    scale: float
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.T.shape[1]

    @property
    def d(self) -> int:
        return self.T.shape[0]


def dilation_residuals(T, V: np.ndarray,
                       X: GenTuple, scale: float) -> dict[str, float]:
    """Recompute every claim a Dilation makes: isometry defect, max pairwise
    commutator, max normality defect, compression error against scale * X,
    and the largest operator norm.

    Every dilation here is block-diagonal in the ``(a, p)`` layout of
    :func:`_build`: with ``n = V.shape[1]`` and ``k = dim / n``, entry
    ``(a, p), (b, q)`` of ``T_i`` is zero unless ``p = q``.  A masked max
    over each ``T_i`` checks that every entry between blocks is exactly
    0.0, and a nonzero one raises :class:`DilationError`.  The commutators,
    normality defects and norms are then those of the ``k`` diagonal
    ``n x n`` blocks, each maximum from one batched ``opnorm``.  The
    isometry and compression are checked on the dense matrices, through the
    thin ``V``.
    """
    T = np.asarray(T)
    d, n = len(T), V.shape[1]
    k = T.shape[1] // n
    between = ~np.eye(k, dtype=bool)[:, None, :]        # (p, b, q), p != q
    # One matrix at a time: |T| of the whole stack would double the memory.
    off = max(float(np.abs(Ti.reshape(n, k, n, k)).max(
        where=between, initial=0.0)) for Ti in T)
    if off != 0.0:
        raise DilationError(
            f"entry of size {off:.3e} between diagonal blocks: the dilation "
            f"is not block-diagonal")
    p = np.arange(k)
    B = T.reshape(d, n, k, n, k)[:, :, p, :, p]        # (k, d, n, n)
    Bh = B.conj().swapaxes(-1, -2)
    i, j = np.triu_indices(d, 1)
    comm = B[:, i] @ B[:, j] - B[:, j] @ B[:, i]
    if np.array_equal(B, Bh):
        # Hermitian blocks have skew commutators: i times the skew part of
        # the computed ones is exactly Hermitian, for opnorm's eigvalsh.
        comm = 0.5j * (comm - comm.conj().swapaxes(-1, -2))
    Vh = V.conj().T
    return {
        "isometry": nk.opnorm(Vh @ V - np.eye(n)),
        "commutator": nk.opnorm(comm),
        "normality": nk.opnorm(B @ Bh - Bh @ B),
        "compression": nk.opnorm(Vh @ T @ V - scale * X.matrices),
        "max_norm": nk.opnorm(B),
    }


def _require_entry_cap(d: int, n: int, k: int) -> None:
    """Refuse, before anything is built, a dilation of ``d`` matrices of
    size ``n k`` past ``DILATION_ENTRY_CAP`` entries."""
    entries = d * (n * k) ** 2
    if entries > DILATION_ENTRY_CAP:
        raise DilationError(
            f"refusing {d} matrices of size {n * k} ({entries} entries): "
            f"dilations are capped at {DILATION_ENTRY_CAP} entries")


def _require_contractions(X: GenTuple, tol: float = 1e-9) -> None:
    norms = X.norms()
    bad = np.flatnonzero(norms > 1.0 + tol)
    if bad.size:
        raise DilationError(f"entry {bad[0]} is not a contraction: "
                            f"norm {norms[bad[0]]:.6f}")


def _validate(dil: Dilation) -> Dilation:
    """Hard caps on the residual record, with the norm bound and the
    spectrum excess where it states them; a violation means the dilation
    is not what its construction claims."""
    r = dil.residuals
    big = max(1.0, r["max_norm"])
    if r["isometry"] > 1e-10:
        raise DilationError(f"isometry defect {r['isometry']:.3e}")
    if r["commutator"] > 1e-9 * big * big:
        raise DilationError(f"commutator residual {r['commutator']:.3e}")
    if r["compression"] > 1e-9 * max(1.0, abs(dil.scale)):
        raise DilationError(f"compression residual {r['compression']:.3e}")
    if "norm_bound" in r and r["max_norm"] > (1 + 1e-9) * r["norm_bound"]:
        raise DilationError(f"largest norm {r['max_norm']:.9g} exceeds the "
                            f"norm bound {r['norm_bound']:.9g}")
    if r.get("spectrum_excess", 0.0) > 1e-9:
        raise DilationError(
            f"spectrum excess {r['spectrum_excess']:.3e}: the joint "
            f"spectrum leaves the target set")
    return dil


def _build(X: HermTuple, fam: LambdaFamily,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(T, V)`` of the rank-one-family dilation of ``X``.

    ``T_i`` is laid out as ``sum_j X_j (x) diag(lam^(p)_ij)_p``, so its
    entry ``(a, p), (b, p)`` is block p entry ``(a, b)`` and every entry
    between two blocks is zero; ``V = I_n (x) sqrt(beta)``.  The blocks are
    real combinations of the exactly Hermitian entries of a ``HermTuple``,
    so T is exactly self-adjoint without a symmetrizing pass.
    """
    if not X.hermitian:
        raise DilationError("rank-one-family dilation needs a Hermitian tuple")
    n, k = X.n, fam.k
    _require_entry_cap(fam.d, n, k)
    T = np.zeros((fam.d, n, k, n, k), dtype=complex)
    p = np.arange(k)
    T[:, :, p, :, p] = lambda_blocks(X, fam)
    V = np.kron(np.eye(n), np.sqrt(fam.betas)[:, None])
    return T.reshape(fam.d, n * k, n * k), V


def _finish(T: np.ndarray, V: np.ndarray, X: GenTuple,
            scale: float = 1.0, fam: LambdaFamily | None = None,
            gauge: Callable[[np.ndarray], np.ndarray] | None = None,
            **extra: float) -> Dilation:
    """Wrap ``(T, V)`` with its recomputed residuals plus ``extra`` and
    check them.

    Given the family ``T`` was built from and the gauge of the target set
    of its theorem (row-wise on ``(k, d)`` points, 1 on the boundary), the
    record also carries ``spectrum_excess``, the largest gauge over the
    joint spectrum ``{scale mu u_p}`` less 1: on block p that is the gauge
    of ``scale rho_p u_p``, with ``rho_p`` the spectral radius of ``H_p``.
    """
    dil = Dilation(T=T, V=V, scale=scale,
                   residuals=dilation_residuals(T, V, X, scale))
    if gauge is not None:
        rho = np.abs(block_spectra(X, fam)).max(axis=1)
        top = float(gauge(scale * rho[:, None] * fam.u).max())
        dil.residuals["spectrum_excess"] = top - 1.0
    dil.residuals.update(extra)
    return _validate(dil)


# ---------------------------------------------------------------------------
# Rank-one families
# ---------------------------------------------------------------------------


@dataclass
class LambdaFamily:
    """Rank-one real d x d matrices with convex weights reconstructing I.

    ``u`` and ``w`` are the factors ``lam^(p) = u_p w_p^T``, each ``(k, d)``,
    from the leading singular pair of each member.  Betas in
    ``[-1e-12, 0)`` are rounding and are clipped to 0.
    """

    lambdas: np.ndarray          # (k, d, d)
    betas: np.ndarray            # (k,)
    u: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        if self.lambdas.ndim != 3 or self.lambdas.shape[1] != self.lambdas.shape[2]:
            raise ValueError("lambdas must be a stack of square matrices")
        if self.betas.shape != (self.lambdas.shape[0],):
            raise ValueError("betas length mismatch")
        U, sv, Wt = np.linalg.svd(self.lambdas)      # sv is (k, d)
        bad = (sv[:, 0] == 0.0) | np.any(
            sv[:, 1:] > RANK_ONE_REL_TOL * sv[:, :1], axis=1)
        if bad.any():
            raise ValueError(
                f"family member {int(np.argmax(bad))} is not numerically rank one")
        if np.any(self.betas < -1e-12):
            raise ValueError("betas must be nonnegative")
        self.betas = np.maximum(self.betas, 0.0)
        if abs(self.betas.sum() - 1.0) > 1e-9:
            raise ValueError("betas must sum to one")
        recon = np.tensordot(self.betas, self.lambdas, axes=(0, 0))
        err = float(np.linalg.norm(recon - np.eye(self.d)))
        if err > IDENTITY_RECON_TOL:
            raise ValueError(f"identity reconstruction residual {err:.3e}")
        self.u = U[:, :, 0] * sv[:, :1]
        self.w = Wt[:, 0, :]

    @property
    def k(self) -> int:
        return self.lambdas.shape[0]

    @property
    def d(self) -> int:
        return self.lambdas.shape[1]


def flip_sign_family(d: int, n: int = 1) -> LambdaFamily:
    """The flip construction's rank-one family: one matrix ``u u^T`` per sign
    vector u with leading entry +1, in the order of ``np.ndindex`` over the
    other d-1 signs, with uniform weights.  Refuses, before any of the
    2^(d-1) members is built, a family whose dilation of n x n matrices
    would pass ``DILATION_ENTRY_CAP``."""
    k = 2 ** (d - 1)
    _require_entry_cap(d, n, k)
    u = np.hstack([np.ones((k, 1)), nk.sign_rows(d - 1, 0, k)])
    return LambdaFamily(u[:, :, None] * u[:, None, :], np.full(k, 1.0 / k))


def _coordinate_family(d: int) -> LambdaFamily:
    """Coordinate projections ``d e_m e_m^T`` with uniform weights."""
    lams = np.zeros((d, d, d))
    m = np.arange(d)
    lams[m, m, m] = d
    return LambdaFamily(lams, np.full(d, 1.0 / d))


def decompose_identity(lambdas: Sequence) -> LambdaFamily:
    """Find convex weights beta with ``sum_p beta_p lam^(p) = I`` by linear
    programming (first Bland-feasible solution; only existence matters)."""
    lams = np.array(lambdas, dtype=float)
    k, d = lams.shape[0], lams.shape[1]
    beta = hull_weights(lams.reshape(k, d * d), np.eye(d).ravel())
    if beta is None:
        raise DilationError("identity not in convex hull of the family")
    return LambdaFamily(lams, beta / beta.sum())


def lambda_blocks(X: HermTuple, fam: LambdaFamily) -> np.ndarray:
    """The diagonal blocks ``Y[p, i] = sum_j lam^(p)_ij X_j`` of the
    rank-one-family dilation, as a ``(k, d, n, n)`` array, without building
    the big matrices."""
    if fam.d != X.d:
        raise DilationInputError(
            f"family dimension {fam.d} does not match tuple length {X.d}")
    Y = nk.lincomb(fam.lambdas.reshape(fam.k * fam.d, fam.d), X.matrices)
    return Y.reshape(fam.k, fam.d, X.n, X.n)


def block_spectra(X: HermTuple, fam: LambdaFamily) -> np.ndarray:
    """Ascending eigenvalues of ``H_p = sum_j w_pj X_j``, one row per family
    member, as a ``(k, n)`` array.  Block p of the rank-one-family dilation
    is ``Y[p, i] = u_pi H_p``, so its joint spectrum is the points
    ``mu u_p`` for mu in row p."""
    return np.linalg.eigvalsh(nk.lincomb(fam.w, X.matrices))


# ---------------------------------------------------------------------------
# Dilations from the families
# ---------------------------------------------------------------------------


def lambda_dilation(X: HermTuple, fam: LambdaFamily) -> Dilation:
    """Commuting self-adjoint dilation on dimension ``n * k`` built from a
    rank-one family; block p of the dilation is ``sum_j lam^(p)_ij X_j``."""
    return _finish(*_build(X, fam), X)


def flip_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a Hermitian contraction tuple on
    dimension ``n * 2^(d-1)`` with ``||T_i|| <= d`` and exact compression;
    the joint spectrum lands in d times the cube."""
    fam = flip_sign_family(X.d, X.n)
    _require_contractions(X, tol)
    return _finish(*_build(X, fam), X, fam=fam,
                   gauge=lambda x: np.abs(x).max(axis=1) / X.d,
                   norm_bound=float(X.d))


def diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint *contraction* dilation for tuples whose signed
    sums are all below the identity; the joint spectrum lands in the cube.

    The flip construction: block u of ``T_i`` is ``u_i`` times a signed sum.
    """
    fam = flip_sign_family(X.d, X.n)
    bad = first_violated_sign(X, tol=tol)
    if bad is not None:
        raise DilationError(
            f"signed sum with signs {bad.astype(int).tolist()} exceeds I")
    return _finish(*_build(X, fam), X, fam=fam,
                   gauge=lambda x: np.abs(x).max(axis=1), norm_bound=1.0)


def cube_to_diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a contraction tuple whose signed
    sums stay below ``d I``; the joint spectrum lands in the scaled l1 ball.

    Built from the family of coordinate projections scaled by d, so the
    dilation is the direct sum over slots p of ``(0, ..., d X_p, ..., 0)``.
    """
    if not cube_member(X, tol):
        raise DilationError("input is not a tuple of contractions")
    fam = _coordinate_family(X.d)
    return _finish(*_build(X, fam), X, fam=fam,
                   gauge=lambda x: np.abs(x).sum(axis=1) / X.d,
                   sign_sum_bound=float(X.d))


def frame_dilation(X: HermTuple, vectors, weights=None,
                   tol: float = 1e-9) -> Dilation:
    """Scaled commuting dilation adapted to a tight frame.

    Given a tight frame ``v^(1..N)`` (``sum v v^T = sigma I``) and positive
    weights c, let ``K = conv{+-c_m v^(m)}``.  The rank-one family
    ``lam^(m) = b_m v^(m) v^(m)T`` with ``b_m = (sum_i c_i) / (sigma c_m)``
    and weights ``beta_m = c_m / sum_i c_i`` reconstructs the identity, and
    for any X satisfying the vertex inequalities of the dual of K
    (``+- sum_j (c_m v^(m))_j X_j <= I``) the scaled dilation
    ``kappa T`` with ``kappa = sigma min_i c_i^3 / sum_i c_i`` has joint
    spectrum inside K.

    Returns a Dilation whose ``T`` is already the kappa-scaled tuple, so
    ``scale = kappa`` and ``V* T_i V = kappa X_i``.  The residual record
    carries kappa, sigma and the spectrum excess over K.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    N, d = V.shape
    if d != X.d:
        raise DilationInputError(
            "frame dimension does not match tuple length")
    if weights is None:
        weights = np.ones(N)
    c = np.asarray(weights, dtype=float).ravel()
    if c.shape != (N,) or np.any(c <= 0):
        raise DilationError("weights must be positive, one per frame vector")
    S = V.T @ V
    sigma = float(np.trace(S)) / d
    if np.linalg.norm(S - sigma * np.eye(d)) > 1e-9 * max(sigma, 1.0):
        raise DilationInputError("vectors do not form a tight frame")

    # Dual-polytope precondition: every signed weighted frame direction obeys
    # the operator inequality.  Rows 2m and 2m+1 are +c_m v^(m) and its
    # negative.
    alphas = np.repeat(c[:, None] * V, 2, axis=0)
    alphas[1::2] *= -1.0
    bad = first_failing_row(X, 2 * N, lambda lo, hi: (alphas[lo:hi], 1.0),
                             tol)
    if bad is not None:
        raise DilationError(
            f"tuple violates the dual inequality for frame vector {bad // 2} "
            f"(sign {1 - 2 * (bad % 2)})")

    csum = float(c.sum())
    b = csum / (sigma * c)
    lams = b[:, None, None] * (V[:, :, None] * V[:, None, :])
    zero = ~lams.any(axis=(1, 2))
    if zero.any():
        raise DilationInputError(
            f"frame vector {int(np.argmax(zero))} is zero")
    fam = LambdaFamily(lams, c / csum)
    T, W = _build(X, fam)
    kappa = sigma * float(np.min(c) ** 3) / csum
    # Point p of the spectrum lies on the line through v^(p), at t v^(p);
    # +- c_p v^(p) are vertices of K, so |t| / c_p bounds its gauge in K.
    cv = c * np.linalg.norm(V, axis=1)
    return _finish(kappa * T, W, X, kappa, fam=fam,
                   gauge=lambda x: np.linalg.norm(x, axis=1) / cv,
                   kappa=kappa, sigma=sigma)
