"""Constructive commuting dilations and positive-measure dilations.

Rank-one family construction.  Given rank-one real d x d matrices
``lam^(1..k)`` and convex weights with ``sum_p beta_p lam^(p) = I``, the
block-diagonal recipe ``T_i = sum_j X_j (x) S_ij`` with
``S_ij = diag(lam^(p)_ij)_p`` commutes (rank-one-ness kills every commutator
block), and the isometry ``h -> h (x) sum_p sqrt(beta_p) e_p`` compresses it
to ``X``.  Block ``p`` of ``T`` is the tuple ``Y^(p)_i = sum_j lam^(p)_ij
X_j``, so joint spectra come for free from the rank-one factorization.  Every
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
below I get the same family with norm bound 1.  General (nonself-adjoint)
contractions route through their real/imaginary parts on a doubled variable
count and recombine ``T_i = S_2i + i S_2i+1``, giving commuting normal
dilations with ``||T_i|| <= 2 sqrt(2) d`` (sign vectors) or ``<= 2d``
(scaled coordinate projections).  The family has 2^(d-1) members, so d is
capped at ``FLIP_D_CAP``.

Positive-measure dilation.  A finite positive decomposition of the identity
(effects ``A_j >= 0`` summing to I, tagged by spectral atoms) dilates to a
projection-valued one: stack the square roots ``A_j^(1/2)`` into an isometry
``W`` and take the block coordinate projections ``E_j``; then
``W* E_j W = A_j`` exactly and ``Y_i = sum_j w_i^(j) E_j`` is a commuting
normal tuple with spectrum in the atom set compressing to ``sum w^(j) A_j``.
Continuous measures are out of scope: inputs must already be finitely
supported (every producer in this package is).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numkernel as nk
from .sdp import LpProblem, lp_feasible
from .sets import (
    GenTuple,
    HermTuple,
    cube_member,
    first_failing_row,
    first_violated_sign,
    re_im_split,
)

# Largest d for which the n = 1 flip dilation (dense build plus residuals,
# dimension 2^(d-1)) finishes within a minute on one BLAS thread.
FLIP_D_CAP = 10
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
    ``(T, V, scale)`` and the source.
    """

    T: tuple[np.ndarray, ...]
    V: np.ndarray
    scale: float
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.T[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.T)


def dilation_residuals(T: Sequence[np.ndarray], V: np.ndarray,
                       X: GenTuple, scale: float) -> dict[str, float]:
    """Recompute every claim a Dilation makes: isometry defect, max pairwise
    commutator, max normality defect, compression error against scale * X,
    and the largest operator norm."""
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


def _require_contractions(X: GenTuple, tol: float = 1e-9) -> None:
    for idx, nrm in enumerate(X.norms()):
        if nrm > 1.0 + tol:
            raise DilationError(
                f"entry {idx} is not a contraction: norm {nrm:.6f}")


def _validate(dil: Dilation) -> Dilation:
    """Hard caps on the residual record; a violation is a construction bug,
    not an input problem."""
    r = dil.residuals
    big = max(1.0, r["max_norm"])
    if r["isometry"] > 1e-10:
        raise DilationError(f"isometry defect {r['isometry']:.3e}")
    if r["commutator"] > 1e-9 * big * big:
        raise DilationError(f"commutator residual {r['commutator']:.3e}")
    if r["compression"] > 1e-9 * max(1.0, abs(dil.scale)):
        raise DilationError(f"compression residual {r['compression']:.3e}")
    return dil


def _build(X: HermTuple, fam: LambdaFamily,
           ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
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
    T = np.zeros((fam.d, n, k, n, k), dtype=complex)
    p = np.arange(k)
    T[:, :, p, :, p] = lambda_blocks(X, fam)
    V = np.kron(np.eye(n), np.sqrt(fam.betas)[:, None])
    return tuple(T.reshape(fam.d, n * k, n * k)), V


def _finish(T: Sequence[np.ndarray], V: np.ndarray, X: GenTuple,
            scale: float = 1.0, **extra: float) -> Dilation:
    """Wrap ``(T, V)`` with its recomputed residuals plus ``extra`` and
    check them."""
    dil = Dilation(T=tuple(T), V=V, scale=scale,
                   residuals=dilation_residuals(T, V, X, scale))
    dil.residuals.update(extra)
    return _validate(dil)


# ---------------------------------------------------------------------------
# Rank-one families
# ---------------------------------------------------------------------------


@dataclass
class LambdaFamily:
    """Rank-one real d x d matrices with convex weights reconstructing I."""

    lambdas: np.ndarray          # (k, d, d)
    betas: np.ndarray            # (k,)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        if self.lambdas.ndim != 3 or self.lambdas.shape[1] != self.lambdas.shape[2]:
            raise ValueError("lambdas must be a stack of square matrices")
        if self.betas.shape != (self.lambdas.shape[0],):
            raise ValueError("betas length mismatch")
        sv = np.linalg.svd(self.lambdas, compute_uv=False)      # (k, d)
        bad = (sv[:, 0] == 0.0) | np.any(
            sv[:, 1:] > RANK_ONE_REL_TOL * sv[:, :1], axis=1)
        if bad.any():
            raise ValueError(
                f"family member {int(np.argmax(bad))} is not numerically rank one")
        if np.any(self.betas < -1e-12):
            raise ValueError("betas must be nonnegative")
        if abs(self.betas.sum() - 1.0) > 1e-9:
            raise ValueError("betas must sum to one")
        recon = np.tensordot(self.betas, self.lambdas, axes=(0, 0))
        err = float(np.linalg.norm(recon - np.eye(self.d)))
        if err > IDENTITY_RECON_TOL:
            raise ValueError(f"identity reconstruction residual {err:.3e}")

    @property
    def k(self) -> int:
        return self.lambdas.shape[0]

    @property
    def d(self) -> int:
        return self.lambdas.shape[1]

    def rank_one_factors(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """Each member as ``b * u w^T`` with unit vectors u, w and b > 0."""
        out = []
        for lam in self.lambdas:
            U, sv, Vt = np.linalg.svd(lam)
            out.append((float(sv[0]), U[:, 0], Vt[0, :]))
        return out


def flip_sign_family(d: int) -> LambdaFamily:
    """The flip construction's rank-one family: one matrix ``u u^T`` per sign
    vector u with leading entry +1, in the order of ``np.ndindex`` over the
    other d-1 signs, with uniform weights.  Refuses d beyond ``FLIP_D_CAP``
    before any of the 2^(d-1) members is built."""
    if d > FLIP_D_CAP:
        raise DilationError(
            f"refusing 2^{d - 1} sign patterns: the flip construction is "
            f"capped at d={FLIP_D_CAP}")
    k = 2 ** (d - 1)
    u = np.hstack([np.ones((k, 1)), nk.sign_rows(d - 1, 0, k)])
    return LambdaFamily(u[:, :, None] * u[:, None, :], np.full(k, 1.0 / k))


def _coordinate_family(d: int) -> LambdaFamily:
    """Coordinate projections ``d e_m e_m^T`` with uniform weights."""
    lams = np.zeros((d, d, d))
    m = np.arange(d)
    lams[m, m, m] = d
    return LambdaFamily(lams, np.full(d, 1.0 / d))


def decompose_identity(lambdas: Sequence, pivot_tol: float = 1e-9,
                       ) -> LambdaFamily:
    """Find convex weights beta with ``sum_p beta_p lam^(p) = I`` by linear
    programming (first Bland-feasible solution; only existence matters)."""
    lams = np.stack([np.asarray(L, dtype=float) for L in lambdas])
    k, d = lams.shape[0], lams.shape[1]
    rows = [np.ones(k)]
    rhs = [1.0]
    for i in range(d):
        for j in range(d):
            rows.append(lams[:, i, j])
            rhs.append(1.0 if i == j else 0.0)
    ok, beta = lp_feasible(LpProblem(np.vstack(rows), np.array(rhs)),
                           pivot_tol=pivot_tol)
    if not ok:
        raise DilationError("identity not in convex hull of the family")
    beta = np.clip(beta, 0.0, None)
    beta = beta / beta.sum()
    return LambdaFamily(lams, beta)


def lambda_blocks(X: HermTuple, fam: LambdaFamily) -> np.ndarray:
    """The diagonal blocks ``Y[p, i] = sum_j lam^(p)_ij X_j`` of the
    rank-one-family dilation, as a ``(k, d, n, n)`` array, without building
    the big matrices."""
    if fam.d != X.d:
        raise DilationInputError(
            f"family dimension {fam.d} does not match tuple length {X.d}")
    Y = nk.lincomb(fam.lambdas.reshape(fam.k * fam.d, fam.d), X.matrices)
    return Y.reshape(fam.k, fam.d, X.n, X.n)


def joint_spectrum_rank_one(fam: LambdaFamily, X: HermTuple) -> nk.JointSpectrum:
    """Joint spectrum of the rank-one-family dilation, from the factorization.

    Writing ``lam^(p) = b u w^T``, block p of the dilation is
    ``u_i * (sum_j b w_j X_j)``, so its joint spectrum is ``{mu u : mu in
    spec(sum_j b w_j X_j)}``; the union over p is returned with multiplicity.
    """
    if fam.d != X.d:
        raise DilationInputError("family dimension mismatch")
    b, U, W = zip(*fam.rank_one_factors())
    M = nk.lincomb(np.array(b)[:, None] * np.array(W), X.matrices)
    mus = np.linalg.eigvalsh(nk.hermitize(M, tol=np.inf))    # (k, n)
    pts = mus[:, :, None] * np.array(U)[:, None, :]           # (k, n, d)
    return nk.JointSpectrum(points=pts.reshape(-1, fam.d))


# ---------------------------------------------------------------------------
# Dilations from the families
# ---------------------------------------------------------------------------


def lambda_dilation(X: HermTuple, fam: LambdaFamily) -> Dilation:
    """Commuting self-adjoint dilation on dimension ``n * k`` built from a
    rank-one family; block p of the dilation is ``sum_j lam^(p)_ij X_j``."""
    return _finish(*_build(X, fam), X)


def flip_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a Hermitian contraction tuple on
    dimension ``n * 2^(d-1)`` with ``||T_i|| <= d`` and exact compression."""
    fam = flip_sign_family(X.d)
    _require_contractions(X, tol)
    return _finish(*_build(X, fam), X, norm_bound=float(X.d))


def diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint *contraction* dilation for tuples whose signed
    sums are all below the identity; the joint spectrum lands in the cube.

    The flip construction: block u of ``T_i`` is ``u_i`` times a signed sum.
    """
    fam = flip_sign_family(X.d)
    bad = first_violated_sign(X, tol=tol)
    if bad is not None:
        raise DilationError(
            f"signed sum with signs {bad.astype(int).tolist()} exceeds I")
    return _finish(*_build(X, fam), X, norm_bound=1.0)


def cube_to_diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a contraction tuple whose signed
    sums stay below ``d I``; the joint spectrum lands in the scaled l1 ball.

    Built from the family of coordinate projections scaled by d, so the
    dilation is the direct sum over slots p of ``(0, ..., d X_p, ..., 0)``.
    """
    if not cube_member(X, tol):
        raise DilationError("input is not a tuple of contractions")
    return _finish(*_build(X, _coordinate_family(X.d)), X,
                   sign_sum_bound=float(X.d))


def _normal_dilation(X: GenTuple, fam: LambdaFamily, tol: float,
                     norm_bound: float) -> Dilation:
    """Dilate the 2d real/imaginary parts of general contractions with
    ``fam`` and recombine ``T_i = S_2i + i S_2i+1``: commuting, since all S
    commute, and normal, since ``T_i* = S_2i - i S_2i+1``."""
    _require_contractions(X, tol)
    S, V = _build(re_im_split(X), fam)
    T = tuple(S[2 * i] + 1j * S[2 * i + 1] for i in range(X.d))
    return _finish(T, V, X, norm_bound=norm_bound)


def nonsa_flip_dilation(X: GenTuple, tol: float = 1e-9) -> Dilation:
    """Commuting normal dilation of a general contraction tuple with
    ``||T_i|| <= 2 sqrt(2) d``: the flip construction on the 2d real parts."""
    return _normal_dilation(X, flip_sign_family(2 * X.d), tol,
                            float(2 * np.sqrt(2) * X.d))


def coordinate_projection_dilation(X: GenTuple, tol: float = 1e-9) -> Dilation:
    """Commuting normal dilation of general contractions with
    ``||T_i|| <= 2d``: scaled coordinate projections on the 2d real parts."""
    return _normal_dilation(X, _coordinate_family(2 * X.d), tol,
                            float(2 * X.d))


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
    carries kappa and sigma.
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
    lams = np.stack([b[m] * np.outer(V[m], V[m]) for m in range(N)])
    T, W = _build(X, LambdaFamily(lams, c / csum))
    kappa = sigma * float(np.min(c) ** 3) / csum
    return _finish([kappa * Ti for Ti in T], W, X, kappa,
                   kappa=kappa, sigma=sigma)


# ---------------------------------------------------------------------------
# Positive-measure dilation
# ---------------------------------------------------------------------------


@dataclass
class Povm:
    """Finite positive decomposition of the identity, tagged by atoms.

    ``atoms`` is an (M, d) array of real or complex labels; ``effects`` are
    PSD matrices summing to the identity within ``sum_tol``.
    """

    atoms: np.ndarray
    effects: list[np.ndarray]
    psd_tol: float = 1e-10
    sum_tol: float = 1e-9

    def __post_init__(self):
        self.atoms = np.atleast_2d(np.asarray(self.atoms))
        self.effects = [nk.hermitize(E, tol=1e-8) for E in self.effects]
        if self.atoms.shape[0] != len(self.effects):
            raise ValueError("one effect per atom required")
        n = self.effects[0].shape[0]
        if any(E.shape != (n, n) for E in self.effects):
            raise ValueError("effects must share one size")
        for j, E in enumerate(self.effects):
            lo = float(np.linalg.eigvalsh(E)[0])
            if lo < -self.psd_tol:
                raise ValueError(
                    f"effect {j} is not PSD within tolerance (min eig {lo:.3e})")
        dev = float(nk.opnorm(sum(self.effects) - np.eye(n)))
        if dev > self.sum_tol:
            raise ValueError(f"effects sum to I only within {dev:.3e}")

    @property
    def n(self) -> int:
        return self.effects[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.effects)


@dataclass
class ProjectiveDilation:
    projections: list[np.ndarray]
    isometry: np.ndarray


def _psd_sqrt(E: np.ndarray) -> np.ndarray:
    # Effects may carry tiny negative eigenvalues within tolerance; clip at 0
    # before the square root.
    w, Q = np.linalg.eigh(E)
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.conj().T


def naimark_dilation(p: Povm) -> ProjectiveDilation:
    """Dilate a finite positive decomposition to a projective one.

    The isometry stacks the effect square roots; the projections are the
    block coordinate projections of the stacked space C^(n M), so they are
    exactly idempotent, Hermitian, and sum to the identity, with
    ``W* E_j W = A_j`` up to the square-root clipping error.
    """
    n, M = p.n, p.count
    W = np.vstack([_psd_sqrt(E) for E in p.effects])
    projections = []
    for j in range(M):
        E = np.zeros((n * M, n * M), dtype=complex)
        E[j * n:(j + 1) * n, j * n:(j + 1) * n] = np.eye(n)
        projections.append(E)
    return ProjectiveDilation(projections=projections, isometry=W)


def finite_normal_dilation(p: Povm) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Commuting normal tuple ``Y_i = sum_j atoms[j, i] E_j`` over the
    projective dilation, with ``W* Y_i W = sum_j atoms[j, i] A_j``."""
    proj = naimark_dilation(p)
    d = p.atoms.shape[1]
    Y = []
    for i in range(d):
        Yi = sum(p.atoms[j, i] * proj.projections[j] for j in range(p.count))
        Y.append(Yi)
    return tuple(Y), proj.isometry
