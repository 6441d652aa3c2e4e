"""Constructive commuting dilations and positive-measure dilations.

Three families of constructions live here.

Flip construction.  A Hermitian contraction tuple ``X`` on C^n dilates to a
commuting self-adjoint tuple on ``C^n (x) (C^2)^(d-1)``: tensor the entries
against products of the two-point swap acting in separate factor slots, so
``T_1 = sum_j X_j (x) W_j`` and ``T_i = T_1 U_i``.  Each ``T_i`` is a sum of d
contractions, so ``||T_i|| <= d``, and the embedding along the first basis
vector of every factor compresses ``T`` back to ``X`` exactly.  General
(nonself-adjoint) contractions route through their real/imaginary parts on a
doubled variable count and recombine, giving commuting normal dilations with
``||T_i|| <= 2 sqrt(2) d``.

Rank-one family construction.  Given rank-one real d x d matrices
``lam^(1..k)`` whose convex hull contains the identity, the block-diagonal
recipe ``T_i = sum_j X_j (x) S_ij`` with ``S_ij = diag(lam^(p)_ij)_p``
commutes (rank-one-ness kills every commutator block), and the isometry
``h -> h (x) sum_p sqrt(beta_p) e_p`` compresses it to ``X``.  Block ``p`` of
``T`` is the tuple ``Y^(p)_i = sum_j lam^(p)_ij X_j``, so joint spectra come
for free from the rank-one factorization.  The flip construction is the
special case of the sign-vector family; coordinate projections scaled by d
give the cube-to-scaled-diamond dilation; weighted frame families give
spectra inside a prescribed polytope.

Positive-measure dilation.  A finite positive decomposition of the identity
(effects ``A_j >= 0`` summing to I, tagged by spectral atoms) dilates to a
projection-valued one: stack the square roots ``A_j^(1/2)`` into an isometry
``W`` and take the block coordinate projections ``E_j``; then
``W* E_j W = A_j`` exactly and ``Y_i = sum_j w_i^(j) E_j`` is a commuting
normal tuple with spectrum in the atom set compressing to ``sum w^(j) A_j``.
Continuous measures are out of scope: inputs must already be finitely
supported (every producer in this package is), though the textbook dimension
counting is recorded in :func:`normal_dilation_dim_bound`.
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

FLIP_D_CAP_SA = 16
FLIP_D_CAP_GEN = 8
RANK_ONE_REL_TOL = 1e-9
IDENTITY_RECON_TOL = 1e-9


class DilationError(Exception):
    pass


@dataclass
class Dilation:
    """A commuting dilation with recomputable diagnostics.

    ``compress()`` applied to ``T`` returns ``scale * X`` for the source
    tuple ``X``; the residual record carries nothing that cannot be recomputed
    from ``(T, V, scale)`` and the source.
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

    def compress(self) -> list[np.ndarray]:
        return [self.V.conj().T @ Ti @ self.V for Ti in self.T]


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


def _validate(dil: Dilation, source_scale: float = 1.0) -> Dilation:
    """Hard caps on the residual record; a violation is a construction bug,
    not an input problem."""
    r = dil.residuals
    big = max(1.0, r["max_norm"])
    if r["isometry"] > 1e-10:
        raise DilationError(f"isometry defect {r['isometry']:.3e}")
    if r["commutator"] > 1e-9 * big * big:
        raise DilationError(f"commutator residual {r['commutator']:.3e}")
    if r["compression"] > 1e-9 * max(1.0, abs(source_scale)):
        raise DilationError(f"compression residual {r['compression']:.3e}")
    return dil


# ---------------------------------------------------------------------------
# Flip construction
# ---------------------------------------------------------------------------

_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _flip_factors(d: int) -> list[np.ndarray]:
    """W_1 = I and, for i >= 2, the swap acting in factor slot i-1."""
    size = 2 ** (d - 1)
    Ws = [np.eye(size)]
    for i in range(2, d + 1):
        mats = [np.eye(2)] * (d - 1)
        mats[i - 2] = _FLIP
        W = mats[0]
        for M in mats[1:]:
            W = np.kron(W, M)
        Ws.append(W)
    return Ws


def flip_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a Hermitian contraction tuple on
    dimension ``n * 2^(d-1)`` with ``||T_i|| <= d`` and exact compression."""
    if not X.hermitian:
        raise DilationError("flip dilation needs a Hermitian tuple")
    if X.d > FLIP_D_CAP_SA:
        raise DilationError(f"refusing flip construction beyond d={FLIP_D_CAP_SA}")
    _require_contractions(X, tol)
    d, n = X.d, X.n
    Ws = _flip_factors(d)
    T1 = sum(np.kron(Xj, Wj) for Xj, Wj in zip(X, Ws))
    T = [T1]
    for i in range(1, d):
        Ui = np.kron(np.eye(n), Ws[i])
        T.append(T1 @ Ui)
    e = np.zeros(2 ** (d - 1))
    e[0] = 1.0
    V = np.kron(np.eye(n), e[:, None])
    T = tuple((Ti + Ti.conj().T) / 2.0 for Ti in T)
    dil = Dilation(T=T, V=V, scale=1.0,
                   residuals=dilation_residuals(T, V, X, 1.0))
    dil.residuals["norm_bound"] = float(d)
    return _validate(dil)


def flip_sign_family(d: int) -> "LambdaFamily":
    """The rank-one family equivalent to the flip construction: one matrix
    ``u u^T`` per sign vector u with leading entry +1, uniform weights."""
    if d > FLIP_D_CAP_SA:
        raise DilationError(f"refusing 2^{d - 1} sign patterns")
    lams = []
    for bits in np.ndindex(*(2,) * (d - 1)):
        u = np.concatenate([[1.0], np.asarray(bits, dtype=float) * 2 - 1])
        lams.append(np.outer(u, u))
    betas = np.full(len(lams), 1.0 / len(lams))
    return LambdaFamily(np.stack(lams), betas)


def nonsa_flip_dilation(X: GenTuple, tol: float = 1e-9) -> Dilation:
    """Commuting normal dilation of a general contraction tuple with
    ``||T_i|| <= 2 sqrt(2) d``: flip-dilate the 2d real/imaginary parts and
    recombine ``T_i = S_(2i-1) + i S_(2i)``."""
    if X.d > FLIP_D_CAP_GEN:
        raise DilationError(f"refusing general flip construction beyond d={FLIP_D_CAP_GEN}")
    _require_contractions(X, tol)
    parts = re_im_split(X)
    inner = flip_dilation(parts, tol=tol)
    S = inner.T
    T = tuple(S[2 * i] + 1j * S[2 * i + 1] for i in range(X.d))
    dil = Dilation(T=T, V=inner.V, scale=1.0,
                   residuals=dilation_residuals(T, inner.V, X, 1.0))
    dil.residuals["norm_bound"] = float(2 * np.sqrt(2) * X.d)
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
        for p, lam in enumerate(self.lambdas):
            sv = np.linalg.svd(lam, compute_uv=False)
            if sv[0] == 0.0 or (len(sv) > 1 and sv[1] > RANK_ONE_REL_TOL * sv[0]):
                raise ValueError(f"family member {p} is not numerically rank one")
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


def lambda_dilation(X: HermTuple, fam: LambdaFamily) -> Dilation:
    """Commuting self-adjoint dilation on dimension ``n * k`` built from a
    rank-one family; block p of the dilation is ``sum_j lam^(p)_ij X_j``."""
    if fam.d != X.d:
        raise DilationError(
            f"family dimension {fam.d} does not match tuple length {X.d}")
    n, k = X.n, fam.k
    T = []
    for i in range(fam.d):
        S_diag = fam.lambdas[:, i, :]            # (k, d): S_ij = diag over p
        Ti = np.zeros((n * k, n * k), dtype=complex)
        for j in range(fam.d):
            Ti += np.kron(np.asarray(X[j]), np.diag(S_diag[:, j]))
        T.append((Ti + Ti.conj().T) / 2.0)
    v = np.sqrt(fam.betas)
    V = np.kron(np.eye(n), v[:, None])
    T = tuple(T)
    dil = Dilation(T=T, V=V, scale=1.0,
                   residuals=dilation_residuals(T, V, X, 1.0))
    return _validate(dil)


def lambda_blocks(X: HermTuple, fam: LambdaFamily) -> list[list[np.ndarray]]:
    """The diagonal blocks ``Y^(p)_i = sum_j lam^(p)_ij X_j`` of the
    rank-one-family dilation, without building the big matrices."""
    Y = nk.lincomb(fam.lambdas.reshape(fam.k * fam.d, fam.d), X.matrices)
    return [list(Y[p * fam.d:(p + 1) * fam.d]) for p in range(fam.k)]


def joint_spectrum_rank_one(fam: LambdaFamily, X: HermTuple) -> nk.JointSpectrum:
    """Joint spectrum of the rank-one-family dilation, from the factorization.

    Writing ``lam^(p) = b u w^T``, block p of the dilation is
    ``u_i * (sum_j b w_j X_j)``, so its joint spectrum is ``{mu u : mu in
    spec(sum_j b w_j X_j)}``; the union over p is returned with multiplicity.
    """
    if fam.d != X.d:
        raise DilationError("family dimension mismatch")
    b, U, W = zip(*fam.rank_one_factors())
    M = nk.lincomb(np.array(b)[:, None] * np.array(W), X.matrices)
    mus = np.linalg.eigvalsh(nk.hermitize(M, tol=np.inf))    # (k, n)
    pts = mus[:, :, None] * np.array(U)[:, None, :]           # (k, n, d)
    return nk.JointSpectrum(points=pts.reshape(-1, fam.d))


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------


def coordinate_projection_dilation(X: GenTuple, tol: float = 1e-9) -> Dilation:
    """Commuting normal dilation of general contractions with
    ``||T_i|| <= 2d``: scaled coordinate projections on the 2d real
    coordinates, recombined as ``Y_(2j-1) + i Y_(2j)``."""
    _require_contractions(X, tol)
    d = X.d
    parts = re_im_split(X)
    dd = 2 * d
    lams = np.stack([dd * np.outer(np.eye(dd)[m], np.eye(dd)[m])
                     for m in range(dd)])
    fam = LambdaFamily(lams, np.full(dd, 1.0 / dd))
    inner = lambda_dilation(parts, fam)
    Y = inner.T
    T = tuple(Y[2 * j] + 1j * Y[2 * j + 1] for j in range(d))
    dil = Dilation(T=T, V=inner.V, scale=1.0,
                   residuals=dilation_residuals(T, inner.V, X, 1.0))
    dil.residuals["norm_bound"] = float(2 * d)
    return _validate(dil)


def diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint *contraction* dilation for tuples whose signed
    sums are all below the identity; the joint spectrum lands in the cube."""
    bad = first_violated_sign(X, tol=tol)
    if bad is not None:
        raise DilationError(
            f"signed sum with signs {bad.astype(int).tolist()} exceeds I")
    dil = flip_dilation(X, tol=np.inf)
    dil.residuals["norm_bound"] = 1.0
    return dil


def cube_to_diamond_dilation(X: HermTuple, tol: float = 1e-9) -> Dilation:
    """Commuting self-adjoint dilation of a contraction tuple whose signed
    sums stay below ``d I``; the joint spectrum lands in the scaled l1 ball.

    Built from the family of coordinate projections scaled by d, so the
    dilation is the direct sum over slots p of ``(0, ..., d X_p, ..., 0)``.
    """
    if not cube_member(X, tol):
        raise DilationError("input is not a tuple of contractions")
    d = X.d
    lams = np.stack([d * np.outer(np.eye(d)[m], np.eye(d)[m])
                     for m in range(d)])
    fam = LambdaFamily(lams, np.full(d, 1.0 / d))
    dil = lambda_dilation(X, fam)
    dil.residuals["sign_sum_bound"] = float(d)
    return dil


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
        raise DilationError("frame dimension does not match tuple length")
    if weights is None:
        weights = np.ones(N)
    c = np.asarray(weights, dtype=float).ravel()
    if c.shape != (N,) or np.any(c <= 0):
        raise DilationError("weights must be positive, one per frame vector")
    S = V.T @ V
    sigma = float(np.trace(S)) / d
    if np.linalg.norm(S - sigma * np.eye(d)) > 1e-9 * max(sigma, 1.0):
        raise DilationError("vectors do not form a tight frame")

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
    betas = c / csum
    fam = LambdaFamily(lams, betas)
    inner = lambda_dilation(X, fam)
    kappa = sigma * float(np.min(c) ** 3) / csum
    T = tuple(kappa * Ti for Ti in inner.T)
    dil = Dilation(T=T, V=inner.V, scale=kappa,
                   residuals=dilation_residuals(T, inner.V, X, kappa))
    dil.residuals["kappa"] = kappa
    dil.residuals["sigma"] = sigma
    return _validate(dil, source_scale=kappa)


def frame_spectrum_vertices(vectors, weights=None) -> np.ndarray:
    """Vertices ``+- c_m v^(m)`` of the polytope the scaled spectrum lands in."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    c = np.ones(V.shape[0]) if weights is None else np.asarray(weights, float)
    W = V * c[:, None]
    return np.vstack([W, -W])


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


def normal_dilation_dim_bound(n: int, d: int) -> tuple[int, int]:
    """Textbook dimension bounds for dilating an n x n tuple through a finite
    positive measure: at most ``2 n^2 (d+1) + 1`` atoms suffice for the
    measure, hence an ambient dimension of at most ``n`` times that.  Both
    numbers are recorded for reference; no atom-reduction step is implemented
    here (inputs are already finitely supported)."""
    atoms = 2 * n * n * (d + 1) + 1
    return atoms, n * atoms
