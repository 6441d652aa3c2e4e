"""Matrix convex sets: membership oracles and constructors.

The sets handled here are the graded families tested level by level at a
fixed matrix size: the largest/smallest matrix convex sets over a polytope
(facet inequalities respectively vertex-indexed positive decompositions),
linear-pencil positivity domains, the matrix cube, the quadratic matrix ball
``sum X_j^2 <= I`` and the self-dual tensor ball ``||sum X_j (x) conj(X_j)||
<= 1``, plus scalar polar duality between polytope representations.

A tuple is one read-only ``(d, n, n)`` complex stack, ``GenTuple.matrices``,
and every oracle here works on the whole stack with the batched kernels of
``numkernel``: signed sums through ``sign_sums`` and facet rows through
``lincomb``, pencils and the tensor ball through ``kron_sum``, the matrix
cube through one ``opnorm``.  The sign and facet sweeps share
``first_failing_row``: a chunk of rows that one batched Cholesky proves
inside skips its eigensolve, and ``min_eig`` judges every other chunk.

All membership booleans take an explicit tolerance; pass ``tol=0`` for
strictness at the price of numerical false negatives near the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import numkernel as nk
from . import sampling
from .sdp import (
    BlockPsdProblem,
    FeasibilityResult,
    affine_projector_povm,
    dykstra_solve,
    hull_weights,
    povm_constraints,
)

DEFAULT_MEMBER_TOL = 1e-9
SIGN_ENUMERATION_CAP = 24  # refuse 2^d sign sweeps beyond this many variables
# Rows per batched eigensolve in the early-exit sweeps: a sweep that fails
# early stops after one chunk, and one chunk bounds the memory of any sweep.
SWEEP_CHUNK = 256
# A polytope given both ways has each vertex inside each facet, and each
# facet tight at some vertex, to this tolerance relative to its entries.
POLYTOPE_CHECK_TOL = 1e-9
# Relative margin by which 0 must lie inside a polytope to dualize it; it
# stays above the LP feasibility tolerance of the vertex probe.
POLAR_INTERIOR_MARGIN = 1e-6


class SetsError(Exception):
    pass


class MissingRepresentationError(SetsError):
    """A polytope operation needs a representation the caller did not supply."""


# ---------------------------------------------------------------------------
# Tuples
# ---------------------------------------------------------------------------


class GenTuple:
    """A d-tuple of n x n complex matrices, held as ``matrices``: one
    read-only ``(d, n, n)`` array that owns its data.  Built from any
    sequence of equal square matrices or from a stack."""

    hermitian = False

    def __init__(self, matrices: Sequence):
        S = np.array(matrices, dtype=complex)
        if S.shape[:1] == (0,):
            raise ValueError("empty tuple")
        if S.ndim != 3 or S.shape[1] != S.shape[2]:
            raise ValueError("all tuple entries must be square of equal size")
        self.matrices = nk.as_cmatrix(S)
        self.matrices.flags.writeable = False

    @property
    def d(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def scaled(self, t: float) -> "GenTuple":
        return type(self)(t * self.matrices)

    def norms(self) -> np.ndarray:
        """Operator norm of each entry."""
        return nk.opnorms(self.matrices)

    def square_sum(self) -> np.ndarray:
        """``sum_j X_j X_j``."""
        return (self.matrices @ self.matrices).sum(axis=0)

    def __len__(self) -> int:
        return self.d

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d}, n={self.n})"


class HermTuple(GenTuple):
    """A d-tuple of Hermitian matrices; symmetrized on construction."""

    hermitian = True

    def __init__(self, matrices: Sequence, herm_tol: float = nk.HERMITICITY_TOL):
        super().__init__(matrices)
        self.matrices = nk.hermitize(self.matrices, tol=herm_tol)
        self.matrices.flags.writeable = False


def re_im_split(X: GenTuple) -> HermTuple:
    """Interleave real and imaginary parts: (Re X_1, Im X_1, ..., Im X_d)."""
    return HermTuple(nk.re_im_parts(X.matrices))


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------


@dataclass
class Polytope:
    """Convex polytope carried in V-representation, H-representation or both.

    Facets are half-spaces ``{x : <alpha, x> <= a}`` stored as the rows of
    ``facet_normals`` with offsets ``facet_offsets``.  When both
    representations are present they are cross-checked: every vertex satisfies
    every facet to 1e-9 and every facet is tight at some vertex.
    """

    dim: int
    vertices: Optional[np.ndarray] = None
    facet_normals: Optional[np.ndarray] = None
    facet_offsets: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.vertices is not None:
            self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
            if self.vertices.shape[1] != self.dim:
                raise ValueError("vertex dimension mismatch")
        if (self.facet_normals is None) != (self.facet_offsets is None):
            raise ValueError("facet normals and offsets must come together")
        if self.facet_normals is not None:
            self.facet_normals = np.atleast_2d(
                np.asarray(self.facet_normals, dtype=float))
            self.facet_offsets = np.asarray(
                self.facet_offsets, dtype=float).ravel()
            if self.facet_normals.shape[1] != self.dim:
                raise ValueError("facet dimension mismatch")
            if self.facet_normals.shape[0] != self.facet_offsets.shape[0]:
                raise ValueError("facet normals/offsets length mismatch")
        if self.vertices is not None and self.facet_normals is not None:
            self._cross_check()

    def _cross_check(self):
        gaps = self.facet_offsets[None, :] - self.vertices @ self.facet_normals.T
        scale = max(1.0, float(np.max(np.abs(self.facet_offsets))),
                    float(np.max(np.abs(self.vertices))))
        if gaps.min() < -POLYTOPE_CHECK_TOL * scale:
            raise ValueError(
                f"vertex violates a facet by {-gaps.min():.3e}")
        slack_per_facet = gaps.min(axis=0)
        if slack_per_facet.max() > POLYTOPE_CHECK_TOL * scale:
            loose = int(np.argmax(slack_per_facet))
            raise ValueError(
                f"facet {loose} is tight at no vertex "
                f"(slack {slack_per_facet[loose]:.3e})")

    @property
    def has_vertices(self) -> bool:
        return self.vertices is not None

    @property
    def has_facets(self) -> bool:
        return self.facet_normals is not None

    def facets(self) -> list[tuple[np.ndarray, float]]:
        if not self.has_facets:
            raise MissingRepresentationError(
                "polytope has no H-representation; supply facets")
        return [(self.facet_normals[i], float(self.facet_offsets[i]))
                for i in range(self.facet_normals.shape[0])]

    def contains_point(self, x, tol: float = DEFAULT_MEMBER_TOL) -> bool:
        """Scalar membership; facet check when available, else vertex LP."""
        x = np.asarray(x, dtype=float).ravel()
        if self.has_facets:
            return bool(np.all(self.facet_normals @ x
                               <= self.facet_offsets + tol))
        return hull_weights(self.vertices, x) is not None


def cube_polytope(d: int) -> Polytope:
    """[-1, 1]^d with both representations (2^d vertices, 2d facets)."""
    if d > SIGN_ENUMERATION_CAP:
        raise SetsError(f"refusing 2^{d} cube vertices (cap {SIGN_ENUMERATION_CAP})")
    verts = nk.sign_rows(d, 0, 2 ** d).astype(float)
    normals = np.vstack([np.eye(d), -np.eye(d)])
    offsets = np.ones(2 * d)
    return Polytope(d, vertices=verts, facet_normals=normals,
                    facet_offsets=offsets)


def diamond_polytope(d: int) -> Polytope:
    """Unit l1 ball with both representations (2d vertices, 2^d facets)."""
    if d > SIGN_ENUMERATION_CAP:
        raise SetsError(f"refusing 2^{d} diamond facets (cap {SIGN_ENUMERATION_CAP})")
    verts = np.vstack([np.eye(d), -np.eye(d)])
    normals = nk.sign_rows(d, 0, 2 ** d).astype(float)
    offsets = np.ones(normals.shape[0])
    return Polytope(d, vertices=verts, facet_normals=normals,
                    facet_offsets=offsets)


def polar_dual_polytope(P: Polytope) -> Polytope:
    """Scalar polar dual {x : <x, y> <= 1 for all y in P}.

    Representations swap: each vertex v becomes the facet (v, 1) and each
    facet (alpha, a) with a > 0 becomes the vertex alpha / a.  Requires 0
    strictly inside P (probed with the relative margin
    ``POLAR_INTERIOR_MARGIN``); otherwise the dual is unbounded and this
    raises.
    """
    interior = False
    if P.has_facets:
        nrm = np.linalg.norm(P.facet_normals, axis=1)
        interior = bool(np.all(
            P.facet_offsets > POLAR_INTERIOR_MARGIN * np.maximum(nrm, 1.0)))
    elif P.has_vertices:
        scale = max(1.0, float(np.max(np.abs(P.vertices))))
        probe = POLAR_INTERIOR_MARGIN * scale
        interior = all(
            hull_weights(P.vertices, probe * e) is not None
            for e in np.vstack([np.eye(P.dim), -np.eye(P.dim)])
        )
    else:
        raise MissingRepresentationError("polytope carries no representation")
    if not interior:
        raise SetsError("0 is not strictly inside the polytope; dual unbounded")
    verts = facet_n = facet_a = None
    if P.has_facets:
        verts = P.facet_normals / P.facet_offsets[:, None]
    if P.has_vertices:
        facet_n = P.vertices.copy()
        facet_a = np.ones(P.vertices.shape[0])
    return Polytope(P.dim, vertices=verts, facet_normals=facet_n,
                    facet_offsets=facet_a)


# ---------------------------------------------------------------------------
# Linear pencils
# ---------------------------------------------------------------------------


@dataclass
class Pencil:
    """Monic linear pencil with matrix (or Hermitian-matrix) coefficients."""

    coefficients: GenTuple

    @property
    def d(self) -> int:
        return self.coefficients.d


def pencil_eval(pencil: Pencil, X: GenTuple) -> np.ndarray:
    """Hermitian value of the pencil at X.

    Self-adjoint case returns ``I - sum A_j (x) X_j`` itself; in the general
    case the Hermitian (real) part of that expression is returned.
    """
    A = pencil.coefficients
    if A.d != X.d:
        raise ValueError(f"variable counts differ: pencil {A.d}, tuple {X.d}")
    total = np.eye(A.n * X.n) - nk.kron_sum(A.matrices, X.matrices)
    # Already Hermitian in the self-adjoint case; in general this is the
    # Hermitian (real) part of the pencil value.
    return (total + total.conj().T) / 2.0


def pencil_member(pencil: Pencil, X: GenTuple,
                  tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """Positivity-domain membership: smallest eigenvalue >= -tol."""
    return nk.min_eig(pencil_eval(pencil, X), tol=np.inf) >= -tol


def cube_pencil(d: int) -> Pencil:
    """Diagonal-sign pencil with positivity domain [-1,1]^d entrywise."""
    E = np.zeros((d, 2 * d, 2 * d))
    j = np.arange(d)
    E[j, j, j] = 1.0
    E[j, d + j, d + j] = -1.0
    return Pencil(HermTuple(E))


# ---------------------------------------------------------------------------
# Membership oracles
# ---------------------------------------------------------------------------


def _gate_gamma(n: int) -> float:
    """gamma_n of the Cholesky gate, in units of eps.

    The gate factors ``T = S + (tol - delta) I`` with ``delta = gamma_n eps
    (|a| + sum_j |c_j| ||X_j|| + |tol|)``, where the bracket bounds both
    ``||S||_2`` and ``||T||_2``.  ``delta`` covers two rounding errors:

    - Cholesky that runs to completion on ``T`` gives ``R*R = T + dT``
      with ``|dT| <= gamma_{n+1} |R*| |R|`` (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so
      ``||dT||_2 <= gamma_{n+1} tr(R*R)``, to first order ``n (n + 1) eps
      ||T||_2``; complex arithmetic at most doubles it.
    - ``eigvalsh`` returns the eigenvalues of ``S + E`` with ``||E||_2 <=
      p(n) eps ||S||_2`` (LAPACK Users' Guide, 3rd ed., sec. 4.7); the
      Householder reduction to tridiagonal form makes ``p(n)`` of order
      ``n^2 ||S||_F / ||S||_2 <= n^2.5`` (Wilkinson).

    ``4 (n + 1)^3`` exceeds ``2 n (n + 1) + 2 n^2.5 + 1`` at every n, the
    last term for the rounding of the shift itself.
    """
    return 4.0 * (n + 1) ** 3


def first_failing_row(X: GenTuple, count: int, chunk, tol: float,
                      sums=None) -> Optional[int]:
    """Index of the first of ``count`` rows whose inequality
    ``sum_j c_j X_j <= a I`` fails by more than ``tol``, or None.

    ``chunk(lo, hi)`` returns the coefficient rows ``c`` (shape
    ``(hi - lo, d)``) and offsets ``a`` (a scalar or ``hi - lo`` values) of
    rows ``lo .. hi-1``; ``sums(lo, hi)``, if given, returns their sums
    ``sum_j c_j X_j`` equal to ``lincomb`` of those rows (the sign sweep
    passes ``nk.sign_sums``).  Rows are built and checked ``SWEEP_CHUNK`` at
    a time, and the sweep stops at the first chunk that holds a failing row.
    This is the one early-exit sweep shared by the facet, sign and
    direction checks here and in ``dilation``.

    A Hermitian chunk ``S = a I - sum_j c_j X_j`` first goes through the
    Cholesky gate (Rump, BIT Numer. Math. 46, 2006): if one batched
    Cholesky of ``T = S + (tol - delta) I`` succeeds, with ``delta`` from
    :func:`_gate_gamma`, then ``lambda_min(S) >= -tol + delta - ||dT||``,
    and the computed smallest eigenvalue of each row is at least ``-tol``,
    so no row can fail and the eigensolve is skipped.  Otherwise one batched
    ``min_eig`` judges the chunk as it always has, so the verdict and the
    failing index are those of the eigensolve alone.
    """
    n = X.n
    I = np.eye(n)
    gate = X.hermitian and np.isfinite(tol)
    if gate:
        norms = X.norms()
        margin = _gate_gamma(n) * np.finfo(float).eps
    for lo in range(0, count, SWEEP_CHUNK):
        hi = min(lo + SWEEP_CHUNK, count)
        coeffs, offsets = chunk(lo, hi)
        L = nk.lincomb(coeffs, X.matrices) if sums is None else sums(lo, hi)
        S = np.reshape(offsets, (-1, 1, 1)) * I - L
        if gate:
            scale = (np.abs(np.ravel(offsets)) + np.abs(coeffs) @ norms
                     + abs(tol))
            T = S.copy()
            T.reshape(len(T), n * n)[:, ::n + 1] += (
                tol - margin * scale)[:, None]
            try:
                np.linalg.cholesky(T)
                continue
            except np.linalg.LinAlgError:
                pass
        bad = np.flatnonzero(nk.min_eig(S, tol=np.inf) < -tol)
        if bad.size:
            return lo + int(bad[0])
    return None


def wmax_member(X: HermTuple, P: Polytope,
                tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """Largest matrix convex set over P: every facet inequality holds in the
    semidefinite order, ``sum alpha_i X_i <= a I`` for each facet (alpha, a).
    """
    if not P.has_facets:
        raise MissingRepresentationError(
            "wmax membership needs the H-representation; supply facets")
    if P.dim != X.d:
        raise ValueError("polytope dimension does not match tuple length")
    normals, offsets = P.facet_normals, P.facet_offsets
    bad = first_failing_row(
        X, len(offsets), lambda lo, hi: (normals[lo:hi], offsets[lo:hi]), tol)
    return bad is None


def wmin_member(X: HermTuple, P: Polytope, max_iter: int = 20000,
                tol_feas: float = 1e-8) -> FeasibilityResult:
    """Smallest matrix convex set over P, decided at the vertex level.

    Membership holds iff there is a positive decomposition ``X = sum_v v K_v``
    with ``K_v >= 0`` and ``sum_v K_v = I`` indexed by the vertices of P.
    One constraint map per query describes these constraints; it gives the
    projector, the Farkas short cut and the certificate check.  The witness
    blocks returned on success are exactly that decomposition, re-checked
    inside the solver against the map's raw family and PSD-ness to
    ``WITNESS_TOL`` before ``Feasible`` is returned.  ``Infeasible`` carries
    an Effros--Winkler separating pencil ``H_0, ..., H_d`` as its
    certificate: ``H_0 + sum_j v_j H_j >= 0`` at every vertex ``v`` and
    ``tr H_0 + sum_j tr(H_j X_j) < 0``, checked without the solver.  A
    solve that ends with neither is ``Undecided``.  A tuple off the affine
    hull of a degenerate P is ``Infeasible`` before any solve, with a Farkas
    pencil that vanishes at every vertex (up to the PSD shift).
    """
    if not P.has_vertices:
        raise MissingRepresentationError(
            "wmin membership needs the V-representation; supply vertices")
    if P.dim != X.d:
        raise ValueError("polytope dimension does not match tuple length")
    cmap = povm_constraints(P.vertices, X.matrices)
    short = cmap.inconsistency(
        "affine constraints inconsistent for this tuple")
    if short is not None:
        return short
    return dykstra_solve(BlockPsdProblem(cmap, affine_projector_povm(cmap),
                                         max_iter=max_iter, tol_feas=tol_feas))


def ball_member(X: HermTuple, tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """Quadratic matrix ball: sum X_j^2 <= I."""
    return nk.min_eig(np.eye(X.n) - X.square_sum(), tol=np.inf) >= -tol


def selfdual_member(X: HermTuple, tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """Self-dual tensor ball: || sum X_j (x) conj(X_j) || <= 1."""
    M = nk.kron_sum(X.matrices, X.matrices.conj())
    return nk.opnorm(M) <= 1.0 + tol


def cube_member(X: GenTuple, tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """Matrix cube: every entry is a contraction."""
    return nk.opnorm(X.matrices) <= 1.0 + tol


def diamond_wmax_member(X: HermTuple, tol: float = DEFAULT_MEMBER_TOL) -> bool:
    """All 2^d signed sums satisfy ``sum eps_j X_j <= I``."""
    bad = first_violated_sign(X, tol)
    return bad is None


def first_violated_sign(X: HermTuple, tol: float = DEFAULT_MEMBER_TOL,
                        ) -> Optional[np.ndarray]:
    """First sign vector eps (lexicographic) with sum eps_j X_j > I."""
    if X.d > SIGN_ENUMERATION_CAP:
        raise SetsError(
            f"refusing 2^{X.d} sign combinations (cap {SIGN_ENUMERATION_CAP})")
    bad = first_failing_row(
        X, 2 ** X.d, lambda lo, hi: (nk.sign_rows(X.d, lo, hi), 1.0), tol,
        sums=lambda lo, hi: nk.sign_sums(X.matrices, lo, hi))
    return None if bad is None else nk.sign_rows(X.d, bad, bad + 1)[0]


def zero_interior_range(A: HermTuple, samples: int = 512,
                        refine_steps: int = 3, seed: int = 0,
                        ) -> tuple[bool, float]:
    """Randomized test that 0 is interior to the level-1 joint numerical range.

    The support function of the level-1 range in direction u is the largest
    eigenvalue of ``sum u_i A_i``; the margin reported is its minimum over
    sampled unit directions, locally refined around the worst sample.  A
    positive margin reports interiority.  Randomized and seeded; this is not
    a certificate.
    """
    rng = sampling.rng_from(seed)
    dirs = sampling.sphere_points(A.d, samples, rng)

    def support(U):
        return nk.max_eig(nk.lincomb(U, A.matrices), tol=np.inf)

    vals = support(dirs)
    k = int(np.argmin(vals))
    best_u, best = dirs[k], float(vals[k])
    step = 0.5
    for _ in range(refine_steps):
        for _ in range(32):
            cand = best_u + step * rng.standard_normal(A.d)
            cand /= np.linalg.norm(cand)
            v = float(support(cand[None, :])[0])
            if v < best:
                best, best_u = v, cand
        step /= 4.0
    return best > 0.0, best
