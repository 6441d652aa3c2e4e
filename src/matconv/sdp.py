"""Small dense feasibility engines.

Each problem kind describes its affine set once, as a :class:`ConstraintMap`
(raw constraint family and target), whose one SVD gives the projector, the
certificate check and the Farkas certificate of an empty affine set.

Two solvers live here:

* :func:`dykstra_solve` -- Dykstra alternating projections for problems of the
  shape "find PSD blocks of one size inside an affine set".  The blocks are
  kept as one ``(N, n, n)`` stack from end to end; the affine set is supplied
  as its orthogonal projector (Frobenius metric), which maps such a stack to
  a stack, and the PSD side projects the whole stack with one batched
  eigensolve.  ``Infeasible`` is returned only with a separation certificate
  that the problem's own verifier accepted: a PSD functional that is
  constant and negative on the affine set, so that no PSD point can lie in
  it.  When the PSD cone and the affine set do not meet, the gap between the
  two iterates tends to the displacement vector between them (Bauschke and
  Borwein, J. Approx. Theory 79, 1994), which is such a functional; the
  solver reads a candidate off it every ``CERTIFICATE_EVERY`` iterations.  A
  gap that stops moving without a certificate gives ``Undecided``.

* :func:`lp_feasible` -- a phase-1 dense simplex with Bland's rule for linear
  feasibility systems ``A x = b`` with selected variables constrained
  nonnegative.  Floating-point pivoting with a fixed pivot tolerance; Bland's
  rule rules out cycling, and an iteration cap guards the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .numkernel import hermitize, min_eig

PIVOT_TOL = 1e-9
PROJECTOR_IDEMPOTENCY_TOL = 1e-12
CERTIFICATE_EVERY = 10     # iterations between separation candidates
CERTIFICATE_MARGIN = 1e-9  # relative margin a separating value must clear
WITNESS_TOL = 1e-7         # re-verified constraint residual and PSD slack


class SdpError(Exception):
    """Base error for this module."""


class InconsistentConstraintsError(SdpError):
    """The affine constraints have no solution; ``result`` is the
    ``Infeasible`` verdict with the Farkas certificate."""

    def __init__(self, result: "FeasibilityResult"):
        super().__init__(result.message)
        self.result = result


class LpCycleGuardError(SdpError):
    """Simplex iteration cap hit; the instance is undecided."""


class Status(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNDECIDED = "Undecided"


@dataclass
class Certificate:
    """A verified separation certificate for ``L = {K : A(K) = b}``.

    ``dual`` is the stack ``y`` and ``functional`` the block stack
    ``A*(y)``, PSD block by block.  Every ``K`` in ``L`` has
    ``<A*(y), K> = <y, b> = value < 0``, while every PSD ``K`` has
    ``<A*(y), K> >= 0``: no PSD point lies in ``L``.  A Farkas certificate,
    for an ``L`` that is empty, has ``A*(y) = 0`` up to the PSD shift.
    """

    dual: np.ndarray
    functional: np.ndarray
    value: float


@dataclass
class FeasibilityResult:
    status: Status
    witness: Optional[list[np.ndarray]]
    residual: float
    iterations: int
    message: str = ""
    certificate: Optional[Certificate] = None


@dataclass
class BlockPsdProblem:
    """Find PSD blocks inside an affine set.

    The blocks share one size: ``block_dims`` lists it once per block.
    ``affine_projector`` maps an ``(N, n, n)`` stack of blocks to its closest
    point (Frobenius metric) in the affine constraint set, again an
    ``(N, n, n)`` stack, and must be idempotent to 1e-12 on its own output.
    ``verify_certificate`` turns a candidate separating stack into a
    :class:`Certificate` without the projector, or returns ``None``; without
    it the solver never returns ``Infeasible``.  The solver screens its
    candidates on the assumption that the total trace is constant on the
    affine set, as it is for both problem kinds here; the verifier alone
    decides.
    """

    block_dims: list[int]
    affine_projector: Callable[[np.ndarray], np.ndarray]
    max_iter: int = 20000
    tol_feas: float = 1e-8
    stall_window: int = 200
    stall_rel: float = 1e-4
    verify_certificate: Optional[
        Callable[[np.ndarray], Optional[Certificate]]] = None


@dataclass
class ConstraintMap:
    """An affine set ``L = {K : A(K) = b}`` of block stacks.

    Each block of an ``(N, g s, g s)`` stack is a ``g x g`` grid (``grid``)
    of ``s x s`` slots ``K_t``, ``t = (v, a, b)`` in row-major order.
    ``family`` is the ``(R, N g^2)`` matrix with ``A(K)_r = sum_t
    family[r, t] K_t``, so ``A*(y)_t = sum_r conj(family[r, t]) y_r``, and
    ``target`` the ``(R, s, s)`` stack ``b``.  Row 0 must have the identity
    stack as its adjoint, so that ``eps I`` in ``y_0`` pays for a shift of
    ``A*(y)`` by ``eps I``.  One thin SVD ``family = U_r S_r V_r`` (rank
    cutoff ``1e-12 s_max``) gives the projector, the fit of a dual to a
    functional, and the Farkas dual.
    """

    family: np.ndarray
    target: np.ndarray
    grid: int = 1

    def __post_init__(self):
        R, S = self.family.shape
        # A thin SVD has all R columns of U unless R > S, and then S is small.
        U, s, Vh = np.linalg.svd(self.family, full_matrices=R > S)
        r = int(np.sum(s > 1e-12 * s[0]))
        self._V, self._null = Vh[:r], U[:, r:]
        self._fit = U[:, :r] / s[:r]       # A*(fit V_r Z) = Z on range(A*)
        self._G = self._fit.conj().T @ self.target.reshape(R, -1)

    def _slots(self, K: np.ndarray) -> np.ndarray:
        """The ``(N g^2, s^2)`` slot rows of an ``(N, g s, g s)`` stack."""
        g, s = self.grid, self.target.shape[1]
        return K.reshape(-1, g, s, g, s).swapaxes(2, 3).reshape(-1, s * s)

    def _blocks(self, S: np.ndarray) -> np.ndarray:
        """The block stack whose slot rows are ``S``."""
        g, s = self.grid, self.target.shape[1]
        return S.reshape(-1, g, g, s, s).swapaxes(2, 3).reshape(
            -1, g * s, g * s)

    def project(self, blocks) -> np.ndarray:
        """Nearest point of ``L`` (Frobenius metric) among Hermitian stacks
        to a block stack or list of blocks: ``K - V_r^H (V_r K - G)`` with
        ``G = S_r^-1 U_r^H b``, Hermitian part taken."""
        K = np.asarray(blocks, dtype=complex)
        D = self._V @ self._slots(K) - self._G
        return _sym(K - self._blocks(self._V.conj().T @ D))

    def verify(self, Z: np.ndarray) -> Optional[Certificate]:
        """``certify`` of the least-squares ``y`` with ``A*(y) = Z``."""
        return self.certify(self._fit @ (self._V @ self._slots(Z)))

    def inconsistency(self, message: str) -> Optional[FeasibilityResult]:
        """``Infeasible`` at iteration 0 with ``message``, the linear
        residual ``|y|`` and the Farkas certificate, when ``certify`` accepts
        ``y = -(b - U_r U_r^H b)``: ``A*(y) = 0``, ``<y, b> = -|y|^2``.
        ``y`` is formed as ``-N N^H b`` from the left null space ``N``, so
        its rounding error stays out of the range of ``A``, where it would
        add a value of either sign as large as ``|y| |b|``."""
        b = self.target.reshape(len(self.target), -1)
        y = -self._null @ (self._null.conj().T @ b)
        cert = self.certify(y) if y.any() else None   # never accepts y = 0
        if cert is None:
            return None
        return FeasibilityResult(Status.INFEASIBLE, None,
                                 float(np.linalg.norm(y)), 0,
                                 message=message, certificate=cert)

    def certify(self, y: np.ndarray) -> Optional[Certificate]:
        """The certificate that the dual ``y`` yields, or ``None``.

        ``A*(y)``, re-formed from the raw family, is made PSD by adding
        ``eps I`` (``-eps`` its smallest eigenvalue over all blocks, from one
        batched ``eigvalsh``), paid for by ``eps I`` in ``y_0``.  The value
        ``<y, b>`` must then fall below ``-CERTIFICATE_MARGIN * sum_r |y_r|
        |b_r|``, far below its rounding error.
        """
        y = np.array(y, dtype=complex).reshape(self.target.shape)
        W = _sym(self._blocks(self.family.conj().T @ y.reshape(len(y), -1)))
        eps = max(0.0, -float(np.linalg.eigvalsh(W)[:, 0].min()))
        y[0] += eps * np.eye(y.shape[1])
        value = float(np.vdot(y, self.target).real)
        scale = float(np.dot(_block_norms(y), _block_norms(self.target)))
        if not value < -CERTIFICATE_MARGIN * scale:
            return None
        return Certificate(y, W + eps * np.eye(W.shape[1]), value)


def _sym(K: np.ndarray) -> np.ndarray:
    """Hermitian part of each block of a stack."""
    return (K + K.conj().swapaxes(1, 2)) / 2.0


def _block_norms(K: np.ndarray) -> np.ndarray:
    return np.linalg.norm(K.reshape(len(K), -1), axis=1)


def _frob(blocks: Sequence[np.ndarray]) -> float:
    # Block by block: the reported residual keeps this summation order.
    return float(np.sqrt(sum(np.linalg.norm(B) ** 2 for B in blocks)))


def psd_project(K: np.ndarray) -> np.ndarray:
    """Nearest PSD point of an ``(N, n, n)`` stack, block by block, from one
    batched ``eigh``: each block is symmetrized, and a block with a negative
    eigenvalue is rebuilt with its negative eigenvalues clipped to zero.
    Blocks that are already PSD come back as their symmetrized input."""
    H = _sym(K)
    w, Q = np.linalg.eigh(H)
    neg = w[:, 0] < 0.0
    if not neg.any():
        return H
    w, Q = w[neg], Q[neg]
    H[neg] = _sym((Q * np.clip(w, 0.0, None)[:, None, :])
                  @ Q.conj().swapaxes(1, 2))
    return H


def dykstra_solve(problem: BlockPsdProblem,
                  start: Optional[list[np.ndarray]] = None) -> FeasibilityResult:
    """Dykstra alternating projections between the PSD product cone and an
    affine set.

    The iterate is declared ``Feasible`` as soon as either projection output
    satisfies the other constraint to ``tol_feas``: the PSD-side point when
    its Frobenius distance to the affine set is small, or the affine-side
    point when its blocks are PSD up to ``-tol_feas``.  A feasible witness
    is the list of the N blocks.

    Every ``CERTIFICATE_EVERY`` iterations, while the gap exceeds
    ``10 tol_feas``, the PSD-side point ``y`` minus its projection ``y_aff``
    is a separation candidate ``Z``: it is orthogonal to the direction
    space of the affine set, so ``<Z, K> = <Z, y_aff>`` on the whole set.
    Shifted by ``eps I`` (one batched ``eigvalsh``) it is PSD, and the
    identity stack is orthogonal to the direction space too, so the shift
    adds ``eps sum tr(y_aff)``.  A candidate whose value falls below
    ``-CERTIFICATE_MARGIN |Z| |y_aff|`` goes to the problem's
    ``verify_certificate``; ``Infeasible`` is returned only with the
    certificate that accepts.  A gap that plateaus (flat to ``stall_rel``
    over ``stall_window`` iterations) or ``max_iter`` without either verdict
    gives ``Undecided``.  Blocks of unequal size raise :class:`SdpError`.
    """
    dims = list(problem.block_dims)
    if len(set(dims)) != 1:
        raise SdpError(
            f"blocks must share one size, got sizes {sorted(set(dims))}")
    shape = (len(dims), dims[0], dims[0])

    def project(K: np.ndarray) -> np.ndarray:
        return np.asarray(problem.affine_projector(K), dtype=complex)

    if start is None:
        x = project(np.zeros(shape, dtype=complex))
    else:
        if [B.shape[0] for B in start] != dims:
            raise SdpError("start blocks do not match block_dims")
        x = project(np.stack([hermitize(B, tol=np.inf) for B in start]))
    # Projector contract: idempotent on its own output.
    drift = _frob(project(x) - x)
    if drift > PROJECTOR_IDEMPOTENCY_TOL * (1.0 + _frob(x)):
        raise SdpError(
            f"affine projector is not idempotent (drift {drift:.3e})")
    p = np.zeros(shape, dtype=complex)  # Dykstra correction, PSD side
    q = np.zeros(shape, dtype=complex)  # Dykstra correction, affine side
    gaps: list[float] = []
    tol = problem.tol_feas
    verify = problem.verify_certificate
    for it in range(1, problem.max_iter + 1):
        y_in = x + p
        y = psd_project(y_in)
        p = y_in - y

        y_aff = project(y)
        gap = _frob(y_aff - y)
        gaps.append(gap)
        if gap <= tol:
            return FeasibilityResult(Status.FEASIBLE, list(y), gap, it)
        neg = float(np.linalg.eigvalsh(_sym(y_aff))[:, 0].min())
        if neg >= -tol:
            return FeasibilityResult(Status.FEASIBLE, list(y_aff),
                                     max(0.0, -neg), it)
        if verify is not None and it % CERTIFICATE_EVERY == 0 \
                and gap > 10 * tol:
            cert = _separation(y, y_aff, verify)
            if cert is not None:
                return FeasibilityResult(
                    Status.INFEASIBLE, None, gap, it,
                    message="separated by a verified certificate",
                    certificate=cert)

        z_in = y + q
        x = project(z_in)
        q = z_in - x

        w = problem.stall_window
        if len(gaps) >= w and gaps[-1] > 10 * tol:
            lo, hi = min(gaps[-w:]), max(gaps[-w:])
            if hi - lo <= problem.stall_rel * hi:
                return FeasibilityResult(
                    Status.UNDECIDED, None, gaps[-1], it,
                    message="residual plateaued, no certificate",
                )
    return FeasibilityResult(
        Status.UNDECIDED, None, gaps[-1] if gaps else np.inf, problem.max_iter,
        message="iteration cap reached before feasibility or plateau",
    )


def _separation(y: np.ndarray, y_aff: np.ndarray, verify,
                ) -> Optional[Certificate]:
    """The certificate that the candidate ``y - y_aff`` yields, or ``None``
    when its value does not clear the margin or ``verify`` rejects it."""
    Z = _sym(y - y_aff)
    eps = max(0.0, -float(np.linalg.eigvalsh(Z)[:, 0].min()))
    traces = float(np.trace(y_aff, axis1=1, axis2=2).real.sum())
    value = float(np.vdot(Z, y_aff).real) + eps * traces
    Z += eps * np.eye(Z.shape[1])
    if not value < -CERTIFICATE_MARGIN * np.linalg.norm(Z) \
            * np.linalg.norm(y_aff):
        return None
    return verify(Z)


def reverified(res: FeasibilityResult,
               constraint_residual: Callable[[list[np.ndarray]], float],
               ) -> FeasibilityResult:
    """``res``, or ``Undecided`` when its feasible witness misses its
    constraints (``constraint_residual`` of the blocks, computed without the
    solver) or PSD-ness (one batched eigensolve) by more than
    ``WITNESS_TOL``."""
    if res.status is not Status.FEASIBLE:
        return res
    resid = constraint_residual(res.witness)
    low = float(np.min(min_eig(np.stack(res.witness), tol=np.inf)))
    if resid <= WITNESS_TOL and low >= -WITNESS_TOL:
        return res
    return FeasibilityResult(
        Status.UNDECIDED, None, res.residual, res.iterations,
        message=(f"witness failed re-verification (constraint residual "
                 f"{resid:.3e}, smallest eigenvalue {low:.3e})"))


# ---------------------------------------------------------------------------
# Affine projector for vertex-indexed positive decompositions
# ---------------------------------------------------------------------------


def povm_constraints(vertices, X: Sequence[np.ndarray]) -> ConstraintMap:
    """The constraint map of ``{(K_v): sum_v K_v = I, sum_v v K_v = X}``:
    one slot per block, the all-ones row and the vertex coordinates, target
    ``(I, X_1, ..., X_d)``.  Its adjoint takes a pencil ``H_0, ..., H_d`` to
    ``Z_v = H_0 + sum_j v_j H_j``, so a certificate is an Effros--Winkler
    separating pencil: positive at every vertex, negative at ``X``."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError("need at least one vertex, as rows of a 2-d array")
    N, d = V.shape
    X = [np.asarray(M, dtype=complex) for M in X]
    if len(X) != d:
        raise ValueError(f"tuple length {len(X)} does not match vertex dim {d}")
    n = X[0].shape[0]
    if any(M.shape != (n, n) for M in X):
        raise ValueError("tuple entries must be square matrices of one size")
    return ConstraintMap(np.vstack([np.ones((1, N)), V.T]),
                         np.stack([np.eye(n, dtype=complex)] + X))


def affine_projector_povm(vertices, X: Sequence[np.ndarray],
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The ``project`` of :func:`povm_constraints`; raises
    :class:`InconsistentConstraintsError` when no blocks meet the
    constraints, which needs a row-rank deficient vertex matrix."""
    cmap = povm_constraints(vertices, X)
    short = cmap.inconsistency(
        "affine constraints inconsistent for this tuple")
    if short is not None:
        raise InconsistentConstraintsError(short)
    return cmap.project


def povm_constraint_residual(vertices, X: Sequence[np.ndarray],
                             blocks: Sequence[np.ndarray]) -> float:
    """Raw constraint violation of a candidate witness, for re-verification."""
    V = np.asarray(vertices, dtype=float)
    K = np.stack([np.asarray(B, dtype=complex) for B in blocks])
    n = K.shape[1]
    res = [np.sum(K, axis=0) - np.eye(n)]
    for i in range(V.shape[1]):
        res.append(np.tensordot(V[:, i], K, axes=(0, 0)) - np.asarray(X[i]))
    return float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))


# ---------------------------------------------------------------------------
# Phase-1 simplex
# ---------------------------------------------------------------------------


@dataclass
class LpProblem:
    """Equality system ``A x = b`` with per-variable nonnegativity flags."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    nonneg: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        if self.A_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("row count of A_eq does not match b_eq")
        if self.nonneg is None:
            self.nonneg = np.ones(self.A_eq.shape[1], dtype=bool)
        else:
            self.nonneg = np.asarray(self.nonneg, dtype=bool).ravel()
            if self.nonneg.shape[0] != self.A_eq.shape[1]:
                raise ValueError("nonneg flags do not match variable count")


def lp_feasible(problem: LpProblem, pivot_tol: float = PIVOT_TOL,
                max_iter: int = 50000) -> tuple[bool, Optional[np.ndarray]]:
    """Phase-1 simplex feasibility test; returns (feasible, witness).

    Free variables are split into positive and negative parts internally.
    Entering/leaving choices follow Bland's rule (smallest index) so the walk
    cannot cycle; the iteration cap raises :class:`LpCycleGuardError` if it is
    ever hit.
    """
    A, b, nonneg = problem.A_eq, problem.b_eq, problem.nonneg
    m, n = A.shape

    free_idx = np.where(~nonneg)[0]
    cols = [A]
    if free_idx.size:
        cols.append(-A[:, free_idx])
    A2 = np.hstack(cols)
    n2 = A2.shape[1]

    A2 = A2.copy()
    b2 = b.copy()
    flip = b2 < 0
    A2[flip] *= -1
    b2[flip] *= -1

    # Tableau with artificial basis: rows [A2 | I | b].
    T = np.zeros((m + 1, n2 + m + 1))
    T[:m, :n2] = A2
    T[:m, n2:n2 + m] = np.eye(m)
    T[:m, -1] = b2
    basis = list(range(n2, n2 + m))
    # Phase-1 objective: minimize the sum of artificials.
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, n2:n2 + m] = 0.0

    for _ in range(max_iter):
        enter = -1
        for j in range(n2 + m):
            if T[m, j] < -pivot_tol:
                enter = j
                break
        if enter < 0:
            break
        leave, best_ratio, best_basis = -1, np.inf, None
        for i in range(m):
            a = T[i, enter]
            if a > pivot_tol:
                ratio = T[i, -1] / a
                if (ratio < best_ratio - 1e-15 or
                        (abs(ratio - best_ratio) <= 1e-15 and
                         (best_basis is None or basis[i] < best_basis))):
                    leave, best_ratio, best_basis = i, ratio, basis[i]
        if leave < 0:
            # Unbounded phase-1 column cannot improve feasibility; drop it.
            T[m, enter] = 0.0
            continue
        piv = T[leave, enter]
        T[leave] /= piv
        for r in range(m + 1):
            if r != leave and T[r, enter] != 0.0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    else:
        raise LpCycleGuardError("simplex iteration cap reached; undecided")

    scale = max(1.0, float(np.max(np.abs(b2))) if m else 1.0)
    objective = -T[m, -1]
    if objective > 1e-8 * scale:
        return False, None
    x2 = np.zeros(n2)
    for i, bi in enumerate(basis):
        if bi < n2:
            x2[basis[i]] = T[i, -1]
    x = x2[:n].copy()
    if free_idx.size:
        x[free_idx] -= x2[n:n2]
    return True, x


def point_in_hull(points, x, pivot_tol: float = PIVOT_TOL) -> bool:
    """Is ``x`` a convex combination of the given points?  (LP feasibility.)

    Complex coordinates are handled by stacking real and imaginary parts.
    """
    P = np.asarray(points)
    x = np.asarray(x).ravel()
    if np.iscomplexobj(P) or np.iscomplexobj(x):
        P = np.hstack([P.real, P.imag])
        x = np.concatenate([np.asarray(x).real, np.asarray(x).imag])
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    N = P.shape[0]
    A = np.vstack([np.ones((1, N)), P.T])
    b = np.concatenate([[1.0], x])
    ok, _ = lp_feasible(LpProblem(A, b), pivot_tol=pivot_tol)
    return ok
