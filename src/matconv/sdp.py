"""Small dense feasibility engines.

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
    """The affine constraint system has no solution at all."""


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
    ``<A*(y), K> >= 0``: no PSD point lies in ``L``.
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

    @property
    def feasible(self) -> bool:
        return self.status is Status.FEASIBLE


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
    """The linear map ``A`` of an affine set ``L = {K : A(K) = b}`` of block
    stacks, for checking separation certificates without the solver.

    ``adjoint`` maps a dual stack ``y`` to the block stack ``A*(y)``;
    ``fit`` maps a block stack ``Z`` to the least-squares ``y`` with
    ``A*(y) = Z``; ``target`` is ``b``; ``unit`` is a dual stack with
    ``A*(unit)`` the identity stack.
    """

    adjoint: Callable[[np.ndarray], np.ndarray]
    fit: Callable[[np.ndarray], np.ndarray]
    target: np.ndarray
    unit: np.ndarray

    def verify(self, Z: np.ndarray) -> Optional[Certificate]:
        """The certificate that ``Z`` yields, or ``None``.

        ``y = fit(Z)`` re-forms the functional ``A*(y)``, and adding
        ``eps I``, with ``-eps`` its smallest eigenvalue over all blocks (one
        batched ``eigvalsh``) when that is negative, makes it PSD; ``eps *
        unit`` pays for the shift in ``y``.  The value ``<y, b>`` must then
        fall below ``-CERTIFICATE_MARGIN * sum_r |y_r| |b_r|``, far below
        its rounding error.
        """
        y = self.fit(Z)
        W = _sym(self.adjoint(y))
        eps = max(0.0, -float(np.linalg.eigvalsh(W)[:, 0].min()))
        y = y + eps * self.unit
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


def _povm_system(vertices, X: Sequence[np.ndarray],
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The ``(d+1, N)`` matrix of the all-ones row and the vertex
    coordinates, and the ``(d+1, n, n)`` stack ``(I, X_1, ..., X_d)`` it must
    take the blocks to."""
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
    A = np.vstack([np.ones((1, N)), V.T])
    return A, np.stack([np.eye(n, dtype=complex)] + X)


def affine_projector_povm(vertices, X: Sequence[np.ndarray],
                          consistency_tol: float = 1e-9,
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """Projector onto ``{(K_v): sum_v K_v = I, sum_v v K_v = X}``.

    The constraints decouple per matrix entry ``(r, s)``: each entry vector
    ``(K_v[r,s])_v`` solves a fixed ``(d+1) x N`` linear system whose rows are
    the all-ones row and the vertex coordinates.  The projector applies the
    precomputed pseudoinverse of that matrix entrywise, mapping an
    ``(N, n, n)`` stack of blocks (or a list of N blocks) to a stack.

    Raises
    ------
    InconsistentConstraintsError : the system has no solution for this ``X``
        (only possible when the vertex matrix is row-rank deficient).
    """
    A, target = _povm_system(vertices, X)
    Apinv = np.linalg.pinv(A)                       # (N, d+1)

    if np.linalg.matrix_rank(A, tol=1e-12) < len(A):
        # Rank-deficient constraint rows: X must lie in the range of A.
        resid = target - np.tensordot(A @ Apinv, target, axes=(1, 0))
        scale = max(1.0, float(np.max(np.abs(target))))
        if np.max(np.abs(resid)) > consistency_tol * scale:
            raise InconsistentConstraintsError(
                "vertex constraint system is inconsistent for this tuple"
            )

    def project(blocks) -> np.ndarray:
        K = np.asarray(blocks, dtype=complex)
        M = np.tensordot(A, K, axes=(1, 0))         # (d+1, n, n)
        K = K - np.tensordot(Apinv, M - target, axes=(1, 0))
        return (K + np.conj(np.transpose(K, (0, 2, 1)))) / 2.0

    return project


def povm_constraints(vertices, X: Sequence[np.ndarray]) -> ConstraintMap:
    """The constraint map of ``{(K_v): sum_v K_v = I, sum_v v K_v = X}``.

    Its adjoint takes a pencil ``H_0, ..., H_d`` to the blocks
    ``Z_v = H_0 + sum_j v_j H_j``, and ``<Z, K> = tr H_0 + sum_j tr(H_j X_j)``
    on the affine set.  A certificate is thus an Effros--Winkler separating
    pencil: positive at every vertex, negative at ``X``.  ``fit`` solves
    ``Z_v = H_0 + sum_j v_j H_j`` by least squares, entry by entry.
    """
    A, target = _povm_system(vertices, X)
    fit = np.linalg.pinv(A.T)                       # (d+1, N)
    unit = np.zeros_like(target)
    unit[0] = np.eye(target.shape[1])
    return ConstraintMap(
        adjoint=lambda H: np.tensordot(A.T, H, axes=(1, 0)),
        fit=lambda Z: np.tensordot(fit, Z, axes=(1, 0)),
        target=target, unit=unit)


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
