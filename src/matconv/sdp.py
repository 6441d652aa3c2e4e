"""Small dense feasibility engines.

Each problem kind describes its affine set once, as a :class:`ConstraintMap`
(raw constraint family and target).  The caller builds it once per query; its
one SVD gives the projector, the certificate check and the Farkas certificate
of an empty affine set, and its raw family re-checks a feasible witness.

Two solvers live here:

* :func:`dykstra_solve` -- Dykstra alternating projections for problems of the
  shape "find PSD blocks of one size inside an affine set".  The blocks are
  kept as one ``(N, n, n)`` stack from end to end, of the shape the
  constraint map gives; the affine set is supplied as its orthogonal
  projector (Frobenius metric), which maps such a stack to a stack, and the
  PSD side projects the whole stack with one batched eigensolve.
  ``Infeasible`` is returned only with a separation certificate that the
  constraint map accepted: a PSD functional that is constant and negative
  on the affine set, so that no PSD point can lie in it.  When the PSD cone
  and the affine set do not meet, the gap between the two iterates tends to
  the displacement vector between them (Bauschke and Borwein, J. Approx.
  Theory 79, 1994), which is such a functional; the solver reads a
  candidate off it every ``CERTIFICATE_EVERY`` iterations.  ``Feasible`` is
  returned only with a witness that the constraint map's raw family and one
  batched eigensolve re-check.  At iterations 10, 40, 160, ... the solver
  also tries a Gauss--Newton polish of its iterate, which finds the points
  of boundary instances that the projections approach only sublinearly:
  the rank-one and rank-two Choi matrices of a one-block stack (the Choi
  test), and the full-rank factors of the POVM blocks of a one-slot map
  (the ``Wmin`` test), from a system whose size does not grow with the
  number of blocks.  A gap that stops moving without a certificate gives
  ``Undecided``.

* :func:`hull_weights` -- the one linear program: is ``x`` a convex
  combination of given points, and with which weights?  A phase-1 dense
  simplex with Bland's rule and a fixed pivot tolerance; Bland's rule rules
  out cycling, and a pivot cap guards the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .numkernel import min_eig

PIVOT_TOL = 1e-9
PROJECTOR_IDEMPOTENCY_TOL = 1e-12
CERTIFICATE_EVERY = 10     # iterations between separation candidates
STALL_WINDOW = 200         # iterations a plateau is judged over
STALL_REL = 1e-4           # relative gap spread that counts as flat
CERTIFICATE_MARGIN = 1e-9  # relative margin a separating value must clear
WITNESS_TOL = 1e-7         # re-verified constraint residual and PSD slack
RAYLEIGH_MARGIN = 1e-12    # relative margin of the affine-side PSD screen
POLISH_FIRST = 10          # iteration of the first low-rank polish
POLISH_GROWTH = 4          # factor between polish iterations
POLISH_RANKS = (1, 2)      # factor ranks a polish tries, in order
POLISH_STEPS = 35          # Gauss-Newton steps per rank
POLISH_SLOW = 0.99         # a step keeping |F| above this share is slow
POLISH_SLOW_POVM = 0.5     # the same share on the blocks of a POVM map
POLISH_RIDGE = 1e-12       # ridge of the normal equations, times their trace


class SdpError(Exception):
    """Base error for this module."""


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
class ConstraintMap:
    """An affine set ``L = {K : A(K) = b}`` of block stacks.

    Each block of an ``(N, g s, g s)`` stack is a ``g x g`` grid (``grid``)
    of ``s x s`` slots ``K_t``, ``t = (v, a, b)`` in row-major order.
    ``family`` is the ``(R, N g^2)`` matrix with ``A(K)_r = sum_t
    family[r, t] K_t``, so ``A*(y)_t = sum_r conj(family[r, t]) y_r``, and
    ``target`` the ``(R, s, s)`` stack ``b``.  Row 0 must have the identity
    stack as its adjoint, so that ``eps I`` in ``y_0`` pays for a shift of
    ``A*(y)`` by ``eps I``, and the identity as its target ``b_0``.  One
    thin SVD ``family = U_r S_r V_r`` (rank cutoff ``1e-12 s_max``) gives
    the projector, the fit of a dual to a functional, and the Farkas dual;
    the witness residual reads the raw family alone.
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

    @property
    def shape(self) -> tuple[int, int, int]:
        """The ``(N, g s, g s)`` shape of the block stacks."""
        g, s = self.grid, self.target.shape[1]
        return self.family.shape[1] // (g * g), g * s, g * s

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

    def residual(self, blocks) -> float:
        """``|A(K) - b|`` (Frobenius) of a block stack or list of blocks,
        formed from the raw family and target."""
        K = np.asarray(blocks, dtype=complex)
        b = self.target.reshape(len(self.target), -1)
        return float(np.linalg.norm(self.family @ self._slots(K) - b))

    def verify(self, Z: np.ndarray) -> Optional[Certificate]:
        """``certify`` of the least-squares ``y`` with ``A*(y) = Z``."""
        return self.certify(self._fit @ (self._V @ self._slots(Z)))

    def inconsistency(self, message: str) -> Optional[FeasibilityResult]:
        """``Infeasible`` at iteration 0 with ``message``, the linear
        residual ``|y|`` and the Farkas certificate, when ``certify`` accepts
        ``y = -(b - U_r U_r^H b)``: ``A*(y) = 0``, ``<y, b> = -|y|^2``.
        ``y`` is formed as ``-N N^H b`` from the left null space ``N``, so
        its rounding error stays out of the range of ``A``, where it would
        add a value of either sign as large as ``|y| |b|``.

        ``certify`` cannot accept ``y`` when ``|y|^2 <= CERTIFICATE_MARGIN
        sum_{r >= 1} |y_r| |b_r|``, so that case returns ``None`` without
        its eigensolve.  Proof: the shift ``eps I`` in ``y_0`` adds
        ``eps tr b_0 >= 0`` to the value (``b_0 = I``), so the value is at
        least ``<y, b> = -|y|^2``; it leaves ``y_r``, ``r >= 1``, alone, so
        the scale ``sum_r |y_r| |b_r|`` is at least the sum over ``r >= 1``.
        Acceptance, value ``< -CERTIFICATE_MARGIN * scale``, therefore needs
        ``|y|^2 > CERTIFICATE_MARGIN sum_{r >= 1} |y_r| |b_r|``.  The
        screen passes over ``y = 0`` and the rounding-level ``y`` that a
        consistent family with repeated rows leaves, such as the Choi family
        of Hermitian sources.
        """
        b = self.target.reshape(len(self.target), -1)
        y = -self._null @ (self._null.conj().T @ b)
        ny = _block_norms(y)
        if ny @ ny <= CERTIFICATE_MARGIN * float(
                np.dot(ny[1:], _block_norms(b)[1:])):
            return None
        cert = self.certify(y)
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


@dataclass
class BlockPsdProblem:
    """Find PSD blocks inside the affine set of ``constraints``.

    The blocks form one ``constraints.shape`` stack.  ``affine_projector``
    maps such a stack to its closest point (Frobenius metric) in the affine
    set, again a stack of that shape, and must be idempotent to 1e-12 on its
    own output; it is ``constraints.project`` or a stand-in for it.  The
    solver checks separation candidates with ``constraints.verify`` and
    feasible witnesses with ``constraints.residual``, neither of which calls
    the projector.  It screens its candidates on the assumption that the
    total trace is constant on the affine set, as it is for both problem
    kinds here; the verifier alone decides.
    """

    constraints: ConstraintMap
    affine_projector: Callable[[np.ndarray], np.ndarray]
    max_iter: int = 20000
    tol_feas: float = 1e-8


def _sym(K: np.ndarray) -> np.ndarray:
    """Hermitian part of each block of a stack."""
    return (K + K.conj().swapaxes(1, 2)) / 2.0


def _block_norms(K: np.ndarray) -> np.ndarray:
    return np.linalg.norm(K.reshape(len(K), -1), axis=1)


def _frob(K: np.ndarray) -> float:
    """Frobenius norm of an ``(N, n, n)`` stack, bit-identical to
    ``sqrt(sum(np.linalg.norm(B) ** 2 for B in K))`` on a C-contiguous copy
    of ``K``: each block's squared norm is ``re.re + im.im`` from two
    strided ``dot`` calls (the vector case of ``matmul``), as ``norm``
    forms it, its root is squared again by the C library's ``pow``, as a
    float64 scalar's ``** 2`` does (``np.float_power``; ``s * s`` and
    ``np.power(s, 2)`` round the exact square, and ``pow`` can land one ulp
    away from it), and the squares are added left to right (``cumsum``)."""
    X = np.ascontiguousarray(K).reshape(len(K), -1)
    sq = ((X.real[:, None, :] @ X.real[:, :, None]).ravel()
          + (X.imag[:, None, :] @ X.imag[:, :, None]).ravel())
    s = np.sqrt(sq)
    return float(np.sqrt(np.cumsum(np.float_power(s, 2.0))[-1]))


def psd_project(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest PSD point ``H`` of an ``(N, n, n)`` stack, block by block,
    from one batched ``eigh``: each block is symmetrized, and a block with a
    negative eigenvalue is rebuilt with its negative eigenvalues clipped to
    zero.  Blocks that are already PSD come back as their symmetrized input.

    Returns ``(H, v)``, with ``v`` the ``(N, n)`` unit eigenvectors of each
    symmetrized block's smallest eigenvalue (``eigh``'s first columns)."""
    H = _sym(K)
    w, Q = np.linalg.eigh(H)
    v = Q[:, :, 0]
    neg = w[:, 0] < 0.0
    if not neg.any():
        return H, v
    w, Q = w[neg], Q[neg]
    H[neg] = _sym((Q * np.clip(w, 0.0, None)[:, None, :])
                  @ Q.conj().swapaxes(1, 2))
    return H, v


def _rayleigh_rules_out(K: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True when some block's Rayleigh quotient ``Re(v_b^H K_b v_b)`` lies
    below ``-tol - RAYLEIGH_MARGIN |K_b|_F``, so that ``eigvalsh`` of the
    symmetrized stack cannot give a smallest eigenvalue ``>= -tol``.

    The smallest eigenvalue is at most every Rayleigh quotient of a unit
    vector.  The margin is over 100 times the rounding of the quotient and
    of ``eigvalsh`` (each a small multiple of ``n u |K_b|_F`` for blocks up
    to 36 x 36), so a quotient past it places the computed eigenvalue below
    ``-tol`` too.  A NaN quotient rules nothing out."""
    r = (v.conj()[:, None, :] @ K @ v[:, :, None]).real.ravel()
    return bool(np.any(r < -tol - RAYLEIGH_MARGIN * _block_norms(K)))


def dykstra_solve(problem: BlockPsdProblem) -> FeasibilityResult:
    """Dykstra alternating projections between the PSD product cone and the
    affine set of ``problem.constraints``.

    The iterate is a candidate as soon as either projection output
    satisfies the other constraint to ``tol_feas``: the PSD-side point when
    its Frobenius distance to the affine set is small, or the affine-side
    point when its blocks are PSD up to ``-tol_feas``.  The affine-side test
    is screened with the PSD step's own eigenvectors: a block whose Rayleigh
    quotient at the eigenvector of its PSD-step input's smallest eigenvalue
    lies below ``-tol_feas`` by the screen's margin rules acceptance out,
    and ``eigvalsh`` runs only when no block does.  An iteration that is not
    accepted then usually costs one eigensolve, the PSD step's ``eigh``.  A
    candidate is re-checked without the projector: ``constraints.residual``
    and the smallest eigenvalue of its blocks (one batched eigensolve) must
    both be within ``WITNESS_TOL``.  It is then ``Feasible``, its witness
    the list of the N blocks; otherwise the solve ends ``Undecided``.  A
    PSD-side point that misses the raw constraints (a large family scales
    the gap up) gives way to its affine-side projection, PSD to within the
    gap.

    At iteration ``POLISH_FIRST`` and every ``POLISH_GROWTH``-fold
    iteration after it (10, 40, 160, ...), a certificate check that finds
    no certificate is followed by :func:`_polish` of the PSD-side point: to
    rank at most 2 on a one-block stack, and from full-rank factors on the
    blocks of a one-slot map with a real family (the POVM blocks of
    ``wmin_member``; other multi-block stacks are not polished).  A
    polished ``K = V V^*`` with ``cmap.residual(K) <= tol_feas`` is
    re-checked like any candidate, and its ``Feasible`` result names the
    rank or the number of blocks, and the step count.

    Every ``CERTIFICATE_EVERY`` iterations, while the gap exceeds
    ``10 tol_feas``, the PSD-side point ``y`` minus its projection ``y_aff``
    is a separation candidate ``Z``: it is orthogonal to the direction
    space of the affine set, so ``<Z, K> = <Z, y_aff>`` on the whole set.
    Shifted by ``eps I`` (one batched ``eigvalsh``) it is PSD, and the
    identity stack is orthogonal to the direction space too, so the shift
    adds ``eps sum tr(y_aff)``.  A candidate whose value falls below
    ``-CERTIFICATE_MARGIN |Z| |y_aff|`` goes to ``constraints.verify``;
    ``Infeasible`` is returned only with the certificate that accepts.  A
    gap that plateaus (flat to ``STALL_REL`` over ``STALL_WINDOW``
    iterations) or ``max_iter`` without either verdict gives ``Undecided``.
    """
    cmap = problem.constraints
    shape = cmap.shape

    def project(K: np.ndarray) -> np.ndarray:
        return np.asarray(problem.affine_projector(K), dtype=complex)

    x = project(np.zeros(shape, dtype=complex))
    # Projector contract: idempotent on its own output.
    drift = _frob(project(x) - x)
    if drift > PROJECTOR_IDEMPOTENCY_TOL * (1.0 + _frob(x)):
        raise SdpError(
            f"affine projector is not idempotent (drift {drift:.3e})")
    p = np.zeros(shape, dtype=complex)  # Dykstra correction, PSD side
    q = np.zeros(shape, dtype=complex)  # Dykstra correction, affine side
    gaps: list[float] = []
    tol = problem.tol_feas
    polish_at = POLISH_FIRST
    for it in range(1, problem.max_iter + 1):
        y_in = x + p
        y, v = psd_project(y_in)
        p = y_in - y

        y_aff = project(y)
        gap = _frob(y_aff - y)
        gaps.append(gap)
        if gap <= tol:
            res = _rechecked(cmap, y, gap, it)
            if res.status is Status.FEASIBLE:
                return res
            return _rechecked(cmap, y_aff, gap, it)
        if not _rayleigh_rules_out(y_aff, v, tol):
            neg = float(np.linalg.eigvalsh(_sym(y_aff))[:, 0].min())
            if neg >= -tol:
                return _rechecked(cmap, y_aff, max(0.0, -neg), it)
        polish = it == polish_at
        if polish:
            polish_at *= POLISH_GROWTH
        if it % CERTIFICATE_EVERY == 0 and gap > 10 * tol:
            cert = _separation(y, y_aff, cmap.verify)
            if cert is not None:
                return FeasibilityResult(
                    Status.INFEASIBLE, None, gap, it,
                    message="separated by a verified certificate",
                    certificate=cert)
            polished = _polish(cmap, y, tol) if polish else None
            if polished is not None:
                K, resid, message = polished
                return _rechecked(cmap, K, resid, it, message)

        z_in = y + q
        x = project(z_in)
        q = z_in - x

        if len(gaps) >= STALL_WINDOW and gaps[-1] > 10 * tol:
            lo, hi = min(gaps[-STALL_WINDOW:]), max(gaps[-STALL_WINDOW:])
            if hi - lo <= STALL_REL * hi:
                return FeasibilityResult(
                    Status.UNDECIDED, None, gaps[-1], it,
                    message="residual plateaued, no certificate",
                )
    return FeasibilityResult(
        Status.UNDECIDED, None, gaps[-1] if gaps else np.inf, problem.max_iter,
        message="iteration cap reached before feasibility or plateau",
    )


def _rechecked(cmap: ConstraintMap, K: np.ndarray, residual: float,
               it: int, message: str = "") -> FeasibilityResult:
    """``Feasible`` with the blocks of ``K`` as the witness (and
    ``message``), or ``Undecided`` when they miss the constraints
    (``cmap.residual``) or PSD-ness (one batched eigensolve) by more than
    ``WITNESS_TOL``."""
    resid = cmap.residual(K)
    low = float(np.min(min_eig(K, tol=np.inf)))
    if resid <= WITNESS_TOL and low >= -WITNESS_TOL:
        return FeasibilityResult(Status.FEASIBLE, list(K), residual, it,
                                 message=message)
    return FeasibilityResult(
        Status.UNDECIDED, None, residual, it,
        message=(f"witness failed re-verification (constraint residual "
                 f"{resid:.3e}, smallest eigenvalue {low:.3e})"))


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


def _polish(cmap: ConstraintMap, y: np.ndarray, tol: float,
            ) -> Optional[tuple[np.ndarray, float, str]]:
    """A PSD point ``K = V V^*`` in the affine set of ``cmap``, polished
    from the PSD-side iterate ``y`` (Burer and Monteiro, Math. Program. 95,
    2003), or ``None``: :func:`_polish_choi` on a one-block stack,
    :func:`_polish_povm` on the blocks of a one-slot map with a real family
    (the POVM blocks of ``wmin_member``); other stacks are not polished.

    Returns ``(K, cmap.residual(K), message)`` once that residual is at most
    ``tol``.  ``K`` is PSD by construction; the caller re-checks it as any
    witness.
    """
    if cmap.shape[0] == 1:
        return _polish_choi(cmap, y, tol)
    if cmap.grid == 1 and np.isrealobj(cmap.family):
        return _polish_povm(cmap, y, tol)
    return None


def _descend(V: np.ndarray, at, step, tol: float, slow_share: float,
             ) -> tuple[np.ndarray, float, int]:
    """At most ``POLISH_STEPS`` Gauss--Newton steps on the factor ``V``.

    ``at(V)`` gives ``(aux, F(V))`` and ``step(V, aux, F)`` the step; each
    step is halved until ``|F|`` falls.  The descent stops once ``|F| <=
    tol``, after a step that cannot lower ``|F|``, or after two steps in a
    row that each keep ``|F|`` above ``slow_share`` times its value before.
    Returns the last factor, its ``|F|`` and the number of steps taken."""
    aux, F = at(V)
    norm = float(np.linalg.norm(F))
    steps = slow = 0
    while norm > tol and steps < POLISH_STEPS and slow < 2:
        dV = step(V, aux, F)
        t = 1.0
        while True:
            aux_t, F_t = at(V + t * dV)
            new = float(np.linalg.norm(F_t))
            if new < norm or t < 1e-6:
                break
            t /= 2.0
        if not new < norm:
            break
        V, aux, F, steps = V + t * dV, aux_t, F_t, steps + 1
        slow = slow + 1 if new > slow_share * norm else 0
        norm = new
    return V, norm, steps


def _polish_choi(cmap: ConstraintMap, y: np.ndarray, tol: float,
                 ) -> Optional[tuple[np.ndarray, float, str]]:
    """:func:`_polish` of a one-block ``cmap`` to rank at most 2.

    The block is a ``g x g`` grid of ``s x s`` slots, so a factor ``V`` is a
    ``(g, s, r)`` stack and ``F(V) = A(V V^*) - b`` has the rows
    ``sum_ab f_r[a, b] V_a V_b^*`` minus ``b_r``.  For each rank ``r`` in
    ``POLISH_RANKS`` the start is ``Q_r sqrt(w_r)`` from the top ``r``
    eigenpairs of ``y``, scaled so that ``tr V V^* = tr y``, and
    :func:`_descend` takes :func:`_gauss_newton_step` steps from it with
    the slow share ``POLISH_SLOW``.

    When ``cmap`` has a padding corner ``(a, i)`` (:func:`_padding_corner`),
    each start has ``1`` added at ``V[a, i, 0]``.  Only ``V[a, i]`` can
    supply the unit that ``b_0 = I`` asks for at slot ``(i, i)``, and the
    derivative of ``(V V^*)[a i, a i]`` vanishes where ``V[a, i] = 0``, as
    it does in the eigenvector start of a zero-padded problem; the anchored
    start is the Kraus entry of the padded map ``diag(W, 1)``.
    """
    g, s = cmap.grid, cmap.target.shape[1]
    f = cmap.family.reshape(-1, g, g)

    def at(V):
        """``F(V)`` and ``G[r, a, j, p] = sum_b f_r[a, b] conj(V[b, j,
        p])``, from which it is formed."""
        G = np.einsum("rab,bjp->rajp", f, V.conj())
        return G, np.einsum("aip,rajp->rij", V, G) - cmap.target

    def step(V, G, F):
        return _gauss_newton_step(f, V, G, F)

    corner = _padding_corner(cmap)
    start = "" if corner is None else " from the padding-corner start"
    w, Q = np.linalg.eigh(_sym(y)[0])
    for r in POLISH_RANKS:
        top = np.clip(w[-r:], 0.0, None)
        if not top.sum() > 0.0:
            return None
        V = Q[:, -r:] * np.sqrt(top * (w.sum() / top.sum()))
        V = V.reshape(g, s, r)
        if corner is not None:
            V[corner + (0,)] += 1.0
        V, norm, steps = _descend(V, at, step, tol, POLISH_SLOW)
        if norm <= tol:
            V = V.reshape(g * s, r)
            K = _sym((V @ V.conj().T)[None])
            resid = cmap.residual(K)
            if resid <= tol:
                return K, resid, (f"polished to rank {r} in {steps} "
                                  f"Gauss-Newton steps{start}")
    return None


def _polish_povm(cmap: ConstraintMap, y: np.ndarray, tol: float,
                 ) -> Optional[tuple[np.ndarray, float, str]]:
    """:func:`_polish` of the ``N`` blocks of a one-slot map with a real
    family ``f`` (``povm_constraints``): ``A(K)_r = sum_v f_rv K_v``.

    The start is the full-rank factor ``V_v = Q_v sqrt(w_v)`` of each block
    of ``y``, from one batched ``eigh``, and :func:`_descend` takes the
    steps of :func:`_povm_stepper` from it with the slow share
    ``POLISH_SLOW_POVM``.  A system that ``np.linalg.solve`` finds singular
    ends the try.
    """
    f = cmap.family
    N, n = f.shape[1], cmap.target.shape[1]

    def at(V):
        K = V @ V.conj().swapaxes(1, 2)
        return K, (f @ K.reshape(N, -1)).reshape(cmap.target.shape) \
            - cmap.target

    w, Q = np.linalg.eigh(_sym(y))
    V = Q * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    try:
        V, norm, steps = _descend(V, at, _povm_stepper(cmap), tol,
                                  POLISH_SLOW_POVM)
    except np.linalg.LinAlgError:
        return None
    if norm > tol:
        return None
    K = _sym(at(V)[0])
    resid = cmap.residual(K)
    if resid > tol:
        return None
    return K, resid, f"polished {N} blocks in {steps} Gauss-Newton steps"


def _povm_stepper(cmap: ConstraintMap):
    """The Gauss--Newton step of :func:`_polish_povm` on the blocks of the
    one-slot map ``cmap``, as a function ``step(V, K, F)``.

    ``step`` returns the minimum-norm ``E`` with ``J(E) = -F`` at the
    factors ``V`` of ``K_v = V_v V_v^*``, where ``J(E)_r = sum_v a_rv (E_v
    V_v^* + V_v E_v^*)`` is the derivative of ``F(V)_r = sum_v a_rv V_v
    V_v^* - b_r`` for the real family ``a``.  It solves in the row space
    of ``a``: with the thin SVD ``a = U S f`` of ``cmap`` the equation
    reads ``J_f(E) = -F'``, ``F' = S^-1 U^T F``, the same equation whenever
    ``F`` lies in the range of ``A``, as ``A(K) - b`` does on a consistent
    map.  Then ``E = J_f^*(W)``, ``J_f^*(W)_v = 2 (sum_r f_rv W_r) V_v``,
    with ``W`` the Hermitian solution of ``J_f J_f^*(W) = L(W) = -F'``,
    ``L(W)_r = 2 sum_s (W_s M_rs + M_rs W_s)``, ``M_rs = sum_v f_rv f_sv
    K_v``.  In the coordinates ``w_ra = tr(B_a W_r)`` of an orthonormal
    basis ``B_a`` of the Hermitian matrices (:func:`_herm_basis`) the
    system is real, with ``rank(a) n^2`` unknowns however many blocks there
    are: ``L[(r, a), (s, b)] = 2 tr(B_a (B_b M_rs + M_rs B_b)) = 4 Re
    tr(B_a B_b M_rs)``.  It is symmetric, and positive definite when the
    ``K_v`` are, as the rows of ``f`` are independent.  A singular system
    raises ``LinAlgError`` or gives a step that the line search rejects.
    A step holds ``O(rank(a)^2 n^4)`` numbers at once, a few times the
    size of ``L``."""
    fit, f = cmap._fit, cmap._V
    R, N = f.shape
    n = cmap.target.shape[1]
    n2 = n * n
    # M_rs = M_sr, so only the pairs r <= s are formed; pair[r, s] is the
    # index of the pair {r, s} among them.
    lo, hi = np.triu_indices(R)
    pair = np.zeros((R, R), dtype=int)
    pair[lo, hi] = pair[hi, lo] = np.arange(len(lo))
    ff = f[lo] * f[hi]
    basis = _herm_basis(n)
    Bc = basis.reshape(n2, n2).conj()

    def step(V, K, F):
        M = (ff @ K.reshape(N, -1)).reshape(-1, n, n)
        # B_b M_rs for every b and pair from one product, as the columns of
        # an (n^2, pairs n^2) matrix of vec(B_b M_rs).
        BM = basis.reshape(n2 * n, n) @ M.transpose(1, 0, 2).reshape(n, -1)
        BM = BM.reshape(n2, n, -1, n).transpose(1, 3, 2, 0)
        L = 4.0 * (Bc @ BM.reshape(n2, -1)).real
        L = L.reshape(n2, -1, n2)[:, pair].transpose(1, 0, 2, 3)
        rhs = -((fit.T @ F.reshape(len(F), -1)) @ Bc.T).real
        w = np.linalg.solve(L.reshape(R * n2, R * n2), rhs.ravel())
        W = (w.reshape(R, n2) @ Bc.conj()).reshape(R, n, n)
        return (2.0 * f.T @ W.reshape(R, -1)).reshape(N, n, n) @ V

    return step


def _herm_basis(n: int) -> np.ndarray:
    """An ``(n^2, n, n)`` basis ``B_a`` of the Hermitian ``n x n`` matrices,
    orthonormal for ``<X, Y> = tr(X Y)``: ``E_kk``, and for ``k < l`` the
    matrices ``(E_kl + E_lk) / sqrt 2`` (at ``a = (k, l)``) and ``i (E_kl -
    E_lk) / sqrt 2`` (at ``a = (l, k)``)."""
    B = np.zeros((n, n, n, n), dtype=complex)
    h = np.sqrt(0.5)
    for k in range(n):
        B[k, k, k, k] = 1.0
        for l in range(k + 1, n):
            B[k, l, k, l] = B[k, l, l, k] = h
            B[l, k, k, l], B[l, k, l, k] = 1j * h, -1j * h
    return B.reshape(n * n, n, n)


def _padding_corner(cmap: ConstraintMap) -> Optional[tuple[int, int]]:
    """The grid index ``a`` and slot index ``i`` of a zero-padded one-block
    ``cmap``, or ``None``: row and column ``a`` of every source ``f_r``,
    ``r >= 1``, vanish, and so do row and column ``i`` of every target
    ``b_r``, ``r >= 1``.  The CCP reduction ``diag(A, 0) -> diag(B, 0)``
    has the last of each; a UCP or CC problem on tuples without a common
    zero row and column has none.  The last such index is taken."""
    g = cmap.grid
    f = cmap.family[1:].reshape(-1, g, g) != 0
    b = cmap.target[1:] != 0
    a = np.flatnonzero(~(f.any(axis=(0, 1)) | f.any(axis=(0, 2))))
    i = np.flatnonzero(~(b.any(axis=(0, 1)) | b.any(axis=(0, 2))))
    if a.size == 0 or i.size == 0:
        return None
    return int(a[-1]), int(i[-1])


def _gauss_newton_step(f: np.ndarray, V: np.ndarray, G: np.ndarray,
                       F: np.ndarray) -> np.ndarray:
    """The step ``E`` that solves the linearized equation ``F + M1 E + M2
    conj(E) = 0`` at the factor ``V`` in least squares, by the normal
    equations of its real Jacobian ``J``, ridged by ``POLISH_RIDGE tr(J^T
    J)`` (the ridge takes up the gauge ``V -> V U``).

    ``(M1 E)_r = sum_a E_a G_ra^T`` and ``(M2 conj E)_r = sum_b H_rb
    E_b^*``, with ``G`` as :func:`_polish` forms it and ``H[r, i, b, p] =
    sum_a f_r[a, b] V[a, i, p]``.  In the unknowns ``(E, conj E)`` the
    normal matrix has the blocks ``N11 = M1^H M1 + M2^T conj(M2)``, the
    identity in the slot index times a ``(g r)^2`` matrix, and ``N12 = S +
    S^T`` with ``S = M1^H M2``; the right-hand side is ``c = M1^H F + M2^T
    conj(F)``.  ``J^T J`` and ``J^T F`` are their real forms, built from
    ``G`` and ``H`` without forming ``J``."""
    g, s, r = V.shape
    n = V.size
    H = np.einsum("rab,aip->ribp", f, V)
    Gc = G.conj()
    gram = (np.tensordot(Gc, G, axes=([0, 2], [0, 2]))
            + np.tensordot(H, H.conj(), axes=([0, 1], [0, 1])))
    N11 = (gram[:, None, :, :, None, :]
           * np.eye(s)[None, :, None, None, :, None]).reshape(n, n)
    S = np.tensordot(Gc, H, axes=(0, 0)).transpose(0, 3, 2, 4, 1, 5)
    N12 = S.reshape(n, n) + S.reshape(n, n).T
    c = (np.einsum("rajp,ryj->ayp", Gc, F)
         + np.einsum("rxap,rxy->ayp", H, F.conj())).ravel()
    plus, minus = N11 + N12, N11 - N12
    JtJ = np.empty((2 * n, 2 * n))
    JtJ[:n, :n], JtJ[:n, n:] = plus.real, -minus.imag
    JtJ[n:, :n], JtJ[n:, n:] = plus.imag, minus.real
    JtJ[np.diag_indices(2 * n)] += POLISH_RIDGE * np.trace(JtJ)
    x = np.linalg.solve(JtJ, -np.concatenate([c.real, c.imag]))
    return (x[:n] + 1j * x[n:]).reshape(g, s, r)


# ---------------------------------------------------------------------------
# Affine projector for vertex-indexed positive decompositions
# ---------------------------------------------------------------------------


def povm_constraints(vertices, X) -> ConstraintMap:
    """The constraint map of ``{(K_v): sum_v K_v = I, sum_v v K_v = X}``:
    one slot per block, the all-ones row and the vertex coordinates, target
    ``(I, X_1, ..., X_d)``.  Its adjoint takes a pencil ``H_0, ..., H_d`` to
    ``Z_v = H_0 + sum_j v_j H_j``, so a certificate is an Effros--Winkler
    separating pencil: positive at every vertex, negative at ``X``."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError("need at least one vertex, as rows of a 2-d array")
    N, d = V.shape
    X = np.asarray(X, dtype=complex)
    if len(X) != d:
        raise ValueError(f"tuple length {len(X)} does not match vertex dim {d}")
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError("tuple entries must be square matrices of one size")
    n = X.shape[1]
    return ConstraintMap(np.vstack([np.ones((1, N)), V.T]),
                         np.concatenate([np.eye(n, dtype=complex)[None], X]))


def affine_projector_povm(cmap: ConstraintMap,
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The projector of a :func:`povm_constraints` map, ``cmap.project``."""
    return cmap.project


# ---------------------------------------------------------------------------
# Phase-1 simplex
# ---------------------------------------------------------------------------


LP_PIVOT_CAP = 50000   # simplex pivots before LpCycleGuardError


def hull_weights(points, x) -> Optional[np.ndarray]:
    """Convex weights ``lam`` with ``points.T @ lam = x``, or None when
    ``x`` is not in the convex hull of the rows of ``points`` (real).

    Phase-1 simplex on ``[1^T; P^T] lam = [1; x]``, ``lam >= 0``, from an
    artificial basis.  Entering and leaving choices follow Bland's rule
    (smallest index) so the walk cannot cycle; ``LP_PIVOT_CAP`` pivots raise
    :class:`LpCycleGuardError` if it is ever hit.
    """
    P = np.asarray(points, dtype=float)
    N = P.shape[0]
    A = np.vstack([np.ones((1, N)), P.T])
    b = np.concatenate([[1.0], np.asarray(x, dtype=float).ravel()])
    m = A.shape[0]
    flip = b < 0
    A[flip] *= -1
    b[flip] *= -1

    # Tableau with artificial basis: rows [A | I | b].
    T = np.zeros((m + 1, N + m + 1))
    T[:m, :N] = A
    T[:m, N:N + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(N, N + m))
    # Phase-1 objective: minimize the sum of artificials.
    T[m, :] = -T[:m, :].sum(axis=0)
    T[m, N:N + m] = 0.0

    for _ in range(LP_PIVOT_CAP):
        improving = T[m, :-1] < -PIVOT_TOL
        enter = int(np.argmax(improving))
        if not improving[enter]:
            break
        leave, best_ratio, best_basis = -1, np.inf, None
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if (ratio < best_ratio - 1e-15 or
                        (abs(ratio - best_ratio) <= 1e-15 and
                         (best_basis is None or basis[i] < best_basis))):
                    leave, best_ratio, best_basis = i, ratio, basis[i]
        if leave < 0:
            # Unbounded phase-1 column cannot improve feasibility; drop it.
            T[m, enter] = 0.0
            continue
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        rows = np.flatnonzero(factors)
        T[rows] -= factors[rows, None] * T[leave]
        basis[leave] = enter
    else:
        raise LpCycleGuardError("simplex iteration cap reached; undecided")

    if -T[m, -1] > 1e-8 * max(1.0, float(np.max(b))):
        return None
    lam = np.zeros(N)
    for i, bi in enumerate(basis):
        if bi < N:
            lam[bi] = T[i, -1]
    return lam
