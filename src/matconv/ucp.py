"""Existence of unital/contractive completely positive maps between tuples.

For matrix tuples ``A`` on C^k and ``B`` on C^m, a UCP map ``phi`` with
``phi(I) = I`` and ``phi(A_i) = B_i`` exists iff one finite semidefinite
system is feasible: a PSD Choi matrix ``C`` in ``M_k (x) M_m`` meeting the
``d + 1`` linear constraints that pin ``phi(I)`` and every ``phi(A_i)``.
The reduction is finite precisely because the tuples are matrices: the map is
determined by its Choi matrix, complete positivity is PSD-ness of that
matrix, and prescribing values on a spanning family is an affine condition.
Extension from the span of ``{I, A_i}`` to all of ``M_k`` is free for CP
maps, so nothing is lost by solving over full matrix algebras.

Contractive (CC) and contractive-positive (CCP) map existence reduce to UCP
existence on doubled spaces: CC uses the off-diagonal embeddings
``[[0, A_i], [A_i*, 0]]`` and CCP the padded ``diag(A_i, 0)``.

``Infeasible`` always carries a separation certificate: duals ``y_r`` with
a PSD Choi-side functional ``Z = sum_r conj(f_r) (x) y_r`` and ``sum_r
<y_r, b_r> < 0``, where ``f_r`` runs over the source family ``{I, A_i /
sqrt 2, A_i* / sqrt 2}`` and ``b_r`` over the same combinations of ``I`` and
the ``B_i``, so ``<Z, C> < 0`` for every Choi matrix meeting the constraints
and no PSD one does.  The solver finds one on its iterates; when the targets
break a linear dependency of the sources, so that no linear map takes them
at all, the Farkas dual (with ``Z = 0`` up to a PSD shift) answers at
iteration 0.  The CLI reports such a verdict as "no map found (residual
r)".  A feasible Choi witness is re-verified against the constraints before
``Feasible`` is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .sdp import (
    BlockPsdProblem,
    ConstraintMap,
    FeasibilityResult,
    Status,
    dykstra_solve,
    point_in_hull,
    reverified,
)
from .sets import (
    GenTuple,
    HermTuple,
    cube_polytope,
    first_violated_sign,
    re_im_split,
    wmin_member,
    zero_interior_range,
)


class MapMode(Enum):
    UCP = "UCP"
    CCP = "CCP"
    CC = "CC"


@dataclass
class ChoiProblem:
    """A map-existence query, with the doubled tuples it reduces to."""

    source: GenTuple
    target: GenTuple
    mode: MapMode
    reduced_source: GenTuple = None  # type: ignore[assignment]
    reduced_target: GenTuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.source.d != self.target.d:
            raise ValueError("source and target tuples must share d")
        if self.mode is MapMode.UCP:
            self.reduced_source, self.reduced_target = self.source, self.target
        elif self.mode is MapMode.CC:
            self.reduced_source = _hat_tuple(self.source)
            self.reduced_target = _hat_tuple(self.target)
        else:
            self.reduced_source = _tilde_tuple(self.source)
            self.reduced_target = _tilde_tuple(self.target)


def _hat_tuple(X: GenTuple) -> HermTuple:
    """Off-diagonal self-adjoint embeddings [[0, X], [X*, 0]] on C^(2n)."""
    mats = []
    for M in X:
        n = M.shape[0]
        H = np.zeros((2 * n, 2 * n), dtype=complex)
        H[:n, n:] = M
        H[n:, :n] = M.conj().T
        mats.append(H)
    return HermTuple(mats)


def _tilde_tuple(X: GenTuple) -> GenTuple:
    """Zero-padded embeddings diag(X, 0) on C^(n+1)."""
    mats = []
    for M in X:
        n = M.shape[0]
        H = np.zeros((n + 1, n + 1), dtype=complex)
        H[:n, :n] = M
        mats.append(H)
    return GenTuple(mats) if not X.hermitian else HermTuple(mats)


# ---------------------------------------------------------------------------
# Choi-matrix machinery
# ---------------------------------------------------------------------------


def apply_choi(C: np.ndarray, X: np.ndarray, k: int, m: int) -> np.ndarray:
    """Evaluate the map encoded by Choi matrix C in M_k (x) M_m at X in M_k."""
    C = np.asarray(C, dtype=complex).reshape(k, m, k, m)
    X = np.asarray(X, dtype=complex)
    # phi(X) = partial trace over the first factor of (X^T (x) I) C;
    # with C[a, i, b, j] = phi(E_ab)[i, j] this is a single contraction.
    return np.einsum("ab,aibj->ij", X, C)


def _choi_family(X: GenTuple) -> np.ndarray:
    """The stack ``I``, ``X_i / sqrt 2``, ``X_i* / sqrt 2``: the weights
    count each prescribed value once in the linear residual."""
    w = 1.0 / np.sqrt(2.0)
    return np.stack([np.eye(X.n, dtype=complex)]
                    + [w * np.asarray(M) for M in X]
                    + [w * np.asarray(M).conj().T for M in X])


def choi_constraints(A: GenTuple, B: GenTuple) -> ConstraintMap:
    """The constraint map of the Choi matrices with ``phi(I) = I`` and
    ``phi(A_i) = B_i``: ``C -> (phi_C(f_r))_r`` over the source family
    ``f_r`` of :func:`_choi_family`, with the targets' family as ``b``.

    The ``q x q`` block, ``q = k m``, is a ``k x k`` grid of ``m x m`` slots
    ``C[a, :, b, :]``, with ``phi_C(f) = sum_ab f[a, b] C[a, :, b, :]`` and
    adjoint ``y -> sum_r conj(f_r) (x) y_r``.  A projection costs O(r q^2)
    time and O(q^2) memory, ``r <= 2d + 1`` the rank of the family.
    """
    sources = _choi_family(A)
    return ConstraintMap(sources.reshape(len(sources), -1), _choi_family(B),
                         grid=A.n)


def choi_affine_projector(A: GenTuple, B: GenTuple):
    """``(project, short_circuit)``: the ``project`` of
    :func:`choi_constraints`, which maps a one-block stack ``[C]`` to its
    nearest Hermitian point of the affine set, and ``None`` or the
    ``Infeasible`` result (iteration 0, Farkas certificate) of targets that
    break a linear dependency of the sources, so that no linear map takes
    them."""
    cmap = choi_constraints(A, B)
    return cmap.project, cmap.inconsistency(
        "no linear map takes the prescribed values")


def _run_choi(A: GenTuple, B: GenTuple, max_iter: int, tol_feas: float,
              ) -> FeasibilityResult:
    project, short = choi_affine_projector(A, B)
    if short is not None:
        return short
    problem = BlockPsdProblem(
        [A.n * B.n], project, max_iter=max_iter, tol_feas=tol_feas,
        verify_certificate=choi_constraints(A, B).verify)
    return reverified(dykstra_solve(problem),
                      lambda K: choi_constraint_residual(K[0], A, B))


def choi_constraint_residual(C: np.ndarray, A: GenTuple, B: GenTuple) -> float:
    """Raw violation of a candidate Choi witness, for re-verification."""
    k, m = A.n, B.n
    res = [apply_choi(C, np.eye(k), k, m) - np.eye(m)]
    for Ai, Bi in zip(A, B):
        res.append(apply_choi(C, np.asarray(Ai), k, m) - np.asarray(Bi))
    return float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))


def ucp_exists(A: GenTuple, B: GenTuple, max_iter: int = 20000,
               tol_feas: float = 1e-8) -> FeasibilityResult:
    """Does a UCP map send A_i -> B_i (and I -> I)?

    Feasible witnesses carry the Choi matrix as the single block.
    """
    prob = ChoiProblem(A, B, MapMode.UCP)
    return _run_choi(prob.reduced_source, prob.reduced_target,
                     max_iter, tol_feas)


def cc_exists(A: GenTuple, B: GenTuple, max_iter: int = 20000,
              tol_feas: float = 1e-8) -> FeasibilityResult:
    """Does a completely contractive map send A_i -> B_i?"""
    prob = ChoiProblem(A, B, MapMode.CC)
    return _run_choi(prob.reduced_source, prob.reduced_target,
                     max_iter, tol_feas)


def ccp_exists(A: GenTuple, B: GenTuple, max_iter: int = 20000,
               tol_feas: float = 1e-8) -> FeasibilityResult:
    """Does a completely contractive positive map send A_i -> B_i?"""
    prob = ChoiProblem(A, B, MapMode.CCP)
    return _run_choi(prob.reduced_source, prob.reduced_target,
                     max_iter, tol_feas)


# ---------------------------------------------------------------------------
# Commuting-tuple special case: pure LP on the joint spectra
# ---------------------------------------------------------------------------


def normal_ucp_exists(atoms_a, atoms_b, mode: MapMode = MapMode.UCP) -> bool:
    """Map existence between commuting normal tuples given their joint
    spectra as finite atom lists.

    UCP: every target atom lies in conv(source atoms).
    CCP: conv(source atoms plus the origin).
    CC: conv(source atoms and their negatives); atoms must be real.
    """
    A = np.atleast_2d(np.asarray(atoms_a))
    B = np.atleast_2d(np.asarray(atoms_b))
    if A.shape[1] != B.shape[1]:
        raise ValueError("atom dimension mismatch")
    if mode is MapMode.CCP:
        A = np.vstack([A, np.zeros((1, A.shape[1]))])
    elif mode is MapMode.CC:
        if np.iscomplexobj(A) and np.max(np.abs(A.imag)) > 0:
            raise ValueError("CC mode needs real (self-adjoint) atoms")
        if np.iscomplexobj(B) and np.max(np.abs(B.imag)) > 0:
            raise ValueError("CC mode needs real (self-adjoint) atoms")
        A = np.vstack([A.real, -A.real])
        B = B.real
    return all(point_in_hull(A, b) for b in B)


# ---------------------------------------------------------------------------
# Pencil-domain inclusion
# ---------------------------------------------------------------------------


def spectrahedron_inclusion(A: GenTuple, B: GenTuple, max_iter: int = 20000,
                            tol_feas: float = 1e-8, samples: int = 512,
                            seed: int = 0) -> FeasibilityResult:
    """Decide whether the positivity domain of the pencil of A is contained
    in that of B, via UCP existence A -> B.

    The equivalence needs the domain of A to be bounded, which holds exactly
    when 0 is interior to A's level-1 joint numerical range; that hypothesis
    is probed by the randomized interior test.  When the probe fails the
    query is returned Undecided rather than guessed.
    """
    if A.hermitian:
        probe = A
    else:
        # General pencils: probe the range of the 2d Hermitian parts instead.
        probe = re_im_split(A)
    ok, margin = zero_interior_range(probe, samples=samples, seed=seed)
    if not ok:
        return FeasibilityResult(
            Status.UNDECIDED, None, float(margin), 0,
            message=("interiority probe failed (margin "
                     f"{margin:.3e}); 0 in the level-1 range is necessary "
                     "for the UCP reduction"),
        )
    return ucp_exists(A, B, max_iter=max_iter, tol_feas=tol_feas)


# ---------------------------------------------------------------------------
# Cube-containment relaxation
# ---------------------------------------------------------------------------


class RelaxVerdict(Enum):
    CUBE_EXCLUDED = "CubeExcluded"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class RelaxCubeResult:
    verdict: RelaxVerdict
    wmin_result: FeasibilityResult
    cube_in_level1: bool
    violated_sign: Optional[np.ndarray]


def relax_cube(B: HermTuple, max_iter: int = 20000, tol_feas: float = 1e-8,
               ) -> RelaxCubeResult:
    """Relaxation that can rule the cube out of a pencil's level-1 domain.

    The largest matrix convex set over the l1 ball is itself a pencil domain,
    and its containment in B's domain is equivalent to B lying in the
    smallest matrix convex set over the cube -- a vertex-decomposition
    feasibility problem.  An Infeasible verdict there, which always carries
    a verified separating pencil, excludes the cube from the level-1 domain;
    Feasible or Undecided is Inconclusive (the relaxation only ever rules
    out).  The exact vertex test is reported alongside.
    """
    if B.d > 16:
        raise ValueError("relaxation capped at 16 variables")
    res = wmin_member(B, cube_polytope(B.d), max_iter=max_iter,
                      tol_feas=tol_feas)
    sign = first_violated_sign(B, tol=0.0)
    level1 = sign is None
    if res.status is Status.INFEASIBLE:
        verdict = RelaxVerdict.CUBE_EXCLUDED
    else:
        verdict = RelaxVerdict.INCONCLUSIVE
    return RelaxCubeResult(verdict=verdict, wmin_result=res,
                           cube_in_level1=level1, violated_sign=sign)
