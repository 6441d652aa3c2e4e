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

``Infeasible`` verdicts inherit the alternating-projection solver's heuristic
status and are printed by the CLI as "no map found (residual r)".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .sdp import (
    BlockPsdProblem,
    FeasibilityResult,
    Status,
    dykstra_solve,
    point_in_hull,
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
    """Columns ``vec I``, ``vec X_i / sqrt 2`` and ``vec X_i* / sqrt 2``.

    The weights make the consistency residual of the projector the distance
    of ``(I, B_i)`` from the values reachable by Hermitian-preserving maps,
    each prescribed value counted once.
    """
    w = 1.0 / np.sqrt(2.0)
    mats = ([np.eye(X.n, dtype=complex)] + [w * np.asarray(M) for M in X]
            + [w * np.asarray(M).conj().T for M in X])
    return np.stack(mats).reshape(len(mats), X.n * X.n).T


def choi_affine_projector(A: GenTuple, B: GenTuple, consistency_tol: float = 1e-9):
    """Orthogonal projector onto Hermitian Choi matrices of maps with
    ``phi(I) = I`` and ``phi(A_i) = B_i``.

    Returns ``(project, short_circuit)``.  ``project`` maps a one-block
    stack ``[C]`` with ``C`` of size ``q = k m`` to the one-block stack
    ``[P(C)]``, the nearest point (Frobenius metric) of the affine set among
    Hermitian matrices.
    ``short_circuit`` is ``None``, or an ``Infeasible`` FeasibilityResult
    with ``iterations`` 0 when the targets break a linear dependency of the
    sources, so that no Hermitian-preserving linear map takes the prescribed
    values at all.

    The source family ``{I, A_i, A_i*}`` is orthonormalized in the
    Hilbert-Schmidt inner product by one thin SVD, giving ``F_r`` and, through
    the same coefficients, targets ``G_r``.  With ``L_r(C) = phi_C(F_r)`` the
    constraint map satisfies ``L L* = id``, so ``P(C) = C - sum_r conj(F_r)
    (x) (L_r(C) - G_r)``.  The family is closed under adjoints, so ``P`` keeps
    Hermitian inputs Hermitian.  Each call costs O(r q^2) time and O(q^2)
    memory, with ``r <= 2d + 1`` the rank of the family.
    """
    k, m = A.n, B.n
    q = k * m
    sources, targets = _choi_family(A), _choi_family(B)
    U, s, Vh = np.linalg.svd(sources, full_matrices=False)
    r = int(np.sum(s > 1e-12 * s[0]))
    Vr = Vh[:r].conj().T                                  # (2d+1, r)
    TV = targets @ Vr
    F = U[:, :r].T.reshape(r, k, k)
    G = (TV / s[:r]).T.reshape(r, m, m)

    short_circuit = None
    resid = float(np.linalg.norm(targets - TV @ Vr.conj().T))
    values = np.stack(list(B))
    scale = max(1.0, float(np.max(np.abs(values.real))),
                float(np.max(np.abs(values.imag))))
    if resid > consistency_tol * scale:
        short_circuit = FeasibilityResult(
            Status.INFEASIBLE, None, resid, 0,
            message="no linear map takes the prescribed values",
        )

    def project(blocks) -> np.ndarray:
        C = np.asarray(blocks[0], dtype=complex)
        C = ((C + C.conj().T) / 2.0).reshape(k, m, k, m)
        D = np.einsum("rab,aibj->rij", F, C) - G
        out = (C - np.einsum("rab,rij->aibj", F.conj(), D)).reshape(q, q)
        return ((out + out.conj().T) / 2.0)[None]

    return project, short_circuit


def _run_choi(A: GenTuple, B: GenTuple, max_iter: int, tol_feas: float,
              ) -> FeasibilityResult:
    project, short = choi_affine_projector(A, B)
    if short is not None:
        return short
    q = A.n * B.n
    problem = BlockPsdProblem([q], project, max_iter=max_iter,
                              tol_feas=tol_feas)
    return dykstra_solve(problem)


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
    feasibility problem.  An Infeasible verdict there excludes the cube from
    the level-1 domain; Feasible or Undecided is Inconclusive (the relaxation
    only ever rules out).  The exact vertex test is reported alongside.
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
