"""Tight frames: tightness checks, symmetry groups, vertex reflexivity,
projection invariance, and the dilation pipeline they feed.

A finite set of equal-norm vectors ``v_1..v_N`` in R^d is an isometric tight
frame when ``sum v_i v_i^T = sigma I``; the constant is then forced to be
``sigma = l^2 N / d``.  Its symmetry group is the finite group of orthogonal
matrices permuting the frame.  The frame is vertex reflexive when the
stabilizer of each vector fixes exactly the line through that vector; this
in turn forces the convex hull of the frame to be invariant under the scaled
projections ``(1/l^2) v_i v_i^T``, which is the hypothesis the rank-one
dilation machinery needs.

Symmetry search is over Gram-preserving index permutations, which is sound
and complete for spanning frames: any such permutation extends to a unique
orthogonal map, reconstructed here on a maximal independent subset and then
verified.  The search is capped (default 24 vectors) to keep the worst-case
backtracking tractable.

Numerical caveat: the rank-1 fixed-space test compares eigenvalues of an
averaged orthogonal representation against ``1 - tol``; frames that are
nearly degenerate (almost-coincident vectors, near-reducible symmetry) can
be misclassified at extreme tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dilation import Dilation, LambdaFamily, joint_spectrum_rank_one, lambda_dilation
from .sdp import point_in_hull
from .sets import HermTuple, MissingRepresentationError, Polytope, wmax_member

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_CAP = 24


class FrameError(Exception):
    pass


class NotEqualNormError(FrameError):
    pass


class NotTightError(FrameError):
    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


@dataclass
class Frame:
    """Validated isometric tight frame."""

    vectors: np.ndarray   # (N, d)
    norm: float           # common vector length l
    sigma: float          # frame constant

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T

    def barycenter(self) -> np.ndarray:
        return self.vectors.mean(axis=0)


def check_tight(vectors, tol: float = 1e-9) -> Frame:
    """Validate an isometric tight frame and return it with its constant.

    Raises :class:`NotEqualNormError` when lengths differ beyond ``tol``,
    :class:`NotTightError` (with the deviation) when the frame operator is
    not a multiple of the identity, and ``ValueError`` for degenerate input
    (zero vectors, repeats, not spanning).
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    N, d = V.shape
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("frame contains a zero vector")
    if np.linalg.matrix_rank(V, tol=1e-10) < d:
        raise ValueError("frame does not span the ambient space")
    for i in range(N):
        for j in range(i + 1, N):
            if np.linalg.norm(V[i] - V[j]) <= 1e-9 * max(norms[i], 1.0):
                raise ValueError(f"frame vectors {i} and {j} coincide")
    ell = float(norms.mean())
    if np.max(np.abs(norms - ell)) > tol * max(ell, 1.0):
        raise NotEqualNormError(
            f"vector lengths spread by {np.max(np.abs(norms - ell)):.3e}")
    S = V.T @ V
    sigma = float(np.trace(S)) / d
    dev = float(np.linalg.norm(S - sigma * np.eye(d)))
    if dev > tol * max(sigma, 1.0):
        raise NotTightError(
            f"frame operator deviates from sigma*I by {dev:.3e}", dev)
    expected = ell * ell * N / d
    if abs(sigma - expected) > tol * max(sigma, 1.0):
        raise NotTightError(
            f"frame constant {sigma:.12g} != l^2 N / d = {expected:.12g}",
            abs(sigma - expected))
    return Frame(vectors=V.copy(), norm=ell, sigma=sigma)


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


@dataclass
class SymmetryGroup:
    """Orthogonal matrices permuting the frame, with their index actions."""

    permutations: list[tuple[int, ...]]
    matrices: list[np.ndarray]

    @property
    def order(self) -> int:
        return len(self.permutations)

    def stabilizer(self, i: int) -> list[int]:
        """Indices into the group of the elements fixing vector i."""
        return [g for g, p in enumerate(self.permutations) if p[i] == i]

    def is_transitive(self) -> bool:
        N = len(self.permutations[0])
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for p in self.permutations:
                if p[x] not in orbit:
                    orbit.add(p[x])
                    frontier.append(p[x])
        return len(orbit) == N

    def orbit(self, i: int) -> set[int]:
        return {p[i] for p in self.permutations}

    def verify_closure(self) -> bool:
        """Exact closure and inverse check on the index permutations."""
        perms = set(self.permutations)
        for p in self.permutations:
            inv = tuple(int(np.argsort(p)[i]) for i in range(len(p)))
            if inv not in perms:
                return False
            for q in self.permutations:
                if tuple(q[p[i]] for i in range(len(p))) not in perms:
                    return False
        return True


def _gram_permutations(G: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """All index permutations preserving the Gram matrix, by backtracking
    with partial-Gram pruning."""
    N = G.shape[0]
    out: list[tuple[int, ...]] = []
    assigned = [-1] * N
    used = [False] * N

    def extend(i: int):
        if i == N:
            out.append(tuple(assigned))
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
    return out


def _independent_rows(V: np.ndarray, d: int) -> list[int]:
    """Greedy maximal linearly independent subset of the rows."""
    idx: list[int] = []
    for i in range(V.shape[0]):
        trial = idx + [i]
        if np.linalg.matrix_rank(V[trial], tol=1e-10) == len(trial):
            idx.append(i)
            if len(idx) == d:
                break
    if len(idx) < d:
        raise ValueError("frame does not span the ambient space")
    return idx


def symmetry_group(frame: Frame, cap: int = DEFAULT_CAP,
                   tol: float = DEFAULT_GROUP_TOL) -> SymmetryGroup:
    """Enumerate the orthogonal symmetries permuting the frame.

    Gram-preserving permutations are enumerated by backtracking; each is
    lifted to the unique linear map agreeing on a maximal independent subset
    and kept only if that map is orthogonal and permutes the whole frame to
    ``tol``.
    """
    if frame.count > cap:
        raise FrameError(
            f"frame has {frame.count} vectors, above the search cap {cap}")
    V = frame.vectors
    scale = max(frame.norm ** 2, 1.0)
    perms = _gram_permutations(frame.gram(), tol * scale)
    basis = _independent_rows(V, frame.dim)
    Binv = np.linalg.inv(V[basis].T)
    kept_perms: list[tuple[int, ...]] = []
    kept_mats: list[np.ndarray] = []
    for p in perms:
        W = V[[p[i] for i in basis]].T
        U = W @ Binv
        if np.linalg.norm(U.T @ U - np.eye(frame.dim)) > tol * frame.dim:
            continue
        if np.max(np.abs(V @ U.T - V[list(p)])) > tol * max(frame.norm, 1.0):
            continue
        kept_perms.append(p)
        kept_mats.append(U)
    return SymmetryGroup(permutations=kept_perms, matrices=kept_mats)


# ---------------------------------------------------------------------------
# Vertex reflexivity and projection invariance
# ---------------------------------------------------------------------------


def is_vertex_reflexive(frame: Frame, group: SymmetryGroup,
                        tol: float = DEFAULT_GROUP_TOL,
                        ) -> tuple[bool, list[dict]]:
    """Does the stabilizer of each vector fix exactly its own line?

    The averaged stabilizer representation is an orthogonal projection onto
    the fixed subspace; the test requires its rank (eigenvalues above
    ``1 - tol``) to be one, with eigenvector parallel to the frame vector.
    Returns the overall verdict and a per-vector report.
    """
    V = frame.vectors
    report = []
    overall = True
    for i in range(frame.count):
        stab = group.stabilizer(i)
        P = sum(group.matrices[g] for g in stab) / len(stab)
        P = (P + P.T) / 2.0
        w, Q = np.linalg.eigh(P)
        fixed = int(np.sum(w >= 1.0 - tol))
        ok = fixed == 1
        align = float("nan")
        if ok:
            vec = Q[:, -1]
            vhat = V[i] / np.linalg.norm(V[i])
            align = abs(float(vec @ vhat))
            ok = align >= 1.0 - tol
        report.append({
            "index": i,
            "stabilizer_order": len(stab),
            "fixed_dim": fixed,
            "alignment": align,
            "vertex_reflexive": ok,
        })
        overall = overall and ok
    return overall, report


def projection_invariance(frame: Frame, tol: float = 1e-9) -> bool:
    """Is conv(frame) invariant under every scaled projection
    ``(1/l^2) v_i v_i^T``?  By linearity it is enough that every projected
    vertex ``(1/l^2) <v_j, v_i> v_i`` stays in the hull (LP test)."""
    V = frame.vectors
    l2 = frame.norm ** 2
    G = frame.gram()
    for i in range(frame.count):
        for j in range(frame.count):
            w = (G[j, i] / l2) * V[i]
            if not point_in_hull(V, w, pivot_tol=tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Dilation pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineReport:
    dilation: Dilation
    family: LambdaFamily
    scale: float                      # spectrum was checked for T / scale
    spectrum_ok: bool
    worst_point: Optional[np.ndarray]
    residuals: dict
    hypothesis: str


def vertex_reflexive_pipeline(frame: Frame, X: HermTuple,
                              facets: Optional[Polytope] = None,
                              group: Optional[SymmetryGroup] = None,
                              tol: float = 1e-8) -> PipelineReport:
    """Full scaled-dilation pipeline for K = conv(frame).

    Hypotheses checked, in order: the frame is vertex reflexive (if a group
    is supplied or computable under the cap) or at least projection
    invariant; and X satisfies K's facet inequalities (the caller must supply
    facets, there is no hull computation here).  The rank-one family
    ``(d/l^2) v_m v_m^T`` then yields a commuting dilation T with
    ``V* T V = X``, and the joint spectrum of ``T/d`` is verified to lie in
    K by the convex-hull LP, point by point.
    """
    d = frame.dim
    if X.d != d:
        raise FrameError("tuple length does not match frame dimension")
    hypothesis = ""
    try:
        g = group if group is not None else symmetry_group(frame)
        reflexive, _ = is_vertex_reflexive(frame, g)
    except FrameError:
        reflexive = False
    if reflexive:
        hypothesis = "vertex reflexive"
    elif projection_invariance(frame):
        hypothesis = "projection invariant"
    else:
        raise FrameError(
            "frame is neither vertex reflexive nor projection invariant")
    if facets is None:
        raise MissingRepresentationError(
            "supply K = conv(frame) facets; no hull computation is done here")
    if not facets.has_facets:
        raise MissingRepresentationError("facet polytope has no facets")
    if not wmax_member(X, facets, tol=tol):
        raise FrameError("tuple violates a facet inequality of K")

    l2 = frame.norm ** 2
    lams = np.stack([(d / l2) * np.outer(v, v) for v in frame.vectors])
    fam = LambdaFamily(lams, np.full(frame.count, 1.0 / frame.count))
    dil = lambda_dilation(X, fam)
    spec = joint_spectrum_rank_one(fam, X)
    ok = True
    worst = None
    for pt in spec.points:
        if not point_in_hull(frame.vectors, np.real(pt) / d):
            ok = False
            worst = np.real(pt) / d
            break
    return PipelineReport(
        dilation=dil,
        family=fam,
        scale=float(d),
        spectrum_ok=ok,
        worst_point=worst,
        residuals=dict(dil.residuals),
        hypothesis=hypothesis,
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _helmert_complement(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane orthogonal to the
    all-ones vector in R^n."""
    H = np.zeros((n, n - 1))
    for k in range(1, n):
        H[:k, k - 1] = 1.0
        H[k, k - 1] = -k
        H[:, k - 1] /= np.sqrt(k * (k + 1))
    return H


def simplex3_frame() -> Frame:
    """Four alternating-sign corners of the 3-cube; a regular tetrahedron."""
    V = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return check_tight(V)


def pentagon_frame() -> Frame:
    """Fifth roots of unity in the plane."""
    k = np.arange(5)
    V = np.column_stack([np.cos(2 * np.pi * k / 5), np.sin(2 * np.pi * k / 5)])
    return check_tight(V)


def pm_basis_frame(d: int) -> Frame:
    """Plus/minus the standard basis of R^d (2d vectors)."""
    V = np.vstack([np.eye(d), -np.eye(d)])
    return check_tight(V)


def cube_corners_frame(d: int) -> Frame:
    """All 2^d sign vectors of R^d."""
    if d > 16:
        raise FrameError("refusing 2^d corners beyond d=16")
    V = np.array(list(np.ndindex(*(2,) * d)), dtype=float) * 2 - 1
    return check_tight(V)


def s5_orbit_frame() -> Frame:
    """Orbit of (3,3,-2,-2,-2) under coordinate permutations, normalized and
    carried into R^4 along an orthonormal basis of the sum-zero hyperplane;
    10 distinct unit vectors, none the negative of another."""
    base = np.array([3.0, 3.0, -2.0, -2.0, -2.0])
    rows = []
    for i in range(5):
        for j in range(i + 1, 5):
            v = np.full(5, -2.0)
            v[i] = v[j] = 3.0
            rows.append(v)
    V5 = np.array(rows) / np.linalg.norm(base)
    H = _helmert_complement(5)
    return check_tight(V5 @ H)


FRAME_BUILDERS = {
    "simplex3": lambda: simplex3_frame(),
    "pentagon": lambda: pentagon_frame(),
    "pm_basis": None,      # needs d; see build_frame
    "cube_corners": None,  # needs d; see build_frame
    "s5_orbit": lambda: s5_orbit_frame(),
}


def build_frame(name: str, d: Optional[int] = None) -> Frame:
    """Builders exposed by name: simplex3, pentagon, pm_basis, cube_corners,
    s5_orbit (the dimensioned ones need d)."""
    if name == "pm_basis":
        if d is None:
            raise ValueError("pm_basis needs a dimension")
        return pm_basis_frame(d)
    if name == "cube_corners":
        if d is None:
            raise ValueError("cube_corners needs a dimension")
        return cube_corners_frame(d)
    builder = FRAME_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown frame builder {name!r}")
    return builder()
