"""Tight frames: tightness checks, symmetry groups, vertex reflexivity and
projection invariance.

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
verified.  The search extends every partial assignment of one depth at
once, as one array, and is capped twice: at 24 vectors by default, and at
``SYMMETRY_ENTRY_CAP`` entries in the array of partial assignments, which
bounds its memory whatever the group order.  Validation compares every pair
of vectors, a chunk of rows at a time, and is capped at ``FRAME_PAIR_CAP``
pair coordinates.

Projection invariance never reads the group.  The projected vertices on the
ray of ``v_i`` fill at most the segment from ``m_i v_i`` to ``v_i``, where
``m_i`` is the least of the ``<v_i, v_j> / l^2``, so the test is one
hull-membership LP (:func:`sdp.hull_weights`) per distinct ``m_i v_i``: at
most N LPs for N vectors, where testing every projected vertex took up to
N^2.

Numerical caveat: the rank-1 fixed-space test compares eigenvalues of an
averaged orthogonal representation against ``1 - tol``; frames that are
nearly degenerate (almost-coincident vectors, near-reducible symmetry) can
be misclassified at extreme tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkernel as nk
from .sdp import hull_weights

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_CAP = 24
# Most pair coordinates, N (N - 1) / 2 * d for N vectors in R^d, that the
# coincidence test of ``check_tight`` compares; the dimensioned builders
# check it before they allocate.  `matconv frame check cube_corners --d 12`
# (1.0e8 coordinates, under the cap) took 0.63 s in the command, and the
# test alone took 2.65 s at d = 13 (4.4e8; 2-core Xeon, one BLAS thread).
FRAME_PAIR_CAP = 1 << 27
PAIR_CHUNK = 1 << 16  # coordinate differences held at once, or one row
# Most entries, rows times N, that one depth of the symmetry search may hold
# in its array of partial assignments.  `pm_basis --d 7` (6.5e5 symmetries
# of 14 vectors, 9.0e6 entries) passes; `pm_basis --d 8` (1.03e7
# symmetries of 16 vectors) is refused at its sixth depth.
SYMMETRY_ENTRY_CAP = 1 << 24


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
    (zero vectors, repeats, not spanning) and for more vectors than the
    pair cap admits.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    N, d = V.shape
    _require_pair_work(N, d, f"{N} vectors")
    norms = np.linalg.norm(V, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("frame contains a zero vector")
    if np.linalg.matrix_rank(V, tol=1e-10) < d:
        raise ValueError("frame does not span the ambient space")
    pair = _first_coincident_pair(V, 1e-9 * np.maximum(norms, 1.0))
    if pair is not None:
        raise ValueError(f"frame vectors {pair[0]} and {pair[1]} coincide")
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


def _require_pair_work(count: int, d: int, what: str) -> None:
    """Refuse ``count`` vectors in R^d whose coincidence test would compare
    more than ``FRAME_PAIR_CAP`` pair coordinates; ``what`` names them.
    A refusal is a ``ValueError``, like other input that is not a frame."""
    if count * (count - 1) // 2 * d > FRAME_PAIR_CAP:
        raise ValueError(
            f"refusing {what} in R^{d}: the coincidence test of N(N-1)/2 * d "
            f"pair coordinates is capped at {FRAME_PAIR_CAP}")


def _first_coincident_pair(V: np.ndarray, radius: np.ndarray,
                           ) -> Optional[tuple[int, int]]:
    """The first pair ``i < j`` (least i, then least j) with
    ``||v_i - v_j|| <= radius[i]``, or None.  A chunk of rows is compared
    with every later row at once, holding at most ``PAIR_CHUNK`` coordinate
    differences, or one row when a row alone holds more."""
    N, d = V.shape
    step = max(1, PAIR_CHUNK // max(N * d, 1))
    for lo in range(0, N - 1, step):
        i = np.arange(lo, min(lo + step, N - 1))
        dist = np.linalg.norm(V[i, None] - V[None, lo + 1:], axis=2)
        close = (dist <= radius[i, None]) & (np.arange(lo + 1, N) > i[:, None])
        r, c = np.nonzero(close)             # in row-major order
        if r.size:
            return int(i[r[0]]), lo + 1 + int(c[0])
    return None


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------


@dataclass
class SymmetryGroup:
    """Orthogonal matrices permuting the frame, with their index actions:
    row g of ``permutations`` (``(G, N)`` integers) is the action of
    ``matrices[g]`` (``(G, d, d)``), ``v_i -> v_{p[i]}``."""

    permutations: np.ndarray
    matrices: np.ndarray

    @property
    def order(self) -> int:
        return self.permutations.shape[0]

    def is_transitive(self) -> bool:
        """Does the orbit of vector 0, grown to a fixed point, cover all?"""
        reached = np.arange(self.permutations.shape[1]) == 0
        size = 0
        while np.count_nonzero(reached) > size:
            size = np.count_nonzero(reached)
            reached[self.permutations[:, reached]] = True
        return bool(reached.all())

    def verify_closure(self) -> bool:
        """Exact check that the rows form a group, grown from generators.

        R starts as the identity and the generator set T as empty.  While R
        misses a row t of S, t joins T: its right-multiplication map
        ``s -> s o t`` on S is looked up with one sort, and fails the check
        unless every product is a row of S.  R then grows breadth first
        under the maps of T.  At the end R = <T> = S, so S is a group;
        conversely a product outside S shows that S is not closed.  R is a
        subgroup after each round and strictly grows, so by Lagrange there
        are at most log2 P generators and the work is O(P log P N).
        Repeated rows count once.
        """
        N = self.permutations.shape[1]
        perms = self.permutations.astype(np.min_scalar_type(N))
        order, starts = _sorted_runs(perms)
        S = perms[order[starts]]                 # distinct rows, sorted
        reached = (S == np.arange(N)).all(axis=1)
        if not reached.any():
            return False
        maps = np.empty((0, len(S)), dtype=np.intp)
        while not reached.all():
            step = _row_indices(S[:, S[np.argmin(reached)]], S)
            if step is None:
                return False
            maps = np.vstack([maps, step])
            frontier = np.flatnonzero(reached)
            while frontier.size:
                images = np.sort(maps[:, frontier], axis=None)
                images = images[~reached[images]]
                frontier = images[np.diff(images, prepend=-1) != 0]
                reached[frontier] = True
        return True


def _sorted_runs(rows: np.ndarray, *tiebreak: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic order of ``rows`` (column 0 first, equal rows ordered
    by the ``tiebreak`` keys) and the mask, over the sorted rows, of the
    first row of each run of equal rows."""
    order = np.lexsort((*tiebreak, *rows.T[::-1]))
    rows = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return order, starts


def _row_indices(rows: np.ndarray, table: np.ndarray):
    """The index in ``table`` (distinct rows) of every row of ``rows``, or
    None when some row is not in ``table``.  Both are sorted together,
    lexicographically, with table rows first among equal rows, so each run
    of equal rows starts with its table row, if it has one."""
    both = np.concatenate([table, rows.astype(table.dtype)])
    from_rows = np.repeat([False, True], [len(table), len(rows)])
    order, starts = _sorted_runs(both, from_rows)
    if np.any(from_rows[order][starts]):
        return None
    index = np.empty(len(both), dtype=np.intp)
    index[order] = order[starts][np.cumsum(starts) - 1]
    return index[len(table):]


def _gram_permutations(G: np.ndarray, tol: float) -> np.ndarray:
    """All Gram-preserving index permutations, as ``(P, N)`` rows in
    lexicographic order.

    The search is level-synchronous: the frontier holds every partial
    assignment ``0..i-1 -> rows`` that preserves the Gram entries among its
    indices, as one ``(M, i)`` array in lexicographic order, and level i
    extends all of them at once: a row may send i to every j of the same
    norm that it has not used, with ``|G[rows[:, k], j] - G[k, i]| <= tol``
    for every k < i, one ``(M, N)`` gather per k.  The children of each row
    come out in increasing j, so the order is that of a depth-first
    backtracking search.  A level whose frontier would pass
    ``SYMMETRY_ENTRY_CAP`` entries (rows times N) raises
    :class:`FrameError` before it is built.
    """
    N = G.shape[0]
    diag = np.diagonal(G)
    rows = np.zeros((1, 0), dtype=np.intp)
    for i in range(N):
        mask = np.repeat((np.abs(diag - G[i, i]) <= tol)[None], len(rows), 0)
        np.put_along_axis(mask, rows, False, axis=1)
        for k in range(i):
            mask &= np.abs(G[rows[:, k]] - G[k, i]) <= tol
        count = np.count_nonzero(mask)
        if count * N > SYMMETRY_ENTRY_CAP:
            raise FrameError(
                f"symmetry search would hold {count} partial assignments of "
                f"{N} vectors after {i + 1} levels, above the "
                f"SYMMETRY_ENTRY_CAP of {SYMMETRY_ENTRY_CAP} entries")
        parent, j = np.nonzero(mask)         # in row-major order
        rows = np.concatenate([rows[parent], j[:, None]], axis=1)
    return rows


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

    Gram-preserving permutations are enumerated one depth at a time by
    :func:`_gram_permutations`; each is lifted to the unique linear map
    agreeing on a maximal independent subset and kept only if that map is
    orthogonal and permutes the whole frame to ``tol``.  Raises
    :class:`FrameError` for more than ``cap`` vectors, and when a depth of
    the search would pass ``SYMMETRY_ENTRY_CAP`` entries.
    """
    if frame.count > cap:
        raise FrameError(
            f"frame has {frame.count} vectors, above the search cap {cap}")
    V = frame.vectors
    scale = max(frame.norm ** 2, 1.0)
    perms = _gram_permutations(frame.gram(), tol * scale)
    basis = _independent_rows(V, frame.dim)
    Binv = np.linalg.inv(V[basis].T)
    # U_p maps the basis vectors onto their images: one (P, d, d) product.
    U = V[perms[:, basis]].swapaxes(1, 2) @ Binv
    Ut = U.swapaxes(1, 2)
    orthogonal = (np.linalg.norm(Ut @ U - np.eye(frame.dim), axis=(1, 2))
                  <= tol * frame.dim)
    permutes = (np.max(np.abs(V @ Ut - V[perms]), axis=(1, 2))
                <= tol * max(frame.norm, 1.0))
    keep = orthogonal & permutes
    return SymmetryGroup(permutations=perms[keep], matrices=U[keep])


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
        stab = group.permutations[:, i] == i
        P = group.matrices[stab].sum(axis=0) / np.count_nonzero(stab)
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
            "stabilizer_order": int(np.count_nonzero(stab)),
            "fixed_dim": fixed,
            "alignment": align,
            "vertex_reflexive": ok,
        })
        overall = overall and ok
    return overall, report


def projection_invariance(frame: Frame) -> bool:
    """Is conv(frame) invariant under every scaled projection
    ``(1/l^2) v_i v_i^T``?

    By linearity it is enough that every projected vertex ``c_ij v_i``, with
    ``c_ij = <v_i, v_j> / l^2``, stays in the hull.  On the ray of ``v_i``
    these points lie between ``m_i v_i``, ``m_i = min_j c_ij``, and
    ``c_ii v_i = v_i`` (equal norms), and the hull is convex, so one LP test
    per distinct ``m_i v_i`` decides them all."""
    V = frame.vectors
    M = (frame.gram() / frame.norm ** 2).min(axis=1)[:, None] * V
    order, starts = _sorted_runs(M)
    return all(hull_weights(V, w) is not None for w in M[order][starts])


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
    _require_pair_work(2 * d, d, f"{2 * d} vectors")
    V = np.vstack([np.eye(d), -np.eye(d)])
    return check_tight(V)


def cube_corners_frame(d: int) -> Frame:
    """All 2^d sign vectors of R^d."""
    # 2^64 corners pass any cap, and the count stays a small integer to
    # check however large d is.
    _require_pair_work(2 ** min(d, 64), d, f"2^{d} corners")
    return check_tight(nk.sign_rows(d, 0, 2 ** d))


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
    "simplex3": simplex3_frame,
    "pentagon": pentagon_frame,
    "pm_basis": pm_basis_frame,
    "cube_corners": cube_corners_frame,
    "s5_orbit": s5_orbit_frame,
}
_DIMENSIONED = ("pm_basis", "cube_corners")


def build_frame(name: str, d: Optional[int] = None) -> Frame:
    """Builders exposed by name: simplex3, pentagon, pm_basis, cube_corners,
    s5_orbit (the dimensioned ones need d)."""
    builder = FRAME_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown frame builder {name!r}")
    if name not in _DIMENSIONED:
        return builder()
    if d is None:
        raise ValueError(f"{name} needs a dimension")
    if d < 1:
        raise ValueError(f"{name} needs a dimension of at least 1, got {d}")
    return builder(d)
