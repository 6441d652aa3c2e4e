"""Extremal examples and sharpness certificates.

The anticommuting Hermitian family built here is the engine behind every
optimality claim in the package: d integer matrices of size 2^(d-1) with
``B_i B_j + B_j B_i = 2 delta_ij I`` exactly.  Signed combinations square to
``||v||^2 I``, so each ``sum v_i B_i`` is a unit-norm reflection for unit v,
while the tensor sum ``sum B_i (x) B_i`` reaches the eigenvalue d.  Those two
facts pin the scaling constants: d for cube-type inclusions and sqrt(d) for
the tensor-ball ones.

Every member of the family is a signed permutation, ``B[a, perm[a]] =
sign[a]`` with one +-1 entry per row and column, and every exact fact the
reports print about it is checked on that form in integer arithmetic.
Anticommutation compares the permutations and signs of the products
``B_i B_j``.  The tensor value d needs no eigensolve: each B_i is
orthogonal, so ``sum_i B_i B_i^T = d I`` and vec(I) is an eigenvector of
the tensor sum with eigenvalue d, while ``||sum_i B_i (x) B_i|| <= sum_i ||B_i||^2 = d``
bounds it from above; the members are symmetric, so the top eigenvalue and
the norm are both exactly d (:func:`tensor_certificate`).  For a unit
direction v, ``lambda_max(sum v_i B_i) = ||v||`` in closed form, backed by
the printed square residual and the traceless members.

The family is held in that form only: :func:`clifford_tuple` builds
``(perm, sign)`` directly, in O(d 2^(d-1)) memory, and the dense stack is
scattered from it on demand (:attr:`CliffordTuple.matrices`), for the
matrices that ``witness clifford`` prints at d <= 5 and for the
``HermTuple`` of a member family.

The clifford and sqrtd reports run up to ``CLIFFORD_D_CAP``.  Only the
sharpness report still refuses d > 8: it squares 32 sampled directions,
each a dense 2^(d-1) x 2^(d-1) matrix scattered from the form, and at
d = 12 that direction stack alone takes 1 GiB.

The switch tuple of the ball chain is checked in its arrow form, exactly
(:func:`ball_chain_witnesses`); no chain key rests on a sample.

Every report in this module is recomputed from the raw constructions at call
time; nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numkernel as nk
from . import sampling
from .sdp import Status
from .sets import (
    HermTuple,
    Pencil,
    Polytope,
    ball_member,
    cube_polytope,
    diamond_polytope,
    pencil_member,
    wmin_member,
)

CLIFFORD_D_CAP = 12
# Sampled unit directions v of the sharpness report's S_v <= I check.
SHARPNESS_DIRECTIONS = 32
# The sharpness report holds the (32, 2^(d-1), 2^(d-1)) direction stack and
# its squares: 4 MiB each at d = 8, 1 GiB each at d = 12.
SHARPNESS_D_CAP = 8
# The chain report builds the dense switch stack, d (d+1)^2 complex entries,
# for its arrow key; the square sum is read off the exact arrow form.
# `matconv witness chain` took 0.13 s at d = 128 with a peak RSS of 147 MB,
# nearly all of it the HermTuple construction of the stack (2-core Xeon,
# one BLAS thread); with the dense square sum it took 0.31 s, and 1.4 s and
# 418 MB at d = 192, 3.4 s and 948 MB at d = 256.
CHAIN_D_CAP = 128
# Grid points of the nonscalable report.  10^5 points took 0.22 s (49 MB
# peak RSS), or 1.4 s and 137 MB building and printing the 11 MB of
# `--rows`; 10^6 took 5.0 s and 385 MB with the rows built (2-core Xeon, one
# BLAS thread).
NONSCALABLE_GRID_CAP = 10 ** 5


class WitnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Anticommuting integer family
# ---------------------------------------------------------------------------

@dataclass
class CliffordTuple:
    """d anticommuting integer symmetric matrices of size 2^(d-1), held as
    the ``(d, size)`` signed-permutation form ``B_i[a, perm[i, a]] =
    sign[i, a]``.

    ``anticommutation_exact`` is the outcome of the exact check that
    ``clifford_tuple`` runs at build time, at every d.
    """

    d: int
    perm: np.ndarray       # (d, size) intp
    sign: np.ndarray       # (d, size) int64, each +-1
    anticommutation_exact: bool = True

    @property
    def size(self) -> int:
        return self.perm.shape[1]

    @property
    def matrices(self) -> np.ndarray:
        """The dense ``(d, size, size)`` int64 stack, scattered from
        ``(perm, sign)`` on every call."""
        out = np.zeros((self.d, self.size, self.size), dtype=np.int64)
        i, a = np.indices(self.perm.shape)
        out[i, a, self.perm] = self.sign
        return out

    def as_herm_tuple(self) -> HermTuple:
        return HermTuple(self.matrices)

    def lincomb(self, coeffs) -> np.ndarray:
        """``out[f] = sum_i coeffs[f, i] B_i`` for a finite float ``(F, d)``
        ``coeffs``, by a signed scatter: B_i holds ``sign[i, a]`` at ``(a,
        perm[i, a])``.  The terms go onto a zero start in index order, as in
        ``nk.lincomb``, so the stack is bit-identical to
        ``nk.lincomb(coeffs, self.matrices.astype(float))``."""
        rows = np.arange(self.size)
        out = np.zeros((len(coeffs), self.size, self.size))
        for c, p, s in zip(np.asarray(coeffs).T, self.perm, self.sign):
            out[:, rows, p] += c[:, None] * s
        return out

    def verify_anticommutation(self) -> bool:
        """Exact check of B_i B_j + B_j B_i = 2 delta_ij I on the
        signed-permutation form, in integer arithmetic and O(d^2 size).

        B_i B_j has permutation ``perm_j o perm_i`` and signs
        ``sign_i * (sign_j o perm_i)``.  So B_i^2 = I means ``perm_i o
        perm_i = id`` with all signs 1, and for i != j the two products
        anticommute exactly when their permutations are equal and their
        signs opposite.
        """
        p, s = self.perm, self.sign
        # [i, j, a]: permutation and sign of B_i B_j at row a.
        prod_perm = p[:, p].swapaxes(0, 1)
        prod_sign = s[:, None, :] * s[:, p].swapaxes(0, 1)
        squares_to_id = (np.take_along_axis(p, p, axis=1)
                         == np.arange(self.size)).all()
        equal_perms = (prod_perm == prod_perm.swapaxes(0, 1)).all()
        anti_signs = (prod_sign + prod_sign.swapaxes(0, 1)
                      == 2 * np.eye(self.d, dtype=np.int64)[:, :, None]).all()
        return bool(squares_to_id and equal_perms and anti_signs)


def clifford_tuple(d: int) -> CliffordTuple:
    """Recursive construction: start from [1]; append a variable by tensoring
    the old family against the swap and adjoining the sign matrix.

    Both steps are signed permutations in closed form, so only ``(perm,
    sign)`` is built.  Row ``(c, a)`` of the doubled space is ``c s + a``
    for the old size s: the swap tensor ``E1 (x) B_i`` sends it to ``(1 - c,
    perm_i[a])`` with sign ``sign_i[a]``, and ``E2 (x) I`` is the identity
    permutation with signs +1 on the first half and -1 on the second.
    Anticommutation is verified exactly at every d, so
    ``anticommutation_exact`` is always a checked result.
    """
    if not 1 <= d <= CLIFFORD_D_CAP:
        raise WitnessError(f"d must be between 1 and {CLIFFORD_D_CAP}")
    perm = np.zeros((1, 1), dtype=np.intp)
    sign = np.ones((1, 1), dtype=np.int64)
    for _ in range(d - 1):
        s = perm.shape[1]
        perm = np.vstack([np.hstack([perm + s, perm]), np.arange(2 * s)])
        sign = np.vstack([np.hstack([sign, sign]),
                          np.repeat(np.array([1, -1], dtype=np.int64), s)])
    out = CliffordTuple(d=d, perm=perm, sign=sign)
    out.anticommutation_exact = out.verify_anticommutation()
    if not out.anticommutation_exact:
        raise WitnessError("anticommutation check failed")  # pragma: no cover
    return out


# ---------------------------------------------------------------------------
# Exact tensor certificate
# ---------------------------------------------------------------------------


def tensor_certificate(B: CliffordTuple) -> dict:
    """Integer facts that make the top eigenvalue and the norm of
    ``sum_i B_i (x) B_i`` exactly d, the number of members, checked in
    int64 on the signed-permutation form, with no eigensolve.

    * ``members_signed_permutations``: every ``perm_i`` is a bijection and
      every sign is +-1, so each B_i is a signed permutation matrix,
      ``B_i B_i^T = I`` and ``||B_i|| = 1``.  Hence
      ``||sum_i B_i (x) B_i|| <= sum_i ||B_i||^2 = d``
      (``tensor_norm_bound``).
    * ``identity_eigenvalue``: ``sum_i B_i B_i^T`` is the sum of d
      identities, so the tensor sum maps vec(I) to
      ``vec(sum_i B_i I B_i^T) = d vec(I)``: vec(I) is an eigenvector with
      eigenvalue d and the norm is at least d.
    * ``members_symmetric``: ``perm_i`` is an involution with
      ``sign_i o perm_i = sign_i``, that is ``B_i = B_i^T``.  The tensor sum
      is then symmetric, and its top eigenvalue lies between the Rayleigh
      quotient d of vec(I) and the norm.

    The two bounds meet, so ``lambda_max = ||sum_i B_i (x) B_i|| = d``; the
    family is real, so ``||sum_i B_i (x) conj(B_i)|| = d`` as well.  Raises
    :class:`WitnessError` when a member is not a signed permutation matrix
    or not symmetric.
    """
    p, s, rows = B.perm, B.sign, np.arange(B.size)
    if not ((np.sort(p, axis=1) == rows).all() and (np.abs(s) == 1).all()):
        raise WitnessError("a member is not a signed permutation matrix")
    if not ((np.take_along_axis(p, p, axis=1) == rows).all()
            and (np.take_along_axis(s, p, axis=1) == s).all()):
        raise WitnessError("a member is not symmetric")
    d = len(s)
    return {
        "identity_eigenvalue": d,
        "members_signed_permutations": True,
        "members_symmetric": True,
        "tensor_norm_bound": d,
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def sharpness_check(d: int, seed: int = 0) -> dict:
    """Certificates that the constant d cannot be improved.

    (a) the top eigenvalue of ``sum B_i (x) B_i`` is exactly d, by the
        integer certificate of :func:`tensor_certificate`, whose fields the
        report carries;
    (b) for sampled unit directions v, ``S_v = sum v_i B_i <= I``, with
        ``lambda_max(S_v) = ||v||`` in closed form.  The exact
        anticommutation gives ``S_v^2 = ||v||^2 I``, and for d >= 2 every
        B_i is traceless (checked in integers), so ``tr S_v = 0`` and the
        eigenvalues are ``+-||v||`` in equal number.  (For d = 1, S_v is the
        1 x 1 matrix ``[v_1]``.)  The certificate for the computed
        combinations S is ``unit_direction_square_residual``,
        ``r = max |S^2 - I|`` entrywise: S is symmetric, so every
        eigenvalue l of S has ``|l^2 - 1| <= ||S^2 - I|| <= size * r``,
        hence ``lambda_max(S) <= sqrt(1 + size * r) <= 1 + size * r / 2``;
    (c) ``min eig (I - (1/C) sum B (x) B) = 1 - d/C`` flips sign at C = d.

    The direction stack and its squares hold ``SHARPNESS_DIRECTIONS *
    4^(d-1)`` entries each, which is what keeps d at most
    ``SHARPNESS_D_CAP`` here.
    """
    if d > SHARPNESS_D_CAP:
        raise WitnessError(f"the sharpness report is capped at "
                           f"d={SHARPNESS_D_CAP}")
    B = clifford_tuple(d)
    cert = tensor_certificate(B)
    lam_max = float(cert["identity_eigenvalue"])

    rng = sampling.rng_from(seed)
    dirs = sampling.sphere_points(d, SHARPNESS_DIRECTIONS, rng)
    S = B.lincomb(dirs)
    if d == 1:
        top = dirs[:, 0]
    elif np.where(B.perm == np.arange(B.size), B.sign, 0).sum(axis=1).any():
        raise WitnessError("a member is not traceless")  # pragma: no cover
    else:
        top = np.linalg.norm(dirs, axis=1)
    worst_norm = max(0.0, float(np.max(top)))
    worst_square = max(0.0, float(np.max(np.abs(S @ S - np.eye(B.size)))))

    grid = [d * (1.0 - 1e-6), float(d), d * (1.0 + 1e-6), d / 2.0, 2.0 * d]
    crossing = {}
    for C in grid:
        # Spectral mapping: min eig of I - M/C equals 1 - lam_max(M)/C.
        crossing[f"{C:.9f}"] = float(1.0 - lam_max / C)
    return {
        "d": d,
        "size": B.size,
        "anticommutation_exact": B.anticommutation_exact,
        **cert,
        "lambda_max": lam_max,
        "lambda_max_minus_d": lam_max - d,
        "unit_direction_max_eig": worst_norm,
        "unit_direction_square_residual": worst_square,
        "min_eig_at_C": crossing,
    }


def sqrt_d_check(d: int, tol: float = 1e-9) -> dict:
    """Optimality of sqrt(d) for the self-dual tensor ball.

    The family is real, so conjugating the right tensor factor changes
    nothing, and ``||sum B_i (x) conj(B_i)|| = d`` exactly by the integer
    certificate of :func:`tensor_certificate`, whose fields the report
    carries; B/sqrt(d) sits on the boundary of the tensor ball while any
    shorter scaling already escapes it.  Scaling B by t scales the tensor
    sum by t^2, so both memberships are read off the one norm.  The
    conjugation gap is read off the integer signs, so nothing dense is built
    and d runs to ``CLIFFORD_D_CAP``.
    """
    B = clifford_tuple(d)
    cert = tensor_certificate(B)
    conj_gap = float(np.max(np.abs(np.conj(B.sign) - B.sign)))
    norm = float(cert["tensor_norm_bound"])
    return {
        "d": d,
        **cert,
        "conjugation_gap": conj_gap,
        "tensor_norm": norm,
        "tensor_norm_over_d": norm / d,
        "boundary_member": bool(norm / d <= 1.0 + tol),
        "shrunk_member": bool(norm / (0.999 ** 2 * d) <= 1.0 + tol),
    }


NONSCALABLE_T = np.array([[1.0, 2.0], [0.0, 1.0]])


def _require_grid_size(count: int) -> None:
    if count < 1:
        raise WitnessError(f"the grid must hold at least 1 point, got {count}")
    if count > NONSCALABLE_GRID_CAP:
        raise WitnessError(f"the grid is capped at {NONSCALABLE_GRID_CAP} "
                           f"points, got {count}")


def nonscalable_grid(cmin: float, cmax: float, count: int) -> np.ndarray:
    """``count`` evenly spaced scalings from cmin to cmax, refused past
    ``NONSCALABLE_GRID_CAP`` points before the grid is built."""
    _require_grid_size(count)
    return np.linspace(cmin, cmax, count)


def nonscalable_check(c_grid: Sequence[float], rows: bool = True) -> dict:
    """No positive scaling of [[1,2],[0,1]] brings it within distance one of
    the identity: ``||c T - I||`` exceeds 1 on the whole grid, computed both
    as a singular value and as the largest root of
    ``t^2 - 2 c t - (1-c)^2 = 0``.  The per-point ``rows`` are built only
    when asked for."""
    grid = np.asarray(c_grid, dtype=float)
    _require_grid_size(grid.size)
    if np.any(grid <= 0):
        raise WitnessError("grid values must be positive")
    svs = nk.opnorms(grid[:, None, None] * NONSCALABLE_T - np.eye(2))
    # ``(1 - c) ** 2`` as a Python float's ``** 2``, the C library's pow,
    # which differs from numpy's array square in the last bit now and then;
    # the report prints these digits.
    with np.errstate(over="ignore"):
        roots = grid + np.sqrt(grid * grid + np.float_power(1.0 - grid, 2.0))
    if not np.all(np.isfinite(roots)):
        raise WitnessError("grid values too large: c^2 + (1 - c)^2 "
                           "overflows")
    r = {
        "grid_size": int(grid.size),
        "min_excess_over_one": float(np.min(svs - 1.0)),
        "max_formula_gap": float(np.max(np.abs(svs - roots))),
    }
    if rows:
        r["rows"] = [{"c": c, "svd_norm": sv, "root_norm": root}
                     for c, sv, root in zip(grid.tolist(), svs.tolist(),
                                            roots.tolist())]
    return r


def switch_tuple(d: int) -> HermTuple:
    """The d matrices ``e_0 e_i^T + e_i e_0^T`` on C^(d+1), swapping e_0
    with e_i and killing the rest; their pencil's positivity domain is
    exactly the quadratic ball, while their own squares sum to
    ``I + (d-1) e_0 e_0^T``."""
    S = np.zeros((d, d + 1, d + 1))
    i = np.arange(d)
    S[i, 0, i + 1] = S[i, i + 1, 0] = 1.0
    return HermTuple(S)


def ball_chain_witnesses(d: int, tol: float = 1e-9) -> dict:
    """Witnesses that the ball chain inclusions are proper.

    (a) A fixed 2x2 pair inside the quadratic ball fails the positivity
        domain of the d=2 anticommuting pencil, so it is outside the smallest
        matrix convex set over the ball.
    (b) The switch tuple B is outside the quadratic ball (its squares sum to
        ``I + (d-1) e_0 e_0^T``, checked exactly) yet inside the ball's polar
        dual.  ``switch_arrow_form_exact`` checks that every B_j is exactly
        ``e_0 e_j^T + e_j e_0^T``.  Then ``I - sum_j B_j (x) Y_j`` is an
        arrow matrix, with I on the diagonal and ``-Y_j`` in block row and
        column 0 only, and by the Schur complement of its identity corner
        it is PSD iff ``sum_j Y_j^2 <= I``.  So the pencil's positivity
        domain is exactly the ball, and B lies in the ball's polar dual.

    The square sum and the ball test are read off the exact arrow form;
    only the arrow key reads the dense switch stack, ``d (d+1)^2`` entries,
    hence ``CHAIN_D_CAP``.
    """
    if d < 2:
        raise WitnessError("chain witnesses need d >= 2")
    if d > CHAIN_D_CAP:
        raise WitnessError(f"the chain report is capped at d={CHAIN_D_CAP}")
    X = HermTuple([
        np.array([[0.5, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.75], [0.75, 0.0]]),
    ])
    in_ball = ball_member(X, tol=tol)
    E = clifford_tuple(2).as_herm_tuple()
    in_pencil = pencil_member(Pencil(E), X, tol=tol)

    # B_j is e_0 e_j^T + e_j e_0^T exactly when its 2d arrow entries are 1
    # and nothing else of the stack is nonzero.  Then sum_j B_j^2 is
    # diag(d, 1, ..., 1), and I minus it has the least eigenvalue 1 - d;
    # only a tuple off the arrow form needs its dense square sum.
    B = switch_tuple(d)
    M = B.matrices
    j = np.arange(d)
    arrow = bool(np.count_nonzero(M) == 2 * d and np.all(M[j, 0, j + 1] == 1)
                 and np.all(M[j, j + 1, 0] == 1))
    if arrow:
        square_exact, in_switch_ball = True, 1 - d >= -tol
    else:
        expect = np.eye(d + 1)
        expect[0, 0] = float(d)
        square_exact = np.array_equal(B.square_sum(), expect)
        in_switch_ball = ball_member(B, tol=tol)
    return {
        "d": d,
        "pair_in_ball": bool(in_ball),
        "pair_in_anticommuting_pencil_domain": bool(in_pencil),
        "pair_outside_min_set": bool(in_ball and not in_pencil),
        "switch_square_identity_exact": bool(square_exact),
        "switch_in_ball": bool(in_switch_ball),
        "switch_arrow_form_exact": arrow,
    }


# ---------------------------------------------------------------------------
# Scaling-constant bracketing harness
# ---------------------------------------------------------------------------

_HARNESS_SETS = ("cube", "diamond", "ball", "simplex")


def _simplex_polytope() -> Polytope:
    V = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return Polytope(3, vertices=V, facet_normals=-V, facet_offsets=np.ones(4))


def tau_rho_harness(set_name: str, samples: int = 10, d: int = 2,
                    seed: int = 0, max_iter: int = 20000,
                    tol_feas: float = 1e-8) -> dict:
    """Empirical bracket for the largest scale at which every member of a
    set dilates to a commuting normal tuple with spectrum in the set's
    level-1 slice.

    Lower side: the constructive guarantee at scale 1/d is probed by running
    the vertex-decomposition feasibility test on scaled random members (for
    the ball, a polytope inscribed in the ball is used as the spectral
    target, which only strengthens the claim).  Upper side: the anticommuting
    witness family caps the scale where applicable.  The report brackets; it
    never claims equality.
    """
    if set_name not in _HARNESS_SETS:
        raise WitnessError(f"set must be one of {_HARNESS_SETS}")
    if d > 6:
        raise WitnessError("harness capped at d=6")
    if samples < 1:
        raise WitnessError(f"samples must be at least 1, got {samples}")
    if set_name == "simplex" and d != 3:
        raise WitnessError("the simplex harness is three-dimensional")
    rng = sampling.rng_from(seed)
    scale = 1.0 / d
    feasible = 0
    extra: dict = {}

    def scaled_below_identity(rows):
        # Random tuples scaled so that every combination with coefficient
        # rows ``rows()`` (drawn after the tuple) stays below I.
        def sampler(n):
            H = np.stack([sampling.random_herm(n, rng) for _ in range(d)])
            worst = float(np.max(nk.max_eig(nk.lincomb(rows(), H),
                                            tol=np.inf)))
            return rng.uniform(0.2, 1.0) / max(worst, 1e-12) * H
        return sampler

    if set_name == "cube":
        target = cube_polytope(d)
        sampler = lambda n: sampling.random_herm_contraction_tuple(d, n, rng)
        lam = tensor_certificate(clifford_tuple(d))["identity_eigenvalue"]
        extra["witness_upper_bound"] = float(np.sqrt(d) / lam)  # = 1/sqrt(d)
    elif set_name == "diamond":
        target = diamond_polytope(d)
        sampler = lambda n: sampling.random_sign_sum_bounded_tuple(d, n, rng)
        extra["witness_upper_bound"] = 1.0
    elif set_name == "ball":
        target = diamond_polytope(d)  # inscribed spectral target
        sampler = scaled_below_identity(
            lambda: sampling.sphere_points(d, 400, rng))
        lam = tensor_certificate(clifford_tuple(d))["identity_eigenvalue"]
        extra["witness_upper_bound"] = float(1.0 / np.sqrt(lam))  # = 1/sqrt(d)
    else:
        target = _simplex_polytope()
        sampler = scaled_below_identity(lambda: -target.vertices)
        extra["witness_upper_bound"] = 1.0

    for _ in range(samples):
        n = int(rng.integers(1, 4))
        X = HermTuple(sampler(n)).scaled(scale)
        res = wmin_member(X, target, max_iter=max_iter, tol_feas=tol_feas)
        if res.status is Status.FEASIBLE:
            feasible += 1

    if set_name == "diamond":
        # Scale-1 route into the cube: the stronger polytope-specific bound.
        cube = cube_polytope(d)
        ok = 0
        for _ in range(samples):
            n = int(rng.integers(1, 4))
            X = HermTuple(sampling.random_sign_sum_bounded_tuple(d, n, rng))
            if wmin_member(X, cube, max_iter=max_iter,
                           tol_feas=tol_feas).status is Status.FEASIBLE:
                ok += 1
        extra["scale_one_into_cube_feasible"] = ok
        extra["scale_one_into_cube_samples"] = samples

    lower = scale if feasible == samples else 0.0
    return {
        "set": set_name,
        "d": d,
        "samples": samples,
        "scale_tested": scale,
        "feasible_at_scale": feasible,
        "bracket": [lower, extra.get("witness_upper_bound", 1.0)],
        **extra,
        "note": "empirical bracket only; no equality claim",
    }
