"""Extremal examples and sharpness certificates.

The anticommuting Hermitian family built here is the engine behind every
optimality claim in the package: d integer matrices of size 2^(d-1) with
``B_i B_j + B_j B_i = 2 delta_ij I`` exactly.  Signed combinations square to
``||v||^2 I``, so each ``sum v_i B_i`` is a unit-norm reflection for unit v,
while the tensor sum ``sum B_i (x) B_i`` reaches the eigenvalue d.  Those two
facts pin the scaling constants: d for cube-type inclusions and sqrt(d) for
the tensor-ball ones, with explicit numerical witnesses rather than abstract
arguments.

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
    selfdual_member,
    wmin_member,
)

CLIFFORD_D_CAP = 12
_DENSE_TENSOR_CUTOFF = 1024  # dense eigensolve up to this tensor dimension


class WitnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Anticommuting integer family
# ---------------------------------------------------------------------------

_E1 = np.array([[0, 1], [1, 0]], dtype=np.int64)
_E2 = np.array([[1, 0], [0, -1]], dtype=np.int64)


@dataclass
class CliffordTuple:
    """d anticommuting integer symmetric matrices of size 2^(d-1)."""

    d: int
    matrices: tuple[np.ndarray, ...]   # int64, exact

    @property
    def size(self) -> int:
        return self.matrices[0].shape[0]

    def as_herm_tuple(self) -> HermTuple:
        return HermTuple([M.astype(complex) for M in self.matrices])

    def verify_anticommutation(self) -> bool:
        """Exact integer check of B_i B_j + B_j B_i = 2 delta_ij I."""
        n = self.size
        I2 = 2 * np.eye(n, dtype=np.int64)
        for i in range(self.d):
            for j in range(i, self.d):
                S = self.matrices[i] @ self.matrices[j] \
                    + self.matrices[j] @ self.matrices[i]
                want = I2 if i == j else np.zeros((n, n), dtype=np.int64)
                if not np.array_equal(S, want):
                    return False
        return True


def clifford_tuple(d: int) -> CliffordTuple:
    """Recursive construction: start from [1]; append a variable by tensoring
    the old family against the swap and adjoining the sign matrix.

    Anticommutation is verified exactly (integer arithmetic) up to size 256;
    beyond that the construction is still exact but the O(d^2 n^3) integer
    check is skipped at build time.
    """
    if not 1 <= d <= CLIFFORD_D_CAP:
        raise WitnessError(f"d must be between 1 and {CLIFFORD_D_CAP}")
    mats = [np.array([[1]], dtype=np.int64)]
    for _ in range(d - 1):
        size = mats[0].shape[0]
        new = [np.kron(_E1, M) for M in mats]
        new.append(np.kron(_E2, np.eye(size, dtype=np.int64)))
        mats = new
    out = CliffordTuple(d=d, matrices=tuple(mats))
    if out.size <= 256 and not out.verify_anticommutation():
        raise WitnessError("anticommutation check failed")  # pragma: no cover
    return out


# ---------------------------------------------------------------------------
# Tensor-operator eigenvalue helpers (avoid forming 4^(d-1) matrices)
# ---------------------------------------------------------------------------


def _tensor_sum_dense(mats: Sequence[np.ndarray], conj_right: bool) -> np.ndarray:
    # Stay in real arithmetic when possible: the eigensolve is much cheaper.
    real = all(np.isrealobj(M) or np.max(np.abs(M.imag)) == 0.0 for M in mats)
    out = None
    for M in mats:
        M = M.real if real else M
        R = np.conj(M) if conj_right else M
        term = np.kron(M, R)
        out = term if out is None else out + term
    return out


def _tensor_sum_extreme_eig(mats: Sequence[np.ndarray], conj_right: bool,
                            which: str, seed: int = 0) -> float:
    """Extreme eigenvalue of ``sum_i M_i (x) (conj) M_i`` without forming it
    when the tensor dimension is large: the operator acts on q x q matrices
    as ``V -> sum M_i V R_i^T``, so a matrix-free Lanczos run suffices.

    ``which`` is "max" (largest algebraic), "min", or "absmax".
    """
    q = mats[0].shape[0]
    dim = q * q
    mats = [np.asarray(M, dtype=complex) for M in mats]
    if dim <= _DENSE_TENSOR_CUTOFF:
        S = _tensor_sum_dense(mats, conj_right)
        w = np.linalg.eigvalsh((S + S.conj().T) / 2.0)
        if which == "max":
            return float(w[-1])
        if which == "min":
            return float(w[0])
        return float(max(abs(w[0]), abs(w[-1])))

    from scipy.sparse.linalg import LinearOperator, eigsh

    rights = [np.conj(M).T if conj_right else M.T for M in mats]

    def matvec(v):
        V = v.reshape(q, q)
        out = np.zeros_like(V)
        for M, R in zip(mats, rights):
            out += M @ V @ R
        return out.reshape(-1)

    op = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    rng = sampling.rng_from(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if which == "absmax":
        vals = eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)
        return float(abs(vals[0]))
    sigma_which = "LA" if which == "max" else "SA"
    vals = eigsh(op, k=1, which=sigma_which, v0=v0, return_eigenvectors=False)
    return float(vals[0])


def tensor_square_top_eig(B: CliffordTuple, seed: int = 0) -> float:
    """Largest eigenvalue of ``sum_i B_i (x) B_i``."""
    return _tensor_sum_extreme_eig(
        [M.astype(float) for M in B.matrices], conj_right=False,
        which="max", seed=seed)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def sharpness_check(d: int, num_dirs: int = 32, seed: int = 0) -> dict:
    """Certificates that the constant d cannot be improved.

    (a) the top eigenvalue of ``sum B_i (x) B_i`` equals d;
    (b) for sampled unit directions v, ``sum v_i B_i <= I`` holds with the
        exact identity ``(sum v_i B_i)^2 = ||v||^2 I``;
    (c) ``min eig (I - (1/C) sum B (x) B) = 1 - d/C`` flips sign at C = d.
    """
    if d > 8:
        raise WitnessError("tensor certificates capped at d=8")
    B = clifford_tuple(d)
    mats = [M.astype(float) for M in B.matrices]
    lam_max = _tensor_sum_extreme_eig(mats, conj_right=False, which="max",
                                      seed=seed)

    rng = sampling.rng_from(seed)
    dirs = sampling.sphere_points(d, num_dirs, rng)
    S = nk.lincomb(dirs, mats)
    worst_norm = max(0.0, float(np.max(nk.max_eig(S, tol=np.inf))))
    worst_square = max(0.0, float(np.max(np.abs(S @ S - np.eye(B.size)))))

    grid = [d * (1.0 - 1e-6), float(d), d * (1.0 + 1e-6), d / 2.0, 2.0 * d]
    crossing = {}
    for C in grid:
        # Spectral mapping: min eig of I - M/C equals 1 - lam_max(M)/C.
        crossing[f"{C:.9f}"] = float(1.0 - lam_max / C)
    return {
        "d": d,
        "size": B.size,
        "anticommutation_exact": B.size > 256 or B.verify_anticommutation(),
        "lambda_max": float(lam_max),
        "lambda_max_minus_d": float(lam_max - d),
        "unit_direction_max_eig": float(worst_norm),
        "unit_direction_square_residual": float(worst_square),
        "min_eig_at_C": crossing,
    }


def sqrt_d_check(d: int, tol: float = 1e-9, seed: int = 0) -> dict:
    """Optimality of sqrt(d) for the self-dual tensor ball.

    The family is real, so conjugating the right tensor factor changes
    nothing and ``||sum B_i (x) conj(B_i)|| = d`` exactly; B/sqrt(d) sits on
    the boundary of the tensor ball while any shorter scaling already
    escapes it.
    """
    if d > 8:
        raise WitnessError("tensor certificates capped at d=8")
    B = clifford_tuple(d)
    mats = [M.astype(float) for M in B.matrices]
    conj_gap = max(float(np.max(np.abs(np.conj(M) - M))) for M in mats)
    norm = _tensor_sum_extreme_eig(mats, conj_right=True, which="absmax",
                                   seed=seed)
    dense = B.size * B.size <= _DENSE_TENSOR_CUTOFF
    if dense:
        X = B.as_herm_tuple()
        boundary = selfdual_member(X.scaled(1.0 / np.sqrt(d)), tol=tol)
        shrunk = selfdual_member(X.scaled(1.0 / (0.999 * np.sqrt(d))), tol=tol)
    else:
        boundary = norm / d <= 1.0 + tol
        shrunk = norm / (0.999 ** 2 * d) <= 1.0 + tol
    return {
        "d": d,
        "conjugation_gap": conj_gap,
        "tensor_norm": float(norm),
        "tensor_norm_over_d": float(norm / d),
        "boundary_member": bool(boundary),
        "shrunk_member": bool(shrunk),
    }


NONSCALABLE_T = np.array([[1.0, 2.0], [0.0, 1.0]])


def nonscalable_check(c_grid: Sequence[float]) -> dict:
    """No positive scaling of [[1,2],[0,1]] brings it within distance one of
    the identity: ``||c T - I||`` exceeds 1 on the whole grid, computed both
    as a singular value and as the largest root of
    ``t^2 - 2 c t - (1-c)^2 = 0``."""
    rows = []
    worst_margin = np.inf
    worst_gap = 0.0
    for c in c_grid:
        c = float(c)
        if c <= 0:
            raise WitnessError("grid values must be positive")
        sv = nk.opnorm(c * NONSCALABLE_T - np.eye(2))
        root = c + np.sqrt(c * c + (1.0 - c) ** 2)
        rows.append({"c": c, "svd_norm": float(sv), "root_norm": float(root)})
        worst_margin = min(worst_margin, sv - 1.0)
        worst_gap = max(worst_gap, abs(sv - root))
    return {
        "grid_size": len(rows),
        "min_excess_over_one": float(worst_margin),
        "max_formula_gap": float(worst_gap),
        "rows": rows,
    }


def switch_tuple(d: int) -> HermTuple:
    """The d matrices on C^(d+1) swapping e_1 with e_(i+1) and killing the
    rest; their pencil's positivity domain is exactly the quadratic ball,
    while their own squares sum to ``I + (d-1) e_1 e_1^T``."""
    mats = []
    for i in range(d):
        M = np.zeros((d + 1, d + 1))
        M[0, i + 1] = M[i + 1, 0] = 1.0
        mats.append(M)
    return HermTuple(mats)


def ball_chain_witnesses(d: int, samples: int = 25, seed: int = 0,
                         tol: float = 1e-9) -> dict:
    """Witnesses that the ball chain inclusions are proper.

    (a) A fixed 2x2 pair inside the quadratic ball fails the positivity
        domain of the d=2 anticommuting pencil, so it is outside the smallest
        matrix convex set over the ball.
    (b) The switch tuple is outside the quadratic ball (its squares sum to
        ``I + (d-1) e_1 e_1^T``) yet inside the ball's polar dual, checked on
        sampled ball members; and its pencil's domain agrees with the ball
        oracle on samples.
    """
    if d < 2:
        raise WitnessError("chain witnesses need d >= 2")
    rng = sampling.rng_from(seed)

    X = HermTuple([
        np.array([[0.5, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.75], [0.75, 0.0]]),
    ])
    in_ball = ball_member(X, tol=tol)
    E = clifford_tuple(2).as_herm_tuple()
    in_pencil = pencil_member(Pencil(E), X, tol=tol)

    B = switch_tuple(d)
    Bsq = sum(np.asarray(M) @ np.asarray(M) for M in B)
    expect = np.eye(d + 1)
    expect[0, 0] = float(d)
    square_exact = bool(np.array_equal(Bsq.real, expect) and
                        np.max(np.abs(Bsq.imag)) == 0.0)
    b_in_ball = ball_member(B, tol=tol)

    dual_ok = True
    pencil_agrees = True
    LB = Pencil(B)
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        Y = HermTuple(sampling.random_ball_member(d, n, rng))
        S = sum(np.kron(np.asarray(Yj), np.asarray(Bj)) for Yj, Bj in zip(Y, B))
        if nk.min_eig(np.eye(S.shape[0]) - S, tol=np.inf) < -tol:
            dual_ok = False
        if pencil_member(LB, Y, tol=1e-7) != ball_member(Y, tol=1e-7):
            pencil_agrees = False
        Z = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
        if pencil_member(LB, Z, tol=1e-7) != ball_member(Z, tol=1e-7):
            pencil_agrees = False

    return {
        "d": d,
        "pair_in_ball": bool(in_ball),
        "pair_in_anticommuting_pencil_domain": bool(in_pencil),
        "pair_outside_min_set": bool(in_ball and not in_pencil),
        "switch_square_identity_exact": square_exact,
        "switch_in_ball": bool(b_in_ball),
        "switch_in_ball_dual_on_samples": bool(dual_ok),
        "switch_pencil_matches_ball_oracle": bool(pencil_agrees),
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
    if set_name == "simplex" and d != 3:
        raise WitnessError("the simplex harness is three-dimensional")
    rng = sampling.rng_from(seed)
    scale = 1.0 / d
    feasible = 0
    extra: dict = {}

    if set_name == "cube":
        target = cube_polytope(d)
        sampler = lambda n: sampling.random_herm_contraction_tuple(d, n, rng)
        lam = tensor_square_top_eig(clifford_tuple(d))
        extra["witness_upper_bound"] = float(np.sqrt(d) / lam)  # = 1/sqrt(d)
    elif set_name == "diamond":
        target = diamond_polytope(d)
        sampler = lambda n: sampling.random_sign_sum_bounded_tuple(d, n, rng)
        extra["witness_upper_bound"] = 1.0
    elif set_name == "ball":
        target = diamond_polytope(d)  # inscribed spectral target
        def sampler(n):
            H = [sampling.random_herm(n, rng) for _ in range(d)]
            dirs = sampling.sphere_points(d, 400, rng)
            worst = float(np.max(nk.max_eig(nk.lincomb(dirs, H), tol=np.inf)))
            t = rng.uniform(0.2, 1.0) / max(worst, 1e-12)
            return [t * M for M in H]
        lam = tensor_square_top_eig(clifford_tuple(d))
        extra["witness_upper_bound"] = float(1.0 / np.sqrt(lam))  # = 1/sqrt(d)
    else:
        target = _simplex_polytope()
        def sampler(n):
            H = [sampling.random_herm(n, rng) for _ in range(3)]
            worst = float(np.max(
                nk.max_eig(-nk.lincomb(target.vertices, H), tol=np.inf)))
            t = rng.uniform(0.2, 1.0) / max(worst, 1e-12)
            return [t * M for M in H]
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
