"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (pytest shows captured output for failures either way).  Tolerances
are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from conftest import (
    choi_constraint_residual,
    combine_frames,
    convex_weights_hold,
    povm_constraint_residual,
    random_ball_member,
    random_isometry,
    simultaneous_diagonalize,
)
from matconv import numkernel as nk
from matconv import sampling
from matconv.dilation import (
    cube_to_diamond_dilation,
    diamond_dilation,
    flip_dilation,
    frame_dilation,
)
from matconv.frames import (
    is_vertex_reflexive,
    pentagon_frame,
    s5_orbit_frame,
    simplex3_frame,
    symmetry_group,
)
from matconv.sdp import WITNESS_TOL, Status, hull_weights
from matconv.sets import (
    HermTuple,
    ball_member,
    cube_polytope,
    diamond_polytope,
    selfdual_member,
    wmin_member,
)
from matconv.ucp import MapMode, ccp_exists, normal_ucp_exists, ucp_exists
from matconv.witnesses import clifford_tuple, nonscalable_check, \
    sharpness_check, sqrt_d_check


def _verdict(num: int, ok: bool, detail: str):
    print(f"AC{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_ac01_flip_dilation_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"commutator": 0.0, "compression": 0.0, "norm_excess": 0.0}
    count = 0
    dims_ok = True
    while count < 200:
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
        D = flip_dilation(X)
        dims_ok = dims_ok and D.dim == n * 2 ** (d - 1)
        worst["commutator"] = max(worst["commutator"],
                                  D.residuals["commutator"])
        worst["compression"] = max(worst["compression"],
                                   D.residuals["compression"])
        worst["norm_excess"] = max(
            worst["norm_excess"], D.residuals["max_norm"] - d * (1 + 1e-10))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = (dims_ok and worst["commutator"] <= 1e-9
          and worst["compression"] <= 1e-9
          and worst["norm_excess"] <= 0.0
          and elapsed < 30.0)
    _verdict(1, ok,
             f"200 flip dilations: worst commutator {worst['commutator']:.2e}, "
             f"worst compression {worst['compression']:.2e}, dims exact: "
             f"{dims_ok}, {elapsed:.1f}s")


def test_ac02_clifford_certificates():
    ok = True
    details = []
    for d in range(1, 9):
        B = clifford_tuple(d)
        exact = B.verify_anticommutation()
        r = sharpness_check(d)
        lam_ok = abs(r["lambda_max"] - d) <= 1e-9
        below = r["min_eig_at_C"][f"{d * (1 - 1e-6):.9f}"]
        above = r["min_eig_at_C"][f"{d * (1 + 1e-6):.9f}"]
        flip_ok = below < 0 < above
        ok = ok and exact and lam_ok and flip_ok
        details.append(f"d={d}: exact={exact}, |lam-d|={abs(r['lambda_max'] - d):.1e}")
    _verdict(2, ok, "; ".join(details[-3:]))


def test_ac03_sqrt_d_optimality():
    ok = True
    vals = []
    for d in (2, 3, 4):
        r = sqrt_d_check(d)
        this = (abs(r["tensor_norm_over_d"] - 1.0) <= 1e-9
                and r["boundary_member"] and not r["shrunk_member"])
        ok = ok and this
        vals.append(f"d={d}: norm/d-1={r['tensor_norm_over_d'] - 1:.1e}")
    _verdict(3, ok, "boundary scalings sit on the tensor ball edge; "
             + ", ".join(vals))


def test_ac04_ball_inside_tensor_ball():
    rng = np.random.default_rng(104)
    bad = 0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        X = HermTuple(random_ball_member(d, n, rng))
        if not selfdual_member(X, tol=1e-10):
            bad += 1
    _verdict(4, bad == 0,
             f"200 quadratic-ball members all inside the tensor ball "
             f"(violations: {bad})")


def test_ac05_wmin_soundness():
    rng = np.random.default_rng(105)
    worst_res = 0.0
    worst_iters = 0
    all_ok = True
    for trial in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        P = cube_polytope(d)
        verts = P.vertices
        picks = np.repeat(np.arange(verts.shape[0]), n)
        extra = rng.integers(0, verts.shape[0], size=int(rng.integers(0, 4)))
        picks = np.concatenate([picks, extra])
        N = [np.diag(verts[picks, i].astype(complex)) for i in range(d)]
        V = random_isometry(picks.size, n, rng)
        X = HermTuple([V.conj().T @ Ni @ V for Ni in N])
        res = wmin_member(X, P, max_iter=20000, tol_feas=1e-8)
        if res.status is not Status.FEASIBLE or res.iterations > 20000:
            all_ok = False
            continue
        recheck = povm_constraint_residual(verts, list(X), res.witness)
        neg = -min(np.linalg.eigvalsh((K + K.conj().T) / 2)[0]
                   for K in res.witness)
        worst_res = max(worst_res, recheck, neg)
        worst_iters = max(worst_iters, res.iterations)
        if recheck > 1e-7 or neg > 1e-7:
            all_ok = False
    pauli = HermTuple([np.array([[0.0, 1.0], [1.0, 0.0]]),
                       np.array([[1.0, 0.0], [0.0, -1.0]])])
    rej = wmin_member(pauli, diamond_polytope(2))
    M = sum(np.kron(np.asarray(Mj), np.conj(np.asarray(Mj))) for Mj in pauli)
    oracle = nk.opnorm(M)
    neg_ok = rej.status is Status.INFEASIBLE and abs(oracle - 2.0) <= 1e-12
    _verdict(5, all_ok and neg_ok,
             f"50 cube-vertex compressions feasible (worst witness residual "
             f"{worst_res:.2e}, worst iterations {worst_iters}); exchange "
             f"pair vs l1 ball: {rej.status.value} with tensor norm "
             f"{oracle:.6f} > 1")


def test_ac06_diamond_to_cube_dilations():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        X = HermTuple(sampling.random_sign_sum_bounded_tuple(d, n, rng))
        D = diamond_dilation(X)
        ok = ok and D.residuals["commutator"] <= 1e-9
        ok = ok and D.residuals["max_norm"] <= 1 + 1e-9
        ok = ok and D.residuals["compression"] <= 1e-9
        _, spec = simultaneous_diagonalize(D.T, seed=0)
        worst = max(worst, float(np.max(np.abs(spec.points))) - 1.0)
    ok = ok and worst <= 1e-8
    _verdict(6, ok,
             f"100 sign-sum-bounded tuples dilate to commuting contractions; "
             f"worst cube overflow {worst:.2e}")


def test_ac07_cube_to_scaled_diamond():
    rng = np.random.default_rng(107)
    ok = True
    worst_sign = -np.inf
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
        D = cube_to_diamond_dilation(X)
        for eps in np.ndindex(*(2,) * d):
            signs = np.array(eps) * 2 - 1
            S = sum(float(s) * T for s, T in zip(signs, D.T))
            worst_sign = max(worst_sign, nk.max_eig(S, tol=np.inf) - d)
        _, spec = simultaneous_diagonalize(D.T, seed=0)
        scaled_verts = d * diamond_polytope(d).vertices
        for pt in spec.points:
            if hull_weights(scaled_verts, pt) is None:
                ok = False
    ok = ok and worst_sign <= 1e-9
    _verdict(7, ok,
             f"100 contraction tuples: sign sums within {worst_sign:.2e} of "
             f"d*I, spectra inside the scaled l1 ball by LP")


def test_ac08_frame_dilations():
    rng = np.random.default_rng(108)
    ok = True
    details = []
    for name, frame, kappa_expect, shrink in (
            ("pentagon", pentagon_frame(), 0.5, 0.4),
            ("simplex", simplex3_frame(), 1.0, 0.25)):
        V = frame.vectors
        K_vertices = np.vstack([V, -V])
        for _ in range(10):
            n = int(rng.integers(1, 4))
            X = HermTuple(sampling.random_herm_contraction_tuple(
                frame.dim, n, rng, shrink=shrink))
            # Enforce the dual-polytope inequalities by rescaling if needed.
            worst = max(
                nk.max_eig(sgn * sum(float(v[j]) * np.asarray(X[j])
                                     for j in range(frame.dim)), tol=np.inf)
                for v in V for sgn in (1.0, -1.0))
            if worst > 1.0:
                X = X.scaled(0.99 / worst)
            D = frame_dilation(X, V)
            kappa = D.residuals["kappa"]
            if abs(kappa - kappa_expect) > 1e-12:
                ok = False
            _, spec = simultaneous_diagonalize(D.T, seed=0)
            for pt in spec.points:
                lam = hull_weights(K_vertices, pt)
                if not convex_weights_hold(K_vertices, pt, lam, tol=1e-8):
                    ok = False
        details.append(f"{name}: kappa={kappa_expect}")
    _verdict(8, ok, "spectra of scaled frame dilations inside conv(+-frame) "
             "by LP; " + ", ".join(details))


def test_ac09_choi_suite():
    rng = np.random.default_rng(109)
    ok = True
    # Compressions: ampliated (strictly feasible Choi) across sizes, plus
    # plain thin isometries at small sizes.
    for k, m, d in ((2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)):
        A = HermTuple(sampling.random_herm_contraction_tuple(d, k, rng))
        r = k * m
        W = random_isometry(k * r, m, rng)
        B = HermTuple([W.conj().T @ np.kron(np.asarray(M), np.eye(r)) @ W
                       for M in A])
        res = ucp_exists(A, B)
        ok = ok and res.status is Status.FEASIBLE
        if res.witness is not None:
            ok = ok and choi_constraint_residual(res.witness[0], A, B) <= 1e-8
    for k, m in ((3, 2), (4, 2)):
        A = HermTuple(sampling.random_herm_contraction_tuple(2, k, rng))
        Viso = random_isometry(k, m, rng)
        B = HermTuple([Viso.conj().T @ np.asarray(M) @ Viso for M in A])
        res = ucp_exists(A, B)
        ok = ok and res.status is Status.FEASIBLE
    src = HermTuple([np.diag([1.0, -1.0, 0.0, 0.0]),
                     np.diag([0.0, 0.0, 1.0, -1.0])])
    tgt = clifford_tuple(2).as_herm_tuple()
    neg = ucp_exists(src, tgt)
    M = sum(np.kron(np.asarray(Mj), np.conj(np.asarray(Mj))) for Mj in tgt)
    ok = ok and neg.status is Status.INFEASIBLE and nk.opnorm(M) > 1
    one = HermTuple([np.array([[1.0]])])
    lo = ccp_exists(one, HermTuple([np.array([[1.0 - 1e-6]])]))
    hi = ccp_exists(one, HermTuple([np.array([[1.0 + 1e-6]])]))
    ok = (ok and lo.status is Status.FEASIBLE
          and hi.status is Status.INFEASIBLE)
    _verdict(9, ok,
             "compressions feasible, sign-atom source cannot reach the "
             f"anticommuting pair ({neg.status.value}), scalar contractive-"
             "positive boundary located at 1 within 1e-6")


def test_ac10_normal_atom_lp():
    cube = cube_polytope(2).vertices
    diamond = diamond_polytope(2).vertices
    ok = normal_ucp_exists(cube, diamond, MapMode.UCP)
    ok = ok and not normal_ucp_exists(diamond, cube, MapMode.UCP)
    atoms = np.array([[1.0, 0.5]])
    ok = ok and normal_ucp_exists(atoms, -atoms, MapMode.CC)
    ok = ok and not normal_ucp_exists(atoms, -atoms, MapMode.UCP)
    _verdict(10, ok, "cube atoms cover l1-ball atoms (UCP), not conversely; "
             "CC accepts sign flips of self-adjoint atoms")


def test_ac11_frame_analysis():
    pent = pentagon_frame()
    g_pent = symmetry_group(pent)
    ok = g_pent.order == 10
    s5 = s5_orbit_frame()
    ok = ok and s5.count == 10 and abs(s5.sigma - 2.5) <= 1e-9
    g5 = symmetry_group(s5)
    vr, _ = is_vertex_reflexive(s5, g5)
    ok = ok and vr
    theta = combine_frames(s5, pent)
    ok = ok and abs(theta.sigma - 2.5) <= 1e-9
    gt = symmetry_group(theta)
    ok = ok and not gt.is_transitive()
    ok = ok and gt.order == g5.order * g_pent.order
    for U in gt.matrices:
        if np.max(np.abs(U[:4, 4:])) > 1e-8 or np.max(np.abs(U[4:, :4])) > 1e-8:
            ok = False
            break
    _verdict(11, ok,
             f"pentagon group order {g_pent.order}; orbit frame tight with "
             f"{s5.count} vectors and vertex reflexive; union frame sigma "
             f"{theta.sigma:.3f} with block-diagonal non-transitive group of "
             f"order {gt.order}")


def test_ac12_nonscalable_grid():
    r = nonscalable_check(np.linspace(0.01, 3.0, 300))
    ok = (r["grid_size"] == 300
          and r["min_excess_over_one"] > 1e-9
          and r["max_formula_gap"] <= 1e-9)
    _verdict(12, ok,
             f"||cT - I|| exceeds 1 by at least {r['min_excess_over_one']:.2e}"
             f" on the grid; root-formula/SVD gap {r['max_formula_gap']:.2e}")


def test_ac13_naimark_suite():
    # A compressed normal tuple with joint spectrum at the cube's vertices
    # lies in Wmin(cube): the witness is a positive decomposition on the
    # vertices, and its constraint rows are those of the dilation
    # W = (sqrt K_v)_v, Y_i = (+) v_i I (isometry defect sum K_v - I,
    # compression error sum v_i K_v - X_i, commutators exactly 0).  The
    # residual below recomputes, outside wmin_member, what sdp.reverified
    # checks before a Feasible verdict, so a witness that skipped that
    # re-verification still fails here.
    rng = np.random.default_rng(113)
    ok = True
    worst = 0.0
    for _ in range(5):
        d = 2
        P = cube_polytope(d)
        picks = np.repeat(np.arange(4), 2)
        N = [np.diag(P.vertices[picks, i].astype(complex)) for i in range(d)]
        V = random_isometry(8, 2, rng)
        X = HermTuple([V.conj().T @ Ni @ V for Ni in N])
        res = wmin_member(X, P, tol_feas=1e-9)
        if res.status is not Status.FEASIBLE:
            ok = False
            continue
        worst = max(worst, povm_constraint_residual(P.vertices, list(X),
                                                    res.witness))
    ok = ok and worst <= WITNESS_TOL
    _verdict(13, ok,
             f"compressed cube-vertex normal tuples are in Wmin(cube); "
             f"witness constraint residual {worst:.2e}")
