"""Independent re-verification of CLI reports, in plain numpy.

``check(query, code, text)`` returns a list of problems; an empty list means
the report is correct.  A report fails when the exit code is one the query's
ground truth does not allow, when a Feasible witness is not PSD or misses
its constraints, when a dilation's compression, commutators or norm bound do
not hold once recomputed from the dense matrices in the report, or when a
sweep verdict disagrees with one batched ``eigvalsh`` over every facet.
It runs outside the timed region.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from oracles import combo_max_eigs, frob_stack, herm_stack

WITNESS_TOL = 1e-7     # constraint residual and PSD slack of a witness
DILATION_TOL = 1e-8    # compression, isometry and commutator residuals
NORM_REL_TOL = 1e-9    # norm bounds, relative


def decode_matrix(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _min_eig(blocks):
    return float(np.min(np.linalg.eigvalsh(herm_stack(blocks))))


def _max_abs_eig(blocks):
    w = np.linalg.eigvalsh(herm_stack(blocks))
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def _signs(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


# ---------------------------------------------------------------------------
# Feasibility witnesses
# ---------------------------------------------------------------------------


def _reduced(mats, mode):
    """The tuples a CC or CCP query reduces to, rebuilt here."""
    out = []
    for M in mats:
        M = np.asarray(M, dtype=complex)
        n = M.shape[0]
        if mode == "cc":
            H = np.zeros((2 * n, 2 * n), dtype=complex)
            H[:n, n:] = M
            H[n:, :n] = M.conj().T
        elif mode == "ccp":
            H = np.zeros((n + 1, n + 1), dtype=complex)
            H[:n, :n] = M
        else:
            H = M
        out.append(H)
    return out


def _check_choi(q, report):
    if "choi" not in report["result"]:
        return ["Feasible map without a Choi witness"]
    A = _reduced(q.ctx["A"], q.ctx["mode"])
    B = _reduced(q.ctx["B"], q.ctx["mode"])
    k, m = A[0].shape[0], B[0].shape[0]
    C = decode_matrix(report["result"]["choi"])
    if C.shape != (k * m, k * m):
        return [f"Choi witness has shape {C.shape}, expected {k * m}"]
    problems = []
    herm = float(np.max(np.abs(C - C.conj().T)))
    if herm > WITNESS_TOL:
        problems.append(f"Choi witness not Hermitian ({herm:.2e})")
    if _min_eig(C) < -WITNESS_TOL:
        problems.append(f"Choi witness not PSD (min eig {_min_eig(C):.2e})")
    # phi(X) = sum_ab X_ab C[a, :, b, :] for C = sum E_ab (x) phi(E_ab).
    C4 = C.reshape(k, m, k, m)
    res = [np.einsum("ab,aibj->ij", np.eye(k), C4) - np.eye(m)]
    res += [np.einsum("ab,aibj->ij", Ai, C4) - Bi for Ai, Bi in zip(A, B)]
    resid = float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))
    if resid > WITNESS_TOL:
        problems.append(f"Choi constraint residual {resid:.2e}")
    return problems


def _check_wmin(q, report):
    if "witness" not in report["result"]:
        return ["Feasible member without witness blocks"]
    K = decode_matrix(report["result"]["witness"])
    verts = q.ctx["vertices"]
    X = np.asarray(q.ctx["X"], dtype=complex)
    n = X.shape[1]
    if K.shape != (verts.shape[0], n, n):
        return [f"witness has shape {K.shape}"]
    problems = []
    if _min_eig(K) < -WITNESS_TOL:
        problems.append(f"witness block not PSD (min eig {_min_eig(K):.2e})")
    res = [K.sum(axis=0) - np.eye(n)]
    res += list(np.tensordot(verts.T, K, axes=(1, 0)) - X)
    resid = float(np.sqrt(sum(np.linalg.norm(R) ** 2 for R in res)))
    if resid > WITNESS_TOL:
        problems.append(f"POVM constraint residual {resid:.2e}")
    return problems


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _check_sweep(q, code, report):
    top = float(np.max(combo_max_eigs(q.ctx["normals"], q.ctx["X"])))
    member = top <= 1.0
    if report["result"].get("member") != (code == 0):
        return ["member field disagrees with the exit code"]
    if member != (code == 0):
        return [f"verdict {code} but the largest facet eigenvalue is {top:.6f}"]
    return []


def _check_relax(q, code, report):
    X = q.ctx["X"]
    signs = _signs(len(X))
    bad = np.nonzero(combo_max_eigs(signs, X) > 1.0)[0]
    body = report["result"]
    problems = []
    if body.get("cube_in_level1") != (bad.size == 0):
        problems.append("cube_in_level1 disagrees with the signed sums")
    if bad.size:
        if body.get("violated_sign") != [int(s) for s in signs[bad[0]]]:
            problems.append("violated_sign is not the first violating sign")
    elif body.get("verdict") == "CubeExcluded":
        problems.append("CubeExcluded although every signed sum is <= I")
    if (body.get("verdict") == "CubeExcluded") != (code == 0):
        problems.append("verdict disagrees with the exit code")
    return problems


# ---------------------------------------------------------------------------
# Dilations
# ---------------------------------------------------------------------------


def _norm_bound(q, X):
    """Largest operator norm the dilation may have, from the inputs."""
    kind = q.ctx["kind"]
    d = len(X)
    if kind == "flip":
        return float(d)
    if kind == "diamond":
        return 1.0
    if kind == "lambda":
        # Block p of T_i is sum_j lam^(p)_ij X_j.
        lams = q.ctx["lams"]
        return float(max(np.max(_max_abs_eig(
            np.tensordot(lams[:, i, :], X, axes=(1, 0)))) for i in range(d)))
    if kind == "frame":
        V, c = q.ctx["vectors"], q.ctx["weights"]
        sigma = float(np.trace(V.T @ V)) / d
        b = c.sum() / (sigma * c)
        kappa = sigma * float(np.min(c) ** 3) / c.sum()
        block = _max_abs_eig(np.tensordot(V, X, axes=(1, 0)))   # per vector
        return float(kappa * np.max(b[:, None] * np.abs(V) * block[:, None]))
    return None   # cube2diamond: bounded through its signed sums


def _check_dilation(q, report):
    dil = report["result"].get("dilation")
    if dil is None:
        return ["no dilation in the report"]
    X = np.asarray(q.ctx["X"], dtype=complex)
    T = decode_matrix(dil["T"])
    V = decode_matrix(dil["V"])
    scale = float(dil["scale"])
    d, n = X.shape[0], X.shape[1]
    if T.shape[0] != d or V.shape != (T.shape[1], n):
        return [f"dilation shapes T {T.shape}, V {V.shape}"]
    problems = []
    iso = float(np.linalg.norm(V.conj().T @ V - np.eye(n)))
    if iso > DILATION_TOL:
        problems.append(f"isometry defect {iso:.2e}")
    comp = V.conj().T @ T @ V - scale * X
    if float(np.max(frob_stack(comp))) > DILATION_TOL * max(1.0, scale):
        problems.append(f"compression residual {np.max(frob_stack(comp)):.2e}")
    herm = float(np.max(np.abs(T - np.conj(np.swapaxes(T, 1, 2)))))
    if herm > DILATION_TOL:
        problems.append(f"T not self-adjoint ({herm:.2e})")
    norms = _max_abs_eig(T)
    big = max(1.0, float(np.max(norms)))
    for i in range(d):
        C = T[i + 1:] @ T[i] - T[i] @ T[i + 1:]
        if C.size and float(np.max(frob_stack(C))) > DILATION_TOL * big * big:
            problems.append(f"T_{i} fails to commute "
                            f"({np.max(frob_stack(C)):.2e})")
            break
    bound = _norm_bound(q, X)
    if bound is not None and np.max(norms) > bound * (1 + NORM_REL_TOL):
        problems.append(f"norm {np.max(norms):.9f} above bound {bound:.9f}")
    if bound is None:
        top = float(np.max(combo_max_eigs(_signs(d), T)))
        if top > d * (1 + NORM_REL_TOL):
            problems.append(f"a signed sum of T reaches {top:.9f} > {d}")
    reported = float(dil["residuals"]["max_norm"])
    if abs(reported - np.max(norms)) > NORM_REL_TOL * big:
        problems.append("reported max_norm differs from the recomputed norm")
    return problems


# ---------------------------------------------------------------------------
# Frames and witnesses
# ---------------------------------------------------------------------------


def _check_frame_sym(q, report):
    r = report["result"]
    if (r.get("order"), r.get("transitive"), r.get("closure")) != \
            (q.ctx["order"], True, True):
        return [f"symmetry group {r}, expected order {q.ctx['order']}"]
    return []


def _check_frame_reflexive(q, report):
    r = report["result"]
    rows = r.get("per_vector", [])
    if not r.get("vertex_reflexive") or not rows or any(
            row["stabilizer_order"] != q.ctx["stabilizer"]
            or row["fixed_dim"] != 1 for row in rows):
        return ["vertex reflexivity report disagrees with the frame"]
    return []


def _check_sharpness(q, report):
    r, d = report["result"], q.ctx["d"]
    at = r["min_eig_at_C"]
    lo, hi = at[f"{d * (1.0 - 1e-6):.9f}"], at[f"{d * (1.0 + 1e-6):.9f}"]
    if (abs(r["lambda_max"] - d) > NORM_REL_TOL * d
            or r["unit_direction_max_eig"] > 1.0 + NORM_REL_TOL
            or r["unit_direction_square_residual"] > NORM_REL_TOL
            or not lo < 0.0 < hi):
        return ["sharpness certificate does not hold"]
    return []


def _check_sqrtd(q, report):
    r = report["result"]
    if (abs(r["tensor_norm_over_d"] - 1.0) > NORM_REL_TOL
            or r["conjugation_gap"] != 0.0 or not r["boundary_member"]
            or r["shrunk_member"]):
        return ["sqrt(d) certificate does not hold"]
    return []


def check(q, code, text):
    """Problems with one report of query ``q`` that exited with ``code``."""
    if code not in q.allowed:
        return [f"exit code {code}, ground truth allows {sorted(q.allowed)}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if report.get("exit_code") != code:
        return ["report exit_code differs from the returned code"]
    kind = q.check
    try:
        if kind == "choi" and code == 0:
            return _check_choi(q, report)
        if kind == "wmin" and code == 0:
            return _check_wmin(q, report)
        if kind == "sweep":
            return _check_sweep(q, code, report)
        if kind == "relax":
            return _check_relax(q, code, report)
        if kind == "dilation":
            return _check_dilation(q, report)
        if kind == "frame-sym":
            return _check_frame_sym(q, report)
        if kind == "frame-reflexive":
            return _check_frame_reflexive(q, report)
        if kind == "sharpness":
            return _check_sharpness(q, report)
        if kind == "sqrtd":
            return _check_sqrtd(q, report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report does not have the expected form: {exc!r}"]
    return []
