"""Seeded inputs for the benchmark workloads, each with its ground truth.

Inputs come from ``numpy.random.default_rng(seed)`` directly, never from
``matconv.sampling``, so a change to the package cannot change what the
benchmark feeds it.  Every query carries the exit codes its ground truth
allows:

* feasible by construction (a UCP image, a positive decomposition, a tuple
  built inside a set) allows the positive code 0 or Undecided 2;
* infeasible by an independent oracle (the norm bound for contractive maps,
  the Clifford pairing against Wmax of the diamond, a violated facet)
  allows 1 or 2;
* boundary instances allow every verdict their set allows (a unitary
  conjugate or a compression is still a UCP image, so it allows 0 or 2);
  they stay in on purpose, and a Feasible answer on them must still carry
  a witness that re-verifies;
* exact oracles (signed-sum and facet sweeps, dilations, frames and
  witnesses) allow exactly one code.

A query is its CLI argument list plus what the checker needs to re-verify
the report: the input arrays and the kind of certificate to expect.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("choi", "polytope", "construct")

POSITIVE = frozenset({0, 2})
NEGATIVE = frozenset({1, 2})
ANY = frozenset({0, 1, 2})
EXACT_YES = frozenset({0})
EXACT_NO = frozenset({1})



@dataclass
class Query:
    qid: str
    argv: list
    allowed: frozenset
    check: str
    ctx: dict = field(default_factory=dict)
    instance: int = 0


# ---------------------------------------------------------------------------
# Random matrices (plain numpy)
# ---------------------------------------------------------------------------


def _herm(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _contractions(rng, d, n, lo=0.5):
    """d Hermitian n x n matrices with operator norms uniform in [lo, 1]."""
    out = []
    for _ in range(d):
        H = _herm(rng, n)
        out.append(H * rng.uniform(lo, 1.0) / oracles.opnorm(H))
    return out


def _traceless_unit(rng, d, n):
    out = []
    for _ in range(d):
        H = _herm(rng, n)
        H = H - np.trace(H).real / n * np.eye(n)
        out.append(H / oracles.opnorm(H))
    return out


def _psd_decomposition(rng, N, n):
    """N positive definite n x n blocks summing to the identity."""
    G = rng.standard_normal((N, n, n)) + 1j * rng.standard_normal((N, n, n))
    K = G @ np.conj(np.transpose(G, (0, 2, 1))) + 0.05 * np.eye(n)
    w, Q = np.linalg.eigh(K.sum(axis=0))
    S = (Q / np.sqrt(w)) @ Q.conj().T            # (sum K)^(-1/2)
    return S @ K @ S


def _clifford(d):
    """d anticommuting Hermitian unitaries of size 2^floor(d/2)
    (Jordan-Wigner), built here rather than taken from the package."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    m = d // 2

    def kron_all(factors):
        M = np.eye(1, dtype=complex)
        for F in factors:
            M = np.kron(M, F)
        return M

    out = [kron_all([sz] * j + [s] + [np.eye(2)] * (m - j - 1))
           for j in range(m) for s in (sx, sy)]
    if d % 2:
        out.append(kron_all([sz] * m))
    return out


def _kraus_ucp(rng, k, m):
    """Kraus operators (r, k, m) of a UCP map M_k -> M_m with full Kraus
    rank r = k*m: X -> sum_l V_l* X V_l with sum_l V_l* V_l = I_m."""
    r = k * m
    G = rng.standard_normal((r, k, m)) + 1j * rng.standard_normal((r, k, m))
    S = np.einsum("lka,lkb->ab", G.conj(), G)
    w, Q = np.linalg.eigh(S)
    return G @ ((Q / np.sqrt(w)) @ Q.conj().T)


def _apply_kraus(V, X):
    return np.einsum("lka,kj,ljb->ab", V.conj(), X, V)


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------


def _enc_matrix(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def _write(self, obj):
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def tuple(self, mats):
        mats = [np.asarray(M, dtype=complex) for M in mats]
        return self._write({"d": len(mats), "n": mats[0].shape[0],
                            "matrices": [_enc_matrix(M) for M in mats]})

    def polytope(self, vertices, normals):
        return self._write({
            "dim": vertices.shape[1],
            "vertices": vertices.tolist(),
            "facets": [{"alpha": a.tolist(), "a": 1.0} for a in normals]})

    def lambdas(self, lams, betas):
        return self._write({"lambdas": [_enc_matrix(L) for L in lams],
                            "betas": [float(b) for b in betas]})

    def frame(self, vectors):
        return self._write({"dim": vectors.shape[1],
                            "vectors": vectors.tolist()})


def _signs(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def cube(d):
    return _signs(d), np.vstack([np.eye(d), -np.eye(d)])


def diamond(d):
    return np.vstack([np.eye(d), -np.eye(d)]), _signs(d)


# ---------------------------------------------------------------------------
# choi: map ucp|ccp|cc and include spectra on Hermitian pairs
# ---------------------------------------------------------------------------


def _choi_targets(rng, k):
    """Source pair A (traceless, so 0 is interior to its numerical range)
    and four targets: feasible, two kinds of boundary, and infeasible."""
    A = _traceless_unit(rng, 2, k)
    V = _kraus_ucp(rng, k, k)
    feasible = [_apply_kraus(V, M) for M in A]
    U = _unitary(rng, k)
    W = _unitary(rng, k)[:, :k - 1]
    # UCP, CCP and CC maps are contractive: a target whose first entry is
    # longer than the source's cannot be reached.  At three times the
    # length the solver's residual plateaus after 200 to 350 iterations; at
    # 1.3 times it took 200 to over 1000, depending on the draw.
    infeasible = [feasible[0] * (3.0 * oracles.opnorm(A[0])
                                 / oracles.opnorm(feasible[0])), feasible[1]]
    return A, {"feasible": feasible,
               "conjugate": [U.conj().T @ M @ U for M in A],
               "compress": [W.conj().T @ M @ W for M in A],
               "infeasible": infeasible}


_CHOI_TRUTH = {"feasible": POSITIVE, "conjugate": POSITIVE,
               "compress": POSITIVE, "infeasible": NEGATIVE}

# (command, k, ((target, --max-iter), ...)).  Boundary targets (a unitary
# conjugate or a compression to k-1) run under caps below the solver's
# 200-iteration plateau window, chosen by cost.  They time a fixed number
# of iterations, mostly come back Undecided and carry no verdict check
# beyond "a Feasible answer re-verifies".  The boundary kind is fixed per
# row, so the Choi size, and with it the cost, does not change with the
# seed.  Infeasible targets get 1000, so the plateau test can fire; they
# stay at k=2 or 3, where a plateau arrives within about 350 iterations.
#
# The rows fall into three cost groups: about 10 under 0.06 s, 7 between
# 0.08 and 0.14 s and 9 above.  The median of a pass then falls inside the
# middle group rather than on the edge of the cheap one, where a feasible
# query that converges slowly on one draw moved it by a fifth.  At k=6 an
# iteration costs about 27 ms for the conjugate (q=36) and 8 ms for the
# compression (q=30), so they get 12 and 55 and take about 0.5 s each: the
# tail, at the 10th-slowest of 234 samples, then falls inside the group of
# 18 k=6 boundary samples rather than on its edge.
_CHOI_FULL = [
    ("ucp", 3, (("feasible", 300), ("conjugate", 100), ("infeasible", 1000))),
    ("ucp", 4, (("feasible", 300), ("conjugate", 100), ("compress", 100))),
    ("ucp", 5, (("feasible", 300), ("conjugate", 50), ("compress", 50))),
    ("ucp", 6, (("feasible", 300), ("conjugate", 12), ("compress", 55))),
    ("ccp", 2, (("infeasible", 1000),)),
    ("ccp", 3, (("feasible", 300), ("conjugate", 100))),
    ("ccp", 4, (("conjugate", 30), ("compress", 50))),
    ("ccp", 5, (("feasible", 300),)),
    ("cc", 2, (("feasible", 300), ("infeasible", 1000))),
    ("cc", 3, (("feasible", 300),)),
    ("spectra", 3, (("feasible", 300), ("infeasible", 1000))),
    ("spectra", 4, (("feasible", 300), ("conjugate", 100))),
    ("spectra", 5, (("feasible", 300),)),
]

_CHOI_TINY = [
    ("ucp", 3, (("feasible", 300), ("compress", 50), ("infeasible", 1000))),
    ("cc", 2, (("feasible", 300),)),
    ("spectra", 3, (("feasible", 300),)),
]


def _choi(rng, w, tiny):
    queries = []
    for cmd, k, kinds in (_CHOI_TINY if tiny else _CHOI_FULL):
        A, targets = _choi_targets(rng, k)
        src = w.tuple(A)
        for kind, max_iter in kinds:
            B = targets[kind]
            tgt = w.tuple(B)
            if cmd == "spectra":
                argv = ["include", "spectra", src, tgt]
                check = "verdict"
            else:
                argv = ["map", cmd, src, tgt, "--witness"]
                check = "choi"
            queries.append(Query(
                f"choi/{cmd}/k{k}/{kind}",
                argv + ["--max-iter", str(max_iter)],
                _CHOI_TRUTH[kind], check, {"A": A, "B": B, "mode": cmd}))
    return queries


# ---------------------------------------------------------------------------
# polytope: member wmin|wmax|diamond and include relax-cube
# ---------------------------------------------------------------------------


def _scale_to_signed_max(rng, d, n, target):
    """Random Hermitian d-tuple scaled so that the largest eigenvalue over
    all signed sums equals ``target``."""
    X = [_herm(rng, n) for _ in range(d)]
    top = oracles.signed_sum_max_eig(X, _signs(d))
    return [M * (target / top) for M in X]


def _wmin_queries(rng, w, d, n, body, kinds, max_iter=300):
    out = []
    verts, normals = body(d)
    name = body.__name__
    P = w.polytope(verts, normals)
    for kind in kinds:
        if kind == "interior":
            K = _psd_decomposition(rng, verts.shape[0], n)
            X = list(np.tensordot(verts.T, K, axes=(1, 0)))
            allowed = POSITIVE
        elif kind == "clifford":
            # Outside Wmin(cube): Y = conj(B) / sqrt(c) lies in
            # Wmax(diamond), yet sum_i B_i (x) Y_i has eigenvalue sqrt(c) > 1
            # on the maximally entangled vector, which no tuple in
            # Wmin(cube), nor any tuple compressing to B, allows.
            B = _clifford(min(d, 5))
            U = _unitary(rng, len(B[0]))
            X = [U.conj().T @ M @ U for M in B]
            X += _contractions(rng, d - len(B), len(B[0]))
            allowed = NEGATIVE
        elif kind == "facet":
            # A signed sum above the identity violates a facet of Wmax,
            # which contains Wmin.
            X = _scale_to_signed_max(rng, d, n, 1.5) if name == "diamond" \
                else [M * 1.5 for M in _contractions(rng, d, n, lo=1.0)]
            allowed = NEGATIVE
        else:  # boundary: contractions scaled by 0.9
            X = [0.9 * M for M in _contractions(rng, d, n)]
            allowed = ANY
        out.append(Query(
            f"polytope/wmin/{name}{d}/n{len(X[0])}/{kind}",
            ["member", "wmin", w.tuple(X), P, "--witness",
             "--max-iter", str(max_iter)],
            allowed, "wmin", {"X": X, "vertices": verts}))
    return out


def _sweep_query(rng, w, d, n, margin, kind, body=None):
    X = _scale_to_signed_max(rng, d, n, margin)
    member = margin < 1.0
    if kind == "diamond":
        argv = ["member", "diamond", w.tuple(X)]
        ctx = {"X": X, "normals": _signs(d)}
    else:
        verts, normals = body(d)
        argv = ["member", "wmax", w.tuple(X), w.polytope(verts, normals)]
        ctx = {"X": X, "normals": normals}
    return Query(f"polytope/{kind}/d{d}/{'in' if member else 'out'}", argv,
                 EXACT_YES if member else EXACT_NO, "sweep", ctx)


def _relax_query(rng, w, d, inside):
    if inside:
        # Signed sums below I: the cube sits in the level-1 domain, so the
        # relaxation may never exclude it.
        X = _scale_to_signed_max(rng, d, 3, 0.9)
        allowed = frozenset({2})
    else:
        B = _clifford(d)
        U = _unitary(rng, len(B[0]))
        X = [U.conj().T @ M @ U for M in B]
        allowed = frozenset({0, 2})
    return Query(f"polytope/relax/d{d}/{'in' if inside else 'out'}",
                 ["include", "relax-cube", w.tuple(X), "--max-iter", "300"],
                 allowed, "relax", {"X": X})


def _polytope(rng, w, tiny):
    q = []
    if tiny:
        q += _wmin_queries(rng, w, 3, 2, cube, ("interior", "clifford"))
        q += _wmin_queries(rng, w, 3, 2, diamond, ("facet",))
        q.append(_sweep_query(rng, w, 6, 3, 0.95, "diamond"))
        q.append(_relax_query(rng, w, 3, inside=False))
        return q
    # Per draw, 16 rows cost under 0.065 s and 12 over 0.11 s, so the
    # median of a pass falls a few samples inside the cheap group rather
    # than on the gap between the groups, where it moved with every query
    # that crossed it.
    # Clifford tuples and facet violators get caps above the solver's
    # 200-iteration plateau window, so they can come back Infeasible.  The
    # boundary cube solves run under caps of 75 and 50: they time a fixed
    # number of iterations and allow any verdict.
    q += _wmin_queries(rng, w, 4, 3, cube, ("interior", "clifford"))
    q += _wmin_queries(rng, w, 5, 4, cube, ("interior", "clifford"))
    q += _wmin_queries(rng, w, 6, 3, cube, ("interior",))
    q += _wmin_queries(rng, w, 6, 3, cube, ("boundary",), max_iter=75)
    q += _wmin_queries(rng, w, 7, 3, cube, ("interior",))
    q += _wmin_queries(rng, w, 8, 4, cube, ("interior",))
    q += _wmin_queries(rng, w, 8, 4, cube, ("boundary",), max_iter=50)
    q += _wmin_queries(rng, w, 4, 3, diamond, ("interior", "boundary"))
    q += _wmin_queries(rng, w, 4, 3, diamond, ("facet",), max_iter=1000)
    q += _wmin_queries(rng, w, 5, 4, diamond, ("boundary",), max_iter=150)
    q += _wmin_queries(rng, w, 6, 4, diamond, ("interior",))
    q += _wmin_queries(rng, w, 6, 4, diamond, ("facet",), max_iter=1000)
    q += _wmin_queries(rng, w, 8, 3, diamond, ("interior",))
    q += _wmin_queries(rng, w, 8, 4, diamond, ("interior",))
    # Sweeps over 2^d signed sums or facets.
    q.append(_sweep_query(rng, w, 14, 4, 0.95, "diamond"))
    q.append(_sweep_query(rng, w, 11, 3, 0.95, "diamond"))
    q.append(_sweep_query(rng, w, 11, 4, 0.95, "wmax", diamond))
    q.append(_sweep_query(rng, w, 10, 4, 1.05, "diamond"))
    q.append(_sweep_query(rng, w, 10, 4, 0.95, "diamond"))
    q.append(_sweep_query(rng, w, 10, 4, 0.95, "wmax", diamond))
    q.append(_sweep_query(rng, w, 9, 4, 0.95, "wmax", diamond))
    q.append(_sweep_query(rng, w, 8, 4, 1.05, "wmax", diamond))
    q.append(_sweep_query(rng, w, 8, 4, 0.95, "wmax", cube))
    q.append(_relax_query(rng, w, 4, inside=True))
    q.append(_relax_query(rng, w, 4, inside=False))
    return q


# ---------------------------------------------------------------------------
# construct: dilate, frame and witness
# ---------------------------------------------------------------------------


def _lambda_family(rng, d, k):
    """Rank-one family from a random Parseval frame of k vectors in R^d:
    lam_p = (d / |r_p|^2) r_p r_p^T with weights |r_p|^2 / d."""
    Q, _ = np.linalg.qr(rng.standard_normal((k, d)))
    norms2 = np.sum(Q * Q, axis=1)
    lams = np.stack([(d / s) * np.outer(r, r) for r, s in zip(Q, norms2)])
    return lams, norms2 / d


def _dilate_query(rng, w, kind, d, n):
    ctx = {"kind": kind}
    extra = []
    if kind == "diamond":
        X = _scale_to_signed_max(rng, d, n, 0.9)
    else:
        X = _contractions(rng, d, n)
    if kind == "lambda":
        lams, betas = _lambda_family(rng, d, 2 * d)
        extra = [w.lambdas(lams, betas)]
        ctx.update(lams=lams)
    elif kind == "frame":
        Q, _ = np.linalg.qr(rng.standard_normal((2 * d, d)))
        c = np.round(rng.uniform(0.5, 1.0, size=2 * d), 6)
        # The frame precondition: +- sum_j c_m v_mj X_j <= I for every m.
        top = max(oracles.opnorm(sum(cm * v[j] * X[j] for j in range(d)))
                  for cm, v in zip(c, Q))
        X = [M * (0.9 / top) for M in X]
        extra = [w.frame(Q), "--weights", ",".join(repr(float(x)) for x in c)]
        ctx.update(vectors=Q, weights=c)
    ctx["X"] = X
    return Query(f"construct/{kind}/d{d}/n{n}",
                 ["dilate", kind, w.tuple(X)] + extra,
                 EXACT_YES, "dilation", ctx)


# (builder, --d, symmetry group order, stabilizer order of each vector)
_FRAMES_FULL = [
    ("pentagon", None, 10, 2),
    ("simplex3", None, 24, 6),
    ("s5_orbit", None, 120, 12),
    ("pm_basis", 4, 384, 48),
    ("cube_corners", 4, 384, 24),
]


def _frame_queries(frames):
    out = []
    for name, d, order, stab in frames:
        tail = [name] + ([] if d is None else ["--d", str(d)])
        out.append(Query(f"construct/sym/{name}", ["frame", "sym"] + tail,
                         EXACT_YES, "frame-sym", {"order": order}))
        out.append(Query(f"construct/reflexive/{name}",
                         ["frame", "reflexive"] + tail, EXACT_YES,
                         "frame-reflexive", {"stabilizer": stab}))
    return out


def _witness_query(rng, kind, d):
    seed = str(int(rng.integers(0, 2 ** 31)))
    return Query(f"construct/{kind}/d{d}",
                 ["witness", kind, "--d", str(d), "--seed", seed],
                 EXACT_YES, kind, {"d": d})


def _construct(rng, w, tiny):
    if tiny:
        return ([_dilate_query(rng, w, "flip", 3, 2),
                 _dilate_query(rng, w, "lambda", 3, 2)]
                + _frame_queries(_FRAMES_FULL[:1])
                + [_witness_query(rng, "sharpness", 3)])
    q = [
        _dilate_query(rng, w, "flip", 5, 3),
        _dilate_query(rng, w, "flip", 6, 3),
        _dilate_query(rng, w, "flip", 7, 3),
        _dilate_query(rng, w, "diamond", 5, 3),
        _dilate_query(rng, w, "diamond", 6, 2),
        _dilate_query(rng, w, "lambda", 6, 3),
        _dilate_query(rng, w, "lambda", 8, 3),
        _dilate_query(rng, w, "frame", 5, 3),
        _dilate_query(rng, w, "frame", 8, 3),
        _dilate_query(rng, w, "cube2diamond", 6, 4),
        _dilate_query(rng, w, "cube2diamond", 8, 3),
    ]
    q += _frame_queries(_FRAMES_FULL)
    q += [_witness_query(rng, "sharpness", d) for d in (4, 6, 8)]
    q += [_witness_query(rng, "sqrtd", d) for d in (4, 5, 8)]
    return q


_BUILDERS = {"choi": _choi, "polytope": _polytope, "construct": _construct}


# Independent draws of the whole mix in one pass.  Solver queries cost
# what their input makes them cost (iterations to convergence or to a
# plateau), so more draws per pass let the quantiles move less with the
# seed.  ``construct`` barely depends on its draw; one copy leaves room for
# more passes.
INSTANCES = {"choi": 3, "polytope": 2, "construct": 1}


def build(workload, seed, workdir, tiny=False):
    """Write the workload's input files under ``workdir`` and return its
    queries, instance by instance.  The same seed always gives the same
    inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(workdir)
    queries = []
    for i in range(1 if tiny else INSTANCES[workload]):
        for q in _BUILDERS[workload](rng, w, tiny):
            q.qid, q.instance = f"{q.qid}#{i}", i
            queries.append(q)
    return queries
