"""The Gauss--Newton polish of the boundary solves: low rank on the Choi
test's one block, full rank on the POVM blocks of ``wmin_member``.

Unitary conjugates ``U* A U`` and compressions ``W* A W`` of a source tuple
are images of ``A`` under UCP maps with a rank-one Choi matrix, so no Choi
matrix meeting their constraints is strictly positive.  The polish certifies
them ``Feasible``; it must never do so for a target that no map reaches, and
never hand out a witness that the solver did not re-check.  The zero-padded
problems of ``ccp_exists`` have a padding corner, where the polish starts
from the Kraus entry of ``diag(W, 1)``; the UCP and CC problems have none
and keep the eigenvector starts alone.

Tuples near the boundary of ``Wmin(cube)`` leave the alternating
projections crawling too; on their ``2^d`` POVM blocks the polish takes
minimum-norm Gauss--Newton steps from the full-rank factors of the
PSD-side blocks, each from a system of at most ``(d + 1) n^2`` unknowns,
and its verdicts rest on the same re-check.  The step is checked against
the minimum-norm least-squares solution of the explicitly formed Jacobian,
on vertex sets that span ``R^d`` and on ones that do not.
"""

import contextlib
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import (
    choi_constraint_residual,
    hat_tuple_loop,
    random_isometry,
    tilde_tuple_loop,
)
from matconv import jsonio, sampling, sdp
from matconv.cli import main
from matconv.sdp import WITNESS_TOL, Status, povm_constraints
from matconv.sets import HermTuple, cube_polytope, wmin_member
from matconv.ucp import (
    _tilde_tuple,
    cc_exists,
    ccp_exists,
    choi_constraints,
    ucp_exists,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

EXISTS = {"ucp": ucp_exists, "ccp": ccp_exists, "cc": cc_exists}
# The tuples whose Choi matrices each mode's witness describes.
REDUCED = {"ucp": lambda X: X,
           "ccp": lambda X: HermTuple(tilde_tuple_loop(X)),
           "cc": lambda X: HermTuple(hat_tuple_loop(X))}


def traceless_pair(k: int, rng) -> HermTuple:
    """Two traceless Hermitian k x k matrices of operator norm 1."""
    mats = []
    for _ in range(2):
        H = sampling.random_herm(k, rng)
        H -= np.trace(H).real / k * np.eye(k)
        mats.append(H / np.abs(np.linalg.eigvalsh(H)).max())
    return HermTuple(mats)


def boundary_target(A: HermTuple, kind: str, rng) -> HermTuple:
    """``U* A U`` for a random unitary, or ``W* A W`` for a random
    isometry from C^(k-1)."""
    k = A.n
    W = random_isometry(k, k if kind == "conjugate" else k - 1, rng)
    return HermTuple([W.conj().T @ M @ W for M in A])


def assert_witness_holds(res, A, B):
    C = res.witness[0]
    assert choi_constraint_residual(C, A, B) <= WITNESS_TOL
    assert np.linalg.eigvalsh(C)[0] >= -WITNESS_TOL


ANCHORED = " from the padding-corner start"
# The message of a polish from the eigenvector starts alone.
PLAIN_POLISH = re.compile(r"polished to rank [12] in \d+ Gauss-Newton steps")


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), kind=st.sampled_from(["conjugate", "compress"]),
       mode=st.sampled_from(sorted(EXISTS)), seed=st.integers(0, 2 ** 32 - 1))
def test_boundary_targets_never_infeasible(k, kind, mode, seed):
    # Every Feasible witness, polished (at iteration 10 or 40) or not,
    # passes the independent oracle on the tuples of its mode.
    rng = np.random.default_rng(seed)
    A = traceless_pair(k, rng)
    B = boundary_target(A, kind, rng)
    res = EXISTS[mode](A, B, max_iter=50)
    assert res.status is not Status.INFEASIBLE
    if res.status is Status.FEASIBLE:
        assert_witness_holds(res, REDUCED[mode](A), REDUCED[mode](B))
    if res.message.startswith("polished"):
        assert res.status is Status.FEASIBLE and res.iterations in (10, 40)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 4), mode=st.sampled_from(sorted(EXISTS)),
       separate=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stretched_targets_never_feasible(k, mode, separate, seed):
    # A target whose first entry is 3 |A_1| long is out of reach of every
    # contractive map.  With the separation check switched off the solver
    # polishes at every attempt, and still never accepts.
    rng = np.random.default_rng(seed)
    A = traceless_pair(k, rng)
    B = boundary_target(A, "conjugate", rng).matrices.copy()
    B[0] *= 3.0 / np.abs(np.linalg.eigvalsh(B[0])).max()
    polish = mock.Mock(wraps=sdp._polish)
    with mock.patch.object(sdp, "_polish", polish):
        if separate:
            res = EXISTS[mode](A, HermTuple(B), max_iter=50)
        else:
            with mock.patch.object(sdp, "_separation", return_value=None):
                res = EXISTS[mode](A, HermTuple(B), max_iter=50)
                assert polish.call_count >= 1
    assert res.status is not Status.FEASIBLE


@pytest.mark.parametrize("k", [3, 4, 5])
def test_seeded_conjugates_certified_at_cap_20(k):
    rng = np.random.default_rng(2024 + k)
    for _ in range(5):
        A = traceless_pair(k, rng)
        B = boundary_target(A, "conjugate", rng)
        res = ucp_exists(A, B, max_iter=20, tol_feas=1e-9)
        assert res.status is Status.FEASIBLE
        assert res.iterations == 10
        assert res.message.startswith("polished to rank 1 in ")
        assert_witness_holds(res, A, B)


def test_polish_alone_gives_the_rank_it_names():
    # From the point that ten rounds of alternating projections reach, the
    # polish returns a PSD K within the tolerance, of the rank its message
    # names.
    rng = np.random.default_rng(5)
    A = traceless_pair(3, rng)
    B = boundary_target(A, "conjugate", rng)
    cmap = choi_constraints(A, B)
    y = np.zeros(cmap.shape, dtype=complex)
    for _ in range(10):
        y = sdp.psd_project(cmap.project(y))[0]
    K, resid, message = sdp._polish(cmap, y, 1e-9)
    assert resid == cmap.residual(K) <= 1e-9
    assert np.linalg.eigvalsh(K[0])[0] >= -WITNESS_TOL
    rank = int(message.split()[3])
    assert rank in sdp.POLISH_RANKS
    assert np.linalg.matrix_rank(K[0], tol=1e-8) == rank


def test_wmin_member_polishes_at_10_40_160():
    # 64 POVM blocks near the boundary of Wmin(cube), with the separation
    # check switched off so that the solve runs past the attempts at 10, 40
    # and 160: a polish that never succeeds is tried there and nowhere else.
    rng = np.random.default_rng(3)
    X = []
    for _ in range(6):
        H = sampling.random_herm(3, rng)
        X.append(0.9 * H / np.abs(np.linalg.eigvalsh(H)).max())
    with mock.patch.object(sdp, "_polish", return_value=None) as polish, \
            mock.patch.object(sdp, "_separation", return_value=None):
        res = wmin_member(HermTuple(X), cube_polytope(6), max_iter=170)
    assert res.status is Status.UNDECIDED and res.iterations == 170
    assert polish.call_count == 3
    for call in polish.call_args_list:
        assert call.args[1].shape == (64, 3, 3)


def test_choi_boundary_solve_polishes_at_10_40_160():
    # A polish that never succeeds is tried at 10, 40 and 160 only.
    rng = np.random.default_rng(11)
    A = traceless_pair(3, rng)
    B = boundary_target(A, "conjugate", rng)
    with mock.patch.object(sdp, "_polish", return_value=None) as polish:
        res = ucp_exists(A, B, max_iter=180)
    assert res.status is Status.UNDECIDED and res.iterations == 180
    assert polish.call_count == 3


@pytest.mark.parametrize("bad", ["off_constraints", "not_psd"])
def test_polished_witness_is_rechecked(bad):
    # A polish that hands out a point off the affine set, or off the cone,
    # must end Undecided through the solver's re-verification.
    rng = np.random.default_rng(7)
    A = traceless_pair(3, rng)
    B = boundary_target(A, "conjugate", rng)
    cmap = choi_constraints(A, B)
    q = cmap.shape[1]
    if bad == "off_constraints":
        K = np.eye(q, dtype=complex)[None]      # PSD, phi(I) = 3 I
    else:
        K = cmap.project(-np.eye(q, dtype=complex)[None])  # on L, not PSD
    with mock.patch.object(sdp, "_polish",
                           return_value=(K, 0.0, "polished to rank 1")):
        res = ucp_exists(A, B, max_iter=50)
    assert res.status is Status.UNDECIDED and res.witness is None
    assert res.message.startswith("witness failed re-verification")


def test_include_spectra_witness_prints_the_polished_choi(tmp_path):
    # A conjugate target: exit 0 rests on a polished Choi matrix, which
    # --witness prints with the map that gave it; without the flag the report
    # has no "choi" or "map" and is otherwise the same.
    rng = np.random.default_rng(1)
    A = traceless_pair(3, rng)
    B = boundary_target(A, "conjugate", rng)
    paths = []
    for name, X in (("a.json", A), ("b.json", B)):
        path = tmp_path / name
        path.write_text(json.dumps(jsonio.encode_tuple(X)))
        paths.append(str(path))
    reports = []
    for extra in ([], ["--witness"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["include", "spectra", *paths, *extra]) == 0
        reports.append(json.loads(out.getvalue()))
    plain, witnessed = reports
    assert plain["result"]["message"].startswith("polished to rank 1 in ")
    C = jsonio.decode_matrix(witnessed["result"].pop("choi"))
    assert witnessed["result"].pop("map") == "UCP"
    assert witnessed == plain
    assert choi_constraint_residual(C, A, B) <= WITNESS_TOL
    assert np.linalg.eigvalsh(C)[0] >= -WITNESS_TOL


@pytest.mark.parametrize("kind", ["conjugate", "compress"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_padding_corner_is_found_on_ccp_maps_only(k, kind):
    # The zero-padded tuples have their corner at the padding: grid index k
    # and slot index m, the size of the unpadded target.  The UCP and CC
    # problems of the same pair have none.
    rng = np.random.default_rng(100 + k)
    A = traceless_pair(k, rng)
    B = boundary_target(A, kind, rng)
    cmap = choi_constraints(_tilde_tuple(A), _tilde_tuple(B))
    assert sdp._padding_corner(cmap) == (A.n, B.n)
    for mode in ("ucp", "cc"):
        cmap = choi_constraints(REDUCED[mode](A), REDUCED[mode](B))
        assert sdp._padding_corner(cmap) is None


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 4), kind=st.sampled_from(["conjugate", "compress"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ccp_boundary_targets_polish_from_the_padding_corner(k, kind, seed):
    # A unitary conjugate is certified at iteration 10 from the anchored
    # start, under a cap of 30.  A compression to k - 1 usually is too, but
    # not always (see the seeded count below), so for it only the verdict
    # and the witness are checked.
    rng = np.random.default_rng(seed)
    A = traceless_pair(k, rng)
    B = boundary_target(A, kind, rng)
    res = ccp_exists(A, B, max_iter=30)
    assert res.status is not Status.INFEASIBLE
    if kind == "conjugate":
        assert res.status is Status.FEASIBLE and res.iterations == 10
        assert res.message.endswith(ANCHORED)
    if res.status is Status.FEASIBLE:
        cmap = choi_constraints(_tilde_tuple(A), _tilde_tuple(B))
        assert cmap.residual(res.witness) <= 1e-8
        assert_witness_holds(res, REDUCED["ccp"](A), REDUCED["ccp"](B))


def test_ccp_compressions_mostly_certified_at_iteration_10():
    # 36 of these 40 seeded k = 4 compressions are certified at iteration
    # 10, all from the anchored start; from the eigenvector starts alone
    # none is.
    rng = np.random.default_rng(4004)
    decided = 0
    for _ in range(40):
        A = traceless_pair(4, rng)
        B = boundary_target(A, "compress", rng)
        res = ccp_exists(A, B, max_iter=30)
        assert res.status is not Status.INFEASIBLE
        if res.status is Status.FEASIBLE and res.iterations == 10:
            assert res.message.endswith(ANCHORED)
            assert_witness_holds(res, REDUCED["ccp"](A), REDUCED["ccp"](B))
            decided += 1
    assert decided >= 30


@pytest.mark.parametrize("mode", ["ucp", "ccp"])
def test_compressions_certified_at_iteration_10(mode):
    # 58 of these 60 seeded k = 4 compressions are certified at iteration 10
    # in either mode; with 15 Gauss-Newton steps per rank, 54 (ucp) and 53
    # (ccp) were, as the rank-2 try needs 20 to 35 steps on the others.
    rng = np.random.default_rng(2026)
    decided = 0
    for _ in range(60):
        A = traceless_pair(4, rng)
        B = boundary_target(A, "compress", rng)
        res = EXISTS[mode](A, B, max_iter=30)
        assert res.status is not Status.INFEASIBLE
        if res.status is Status.FEASIBLE and res.iterations == 10:
            assert_witness_holds(res, REDUCED[mode](A), REDUCED[mode](B))
            decided += 1
    assert decided >= 57


@pytest.mark.parametrize("mode", ["ucp", "cc"])
def test_ucp_and_cc_polish_names_no_anchor(mode):
    # Without a padding corner the polish runs from the eigenvector starts
    # alone, and its message names only the rank and the step count.
    rng = np.random.default_rng(2024)
    messages = set()
    for k in (3, 4):
        A = traceless_pair(k, rng)
        B = boundary_target(A, "conjugate", rng)
        res = EXISTS[mode](A, B, max_iter=50)
        if res.message.startswith("polished"):
            assert PLAIN_POLISH.fullmatch(res.message), res.message
            messages.add(res.message)
    assert messages


# ---------------------------------------------------------------------------
# The POVM polish of wmin_member
# ---------------------------------------------------------------------------


def cube_boundary_draw(d: int, n: int, rng) -> HermTuple:
    """d Hermitian n x n matrices with operator norms 0.9 U[0.5, 1]: in the
    matrix cube, and for d >= 4 mostly near the boundary of Wmin(cube)."""
    X = []
    for _ in range(d):
        H = sampling.random_herm(n, rng)
        X.append(0.9 * rng.uniform(0.5, 1.0) * H
                 / np.abs(np.linalg.eigvalsh(H)).max())
    return HermTuple(X)


def assert_povm_witness_holds(K, vertices, X):
    # Independent of the solver: sum_v K_v = I, sum_v v K_v = X, K_v >= 0.
    K = np.asarray(K)
    n = K.shape[1]
    assert np.abs(K.sum(axis=0) - np.eye(n)).max() <= WITNESS_TOL
    assert np.abs(np.tensordot(vertices.T, K, axes=(1, 0))
                  - np.asarray(X)).max() <= WITNESS_TOL
    assert np.linalg.eigvalsh(K)[:, 0].min() >= -WITNESS_TOL


def test_cube_boundary_draws_mostly_polished_at_iteration_10():
    # 29 of these 30 seeded draws are certified at iteration 10 (28) or 12
    # under a cap of 75; plain alternating projections certified 4.
    rng = np.random.default_rng(2026)
    P = cube_polytope(4)
    decided = 0
    for _ in range(30):
        X = cube_boundary_draw(4, 3, rng)
        res = wmin_member(X, P, max_iter=75)
        assert res.status is not Status.INFEASIBLE
        if res.status is Status.FEASIBLE:
            assert_povm_witness_holds(res.witness, P.vertices, X.matrices)
            decided += 1
    assert decided >= 27


@pytest.mark.parametrize("bad", ["off_constraints", "not_psd"])
def test_polished_povm_stack_is_rechecked(bad):
    # A POVM polish that hands out blocks off the affine set, or off the
    # cone, must end Undecided through the solver's re-verification.
    rng = np.random.default_rng(7)
    X = cube_boundary_draw(4, 3, rng)
    P = cube_polytope(4)
    cmap = povm_constraints(P.vertices, X.matrices)
    K = np.zeros(cmap.shape, dtype=complex)
    if bad == "off_constraints":
        K[:] = np.eye(3)                    # PSD, sum_v K_v = 16 I
    else:
        K[0] = -10.0 * np.eye(3)
        K = cmap.project(K)                 # on L, not PSD
        assert np.linalg.eigvalsh(K[0])[0] < -1.0
    with mock.patch.object(sdp, "_polish", return_value=(
            K, 0.0, "polished 16 blocks in 1 Gauss-Newton steps")) as polish:
        res = wmin_member(X, P, max_iter=50)
    assert polish.call_count == 1
    assert res.status is Status.UNDECIDED and res.witness is None
    assert res.iterations == 10
    assert res.message.startswith("witness failed re-verification")


def test_member_wmin_witness_prints_the_polished_blocks(tmp_path):
    # A cube boundary draw that plain alternating projections leave
    # undecided under a cap of 75: exit 0 rests on polished blocks, which
    # --witness prints and an independent check accepts.
    X = cube_boundary_draw(4, 3, np.random.default_rng(2026))
    P = cube_polytope(4)
    paths = []
    for name, obj in (("x.json", jsonio.encode_tuple(X)),
                      ("p.json", jsonio.encode_polytope(P))):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["member", "wmin", *paths, "--witness",
                     "--max-iter", "75"])
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    assert result["message"].startswith("polished 16 blocks in ")
    assert result["iterations"] == 10
    K = np.stack([jsonio.decode_matrix(B) for B in result["witness"]])
    assert K.shape == (16, 3, 3)
    assert_povm_witness_holds(K, P.vertices, X.matrices)


def jacobian_min_norm_step(f, V, F):
    """The minimum-norm least-squares solution ``E`` of ``J(E) = -F``, with
    ``J(E)_r = sum_v f_rv (E_v V_v^* + V_v E_v^*)`` formed as an explicit
    real matrix, column by column, on the real and imaginary parts of
    every entry of ``E``, and solved by ``np.linalg.lstsq``."""
    N, n = V.shape[0], V.shape[1]
    cols = []
    for unit in (1.0, 1j):
        for t in range(N * n * n):
            E = np.zeros(N * n * n, dtype=complex)
            E[t] = unit
            E = E.reshape(N, n, n)
            dK = E @ V.conj().swapaxes(1, 2) + V @ E.conj().swapaxes(1, 2)
            J = np.tensordot(f, dK, axes=(1, 0)).ravel()
            cols.append(np.concatenate([J.real, J.imag]))
    J = np.array(cols).T
    x = np.linalg.lstsq(J, -np.concatenate([F.real.ravel(),
                                             F.imag.ravel()]), rcond=1e-10)[0]
    size = N * n * n
    return (x[:size] + 1j * x[size:]).reshape(N, n, n), J


def povm_step_instance(f, n, rng):
    """Factors ``V`` of ``n x n`` blocks (invertible, as Gaussian matrices
    almost surely are), ``K_v = V_v V_v^*``, and a residual ``F = sum_v f_v
    D_v`` of Hermitian ``D_v``, which lies in the range of the Jacobian."""
    N = f.shape[1]
    V = (rng.standard_normal((N, n, n))
         + 1j * rng.standard_normal((N, n, n)))
    D = np.stack([sampling.random_herm(n, rng) for _ in range(N)])
    return V, V @ V.conj().swapaxes(1, 2), np.tensordot(f, D, axes=(1, 0))


def povm_step(f, V, K, F):
    """The step of the polish for the family ``f`` at ``(V, K, F)``."""
    cmap = sdp.ConstraintMap(f, np.zeros_like(F))
    return sdp._povm_stepper(cmap)(V, K, F)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 2), n=st.integers(1, 2), extra=st.integers(0, 2),
       flat=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_povm_step_is_the_min_norm_jacobian_solution(d, n, extra, flat,
                                                     seed):
    # With invertible factors V_v the step, solved on the dual side from a
    # system of rank(f) n^2 unknowns, is the minimum-norm solution of the
    # primal Jacobian system.  With ``flat`` the N <= 4 vertices lie on one
    # point (d = 1) or one line (d = 2), so the rows of f are dependent and
    # the step is solved in their row space.
    N = min(4, d + 1 + extra)
    rng = np.random.default_rng(seed)
    f = np.vstack([np.ones((1, N)), rng.uniform(-1.0, 1.0, (d, N))])
    if flat:
        f[d] = 0.5 - 0.3 * f[d - 1]
    V, K, F = povm_step_instance(f, n, rng)
    expected, J = jacobian_min_norm_step(f, V, F)
    rank = np.linalg.matrix_rank(f) * n * n
    s = np.linalg.svd(J, compute_uv=False)
    assume(s[rank - 1] > 1e-3 * s[0])   # J onto the range of the family
    E = povm_step(f, V, K, F)
    assert np.linalg.norm(E - expected) <= 1e-8 * np.linalg.norm(expected)


def test_povm_step_at_n8_matches_the_oracle_in_small_memory():
    # At n = 8 the step of a 4-vertex map in R^2 solves for 3 n^2 = 192
    # real unknowns.  Its temporaries stay near the size of that system
    # (0.3 MB as reals, about 1.3 MB at peak), under one array of n^6
    # complex numbers (4.2 MB), the size of a table of all products of two
    # Hermitian basis matrices.
    rng = np.random.default_rng(8)
    f = np.vstack([np.ones((1, 4)), rng.uniform(-1.0, 1.0, (2, 4))])
    V, K, F = povm_step_instance(f, 8, rng)
    tracemalloc.start()
    try:
        E = povm_step(f, V, K, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 ** 6 * 16
    expected, _ = jacobian_min_norm_step(f, V, F)
    assert np.linalg.norm(E - expected) <= 1e-8 * np.linalg.norm(expected)
