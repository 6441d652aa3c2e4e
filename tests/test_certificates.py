"""Separation certificates: ``Infeasible`` only with a verified certificate,
feasible witnesses re-verified, and the certificate printed by the CLI."""

import json

import numpy as np
import pytest

from conftest import (
    pauli_pair,
    povm_constraint_residual,
    random_gen,
    random_isometry,
    random_povm,
)
from matconv import numkernel as nk
from matconv import sampling
from matconv.cli import main
from matconv.sdp import (
    WITNESS_TOL,
    BlockPsdProblem,
    ConstraintMap,
    Status,
    dykstra_solve,
    povm_constraints,
)
from matconv.sets import (
    GenTuple,
    HermTuple,
    Polytope,
    cube_polytope,
    diamond_polytope,
    wmin_member,
)
from matconv.ucp import (
    _REDUCTIONS,
    MapMode,
    cc_exists,
    ccp_exists,
    choi_affine_projector,
    choi_constraints,
    ucp_exists,
)

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    example,
    given,
    settings,
    strategies as st,
)


def check_pencil(cert, vertices, X):
    """The certificate of ``wmin_member`` read as a pencil H_0..H_d: PSD at
    every vertex and negative at X, recomputed here."""
    H = cert.dual
    for v in vertices:
        Z = H[0] + sum(vj * Hj for vj, Hj in zip(v, H[1:]))
        assert nk.min_eig((Z + Z.conj().T) / 2.0, tol=np.inf) >= -1e-12
    value = np.trace(H[0]) + sum(np.trace(Hj @ np.asarray(Xj))
                                 for Hj, Xj in zip(H[1:], X))
    assert value.real == pytest.approx(cert.value, abs=1e-12)
    assert cert.value < 0


def choi_family(X):
    """The raw family I, X_i / sqrt 2, X_i* / sqrt 2 of a Choi problem."""
    w = 1.0 / np.sqrt(2.0)
    return ([np.eye(X.n)] + [w * np.asarray(M) for M in X]
            + [w * np.asarray(M).conj().T for M in X])


def check_choi(cert, A, B):
    """The certificate of a map-existence query read as duals y_r of the raw
    family f_r: the functional sum_r conj(f_r) (x) y_r, recomputed here, is
    PSD and is the one reported, and the value sum_r <y_r, b_r> over the
    targets' family b_r is negative."""
    y = cert.dual
    Z = sum(np.kron(f.conj(), yr) for f, yr in zip(choi_family(A), y))
    assert nk.min_eig((Z + Z.conj().T) / 2.0, tol=np.inf) >= -1e-12
    assert np.max(np.abs(Z - cert.functional[0])) <= 1e-12
    value = sum(np.vdot(yr, b) for yr, b in zip(y, choi_family(B)))
    assert value.real == pytest.approx(cert.value, abs=1e-12)
    assert cert.value < 0


def signed_sum_top(mats) -> float:
    d = len(mats)
    S = nk.lincomb(nk.sign_rows(d, 0, 2 ** d), mats)
    return float(np.max(nk.max_eig(S, tol=np.inf)))


def off_cone_map():
    """Two 1x1 blocks with K_1 + K_2 = 1 and K_1 - K_2 = 3: the one point
    (2, -1) of the affine set is not PSD."""
    return ConstraintMap(np.array([[1.0, 1.0], [1.0, -1.0]]),
                         np.array([[[1.0]], [[3.0]]], dtype=complex))


class TestSolver:
    def test_map_verifier_certifies_a_point_off_the_cone(self):
        cmap = off_cone_map()
        res = dykstra_solve(BlockPsdProblem(cmap, cmap.project))
        assert res.status is Status.INFEASIBLE
        assert res.certificate.value < 0
        assert cmap.certify(res.certificate.dual) is not None

    def test_rejecting_verifier_never_infeasible(self):
        calls = []

        def reject(Z):
            calls.append(Z)
            return None

        cmap = off_cone_map()
        cmap.verify = reject
        res = dykstra_solve(BlockPsdProblem(cmap, cmap.project))
        assert res.status is Status.UNDECIDED
        assert res.message == "residual plateaued, no certificate"
        assert res.certificate is None
        assert calls    # candidates were offered, and refused

    def test_pauli_pair_separated_from_wmin_diamond(self):
        X, P = pauli_pair(), diamond_polytope(2)
        res = wmin_member(X, P)
        assert res.status is Status.INFEASIBLE
        assert res.witness is None
        assert res.iterations <= 20
        check_pencil(res.certificate, P.vertices, list(X))

    def test_choi_functional_is_constant_on_the_affine_set(self, rng):
        A = HermTuple([np.diag([1.0, -1.0, 0.0, 0.0]),
                       np.diag([0.0, 0.0, 1.0, -1.0])])
        B = pauli_pair()
        res = ucp_exists(A, B)
        assert res.status is Status.INFEASIBLE
        Z = res.certificate.functional[0]
        assert nk.min_eig(Z, tol=1e-12) >= -1e-12
        project = choi_constraints(A, B).project
        for _ in range(3):
            C = project([sampling.random_herm(8, rng)])[0]
            assert np.vdot(Z, C).real == pytest.approx(res.certificate.value,
                                                       abs=1e-10)
        assert res.certificate.value < 0


class TestWitnessReverification:
    def test_bad_witness_becomes_undecided(self):
        # An idempotent stand-in projector onto a PSD point off the affine
        # set: the solver accepts the point at once, and its re-check
        # against the raw constraints turns it down.
        X, P = pauli_pair().scaled(0.5), cube_polytope(2)
        cmap = povm_constraints(P.vertices, list(X))
        off = cmap.project(np.zeros(cmap.shape)) + 1e-6 * np.eye(2)

        res = dykstra_solve(BlockPsdProblem(cmap, lambda K: off))
        assert res.status is Status.UNDECIDED
        assert res.witness is None and res.iterations == 1
        resid = povm_constraint_residual(P.vertices, list(X), off)
        assert resid > WITNESS_TOL
        assert res.message.startswith("witness failed re-verification "
                                      f"(constraint residual {resid:.3e}")

    def test_good_witness_kept(self):
        X, P = pauli_pair().scaled(0.5), cube_polytope(2)
        res = wmin_member(X, P)
        assert res.status is Status.FEASIBLE
        K = np.stack(res.witness)
        assert povm_constraints(P.vertices, list(X)).residual(K) <= WITNESS_TOL
        assert nk.min_eig(K, tol=np.inf).min() >= -WITNESS_TOL


# ---------------------------------------------------------------------------
# Properties on small random instances
# ---------------------------------------------------------------------------

dims = st.integers(1, 3)
sizes = st.integers(1, 3)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(d=dims, n=sizes, scale=st.floats(0.1, 3.0), cube=st.booleans(),
       seed=seeds)
def test_witness_and_certificate_never_together(d, n, scale, cube, seed):
    rng = np.random.default_rng(seed)
    X = HermTuple([scale * M for M in
                   sampling.random_herm_contraction_tuple(d, n, rng)])
    P = cube_polytope(d) if cube else diamond_polytope(d)
    res = wmin_member(X, P, max_iter=400)
    assert res.witness is None or res.certificate is None
    assert (res.status is Status.INFEASIBLE) == (res.certificate is not None)
    assert (res.status is Status.FEASIBLE) == (res.witness is not None)


@settings(max_examples=30, deadline=None)
@given(d=dims, n=sizes, cube=st.booleans(), seed=seeds)
def test_wmin_points_never_certified(d, n, cube, seed):
    # X = sum_v v K_v with K_v >= 0 and sum_v K_v = I lies in Wmin(P), which
    # sits inside Wmax(P).
    rng = np.random.default_rng(seed)
    P = cube_polytope(d) if cube else diamond_polytope(d)
    K = random_povm(n, P.vertices.shape[0], rng)
    X = HermTuple([sum(v[j] * Kv for v, Kv in zip(P.vertices, K))
                   for j in range(d)])
    res = wmin_member(X, P, max_iter=400)
    assert res.status is not Status.INFEASIBLE
    assert res.certificate is None


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 3), n=sizes, seed=seeds)
def test_scaled_wmax_cube_never_certified(d, n, seed):
    # Wmax(cube) / d lies inside Wmin(cube) (the flip dilation).
    rng = np.random.default_rng(seed)
    X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng)
                  ).scaled(1.0 / d)
    res = wmin_member(X, cube_polytope(d), max_iter=300)
    assert res.status is not Status.INFEASIBLE


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 3), n=sizes, seed=seeds)
def test_signed_sum_bounded_never_certified_against_wmin_cube(d, n, seed):
    # Every signed sum between -I and I puts X in Wmax(diamond), which lies
    # inside Wmin(cube) at scale 1.
    rng = np.random.default_rng(seed)
    X = HermTuple(sampling.random_sign_sum_bounded_tuple(d, n, rng))
    res = wmin_member(X, cube_polytope(d), max_iter=300)
    assert res.status is not Status.INFEASIBLE


@settings(max_examples=30, deadline=None)
@given(d=dims, n=sizes, top=st.floats(1.1, 3.0), seed=seeds)
def test_certificates_pass_their_verifier_again(d, n, top, seed):
    rng = np.random.default_rng(seed)
    mats = [sampling.random_herm(n, rng) for _ in range(d)]
    X = HermTuple([top / max(signed_sum_top(mats), 1e-12) * M for M in mats])
    P = diamond_polytope(d)
    res = wmin_member(X, P, max_iter=2000)
    if res.certificate is not None:
        check_pencil(res.certificate, P.vertices, list(X))
        again = povm_constraints(P.vertices, list(X)).verify(
            res.certificate.functional)
        assert again is not None and again.value < 0


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 3), stretch=st.floats(1.2, 3.0),
       seed=seeds)
def test_choi_certificates_pass_their_verifier_again(k, m, stretch, seed):
    # A UCP map is contractive: a target longer than its source is out of
    # reach.
    rng = np.random.default_rng(seed)
    A = HermTuple(sampling.random_herm_contraction_tuple(2, k, rng))
    B0 = sampling.random_herm(m, rng)
    B = HermTuple([stretch * nk.opnorm(A[0]) / nk.opnorm(B0) * B0,
                   sampling.random_herm(m, rng)])
    res = ucp_exists(A, B, max_iter=1000)
    assert res.status is not Status.FEASIBLE
    if res.certificate is not None:
        check_choi(res.certificate, A, B)
        # A k = 1 source takes only multiples of I: the linear short cut
        # fires, and its functional is ~0, so its dual is checked instead.
        cmap = choi_constraints(A, B)
        again = (cmap.certify(res.certificate.dual) if res.iterations == 0
                 else cmap.verify(res.certificate.functional))
        assert again is not None and again.value < 0


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 4), n=st.integers(2, 4), top=st.floats(1.5, 3.0),
       seed=seeds)
def test_signed_sum_violators_certified_outside_wmin_diamond(d, n, top, seed):
    # Wmin(diamond) sits inside Wmax(diamond), where every signed sum is at
    # most I; a tuple whose largest signed-sum eigenvalue is at least 1.5 is
    # certified within the 150-iteration cap of the benchmark's boundary
    # rows.
    rng = np.random.default_rng(seed)
    mats = [sampling.random_herm(n, rng) for _ in range(d)]
    X = HermTuple([top / signed_sum_top(mats) * M for M in mats])
    P = diamond_polytope(d)
    res = wmin_member(X, P, max_iter=150)
    assert res.status is Status.INFEASIBLE
    check_pencil(res.certificate, P.vertices, list(X))


# ---------------------------------------------------------------------------
# Linear short cuts: rank-deficient constraint families
# ---------------------------------------------------------------------------


# A seed whose one-effect POVM came out Hermitian only to 1.3e-10 before
# ``random_povm`` took the Hermitian part, past the 1e-12 of ``HermTuple``.
ILL_CONDITIONED_POVM_SEED = 2776183


def degenerate_instance(d, n, N, line, rng):
    """N vertices on one point (``line`` False) or one line of R^d, a
    tuple ``X_j = sum_v v_j K_v`` of a random POVM on them, and a unit
    vector w normal to their affine hull."""
    p = rng.uniform(-1.0, 1.0, d)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    t = rng.uniform(-1.0, 1.0, N) if line else np.zeros(N)
    V = p + t[:, None] * u
    w = rng.standard_normal(d)
    w -= np.dot(w, u) * u if line else 0.0
    w /= np.linalg.norm(w)
    K = random_povm(n, N, rng)
    X = [sum(v[j] * Kv for v, Kv in zip(V, K)) for j in range(d)]
    return V, X, w


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3), n=sizes, N=st.integers(1, 4), line=st.booleans(),
       push=st.floats(0.01, 2.0), seed=seeds)
@example(d=3, n=2, N=1, line=False, push=0.5, seed=ILL_CONDITIONED_POVM_SEED)
def test_tuples_off_a_degenerate_hull_certified_at_once(d, n, N, line, push,
                                                        seed):
    # sum_j w_j X_j must be <w, p> I for any X the vertex constraints can
    # meet; a push along w of a nonzero M breaks that.
    rng = np.random.default_rng(seed)
    V, X0, w = degenerate_instance(d, n, N, line, rng)
    M = sampling.random_herm(n, rng)
    M *= push / np.linalg.norm(M)
    X = HermTuple([Xj + wj * M for Xj, wj in zip(X0, w)])
    res = wmin_member(X, Polytope(d, vertices=V), max_iter=50)
    assert res.status is Status.INFEASIBLE and res.iterations == 0
    check_pencil(res.certificate, V, list(X))
    assert povm_constraints(V, list(X)).certify(res.certificate.dual)
    # The residual is the least-squares distance of (I, X) from the values
    # the constraint rows can take.
    A = np.vstack([np.ones((1, N)), V.T])
    b = np.stack([np.eye(n)] + list(X)).reshape(d + 1, -1)
    lsq = A @ np.linalg.lstsq(A, b, rcond=None)[0]
    assert res.residual == pytest.approx(np.linalg.norm(lsq - b), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 3), n=sizes, N=st.integers(1, 4), line=st.booleans(),
       seed=seeds)
@example(d=3, n=2, N=1, line=False, seed=ILL_CONDITIONED_POVM_SEED)
def test_tuples_on_a_degenerate_hull_never_short_cut(d, n, N, line, seed):
    rng = np.random.default_rng(seed)
    V, X, _ = degenerate_instance(d, n, N, line, rng)
    assert povm_constraints(V, X).inconsistency("unused") is None
    res = wmin_member(HermTuple(X), Polytope(d, vertices=V), max_iter=100)
    assert res.status is not Status.INFEASIBLE


MAP_EXISTS = {MapMode.UCP: ucp_exists, MapMode.CCP: ccp_exists,
              MapMode.CC: cc_exists}


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 3), m=st.integers(1, 3), scalar=st.booleans(),
       hermitian=st.booleans(), mode=st.sampled_from(list(MapMode)),
       c=st.floats(0.3, 2.0), push=st.floats(0.01, 1.0), seed=seeds)
def test_broken_source_dependency_certified_at_once(k, m, scalar, hermitian,
                                                    mode, c, push, seed):
    # Sources with A_1 = c I or A_2 = c A_1; targets from a unital
    # compression of an ampliation keep the dependency, and a push of B_1
    # breaks it.
    rng = np.random.default_rng(seed)
    draw = sampling.random_herm if hermitian else random_gen
    kind = HermTuple if hermitian else GenTuple
    A1 = c * np.eye(k) if scalar else draw(k, rng)
    A = kind([A1, draw(k, rng) if scalar else c * A1])
    W = random_isometry(k * m, m, rng)
    B = [W.conj().T @ np.kron(M, np.eye(m)) @ W for M in A]
    reduce = _REDUCTIONS[mode]
    _, short = choi_affine_projector(choi_constraints(reduce(A),
                                                     reduce(kind(B))))
    assert short is None
    M = draw(m, rng)
    B[0] = B[0] + push / np.linalg.norm(M) * M
    res = MAP_EXISTS[mode](A, kind(B), max_iter=100)
    if mode is MapMode.UCP or not scalar:
        assert res.status is Status.INFEASIBLE and res.iterations == 0
    if res.status is Status.INFEASIBLE and res.iterations == 0:
        RA, RB = reduce(A), reduce(kind(B))
        check_choi(res.certificate, RA, RB)
        assert choi_constraints(RA, RB).certify(res.certificate.dual)


def test_hermitian_choi_map_skips_the_farkas_eigensolve(rng, monkeypatch):
    # A_i / sqrt 2 and A_i* / sqrt 2 are equal rows, so the family has a
    # left null space and the Farkas dual is rounding, which the bound from
    # |y| alone rejects without an eigensolve.
    A = HermTuple([sampling.random_herm(4, rng) for _ in range(2)])
    W = random_isometry(16, 4, rng)
    B = HermTuple([W.conj().T @ np.kron(M, np.eye(4)) @ W for M in A])
    cmap = choi_constraints(A, B)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert cmap.inconsistency("unused") is None
    assert not calls


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def decode(obj):
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@pytest.fixture
def files(tmp_path):
    return {
        "pauli": write(tmp_path, "pauli.json", {"matrices": [
            [[0, 1], [1, 0]], [[1, 0], [0, -1]]]}),
        "diamond": write(tmp_path, "diamond.json", {
            "dim": 2, "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}),
        "one": write(tmp_path, "one.json", {"matrices": [[[1.0]]]}),
        "big": write(tmp_path, "big.json", {"matrices": [[[1.5]]]}),
    }


class TestCli:
    def test_wmin_witness_prints_the_pencil(self, files, capsys):
        code, rep = run(["member", "wmin", files["pauli"], files["diamond"],
                         "--witness"], capsys)
        assert code == 1
        body = rep["result"]
        assert body["status"] == "Infeasible"
        assert "witness" not in body
        H = decode(body["certificate"]["pencil"])
        assert H.shape == (3, 2, 2)
        V = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        Z = H[0] + np.tensordot(V, H[1:], axes=(1, 0))
        assert np.min(np.linalg.eigvalsh(Z)) >= -1e-12
        X = np.array([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], dtype=complex)
        value = np.trace(H[0]) + np.einsum("jab,jba->", H[1:], X)
        assert value.real == pytest.approx(body["certificate"]["value"])
        assert body["certificate"]["value"] < 0

    def test_map_witness_prints_the_functional(self, files, capsys):
        code, rep = run(["map", "ccp", files["one"], files["big"],
                         "--witness"], capsys)
        assert code == 1
        body = rep["result"]
        assert "choi" not in body
        Z = decode(body["certificate"]["functional"])
        assert Z.shape == (4, 4)
        assert np.min(np.linalg.eigvalsh(Z)) >= -1e-12
        assert body["certificate"]["value"] < 0

    def test_degenerate_polytope_short_cut_prints_a_pencil(self, tmp_path,
                                                           capsys):
        # Two copies of the vertex (1, 0): X = (0.5, 0.2) is off their hull.
        x = write(tmp_path, "x.json", {"matrices": [[[0.5]], [[0.2]]]})
        p = write(tmp_path, "p.json", {"dim": 2, "vertices": [[1, 0], [1, 0]]})
        code, rep = run(["member", "wmin", x, p, "--witness"], capsys)
        assert code == 1
        body = rep["result"]
        assert body["status"] == "Infeasible" and body["iterations"] == 0
        assert np.isfinite(body["residual"])
        H = decode(body["certificate"]["pencil"])[:, 0, 0]
        assert (H[0] + H[1]).real >= -1e-12
        value = (H[0] + 0.5 * H[1] + 0.2 * H[2]).real
        assert value == pytest.approx(body["certificate"]["value"])
        assert body["certificate"]["value"] == pytest.approx(-0.165)

    def test_map_short_cut_prints_a_functional(self, tmp_path, capsys):
        # phi(0) = I contradicts phi(I) = I for a linear map.
        zero = write(tmp_path, "zero.json", {"matrices": [[[0, 0], [0, 0]]]})
        eye = write(tmp_path, "eye.json", {"matrices": [[[1, 0], [0, 1]]]})
        code, rep = run(["map", "ucp", zero, eye, "--witness"], capsys)
        assert code == 1
        body = rep["result"]
        assert body["iterations"] == 0
        assert body["residual"] == pytest.approx(np.sqrt(2.0))
        Z = decode(body["certificate"]["functional"])
        assert Z.shape == (4, 4)
        assert np.min(np.linalg.eigvalsh(Z)) >= -1e-12
        assert body["certificate"]["value"] == pytest.approx(-2.0)

    def test_certificate_only_with_witness_flag(self, files, capsys):
        code, rep = run(["member", "wmin", files["pauli"], files["diamond"]],
                        capsys)
        assert code == 1
        assert "certificate" not in rep["result"]
        assert (rep["result"]["message"]
                == "separated by a verified certificate")
        code, rep = run(["map", "ccp", files["one"], files["big"]], capsys)
        assert code == 1
        assert "certificate" not in rep["result"]

    def test_signed_sum_violator_exits_1_at_cap_150(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        mats = [sampling.random_herm(4, rng) for _ in range(5)]
        X = [1.8 / signed_sum_top(mats) * M for M in mats]
        path = write(tmp_path, "x.json", {"matrices": [
            [[[z.real, z.imag] for z in row] for row in M] for M in X]})
        P = diamond_polytope(5)
        poly = write(tmp_path, "d5.json", {
            "dim": 5, "vertices": P.vertices.tolist()})
        code, rep = run(["member", "wmin", path, poly, "--max-iter", "150"],
                        capsys)
        assert code == 1
        assert rep["result"]["status"] == "Infeasible"
