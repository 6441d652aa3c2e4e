import numpy as np
import pytest

from conftest import pauli_pair, random_isometry, random_povm
from matconv import numkernel as nk
from matconv import sampling
from matconv import sets
from matconv.sdp import Status, point_in_hull
from matconv.sets import (
    GenTuple,
    HermTuple,
    MissingRepresentationError,
    Pencil,
    Polytope,
    ball_member,
    cube_member,
    cube_pencil,
    cube_polytope,
    diamond_polytope,
    diamond_wmax_member,
    pencil_eval,
    pencil_member,
    polar_dual_polytope,
    selfdual_member,
    wmax_member,
    wmin_member,
    zero_interior_range,
)
from matconv.witnesses import clifford_tuple, switch_tuple


class TestTupleTypes:
    def test_hermitize_on_construction(self):
        M = np.array([[1.0, 1.0 + 1e-13j], [1.0 - 1e-13j, 2.0]])
        X = HermTuple([M])
        assert np.allclose(X[0], X[0].conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(nk.NotHermitianError):
            HermTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_gen_tuple_any_square(self):
        X = GenTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert X.d == 1 and X.n == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            HermTuple([np.eye(2), np.eye(3)])


class TestPolytope:
    def test_cross_check_passes_for_cube(self):
        cube_polytope(3)  # both representations validated in the constructor

    def test_vertex_violating_facet_rejected(self):
        with pytest.raises(ValueError, match="violates"):
            Polytope(1, vertices=np.array([[2.0]]),
                     facet_normals=np.array([[1.0]]),
                     facet_offsets=np.array([1.0]))

    def test_loose_facet_rejected(self):
        with pytest.raises(ValueError, match="tight at no vertex"):
            Polytope(1, vertices=np.array([[0.5], [-0.5]]),
                     facet_normals=np.array([[1.0]]),
                     facet_offsets=np.array([1.0]))


class TestPencils:
    def test_zero_pencil_gives_identity(self):
        A = HermTuple([np.zeros((3, 3))])
        X = HermTuple([np.diag([1.0, 2.0])])
        assert np.allclose(pencil_eval(Pencil(A), X), np.eye(6))

    def test_cube_pencil_block_structure(self):
        # The value splits into the blocks I -+ X_j on the diagonal.
        d = 2
        X = HermTuple([np.diag([0.5, -0.5]), np.diag([0.25, 0.0])])
        val = pencil_eval(Pencil(HermTuple(cube_pencil(d).coefficients)), X)
        n = 2
        for j in range(d):
            blk_minus = val[j * n:(j + 1) * n, j * n:(j + 1) * n]
            blk_plus = val[(d + j) * n:(d + j + 1) * n,
                           (d + j) * n:(d + j + 1) * n]
            assert np.allclose(blk_minus, np.eye(n) - X[j])
            assert np.allclose(blk_plus, np.eye(n) + X[j])
        assert cube_member(X) == pencil_member(cube_pencil(d), X)

    def test_ball_pencil_scalar(self):
        L = Pencil(switch_tuple(3))
        inside = HermTuple([np.array([[c]]) for c in (0.5, 0.5, 0.5)])
        outside = HermTuple([np.array([[c]]) for c in (0.8, 0.8, 0.0)])
        assert pencil_member(L, inside)
        assert not pencil_member(L, outside)

    def test_ball_pencil_matches_ball_oracle(self, rng):
        L = Pencil(switch_tuple(2))
        for _ in range(10):
            X = HermTuple(sampling.random_herm_contraction_tuple(2, 3, rng))
            assert pencil_member(L, X, tol=1e-7) == ball_member(X, tol=1e-7)

    def test_member_at_zero(self):
        A = HermTuple([np.diag([1.0, -1.0])])
        X = HermTuple([np.zeros((2, 2))])
        assert pencil_member(Pencil(A), X)

    def test_cube_pencil_rejects_large_norm(self):
        X = HermTuple([1.01 * np.eye(2), np.zeros((2, 2))])
        assert not pencil_member(cube_pencil(2), X)

    def test_clifford_pencil_scaling_threshold(self):
        # The pencil of the anticommuting pair admits B/C exactly when C >= 2.
        B = clifford_tuple(2).as_herm_tuple()
        L = Pencil(B)
        assert pencil_member(L, B.scaled(1.0 / 2.0), tol=1e-9)
        assert not pencil_member(L, B.scaled(1.0 / 1.9), tol=1e-9)
        assert not pencil_member(L, B.scaled(1.0), tol=1e-9)

    def test_general_pencil_real_part(self):
        A = GenTuple([np.array([[0.0, 2.0], [0.0, 0.0]])])
        X = GenTuple([np.array([[0.5 + 0.0j]])])
        val = pencil_eval(Pencil(A), X)
        assert np.allclose(val, val.conj().T)


class TestWmax:
    def test_scalar_point_in_polytope(self):
        P = cube_polytope(2)
        X = HermTuple([np.array([[0.3]]), np.array([[-0.9]])])
        assert wmax_member(X, P)
        Y = HermTuple([np.array([[1.2]]), np.array([[0.0]])])
        assert not wmax_member(Y, P)

    def test_cube_wmax_is_contraction_test(self, rng):
        P = cube_polytope(3)
        for _ in range(5):
            X = HermTuple(sampling.random_herm_contraction_tuple(3, 3, rng))
            assert wmax_member(X, P)
            assert cube_member(X)

    def test_diamond_rejects_pauli(self):
        # min eig of I - sx - sz is 1 - sqrt(2) < 0.
        X = pauli_pair()
        S = np.asarray(X[0]) + np.asarray(X[1])
        assert nk.min_eig(np.eye(2) - S) == pytest.approx(1 - np.sqrt(2))
        assert not wmax_member(X, diamond_polytope(2))
        assert not diamond_wmax_member(X)

    def test_needs_facets(self):
        P = Polytope(2, vertices=np.array([[1.0, 0], [0, 1], [-1, -1]]))
        with pytest.raises(MissingRepresentationError, match="facets"):
            wmax_member(pauli_pair(), P)


class TestWmin:
    def test_commuting_spectrum_inside(self):
        X = HermTuple([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        res = wmin_member(X, cube_polytope(2))
        assert res.status is Status.FEASIBLE

    def test_compression_feasible(self, rng):
        P = cube_polytope(2)
        verts = P.vertices
        picks = np.repeat(np.arange(4), 3)
        N = [np.diag(verts[picks, i].astype(complex)) for i in range(2)]
        V = random_isometry(12, 3, rng)
        X = HermTuple([V.conj().T @ Ni @ V for Ni in N])
        res = wmin_member(X, P)
        assert res.status is Status.FEASIBLE
        # The explicit compression witness K_v = V* E_v V also certifies it.
        from matconv.sdp import povm_constraint_residual
        Ks = []
        for v in range(4):
            E = np.diag((picks == v).astype(complex))
            Ks.append(V.conj().T @ E @ V)
        assert povm_constraint_residual(verts, list(X), Ks) <= 1e-12

    def test_pauli_not_in_diamond(self):
        res = wmin_member(pauli_pair(), diamond_polytope(2))
        assert res.status is Status.INFEASIBLE

    def test_needs_vertices(self):
        P = Polytope(2, facet_normals=np.eye(2), facet_offsets=np.ones(2))
        with pytest.raises(MissingRepresentationError, match="vertices"):
            wmin_member(pauli_pair(), P)


class TestBallOracles:
    def test_zero_in_everything(self):
        X = HermTuple([np.zeros((2, 2)), np.zeros((2, 2))])
        assert ball_member(X)
        assert selfdual_member(X)
        assert cube_member(X)
        assert diamond_wmax_member(X)

    def test_known_ball_pair(self):
        X = HermTuple([np.array([[0.5, 0.0], [0.0, 0.0]]),
                       np.array([[0.0, 0.75], [0.75, 0.0]])])
        assert ball_member(X)

    def test_clifford_pair_outside_ball(self):
        B = clifford_tuple(2).as_herm_tuple()
        # Anticommutation makes each square the identity, so the sum is 2I.
        S = sum(np.asarray(M) @ np.asarray(M) for M in B)
        assert np.allclose(S, 2 * np.eye(2))
        assert not ball_member(B)

    def test_ball_inside_selfdual(self, rng):
        for _ in range(10):
            X = HermTuple(sampling.random_ball_member(2, 3, rng))
            assert selfdual_member(X, tol=1e-10)

    def test_clifford_selfdual_boundary(self):
        for d in (2, 3):
            B = clifford_tuple(d).as_herm_tuple()
            assert not selfdual_member(B)
            assert selfdual_member(B.scaled(1.0 / np.sqrt(d)), tol=1e-9)

    def test_scalar_unit_vector_boundary(self):
        X = HermTuple([np.array([[0.6]]), np.array([[0.8]])])
        M = sum(np.kron(np.asarray(Mj), np.conj(np.asarray(Mj))) for Mj in X)
        assert nk.opnorm(M) == pytest.approx(1.0)
        assert selfdual_member(X, tol=1e-12)

    def test_cube_member_threshold(self):
        X = HermTuple([1.01 * np.eye(2), np.zeros((2, 2))])
        assert not cube_member(X)

    def test_clifford_scaled_diamond_wmax(self):
        # (eps . B)^2 = 2 I exactly, so B / sqrt(2) meets every signed sum.
        B = clifford_tuple(2).as_herm_tuple()
        assert diamond_wmax_member(B.scaled(1 / np.sqrt(2)), tol=1e-12)
        assert not diamond_wmax_member(B.scaled(1 / np.sqrt(2) + 1e-3))

    def test_sign_guard(self):
        X = HermTuple([np.zeros((1, 1))] * 25)
        with pytest.raises(sets.SetsError, match="2\\^25"):
            diamond_wmax_member(X)


def _first_violated_sign_loop(X, tol, bound=1.0):
    """Reference: one Python sum and one eigensolve per sign vector."""
    I = np.eye(X.n)
    for eps in np.ndindex(*(2,) * X.d):
        signs = np.array(eps) * 2 - 1
        S = sum(float(s) * M for s, M in zip(signs, X))
        if nk.min_eig(bound * I - S, tol=np.inf) < -tol:
            return signs
    return None


class TestSignSweep:
    def test_only_violator_is_last_sign(self):
        # sum eps_j c I peaks at d c > 1 for the all-plus sign, the last one
        # in lexicographic order; every other sign stays at (d - 2) c < 1.
        d = 11
        assert 2 ** d > sets.SWEEP_CHUNK
        X = HermTuple([np.eye(2) / (d - 1)] * d)
        bad = sets.first_violated_sign(X, tol=1e-12)
        assert bad.dtype.kind == "i"
        assert bad.tolist() == [1] * d

    def test_first_of_several_violating_chunks(self):
        # Violation needs eps_0 = eps_1 = +1 and more plus than minus signs
        # among the other nine: every chunk past index 3 * 2^9 holds
        # violators, and the first is 1536 + 0b000011111.
        d = 11
        X = HermTuple([0.5 * np.eye(2)] * 2 + [0.01 * np.eye(2)] * (d - 2))
        bad = sets.first_violated_sign(X, tol=1e-12)
        k = int("".join("1" if s > 0 else "0" for s in bad), 2)
        assert k == 3 * 2 ** 9 + 0b11111
        assert k > 2 * sets.SWEEP_CHUNK
        assert bad.tolist() == _first_violated_sign_loop(X, 1e-12).tolist()

    def test_matches_per_sign_loop(self, rng):
        for trial in range(6):
            X = HermTuple(sampling.random_herm_contraction_tuple(9, 3, rng))
            X = X.scaled(0.15 + 0.1 * trial)
            want = _first_violated_sign_loop(X, 1e-9)
            got = sets.first_violated_sign(X, tol=1e-9)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)

    def test_early_violator_sweeps_in_bounded_memory(self):
        import tracemalloc

        # The first sign (all minus) already violates at d = 20; the sweep
        # must not build the 2^20 sign rows or their signed sums.
        X = HermTuple([-0.2 * np.eye(2)] * 20)
        tracemalloc.start()
        try:
            bad = sets.first_violated_sign(X, tol=1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bad.tolist() == [-1] * 20
        assert peak < 2 * 2 ** 20


class TestPolarDual:
    def test_cube_to_diamond(self):
        D = polar_dual_polytope(cube_polytope(2))
        want = diamond_polytope(2)
        assert np.allclose(np.sort(D.vertices, axis=0),
                           np.sort(want.vertices, axis=0))
        got = sorted(map(tuple, D.facet_normals.tolist()))
        expect = sorted(map(tuple, want.facet_normals.tolist()))
        assert np.allclose(got, expect)

    def test_diamond_to_cube(self):
        C = polar_dual_polytope(diamond_polytope(2))
        assert np.allclose(np.sort(C.vertices, axis=0),
                           np.sort(cube_polytope(2).vertices, axis=0))

    def test_bipolar_round_trip(self):
        V = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        P = Polytope(3, vertices=V)
        Q = polar_dual_polytope(P)
        R = polar_dual_polytope(Q)
        assert np.allclose(np.sort(R.vertices, axis=0), np.sort(V, axis=0),
                           atol=1e-9)

    def test_shifted_unit_simplex_round_trip(self):
        V0 = np.vstack([np.zeros(3), np.eye(3)])
        V = V0 - V0.mean(axis=0)
        P = Polytope(3, vertices=V)
        R = polar_dual_polytope(polar_dual_polytope(P))
        assert np.allclose(np.sort(R.vertices, axis=0), np.sort(V, axis=0),
                           atol=1e-9)

    def test_requires_zero_interior(self):
        V = np.vstack([np.zeros(3), np.eye(3)])  # 0 on the boundary
        with pytest.raises(sets.SetsError, match="not strictly inside"):
            polar_dual_polytope(Polytope(3, vertices=V))


class TestZeroInterior:
    def test_pauli_pair_margin_one(self):
        ok, margin = zero_interior_range(pauli_pair(), samples=256)
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-9)

    def test_identity_pair_fails(self):
        A = HermTuple([np.eye(2), np.eye(2)])
        ok, margin = zero_interior_range(A)
        assert not ok
        assert margin < 0

    def test_zero_tuple_fails(self):
        A = HermTuple([np.zeros((2, 2))])
        ok, margin = zero_interior_range(A)
        assert not ok


class TestGradedInvariants:
    def test_level1_collapse(self, rng):
        P = cube_polytope(2)
        for _ in range(10):
            x = rng.uniform(-1.4, 1.4, size=2)
            X = HermTuple([np.array([[x[0]]]), np.array([[x[1]]])])
            inside = P.contains_point(x)
            assert wmax_member(X, P) == inside
            res = wmin_member(X, P)
            assert (res.status is Status.FEASIBLE) == inside

    def test_monotonicity(self, rng):
        small = diamond_polytope(2)
        big = cube_polytope(2)
        assert all(point_in_hull(big.vertices, v) for v in small.vertices)
        for _ in range(5):
            X = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
            if wmin_member(X, small).status is Status.FEASIBLE:
                assert wmin_member(X, big).status is Status.FEASIBLE
            if wmax_member(X, small):
                assert wmax_member(X, big)

    def test_normal_tuple_iff_spectrum_inside(self, rng):
        P = diamond_polytope(2)
        inside = HermTuple([np.diag([0.5, -0.25]), np.diag([0.25, 0.5])])
        outside = HermTuple([np.diag([0.9, 0.0]), np.diag([0.9, 0.0])])
        for X, want in ((inside, True), (outside, False)):
            pts = np.column_stack([np.diag(np.asarray(M).real) for M in X])
            spectrum_in = all(P.contains_point(p) for p in pts)
            assert spectrum_in == want
            assert wmax_member(X, P) == want
            assert (wmin_member(X, P).status is Status.FEASIBLE) == want

    def test_containment_chain(self, rng):
        # Members of the smallest set over an inscribed polytope pass the
        # quadratic ball, then the tensor ball.
        for d in (2, 3, 4):
            dirs = sampling.sphere_points(d, 6, rng)
            for _ in range(4):
                n = int(rng.integers(1, 4))
                K = random_povm(n, dirs.shape[0], rng)
                X = HermTuple([
                    sum(dirs[j, i] * K[j] for j in range(dirs.shape[0]))
                    for i in range(d)
                ])
                assert ball_member(X, tol=1e-9)
                assert selfdual_member(X, tol=1e-9)

    def test_wmax_bounded_by_box_radius(self, rng):
        # Any polytope inside [-r, r]^d forces wmax members below norm r.
        P = diamond_polytope(3)   # inside the unit cube
        r = 1.0
        for _ in range(5):
            H = HermTuple(sampling.random_herm_contraction_tuple(3, 2, rng))
            lo, hi = 0.0, 4.0
            for _ in range(40):
                mid = (lo + hi) / 2
                if wmax_member(H.scaled(mid), P, tol=0.0):
                    lo = mid
                else:
                    hi = mid
            boundary = H.scaled(lo)
            assert max(boundary.norms()) <= r + 1e-6
