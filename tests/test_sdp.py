import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import pauli_pair
from matconv import sdp
from matconv.sdp import (
    BlockPsdProblem,
    LpProblem,
    Status,
    affine_projector_povm,
    dykstra_solve,
    lp_feasible,
    point_in_hull,
    povm_constraint_residual,
)
from matconv.sets import HermTuple, cube_polytope, diamond_polytope, wmin_member

SIMPLEX_VERTICES = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])


class TestDykstra:
    def test_sum_to_identity_only(self):
        # Two 2x2 blocks constrained only by K_1 + K_2 = I; the projection of
        # the zero start is (I/2, I/2), which is already PSD.
        def project(blocks):
            gap = (np.eye(2) - blocks[0] - blocks[1]) / 2.0
            return [blocks[0] + gap, blocks[1] + gap]

        res = dykstra_solve(BlockPsdProblem([2, 2], project))
        assert res.status is Status.FEASIBLE
        assert np.allclose(res.witness[0], np.eye(2) / 2, atol=1e-8)
        assert res.residual <= 1e-8

    def test_wmin_cube_for_commuting_diagonals(self):
        X = HermTuple([np.diag([1.0, -1.0]), np.diag([1.0, 1.0])])
        res = wmin_member(X, cube_polytope(2))
        assert res.status is Status.FEASIBLE
        chk = povm_constraint_residual(cube_polytope(2).vertices, list(X),
                                       res.witness)
        assert chk <= 1e-7

    def test_wmin_diamond_rejects_pauli_with_oracle(self):
        X = pauli_pair()
        res = wmin_member(X, diamond_polytope(2))
        assert res.status is Status.INFEASIBLE
        # Oracle: the tensor norm of the pair is 2 > 1, while every member of
        # the smallest matrix convex set over the l1 ball lies in the tensor
        # ball (l1 ball inside Euclidean ball, then the containment chain).
        M = sum(np.kron(np.asarray(Mj), np.conj(np.asarray(Mj))) for Mj in X)
        assert np.abs(np.linalg.eigvalsh(M)).max() == pytest.approx(2.0)

    def test_unequal_block_sizes_rejected(self):
        with pytest.raises(sdp.SdpError, match="one size"):
            dykstra_solve(BlockPsdProblem([2, 3], lambda blocks: blocks))

    def test_psd_project_matches_per_block_clipping(self, rng):
        A = (rng.standard_normal((6, 3, 3))
             + 1j * rng.standard_normal((6, 3, 3)))
        K = A + A.conj().swapaxes(1, 2)
        K[:2] = A[:2] @ A[:2].conj().swapaxes(1, 2)     # already PSD
        got = sdp.psd_project(K)
        for B, P in zip(K, got):
            H = (B + B.conj().T) / 2.0
            w, Q = np.linalg.eigh(H)
            if w[0] >= 0.0:
                want = H
            else:
                R = (Q * np.clip(w, 0.0, None)) @ Q.conj().T
                want = (R + R.conj().T) / 2.0
            assert P.tobytes() == want.tobytes()

    def test_deterministic(self):
        X = pauli_pair()
        r1 = wmin_member(X, diamond_polytope(2))
        r2 = wmin_member(X, diamond_polytope(2))
        assert r1.iterations == r2.iterations
        assert r1.residual == r2.residual


class TestAffineProjectorPovm:
    def test_two_point_scalar_symmetry(self):
        project = affine_projector_povm(np.array([[-1.0], [1.0]]),
                                        [np.zeros((1, 1))])
        blocks = project([np.zeros((1, 1)), np.zeros((1, 1))])
        assert np.allclose(blocks[0], [[0.5]])
        assert np.allclose(blocks[1], [[0.5]])

    def test_scalar_tuple_at_vertex(self):
        P = cube_polytope(2)
        X = [np.array([[1.0]]), np.array([[1.0]])]
        project = affine_projector_povm(P.vertices, X)
        # The indicator of the (1, 1) vertex is feasible.
        idx = int(np.argmin(np.linalg.norm(P.vertices - 1.0, axis=1)))
        blocks = [np.zeros((1, 1))] * 4
        blocks[idx] = np.eye(1)
        out = project(blocks)
        assert povm_constraint_residual(P.vertices, X, out) <= 1e-12
        assert np.allclose(out[idx], 1.0, atol=1e-12)

    def test_zero_tuple_uniform(self):
        P = diamond_polytope(2)
        X = [np.zeros((2, 2)), np.zeros((2, 2))]
        project = affine_projector_povm(P.vertices, X)
        out = project([np.zeros((2, 2))] * 4)
        for B in out:
            assert np.allclose(B, np.eye(2) / 4, atol=1e-12)

    def test_idempotent_and_distance_minimizing(self, rng):
        P = cube_polytope(2)
        X = [np.diag([0.3, -0.2]).astype(complex)] * 2
        project = affine_projector_povm(P.vertices, X)
        start = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                 for _ in range(4)]
        start = [(B + B.conj().T) / 2 for B in start]
        once = project(start)
        twice = project(once)
        gap = max(np.linalg.norm(a - b) for a, b in zip(once, twice))
        assert gap <= 1e-12
        # Nearest point: no feasible candidate may be closer to the start.
        d_once = np.sqrt(sum(np.linalg.norm(a - b) ** 2
                             for a, b in zip(start, once)))
        for _ in range(20):
            delta = [rng.standard_normal((2, 2)) for _ in range(4)]
            delta = [(D + D.T) / 2 for D in delta]
            cand = project([a + 0.5 * D for a, D in zip(start, delta)])
            d_cand = np.sqrt(sum(np.linalg.norm(a - b) ** 2
                                 for a, b in zip(start, cand)))
            assert d_once <= d_cand + 1e-10

    def test_inconsistent_short_circuit(self):
        # One vertex repeated: rank-deficient rows, X off the vertex line.
        verts = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(sdp.InconsistentConstraintsError):
            affine_projector_povm(verts, [np.array([[0.5]]),
                                          np.array([[0.2]])])


class TestLpFeasible:
    def test_barycenter_of_simplex(self):
        V = SIMPLEX_VERTICES
        bary = V.mean(axis=0)
        A = np.vstack([np.ones((1, 4)), V.T])
        b = np.concatenate([[1.0], bary])
        ok, x = lp_feasible(LpProblem(A, b))
        assert ok
        assert np.allclose(A @ x, b, atol=1e-9)
        assert np.all(x >= -1e-12)

    def test_point_outside_cube_hull(self):
        verts = cube_polytope(3).vertices
        assert not point_in_hull(verts, np.array([2.0, 0.0, 0.0]))

    def test_simplex_vertex_is_member(self):
        assert point_in_hull(SIMPLEX_VERTICES, np.array([1.0, 1.0, 1.0]))

    def test_free_variables(self):
        # x + y = 1 with y free and x >= 0 is feasible even for y < 0.
        ok, x = lp_feasible(LpProblem(np.array([[1.0, 1.0]]), np.array([3.0]),
                                      nonneg=np.array([True, False])))
        assert ok
        assert abs(x.sum() - 3.0) <= 1e-9

    def test_against_scipy_oracle(self, rng):
        for trial in range(25):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            A = rng.standard_normal((m, n))
            if trial % 2 == 0:
                x0 = rng.uniform(0, 1, size=n)     # feasible by construction
                b = A @ x0
            else:
                b = rng.standard_normal(m)
            ok, x = lp_feasible(LpProblem(A, b))
            ref = linprog(np.zeros(n), A_eq=A, b_eq=b,
                          bounds=[(0, None)] * n, method="highs")
            assert ok == ref.success
            if ok:
                assert np.allclose(A @ x, b, atol=1e-8)
                assert np.all(x >= -1e-9)
