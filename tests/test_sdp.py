import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    convex_weights_hold,
    frob_blocks_loop,
    pauli_pair,
    povm_constraint_residual,
    random_isometry,
)
from matconv import sampling, sdp
from matconv.sdp import (
    BlockPsdProblem,
    ConstraintMap,
    Status,
    affine_projector_povm,
    dykstra_solve,
    hull_weights,
    povm_constraints,
)
from matconv.sets import HermTuple, cube_polytope, diamond_polytope, wmin_member
from matconv.ucp import cc_exists, ccp_exists, relax_cube, ucp_exists

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

        cmap = ConstraintMap(np.ones((1, 2)), np.eye(2)[None])
        res = dykstra_solve(BlockPsdProblem(cmap, project))
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

    def test_psd_project_matches_per_block_clipping(self, rng):
        A = (rng.standard_normal((6, 3, 3))
             + 1j * rng.standard_normal((6, 3, 3)))
        K = A + A.conj().swapaxes(1, 2)
        K[:2] = A[:2] @ A[:2].conj().swapaxes(1, 2)     # already PSD
        got, low = sdp.psd_project(K)
        assert low.shape == (6, 3)
        for B, P, v in zip(K, got, low):
            H = (B + B.conj().T) / 2.0
            w, Q = np.linalg.eigh(H)
            if w[0] >= 0.0:
                want = H
            else:
                R = (Q * np.clip(w, 0.0, None)) @ Q.conj().T
                want = (R + R.conj().T) / 2.0
            assert P.tobytes() == want.tobytes()
            assert v.tobytes() == Q[:, 0].tobytes()

    @pytest.mark.parametrize("N, n, scale", [
        (1, 1, 1.0), (7, 3, 1e-150), (64, 4, 1.0), (256, 4, 1e2),
        (512, 36, 1e150), (33, 36, 1e-8),
    ])
    def test_frob_matches_per_block_norms(self, rng, N, n, scale):
        K = scale * 10.0 ** rng.uniform(-3, 3, (N, 1, 1)) * (
            rng.standard_normal((N, n, n))
            + 1j * rng.standard_normal((N, n, n)))
        K[::5] = 0.0                                     # zero blocks
        with np.errstate(over="ignore"):     # both overflow to inf at 1e150
            for S in (K, K.real, K.real + 0j, np.ascontiguousarray(K.real)):
                assert sdp._frob(S) == frob_blocks_loop(S)

    def test_affine_side_test_runs_no_eigensolve_when_screened(
            self, monkeypatch):
        # A 0.9-scaled Hermitian contraction tuple near the boundary of
        # Wmin(cube), 64 blocks, capped at 50 iterations: the solve ends
        # undecided, so every eigvalsh call is a separation candidate's or
        # its certify's; the Rayleigh screen rules out every affine-side
        # acceptance without one.
        rng = np.random.default_rng(3)
        X = []
        for _ in range(6):
            H = sampling.random_herm(3, rng)
            X.append(0.9 * H / np.abs(np.linalg.eigvalsh(H)).max())
        calls = {"eigvalsh": 0, "separation": 0, "certify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(sdp, "_separation",
                            counted("separation", sdp._separation))
        monkeypatch.setattr(sdp.ConstraintMap, "certify",
                            counted("certify", sdp.ConstraintMap.certify))
        res = wmin_member(HermTuple(X), cube_polytope(6), max_iter=50)
        assert res.status is Status.UNDECIDED and res.iterations == 50
        assert calls["separation"] == 5
        assert calls["eigvalsh"] == calls["separation"] + calls["certify"]

    def test_deterministic(self):
        X = pauli_pair()
        r1 = wmin_member(X, diamond_polytope(2))
        r2 = wmin_member(X, diamond_polytope(2))
        assert r1.iterations == r2.iterations
        assert r1.residual == r2.residual


def povm_projector(vertices, X):
    return affine_projector_povm(povm_constraints(vertices, X))


class TestAffineProjectorPovm:
    def test_two_point_scalar_symmetry(self):
        project = povm_projector(np.array([[-1.0], [1.0]]),
                                 [np.zeros((1, 1))])
        blocks = project([np.zeros((1, 1)), np.zeros((1, 1))])
        assert np.allclose(blocks[0], [[0.5]])
        assert np.allclose(blocks[1], [[0.5]])

    def test_scalar_tuple_at_vertex(self):
        P = cube_polytope(2)
        X = [np.array([[1.0]]), np.array([[1.0]])]
        project = povm_projector(P.vertices, X)
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
        project = povm_projector(P.vertices, X)
        out = project([np.zeros((2, 2))] * 4)
        for B in out:
            assert np.allclose(B, np.eye(2) / 4, atol=1e-12)

    def test_idempotent_and_distance_minimizing(self, rng):
        P = cube_polytope(2)
        X = [np.diag([0.3, -0.2]).astype(complex)] * 2
        project = povm_projector(P.vertices, X)
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
        cmap = povm_constraints(verts, [np.array([[0.5]]),
                                        np.array([[0.2]])])
        short = cmap.inconsistency("off the hull")
        assert short.status is Status.INFEASIBLE and short.iterations == 0
        assert short.message == "off the hull"


class TestOneConstraintMap:
    """Each feasibility query describes its affine set once: one
    ``ConstraintMap`` gives the projector, the Farkas short cut, the
    certificate check and the witness re-check."""

    @staticmethod
    def queries(rng):
        A = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng))
        W = random_isometry(8, 2, rng)
        B = HermTuple([W.conj().T @ np.kron(M, np.eye(4)) @ W for M in A])
        far = HermTuple([3.0 * np.asarray(M) for M in pauli_pair()])
        return [
            ("ucp feasible", lambda: ucp_exists(A, B)),
            ("ucp infeasible", lambda: ucp_exists(A, far)),
            ("ucp short cut", lambda: ucp_exists(
                HermTuple([np.zeros((2, 2))]), HermTuple([np.eye(2)]))),
            ("ccp", lambda: ccp_exists(A, B)),
            ("cc", lambda: cc_exists(A, far)),
            ("wmin feasible", lambda: wmin_member(
                pauli_pair().scaled(0.5), cube_polytope(2))),
            ("wmin infeasible", lambda: wmin_member(
                pauli_pair(), diamond_polytope(2))),
            ("relax_cube", lambda: relax_cube(pauli_pair())),
        ]

    def test_one_build_per_query(self, rng, monkeypatch):
        builds = []
        init = ConstraintMap.__post_init__

        def counted(cmap):
            builds.append(cmap)
            init(cmap)

        monkeypatch.setattr(ConstraintMap, "__post_init__", counted)
        for name, query in self.queries(rng):
            builds.clear()
            query()
            assert len(builds) == 1, name


class TestLpFeasible:
    def test_barycenter_of_simplex(self):
        V = SIMPLEX_VERTICES
        bary = V.mean(axis=0)
        lam = hull_weights(V, bary)
        assert lam is not None
        assert np.allclose(V.T @ lam, bary, atol=1e-9)
        assert abs(lam.sum() - 1.0) <= 1e-9
        assert np.all(lam >= -1e-12)

    def test_point_outside_cube_hull(self):
        verts = cube_polytope(3).vertices
        assert hull_weights(verts, np.array([2.0, 0.0, 0.0])) is None

    def test_simplex_vertex_is_member(self):
        lam = hull_weights(SIMPLEX_VERTICES, np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(lam, [1.0, 0.0, 0.0, 0.0])

    def test_against_scipy_oracle(self, rng):
        for trial in range(25):
            n, dim = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            P = rng.standard_normal((n, dim))
            if trial % 2 == 0:
                x = P.T @ rng.dirichlet(np.ones(n))  # inside by construction
            else:
                x = rng.standard_normal(dim)
            lam = hull_weights(P, x)
            ref = linprog(np.zeros(n), A_eq=np.vstack([np.ones(n), P.T]),
                          b_eq=np.concatenate([[1.0], x]),
                          bounds=[(0, None)] * n, method="highs")
            assert (lam is not None) == ref.success
            if ref.success:
                assert convex_weights_hold(P, x, lam)
