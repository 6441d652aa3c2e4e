import tracemalloc

import numpy as np
import pytest

from conftest import (
    pauli_pair,
    random_gen_contraction_tuple,
    random_isometry,
    random_povm,
    spectra_match,
)
from matconv import dilation
from matconv import numkernel as nk
from matconv import sampling
from matconv.dilation import (
    FLIP_D_CAP,
    Dilation,
    DilationError,
    LambdaFamily,
    Povm,
    coordinate_projection_dilation,
    cube_to_diamond_dilation,
    decompose_identity,
    diamond_dilation,
    dilation_residuals,
    finite_normal_dilation,
    flip_dilation,
    flip_sign_family,
    frame_dilation,
    joint_spectrum_rank_one,
    lambda_blocks,
    lambda_dilation,
    naimark_dilation,
    nonsa_flip_dilation,
)
from matconv.sdp import Status, point_in_hull, povm_constraint_residual
from matconv.sets import GenTuple, HermTuple, cube_polytope, diamond_polytope, wmin_member
from matconv.witnesses import clifford_tuple

SIMPLEX_V = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])


def assert_tight_dilation(D: Dilation, commut=1e-9, compress=1e-9):
    assert D.residuals["isometry"] <= 1e-10
    assert D.residuals["commutator"] <= commut
    assert D.residuals["compression"] <= compress


class TestFlipDilation:
    def test_d1_is_identity_ampliation(self, rng):
        X = HermTuple(sampling.random_herm_contraction_tuple(1, 3, rng))
        D = flip_dilation(X)
        assert D.dim == 3
        assert np.allclose(D.T[0], X[0])
        assert np.allclose(D.V, np.eye(3))

    def test_pauli_pair_exact(self):
        X = pauli_pair()
        D = flip_dilation(X)
        assert D.dim == 4
        for T in D.T:
            assert nk.opnorm(T) == pytest.approx(np.sqrt(2.0))
        assert_tight_dilation(D, commut=1e-12, compress=1e-12)

    def test_dimension_formula_and_bounds(self, rng):
        for d in (1, 2, 3, 4):
            n = int(rng.integers(1, 5))
            X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
            D = flip_dilation(X)
            assert D.dim == n * 2 ** (d - 1)
            assert D.residuals["max_norm"] <= d * (1 + 1e-10)
            assert_tight_dilation(D)

    def test_rejects_noncontraction_with_index(self):
        X = HermTuple([np.zeros((2, 2)), 1.5 * np.eye(2)])
        with pytest.raises(DilationError, match="entry 1"):
            flip_dilation(X)

    def test_joint_spectrum_matches_sign_pattern_rule(self, rng):
        # Spectrum = {mu * u}: u a sign vector with leading +1, mu an
        # eigenvalue of the corresponding signed sum.  Cross-checked against
        # the joint diagonalizer.
        X = HermTuple(sampling.random_herm_contraction_tuple(3, 2, rng))
        D = flip_dilation(X)
        pts = []
        for bits in np.ndindex(2, 2):
            u = np.array([1.0, bits[0] * 2 - 1, bits[1] * 2 - 1])
            S = sum(ui * np.asarray(Xi) for ui, Xi in zip(u, X))
            for mu in np.linalg.eigvalsh((S + S.conj().T) / 2):
                pts.append(mu * u)
        want = nk.JointSpectrum(points=np.array(pts))
        _, got = nk.simultaneous_diagonalize(D.T, tol=1e-8, seed=3)
        assert spectra_match(want, got, tol=1e-8)
        fam = flip_sign_family(3)
        assert spectra_match(joint_spectrum_rank_one(fam, X), got, tol=1e-8)


class TestNonsaFlip:
    def test_scalar_unimodular(self):
        u = np.exp(0.3j)
        X = GenTuple([np.array([[u]])])
        D = nonsa_flip_dilation(X)
        assert D.residuals["compression"] <= 1e-12
        assert D.residuals["normality"] <= 1e-12

    def test_nilpotent_contraction(self):
        X = GenTuple([np.array([[0.0, 1.0], [0.0, 0.0]])])
        D = nonsa_flip_dilation(X)
        assert D.residuals["max_norm"] <= 2 * np.sqrt(2) + 1e-9
        assert D.residuals["compression"] <= 1e-12
        assert D.residuals["normality"] <= 1e-9
        assert D.residuals["commutator"] <= 1e-9

    def test_random_pairs(self, rng):
        X = GenTuple(random_gen_contraction_tuple(2, 2, rng))
        D = nonsa_flip_dilation(X)
        assert D.residuals["max_norm"] <= 4 * np.sqrt(2) + 1e-9
        assert D.residuals["normality"] <= 1e-9
        assert_tight_dilation(D)


class TestCoordinateProjectionDilation:
    def test_d1_norm_bound(self, rng):
        X = GenTuple(random_gen_contraction_tuple(1, 3, rng))
        D = coordinate_projection_dilation(X)
        assert D.residuals["max_norm"] <= 2.0 + 1e-9
        assert D.residuals["normality"] <= 1e-9
        assert_tight_dilation(D)

    def test_scalar_on_circle_spectrum_in_scaled_disc(self):
        u = np.exp(1.2j)
        X = GenTuple([np.array([[u]])])
        D = coordinate_projection_dilation(X)
        _, spec = nk.joint_spectrum_normal(D.T)
        assert np.max(np.abs(spec.points)) <= 2.0 + 1e-9
        assert D.residuals["compression"] <= 1e-12

    def test_random_pair(self, rng):
        X = GenTuple(random_gen_contraction_tuple(2, 2, rng))
        D = coordinate_projection_dilation(X)
        assert D.residuals["max_norm"] <= 4.0 + 1e-9
        assert_tight_dilation(D)


class TestLambdaFamilies:
    def test_coordinate_family_weights(self):
        d = 3
        lams = [d * np.outer(np.eye(d)[m], np.eye(d)[m]) for m in range(d)]
        fam = decompose_identity(lams)
        assert np.allclose(fam.betas, np.full(d, 1 / d), atol=1e-9)

    def test_simplex_family_weights(self):
        # The four rank-one corner matrices sum to 4I.
        lams = [np.outer(v, v) for v in SIMPLEX_V]
        assert np.allclose(sum(lams), 4 * np.eye(3))
        fam = decompose_identity(lams)
        assert np.allclose(fam.betas, np.full(4, 0.25), atol=1e-9)

    def test_plus_minus_family_weights(self):
        lams = [np.array([[1.0, 1.0], [1.0, 1.0]]),
                np.array([[1.0, -1.0], [-1.0, 1.0]])]
        fam = decompose_identity(lams)
        assert np.allclose(fam.betas, [0.5, 0.5], atol=1e-9)

    def test_identity_not_in_hull(self):
        lams = [np.outer(np.eye(2)[0], np.eye(2)[0])]
        with pytest.raises(DilationError, match="identity not in convex hull"):
            decompose_identity(lams)

    def test_rank_one_validation(self):
        with pytest.raises(ValueError, match="rank one"):
            LambdaFamily(np.array([np.eye(2)]), np.array([1.0]))
        lams = np.stack([np.outer([1.0, 0.0], [1.0, 0.0]), np.eye(2),
                         np.eye(2)])
        with pytest.raises(ValueError, match="member 1 is not"):
            LambdaFamily(lams, np.full(3, 1 / 3))


class TestLambdaDilation:
    def test_coordinate_family_block_structure(self, rng):
        d = 2
        X = HermTuple(sampling.random_herm_contraction_tuple(d, 2, rng))
        lams = np.stack([d * np.outer(np.eye(d)[m], np.eye(d)[m])
                         for m in range(d)])
        fam = LambdaFamily(lams, np.full(d, 1 / d))
        blocks = lambda_blocks(X, fam)
        for p in range(d):
            for i in range(d):
                want = d * np.asarray(X[p]) if i == p else np.zeros((2, 2))
                assert np.allclose(blocks[p][i], want)
        D = lambda_dilation(X, fam)
        assert_tight_dilation(D, compress=1e-10)

    def test_flip_family_spectrum_agreement(self, rng):
        X = HermTuple(sampling.random_herm_contraction_tuple(2, 3, rng))
        fam = flip_sign_family(2)
        D1 = flip_dilation(X)
        D2 = lambda_dilation(X, fam)
        _, s1 = nk.simultaneous_diagonalize(D1.T, seed=1)
        _, s2 = nk.simultaneous_diagonalize(D2.T, seed=1)
        assert spectra_match(s1, s2, tol=1e-8)

    def test_scalar_simplex_points(self):
        lams = np.stack([np.outer(v, v) for v in SIMPLEX_V])
        fam = LambdaFamily(lams, np.full(4, 0.25))
        x = np.array([0.2, -0.1, 0.3])
        X = HermTuple([np.array([[c]]) for c in x])
        spec = joint_spectrum_rank_one(fam, X)
        want = np.array([v * float(v @ x) for v in SIMPLEX_V])
        got = np.asarray(spec.points, dtype=float)
        assert spectra_match(
            nk.JointSpectrum(points=want), nk.JointSpectrum(points=got),
            tol=1e-10)
        D = lambda_dilation(X, fam)
        assert D.residuals["compression"] <= 1e-12


class TestJointSpectrumRankOne:
    def test_coordinate_family_points(self, rng):
        d = 2
        X = HermTuple(sampling.random_herm_contraction_tuple(d, 2, rng))
        lams = np.stack([d * np.outer(np.eye(d)[m], np.eye(d)[m])
                         for m in range(d)])
        fam = LambdaFamily(lams, np.full(d, 1 / d))
        spec = joint_spectrum_rank_one(fam, X)
        want = []
        for m in range(d):
            for mu in np.linalg.eigvalsh(np.asarray(X[m])):
                want.append(d * mu * np.eye(d)[m])
        assert spectra_match(
            spec, nk.JointSpectrum(points=np.array(want)), tol=1e-10)

    def test_scalar_points_are_lambda_images(self):
        lams = np.stack([np.outer(v, v) for v in SIMPLEX_V])
        fam = LambdaFamily(lams, np.full(4, 0.25))
        x = np.array([0.1, 0.2, -0.3])
        X = HermTuple([np.array([[c]]) for c in x])
        spec = joint_spectrum_rank_one(fam, X)
        want = np.array([lam @ x for lam in lams])
        assert spectra_match(
            spec, nk.JointSpectrum(points=want), tol=1e-10)


class TestDiamondDilation:
    def test_scalar_vertex(self):
        X = HermTuple([np.array([[0.7]]), np.array([[0.2]])])
        D = diamond_dilation(X)
        _, spec = nk.simultaneous_diagonalize(D.T, seed=0)
        assert np.max(np.abs(spec.points)) <= 1 + 1e-9

    def test_clifford_half(self):
        B = clifford_tuple(2).as_herm_tuple()
        D = diamond_dilation(B.scaled(0.5))
        assert D.residuals["max_norm"] <= 1 + 1e-9
        assert_tight_dilation(D)

    def test_precondition_failure_names_sign(self):
        # The (1, 1) signed sum is diag(2, 0), with eigenvalue 2 > 1.
        X = HermTuple([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        with pytest.raises(DilationError, match=r"\[1, 1\]"):
            diamond_dilation(X)

    def test_boundary_diagonal_pair_accepted(self):
        # Every signed sum of this pair tops out exactly at 1.
        X = HermTuple([np.diag([1.0, 0.0]), np.diag([0.0, -1.0])])
        D = diamond_dilation(X)
        assert D.residuals["max_norm"] <= 1 + 1e-12

    def test_spectrum_in_cube(self, rng):
        for d in (2, 3):
            X = HermTuple(sampling.random_sign_sum_bounded_tuple(
                d, int(rng.integers(1, 4)), rng))
            D = diamond_dilation(X)
            _, spec = nk.simultaneous_diagonalize(D.T, seed=7)
            assert np.max(np.abs(spec.points)) <= 1 + 1e-8

    def test_two_routes_agree(self, rng):
        # The dilation's spectral decomposition converts into a cube-vertex
        # witness for the feasibility route, and the solver agrees.
        X = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
        D = diamond_dilation(X)
        U, spec = nk.simultaneous_diagonalize(D.T, seed=11)
        P = cube_polytope(2)
        Ks = [np.zeros((X.n, X.n), dtype=complex) for _ in range(4)]
        from matconv.sdp import LpProblem, lp_feasible
        for col in range(D.dim):
            pt = spec.points[col]
            # Convex coordinates of the spectrum point over the vertices.
            A = np.vstack([np.ones(4), P.vertices.T])
            ok, theta = lp_feasible(
                LpProblem(A, np.concatenate([[1.0], pt])))
            assert ok
            theta = np.clip(theta, 0, None)
            theta /= theta.sum()
            u = U[:, col]
            rank1 = np.outer(u, u.conj())
            K1 = D.V.conj().T @ rank1 @ D.V
            for v in range(4):
                Ks[v] += theta[v] * K1
        assert povm_constraint_residual(P.vertices, list(X), Ks) <= 1e-7
        assert min(np.linalg.eigvalsh((K + K.conj().T) / 2)[0]
                   for K in Ks) >= -1e-9
        assert wmin_member(X, P).status is Status.FEASIBLE


class TestCubeToDiamond:
    def test_sign_sums_and_spectrum(self, rng):
        for d in (2, 3):
            X = HermTuple(sampling.random_herm_contraction_tuple(
                d, int(rng.integers(1, 4)), rng))
            D = cube_to_diamond_dilation(X)
            for eps in np.ndindex(*(2,) * d):
                signs = np.array(eps) * 2 - 1
                S = sum(float(s) * T for s, T in zip(signs, D.T))
                assert nk.max_eig(S, tol=np.inf) <= d + 1e-9
            _, spec = nk.simultaneous_diagonalize(D.T, seed=13)
            l1 = np.abs(spec.points).sum(axis=1)
            assert np.max(l1) <= d + 1e-8
            for pt in spec.points:
                assert point_in_hull(d * diamond_polytope(d).vertices, pt)
            assert_tight_dilation(D, compress=1e-10)

    def test_scalar_and_clifford(self):
        x = HermTuple([np.array([[0.9]]), np.array([[-1.0]])])
        D = cube_to_diamond_dilation(x)
        _, spec = nk.simultaneous_diagonalize(D.T, seed=1)
        assert np.max(np.abs(spec.points).sum(axis=1)) <= 2 + 1e-12
        B = clifford_tuple(2).as_herm_tuple()
        D = cube_to_diamond_dilation(B)
        for eps in np.ndindex(2, 2):
            signs = np.array(eps) * 2 - 1
            S = sum(float(s) * T for s, T in zip(signs, D.T))
            assert nk.max_eig(S, tol=np.inf) <= 2 + 1e-9

    def test_precondition(self):
        X = HermTuple([1.2 * np.eye(2), np.zeros((2, 2))])
        with pytest.raises(DilationError, match="contraction"):
            cube_to_diamond_dilation(X)


class TestFrameDilation:
    def test_orthonormal_basis_recovers_coordinate_constants(self, rng):
        d = 3
        X = HermTuple(sampling.random_herm_contraction_tuple(d, 2, rng))
        D = frame_dilation(X, np.eye(d))
        assert D.residuals["sigma"] == pytest.approx(1.0)
        assert D.residuals["kappa"] == pytest.approx(1.0 / d)
        assert D.scale == pytest.approx(1.0 / d)
        assert D.residuals["compression"] <= 1e-9

    def test_cube_corner_frame_kappa_one(self, rng):
        d = 2
        corners = np.array(list(np.ndindex(2, 2)), dtype=float) * 2 - 1
        X = HermTuple(sampling.random_sign_sum_bounded_tuple(d, 2, rng))
        D = frame_dilation(X, corners)
        assert D.residuals["sigma"] == pytest.approx(2.0 ** d)
        assert D.residuals["kappa"] == pytest.approx(1.0)
        _, spec = nk.simultaneous_diagonalize(D.T, seed=2)
        K = np.vstack([corners, -corners])
        for pt in spec.points:
            assert point_in_hull(K, pt)

    def test_pentagon_kappa_half(self, rng):
        k = np.arange(5)
        pent = np.column_stack([np.cos(2 * np.pi * k / 5),
                                np.sin(2 * np.pi * k / 5)])
        X = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng,
                                                             shrink=0.5))
        D = frame_dilation(X, pent)
        assert D.residuals["sigma"] == pytest.approx(2.5, abs=1e-12)
        assert D.residuals["kappa"] == pytest.approx(0.5, abs=1e-12)
        _, spec = nk.simultaneous_diagonalize(D.T, seed=3)
        K = np.vstack([pent, -pent])
        for pt in spec.points:
            assert point_in_hull(K, pt)

    def test_rejects_untight_vectors(self):
        X = HermTuple([np.zeros((1, 1)), np.zeros((1, 1))])
        with pytest.raises(DilationError, match="tight"):
            frame_dilation(X, np.array([[1.0, 0.0], [0.0, 1.0],
                                        [1.0, 1.0]]))

    def test_rejects_tuple_outside_dual(self):
        X = HermTuple([1.5 * np.eye(2), np.zeros((2, 2))])
        with pytest.raises(DilationError, match="dual inequality"):
            frame_dilation(X, np.eye(2))


class TestNaimark:
    def test_single_full_effect(self):
        p = Povm(atoms=np.array([[1.0]]), effects=[np.eye(2)])
        nd = naimark_dilation(p)
        assert np.allclose(nd.projections[0], np.eye(2))
        assert np.allclose(nd.isometry, np.eye(2))

    def test_two_half_effects_scalar(self):
        p = Povm(atoms=np.array([[1.0], [-1.0]]),
                 effects=[np.eye(1) / 2, np.eye(1) / 2])
        nd = naimark_dilation(p)
        W = nd.isometry
        assert np.allclose(W, np.array([[1], [1]]) / np.sqrt(2))
        for j in range(2):
            got = W.conj().T @ nd.projections[j] @ W
            assert np.allclose(got, 0.5)

    def test_random_povms(self, rng):
        for _ in range(10):
            n, M = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            effs = random_povm(n, M, rng)
            atoms = rng.standard_normal((M, 2))
            p = Povm(atoms=atoms, effects=effs)
            nd = naimark_dilation(p)
            S = np.zeros((n * M, n * M), dtype=complex)
            for j, E in enumerate(nd.projections):
                assert np.linalg.norm(E @ E - E) <= 1e-10
                assert np.linalg.norm(E - E.conj().T) <= 1e-10
                got = nd.isometry.conj().T @ E @ nd.isometry
                assert np.linalg.norm(got - effs[j]) <= 1e-9
                S += E
            assert np.linalg.norm(S - np.eye(n * M)) <= 1e-10
            assert np.linalg.norm(
                nd.isometry.conj().T @ nd.isometry - np.eye(n)) <= 1e-10

    def test_rejects_non_psd_effect(self):
        bad = [np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]
        with pytest.raises(ValueError, match="not PSD"):
            Povm(atoms=np.array([[0.0], [1.0]]), effects=bad)

    def test_wmin_witness_end_to_end(self, rng):
        # Feasibility witness -> projective dilation -> normal tuple whose
        # compression reproduces the original tuple.
        P = cube_polytope(2)
        picks = np.repeat(np.arange(4), 2)
        N = [np.diag(P.vertices[picks, i].astype(complex)) for i in range(2)]
        V = random_isometry(8, 2, rng)
        X = HermTuple([V.conj().T @ Ni @ V for Ni in N])
        res = wmin_member(X, P, tol_feas=1e-9)
        assert res.status is Status.FEASIBLE
        p = Povm(atoms=P.vertices, effects=res.witness, psd_tol=1e-7,
                 sum_tol=1e-7)
        Y, W = finite_normal_dilation(p)
        for i in range(2):
            got = W.conj().T @ Y[i] @ W
            assert np.linalg.norm(got - np.asarray(X[i])) <= 1e-7
        # Commuting and normal by construction (diagonal-times-projections).
        assert max(nk.opnorm(Y[0] @ Y[1] - Y[1] @ Y[0]),
                   nk.opnorm(Y[0] @ Y[0].conj().T
                             - Y[0].conj().T @ Y[0])) <= 1e-12


def test_residuals_recomputable(rng):
    X = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng))
    D = flip_dilation(X)
    rec = dilation_residuals(D.T, D.V, X, D.scale)
    for key, val in rec.items():
        assert D.residuals[key] == pytest.approx(val, abs=1e-14)


def _kron_reference(X, fam):
    """``T_i = sum_j X_j (x) diag(lam^(p)_ij)_p``, one Kronecker product per
    term added in j order, then symmetrized."""
    T = []
    for i in range(fam.d):
        Ti = np.zeros((X.n * fam.k, X.n * fam.k), dtype=complex)
        for j in range(fam.d):
            Ti += np.kron(np.asarray(X[j]), np.diag(fam.lambdas[:, i, j]))
        T.append((Ti + Ti.conj().T) / 2.0)
    return T


def _swap_reference(X):
    """The flip construction in the swap basis: ``T_1 = sum_j X_j (x) W_j``
    with ``W_1 = I`` and ``W_j`` the swap of factor j-1 of (C^2)^(d-1),
    ``T_i = T_1 (I (x) W_i)``, and V along the first basis vector."""
    d, n = X.d, X.n
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    Ws = [np.eye(2 ** (d - 1))]
    for slot in range(d - 1):
        W = np.eye(1)
        for m in range(d - 1):
            W = np.kron(W, swap if m == slot else np.eye(2))
        Ws.append(W)
    T1 = sum(np.kron(np.asarray(Xj), Wj) for Xj, Wj in zip(X, Ws))
    T = [T1 @ np.kron(np.eye(n), W) for W in Ws]
    e = np.zeros((2 ** (d - 1), 1))
    e[0] = 1.0
    return [(Ti + Ti.conj().T) / 2.0 for Ti in T], np.kron(np.eye(n), e)


def _parseval_family(d, rng):
    """``lam^(p) = (d / |r_p|^2) r_p r_p^T`` with weights ``|r_p|^2 / d``
    over the rows r_p of a random 2d x d isometry."""
    Q, _ = np.linalg.qr(rng.standard_normal((2 * d, d)))
    norms2 = np.sum(Q * Q, axis=1)
    lams = (d / norms2)[:, None, None] * Q[:, :, None] * Q[:, None, :]
    return LambdaFamily(lams, norms2 / d)


class TestRankOneBuilder:
    @pytest.mark.parametrize("family", ["sign", "coordinate", "parseval"])
    def test_matches_kron_reference_bytes(self, rng, family):
        for d in (1, 2, 3, 4):
            n = int(rng.integers(1, 4))
            X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
            if family == "sign":
                fam = flip_sign_family(d)
            elif family == "coordinate":
                fam = LambdaFamily(
                    np.stack([d * np.outer(np.eye(d)[m], np.eye(d)[m])
                              for m in range(d)]), np.full(d, 1 / d))
            else:
                fam = _parseval_family(d, rng)
            D = lambda_dilation(X, fam)
            for got, want in zip(D.T, _kron_reference(X, fam), strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_flip_is_swap_form_in_hadamard_basis(self, rng):
        # Column c of G is the swap's eigenvector with eigenvalue 2c - 1, the
        # sign that bit c stands for in the rows of flip_sign_family.
        G = np.array([[1.0, 1.0], [-1.0, 1.0]])
        for d in (1, 2, 3, 4, 5):
            n = int(rng.integers(1, 4))
            X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
            D = flip_dilation(X)
            H = np.eye(1)
            for _ in range(d - 1):
                H = np.kron(H, G)
            U = np.kron(np.eye(n), H / np.sqrt(2 ** (d - 1)))
            T_swap, V_swap = _swap_reference(X)
            for Ti, Si in zip(D.T, T_swap, strict=True):
                assert np.max(np.abs(U @ Ti @ U.T - Si)) <= 1e-12
            assert np.max(np.abs(U @ D.V - V_swap)) <= 1e-12

    def test_flip_family_rows_in_ndindex_order(self):
        fam = flip_sign_family(4)
        for p, bits in enumerate(np.ndindex(2, 2, 2)):
            u = np.concatenate([[1.0], np.asarray(bits, dtype=float) * 2 - 1])
            assert np.array_equal(fam.lambdas[p], np.outer(u, u))
        assert np.array_equal(fam.betas, np.full(8, 1 / 8))

    def test_cap_refused_before_any_sign_pattern(self):
        zero = np.zeros((1, 1))
        H = HermTuple([zero] * (FLIP_D_CAP + 1))
        G = GenTuple([zero] * (FLIP_D_CAP // 2 + 1))
        for build, X in ((flip_dilation, H), (diamond_dilation, H),
                         (nonsa_flip_dilation, G)):
            tracemalloc.start()
            try:
                with pytest.raises(DilationError, match="capped at d="):
                    build(X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, build.__name__


@pytest.mark.parametrize("name", [
    "flip", "diamond", "lambda", "cube_to_diamond", "frame", "nonsa_flip",
    "coordinate_projection"])
def test_each_dilation_verified_once(rng, monkeypatch, name):
    calls = []
    residuals = dilation.dilation_residuals

    def counting(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(dilation, "dilation_residuals", counting)
    H = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
    G = GenTuple(random_gen_contraction_tuple(2, 2, rng))
    build = {
        "flip": lambda: flip_dilation(H),
        "diamond": lambda: diamond_dilation(H),
        "lambda": lambda: lambda_dilation(H, flip_sign_family(2)),
        "cube_to_diamond": lambda: cube_to_diamond_dilation(H),
        "frame": lambda: frame_dilation(H, np.eye(2)),
        "nonsa_flip": lambda: nonsa_flip_dilation(G),
        "coordinate_projection": lambda: coordinate_projection_dilation(G),
    }[name]
    D = build()
    assert len(calls) == 1
    assert D.residuals["compression"] <= 1e-9
