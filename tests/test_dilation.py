import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    JointSpectrum,
    dense_residuals,
    pauli_pair,
    povm_constraint_residual,
    random_gen,
    random_isometry,
    simultaneous_diagonalize,
    spectra_match,
)
from matconv import dilation
from matconv import numkernel as nk
from matconv import sampling
from matconv.dilation import (
    DILATION_ENTRY_CAP,
    Dilation,
    DilationError,
    LambdaFamily,
    block_spectra,
    cube_to_diamond_dilation,
    decompose_identity,
    diamond_dilation,
    dilation_residuals,
    flip_dilation,
    flip_sign_family,
    frame_dilation,
    lambda_blocks,
    lambda_dilation,
)
from matconv.sdp import Status, hull_weights
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
        want = JointSpectrum(points=np.array(pts))
        _, got = simultaneous_diagonalize(D.T, tol=1e-8, seed=3)
        assert spectra_match(want, got, tol=1e-8)
        D = lambda_dilation(X, flip_sign_family(3))
        _, got = simultaneous_diagonalize(D.T, tol=1e-8, seed=3)
        assert spectra_match(want, got, tol=1e-8)


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
        _, s1 = simultaneous_diagonalize(D1.T, seed=1)
        _, s2 = simultaneous_diagonalize(D2.T, seed=1)
        assert spectra_match(s1, s2, tol=1e-8)

    def test_scalar_simplex_points(self):
        lams = np.stack([np.outer(v, v) for v in SIMPLEX_V])
        fam = LambdaFamily(lams, np.full(4, 0.25))
        x = np.array([0.2, -0.1, 0.3])
        X = HermTuple([np.array([[c]]) for c in x])
        D = lambda_dilation(X, fam)
        _, spec = simultaneous_diagonalize(D.T, seed=0)
        want = np.array([v * float(v @ x) for v in SIMPLEX_V])
        assert spectra_match(JointSpectrum(points=want), spec, tol=1e-10)
        assert D.residuals["compression"] <= 1e-12


class TestJointSpectrumRankOne:
    def test_coordinate_family_points(self, rng):
        d = 2
        X = HermTuple(sampling.random_herm_contraction_tuple(d, 2, rng))
        lams = np.stack([d * np.outer(np.eye(d)[m], np.eye(d)[m])
                         for m in range(d)])
        fam = LambdaFamily(lams, np.full(d, 1 / d))
        _, spec = simultaneous_diagonalize(lambda_dilation(X, fam).T)
        want = []
        for m in range(d):
            for mu in np.linalg.eigvalsh(np.asarray(X[m])):
                want.append(d * mu * np.eye(d)[m])
        assert spectra_match(
            spec, JointSpectrum(points=np.array(want)), tol=1e-10)

    def test_scalar_points_are_lambda_images(self):
        lams = np.stack([np.outer(v, v) for v in SIMPLEX_V])
        fam = LambdaFamily(lams, np.full(4, 0.25))
        x = np.array([0.1, 0.2, -0.3])
        X = HermTuple([np.array([[c]]) for c in x])
        _, spec = simultaneous_diagonalize(lambda_dilation(X, fam).T)
        want = np.array([lam @ x for lam in lams])
        assert spectra_match(
            spec, JointSpectrum(points=want), tol=1e-10)


class TestDiamondDilation:
    def test_scalar_vertex(self):
        X = HermTuple([np.array([[0.7]]), np.array([[0.2]])])
        D = diamond_dilation(X)
        _, spec = simultaneous_diagonalize(D.T, seed=0)
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
            _, spec = simultaneous_diagonalize(D.T, seed=7)
            assert np.max(np.abs(spec.points)) <= 1 + 1e-8

    def test_two_routes_agree(self, rng):
        # The dilation's spectral decomposition converts into a cube-vertex
        # witness for the feasibility route, and the solver agrees.
        X = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
        D = diamond_dilation(X)
        U, spec = simultaneous_diagonalize(D.T, seed=11)
        P = cube_polytope(2)
        Ks = [np.zeros((X.n, X.n), dtype=complex) for _ in range(4)]
        for col in range(D.dim):
            pt = spec.points[col]
            # Convex coordinates of the spectrum point over the vertices.
            theta = hull_weights(P.vertices, pt)
            assert theta is not None
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
            _, spec = simultaneous_diagonalize(D.T, seed=13)
            l1 = np.abs(spec.points).sum(axis=1)
            assert np.max(l1) <= d + 1e-8
            for pt in spec.points:
                assert hull_weights(d * diamond_polytope(d).vertices,
                                    pt) is not None
            assert_tight_dilation(D, compress=1e-10)

    def test_scalar_and_clifford(self):
        x = HermTuple([np.array([[0.9]]), np.array([[-1.0]])])
        D = cube_to_diamond_dilation(x)
        _, spec = simultaneous_diagonalize(D.T, seed=1)
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
        _, spec = simultaneous_diagonalize(D.T, seed=2)
        K = np.vstack([corners, -corners])
        for pt in spec.points:
            assert hull_weights(K, pt) is not None

    def test_pentagon_kappa_half(self, rng):
        k = np.arange(5)
        pent = np.column_stack([np.cos(2 * np.pi * k / 5),
                                np.sin(2 * np.pi * k / 5)])
        X = HermTuple(sampling.random_herm_contraction_tuple(2, 2, rng,
                                                             shrink=0.5))
        D = frame_dilation(X, pent)
        assert D.residuals["sigma"] == pytest.approx(2.5, abs=1e-12)
        assert D.residuals["kappa"] == pytest.approx(0.5, abs=1e-12)
        _, spec = simultaneous_diagonalize(D.T, seed=3)
        K = np.vstack([pent, -pent])
        for pt in spec.points:
            assert hull_weights(K, pt) is not None

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
    def test_wmin_witness_end_to_end(self, rng):
        # Feasibility witness K -> isometry W = (sqrt K_v)_v and commuting
        # diagonal tuple Y_i = (+)_v v_i I, whose compression reproduces the
        # original tuple.
        P = cube_polytope(2)
        picks = np.repeat(np.arange(4), 2)
        N = [np.diag(P.vertices[picks, i].astype(complex)) for i in range(2)]
        V = random_isometry(8, 2, rng)
        X = HermTuple([V.conj().T @ Ni @ V for Ni in N])
        res = wmin_member(X, P, tol_feas=1e-9)
        assert res.status is Status.FEASIBLE
        w, Q = np.linalg.eigh(np.stack(res.witness))
        W = np.vstack((Q * np.sqrt(np.clip(w, 0.0, None))[:, None, :])
                      @ Q.conj().swapaxes(1, 2))
        assert nk.opnorm(W.conj().T @ W - np.eye(2)) <= 1e-7
        Y = [np.kron(np.diag(P.vertices[:, i]), np.eye(2)) for i in range(2)]
        for i in range(2):
            got = W.conj().T @ Y[i] @ W
            assert np.linalg.norm(got - np.asarray(X[i])) <= 1e-7
        assert nk.opnorm(Y[0] @ Y[1] - Y[1] @ Y[0]) == 0.0


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
        # d = 10 with n = 3 (23.6M entries) and d = 40 with n = 1 are past
        # the entry cap; so is a family of 2049 members at d = n = 1.
        H3 = HermTuple([np.zeros((3, 3))] * 10)
        H1 = HermTuple([np.zeros((1, 1))] * 40)
        one = HermTuple([np.zeros((1, 1))])
        wide = LambdaFamily(np.ones((2049, 1, 1)), np.full(2049, 1 / 2049))
        for build, X in ((flip_dilation, H3), (flip_dilation, H1),
                         (diamond_dilation, H3),
                         (lambda X: lambda_dilation(X, wide), one)):
            tracemalloc.start()
            try:
                with pytest.raises(DilationError, match="capped at"):
                    build(X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, build.__name__

    def test_cap_counts_entries_not_d(self):
        assert 10 * 512 ** 2 <= DILATION_ENTRY_CAP < 10 * 1024 ** 2
        assert flip_sign_family(10, 1).k == 512
        with pytest.raises(DilationError, match="capped at"):
            flip_sign_family(10, 2)


@pytest.mark.parametrize("name", [
    "flip", "diamond", "lambda", "cube_to_diamond", "frame"])
def test_each_dilation_verified_once(rng, monkeypatch, name):
    calls = []
    residuals = dilation.dilation_residuals

    def counting(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(dilation, "dilation_residuals", counting)
    H = HermTuple(sampling.random_sign_sum_bounded_tuple(2, 2, rng))
    build = {
        "flip": lambda: flip_dilation(H),
        "diamond": lambda: diamond_dilation(H),
        "lambda": lambda: lambda_dilation(H, flip_sign_family(2)),
        "cube_to_diamond": lambda: cube_to_diamond_dilation(H),
        "frame": lambda: frame_dilation(H, np.eye(2)),
    }[name]
    D = build()
    assert len(calls) == 1
    assert D.residuals["compression"] <= 1e-9


def _random_dilation(kind, d, n, rng):
    """A dilation of each kind, of a random tuple that meets its hypothesis,
    with that tuple."""
    if kind == "diamond":
        X = HermTuple(sampling.random_sign_sum_bounded_tuple(d, n, rng))
        return diamond_dilation(X), X
    X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
    if kind == "flip":
        return flip_dilation(X), X
    if kind == "cube2diamond":
        return cube_to_diamond_dilation(X), X
    if kind == "lambda":
        return lambda_dilation(X, _parseval_family(d, rng)), X
    Q, c, X = _random_frame(X, rng)
    return frame_dilation(X, Q, weights=c), X


def _random_frame(X, rng):
    """The rows of a random 2d x d isometry with weights c, and X scaled
    into the dual inequalities ``+- sum_j c_m v_mj X_j <= I``."""
    Q, _ = np.linalg.qr(rng.standard_normal((2 * X.d, X.d)))
    c = rng.uniform(0.5, 1.0, size=2 * X.d)
    top = max(nk.opnorm(nk.lincomb((cm * v)[None, :], X.matrices)[0])
              for cm, v in zip(c, Q))
    return Q, c, X.scaled(0.9 / max(top, 1e-12))


KINDS = ["flip", "diamond", "lambda", "frame", "cube2diamond"]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blockwise_record_matches_dense_oracle(kind, d, n, seed):
    D, X = _random_dilation(kind, d, n, np.random.default_rng(seed))
    want = dense_residuals(D.T, D.V, X, D.scale)
    tol = 1e-12 * max(1.0, want["max_norm"])
    for key, val in want.items():
        assert abs(D.residuals[key] - val) <= tol, key


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(1, 3), k=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blockwise_record_of_any_block_diagonal_tuple(d, n, k, seed):
    # Random complex blocks neither commute nor are normal, so every entry
    # of the record is far from rounding level.
    rng = np.random.default_rng(seed)
    blocks = [[random_gen(n, rng) for _ in range(d)]
              for _ in range(k)]
    T = np.zeros((d, n, k, n, k), dtype=complex)
    p = np.arange(k)
    T[:, :, p, :, p] = np.array(blocks)
    T = list(T.reshape(d, n * k, n * k))
    V = random_isometry(n * k, n, rng)
    X = GenTuple([random_gen(n, rng) for _ in range(d)])
    got = dilation_residuals(T, V, X, 0.5)
    want = dense_residuals(T, V, X, 0.5)
    tol = 1e-12 * max(1.0, want["max_norm"]) ** 2
    for key, val in want.items():
        assert abs(got[key] - val) <= tol, key


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 4]), n=st.integers(1, 3), k=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_commutators_of_hermitian_blocks_skip_the_svd(d, n, k, seed):
    # Random Hermitian blocks do not commute.  Their commutator stack, of
    # shape (k, d(d-1)/2, n, n) (never (k, d, n, n) for d = 2, 4), is made
    # exactly skew, so its norm comes from eigvalsh and not from the SVD.
    rng = np.random.default_rng(seed)
    T = np.zeros((d, n, k, n, k), dtype=complex)
    p = np.arange(k)
    T[:, :, p, :, p] = np.array([[sampling.random_herm(n, rng)
                                  for _ in range(d)] for _ in range(k)])
    T = list(T.reshape(d, n * k, n * k))
    V = random_isometry(n * k, n, rng)
    X = GenTuple([random_gen(n, rng) for _ in range(d)])
    shapes = []
    svd = np.linalg.svd

    def recording_svd(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return svd(A, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", recording_svd):
        got = dilation_residuals(T, V, X, 0.5)
    assert (k, d * (d - 1) // 2, n, n) not in shapes
    want = dense_residuals(T, V, X, 0.5)
    tol = 1e-12 * max(1.0, want["max_norm"]) ** 2
    assert abs(got["commutator"] - want["commutator"]) <= tol


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(2, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_entry_between_blocks_is_refused(kind, d, n, seed):
    rng = np.random.default_rng(seed)
    D, X = _random_dilation(kind, d, n, rng)
    k = D.dim // n
    i = int(rng.integers(D.d))
    a, b = rng.integers(n, size=2)
    p, q = rng.choice(k, size=2, replace=False)
    T = [Ti.copy() for Ti in D.T]
    T[i][a * k + p, b * k + q] = 1e-300
    with pytest.raises(DilationError, match="between diagonal blocks"):
        dilation_residuals(T, D.V, X, D.scale)


# ---------------------------------------------------------------------------
# Closed-form joint spectra and the target sets of the theorems
# ---------------------------------------------------------------------------

# Gauge of each theorem's target set at one point x: d * cube, the cube and
# d * diamond.
GAUGES = {
    "flip": lambda x, d: np.max(np.abs(x)) / d,
    "diamond": lambda x, d: np.max(np.abs(x)),
    "cube2diamond": lambda x, d: np.sum(np.abs(x)) / d,
}


def closed_form_points(Y, fam, scale):
    """Joint spectrum, with multiplicity, of ``scale`` times the
    rank-one-family dilation of ``Y``: the points ``scale mu u_p`` for mu an
    eigenvalue of ``H_p = sum_j w_pj Y_j``."""
    mu = block_spectra(Y, fam)
    return scale * (mu[:, :, None] * fam.u[:, None, :]).reshape(-1, fam.d)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), d=st.integers(1, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_spectrum_matches_joint_diagonaliser(kind, d, n, seed):
    with mock.patch.object(dilation, "_build", wraps=dilation._build) as b:
        D, X = _random_dilation(kind, d, n, np.random.default_rng(seed))
    (Y, fam), = (call.args for call in b.call_args_list)
    pts = closed_form_points(Y, fam, D.scale)
    _, spec = simultaneous_diagonalize(D.T)
    assert spectra_match(JointSpectrum(points=pts), spec, tol=1e-10)
    if kind in GAUGES:
        top = max(GAUGES[kind](pt, d) for pt in spec.points)
        assert abs(D.residuals["spectrum_excess"] - (top - 1.0)) <= 1e-10
    else:
        assert ("spectrum_excess" in D.residuals) == (kind == "frame")


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_frame_excess_bounds_the_gauge_of_k(d, n, seed):
    # Each joint eigenvalue of a frame dilation, shrunk by 1 + excess, lies
    # in K = conv{+-c_m v^(m)}.
    rng = np.random.default_rng(seed)
    X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
    Q, c, X = _random_frame(X, rng)
    D = frame_dilation(X, Q, weights=c)
    _, spec = simultaneous_diagonalize(D.T)
    K = np.vstack([c[:, None] * Q, -c[:, None] * Q])
    shrink = 1.0 + D.residuals["spectrum_excess"]
    for pt in spec.points:
        assert hull_weights(K, pt / shrink) is not None


def test_diamond_gauge_on_flip_dilation_outside_the_cube():
    # The signed sum X_1 + X_2 of the Pauli pair has eigenvalue sqrt(2), so
    # the flip dilation's spectrum leaves the cube by sqrt(2) - 1.
    X = pauli_pair()
    fam = flip_sign_family(2)
    with pytest.raises(DilationError, match="spectrum excess 4.142e-01"):
        dilation._finish(*dilation._build(X, fam), X, fam=fam,
                         gauge=lambda x: np.abs(x).max(axis=1))
    assert flip_dilation(X).residuals["spectrum_excess"] == pytest.approx(
        np.sqrt(2.0) / 2.0 - 1.0, abs=1e-12)


def test_frame_dilation_needs_kappa():
    # Pentagon: sigma = 5/2, b_m = 2 and kappa = 1/2.  X meets the dual
    # inequalities with margin 0.9, so the points 2 mu v^(m) of the
    # unscaled dilation reach 1.8 v^(m), outside K, and kappa brings them
    # back to 0.9 v^(m).
    k = np.arange(5)
    pent = np.column_stack([np.cos(2 * np.pi * k / 5),
                            np.sin(2 * np.pi * k / 5)])
    X = HermTuple(sampling.random_herm_contraction_tuple(
        2, 3, np.random.default_rng(5)))
    top = max(nk.opnorm(nk.lincomb(v[None, :], X.matrices)[0]) for v in pent)
    X = X.scaled(0.9 / top)
    fam = LambdaFamily(2.0 * pent[:, :, None] * pent[:, None, :],
                       np.full(5, 0.2))
    # The gauge |t| / c_m of the point t v^(m) is |t|: c_m = 1, |v^(m)| = 1.
    with pytest.raises(DilationError, match="spectrum excess 8.000e-01"):
        dilation._finish(*dilation._build(X, fam), X, fam=fam,
                         gauge=lambda x: np.linalg.norm(x, axis=1))
    D = frame_dilation(X, pent)
    assert D.residuals["kappa"] == pytest.approx(0.5, abs=1e-12)
    assert D.residuals["spectrum_excess"] == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("build, norm_bound", [
    (flip_dilation, 2.0), (diamond_dilation, 1.0)])
def test_stated_norm_bound_is_checked(build, norm_bound):
    D = build(HermTuple([np.diag([1.0, 0.0]), np.diag([0.0, -1.0])]))
    assert D.residuals["norm_bound"] == norm_bound
    broken = Dilation(T=D.T, V=D.V, scale=D.scale,
                      residuals={**D.residuals,
                                 "max_norm": norm_bound * (1 + 2e-9)})
    with pytest.raises(DilationError, match="exceeds the norm bound"):
        dilation._validate(broken)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_family_factors_reproduce_members(rng, d):
    for fam in (flip_sign_family(d), dilation._coordinate_family(d),
                _parseval_family(d, rng)):
        outer = fam.u[:, :, None] * fam.w[:, None, :]
        assert np.max(np.abs(outer - fam.lambdas)) <= 1e-14 * d
