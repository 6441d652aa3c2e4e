import numpy as np
import pytest

from matconv import numkernel as nk

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestHermEig:
    def test_identity(self):
        dec = nk.herm_eig(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0])
        Q = dec.eigenvectors
        assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-10)

    def test_flip_matrix(self):
        dec = nk.herm_eig(FLIP)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_hand_characteristic_polynomial(self):
        # [[1,2],[2,1]]: det(M - t I) = (1-t)^2 - 4, roots -1 and 3.
        dec = nk.herm_eig(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 3.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(nk.NotHermitianError):
            nk.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self, rng):
        for n in (1, 2, 5, 9):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M = (A + A.conj().T) / 2
            dec = nk.herm_eig(M)
            scale = 1.0 + nk.opnorm(M)
            assert np.linalg.norm(dec.reconstruct() - M) <= 1e-10 * scale
            Q = dec.eigenvectors
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)


class TestScalarReductions:
    def test_min_eig_identity(self):
        assert nk.min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_min_eig_diagonal(self):
        assert nk.min_eig(np.diag([-3.0, 5.0])) == pytest.approx(-3.0)

    def test_opnorm_rank_one(self):
        # Singular values of [[0,2],[0,0]] are (2, 0).
        assert nk.opnorm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_opnorm_hermitian_route(self):
        assert nk.opnorm(np.diag([-4.0, 3.0])) == pytest.approx(4.0)


def _herm_stack(rng, F, n, real):
    A = rng.standard_normal((F, n, n))
    if not real:
        A = A + 1j * rng.standard_normal((F, n, n))
    return (A + A.conj().swapaxes(1, 2)) / 2


class TestBatched:
    @pytest.mark.parametrize("real", [True, False])
    def test_lincomb_bit_identical_to_python_sum(self, rng, real):
        mats = list(_herm_stack(rng, 5, 4, real))
        for coeffs in (rng.standard_normal((7, 5)), nk.sign_rows(5, 3, 20)):
            got = nk.lincomb(coeffs, mats)
            assert got.shape == (len(coeffs), 4, 4)
            for f, row in enumerate(coeffs):
                want = sum(float(c) * M for c, M in zip(row, mats))
                assert got[f].dtype == want.dtype
                assert got[f].tobytes() == want.tobytes()

    def test_lincomb_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            nk.lincomb(np.ones((2, 3)), list(_herm_stack(rng, 2, 2, True)))

    @pytest.mark.parametrize("real", [True, False])
    def test_stacked_extreme_eigs_match_per_matrix(self, rng, real):
        S = _herm_stack(rng, 9, 5, real)
        lo, hi = nk.min_eig(S), nk.max_eig(S)
        assert lo.shape == hi.shape == (9,)
        for f in range(9):
            assert lo[f] == nk.min_eig(S[f])
            assert hi[f] == nk.max_eig(S[f])

    def test_stack_hermiticity_checked(self):
        S = np.zeros((3, 2, 2))
        S[2, 0, 1] = 1.0
        with pytest.raises(nk.NotHermitianError):
            nk.min_eig(S)

    def test_sign_rows_follow_ndindex(self):
        for d in range(1, 7):
            want = np.array(list(np.ndindex(*(2,) * d))) * 2 - 1
            assert np.array_equal(nk.sign_rows(d, 0, 2 ** d), want)
            assert np.array_equal(nk.sign_rows(d, 1, 2 ** d - 1),
                                  want[1:-1])


class TestSimultaneousDiagonalize:
    def test_already_diagonal_exact(self):
        U, spec = nk.simultaneous_diagonalize([np.diag([1.0, 2.0]),
                                               np.diag([3.0, 4.0])])
        assert np.array_equal(U, np.eye(2))
        assert np.array_equal(spec.points, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_flip_and_identity(self):
        U, spec = nk.simultaneous_diagonalize([FLIP, np.eye(2)])
        pts = spec.sorted_points()
        assert np.allclose(pts, [[-1.0, 1.0], [1.0, 1.0]], atol=1e-10)

    def test_degenerate_family(self, rng):
        # Repeated joint eigenvalues force the cluster recursion.
        D1 = np.diag([1.0, 1.0, 2.0, 2.0])
        D2 = np.diag([5.0, 6.0, 6.0, 6.0])
        Q = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        mats = [Q @ D @ Q.conj().T for D in (D1, D2)]
        U, spec = nk.simultaneous_diagonalize(mats, seed=5)
        want = np.array([[1, 5], [1, 6], [2, 6], [2, 6]], dtype=float)
        assert np.allclose(spec.sorted_points(), want, atol=1e-8)
        for M in mats:
            D = U.conj().T @ M @ U
            assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-7

    def test_rejects_noncommuting(self):
        with pytest.raises(nk.NotCommutingError) as exc:
            nk.simultaneous_diagonalize([FLIP, np.diag([1.0, -1.0])])
        assert exc.value.pair == (0, 1)
        assert exc.value.norm > 0

    def test_random_commuting_families(self, rng):
        for trial in range(5):
            n, d = 5, 3
            Q = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            mats = [Q @ np.diag(rng.integers(-2, 3, size=n).astype(float))
                    @ Q.conj().T for _ in range(d)]
            U, spec = nk.simultaneous_diagonalize(mats, seed=trial)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-9
            for M in mats:
                D = U.conj().T @ M @ U
                assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-7


class TestNormalJointSpectrum:
    def test_diagonal_complex(self):
        mats = [np.diag([1 + 1j, 2 - 1j]), np.diag([3j, 4.0])]
        _, spec = nk.joint_spectrum_normal(mats)
        pts = spec.sorted_points()
        want = np.array([[1 + 1j, 3j], [2 - 1j, 4.0]])
        assert np.allclose(pts, want, atol=1e-10)
