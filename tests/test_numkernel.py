import numpy as np
import pytest

from conftest import (
    NotCommutingError,
    joint_spectrum_normal,
    simultaneous_diagonalize,
)
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

    def test_opnorm_of_a_stack_is_the_largest_norm(self, rng):
        H = _herm_stack(rng, 6, 3, real=False).reshape(2, 3, 3, 3)
        G = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal(
            (2, 3, 4, 4))
        for S in (H, G, np.concatenate([H[..., :3, :3], G[..., :3, :3]])):
            want = max(nk.opnorm(M) for M in S.reshape(-1, *S.shape[-2:]))
            assert nk.opnorm(S) == pytest.approx(want, rel=1e-13)
        assert nk.opnorm(np.zeros((0, 2, 2))) == 0.0

    def test_opnorm_of_rounding_size_matrices(self):
        # Below the absolute hermiticity tolerance, yet neither matrix is
        # Hermitian: their norms are 1e-13 and sqrt(2) 1e-13.
        skew = np.array([[0.0, 1e-13], [-1e-13, 0.0]])
        row = np.array([[1e-13, 1e-13], [0.0, 0.0]])
        assert nk.opnorm(skew) == pytest.approx(1e-13, rel=1e-12, abs=0)
        assert nk.opnorm(row) == pytest.approx(np.sqrt(2) * 1e-13, rel=1e-12,
                                            abs=0)

    def test_opnorm_of_a_stack_solves_only_members_that_can_attain_it(
            self, rng, monkeypatch):
        H = _herm_stack(rng, 40, 3, real=False)
        G = rng.standard_normal((40, 3, 4)) + 1j * rng.standard_normal(
            (40, 3, 4))
        H[17] *= 100.0        # ||H_17||_F / sqrt(3) exceeds every other
        G[5] *= 100.0         # Frobenius norm, and likewise G_5
        want = [max(nk.opnorm(M) for M in S) for S in (H, G)]
        seen = []
        for name in ("eigvalsh", "svd"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda A, *a, _f=solve, **kw: seen.append(len(A)) or _f(
                    A, *a, **kw))
        assert [nk.opnorm(H), nk.opnorm(G)] == want
        assert nk.opnorm(np.zeros((6, 3, 3))) == 0.0
        assert seen == [1, 1]

    def test_opnorm_of_a_stack_is_exact_at_any_scale(self, rng):
        S = _herm_stack(rng, 30, 3, real=False)
        S[::3] *= 0.5
        for scale in (1e-170, 1e-100, 1.0, 1e100, 1e150, 1e160):
            T = scale * S
            want = max(nk.opnorm(M) for M in T)
            assert nk.opnorm(T) == want
            assert nk.opnorm(T[:, :, :2]) == max(nk.opnorm(M)
                                                 for M in T[:, :, :2])
        assert nk.opnorm(np.full((2, 2, 2), 1e-170)) == pytest.approx(
            2e-170, rel=1e-12, abs=0)

    @pytest.mark.parametrize("x, n", [
        (2.2231555788e-162, 2), (1e154, 2), (1.267732437050385, 64)])
    def test_opnorm_keeps_the_largest_member_when_squares_lose_precision(
            self, x, n):
        # The second member, diag(x (1 + 2^-52), 0, ...), is the larger.  At
        # 2.2e-162 the squares of the entries of the first, x times a
        # rotation, round up to subnormals; at 1e154 the squared Frobenius
        # norm of the first, x I, overflows; at n = 64 summing the squares
        # of x I rounds up by more than one ulp.  Pruned without the guards
        # or the slack, the second member would be dropped.
        A = x * np.eye(n)
        if x < 1e-100:
            A = x / np.sqrt(2) * np.array([[1.0, 1.0], [1.0, -1.0]])
        B = np.zeros((n, n))
        B[0, 0] = x * (1 + 2.0 ** -52)
        S = np.stack([A, B])
        assert nk.opnorm(S) == nk.opnorm(B) > nk.opnorm(A)


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
        U, spec = simultaneous_diagonalize([np.diag([1.0, 2.0]),
                                            np.diag([3.0, 4.0])])
        assert np.array_equal(U, np.eye(2))
        assert np.array_equal(spec.points, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_flip_and_identity(self):
        U, spec = simultaneous_diagonalize([FLIP, np.eye(2)])
        pts = spec.sorted_points()
        assert np.allclose(pts, [[-1.0, 1.0], [1.0, 1.0]], atol=1e-10)

    def test_degenerate_family(self, rng):
        # Repeated joint eigenvalues force the cluster recursion.
        D1 = np.diag([1.0, 1.0, 2.0, 2.0])
        D2 = np.diag([5.0, 6.0, 6.0, 6.0])
        Q = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        mats = [Q @ D @ Q.conj().T for D in (D1, D2)]
        U, spec = simultaneous_diagonalize(mats, seed=5)
        want = np.array([[1, 5], [1, 6], [2, 6], [2, 6]], dtype=float)
        assert np.allclose(spec.sorted_points(), want, atol=1e-8)
        for M in mats:
            D = U.conj().T @ M @ U
            assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-7

    def test_rejects_noncommuting(self):
        with pytest.raises(NotCommutingError) as exc:
            simultaneous_diagonalize([FLIP, np.diag([1.0, -1.0])])
        assert exc.value.pair == (0, 1)
        assert exc.value.norm > 0

    def test_random_commuting_families(self, rng):
        for trial in range(5):
            n, d = 5, 3
            Q = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            mats = [Q @ np.diag(rng.integers(-2, 3, size=n).astype(float))
                    @ Q.conj().T for _ in range(d)]
            U, spec = simultaneous_diagonalize(mats, seed=trial)
            assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-9
            for M in mats:
                D = U.conj().T @ M @ U
                assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-7


class TestNormalJointSpectrum:
    def test_diagonal_complex(self):
        mats = [np.diag([1 + 1j, 2 - 1j]), np.diag([3j, 4.0])]
        _, spec = joint_spectrum_normal(mats)
        pts = spec.sorted_points()
        want = np.array([[1 + 1j, 3j], [2 - 1j, 4.0]])
        assert np.allclose(pts, want, atol=1e-10)
