import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tensor_matvec_dense
from matconv import numkernel as nk
from matconv.sets import selfdual_member
from matconv.cli import main
from matconv.witnesses import (
    _DENSE_TENSOR_CUTOFF,
    CliffordTuple,
    WitnessError,
    _tensor_gather,
    ball_chain_witnesses,
    clifford_tuple,
    nonscalable_check,
    sharpness_check,
    sqrt_d_check,
    switch_tuple,
    tau_rho_harness,
    tensor_square_top_eig,
)


class TestCliffordTuple:
    def test_d1(self):
        B = clifford_tuple(1)
        assert B.size == 1
        assert np.array_equal(B.matrices[0], np.array([[1]]))

    def test_d2_is_swap_and_sign(self):
        B = clifford_tuple(2)
        assert np.array_equal(B.matrices[0], np.array([[0, 1], [1, 0]]))
        assert np.array_equal(B.matrices[1], np.array([[1, 0], [0, -1]]))

    def test_d3_exact(self):
        B = clifford_tuple(3)
        assert B.size == 4
        assert B.verify_anticommutation()
        for M in B.matrices:
            assert M.dtype == np.int64
            assert np.array_equal(M @ M, np.eye(4, dtype=np.int64))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_exact_anticommutation_all_d(self, d):
        assert clifford_tuple(d).verify_anticommutation()

    @pytest.mark.parametrize("d", [2, 5])
    def test_one_flipped_sign_fails(self, d):
        mats = [M.copy() for M in clifford_tuple(d).matrices]
        i, j = np.argwhere(mats[-1] != 0)[0]
        mats[-1][i, j] = -mats[-1][i, j]
        assert not CliffordTuple(d, tuple(mats)).verify_anticommutation()

    def test_two_nonzeros_in_a_row_fails(self):
        mats = clifford_tuple(3).matrices.copy()
        mats[1, 0, :2] = 1
        B = CliffordTuple(3, mats)
        assert B.perm is None and B.sign is None
        assert B.verify_anticommutation() is False

    def test_commuting_pair_fails(self):
        # Signed permutations that square to I but commute.
        twice = clifford_tuple(3).matrices[[0, 0]]
        assert not CliffordTuple(2, twice).verify_anticommutation()

    def test_member_not_an_involution_fails(self):
        # A signed permutation with all signs 1 whose square is a 3-cycle.
        cycle = np.eye(3, dtype=np.int64)[[1, 2, 0]]
        assert CliffordTuple(1, cycle[None]).verify_anticommutation() is False

    def test_products_on_different_permutations_fail(self):
        # Both members square to I and the product signs cancel row by row,
        # but B_0 B_1 and B_1 B_0 put each row's entry in different columns.
        rows = np.arange(4)
        mats = np.zeros((2, 4, 4), dtype=np.int64)
        mats[0, rows, [0, 1, 3, 2]] = [1, 1, -1, -1]
        mats[1, rows, [2, 3, 0, 1]] = 1
        assert (mats[0] @ mats[1] + mats[1] @ mats[0]).any()
        assert CliffordTuple(2, mats).verify_anticommutation() is False

    def test_signed_permutation_form(self):
        B = clifford_tuple(4)
        rows = np.arange(B.size)
        for M, p, s in zip(B.matrices, B.perm, B.sign):
            want = np.zeros_like(M)
            want[rows, p] = s
            assert np.array_equal(M, want)

    def test_range_guard(self):
        with pytest.raises(WitnessError):
            clifford_tuple(0)
        with pytest.raises(WitnessError):
            clifford_tuple(13)


class TestSharpness:
    def test_d1_trivial(self):
        r = sharpness_check(1)
        assert r["lambda_max"] == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_top_eigenvalue_equals_d(self, d):
        r = sharpness_check(d)
        assert abs(r["lambda_max_minus_d"]) <= 1e-9
        assert r["anticommutation_exact"]
        assert r["unit_direction_max_eig"] <= 1 + 1e-9
        assert r["unit_direction_square_residual"] <= 1e-12

    def test_sign_flip_at_d(self):
        d = 3
        r = sharpness_check(d)
        vals = r["min_eig_at_C"]
        assert vals[f"{d * (1 - 1e-6):.9f}"] < 0
        assert vals[f"{d * (1 + 1e-6):.9f}"] > 0

    def test_min_eig_monotone_in_C(self):
        # 1 - d/C increases with C and crosses zero exactly at C = d.
        d = 2
        B = clifford_tuple(d)
        M = sum(np.kron(Mi, Mi).astype(float) for Mi in B.matrices)
        grid = np.linspace(0.5, 4.0, 15)
        vals = np.array([nk.min_eig(np.eye(4) - M / C) for C in grid])
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0 < vals[-1]
        root = float(np.interp(0.0, vals, grid))
        assert root == pytest.approx(d, abs=1e-9)


class TestAnticommutationCheckedOnce:
    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = CliffordTuple.verify_anticommutation

        def counted(self):
            calls.append(self.d)
            return check(self)

        monkeypatch.setattr(CliffordTuple, "verify_anticommutation", counted)
        return calls

    @pytest.mark.parametrize("d", range(1, 9))
    def test_sharpness_check(self, checks, d):
        r = sharpness_check(d)
        assert checks == [d]
        assert r["anticommutation_exact"] is True

    @pytest.mark.parametrize("d", [9, 10])
    def test_clifford_tuple_beyond_size_256(self, checks, d):
        assert clifford_tuple(d).anticommutation_exact is True
        assert checks == [d]

    def test_witness_clifford_cli(self, checks, capsys):
        assert main(["witness", "clifford", "--d", "4"]) == 0
        assert '"anticommutation_exact": true' in capsys.readouterr().out
        assert checks == [4]


class TestSqrtD:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_boundary_scalings(self, d):
        r = sqrt_d_check(d)
        assert r["conjugation_gap"] == 0.0
        assert abs(r["tensor_norm_over_d"] - 1.0) <= 1e-9
        assert r["boundary_member"]
        assert not r["shrunk_member"]

    def test_d1(self):
        r = sqrt_d_check(1)
        assert r["tensor_norm"] == pytest.approx(1.0)

    def test_matches_selfdual_oracle(self):
        B = clifford_tuple(3).as_herm_tuple()
        assert selfdual_member(B.scaled(1 / np.sqrt(3)), tol=1e-9)
        assert not selfdual_member(B.scaled(1 / (0.999 * np.sqrt(3))))


class TestNonscalable:
    def test_at_one(self):
        r = nonscalable_check([1.0])
        assert r["rows"][0]["svd_norm"] == pytest.approx(2.0)
        assert r["rows"][0]["root_norm"] == pytest.approx(2.0)

    def test_grid(self):
        r = nonscalable_check(np.linspace(0.01, 3.0, 300))
        assert r["min_excess_over_one"] > 1e-9
        assert r["max_formula_gap"] <= 1e-9

    def test_agreement_at_half(self):
        r = nonscalable_check([0.5])
        assert abs(r["rows"][0]["svd_norm"] - r["rows"][0]["root_norm"]) \
            <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(WitnessError):
            nonscalable_check([0.0, 1.0])


class TestBallChain:
    @pytest.mark.parametrize("d", [2, 3])
    def test_chain_witnesses(self, d):
        r = ball_chain_witnesses(d)
        assert r["pair_in_ball"]
        assert not r["pair_in_anticommuting_pencil_domain"]
        assert r["pair_outside_min_set"]
        assert r["switch_square_identity_exact"]
        assert not r["switch_in_ball"]
        assert r["switch_in_ball_dual_on_samples"]
        assert r["switch_pencil_matches_ball_oracle"]

    def test_switch_tuple_squares(self):
        for d in (2, 3, 5):
            B = switch_tuple(d)
            S = sum(np.asarray(M) @ np.asarray(M) for M in B).real
            want = np.eye(d + 1)
            want[0, 0] = d
            assert np.array_equal(S, want)


class TestTauRhoHarness:
    def test_cube_bracket(self):
        r = tau_rho_harness("cube", samples=4, d=2, seed=1)
        assert r["feasible_at_scale"] == r["samples"]
        assert r["bracket"][0] == pytest.approx(0.5)
        assert r["bracket"][1] == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_diamond_scale_one_route(self):
        r = tau_rho_harness("diamond", samples=4, d=2, seed=2)
        assert r["feasible_at_scale"] == r["samples"]
        assert r["scale_one_into_cube_feasible"] == r["samples"]

    def test_ball_bracket_capped_by_witness(self):
        r = tau_rho_harness("ball", samples=3, d=2, seed=3)
        assert r["feasible_at_scale"] == r["samples"]
        assert r["bracket"][1] == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_simplex(self):
        r = tau_rho_harness("simplex", samples=3, d=3, seed=4)
        assert r["feasible_at_scale"] == r["samples"]
        assert r["bracket"][0] == pytest.approx(1 / 3)

    def test_guards(self):
        with pytest.raises(WitnessError):
            tau_rho_harness("simplex", d=2)
        with pytest.raises(WitnessError):
            tau_rho_harness("orbit", d=2)


def test_tensor_square_top_eig_matches_dense():
    B = clifford_tuple(3)
    M = sum(np.kron(Mi, Mi).astype(float) for Mi in B.matrices)
    dense = float(np.linalg.eigvalsh(M)[-1])
    assert tensor_square_top_eig(B) == pytest.approx(dense, abs=1e-10)


class TestTensorGather:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("conj_right", [False, True])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_identical_to_dense_products(self, d, conj_right, seed):
        B = clifford_tuple(d)
        rng = np.random.default_rng(seed)
        dim = B.size ** 2
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        want = tensor_matvec_dense(B.matrices, conj_right, v)
        assert np.array_equal(_tensor_gather(B)(v), want)

    def test_rejects_non_signed_permutation(self):
        mats = clifford_tuple(2).matrices.copy()
        mats[0, 0, 0] = 1
        with pytest.raises(WitnessError):
            _tensor_gather(CliffordTuple(2, mats))

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_top_eig_across_dense_cutoff(self, d):
        B = clifford_tuple(d)
        assert (B.size ** 2 <= _DENSE_TENSOR_CUTOFF) == (d <= 5)
        assert abs(tensor_square_top_eig(B) - d) <= 1e-12 * d

    def test_sqrt_d_norm_at_d6(self):
        assert abs(sqrt_d_check(6)["tensor_norm_over_d"] - 1.0) <= 1e-12
