import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    clifford_dense_kron,
    clifford_from_dense,
    random_ball_member,
    tensor_matvec_dense,
    tensor_sum_extremes_dense,
)
from matconv import numkernel as nk
from matconv import sampling
from matconv import witnesses
from matconv.sets import HermTuple, Pencil, ball_member, pencil_member, \
    selfdual_member
from matconv.cli import main
from matconv.witnesses import (
    CHAIN_D_CAP,
    CLIFFORD_D_CAP,
    NONSCALABLE_GRID_CAP,
    CliffordTuple,
    WitnessError,
    ball_chain_witnesses,
    clifford_tuple,
    nonscalable_check,
    sharpness_check,
    sqrt_d_check,
    switch_tuple,
    tau_rho_harness,
    tensor_certificate,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
        B = clifford_tuple(d)
        sign = B.sign.copy()
        sign[-1, 0] = -sign[-1, 0]
        assert not CliffordTuple(d, B.perm, sign).verify_anticommutation()

    def test_commuting_pair_fails(self):
        # Signed permutations that square to I but commute.
        B = clifford_tuple(3)
        twice = CliffordTuple(2, B.perm[[0, 0]], B.sign[[0, 0]])
        assert not twice.verify_anticommutation()

    def test_member_not_an_involution_fails(self):
        # A signed permutation with all signs 1 whose square is a 3-cycle.
        cycle = np.eye(3, dtype=np.int64)[[1, 2, 0]]
        B = clifford_from_dense(cycle[None])
        assert B.verify_anticommutation() is False

    def test_products_on_different_permutations_fail(self):
        # Both members square to I and the product signs cancel row by row,
        # but B_0 B_1 and B_1 B_0 put each row's entry in different columns.
        rows = np.arange(4)
        mats = np.zeros((2, 4, 4), dtype=np.int64)
        mats[0, rows, [0, 1, 3, 2]] = [1, 1, -1, -1]
        mats[1, rows, [2, 3, 0, 1]] = 1
        assert (mats[0] @ mats[1] + mats[1] @ mats[0]).any()
        B = clifford_from_dense(mats)
        assert B.verify_anticommutation() is False

    def test_signed_permutation_form(self):
        B = clifford_tuple(4)
        rows = np.arange(B.size)
        for M, p, s in zip(B.matrices, B.perm, B.sign):
            want = np.zeros_like(M)
            want[rows, p] = s
            assert np.array_equal(M, want)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_recursion_matches_the_kronecker_build(self, d):
        B = clifford_tuple(d)
        dense = clifford_dense_kron(d)
        assert B.matrices.dtype == dense.dtype == np.int64
        assert np.array_equal(B.matrices, dense)
        read = clifford_from_dense(dense)
        assert np.array_equal(read.perm, B.perm)
        assert np.array_equal(read.sign, B.sign)

    def test_d12_builds_no_dense_stack(self):
        # The dense int64 stack alone would be 12 * 2048^2 * 8 B = 403 MB.
        tracemalloc.start()
        try:
            B = clifford_tuple(CLIFFORD_D_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B.anticommutation_exact is True
        assert peak < 16 * 2 ** 20

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

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_scatter_matches_dense_lincomb(self, d, seed):
        # The signed scatter equals nk.lincomb on the dense stack, sign bits
        # included, and so does the printed square residual of S_v.
        B = clifford_tuple(d)
        dirs = sampling.sphere_points(d, 32, sampling.rng_from(seed))
        S = nk.lincomb(dirs, B.matrices.astype(float))
        got = B.lincomb(dirs)
        assert np.array_equal(got, S)
        assert np.array_equal(np.signbit(got), np.signbit(S))
        mixed = np.random.default_rng(seed).standard_normal((7, d))
        mixed[:, 0] = [0.0, -0.0, 1e-300, -1e300, 5e-324, 1.0, -1.0]
        want = nk.lincomb(mixed, B.matrices.astype(float))
        got = B.lincomb(mixed)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        want = max(0.0, float(np.max(np.abs(S @ S - np.eye(B.size)))))
        r = sharpness_check(d, seed=seed)
        assert r["unit_direction_square_residual"] == want

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

    @pytest.mark.parametrize("d", range(9, CLIFFORD_D_CAP + 1))
    def test_runs_to_the_clifford_cap(self, d):
        r = sqrt_d_check(d)
        assert r["tensor_norm"] == d == r["identity_eigenvalue"]
        assert (r["conjugation_gap"], r["tensor_norm_over_d"]) == (0.0, 1.0)
        assert r["boundary_member"] and not r["shrunk_member"]

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

    def test_rejects_overflowing_square(self):
        # (1 - c)^2 past the largest double is an input error, not an
        # infinite formula gap.
        with pytest.raises(WitnessError, match="overflows"):
            nonscalable_check([1.0, 1e160])

    def test_grid_cap(self):
        # A grid built by the caller is refused as well.
        with pytest.raises(WitnessError, match="capped at"):
            nonscalable_check(np.ones(NONSCALABLE_GRID_CAP + 1))

    @pytest.mark.parametrize("grid", [
        np.linspace(0.01, 3.0, 300), np.linspace(0.01, 3.0, 10 ** 5),
        np.array([1.0]), np.geomspace(1e-6, 1e6, 777)])
    def test_batched_report_matches_row_loop(self, grid):
        # The batched fields, with rows and without, equal the per-row loop
        # bit for bit.  On the 10^5-point grid six roots change in the last
        # bit when ``(1 - c) ** 2`` is squared by numpy instead of pow.
        want = nonscalable_rows_loop(grid)
        assert nonscalable_check(grid) == want
        del want["rows"]
        assert nonscalable_check(grid, rows=False) == want

    @pytest.mark.parametrize("extra", [[], ["--count", "100000"]])
    def test_report_without_rows_keeps_its_bytes(self, monkeypatch, capsys,
                                                 extra):
        # ``witness nonscalable`` without --rows prints the bytes of the
        # row loop's report with its rows dropped afterwards, and builds no
        # row.
        argv = ["witness", "nonscalable", *extra]
        assert main(argv) == 0
        out = capsys.readouterr().out

        def loop_report(grid, rows=True):
            r = nonscalable_rows_loop(grid)
            return r if rows else {k: v for k, v in r.items() if k != "rows"}

        monkeypatch.setattr(witnesses, "nonscalable_check", loop_report)
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        assert '"rows"' not in out


def nonscalable_rows_loop(grid) -> dict:
    """The nonscalable report as one loop over the grid points, with a
    scalar ``root`` per point and running extremes."""
    grid = np.asarray(grid, dtype=float)
    svs = nk.opnorms(grid[:, None, None] * witnesses.NONSCALABLE_T
                     - np.eye(2))
    rows = []
    worst_margin = np.inf
    worst_gap = 0.0
    for c, sv in zip(grid.tolist(), svs.tolist()):
        root = c + np.sqrt(c * c + (1.0 - c) ** 2)
        rows.append({"c": c, "svd_norm": float(sv), "root_norm": float(root)})
        worst_margin = min(worst_margin, sv - 1.0)
        worst_gap = max(worst_gap, abs(sv - root))
    return {
        "grid_size": len(rows),
        "min_excess_over_one": float(worst_margin),
        "max_formula_gap": float(worst_gap),
        "rows": rows,
    }


class TestBallChain:
    @pytest.mark.parametrize("d", [2, 3])
    def test_chain_witnesses(self, d):
        r = ball_chain_witnesses(d)
        assert r["pair_in_ball"]
        assert not r["pair_in_anticommuting_pencil_domain"]
        assert r["pair_outside_min_set"]
        assert r["switch_square_identity_exact"]
        assert not r["switch_in_ball"]
        assert r["switch_arrow_form_exact"]

    @pytest.mark.parametrize("value", [0.5, 1j])
    def test_one_changed_entry_breaks_the_arrow_key(self, monkeypatch,
                                                    value):
        # Every entry of every member, changed (with its mirror entry, so
        # the tuple stays Hermitian), turns the exact key false, and the
        # square and ball keys follow the changed tuple.
        d = 3
        S = np.asarray(switch_tuple(d).matrices)
        want = np.eye(d + 1)
        want[0, 0] = d
        for a, b in zip(*np.triu_indices(d + 1)):
            for i in range(d):
                if a == b and value == 1j:
                    continue
                T = S.copy()
                T[i, a, b] += value
                T[i, b, a] = np.conj(T[i, a, b])
                monkeypatch.setattr(witnesses, "switch_tuple",
                                    lambda _, T=T: HermTuple(T))
                r = ball_chain_witnesses(d)
                assert r["switch_arrow_form_exact"] is False, (i, a, b)
                B = HermTuple(T)
                assert r["switch_square_identity_exact"] is np.array_equal(
                    B.square_sum(), want), (i, a, b)
                assert r["switch_in_ball"] is ball_member(B, tol=1e-9)

    @pytest.mark.parametrize("tol", [1e-9, 1.5])
    @pytest.mark.parametrize("d", [2, 3, 5, 17, CHAIN_D_CAP])
    def test_square_keys_equal_the_dense_ones(self, d, tol):
        # Read off the arrow form, the square and ball keys equal the dense
        # square sum and ``ball_member`` of the switch tuple.
        B = switch_tuple(d)
        want = np.eye(d + 1)
        want[0, 0] = d
        r = ball_chain_witnesses(d, tol=tol)
        assert r["switch_square_identity_exact"] is np.array_equal(
            B.square_sum(), want) is True
        assert r["switch_in_ball"] is ball_member(B, tol=tol)

    def test_switch_tuple_squares(self):
        for d in (2, 3, 5):
            B = switch_tuple(d)
            S = sum(np.asarray(M) @ np.asarray(M) for M in B).real
            want = np.eye(d + 1)
            want[0, 0] = d
            assert np.array_equal(S, want)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 5), n=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["ball", "contraction"]))
    def test_pencil_domain_is_the_ball(self, d, n, seed, kind):
        # The sampled agreement that the exact arrow key replaced, kept as
        # its oracle: ball members and Hermitian contraction tuples.
        rng = np.random.default_rng(seed)
        Y = HermTuple(random_ball_member(d, n, rng) if kind == "ball"
                      else sampling.random_herm_contraction_tuple(d, n, rng))
        L = Pencil(switch_tuple(d))
        assert pencil_member(L, Y, tol=1e-7) == ball_member(Y, tol=1e-7)

    def test_report_reads_no_seed(self, capsys):
        outs = []
        for seed in ("0", "1"):
            assert main(["witness", "chain", "--d", "4", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert '"seed": 1,' in outs[1]
        assert outs[1].replace('"seed": 1,', '"seed": 0,') == outs[0]

    def test_samples_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the chain report drew a sample")

        for name in ("rng_from", "random_herm",
                     "random_herm_contraction_tuple", "sphere_points"):
            monkeypatch.setattr(sampling, name, refuse)
        assert ball_chain_witnesses(3)["switch_arrow_form_exact"] is True


@pytest.mark.parametrize("argv", [
    f"witness chain --d {CHAIN_D_CAP + 1}", "witness chain --d 1000000",
    f"witness nonscalable --count {NONSCALABLE_GRID_CAP + 1}",
    "witness nonscalable --count 10000000000000",
    "witness sqrtd --d 13", "witness sharpness --d 9"])
def test_caps_exit_4_before_building(argv, capsys):
    assert main(argv.split()) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert "capped at" in out.err or "between 1 and" in out.err


@pytest.mark.parametrize("argv", [
    f"witness clifford --d {CLIFFORD_D_CAP}",
    f"witness sqrtd --d {CLIFFORD_D_CAP}",
    f"witness chain --d {CHAIN_D_CAP}"])
def test_largest_inputs_exit_0(argv, capsys):
    assert main(argv.split()) == 0
    assert '"exit_code": 0' in capsys.readouterr().out


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


class TestTensorGather:
    """The ``(perm, sign)`` form that :func:`tensor_certificate` and the
    anticommutation check read is the dense family itself: the tensor sum
    applied by signed gathers on that form matches dense products bit for
    bit."""

    @staticmethod
    def _gather_matvec(B, conj_right, v):
        # B_i V R_i^T at (a, b) is sign_i[a] sign_i[b] V[perm_i[a], perm_i[b]].
        q = B.size
        V = v.reshape(q, q)
        right = np.conj(B.sign) if conj_right else B.sign
        out = np.zeros_like(V)
        for p, s, r in zip(B.perm, B.sign, right):
            out += (s[:, None] * r[None, :]) * V[p][:, p]
        return out.reshape(-1)

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
        assert np.array_equal(self._gather_matvec(B, conj_right, v), want)


class TestTensorCertificate:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_the_dense_eigensolve(self, d):
        top, norm = tensor_sum_extremes_dense(clifford_tuple(d).matrices)
        assert abs(sharpness_check(d)["lambda_max"] - top) <= 1e-12
        assert abs(sqrt_d_check(d)["tensor_norm"] - norm) <= 1e-12

    @pytest.mark.parametrize("d", range(1, 9))
    def test_printed_values_are_exact(self, d):
        r, s = sharpness_check(d), sqrt_d_check(d)
        assert (r["lambda_max"], r["lambda_max_minus_d"]) == (d, 0.0)
        assert (s["tensor_norm"], s["tensor_norm_over_d"]) == (d, 1.0)
        grid = [d * (1.0 - 1e-6), d, d * (1.0 + 1e-6), d / 2.0, 2.0 * d]
        assert r["min_eig_at_C"] == {f"{C:.9f}": 1.0 - d / C for C in grid}

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rechecks_in_plain_numpy(self, d):
        # The printed fields, verified again on the dense integer matrices
        # with no eigensolve.
        M = clifford_tuple(d).matrices
        r = sharpness_check(d)
        nonzero = M != 0
        # One +-1 entry per row and per column: signed permutation
        # matrices, so each has norm 1 and the norm bound is the count.
        assert (nonzero.sum(axis=1) == 1).all()
        assert (nonzero.sum(axis=2) == 1).all()
        assert (np.abs(M[nonzero]) == 1).all()
        assert r["members_signed_permutations"] is True
        assert r["tensor_norm_bound"] == len(M) == d
        assert r["members_symmetric"] is True
        assert np.array_equal(M, M.swapaxes(1, 2))
        # sum B_i I B_i^T = d I: vec(I) is an eigenvector with eigenvalue d.
        gram = (M @ M.swapaxes(1, 2)).sum(axis=0)
        assert np.array_equal(gram,
                              r["identity_eigenvalue"] * np.eye(len(gram)))
        assert r["identity_eigenvalue"] == r["tensor_norm_bound"]
        assert r["lambda_max"] == r["identity_eigenvalue"]

    @pytest.mark.parametrize("d", range(1, 7))
    def test_unit_direction_closed_form_matches_eigensolve(self, d):
        dirs = sampling.sphere_points(d, 32, sampling.rng_from(5))
        S = np.einsum("fi,iab->fab", dirs,
                      clifford_tuple(d).matrices.astype(float))
        top = max(0.0, float(np.linalg.eigvalsh(S)[:, -1].max()))
        r = sharpness_check(d, seed=5)
        assert abs(r["unit_direction_max_eig"] - top) <= 1e-12

    def test_rejects_non_signed_permutation(self):
        # A sign that is not +-1.  At d = 4, signs (2, 0, 0, 0) on one row
        # still give sum_i sign_i^2 = d there.
        B = clifford_tuple(4)
        for column in ([2, 0, 0, 0], [0, 1, 1, 1], [-2, 1, 1, 1]):
            sign = B.sign.copy()
            sign[:, 0] = column
            with pytest.raises(WitnessError, match="signed permutation"):
                tensor_certificate(CliffordTuple(4, B.perm, sign))

    def test_rejects_rows_sharing_a_column(self):
        # One +-1 entry per row, and sum B_i B_i^T = 2 I all the same, but
        # ||B_i|| = sqrt(2): the identity alone bounds nothing.
        mats = np.array([[[1, 0], [1, 0]], [[1, 0], [-1, 0]]])
        B = clifford_from_dense(mats)
        assert B.perm.tolist() == [[0, 0], [0, 0]]
        assert np.array_equal((mats @ mats.swapaxes(1, 2)).sum(axis=0),
                              2 * np.eye(2))
        with pytest.raises(WitnessError, match="signed permutation"):
            tensor_certificate(B)

    def test_rejects_non_symmetric(self):
        cycle = np.eye(3, dtype=np.int64)[[1, 2, 0]]
        with pytest.raises(WitnessError, match="symmetric"):
            tensor_certificate(clifford_from_dense(cycle[None]))
        flipped = np.diag([1, -1])[None] @ np.array([[[0, 1], [1, 0]]])
        with pytest.raises(WitnessError, match="symmetric"):
            tensor_certificate(clifford_from_dense(flipped))

    def test_sqrt_d_norm_at_d6(self):
        assert abs(sqrt_d_check(6)["tensor_norm_over_d"] - 1.0) <= 1e-12

    def test_d8_reports_skip_scipy_sparse(self):
        code = ("import contextlib, io, sys\n"
                "from matconv.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['witness', 'sharpness', '--d', '8']) == 0\n"
                "    assert main(['witness', 'sqrtd', '--d', '8']) == 0\n"
                "assert 'scipy.sparse.linalg' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
