"""The tuple format: one read-only ``(d, n, n)`` stack, and the batched
forms that replaced per-member loops, checked against those loops (the
oracles in ``conftest``).  Where a report prints the value the match is bit
for bit."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import (
    NotCommutingError,
    dilation_residuals_loop,
    first_coincident_pair_loop,
    hat_tuple_loop,
    herm_stack_loop,
    kron_sum_loop,
    norms_loop,
    random_gen,
    re_im_parts_loop,
    same_bits,
    simultaneous_diagonalize,
    square_sum_loop,
    tilde_tuple_loop,
)
from matconv import frames
from matconv import numkernel as nk
from matconv import sampling
from matconv.cli import main
from matconv.dilation import (
    DilationError,
    dilation_residuals,
    flip_dilation,
    flip_sign_family,
    lambda_dilation,
)
from matconv.sets import GenTuple, HermTuple
from matconv.ucp import _hat_tuple, _tilde_tuple
from matconv.witnesses import NONSCALABLE_T, nonscalable_check

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

seeds = st.integers(0, 2 ** 32 - 1)
KINDS = ("herm", "gen", "real", "zero", "near_herm", "tiny")


def draw_member(kind: str, n: int, rng) -> np.ndarray:
    """One matrix of a kind that steers ``opnorm`` down either route."""
    if kind == "herm":
        return sampling.random_herm(n, rng)
    if kind == "gen":
        return random_gen(n, rng)
    if kind == "real":
        return rng.standard_normal((n, n))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "near_herm":
        return (sampling.random_herm(n, rng)
                + 1e-13 * random_gen(n, rng))
    return 1e-200 * random_gen(n, rng)


members = st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(kinds=members, n=st.integers(1, 4), seed=seeds)
def test_norms_match_per_member_opnorm(kinds, n, seed):
    rng = np.random.default_rng(seed)
    X = GenTuple([draw_member(k, n, rng) for k in kinds])
    assert X.norms().tolist() == norms_loop(X)
    assert nk.opnorms(X.matrices).tolist() == norms_loop(X.matrices)
    # The cube test is one opnorm of the whole stack, where one member that
    # is not Hermitian sends every member to the SVD: the last bit may move.
    assert nk.opnorm(X.matrices) == pytest.approx(max(norms_loop(X)),
                                                  rel=1e-14, abs=1e-300)
    H = HermTuple(X.matrices + X.matrices.conj().swapaxes(1, 2))
    assert nk.opnorm(H.matrices) == max(norms_loop(H))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), a=st.integers(1, 3), b=st.integers(1, 3),
       complex_a=st.booleans(), complex_b=st.booleans(), seed=seeds)
def test_kron_sum_matches_loop(d, a, b, complex_a, complex_b, seed):
    rng = np.random.default_rng(seed)
    # Zero entries of either sign, so the sum's start shows in the bits.
    A = (np.stack([random_gen(a, rng) for _ in range(d)])
         * rng.choice([-1.0, 0.0, 1.0], size=(d, a, a)))
    B = np.stack([random_gen(b, rng) for _ in range(d)])
    A = A if complex_a else A.real
    B = B if complex_b else B.real
    assert same_bits(nk.kron_sum(A, B), kron_sum_loop(A, B))


def test_kron_sum_refuses_unpaired_stacks():
    with pytest.raises(ValueError, match="do not pair up"):
        nk.kron_sum(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), n=st.integers(1, 4), seed=seeds)
def test_square_sum_matches_loop(d, n, seed):
    rng = np.random.default_rng(seed)
    X = HermTuple([sampling.random_herm(n, rng) for _ in range(d)])
    got, want = X.square_sum(), square_sum_loop(X)
    # The same products; numpy adds a long run of 1 x 1 terms pairwise.
    scale = square_sum_loop(np.abs(X.matrices)).max()
    assert np.abs(got - want).max() <= 1e-15 * d * scale
    if n > 1:
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(kinds=members, n=st.integers(1, 4), seed=seeds)
def test_hat_and_tilde_match_loops(kinds, n, seed):
    rng = np.random.default_rng(seed)
    X = GenTuple([draw_member(k, n, rng) for k in kinds])
    H = _hat_tuple(X)
    assert H.hermitian
    assert same_bits(H.matrices, herm_stack_loop(hat_tuple_loop(X)))
    T = _tilde_tuple(X)
    assert type(T) is GenTuple
    assert same_bits(T.matrices, np.stack(tilde_tuple_loop(X)))
    Y = HermTuple(herm_stack_loop(X.matrices + X.matrices.conj()
                                  .swapaxes(1, 2), tol=np.inf))
    assert type(_tilde_tuple(Y)) is HermTuple
    assert same_bits(_tilde_tuple(Y).matrices,
                     herm_stack_loop(tilde_tuple_loop(Y)))


@settings(max_examples=60, deadline=None)
@given(kinds=members, n=st.integers(1, 4), seed=seeds)
def test_re_im_parts_match_loop(kinds, n, seed):
    rng = np.random.default_rng(seed)
    mats = [draw_member(k, n, rng) for k in kinds]
    assert same_bits(nk.re_im_parts(mats), np.stack(re_im_parts_loop(mats)))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), n=st.integers(1, 4), seed=seeds)
def test_herm_tuple_is_one_hermitize_of_the_members(d, n, seed):
    rng = np.random.default_rng(seed)
    mats = [sampling.random_herm(n, rng)
            + 1e-13 * random_gen(n, rng) for _ in range(d)]
    assert same_bits(HermTuple(mats).matrices, herm_stack_loop(mats))
    assert same_bits(HermTuple(mats).scaled(0.3).matrices,
                     herm_stack_loop([0.3 * M for M in herm_stack_loop(mats)]))


@pytest.mark.parametrize("kind", [GenTuple, HermTuple])
def test_matrices_are_read_only_and_not_aliased(kind):
    S = np.stack([np.eye(2, dtype=complex), np.diag([1.0 + 0j, -1.0])])
    X = kind(S)
    assert isinstance(X.matrices, np.ndarray)
    assert X.matrices.shape == (2, 2, 2) and X.matrices.dtype == complex
    assert len(X) == X.d == 2
    assert not np.shares_memory(X.matrices, S)
    for view in (X.matrices, X[0], X.scaled(2.0).matrices, next(iter(X))):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 5.0
    S[0, 0, 0] = 7.0
    assert X[0][0, 0] == 1.0
    # A tuple accepts another tuple, as it accepts any sequence.
    assert same_bits(kind(X).matrices, X.matrices)


@pytest.mark.parametrize("bad, message", [
    ([], "empty tuple"),
    ([np.eye(2), np.eye(3)], None),
    (np.eye(2), "square of equal size"),
    (np.zeros((2, 2, 3)), "square of equal size"),
    ([np.full((2, 2), np.nan)], "non-finite"),
])
def test_constructor_refusals(bad, message):
    with pytest.raises(ValueError, match=message):
        GenTuple(bad)


@settings(max_examples=80, deadline=None)
@given(N=st.integers(2, 30), d=st.integers(1, 3), chunk=st.integers(1, 60),
       copies=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                       max_size=3),
       seed=seeds)
def test_coincidence_chunks_find_the_first_pair(N, d, chunk, copies, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((N, d))
    for src, dst in copies:
        # Copies land anywhere, so pairs straddle chunk boundaries.
        V[dst % N] = V[src % N] + 1e-12 * rng.standard_normal(d)
    radius = 1e-9 * np.maximum(np.linalg.norm(V, axis=1), 1.0)
    saved = frames.PAIR_CHUNK
    frames.PAIR_CHUNK = chunk
    try:
        got = frames._first_coincident_pair(V, radius)
    finally:
        frames.PAIR_CHUNK = saved
    assert got == first_coincident_pair_loop(V, radius)


def test_check_tight_names_a_pair_across_chunks(monkeypatch):
    # 8 x 2 = 16 coordinates a row and chunks of 2 rows: rows 0-1, 2-3, ...
    angles = np.pi * np.arange(8) / 8
    V = np.column_stack([np.cos(angles), np.sin(angles)])
    V[6] = V[3]
    monkeypatch.setattr(frames, "PAIR_CHUNK", 32)
    with pytest.raises(ValueError, match="frame vectors 3 and 6 coincide"):
        frames.check_tight(V)


def test_pair_cap_boundary():
    N, d = 64, 3
    work = N * (N - 1) // 2 * d
    saved = frames.FRAME_PAIR_CAP
    try:
        frames.FRAME_PAIR_CAP = work
        frames._require_pair_work(N, d, "these")
        frames.FRAME_PAIR_CAP = work - 1
        with pytest.raises(ValueError, match="capped at"):
            frames._require_pair_work(N, d, "these")
    finally:
        frames.FRAME_PAIR_CAP = saved


def test_check_tight_refuses_before_the_pair_test(tmp_path, capsys):
    with pytest.raises(ValueError, match="20000 vectors in R\\^1"):
        frames.check_tight(np.ones((20000, 1)))
    # A frame file past the cap is an input error, not a frame that is not
    # tight.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vectors": np.ones((20000, 1)).tolist()}))
    assert main(["frame", "check", str(path)]) == 4
    captured = capsys.readouterr()
    assert f"{path}: refusing" in captured.err and captured.out == ""


@pytest.mark.parametrize("builder, d", [
    ("pm_basis", "407"), ("pm_basis", "100000"),
    ("cube_corners", "13"), ("cube_corners", "1000000000"),
])
def test_builder_past_pair_cap_exits_4(builder, d, capsys):
    # Refused from d alone: pm_basis --d 100000 would otherwise ask for two
    # 80 GB identity matrices.
    code = main(["frame", "check", builder, "--d", d])
    captured = capsys.readouterr()
    assert code == 4
    assert "capped at" in captured.err and captured.out == ""


@settings(max_examples=40, deadline=None)
@given(grid=st.lists(st.one_of(st.floats(1e-15, 1e-9), st.floats(1e-3, 5.0)),
                     min_size=1, max_size=20))
def test_nonscalable_rows_match_per_row_opnorm(grid):
    rows = nonscalable_check(grid)["rows"]
    for row, c in zip(rows, grid, strict=True):
        assert row["c"] == c
        assert row["svd_norm"] == nk.opnorm(c * NONSCALABLE_T - np.eye(2))
        assert row["root_norm"] == c + np.sqrt(c * c + (1.0 - c) ** 2)


def test_nonscalable_report_prints_per_row_norms():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["witness", "nonscalable", "--rows"]) == 0
    rows = json.loads(out.getvalue())["result"]["rows"]
    grid = np.linspace(0.01, 3.0, 300)
    assert [r["svd_norm"] for r in rows] == [
        nk.opnorm(float(c) * NONSCALABLE_T - np.eye(2)) for c in grid]


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(1, 3), seed=seeds,
       kind=st.sampled_from(["flip", "lambda"]))
def test_dilation_residuals_match_member_loop(d, n, seed, kind):
    rng = np.random.default_rng(seed)
    X = HermTuple(sampling.random_herm_contraction_tuple(d, n, rng))
    D = (flip_dilation(X) if kind == "flip"
         else lambda_dilation(X, flip_sign_family(d)))
    want = dilation_residuals_loop(list(D.T), D.V, X, D.scale)
    got = dilation_residuals(D.T, D.V, X, D.scale)
    assert got == want
    assert all(D.residuals[k] == v for k, v in want.items())


def test_first_non_contraction_is_named():
    X = HermTuple([0.5 * np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)])
    with pytest.raises(DilationError, match="entry 1 is not a contraction: "
                                            "norm 2.000000"):
        flip_dilation(X)


def test_first_non_commuting_pair_is_named():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = [np.eye(2), np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), flip,
            np.diag([1.0, -1.0])]
    with pytest.raises(NotCommutingError) as info:
        simultaneous_diagonalize(mats)
    assert info.value.pair == (1, 3)
    assert info.value.norm == nk.opnorm(mats[1] @ flip - flip @ mats[1])
