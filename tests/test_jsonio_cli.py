import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import pauli_pair
from matconv import jsonio, sampling
from matconv.cli import main
from matconv.dilation import flip_dilation
from matconv.frames import pentagon_frame
from matconv.sets import HermTuple, cube_polytope, diamond_polytope


# ---------------------------------------------------------------------------
# Schema round trips
# ---------------------------------------------------------------------------


class TestSchemas:
    def test_scalar_round_trip(self):
        for z in (0.0, 1.5, -2 + 3j, 1e-12j):
            got = jsonio.decode_matrix(jsonio.encode_matrix([[z]]))
            assert got[0, 0] == complex(z)

    def test_plain_number_is_real(self):
        got = jsonio.decode_matrix([[2.5, [1, -2.0]]])
        assert got.dtype == complex
        assert got.tolist() == [[2.5 + 0j, 1 - 2j]]

    def test_matrix_round_trip(self, rng):
        M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        got = jsonio.decode_matrix(jsonio.encode_matrix(M))
        assert np.allclose(got, M)

    def test_tuple_round_trip(self):
        X = pauli_pair()
        obj = jsonio.encode_tuple(X)
        assert obj["d"] == 2 and obj["n"] == 2
        Y = jsonio.decode_tuple(obj)
        assert all(np.allclose(a, b) for a, b in zip(X, Y))
        # Round trip is a fixpoint.
        assert jsonio.encode_tuple(Y) == obj

    def test_tuple_shape_validation(self):
        with pytest.raises(jsonio.SchemaError, match="d does not match"):
            jsonio.decode_tuple({"d": 3, "n": 1, "matrices": [[[1.0]]]})

    def test_polytope_round_trip(self):
        P = cube_polytope(2)
        obj = jsonio.encode_polytope(P)
        Q = jsonio.decode_polytope(obj)
        assert np.allclose(Q.vertices, P.vertices)
        assert np.allclose(Q.facet_normals, P.facet_normals)
        assert jsonio.encode_polytope(Q) == obj

    def test_frame_round_trip(self):
        f = pentagon_frame()
        obj = {"dim": f.dim, "vectors": f.vectors.tolist()}
        g = jsonio.decode_frame(obj)
        assert np.allclose(g.vectors, f.vectors)

    def test_dilation_encode(self):
        D = flip_dilation(pauli_pair())
        obj = json.loads(jsonio.dumps_report(jsonio.encode_dilation(D)))
        assert obj["scale"] == 1.0
        T0 = jsonio.decode_matrix(obj["T"][0])
        assert np.allclose(T0, D.T[0])

    def test_lambda_family_decode_recomputes_betas(self):
        lams = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]
        fam = jsonio.decode_lambda_family({"lambdas": lams})
        assert np.allclose(fam.betas, [0.5, 0.5], atol=1e-9)

    def test_lambda_family_is_real(self):
        lam = [[[1.0, 0.0]]]           # [re, im] pairs with im 0 are real
        fam = jsonio.decode_lambda_family({"lambdas": [lam], "betas": [1.0]})
        assert fam.lambdas.dtype == float
        assert fam.lambdas.tolist() == [[[1.0]]]
        lam[0][0] = [1.0, 1e-3]
        with pytest.raises(jsonio.SchemaError, match="must be real"):
            jsonio.decode_lambda_family({"lambdas": [lam], "betas": [1.0]})

    def test_atoms_decode_rejects_empty_points(self):
        with pytest.raises(jsonio.SchemaError,
                           match="non-empty list of points"):
            jsonio.decode_atoms({"points": []})
        with pytest.raises(jsonio.SchemaError,
                           match="non-empty list of points"):
            jsonio.decode_atoms({"points": [[]]})


# ---------------------------------------------------------------------------
# The canonical report writer
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1) + "\n"


def per_scalar_lists(obj):
    """The report tree with every array replaced by the per-scalar
    ``[re, im]`` lists that reports were once built from."""
    if isinstance(obj, np.ndarray):
        return [[[float(complex(z).real), float(complex(z).imag)]
                 for z in row] for row in np.asarray(obj, dtype=complex)]
    if isinstance(obj, dict):
        return {k: per_scalar_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [per_scalar_lists(v) for v in obj]
    return obj


EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               5e-324, -5e-324, 1e308, -1e308, 0.1, 1e-17, 1e16]
report_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
report_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                            max_side=4),
               elements=report_floats),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=4),
               elements=st.builds(complex, report_floats, report_floats)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2,
                                          max_side=4)),
)
report_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | report_floats
    | st.text(max_size=6) | report_arrays,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=24)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(tree=report_trees)
    def test_matches_json_of_per_scalar_lists(self, tree):
        assert jsonio.dumps_report(tree) == \
            canonical_json(per_scalar_lists(tree))

    def test_edge_cases(self):
        tree = {"\u00e9\u20ac \"q\"\\": [np.array([[-0.0, float("nan")],
                                                   [float("-inf"), 5e-324]]),
                                         np.zeros((0, 2)), np.zeros((2, 0)),
                                         {}, [], (1, 2.5), None, True],
                "a": np.eye(2, dtype=np.int64) * (1 + 1j)}
        assert jsonio.dumps_report(tree) == \
            canonical_json(per_scalar_lists(tree))

    def test_encode_matrix_matches_written_matrix(self, rng):
        M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert jsonio.encode_matrix(M) == per_scalar_lists(M)
        assert jsonio.dumps_report({"m": M}) == \
            canonical_json({"m": jsonio.encode_matrix(M)})

    @pytest.mark.parametrize("bad", [
        np.zeros(3), np.zeros((2, 2, 2)), np.array(1.0),
        {1: 0.0}, {None: 0.0}, {(1, 2): 0.0}, np.int64(3), np.bool_(True),
        object(), {1.5, 2.5},
    ], ids=["1d", "3d", "0d", "int_key", "none_key", "tuple_key", "int64",
            "bool_", "object", "set"])
    def test_rejects(self, bad):
        with pytest.raises(TypeError):
            jsonio.dumps_report({"a": [bad]})


# ---------------------------------------------------------------------------
# CLI behaviour (in-process via main(), plus one subprocess sanity check)
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("pauli.json", jsonio.encode_tuple(pauli_pair()))
    write("half_pauli.json", jsonio.encode_tuple(pauli_pair().scaled(0.5)))
    write("scalar.json", {"d": 2, "n": 1,
                          "matrices": [[[0.25]], [[0.1]]]})
    write("cube.json", jsonio.encode_polytope(cube_polytope(2)))
    write("diamond.json", jsonio.encode_polytope(diamond_polytope(2)))
    write("atoms_cube.json", {"points": cube_polytope(2).vertices.tolist()})
    write("atoms_diamond.json",
          {"points": diamond_polytope(2).vertices.tolist()})
    paths["dir"] = str(tmp_path)
    return paths


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out else None
    return code, report, out.err


class TestCliVerdicts:
    def test_member_cube_positive(self, workdir, capsys):
        code, rep, _ = run_cli(["member", "cube", workdir["pauli.json"]],
                               capsys)
        assert code == 0
        assert rep["result"]["member"] is True
        assert rep["params"]["seed"] == 0

    def test_member_diamond_negative(self, workdir, capsys):
        code, rep, _ = run_cli(["member", "diamond", workdir["pauli.json"]],
                               capsys)
        assert code == 1
        assert rep["result"]["member"] is False

    def test_member_wmin_scalar(self, workdir, capsys):
        code, rep, _ = run_cli(
            ["member", "wmin", workdir["scalar.json"], workdir["cube.json"]],
            capsys)
        assert code == 0
        assert rep["result"]["status"] == "Feasible"

    def test_member_wmin_undecidable_input_is_negative(self, workdir, capsys):
        code, rep, _ = run_cli(
            ["member", "wmin", workdir["pauli.json"],
             workdir["diamond.json"]], capsys)
        assert code == 1
        assert rep["result"]["status"] == "Infeasible"

    def test_map_ucp_and_normal(self, workdir, capsys):
        code, rep, _ = run_cli(
            ["map", "ucp", workdir["pauli.json"], workdir["half_pauli.json"]],
            capsys)
        assert code == 0
        code, rep, _ = run_cli(
            ["map", "normal", workdir["atoms_cube.json"],
             workdir["atoms_diamond.json"], "--mode", "ucp"], capsys)
        assert code == 0 and rep["result"]["exists"] is True
        code, rep, _ = run_cli(
            ["map", "normal", workdir["atoms_diamond.json"],
             workdir["atoms_cube.json"], "--mode", "ucp"], capsys)
        assert code == 1 and rep["result"]["exists"] is False

    def test_include_relax_cube(self, workdir, capsys):
        code, rep, _ = run_cli(
            ["include", "relax-cube", workdir["pauli.json"]], capsys)
        assert code == 0
        assert rep["result"]["verdict"] == "CubeExcluded"
        assert "certificate" not in rep["result"]["wmin"]
        _, witnessed, _ = run_cli(
            ["include", "relax-cube", workdir["pauli.json"], "--witness"],
            capsys)
        cert = witnessed["result"]["wmin"].pop("certificate")
        assert cert["value"] < 0 and len(cert["pencil"]) == 3
        assert witnessed == rep

    def test_include_spectra_undecided(self, workdir, capsys, tmp_path):
        # 0 is on the boundary of W_1(I, I): the domain is a half-plane, not
        # in the Pauli disc.  An interiority probe once made this exit 2;
        # the padded CCP test certifies the "no", and --witness names it.
        obj = jsonio.encode_tuple(HermTuple([np.eye(2), np.eye(2)]))
        p = tmp_path / "ones.json"
        p.write_text(json.dumps(obj))
        argv = ["include", "spectra", str(p), workdir["pauli.json"]]
        code, rep, _ = run_cli(argv, capsys)
        assert code == 1
        assert rep["result"]["status"] == "Infeasible"
        _, witnessed, _ = run_cli(argv + ["--witness"], capsys)
        assert witnessed["result"].pop("map") == "CCP"
        assert "certificate" in witnessed["result"]

    def test_dilate_flip(self, workdir, capsys):
        code, rep, _ = run_cli(["dilate", "flip", workdir["pauli.json"]],
                               capsys)
        assert code == 0
        dil = rep["result"]["dilation"]
        assert dil["scale"] == 1.0
        assert dil["residuals"]["compression"] <= 1e-9

    def test_dilate_precondition_negative(self, workdir, capsys, tmp_path):
        obj = jsonio.encode_tuple(HermTuple([2 * np.eye(2), np.eye(2)]))
        p = tmp_path / "big.json"
        p.write_text(json.dumps(obj))
        code, rep, _ = run_cli(["dilate", "flip", str(p)], capsys)
        assert code == 1
        assert "contraction" in rep["result"]["error"]

    def test_frame_commands(self, capsys):
        code, rep, _ = run_cli(["frame", "sym", "pentagon"], capsys)
        assert code == 0 and rep["result"]["order"] == 10
        code, rep, _ = run_cli(["frame", "reflexive", "s5_orbit"], capsys)
        assert code == 0 and rep["result"]["vertex_reflexive"] is True
        code, rep, _ = run_cli(["frame", "check", "pm_basis", "--d", "3"],
                               capsys)
        assert code == 0 and rep["result"]["sigma"] == pytest.approx(2.0)

    def test_witness_commands(self, capsys):
        code, rep, _ = run_cli(["witness", "sharpness", "--d", "3"], capsys)
        assert code == 0
        assert rep["result"]["lambda_max"] == pytest.approx(3.0, abs=1e-9)
        code, rep, _ = run_cli(["witness", "nonscalable", "--count", "50"],
                               capsys)
        assert code == 0
        code, rep, _ = run_cli(["witness", "taurho", "--set", "cube",
                                "--d", "2", "--samples", "2"], capsys)
        assert code == 0
        assert rep["result"]["bracket"][0] == pytest.approx(0.5)

    def test_dual_polytope(self, workdir, capsys):
        code, rep, _ = run_cli(["dual", "polytope", workdir["cube.json"]],
                               capsys)
        assert code == 0
        got = sorted(map(tuple, rep["result"]["dual"]["vertices"]))
        want = sorted(map(tuple, diamond_polytope(2).vertices.tolist()))
        assert np.allclose(got, want)

    def test_member_ball_large_entries_negative(self, capsys, tmp_path):
        # I - sum X_j^2 is Hermitian only to rounding of its 1e10-sized
        # entries, far above the default hermiticity tolerance; the verdict
        # is still a definite no.
        rng = np.random.default_rng(7)
        X = HermTuple([1e5 * sampling.random_herm(6, rng) for _ in range(3)])
        p = tmp_path / "big.json"
        p.write_text(json.dumps(jsonio.encode_tuple(X)))
        code, rep, _ = run_cli(["member", "ball", str(p)], capsys)
        assert code == 1
        assert rep["result"] == {"member": False}

    def test_member_pencil(self, workdir, capsys, tmp_path):
        # The anticommuting pair's own pencil rejects the unscaled pair.
        code, rep, _ = run_cli(
            ["member", "pencil", workdir["pauli.json"],
             workdir["half_pauli.json"]], capsys)
        assert code == 0 and rep["result"]["member"] is True
        code, rep, _ = run_cli(
            ["member", "pencil", workdir["pauli.json"],
             workdir["pauli.json"]], capsys)
        assert code == 1

    def test_dilate_lambda_and_frame(self, workdir, capsys, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({
            "lambdas": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]],
        }))
        code, rep, _ = run_cli(
            ["dilate", "lambda", workdir["half_pauli.json"], str(fam)],
            capsys)
        assert code == 0
        assert rep["result"]["dilation"]["residuals"]["compression"] <= 1e-9
        frame = tmp_path / "frame.json"
        frame.write_text(json.dumps(
            {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}))
        code, rep, _ = run_cli(
            ["dilate", "frame", workdir["half_pauli.json"], str(frame)],
            capsys)
        assert code == 0
        assert rep["result"]["dilation"]["scale"] == pytest.approx(0.5)

    def test_dilate_lambda_with_rounding_betas(self, capsys, tmp_path):
        # A beta in [-1e-12, 0) is rounding: it is clipped to 0, and the
        # isometry never takes the square root of a negative number.
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"d": 1, "n": 1, "matrices": [[[0.5]]]}))
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"lambdas": [[[1.0]], [[1.0]]],
                                   "betas": [1.0000000000001, -1e-13]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep, _ = run_cli(["dilate", "lambda", str(x), str(fam)],
                                   capsys)
        assert code == 0
        residuals = rep["result"]["dilation"]["residuals"]
        assert np.all(np.isfinite(list(residuals.values())))

    def test_dilate_diamond_and_cube2diamond(self, workdir, capsys):
        code, rep, _ = run_cli(
            ["dilate", "diamond", workdir["half_pauli.json"]], capsys)
        assert code == 0
        code, rep, _ = run_cli(
            ["dilate", "cube2diamond", workdir["pauli.json"]], capsys)
        assert code == 0
        assert rep["result"]["dilation"]["residuals"]["sign_sum_bound"] == 2.0

    def test_map_cc_and_ccp(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"d": 1, "n": 1, "matrices": [[[1.0]]]}))
        minus = tmp_path / "minus.json"
        minus.write_text(json.dumps({"d": 1, "n": 1, "matrices": [[[-1.0]]]}))
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"d": 1, "n": 1, "matrices": [[[1.5]]]}))
        code, rep, _ = run_cli(["map", "cc", str(one), str(minus)], capsys)
        assert code == 0
        code, rep, _ = run_cli(["map", "ccp", str(one), str(big)], capsys)
        assert code == 1
        assert "no CCP map found" in rep["result"]["message"]

    def test_frame_invariance_and_check_negative(self, capsys, tmp_path):
        code, rep, _ = run_cli(["frame", "invariance", "simplex3"], capsys)
        assert code == 0 and rep["result"]["projection_invariant"] is True
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps(
            {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}))
        code, rep, _ = run_cli(["frame", "check", str(loose)], capsys)
        assert code == 1 and rep["result"]["tight"] is False

    def test_witness_chain_sqrtd_clifford(self, capsys):
        code, rep, _ = run_cli(["witness", "chain", "--d", "2"], capsys)
        assert code == 0
        assert rep["result"]["pair_outside_min_set"] is True
        code, rep, _ = run_cli(["witness", "sqrtd", "--d", "3"], capsys)
        assert code == 0
        code, rep, _ = run_cli(["witness", "clifford", "--d", "4"], capsys)
        assert code == 0
        assert rep["result"]["anticommutation_exact"] is True


class TestCliPlumbing:
    def test_byte_identical_reports(self, workdir, capsys):
        argv = ["member", "wmin", workdir["scalar.json"], workdir["cube.json"],
                "--seed", "0"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        # Timing never lands in the report.
        assert "timing" not in first

    def test_malformed_json_exit_3_with_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"d": 2, "n": 1, "matrices": [[[0.1]], ')
        code = main(["member", "ball", str(p)])
        err = capsys.readouterr().err
        assert code == 3
        assert "line" in err and "column" in err

    def test_schema_error_exit_4(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        p.write_text('{"rows": []}')
        code = main(["member", "ball", str(p)])
        assert code == 4

    def test_empty_points_schema_error_names_file(self, workdir, capsys,
                                                  tmp_path):
        p = tmp_path / "empty.json"
        p.write_text('{"points": []}')
        code = main(["map", "normal", str(p), workdir["atoms_cube.json"]])
        err = capsys.readouterr().err
        assert code == 4
        assert f"{p}: expected a non-empty list of points" in err

    def test_missing_file_exit_4(self, capsys):
        code = main(["member", "ball", "/nonexistent/x.json"])
        assert code == 4

    def test_unknown_flag_exit_4(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["member", "cube", workdir["pauli.json"], "--frobnicate"])
        assert exc.value.code == 4

    def test_out_flag_writes_file(self, workdir, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["member", "cube", workdir["pauli.json"],
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["result"]["member"] is True

    def test_round_trip_fixpoint_through_cli(self, workdir, capsys, tmp_path):
        out = tmp_path / "dual.json"
        main(["dual", "polytope", workdir["cube.json"], "--out", str(out)])
        rep = json.loads(out.read_text())
        Q = jsonio.decode_polytope(rep["result"]["dual"])
        assert jsonio.encode_polytope(Q) == rep["result"]["dual"]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_console_script_subprocess(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "matconv.cli", "member", "cube",
             workdir["pauli.json"]],
            capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["result"]["member"] is True
        assert "timing" in proc.stderr


# ---------------------------------------------------------------------------
# Every subcommand prints canonical text
# ---------------------------------------------------------------------------


FIXPOINT_ARGV = [
    "member wmax {pauli} {cube}",
    "member wmin {scalar} {cube} --witness",
    "member ball {half_pauli}",
    "member dball {half_pauli}",
    "member cube {pauli}",
    "member diamond {pauli}",
    "member pencil {pauli} {half_pauli}",
    "dilate flip {half_pauli}",
    "dilate lambda {half_pauli} {family}",
    "dilate frame {half_pauli} {frame}",
    "dilate diamond {half_pauli}",
    "dilate cube2diamond {pauli}",
    "map ucp {pauli} {half_pauli} --witness",
    "map ccp {pauli} {half_pauli} --witness",
    "map cc {pauli} {half_pauli} --witness",
    "map normal {atoms_cube} {atoms_diamond} --witness",
    "include spectra {half_pauli} {pauli} --max-iter 200",
    "include relax-cube {pauli}",
    "include spectra {half_pauli} {pauli} --max-iter 200 --witness",
    "include relax-cube {pauli} --witness",
    "frame check pm_basis --d 3",
    "frame sym pentagon",
    "frame reflexive s5_orbit",
    "frame invariance simplex3",
    "witness clifford --d 3",
    "witness sharpness --d 3",
    "witness sqrtd --d 3",
    "witness nonscalable --count 20 --rows",
    "witness chain --d 2",
    "witness taurho --set cube --d 2 --samples 2",
    "dual polytope {cube}",
]


def _fixpoint_id(argv):
    # Subcommand and kind; a witnessed repeat of a case gets its own name.
    words = argv.split()
    head = " ".join(words[:2])
    if "--witness" in words and any(
            a.split()[:2] == words[:2] and "--witness" not in a.split()
            for a in FIXPOINT_ARGV):
        return head + " witness"
    return head


@pytest.mark.parametrize("argv", FIXPOINT_ARGV,
                         ids=[_fixpoint_id(a) for a in FIXPOINT_ARGV])
def test_report_is_load_dump_fixpoint(argv, workdir, capsys, tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({
        "lambdas": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]]}))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(
        {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}))
    names = {k.removesuffix(".json"): v for k, v in workdir.items()}
    args = argv.format(family=str(family), frame=str(frame), **names).split()
    code = main(args)
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    assert out == canonical_json(json.loads(out))


# ---------------------------------------------------------------------------
# Malformed input files: exit 3 or 4, the file named, nothing on stdout
# ---------------------------------------------------------------------------


VALID_INPUTS = {
    "tuple": jsonio.encode_tuple(pauli_pair().scaled(0.5)),
    "polytope": jsonio.encode_polytope(cube_polytope(2)),
    "frame": {"dim": 2, "vectors": pentagon_frame().vectors.tolist()},
    "atoms": {"points": cube_polytope(2).vertices.tolist()},
    "family": {"lambdas": [jsonio.encode_matrix(np.diag([2.0, 0.0])),
                           jsonio.encode_matrix(np.diag([0.0, 2.0]))],
               "betas": [0.5, 0.5]},
}

# Every subcommand that reads a file, with the schema of each file argument.
FILE_COMMANDS = (
    [(f"member {k}", ("tuple", "polytope")) for k in ("wmax", "wmin")]
    + [(f"member {k}", ("tuple",))
       for k in ("ball", "dball", "cube", "diamond")]
    + [("member pencil", ("tuple", "tuple"))]
    + [(f"dilate {k}", ("tuple",))
       for k in ("flip", "diamond", "cube2diamond")]
    + [("dilate lambda", ("tuple", "family")),
       ("dilate frame", ("tuple", "frame"))]
    + [(f"map {k}", ("tuple", "tuple")) for k in ("ucp", "ccp", "cc")]
    + [("map normal", ("atoms", "atoms")),
       ("include spectra", ("tuple", "tuple")),
       ("include relax-cube", ("tuple",))]
    + [(f"frame {k}", ("frame",))
       for k in ("check", "sym", "reflexive", "invariance")]
    + [("dual polytope", ("polytope",))]
)


def _nodes(doc, path=(), in_list=False):
    """``(path, value, parent is a list)`` for every node below the root."""
    items = (enumerate(doc) if isinstance(doc, list)
             else doc.items() if isinstance(doc, dict) else ())
    for key, value in items:
        yield path + (key,), value, isinstance(doc, list)
        yield from _nodes(value, path + (key,))


def _replace(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@st.composite
def malformed_text(draw, schema):
    """The JSON text of a ``schema`` document broken in one way."""
    doc = json.loads(json.dumps(VALID_INPUTS[schema]))
    nodes = list(_nodes(doc))
    numbers = [n for n in nodes if _is_number(n[1])]
    lists = [n for n in nodes if isinstance(n[1], list)]
    declared = [k for k in ("d", "n", "dim") if k in doc]
    kinds = ["mistyped", "empty", "ragged", "boolean", "nonfinite",
             "truncated", "root"] + (["size"] if declared else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "mistyped":
        path, value, in_list = draw(st.sampled_from(numbers + lists))
        # A number in place of an [re, im] pair would still be valid.
        bad = (["1.0", {}, [1.0, 2.0, 3.0], None] if _is_number(value)
               else ["x", {}, [[[1.0]]]] + ([] if in_list else [5]))
        _replace(doc, path, draw(st.sampled_from(bad)))
    elif kind == "empty":
        _replace(doc, draw(st.sampled_from(lists))[0], [])
    elif kind == "ragged":
        path, value, _ = draw(st.sampled_from([n for n in lists if n[2]]))
        value.append(value[-1])
    elif kind == "boolean":
        _replace(doc, draw(st.sampled_from(numbers))[0], draw(st.booleans()))
    elif kind == "nonfinite":
        _replace(doc, draw(st.sampled_from(numbers))[0],
                 draw(st.sampled_from([float("nan"), float("inf"),
                                       float("-inf")])))
    elif kind == "size":
        key = draw(st.sampled_from(declared))
        doc[key] = draw(st.sampled_from([doc[key] + 1, 0, -1, 1.5, "2",
                                         True, [doc[key]]]))
    elif kind == "root":
        doc = draw(st.sampled_from([5, "x", [], [[1.0]], {}, None]))
    text = json.dumps(doc)
    if kind == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_inputs(directory, schemas, bad_slot, bad_text):
    paths = []
    for slot, schema in enumerate(schemas):
        path = directory / f"{slot}_{schema}.json"
        path.write_text(bad_text if slot == bad_slot
                        else json.dumps(VALID_INPUTS[schema]))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("command,schemas", FILE_COMMANDS,
                         ids=[c for c, _ in FILE_COMMANDS])
def test_valid_inputs_are_accepted(command, schemas, tmp_path):
    # The documents the property test below breaks are themselves valid.
    paths = write_inputs(tmp_path, schemas, None, "")
    code, out, _ = run_quiet(command.split() + paths + ["--max-iter", "50"])
    assert code in (0, 1, 2) and out


WITNESS_COMMANDS = ["witness clifford --d 3", "witness sharpness --d 2",
                    "witness sqrtd --d 2", "witness nonscalable --count 5",
                    "witness chain --d 2", "witness taurho --samples 1"]

NO_SCIPY_RUNNER = textwrap.dedent("""
    import contextlib, importlib.abc, io, json, sys

    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError(f"No module named {name!r}")

    sys.meta_path.insert(0, NoScipy())
    try:
        import scipy  # noqa: F401
    except ImportError:
        pass
    else:
        raise SystemExit("scipy was not blocked")
    from matconv.cli import main
    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
    print(json.dumps(codes))
""")


def test_every_subcommand_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import failing, one
    # query of each subcommand gives the exit code it gives here.
    runs = [command.split() + write_inputs(tmp_path, schemas, None, "")
            + ["--max-iter", "50"] for command, schemas in FILE_COMMANDS]
    runs += [w.split() + ["--max-iter", "50"] for w in WITNESS_COMMANDS]
    usual = [run_quiet(argv)[0] for argv in runs]
    assert 4 not in usual
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUNNER, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == usual


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_malformed_file_exits_3_or_4_naming_it(data, tmp_path_factory):
    command, schemas = data.draw(st.sampled_from(FILE_COMMANDS))
    slot = data.draw(st.integers(0, len(schemas) - 1))
    text = data.draw(malformed_text(schemas[slot]))
    paths = write_inputs(tmp_path_factory.mktemp("bad"), schemas, slot, text)
    code, out, err = run_quiet(command.split() + paths
                               + ["--max-iter", "50"])
    assert code in (3, 4)
    assert paths[slot] in err
    assert out == ""
    assert "Traceback" not in err


SEEN_MALFORMED = [
    ("map normal {bad} {atoms}", {"points": 5}),
    ("member ball {bad}", {"d": 1, "n": 1, "matrices": 5}),
    ("member ball {bad}", {"d": [1], "n": 1, "matrices": [[[0.5]]]}),
    ("dilate lambda {tuple} {bad}", {"lambdas": 5}),
    ("dilate frame {tuple} {bad}", {"vectors": 5}),
    ("frame check {bad}", {"dim": 2, "vectors": 5}),
    ("frame check {bad}", {"dim": 3, "vectors": [[1.0, 0.0], [0.0, 1.0]]}),
    ("frame sym {bad}", {"dim": 3, "vectors": [[1.0, 0.0], [0.0, 1.0]]}),
    ("member ball {bad}", {"d": 1, "n": 1, "matrices": [[[True]]]}),
    ("map normal {bad} {atoms}", {"points": [[1.0, 2.0], [3.0]]}),
    # Well-formed files that cannot feed the construction (the tuple has
    # d = 2): a family or frame of another dimension, a frame that is not
    # tight, lambdas whose hull misses the identity or that are complex,
    # and a polytope with neither vertices nor facets.
    ("dilate lambda {tuple} {bad}", {"lambdas": [[[1.0]]], "betas": [1.0]}),
    ("dilate frame {tuple} {bad}",
     {"vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
    ("dilate frame {tuple} {bad}",
     {"dim": 2, "vectors": [[1, 0], [0, 1], [1, 1]]}),
    ("dilate lambda {tuple} {bad}", {"lambdas": [[[2.0]], [[3.0]]]}),
    ("dilate lambda {tuple} {bad}",
     {"lambdas": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, [2.0, 0.5]]]],
      "betas": [0.5, 0.5]}),
    ("dual polytope {bad}", {"dim": 2}),
]


@pytest.mark.parametrize("argv,doc", SEEN_MALFORMED,
                         ids=[f"{a.split()[0]}_{a.split()[1]}_{i}"
                              for i, (a, _) in enumerate(SEEN_MALFORMED)])
def test_seen_malformed_input_exits_4(argv, doc, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    names = {"bad": str(bad)}
    for schema in ("tuple", "atoms"):
        path = tmp_path / f"{schema}.json"
        path.write_text(json.dumps(VALID_INPUTS[schema]))
        names[schema] = str(path)
    code, out, err = run_quiet(argv.format(**names).split())
    assert code == 4
    assert f"matconv: {bad}: " in err
    assert out == ""


def test_zero_frame_vector_named(tmp_path):
    # A zero vector leaves a frame tight; the error names the frame vector,
    # not the rank-one family built from it.
    x, f = tmp_path / "x.json", tmp_path / "f.json"
    x.write_text(json.dumps({"matrices": [[[0.1]], [[0.2]]]}))
    f.write_text(json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1], [0, 0]]}))
    code, out, err = run_quiet(["dilate", "frame", str(x), str(f)])
    assert code == 4 and out == ""
    assert err.strip() == f"matconv: {f}: frame vector 2 is zero"


@pytest.mark.parametrize("argv,docs", [
    ("dilate frame {a} {b}", [
        {"matrices": [[[1.5]], [[0.0]]]},
        {"vectors": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}]),
    ("dual polytope {a}", [{"dim": 1, "vertices": [[1.0], [2.0]]}]),
], ids=["frame_dual_inequality", "dual_0_outside"])
def test_construction_negatives_exit_1(argv, docs, tmp_path):
    # A tuple the construction's hypothesis rules out, or a polytope
    # without 0 inside, is a definite negative, not an input error (as is
    # a non-contraction for the flip dilation, tested above).
    names = {}
    for key, doc in zip("ab", docs):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        names[key] = str(path)
    code, out, _ = run_quiet(argv.format(**names).split())
    assert code == 1
    assert json.loads(out)["result"]["error"]


def test_missing_file_argument_exits_4(workdir, capsys):
    code = main(["member", "wmax", workdir["pauli.json"]])
    captured = capsys.readouterr()
    assert code == 4
    assert "missing" in captured.err and captured.out == ""


FRAME_KINDS = ["check", "sym", "reflexive", "invariance"]


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_refused_builder_exits_4(kind):
    # A builder that refuses its dimension is an input error, never a frame
    # that is not tight.
    code, out, err = run_quiet(["frame", kind, "cube_corners", "--d", "17"])
    assert code == 4
    assert "capped at" in err and out == ""


@pytest.mark.parametrize("argv", [
    "witness taurho --samples 0", "witness taurho --samples -3",
    "witness taurho --set diamond --samples 0",
    "witness nonscalable --count 0"])
def test_witness_without_evidence_exits_4(argv):
    # No sample or grid point is no evidence: an input error, never exit 0
    # on an empty bracket or an infinite margin over an empty grid.
    code, out, err = run_quiet(argv.split())
    assert code == 4
    assert "at least 1" in err
    assert out == ""


# X = (diag(1, -1), sigma_x) / 2 has X_1^2 + X_2^2 = I / 2: a member of the
# ball, the cube, the self-dual ball and Wmax(diamond) (every signed sum
# has norm 1 / sqrt 2).
HALF_ANTICOMMUTING = {"matrices": [[[0.5, 0.0], [0.0, -0.5]],
                                   [[0.0, 0.5], [0.5, 0.0]]]}


@pytest.mark.parametrize("argv", [
    "member ball {x} --tol nan", "member cube {x} --tol nan",
    "member dball {x} --tol nan", "member diamond {x} --tol nan",
    "member ball {x} --tol inf", "member cube {x} --tol=-inf",
    "member ball {x} --tol=-1e-9", "map ucp {x} {x} --max-iter=-5",
    "map ucp {x} {x} --max-iter 0", "member wmin {x} {x} --max-iter 0",
    "member ball {x} --tol -1e-9", "member diamond {x} --tol=-1e-9",
    "dilate diamond {x} --tol -2.5E+3"])
def test_invalid_tol_or_max_iter_exits_4(argv, tmp_path, capsys):
    # A NaN tolerance turned members into non-members (exit 1), and a
    # negative cap printed "iterations": -5 with an infinite residual.
    # "--tol -1e-9" took the value for an option ("expected one argument").
    x = tmp_path / "x.json"
    x.write_text(json.dumps(HALF_ANTICOMMUTING))
    with pytest.raises(SystemExit) as exc:
        main(argv.format(x=x).split())
    captured = capsys.readouterr()
    assert exc.value.code == 4 and captured.out == ""
    flag = "--tol" if "--tol" in argv else "--max-iter"
    assert f"argument {flag}: needs" in captured.err


@pytest.mark.parametrize("kind", ["ball", "cube", "dball", "diamond"])
def test_zero_tol_accepted(kind, tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps(HALF_ANTICOMMUTING))
    code, out, _ = run_quiet(["member", kind, str(x), "--tol", "0"])
    assert code == 0 and json.loads(out)["params"]["tol"] == 0.0


def test_one_iteration_accepted(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps(HALF_ANTICOMMUTING))
    _, out, _ = run_quiet(["map", "ucp", str(x), str(x), "--max-iter", "1"])
    assert json.loads(out)["result"]["iterations"] == 1


@pytest.mark.parametrize("builder", ["pm_basis", "cube_corners"])
@pytest.mark.parametrize("d", ["0", "-1"])
def test_builder_dimension_below_one_exits_4(builder, d):
    # Refused up front: no numpy warning from an empty frame, a plain message.
    code, out, err = run_quiet(["frame", "check", builder, "--d", d])
    assert code == 4
    assert "dimension of at least 1" in err and out == ""


@pytest.mark.parametrize("weights", ["1,1", "1,1,1,1,1", "1,1,0,1",
                                     "1,-2,1,1", "nan,1,1,1", "a,b"])
def test_bad_frame_weights_are_usage_errors(weights, tmp_path):
    # The frame has 4 vectors: a wrong count or a weight that is not
    # positive is a usage error, like one that is not a number.
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"matrices": [[[0.1]], [[0.2]]]}))
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(
        {"vectors": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}))
    argv = ["dilate", "frame", str(x), str(frame), "--weights", weights]
    code, out, err = run_quiet(argv)
    assert code == 4 and out == "" and err
    code, out, _ = run_quiet(argv[:-1] + ["1,2,1,2"])
    assert code == 0 and out


@pytest.mark.parametrize("kind", FRAME_KINDS[1:])
def test_frame_file_not_tight_is_input_error(kind, tmp_path):
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(
        {"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}))
    code, out, err = run_quiet(["frame", kind, str(loose)])
    assert code == 4
    assert f"matconv: {loose}: " in err and out == ""


@pytest.mark.parametrize("kind", FRAME_KINDS)
@pytest.mark.parametrize("spec", ["pentagon", "cube_corners", "file"])
def test_frame_checked_tight_once(kind, spec, monkeypatch, tmp_path):
    import matconv.cli as cli
    import matconv.frames as frames
    if spec == "file":
        spec = str(tmp_path / "frame.json")
        (tmp_path / "frame.json").write_text(
            json.dumps({"vectors": pentagon_frame().vectors.tolist()}))
    calls = []
    real = frames.check_tight

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (frames, jsonio, cli):  # every module that binds it
        if hasattr(module, "check_tight"):
            monkeypatch.setattr(module, "check_tight", counting)
    code, out, _ = run_quiet(["frame", kind, spec, "--d", "3"])
    assert code in (0, 1) and out
    assert len(calls) == 1
