import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import pauli_pair
from matconv import jsonio
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
            assert jsonio.decode_scalar(jsonio.encode_scalar(z)) == complex(z)

    def test_plain_number_is_real(self):
        assert jsonio.decode_scalar(2.5) == 2.5 + 0j

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
        obj = jsonio.encode_frame(f)
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

    def test_povm_decode(self, rng):
        from matconv import sampling
        effs = sampling.random_povm(2, 3, rng)
        obj = {"atoms": [[1.0], [0.0], [-1.0]],
               "effects": [jsonio.encode_matrix(E) for E in effs]}
        p = jsonio.decode_povm(obj)
        assert p.count == 3

    def test_povm_decode_rejects_empty_atoms(self):
        with pytest.raises(jsonio.SchemaError,
                           match="non-empty list of atoms"):
            jsonio.decode_povm({"atoms": [], "effects": []})

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

    def test_include_spectra_undecided(self, workdir, capsys, tmp_path):
        obj = jsonio.encode_tuple(HermTuple([np.eye(2), np.eye(2)]))
        p = tmp_path / "ones.json"
        p.write_text(json.dumps(obj))
        code, rep, _ = run_cli(
            ["include", "spectra", str(p), workdir["pauli.json"]], capsys)
        assert code == 2
        assert rep["result"]["status"] == "Undecided"

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


@pytest.mark.parametrize("argv", FIXPOINT_ARGV,
                         ids=[" ".join(a.split()[:2]) for a in FIXPOINT_ARGV])
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
