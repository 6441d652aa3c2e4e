"""Command-line frontend: every operation over JSON files.

Exit codes: 0 definite positive, 1 definite negative, 2 undecided,
3 malformed JSON (with position info), 4 usage or IO or schema error.
Reports are canonical JSON on stdout (byte-identical for identical inputs
and seed); wall-clock timing goes to stderr so it never perturbs the report.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from . import jsonio
from . import sets
from . import ucp as ucpmod
from . import witnesses as wit
from .dilation import (
    DilationError,
    DilationInputError,
    cube_to_diamond_dilation,
    diamond_dilation,
    flip_dilation,
    frame_dilation,
    lambda_dilation,
)
from .frames import (
    FRAME_BUILDERS,
    Frame,
    FrameError,
    build_frame,
    check_tight,
    is_vertex_reflexive,
    projection_invariance,
    symmetry_group,
)
from .sdp import LpCycleGuardError, Status

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_BAD_JSON = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 by default, which collides with the
    'undecided' verdict; route usage errors to the dedicated code.

    argparse reads only ``-<digits>`` and ``-<digits>.<digits>`` as negative
    numbers and takes ``-1e-9`` for an option, so ``--tol -1e-9`` failed
    with "expected one argument" instead of the range message.  The parser
    and its subparsers (which argparse builds with the parser's class) also
    read exponent forms as values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    partial = False  # built for one subcommand (see ``build_parser``)

    def error(self, message):
        parser = build_parser() if self.partial else self
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class CliInputError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load(path: Optional[str]):
    if path is None:  # an optional positional the subcommand needs
        raise CliInputError("a required JSON file argument is missing")
    try:
        return jsonio.load_json(path)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}",
            code=EXIT_BAD_JSON) from exc
    except OSError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _decoded(decode, path: str, **kwargs):
    """``decode`` applied to the JSON at ``path``; a schema error names the
    file."""
    try:
        return decode(_load(path), **kwargs)
    except jsonio.SchemaError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _tuple_arg(path: str, hermitian: bool = True):
    return _decoded(jsonio.decode_tuple, path, hermitian=hermitian)


def _polytope_arg(path: str):
    return _decoded(jsonio.decode_polytope, path)


def _frame_arg(spec: str, d: Optional[int]) -> Frame:
    """A frame argument: a builder name or a JSON path.  Every builder error
    is an input error; so is a file that decodes to a degenerate frame.  A
    file that is not tight raises the ``FrameError`` of ``check_tight``."""
    if spec in FRAME_BUILDERS:
        try:
            return build_frame(spec, d=d)
        except (ValueError, FrameError) as exc:
            raise CliInputError(str(exc)) from exc
    vecs = _decoded(jsonio.decode_frame_vectors, spec)
    try:
        return check_tight(vecs)
    except ValueError as exc:  # zero, repeated or too few vectors
        raise CliInputError(f"{spec}: {exc}") from exc


def _status_exit(status: Status) -> int:
    if status is Status.FEASIBLE:
        return EXIT_POSITIVE
    if status is Status.INFEASIBLE:
        return EXIT_NEGATIVE
    return EXIT_UNDECIDED


def _feas_report(res, with_witness: bool = False) -> dict:
    out = {
        "status": res.status.value,
        "residual": float(res.residual),
        "iterations": int(res.iterations),
    }
    if res.message:
        out["message"] = res.message
    if with_witness and res.witness is not None:
        out["witness"] = list(res.witness)
    if with_witness and res.certificate is not None:
        out["certificate"] = {"pencil": list(res.certificate.dual),
                              "value": res.certificate.value}
    return out


def _bool_exit(flag: bool) -> int:
    return EXIT_POSITIVE if flag else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Handlers: each returns (exit_code, report_body)
# ---------------------------------------------------------------------------


def _cmd_member(args) -> tuple[int, dict]:
    kind = args.kind
    if kind == "wmax":
        X = _tuple_arg(args.input)
        P = _polytope_arg(args.polytope)
        ok = sets.wmax_member(X, P, tol=args.tol)
        return _bool_exit(ok), {"member": ok}
    if kind == "wmin":
        X = _tuple_arg(args.input)
        P = _polytope_arg(args.polytope)
        res = sets.wmin_member(X, P, max_iter=args.max_iter,
                               tol_feas=args.tol)
        return _status_exit(res.status), _feas_report(res, args.witness)
    if kind == "pencil":
        A = _tuple_arg(args.input, hermitian=not args.general)
        X = _tuple_arg(args.polytope, hermitian=not args.general)
        ok = sets.pencil_member(sets.Pencil(A), X, tol=args.tol)
        return _bool_exit(ok), {"member": ok}
    X = _tuple_arg(args.input)
    if kind == "ball":
        ok = sets.ball_member(X, tol=args.tol)
    elif kind == "dball":
        ok = sets.selfdual_member(X, tol=args.tol)
    elif kind == "cube":
        ok = sets.cube_member(X, tol=args.tol)
    else:  # diamond
        ok = sets.diamond_wmax_member(X, tol=args.tol)
    return _bool_exit(ok), {"member": ok}


def _cmd_dilate(args) -> tuple[int, dict]:
    X = _tuple_arg(args.input)
    try:
        if args.kind == "flip":
            D = flip_dilation(X, tol=args.tol)
        elif args.kind == "lambda":
            fam = _decoded(jsonio.decode_lambda_family, args.family)
            D = lambda_dilation(X, fam)
        elif args.kind == "frame":
            vecs = _decoded(jsonio.decode_frame_vectors, args.family)
            weights = None
            if args.weights:
                weights = [float(w) for w in args.weights.split(",")]
                if (len(weights) != len(vecs)
                        or not all(w > 0 for w in weights)):
                    raise CliInputError(
                        f"--weights needs {len(vecs)} positive values, one "
                        "per frame vector")
            D = frame_dilation(X, vecs, weights=weights, tol=args.tol)
        elif args.kind == "diamond":
            D = diamond_dilation(X, tol=args.tol)
        else:  # cube2diamond
            D = cube_to_diamond_dilation(X, tol=args.tol)
    except DilationInputError as exc:
        raise CliInputError(f"{args.family}: {exc}") from exc
    except DilationError as exc:
        return EXIT_NEGATIVE, {"error": str(exc)}
    return EXIT_POSITIVE, {"dilation": jsonio.encode_dilation(D)}


def _cmd_map(args) -> tuple[int, dict]:
    if args.kind == "normal":
        atoms_a = _decoded(jsonio.decode_atoms, args.source)
        atoms_b = _decoded(jsonio.decode_atoms, args.target)
        mode = ucpmod.MapMode[args.mode.upper()]
        ok = ucpmod.normal_ucp_exists(atoms_a, atoms_b, mode)
        return _bool_exit(ok), {"exists": ok, "mode": mode.value}
    hermitian = not args.general
    A = _tuple_arg(args.source, hermitian=hermitian)
    B = _tuple_arg(args.target, hermitian=hermitian)
    fn = {"ucp": ucpmod.ucp_exists, "ccp": ucpmod.ccp_exists,
          "cc": ucpmod.cc_exists}[args.kind]
    res = fn(A, B, max_iter=args.max_iter, tol_feas=args.tol)
    report = _feas_report(res)
    if res.status is Status.INFEASIBLE:
        report["message"] = (f"no {args.kind.upper()} map found "
                             f"(residual {res.residual:.3e})")
    if args.witness:
        _add_choi_evidence(report, res)
    return _status_exit(res.status), report


def _add_choi_evidence(report: dict, res) -> None:
    """The Choi witness (``"choi"``) or the separating functional
    (``"certificate"``) of a Choi feasibility result, for ``--witness``."""
    if res.witness is not None:
        report["choi"] = res.witness[0]
    if res.certificate is not None:
        report["certificate"] = {"functional": res.certificate.functional[0],
                                 "value": res.certificate.value}


def _cmd_include(args) -> tuple[int, dict]:
    if args.kind == "spectra":
        A = _tuple_arg(args.source, hermitian=not args.general)
        B = _tuple_arg(args.target, hermitian=not args.general)
        mode, res = ucpmod.spectrahedron_inclusion(
            A, B, max_iter=args.max_iter, tol_feas=args.tol)
        report = _feas_report(res)
        if args.witness:
            report["map"] = mode.value
            _add_choi_evidence(report, res)
        return _status_exit(res.status), report
    B = _tuple_arg(args.source)
    out = ucpmod.relax_cube(B, max_iter=args.max_iter,
                            tol_feas=args.tol)
    report = {
        "verdict": out.verdict.value,
        "cube_in_level1": out.cube_in_level1,
        "wmin": _feas_report(out.wmin_result, args.witness),
    }
    if out.violated_sign is not None:
        report["violated_sign"] = [int(s) for s in out.violated_sign]
    code = (EXIT_POSITIVE if out.verdict is ucpmod.RelaxVerdict.CUBE_EXCLUDED
            else EXIT_UNDECIDED)
    return code, report


def _cmd_frame(args) -> tuple[int, dict]:
    try:
        f = _frame_arg(args.frame, args.d)
    except FrameError as exc:  # a frame file that is not tight
        if args.kind == "check":
            return EXIT_NEGATIVE, {"tight": False, "error": str(exc)}
        raise CliInputError(f"{args.frame}: {exc}") from exc
    if args.kind == "check":
        return EXIT_POSITIVE, {
            "tight": True, "count": f.count, "dim": f.dim,
            "norm": f.norm, "sigma": f.sigma,
        }
    if args.kind == "sym":
        g = symmetry_group(f, cap=args.cap)
        return EXIT_POSITIVE, {
            "order": g.order,
            "transitive": g.is_transitive(),
            "closure": g.verify_closure(),
        }
    if args.kind == "reflexive":
        ok, report = is_vertex_reflexive(f, symmetry_group(f, cap=args.cap))
        return _bool_exit(ok), {
            "vertex_reflexive": ok,
            "per_vector": [
                {k: (v if not isinstance(v, float) or np.isfinite(v) else None)
                 for k, v in r.items()} for r in report
            ],
        }
    try:
        ok = projection_invariance(f)
    except LpCycleGuardError as exc:  # an LP hit its iteration cap
        return EXIT_UNDECIDED, {"projection_invariant": None,
                                "message": str(exc)}
    return _bool_exit(ok), {"projection_invariant": ok}


def _cmd_witness(args) -> tuple[int, dict]:
    if args.kind == "clifford":
        B = wit.clifford_tuple(args.d)
        exact = B.anticommutation_exact
        report = {
            "d": args.d, "size": B.size, "anticommutation_exact": exact,
            "matrices": list(B.matrices) if args.d <= 5 else None,
        }
        return _bool_exit(exact), report
    if args.kind == "sharpness":
        r = wit.sharpness_check(args.d, seed=args.seed)
        ok = abs(r["lambda_max"] - args.d) <= 1e-9
        return _bool_exit(ok), r
    if args.kind == "sqrtd":
        r = wit.sqrt_d_check(args.d)
        ok = (abs(r["tensor_norm_over_d"] - 1.0) <= 1e-9
              and r["boundary_member"] and not r["shrunk_member"])
        return _bool_exit(ok), r
    if args.kind == "nonscalable":
        r = wit.nonscalable_check(
            wit.nonscalable_grid(args.cmin, args.cmax, args.count),
            rows=args.rows)
        ok = (r["min_excess_over_one"] > 1e-9
              and r["max_formula_gap"] <= 1e-9)
        return _bool_exit(ok), r
    if args.kind == "chain":
        r = wit.ball_chain_witnesses(args.d)
        ok = (r["pair_outside_min_set"]
              and r["switch_square_identity_exact"]
              and not r["switch_in_ball"]
              and r["switch_arrow_form_exact"])
        return _bool_exit(ok), r
    r = wit.tau_rho_harness(args.set, samples=args.samples, d=args.d,
                            seed=args.seed, max_iter=args.max_iter)
    code = (EXIT_POSITIVE if r["feasible_at_scale"] == r["samples"]
            else EXIT_UNDECIDED)
    return code, r


def _cmd_dual(args) -> tuple[int, dict]:
    P = _polytope_arg(args.polytope)
    try:
        Q = sets.polar_dual_polytope(P)
    except sets.SetsError as exc:
        return EXIT_NEGATIVE, {"error": str(exc)}
    return EXIT_POSITIVE, {"dual": jsonio.encode_polytope(Q)}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite float that is not negative."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(
            f"needs a finite value >= 0, not {text!r}")
    return value


def _iteration_cap(text: str) -> int:
    """A ``--max-iter`` value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1, not {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_tolerance, default=1e-9,
                   help="membership/feasibility tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized subroutines (default 0)")
    p.add_argument("--max-iter", dest="max_iter", type=_iteration_cap,
                   default=20000,
                   help="iteration cap for feasibility solves (default 20000)")
    p.add_argument("--out", type=str, default=None,
                   help="write the JSON report here instead of stdout")


def _member_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["wmax", "wmin", "ball", "dball", "cube",
                                    "diamond", "pencil"])
    p.add_argument("input", help="tuple JSON (pencil: coefficient tuple)")
    p.add_argument("polytope", nargs="?", default=None,
                   help="polytope JSON (wmax/wmin) or point tuple (pencil)")
    p.add_argument("--general", action="store_true",
                   help="treat tuples as general (non-Hermitian)")
    p.add_argument("--witness", action="store_true",
                   help="include the witness blocks, or the separating "
                        "pencil of an Infeasible verdict, in the report")


def _dilate_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["flip", "lambda", "frame", "diamond",
                                    "cube2diamond"])
    p.add_argument("input", help="Hermitian tuple JSON")
    p.add_argument("family", nargs="?", default=None,
                   help="rank-one family JSON (lambda) or frame JSON (frame)")
    p.add_argument("--weights", type=str, default=None,
                   help="comma-separated frame weights")


def _map_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["ucp", "ccp", "cc", "normal"])
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mode", choices=["ucp", "ccp", "cc"], default="ucp",
                   help="mode for atom-list queries (map normal)")
    p.add_argument("--general", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="include the Choi witness, or the separating "
                        "functional of an Infeasible verdict, in the report")


def _include_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["spectra", "relax-cube"])
    p.add_argument("source", help="tuple JSON")
    p.add_argument("target", nargs="?", default=None,
                   help="target tuple JSON (spectra)")
    p.add_argument("--general", action="store_true")
    p.add_argument("--witness", action="store_true",
                   help="include the Choi witness or separating functional "
                        "(spectra), or the witness blocks or pencil of the "
                        "wmin test (relax-cube), in the report")


def _frame_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["check", "sym", "reflexive", "invariance"])
    p.add_argument("frame", help="frame JSON path or builder name "
                                 f"({', '.join(sorted(FRAME_BUILDERS))})")
    p.add_argument("--d", type=int, default=None,
                   help="dimension for dimensioned builders")
    p.add_argument("--cap", type=int, default=24,
                   help="symmetry search cap (default 24)")


def _witness_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["clifford", "sharpness", "sqrtd",
                                    "nonscalable", "chain", "taurho"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--set", choices=["cube", "diamond", "ball", "simplex"],
                   default="cube", help="target set for taurho")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--cmin", type=float, default=0.01)
    p.add_argument("--cmax", type=float, default=3.0)
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--rows", action="store_true",
                   help="include the per-grid-point rows (nonscalable)")


def _dual_args(p: argparse.ArgumentParser):
    p.add_argument("kind", choices=["polytope"])
    p.add_argument("polytope", help="polytope JSON")


# name: (help, the subcommand's own arguments, handler), in usage order.
_COMMANDS = {
    "member": ("membership oracles", _member_args, _cmd_member),
    "dilate": ("dilation constructions", _dilate_args, _cmd_dilate),
    "map": ("map-existence tests", _map_args, _cmd_map),
    "include": ("pencil-domain inclusion tests", _include_args,
                _cmd_include),
    "frame": ("tight-frame analysis", _frame_args, _cmd_frame),
    "witness": ("extremal examples and certificates", _witness_args,
                _cmd_witness),
    "dual": ("scalar polar duality", _dual_args, _cmd_dual),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``matconv`` parser; with ``command``, one that knows only that
    subcommand.  Its help and errors read as the full parser's: a
    subcommand's own text does not name the others, and a top-level error
    prints the full usage (:meth:`_Parser.error`)."""
    parser = _Parser(prog="matconv",
                     description="matrix convex sets toolbox")
    parser.partial = command is not None
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            _add_common(p)
            p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named subcommand's parser is built: building all of them
    # costs more than most queries.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, body = args.handler(args)
    except CliInputError as exc:
        print(f"matconv: {exc}", file=sys.stderr)
        return exc.code
    except (FrameError, sets.SetsError, wit.WitnessError,
            ValueError) as exc:
        print(f"matconv: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = {
        "command": f"{args.command} {getattr(args, 'kind', '')}".strip(),
        "params": {
            "tol": args.tol,
            "seed": args.seed,
            "max_iter": args.max_iter,
        },
        "exit_code": code,
        "result": body,
    }
    text = jsonio.dumps_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"matconv: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    print(f"timing: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
