"""The CLI's usage, help and error text is the full parser's.

``cli.main`` may build its parser however it likes, but what it prints
before a handler runs (help, version, usage errors) and the exit code it
ends with must be byte for byte what ``build_parser().parse_args`` gives on
the same arguments.  None of these arguments names a file that exists, so
every case ends in the parser.
"""

import contextlib
import io

import pytest

from matconv.cli import build_parser, main

COMMANDS = ("member", "dilate", "map", "include", "frame", "witness", "dual")

# A valid kind and a full set of positionals for each subcommand, so that one
# more word is an unrecognized argument.
FULL_ARGV = {
    "member": ["member", "wmax", "x.json", "p.json"],
    "dilate": ["dilate", "lambda", "x.json", "f.json"],
    "map": ["map", "ucp", "a.json", "b.json"],
    "include": ["include", "spectra", "a.json", "b.json"],
    "frame": ["frame", "check", "pentagon"],
    "witness": ["witness", "clifford"],
    "dual": ["dual", "polytope", "p.json"],
}

# A subcommand with a required positional left out.
MISSING_ARGV = {
    "member": ["member", "ball"],
    "dilate": ["dilate", "flip"],
    "map": ["map", "ucp", "a.json"],
    "include": ["include", "spectra"],
    "frame": ["frame", "check"],
    "witness": ["witness"],
    "dual": ["dual", "polytope"],
}

CASES = (
    [[], ["--help"], ["-h"], ["--version"], ["bogus"], ["bogus", "--help"],
     ["--tol", "0", "map"]]
    + [[c, "--help"] for c in COMMANDS]
    + [[c, "bogus", "a.json", "b.json"] for c in COMMANDS]
    + list(MISSING_ARGV.values())
    + [argv + ["extra"] for argv in FULL_ARGV.values()]
    + [argv + ["--version"] for argv in FULL_ARGV.values()]
    + [["member", "ball", "x.json", "--tol", "-1e-9"],
       ["map", "ucp", "a.json", "b.json", "--tol", "-1e-9"],
       ["map", "ucp", "a.json", "b.json", "--max-iter", "0"],
       ["witness", "chain", "--d", "two"]]
)


def _run(fn, argv):
    """``(exit code, stdout, stderr)`` of ``fn(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            fn(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_main_prints_the_full_parsers_text(argv):
    got = _run(main, argv)
    assert got == _run(build_parser().parse_args, argv)
    assert got[0] in (0, 4)
    assert got[1] or got[2]


@pytest.mark.parametrize("command", COMMANDS)
def test_unrecognized_argument_prints_the_full_usage(command):
    code, out, err = _run(main, FULL_ARGV[command] + ["extra"])
    assert (code, out) == (4, "")
    assert err == ("usage: matconv [-h] [--version]\n"
                   "               "
                   "{member,dilate,map,include,frame,witness,dual} ...\n"
                   "matconv: error: unrecognized arguments: extra\n")


def test_negative_exponent_tolerance_gets_the_range_message():
    code, _, err = _run(main, ["member", "ball", "x.json", "--tol", "-1e-9"])
    assert code == 4
    assert err.endswith("argument --tol: needs a finite value >= 0, not "
                        "'-1e-9'\n")
