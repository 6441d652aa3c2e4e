"""The README's library quick start runs as written."""

import pathlib
import re

from matconv.sdp import Status

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_as_written(capsys):
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert namespace["D"].dim == 4
    res = namespace["res"]
    assert res.status is Status.INFEASIBLE
    assert res.certificate is not None and res.certificate.value < 0
    assert capsys.readouterr().out
