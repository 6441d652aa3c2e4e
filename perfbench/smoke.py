#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/smoke.py        # from the root of a checkout

1. Each workload at a tiny size, traced: no failed query, the per-layer
   metrics are exactly those of ``BENCHMARK.json`` with their units, the
   layers the workload exercises record time while the ones it leaves idle
   record none, and the wrapped layers cover most of the query time
   (``cli.self_s`` below 3/4 of ``trace.query_s``).
2. The same tiny choi and construct runs with a runner that corrupts each
   Choi witness or perturbs each dilation's ``T`` after ``cli.main`` wrote
   it: the checker must catch it, so ``failed_frac`` > 0.  These runs also
   check the end-to-end metric names and units against ``BENCHMARK.json``.
"""

from __future__ import annotations

import io
import json
import os
import sys

import run
import workloads


def _corrupting_runner(cli, argv):
    code, text = run.call_cli(cli, argv)
    if code != 0 or argv[0] not in ("map", "dilate"):
        return code, text
    report = json.loads(text)
    body = report["result"]
    if "choi" in body:
        body["choi"][0][0][0] += 1e-3
    if "dilation" in body:
        body["dilation"]["T"][0][0][0][0] += 1e-3
    return code, json.dumps(report, sort_keys=True, separators=(",", ": "),
                            indent=1) + "\n"


# Per workload: metrics that must be positive, and metrics that must be 0.
EXPECTED = {
    "choi": (("ucp.project_s", "sdp.solve_s", "sdp.psd_project_s"),
             ("sets.sweep_s", "dilation.build_s", "sdp.affine_project_s")),
    "polytope": (("sdp.affine_project_s", "sdp.psd_project_s",
                  "sets.sweep_s", "numkernel.eig_s"),
                 ("dilation.build_s", "frames.symmetry_s")),
    "construct": (("dilation.build_s", "dilation.residuals_s",
                   "jsonio.encode_s", "frames.symmetry_s", "witnesses.s"),
                  ("sdp.solve_s", "ucp.project_s", "sets.sweep_s")),
}
# The most of a traced query that may fall outside every wrapped layer.
# On the tiny construct queries the parser that ``cli.main`` builds on each
# call is close to half of the time; a layer that lost its wrappers would
# push the share well past this.
MAX_CLI_SELF_SHARE = 0.75


def _layer_problems(name, m):
    busy, idle = EXPECTED[name]
    out = [f"{name}: {k} is 0, expected time there" for k in busy if m[k] <= 0]
    out += [f"{name}: {k} is {m[k]}, expected 0" for k in idle if m[k] != 0]
    share = m["cli.self_s"] / m["trace.query_s"]
    if share > MAX_CLI_SELF_SHARE:
        out.append(f"{name}: cli.self_s is {share:.2f} of the query time")
    return out


def _spec_mismatch(res, specs):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {s["name"]: s["unit"] for s in specs}
    return None if got == want else f"metrics {got} differ from {want}"


def main():
    run.prepare()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        log = io.StringIO()
        res = run.run_workload(name, seed=0, seconds=0.2, trace=1, tiny=True,
                               log=log)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        if not res["correct"] or res["failed"]:
            problems.append(f"{name}: {res['failed']} failed\n{log.getvalue()}")
        mismatch = _spec_mismatch(res, spec["per_layer"])
        if mismatch:
            problems.append(f"{name}: {mismatch}")
        problems += _layer_problems(name, m)
        print(f"{name}: {res['attempted']} queries, failed {res['failed']}, "
              f"cli.self_s {m['cli.self_s'] / m['trace.query_s']:.3f} of "
              "the query time")

    for name, expect in (("choi", "Choi constraint residual"),
                         ("construct", "compression residual")):
        log = io.StringIO()
        res = run.run_workload(name, seed=0, seconds=0.2, trace=0, tiny=True,
                               runner=_corrupting_runner, log=log)
        mismatch = _spec_mismatch(res, spec["end_to_end"])
        if mismatch:
            problems.append(f"{name}: {mismatch}")
        frac = res["failed"] / res["attempted"]
        if frac <= 0 or expect not in log.getvalue():
            problems.append(f"corrupted {name} reports not caught "
                            f"(failed_frac {frac})\n{log.getvalue()}")
        print(f"{name} with corrupted reports: failed_frac {frac:.3f}")

    for p in problems:
        print("SMOKE FAIL:", p, file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
