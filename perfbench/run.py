#!/usr/bin/env python3
"""matconv benchmark: seeded closed-loop queries through ``matconv.cli``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload choi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One client, one process, a closed loop: each query is a ``cli.main(argv)``
call on JSON files written before timing, with stdout captured in memory.
A run

1. times ``import matconv.cli`` in fresh interpreters (``setup_s``), three
   times before the warm-up, three after it and three after the timed loop;
2. writes the seeded inputs and runs the first instance of every query row
   once, untimed, as a warm-up;
3. loops over the queries for a fixed number of whole passes, set by
   ``--seconds`` and the workload's nominal pass time (with ``--trace 1``:
   the untraced loop, then one traced pass).  Each report of the first pass
   is re-verified by the independent checker after its latency is taken,
   and every later report must match it byte for byte (by CRC).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (at most nproc): the blocks here are small, and a second
# thread measured slower on the 256-block solves.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3      # launches at each of three points of a run
# Seconds one pass over a workload takes on a 2-core x86 box.  The number
# of passes is ``--seconds`` divided by this, so it does not depend on how
# fast the program runs: parent and change get the same sample count, and
# the tail is the same percentile on both sides.
NOMINAL_PASS_S = {"choi": 10.0, "polytope": 10.0, "construct": 7.5}
MIN_PASSES = 3
TRACE_PASSES = 1    # the per-layer numbers are per query; no bound on them
CRASH = -1          # exit code recorded when cli.main raises

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_mb": "MB",
    "failed_frac": "ratio",
    "decided_frac": "ratio",
}


def prepare():
    """Make the checkout's own ``src/matconv`` importable, or exit with an
    error when the working directory is not a matconv checkout."""
    if not os.path.isfile(os.path.join(SRC, "matconv", "cli.py")):
        sys.exit(f"perfbench: no matconv sources under {SRC}; "
                 "run from the root of a matconv checkout")
    sys.path.insert(0, SRC)


def setup_times(reps, discard=False):
    """Wall times of fresh interpreters running ``import matconv.cli``.
    A discarded first launch writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import matconv.cli"]
    times = []
    for _ in range(reps + discard):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times[discard:]


def call_cli(cli, argv):
    """One query: returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 4
        except Exception:  # a crash is a failed query, not a failed run
            traceback.print_exc(file=sys.__stderr__)
            code = CRASH
    return code, out.getvalue()


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Unlike a single order statistic it does not
    jump when the quantile falls between two groups of query costs."""
    # Imported here, after the timed loop, so it adds nothing to peak_mb.
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def tail_latency(lat):
    """Highest percentile with at least 10 samples beyond it, its
    Harrell-Davis value, and the sample count."""
    n = len(lat)
    p = max(n - 10, 1) / n
    return hd_quantile(lat, p), 100.0 * p, n


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def closed_loop(queries, passes, run_one, verify=None):
    """Run ``passes`` whole passes over the queries, so every query is
    equally represented and the sample count does not hinge on timing.
    ``verify(idx, code, text)`` sees each report of the first pass, after
    its latency is taken.  Returns one (query index, code, crc, latency)
    per query call."""
    results = []
    for n in range(passes):
        for idx, q in enumerate(queries):
            t0 = time.perf_counter()
            code, text = run_one(len(results), q.argv)
            t1 = time.perf_counter()
            results.append((idx, code, zlib.crc32(text.encode()), t1 - t0))
            if n == 0 and verify is not None:
                verify(idx, code, text)
    return results


def typical_latencies(results, nqueries):
    """Each timed sample replaced by its query's median latency across
    passes.  A slow moment of the machine hits a few samples only, so this
    drops it, while the sample count and the mix stay as timed."""
    per = [[] for _ in range(nqueries)]
    for idx, _, _, lat in results:
        per[idx].append(lat)
    med = [statistics.median(v) for v in per]
    return [med[idx] for idx, _, _, _ in results]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload, seed, tiny=False, runner=None):
        from matconv import cli

        self.cli = cli
        self.workload = workload
        self.workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.runner = runner or call_cli
        self.first, self.problems = {}, {}
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self.queries = workloads.build(workload, seed, self.workdir, tiny)
        except BaseException:
            self.close()
            raise

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    def run_one(self, i, argv):
        return self.runner(self.cli, argv)

    def warm_up(self):
        """Run the first instance of every row once, untimed, so lazy
        imports and caches of each command and size are in place."""
        for q in self.queries:
            if q.instance == 0:
                self.run_one(-1, q.argv)

    def verify(self, idx, code, text):
        """Re-verify a first-pass report with the independent checker;
        keep its exit code, report CRC and problems."""
        self.first[idx] = (code, zlib.crc32(text.encode()))
        self.problems[idx] = checker.check(self.queries[idx], code, text)

    def tally(self, results):
        """Failed and decided counts of the timed queries."""
        failed = decided = 0
        for idx, code, crc, _ in results:
            q = self.queries[idx]
            bad = bool(self.problems[idx]) or (code, crc) != self.first[idx]
            failed += bad
            decided += (not bad) and code in (0, 1) and code in q.allowed
        return failed, decided


def run_workload(workload, seed, seconds, trace, tiny=False, runner=None,
                 log=sys.stdout):
    """One benchmark run; returns the result object printed last."""
    # Set-up is sampled before, between and after the other phases, so a
    # slow moment of the machine moves only a few of the samples.
    reps = 1 if tiny else SETUP_REPS
    passes = pass_count(workload, seconds)
    setup = setup_times(reps, discard=True)
    bench = Bench(workload, seed, tiny=tiny, runner=runner)
    try:
        bench.warm_up()
        setup += setup_times(reps)
        results = closed_loop(bench.queries, passes, bench.run_one,
                              bench.verify)
        peak_mb = peak_rss_mb()
        setup += setup_times(reps)
        if trace:
            traced, rec = _traced_loop(bench, TRACE_PASSES, seed)
    finally:
        bench.close()
    setup_s = statistics.median(setup)

    for idx, q in enumerate(bench.queries):
        for p in bench.problems[idx]:
            print(f"FAIL {q.qid}: {p}", file=log)
    failed, decided = bench.tally(results)
    n = len(results)
    busy = sum(r[3] for r in results)
    lat = typical_latencies(results, len(bench.queries))
    tail, pct, count = tail_latency(lat)
    e2e = {
        "setup_s": setup_s,
        "queries_per_s": n / sum(lat),
        "latency_p50_s": hd_quantile(lat, 0.5),
        "latency_tail_s": tail,
        "peak_mb": peak_mb,
        "failed_frac": failed / n,
        "decided_frac": decided / n,
    }
    print(f"workload {workload}: seed {seed}, {len(bench.queries)} distinct "
          f"queries, {passes} passes, {n} timed in {busy:.2f} s, "
          f"BLAS threads {BLAS_THREADS}", file=log)
    for name, value in e2e.items():
        note = f"  (p{pct:.2f} of {count} samples)" \
            if name == "latency_tail_s" else ""
        print(f"  {name:16s} {value:14.6g} {END_TO_END_UNITS[name]}{note}",
              file=log)
    if trace:
        t_failed, _ = bench.tally(traced)
        failed += t_failed
        n += len(traced)
        traced_busy = sum(r[3] for r in traced)
        metrics = rec.summary(len(traced) / traced_busy,
                              e2e["queries_per_s"])
        units = tracer.PER_LAYER
        print(f"traced run: {len(traced)} queries in {traced_busy:.2f} s, "
              f"{len(rec.start)} spans", file=log)
        for name, value in metrics.items():
            print(f"  {name:26s} {value:14.6g} {units[name]}", file=log)
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        print(f"  self times sum to {self_sum:.6g} s/query against traced "
              f"query time {metrics['trace.query_s']:.6g} s", file=log)
        shares = {layer: metrics[f"{layer}.self_s"] / self_sum
                  for layer in tracer.LAYERS}
        print("  self-time shares: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in sorted(
                shares.items(), key=lambda kv: -kv[1])), file=log)
    else:
        metrics = {k: v for k, v in e2e.items() if k != "failed_frac"}
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def _traced_loop(bench, passes, seed):
    from matconv import (cli, dilation, frames, jsonio, numkernel, sdp, sets,
                         ucp, witnesses)

    rec = tracer.Recorder()
    rec.install({"cli": cli, "dilation": dilation, "jsonio": jsonio,
                 "numkernel": numkernel, "sdp": sdp, "sets": sets,
                 "ucp": ucp, "witnesses": witnesses,
                 "SymmetryGroup": frames.SymmetryGroup})
    try:
        results = closed_loop(
            bench.queries, passes,
            lambda i, argv: rec.query_span(i, bench.runner, bench.cli, argv))
    finally:
        rec.uninstall()
    os.makedirs(OUT, exist_ok=True)
    rec.write(os.path.join(OUT, f"spans-{bench.workload}-{seed}.npz"))
    return results, rec


def run_all(seed, seconds, trace):
    """Every workload in its own process, so no peak memory carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["choi", "polytope", "construct", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    prepare()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
