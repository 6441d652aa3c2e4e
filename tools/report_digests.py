"""Print ``seed qid exit_code crc32(stdout)`` for every benchmark query.

Usage: ``python3 tools/report_digests.py ROOT SEED... [--workload NAME]...``

The queries of the benchmark workloads are built with ROOT's
``perfbench/workloads.build`` and run through ``run.call_cli`` against
ROOT's ``src/matconv``.  Diff the output for two checkouts to see which
exit codes and report bytes a change moves.  ``--workload`` (repeatable)
picks the workloads to run, all three by default; a ``construct``-only
diff of two checkouts runs in seconds, where all three take minutes.
"""

import argparse
import os
import sys
import tempfile
import zlib

p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
p.add_argument("root")
p.add_argument("seeds", nargs="+", type=int, metavar="SEED")
p.add_argument("--workload", action="append", metavar="NAME",
               help="run only this workload (repeatable; default: all)")
args = p.parse_args()

root = os.path.abspath(args.root)
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402
from matconv import cli  # noqa: E402

names = args.workload or list(workloads.WORKLOADS)
unknown = sorted(set(names) - set(workloads.WORKLOADS))
if unknown:
    p.error(f"unknown workload(s) {unknown}; choose from "
            f"{list(workloads.WORKLOADS)}")

for seed in args.seeds:
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            for q in workloads.build(name, seed, tmp):
                code, out = run.call_cli(cli, q.argv)
                out = out.replace(tmp, "WORKDIR")
                print(seed, q.qid, code, zlib.crc32(out.encode()))
