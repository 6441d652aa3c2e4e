"""Print ``seed qid exit_code crc32(stdout)`` for every benchmark query.

Usage: ``python3 tools/report_digests.py ROOT SEED...``

The queries of the three benchmark workloads are built with ROOT's
``perfbench/workloads.build`` and run through ``run.call_cli`` against
ROOT's ``src/matconv``.  Diff the output for two checkouts to see which
exit codes and report bytes a change moves.
"""

import os
import sys
import tempfile
import zlib

root = os.path.abspath(sys.argv[1])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402
from matconv import cli  # noqa: E402

for seed in map(int, sys.argv[2:]):
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            for q in workloads.build(name, seed, tmp):
                code, out = run.call_cli(cli, q.argv)
                out = out.replace(tmp, "WORKDIR")
                print(seed, q.qid, code, zlib.crc32(out.encode()))
