"""One set-up measurement in a fresh process; prints one JSON line.

Times ``import netdac.cli`` and then the work a workload does before its
first training step or first oracle solve.  Run by ``run.py``:

    python3 bench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import netdac.cli  # noqa: E402

t_import = time.perf_counter() - t0

import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
t1 = time.perf_counter()
workloads.set_up(workload, seed, out_dir)
print(json.dumps({"import_s": t_import, "build_s": time.perf_counter() - t1}))
