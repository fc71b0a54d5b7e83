"""The benchmark's set-up path, run against the library as it stands.

``bench/workloads.py::set_up`` is the work ``bench/setup_probe.py`` times
before a workload's first training step or oracle solve.  It calls the
builders, ``init_train_state`` with the keywords the benchmark passes,
``GraphProcess``, ``substream``, ``evaluate_policy_cost`` and one round of
oracle instances, so a library change that drops a name or keyword the
benchmark still uses fails here, not only in a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["bandit-batch", "mdp-online", "oracle-mix"])
def test_set_up_runs(workload, tmp_path):
    workloads.set_up(workload, 0, str(tmp_path))
