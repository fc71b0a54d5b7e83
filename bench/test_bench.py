"""Tests of the benchmark's own checks and timing (not part of netdac's suite).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import dataclasses
import io
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from netdac import cli, config  # noqa: E402


def _csv_lines(workload, tmp_path, batches=6):
    """Rows of a short ``netdac run`` on the workload's inputs for seed 5."""
    cfg_path = tmp_path / "run.cfg"
    csv_path = tmp_path / "run.csv"
    text = workloads.training_config(workload, 5, 0, str(csv_path))
    lines = [line for line in text.splitlines(keepends=True) if not line.startswith("batches")]
    cfg_path.write_text("".join(lines) + f"batches = {batches}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(cfg_path)]) == 0
    return csv_path.read_text().splitlines(), config.load_config(str(cfg_path))


@pytest.mark.parametrize("workload", ["bandit-batch", "mdp-online"])
def test_training_rows_pass_and_corruption_fails(workload, tmp_path):
    lines, cfg = _csv_lines(workload, tmp_path)
    learns = workloads.TRAINING[workload]["learns"]
    start = workloads.initial_cost(cfg)
    assert checks.check_training_csv(lines, cfg, start, learns) == []
    # Negative controls: a non-finite value, a wrong start cost, a lost row.
    bad = list(lines)
    fields = bad[1].split(",")
    fields[5] = "nan"
    bad[1] = ",".join(fields)
    assert checks.check_training_csv(bad, cfg, start, learns)
    assert checks.check_training_csv(lines, cfg, start + 1e-3, learns)
    assert checks.check_training_csv(lines[:2] + lines[3:], cfg, start, learns)


def test_bandit_learning_check_rejects_rising_cost(tmp_path):
    lines, cfg = _csv_lines("bandit-batch", tmp_path)
    start = workloads.initial_cost(cfg)
    rows = [line.split(",") for line in lines]
    for r in rows[1:]:
        if int(r[3]) == cfg.batches:
            r[4] = repr(start + 1.0)
    bad = [",".join(r) for r in rows]
    assert any("not below" in p for p in checks.check_training_csv(bad, cfg, start, True))


def test_rows_digest_ignores_wallclock_only():
    a = ["h,x,wallclock_ms", "r,1.0,17"]
    assert checks.rows_digest(a) == checks.rows_digest(["h,x,wallclock_ms", "r,1.0,99"])
    assert checks.rows_digest(a) != checks.rows_digest(["h,x,wallclock_ms", "r,1.5,17"])


def test_every_solve_passes_its_check_and_fails_when_corrupted():
    inst = workloads._round_instances(11, 0)
    for kind, solve, check in workloads.round_solves(inst):
        result = solve()
        assert check(result) == [], kind
        if isinstance(result, np.ndarray):
            corrupted = 1.5 * result + 0.01
        else:
            name, value = next(
                (f.name, getattr(result, f.name))
                for f in dataclasses.fields(result)
                if isinstance(getattr(result, f.name), np.ndarray)
            )
            corrupted = dataclasses.replace(result, **{name: 1.5 * value + 0.01})
        assert check(corrupted), kind


def test_corrupted_solve_raises_fail_frac(monkeypatch):
    """A wrong oracle result must show up as a failed operation."""
    original = workloads.oracle.offpolicy_fixed_point

    def wrong(*args, **kwargs):
        fp = original(*args, **kwargs)
        return dataclasses.replace(fp, lam=fp.lam * 1.01)

    monkeypatch.setattr(workloads.oracle, "offpolicy_fixed_point", wrong)
    result = workloads.run_oracle(3, 0.0, timing.Clock(), with_verify=False)
    assert result["attempted"] >= workloads.SOLVES_PER_ROUND
    assert result["failed"] / result["attempted"] > 0


def test_correct_run_has_zero_fail_frac():
    result = workloads.run_oracle(3, 0.0, timing.Clock(), with_verify=False)
    assert result["failed"] == 0 and result["problems"] == []


def test_clock_excludes_calibration_and_scales():
    clock = timing.Clock()
    clock.lap(("a", 0))
    clock.skip()
    clock.lap(("b", 0))
    raw, norm = clock.times(lambda label: label[0] == "a")
    assert len(raw) == 1 and raw[0] >= 0.0
    assert len(clock.calibs) == 3
    assert norm[0] == pytest.approx(raw[0] * timing.REF_CALIB_S / statistics.median(clock.calibs))


def test_mix_percentiles_use_kind_medians_and_nearest_rank():
    by_kind = {"a": [1.0, 1.1, 50.0], "b": [5.0], "c": [9.0, 10.0, 11.0]}
    multiplicity = {"a": 2, "b": 1, "c": 2}
    p50, p90, times, mix = workloads._mix_percentiles(by_kind, multiplicity)
    assert mix == [1.1, 1.1, 5.0, 10.0, 10.0]
    assert (p50, p90) == (5.0, 10.0)
    assert len(times) == 7


def test_calm_mask_drops_slow_stretches_only():
    times = [1.0] * 30 + [2.0] * 10 + [1.0, 5.0] + [1.0] * 8
    mask = workloads.calm_mask(times)
    assert mask == [True] * 30 + [False] * 10 + [True] * 10
