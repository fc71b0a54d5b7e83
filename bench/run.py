"""netdac benchmark: one workload run, speed-normalized, with output checks.

Usage, from the root of a netdac checkout:

    python3 bench/run.py --workload {bandit-batch,mdp-online,oracle-mix} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures set-up in fresh processes, runs the workload
for S seconds untraced and prints the end-to-end metrics.  With ``--trace 1``
it runs the workload untraced for a third of S and traced for the rest,
checks that both give the same digests, and prints the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers under their names, with raw times and sample counts.
Details, including every lap's calibration, go to ``bench/_out``.
"""

import os
import sys

# One thread for BLAS and OpenMP, set before numpy loads; seeds run serially.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("NETDAC_MAX_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("bandit-batch", "mdp-online", "oracle-mix")
SETUP_PROBES = 5
TRACE_UNTRACED_SHARE = 1.0 / 3.0
PROBE_TIMEOUT_S = 60


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def measure_setup(workload: str, seed: int) -> list:
    """Raw set-up records from fresh processes; the first (warm-up) is dropped."""
    records = []
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed + k)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        if k:
            records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return records


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload, result, setup) -> tuple:
    """End-to-end metrics, and lines that print them under workload-specific names.

    Set-up time is raw: it does not follow the calibration kernel (README.md).
    """
    setup_s = statistics.median(r["import_s"] + r["build_s"] for r in setup)
    p50, p90 = result["op"]["norm"][:2]
    raw_p50, raw_p90 = result["op"]["raw"][:2]
    rate = statistics.median(result["rates"])
    command = statistics.median(result["command_s"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "rate_per_s": _metric(rate, "1/s"),
        "op_ms_p50": _metric(1e3 * p50, "ms"),
        "op_ms_p90": _metric(1e3 * p90, "ms"),
        "command_s": _metric(command, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    training = workload != "oracle-mix"
    op, rate_name = ("batch", "steps_per_s") if training else ("solve", "solves_per_s")
    n, beyond = result["op_count"], result["op_beyond_p90"]
    lines = [
        f"setup_s           {setup_s:.4f} s   (raw, median of {len(setup)} fresh processes)",
        f"{rate_name:<17} {rate:.2f} 1/s   (raw {statistics.median(result['raw_rates']):.2f}, "
        f"median of {len(result['rates'])})",
        f"{op}_ms_p50      {1e3 * p50:.4f} ms   (raw {1e3 * raw_p50:.4f}, n={n})",
        f"{op}_ms_p90      {1e3 * p90:.4f} ms   (raw {1e3 * raw_p90:.4f}, n={n}, {beyond} beyond)",
        f"{'run_s' if training else 'verify_s':<17} {command:.4f} s",
        f"peak_rss_mb       {rss_mb:.1f} MB",
        f"fail_frac         {result['failed'] / max(result['attempted'], 1):.6f}   "
        f"({result['failed']} of {result['attempted']} operations)",
    ]
    return metrics, lines


def per_layer(workload, untraced, traced, tracer, clock, import_s, solve_kinds, verify_checks):
    """Per-layer metrics from the traced phase; 0 where a layer is not used."""
    training = workload != "oracle-mix"
    # Steps inside verify's replay check do not make oracle-mix a training run.
    steps = tracer.calls("dac.step") if training else 0
    ops = traced["op_total"]
    us, ms = 1e6, 1e3

    def per(count, base):
        return count / base if base else 0.0

    in_solve_rows = tracer.stats.get("env.row_call", [0, 0, 0, 0])[3]
    m = {
        "env.local_rewards.us": _metric(us * tracer.mean("env.local_rewards"), "us"),
        "env.local_rewards.per_step": _metric(per(tracer.calls("env.local_rewards"), steps), "1/step"),
        "env.transition.us": _metric(us * tracer.mean("env.transition"), "us"),
        "env.row_calls_per_sample": _metric(
            per(in_solve_rows, in_solve_rows + tracer.solve_batch_rows), "ratio"
        ),
        "policy.act.us": _metric(us * tracer.mean("policy.act"), "us"),
        "policy.act.per_step": _metric(per(tracer.calls("policy.act"), steps), "1/step"),
        "policy.noise.us": _metric(us * tracer.mean("policy.noise"), "us"),
        "approx.eval.us": _metric(us * tracer.mean("approx.eval"), "us"),
        "approx.eval.per_step": _metric(per(tracer.calls("approx.eval"), steps), "1/step"),
        "approx.grad_action.us": _metric(us * tracer.mean("approx.grad_action"), "us"),
        "approx.grad_action.per_step": _metric(
            per(tracer.calls("approx.grad_action"), steps), "1/step"
        ),
        "linalg.project_box.us": _metric(us * tracer.mean("linalg.project_box"), "us"),
        "approx.eval_batch.us": _metric(us * tracer.mean("approx.eval_batch"), "us"),
        "network.sample_weights.us": _metric(us * tracer.mean("network.sample_weights"), "us"),
        "network.comm_scalars.per_step": _metric(per(traced.get("comm_scalars", 0), steps), "1/step"),
        "dac.step.us": _metric(us * tracer.mean("dac.step"), "us"),
        "dac.step.self_us": _metric(us * tracer.mean("dac.step", 2), "us"),
        "dac.batch_self_us": _metric(
            us * per(tracer.total("dac.run", 2), ops if training else 0), "us"
        ),
        "dac.eval.us": _metric(us * tracer.mean("dac.eval"), "us"),
        "linalg.solve_linear.us": _metric(us * tracer.mean("linalg.solve_linear"), "us"),
        "linalg.solve_linear.per_op": _metric(per(tracer.calls("linalg.solve_linear"), ops), "1/op"),
        "linalg.stationary_distribution.us": _metric(
            us * tracer.mean("linalg.stationary_distribution"), "us"
        ),
        "linalg.stationary_distribution.per_op": _metric(
            per(tracer.calls("linalg.stationary_distribution"), ops), "1/op"
        ),
    }
    for kind in solve_kinds:
        _, vals = clock.times(lambda label: label[:2] == ("solve", kind))
        m[f"oracle.{kind}.ms"] = _metric(ms * statistics.median(vals) if vals else 0.0, "ms")
    for name in verify_checks:
        _, vals = clock.times(lambda label: label == ("verify", name))
        m[f"verify.{name}.ms"] = _metric(ms * statistics.median(vals) if vals else 0.0, "ms")
    m["import.netdac.s"] = _metric(import_s, "s")
    m["config.load_config.ms"] = _metric(ms * tracer.mean("config.load_config"), "ms")
    m["cli.write_csv.ms"] = _metric(ms * tracer.mean("cli.write_csv"), "ms")
    m["machine.speed_factor"] = _metric(clock.speed_factor(), "ratio")
    m["machine.calib_us"] = _metric(us * statistics.median(clock.calibs), "us")
    m["trace.overhead_frac"] = _metric(
        statistics.median(untraced["rates"]) / statistics.median(traced["rates"]) - 1.0, "ratio"
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netdac", "__init__.py")):
        print(f"error: no netdac sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    load_start = _loadavg()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import netdac.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(netdac.__file__).startswith(SRC + os.sep):
        print(f"error: imported netdac from {netdac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import timing
    import tracer as tracing
    import workloads

    def run(seconds, clock, tracer=None, with_verify=True):
        if args.workload == "oracle-mix":
            return workloads.run_oracle(args.seed, seconds, clock, tracer, with_verify)
        return workloads.run_training(args.workload, args.seed, seconds, clock, OUT, tracer)

    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    problems = []
    if args.trace:
        clock_a = timing.Clock()
        untraced = run(args.seconds * TRACE_UNTRACED_SHARE, clock_a, with_verify=False)
        clock = timing.Clock()
        tracer = tracing.Tracer(clock)
        result = run(args.seconds * (1.0 - TRACE_UNTRACED_SHARE), clock, tracer)
        tracer.save(stem + "-spans.npz")
        for a, b in zip(untraced["reps"], result["reps"]):
            if a["digest"] != b["digest"]:
                problems.append(f"repetition {a['rep']}: traced digest differs from untraced")
        metrics = per_layer(
            args.workload,
            untraced,
            result,
            tracer,
            clock,
            import_s,
            workloads.solve_kinds(),
            netdac.verify.registered_checks(),
        )
        attempted = untraced["attempted"] + result["attempted"]
        failed = untraced["failed"] + result["failed"]
        problems += untraced["problems"]
        lines = [f"{name:<44} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        clock = timing.Clock()
        result = run(args.seconds, clock)
        metrics, lines = end_to_end(args.workload, result, setup)
        attempted, failed = result["attempted"], result["failed"]
    problems += result["problems"]
    correct = failed == 0 and not problems

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": metrics,
        "digest": workloads.run_digest(result["reps"]),
        "rep_digests": [r["digest"] for r in result["reps"]],
        "ref_calib_s": timing.REF_CALIB_S,
        "speed_factor": clock.speed_factor(),
        "setup_probes": setup,
        "laps": [[str(label), raw, i] for label, raw, i in clock.laps],
        "calibs": clock.calibs,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": _loadavg(),
        },
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(details, fh)

    print(f"netdac benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    m = details["machine"]
    print(
        f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, nproc {m['nproc']}, "
        f"loadavg {m['loadavg_start']} -> {m['loadavg_end']}"
    )
    print(
        f"speed factor {clock.speed_factor():.4f} (reference calibration "
        f"{1e6 * timing.REF_CALIB_S:.0f} us); digest {details['digest'][:16]}"
    )
    for line in lines:
        print(line)
    for p in problems[:10]:
        print(f"problem: {p}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
