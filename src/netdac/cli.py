"""Command-line entry point.

Subcommands
-----------
``netdac run <config>``
    Run the configured experiment over all its seeds and write one CSV with
    every evaluation row, a summary row per seed (final values), and a
    companion ``<output>_mean.csv`` with the per-batch mean cost across
    seeds, ready for plotting.  Set ``NETDAC_MAX_WORKERS`` to run seeds in
    parallel processes (output is identical either way).

``netdac verify [--fault-inject <check>] [--output <path>]``
    Run the full self-verification suite and write a structured report;
    exits 0 only if every check passes.

``netdac print-defaults``
    Print the default configuration (the standard bandit experiment) in the
    accepted config format.
"""

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .config import MetricsRow, RunConfig, load_config, serialize_config
from .dac import run_experiment
from .errors import ConfigError, Diverged, NetdacError
from .verify import format_report, run_checks

__all__ = ["main", "write_csv", "write_mean_csv", "CSV_HEADER"]

CSV_HEADER = (
    "run_id,seed,t,batch,eval_cost,mean_Jhat,critic_disagreement,"
    "actor_grad_norm,wallclock_ms"
)


def _fmt(x: float) -> str:
    """Shortest round-tripping decimal form; deterministic across runs."""
    return repr(float(x))


def _row_line(row: MetricsRow) -> str:
    floats = (row.eval_cost, row.mean_jhat, row.critic_disagreement, row.actor_grad_norm)
    ints = (row.seed, row.t, row.batch)
    return ",".join([row.run_id, *map(str, ints), *map(_fmt, floats), str(row.wallclock_ms)])


def write_csv(path: str, rows, seeds) -> None:
    """All evaluation rows plus one summary row per seed (its final values)."""
    lines = [CSV_HEADER]
    lines.extend(_row_line(r) for r in rows)
    for seed in seeds:
        seed_rows = [r for r in rows if r.seed == seed]
        if not seed_rows:
            continue
        final = seed_rows[-1]
        lines.append(_row_line(dataclasses.replace(final, run_id=final.run_id + "-summary")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mean_csv(path: str, rows) -> None:
    """Per-batch mean evaluated cost across seeds (plot-ready convergence curve)."""
    by_batch = {}
    for r in rows:
        by_batch.setdefault(r.batch, []).append(r.eval_cost)
    lines = ["batch,mean_eval_cost,seed_count"]
    for batch in sorted(by_batch):
        costs = by_batch[batch]
        lines.append(f"{batch},{_fmt(sum(costs) / len(costs))},{len(costs)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _mean_csv_path(output: str) -> str:
    stem, dot, ext = output.rpartition(".")
    if not dot:
        return output + "_mean.csv"
    return f"{stem}_mean.{ext}"


def _run_seed(args) -> list:
    config, seed = args
    return run_experiment(config, seed)


def _cmd_run(config_path: str) -> int:
    config = load_config(config_path)
    value = os.environ.get("NETDAC_MAX_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"NETDAC_MAX_WORKERS must be an integer, got {value!r}") from None
    # A pool forks all its workers up front: never more than there are seeds.
    workers = max(1, min(workers, len(config.seeds)))
    rows = []
    try:
        if workers == 1:
            for seed in config.seeds:
                rows.extend(run_experiment(config, seed))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for seed_rows in pool.map(
                    _run_seed, [(config, s) for s in config.seeds]
                ):
                    rows.extend(seed_rows)
    except Diverged as exc:
        done = {r.seed for r in rows}
        failing = next((s for s in config.seeds if s not in done), config.seeds[0])
        print(f"run diverged at seed {failing}: {exc}", file=sys.stderr)
        return 2
    write_csv(config.output, rows, config.seeds)
    write_mean_csv(_mean_csv_path(config.output), rows)
    print(f"wrote {config.output} and {_mean_csv_path(config.output)} "
          f"({len(rows)} evaluation rows, {len(config.seeds)} seeds)")
    return 0


def _cmd_verify(fault_inject, output: str) -> int:
    try:
        records = run_checks(fault_inject=fault_inject)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    report = format_report(records)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(report, end="")
    failed = [r.name for r in records if not r.passed]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netdac",
        description="Decentralized deterministic actor-critic experiments and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment and write CSV metrics")
    p_run.add_argument("config", help="path to a key-value config file (may be empty)")

    p_ver = sub.add_parser("verify", help="run the self-verification suite")
    p_ver.add_argument(
        "--fault-inject",
        metavar="CHECK",
        default=None,
        help="corrupt the named check's computed value (negative control)",
    )
    p_ver.add_argument(
        "--output", default="verify_report.txt", help="report file path"
    )

    sub.add_parser("print-defaults", help="print the default configuration")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "verify":
            return _cmd_verify(args.fault_inject, args.output)
        print(serialize_config(RunConfig()), end="")
        return 0
    except (NetdacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
