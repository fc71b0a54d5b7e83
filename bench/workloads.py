"""The three benchmark workloads, their inputs, timing hooks and output checks.

Inputs come only from the workload seed: each repetition (training) or
round (oracle) draws its run seeds, instance seeds and policy parameters
from ``numpy.random.default_rng([seed, index])``.  netdac sees nothing else.

* ``bandit-batch`` -- the acceptance-cell shape (alg1, N=10, m=20, batch 40,
  compatible features, 5 run seeds) through ``netdac.cli.main(["run", cfg])``.
  Almost all work is the per-step critic path.
* ``mdp-online`` -- alg2 on an 8-state MDP with Fourier features, online
  actor, ring graph with link failures, 1 run seed.  The actor runs every
  step and every batch ends in an 8-state exact evaluation.
* ``oracle-mix`` -- rounds of 15 oracle solves, with five runs of the 18
  verify checks spread among them.  Dense solves, quadrature and
  environment batch methods; no step loop.

Each ``run_*`` function returns the operations attempted and failed, the
per-repetition digests and problems, and the timed laps summarized as
``op`` (one batch or one solve), ``rate`` (steps or solves per second) and
``command`` (one whole ``netdac run``, or the whole verify suite).
"""

import collections
import contextlib
import hashlib
import io
import math
import os
import statistics

import numpy as np

import checks
from timing import percentile
import netdac
from netdac import approx, cli, config, dac, env, linalg, network, oracle, policy, seeding, verify

TRAINING = {
    "bandit-batch": {
        "config": {
            "kind": "bandit",
            "algorithm": "alg1",
            "agents": 10,
            "action_dim": 20,
            "batch_size": 40,
            "update_mode": "batch",
            "topology": "complete",
            "failure_prob": 0.0,
            "features": "compatible",
            "sigma": 0.1,
            "batches": 25,
        },
        "run_seeds": 5,
        "learns": True,
    },
    "mdp-online": {
        "config": {
            "kind": "finite-mdp",
            "algorithm": "alg2",
            "agents": 10,
            "states": 8,
            "features": "fourier",
            "feature_count": 16,
            "update_mode": "online",
            "batch_size": 50,
            "topology": "ring",
            "failure_prob": 0.3,
            "sigma": 0.1,
            "batches": 20,
        },
        "run_seeds": 1,
        # alg2 with (non-compatible) Fourier features does not lower the cost
        # within a run at every seed, so only bandit-batch checks learning.
        "learns": False,
    },
}

SOLVES_PER_ROUND = 15
_MC_SAMPLES = 5_000
_PG_BANDIT_SAMPLES = 10_000
_PG_MDP_SAMPLES = 20_000
_PG_SIGMA = 0.1
#: The verify suite runs this many times; each check's time is the median
#: over the runs, since a 0.4 s check can straddle a change of speed phase.
_VERIFY_SUITES = 5

#: Batches in a window whose median exceeds the run's median by this factor
#: ran through a disturbance of the machine; see ``calm_mask``.
DISTURBED = 1.1
CALM_WINDOW = 10


def _draw(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _summary(attempted, failed, reps, ops, op_total, rates, raw_rates, command, problems=()):
    """Result of a run; ``ops`` maps "norm" and "raw" to (p50, p90, op times, ...).

    ``op_total`` counts every batch or solve timed, including those the
    percentiles leave out.
    """
    p90, times = ops["norm"][1], ops["norm"][2]
    return {
        "attempted": attempted,
        "failed": failed,
        "reps": reps,
        "problems": list(problems) + [p for r in reps for p in r["problems"]],
        "op": ops,
        "op_count": len(times),
        "op_total": op_total,
        "op_beyond_p90": sum(1 for t in times if t > p90),
        "rates": rates,
        "raw_rates": raw_rates,
        "command_s": command,
    }


# ---------------------------------------------------------------------------
# Training workloads (netdac run)
# ---------------------------------------------------------------------------


def training_config(workload: str, seed: int, rep: int, output: str) -> str:
    """Config text for one repetition: run seeds and instance from the seed."""
    spec = TRAINING[workload]
    rng = np.random.default_rng([seed, rep])
    values = dict(spec["config"])
    values.update(
        seeds=", ".join(str(_draw(rng)) for _ in range(spec["run_seeds"])),
        env_seed=_draw(rng),
        feature_seed=_draw(rng),
        output=output,
    )
    return "".join(f"{k} = {v}\n" for k, v in values.items())


class TrainingHooks:
    """Laps at every batch boundary of ``netdac run``.

    A batch ends when its evaluation row's exact evaluation returns.  The
    first lap of each repetition (config, build and the initial evaluation)
    is ``head``; the first lap of each later seed is ``seed``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.rep = 0
        self.new_seed = False
        self.first_seed = True
        self.states = []  # this repetition's training states
        self._undo = []

    def install(self) -> None:
        init, evaluate = dac.init_train_state, dac.evaluate_policy_cost

        def init_hook(*args, **kwargs):
            state = init(*args, **kwargs)
            self.states.append(state)
            self.new_seed = True
            return state

        def eval_hook(*args, **kwargs):
            cost = evaluate(*args, **kwargs)
            if self.new_seed:
                label = "head" if self.first_seed else "seed"
                self.new_seed = self.first_seed = False
            else:
                label = "batch"
            self.clock.lap((label, self.rep))
            return cost

        for attr, fn in (("init_train_state", init_hook), ("evaluate_policy_cost", eval_hook)):
            self._undo.append((attr, getattr(dac, attr)))
            setattr(dac, attr, fn)

    def uninstall(self) -> None:
        for attr, fn in reversed(self._undo):
            setattr(dac, attr, fn)
        self._undo.clear()


def initial_cost(cfg) -> float:
    """Cost of the zero policy, computed without netdac's evaluation path."""
    mdp = dac.build_mdp(cfg)
    if cfg.kind == "bandit":
        return float(mdp.target @ mdp.cost @ mdp.target)
    pol = dac.build_policy(cfg, mdp)
    rows = np.stack([mdp.transition_row(s, pol.act(s)) for s in range(mdp.state_count)])
    rewards = np.array([mdp.mean_reward(s, pol.act(s)) for s in range(mdp.state_count)])
    # Stationary distribution from an eigendecomposition, not netdac.linalg.
    vals, vecs = np.linalg.eig(rows.T)
    d = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return float(-(d / d.sum()) @ rewards)


def set_up(workload: str, seed: int, out_dir: str) -> None:
    """What a workload does before its first step or solve (timed by setup_probe)."""
    if workload not in TRAINING:
        round_solves(_round_instances(seed, 0))
        return
    path = os.path.join(out_dir, f"setup-{workload}-{seed}-{os.getpid()}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(training_config(workload, seed, 0, path + ".csv"))
    try:
        cfg = config.load_config(path)
    finally:
        os.remove(path)
    run_seed = cfg.seeds[0]
    mdp = dac.build_mdp(cfg)
    pol = dac.build_policy(cfg, mdp)
    features = dac.build_features(cfg, mdp, pol)
    network.GraphProcess(dac.build_graph(cfg), cfg.failure_prob, seeding.substream(run_seed, "graph"))
    dac.init_train_state(
        mdp,
        pol,
        features,
        seed=run_seed,
        algorithm=cfg.algorithm,
        exploration=policy.GaussianNoise(cfg.sigma),
    )
    dac.evaluate_policy_cost(mdp, pol)


def run_training(workload, seed, seconds, clock, out_dir, tracer=None) -> dict:
    """Repeat ``netdac run`` on fresh inputs until ``seconds`` have passed."""
    spec = TRAINING[workload]
    steps = spec["run_seeds"] * spec["config"]["batches"] * spec["config"]["batch_size"]
    tag = f"{workload}-{seed}-{os.getpid()}"
    cfg_path = os.path.join(out_dir, tag + ".cfg")
    csv_path = os.path.join(out_dir, tag + ".csv")
    hooks = TrainingHooks(clock)
    if tracer is not None:
        install_tracing(tracer)
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    hooks.install()
    reps = []
    attempted = failed = comm = 0
    try:
        t_end = clock.now() + seconds
        rep = 0
        while rep == 0 or clock.now() < t_end:
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(training_config(workload, seed, rep, csv_path))
            hooks.rep, hooks.first_seed = rep, True
            if tracer is not None:
                tracer.run_id = rep
            clock.skip()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", cfg_path])
            clock.lap(("tail", rep))
            with paused():
                cfg = config.load_config(cfg_path)
                lines = []
                if code == 0:
                    with open(csv_path, encoding="utf-8") as fh:
                        lines = fh.read().splitlines()
                problems = [] if code == 0 else [f"netdac run exited with {code}"]
                problems += checks.check_training_csv(
                    lines, cfg, initial_cost(cfg), learns=spec["learns"]
                )
            attempted += len(cfg.seeds)
            failed += len(cfg.seeds) if problems else 0
            reps.append({"rep": rep, "digest": checks.rows_digest(lines), "problems": problems})
            comm += sum(int(state.comm_scalars) for state in hooks.states)
            hooks.states.clear()
            rep += 1
    finally:
        hooks.uninstall()
        if tracer is not None:
            tracer.uninstall()
        for path in (cfg_path, csv_path, csv_path[:-4] + "_mean.csv"):
            if os.path.exists(path):
                os.remove(path)

    laps = clock.scaled()
    batches = [(label[1], raw, norm) for label, raw, norm in laps if label[0] == "batch"]
    calm = calm_mask([norm for _, _, norm in batches])
    disturbed = {rep for (rep, _, _), ok in zip(batches, calm) if not ok}
    ops = {}
    for index, which in ((1, "raw"), (2, "norm")):
        kept = [lap[index] for lap, ok in zip(batches, calm) if ok]
        ops[which] = (percentile(kept, 50), percentile(kept, 90), kept)
    # Per repetition: steps over the time from the first step until the CSV
    # is written (every lap but the head), and the whole command's time;
    # medians over the repetitions without a disturbed stretch.
    per_rep = {}
    for (kind, rep), raw, norm in laps:
        run_raw, run_norm, whole = per_rep.get(rep, (0.0, 0.0, 0.0))
        if kind != "head":
            run_raw, run_norm = run_raw + raw, run_norm + norm
        per_rep[rep] = (run_raw, run_norm, whole + norm)
    counted = [rep for rep in per_rep if rep not in disturbed] or list(per_rep)
    rates = [steps / per_rep[rep][1] for rep in counted]
    raw_rates = [steps / per_rep[rep][0] for rep in counted]
    command = [per_rep[rep][2] for rep in counted]
    out = _summary(attempted, failed, reps, ops, len(batches), rates, raw_rates, command)
    out["steps"] = steps * len(reps)
    out["comm_scalars"] = comm
    return out


def calm_mask(times) -> list:
    """Which batches, in run order, lie in calm stretches of the machine.

    Every batch runs the same code on inputs of the same size, yet now and
    then the machine slows a stretch of them by more than the calibration
    kernel shows, or stalls one for tens of milliseconds.  A window of
    ``CALM_WINDOW`` consecutive batches whose median exceeds the run's
    median by the factor ``DISTURBED`` is not calm.
    """
    typical = statistics.median(times)
    mask = []
    for start in range(0, len(times), CALM_WINDOW):
        window = times[start : start + CALM_WINDOW]
        mask += [statistics.median(window) <= DISTURBED * typical] * len(window)
    return mask


# ---------------------------------------------------------------------------
# oracle-mix
# ---------------------------------------------------------------------------


def _round_instances(seed: int, rnd: int) -> dict:
    rng = np.random.default_rng([seed, rnd])
    mdp5 = env.make_finite_mdp(5, 3, seed=_draw(rng))
    mdp20 = env.make_finite_mdp(20, 10, seed=_draw(rng))
    p5 = policy.affine_policy(5, mdp5.action_dims)
    p5.set_theta_flat(rng.uniform(-0.5, 0.5, size=p5.total_param_dim))
    p20 = policy.affine_policy(20, mdp20.action_dims)
    p20.set_theta_flat(rng.uniform(-0.5, 0.5, size=p20.total_param_dim))
    fourier = approx.FourierFeatures(5, mdp5.action_dims, dim=3, seed=_draw(rng))
    bandit = env.make_bandit(3, 1, seed=_draw(rng))
    bpol = policy.constant_policy(
        bandit.action_dims, [rng.uniform(-2.0, 2.0, size=1) for _ in range(3)]
    )
    return {
        "mdp5": mdp5,
        "mdp20": mdp20,
        "p5": p5,
        "p20": p20,
        "fourier": fourier,
        "bandit": bandit,
        "bpol": bpol,
        "bfeat": approx.CompatibleRFeatures(bpol, bias=True),
        "mc_seeds": [_draw(rng) for _ in range(3)],
        "pg_seeds": [_draw(rng) for _ in range(4)],
        "pg_mdp_seed": _draw(rng),
    }


def round_solves(inst: dict) -> list:
    """(kind, solve, check) triples: the fixed solve list of one round.

    Fifteen solves, so that the median and the 90th percentile of the pooled
    solve times each fall in the middle of one kind's cluster, not in a gap
    between two: sorted by time, the eighth is the S=20 exact policy
    gradient and the fourteenth a Monte-Carlo bandit gradient estimate.
    """
    mdp5, mdp20, fourier = inst["mdp5"], inst["mdp20"], inst["fourier"]
    p5, p20 = inst["p5"], inst["p20"]
    bandit, bpol, bfeat = inst["bandit"], inst["bpol"], inst["bfeat"]
    solves = [
        ("exact_eval.s5", lambda: oracle.exact_eval(mdp5, p5), checks.check_exact_eval),
        ("exact_eval.s20", lambda: oracle.exact_eval(mdp20, p20), checks.check_exact_eval),
        (
            "exact_policy_gradient.s5",
            lambda: oracle.exact_policy_gradient(mdp5, p5),
            lambda g: checks.check_policy_gradient(mdp5, p5, g),
        ),
        (
            "exact_policy_gradient.s20",
            lambda: oracle.exact_policy_gradient(mdp20, p20),
            lambda g: checks.check_policy_gradient(mdp20, p20, g),
        ),
        (
            "mspbe_fixed_point",
            lambda: oracle.mspbe_fixed_point(mdp5, p5, fourier),
            checks.check_mspbe,
        ),
    ]
    quads = [("q9", oracle.QuadratureConfig(order=9)), ("q13", oracle.QuadratureConfig(order=13))]
    quads += [
        ("mc", oracle.QuadratureConfig(max_dim=0, mc_samples=_MC_SAMPLES, mc_seed=seed))
        for seed in inst["mc_seeds"]
    ]
    for tag, quad in quads:
        solves.append(
            (
                "offpolicy_fixed_point." + tag,
                lambda q=quad: oracle.offpolicy_fixed_point(bandit, bpol, 0.1, bfeat, q),
                checks.check_offpolicy,
            )
        )
    for seed in inst["pg_seeds"]:
        solves.append(
            (
                "stochastic_pg_estimate.bandit",
                lambda seed=seed: oracle.stochastic_pg_estimate(
                    bandit, bpol, _PG_SIGMA, _PG_BANDIT_SAMPLES, np.random.default_rng(seed)
                ),
                lambda est: checks.check_bandit_pg(bandit, bpol, est),
            )
        )
    solves.append(
        (
            "stochastic_pg_estimate.mdp",
            lambda: oracle.stochastic_pg_estimate(
                mdp5, p5, _PG_SIGMA, _PG_MDP_SAMPLES, np.random.default_rng(inst["pg_mdp_seed"])
            ),
            lambda est: checks.check_mdp_pg(mdp5, p5, est),
        )
    )
    return solves


def solve_kinds() -> collections.Counter:
    """Each solve kind, in round order, with its number of solves per round."""
    return collections.Counter(kind for kind, _, _ in round_solves(_round_instances(0, 0)))


def solution_digest(kind: str, result) -> bytes:
    """Bytes of a solve's numerical outputs, for the run digest."""
    arrays = [result] if isinstance(result, np.ndarray) else list(vars(result).values())
    h = hashlib.sha256(kind.encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


@contextlib.contextmanager
def _span(tracer, name, solve=False):
    """Trace span around a call the benchmark makes, if tracing."""
    if tracer is None:
        yield
        return
    tracer.solve_depth += solve
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.solve_depth -= solve


def run_oracle(seed, seconds, clock, tracer=None, with_verify=True) -> dict:
    """Rounds of the solve list for ``seconds``, with the verify suites spread among them."""
    if tracer is not None:
        install_tracing(tracer)
    paused = tracer.paused if tracer is not None else contextlib.nullcontext
    rounds = []
    verify_problems = []
    attempted = failed = 0
    suites = 0

    def run_suite():
        nonlocal attempted, failed, suites
        for name in verify.registered_checks():
            clock.skip()
            with _span(tracer, "verify." + name):
                (record,) = verify.run_checks([name])
            clock.lap(("verify", name))
            attempted += 1
            if not record.passed:
                failed += 1
                verify_problems.append(f"verify {name}: computed {record.computed!r}")
        suites += 1

    try:
        start = clock.now()
        rnd = 0
        while rnd == 0 or clock.now() < start + seconds:
            inst = _round_instances(seed, rnd)
            digest = hashlib.sha256()
            problems = []
            done = {}
            if tracer is not None:
                tracer.run_id = rnd
            clock.skip()
            for kind, solve, check in round_solves(inst):
                try:
                    with _span(tracer, "solve." + kind, solve=True):
                        result = solve()
                except netdac.NetdacError as exc:
                    clock.lap(None)
                    found = [f"{type(exc).__name__}: {exc}"]
                else:
                    clock.lap(("solve", kind, rnd))
                    with paused():
                        found = check(result)
                    done[kind] = result
                    digest.update(solution_digest(kind, result))
                attempted += 1
                failed += 1 if found else 0
                problems += [f"{kind}: {p}" for p in found]
                clock.skip()
            q9, q13 = done.get("offpolicy_fixed_point.q9"), done.get("offpolicy_fixed_point.q13")
            if q9 is not None and q13 is not None:
                found = checks.check_quadrature_orders(q9, q13)
                problems += found
                attempted += 1
                failed += 1 if found else 0
            rounds.append({"rep": rnd, "digest": digest.hexdigest(), "problems": problems})
            rnd += 1
            # One suite per fifth of the run, so that one slow stretch of the
            # machine cannot reach most of them.
            due = start + seconds * (suites + 0.5) / _VERIFY_SUITES
            if with_verify and suites < _VERIFY_SUITES and clock.now() >= due:
                run_suite()
        while with_verify and suites < _VERIFY_SUITES:
            run_suite()
    finally:
        if tracer is not None:
            tracer.uninstall()
    multiplicity = solve_kinds()
    ops = {}
    for index, which in enumerate(("raw", "norm")):
        by_kind = {
            kind: clock.times(lambda label: label[:2] == ("solve", kind))[index]
            for kind in multiplicity
        }
        ops[which] = _mix_percentiles(by_kind, multiplicity)
    # Solves per second of the mix, each solve at its kind's median time.
    rates = [SOLVES_PER_ROUND / sum(ops["norm"][3])]
    raw_rates = [SOLVES_PER_ROUND / sum(ops["raw"][3])]
    verify_s = []
    if with_verify:
        checks_s = [
            statistics.median(clock.times(lambda label: label == ("verify", name))[1])
            for name in verify.registered_checks()
        ]
        verify_s.append(sum(checks_s))
    total = len(ops["norm"][2])
    return _summary(
        attempted, failed, rounds, ops, total, rates, raw_rates, verify_s, verify_problems
    )


def _mix_percentiles(by_kind, multiplicity) -> tuple:
    """(p50, p90, all solve times, the mix) from per-kind medians.

    Single solve times within one run scatter with the machine's phases by
    more than neighbouring kinds differ, so each solve of a round counts at
    its kind's median time in the run; the percentiles are nearest-rank over
    those fifteen values.
    """
    mix = sorted(
        statistics.median(times)
        for kind, times in by_kind.items()
        if times
        for _ in range(multiplicity[kind])
    )

    def rank(q):
        return mix[max(math.ceil(q / 100 * len(mix)) - 1, 0)]

    return rank(50), rank(90), [t for times in by_kind.values() for t in times], mix


# ---------------------------------------------------------------------------
# Tracing: which public callables are wrapped, under which span names
# ---------------------------------------------------------------------------

_MODULES = (approx, cli, config, dac, env, linalg, network, oracle, policy, verify)

_METHOD_SPANS = (
    (env, ("local_rewards",), "env.local_rewards"),
    (env, ("transition",), "env.transition"),
    (env, ("transition_row", "mean_reward"), "env.row_call"),
    (env, ("transition_row_batch", "mean_reward_batch"), "env.batch_call"),
    (policy, ("act",), "policy.act"),
    (policy, ("perturb", "sample"), "policy.noise"),
    (approx, ("eval",), "approx.eval"),
    (approx, ("grad_action",), "approx.grad_action"),
    (approx, ("eval_batch",), "approx.eval_batch"),
    (network, ("sample_weights",), "network.sample_weights"),
)

_FUNCTION_SPANS = (
    (dac, "alg1_step", "dac.step"),
    (dac, "alg2_step", "dac.step"),
    (dac, "evaluate_policy_cost", "dac.eval"),
    (dac, "run_experiment", "dac.run"),
    (linalg, "project_box", "linalg.project_box"),
    (linalg, "solve_linear", "linalg.solve_linear"),
    (linalg, "stationary_distribution", "linalg.stationary_distribution"),
    (config, "load_config", "config.load_config"),
    (cli, "write_csv", "cli.write_csv"),
) + tuple(
    (oracle, fn, "oracle." + fn)
    for fn in (
        "exact_eval",
        "exact_policy_gradient",
        "mspbe_fixed_point",
        "mspbe_of",
        "offpolicy_fixed_point",
        "stochastic_pg_estimate",
    )
)


def install_tracing(tracer) -> None:
    """Wrap every traced callable; methods on each class that defines them."""
    for module, attrs, name in _METHOD_SPANS:
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for attr in attrs:
                if attr in vars(cls):
                    tracer.wrap(cls, attr, name, batch_rows=name == "env.batch_call")
    for module, attr, name in _FUNCTION_SPANS:
        tracer.wrap_everywhere(_MODULES, getattr(module, attr), name)


def run_digest(reps) -> str:
    """One digest over the per-repetition digests of a run."""
    h = hashlib.sha256()
    for r in reps:
        h.update(r["digest"].encode())
    return h.hexdigest()
