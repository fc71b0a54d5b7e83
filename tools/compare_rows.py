"""Compare two netdac source trees' training rows and exact oracles on random small configs.

    python tools/compare_rows.py PARENT_SRC CHANGE_SRC --configs N [--seed S]

Each tree runs in its own Python process (``PYTHONPATH=<tree>``) over the
same N random configs: both algorithms, both environments, all feature maps,
batch and online updates, every topology, link failures, polynomial
schedules, binding projection boxes, and step sizes that diverge (critic
steps x20 or x2000, actor steps x1e6 in a 1e12 box).  Every
fifth config is wide (up to 10 agents, 20 action dimensions, batches of 40
and 20 features), so products run past numpy's 16-wide dot unroll.  Every
``MetricsRow`` field but the wall clock is compared bit for bit (as
``float.hex``), and so is the message of any ``Diverged`` or other netdac
error a run raises.  On each config's environment, the exact oracles are
compared byte for byte too, under the config's policy with parameters drawn
from the config's own generator: ``exact_eval`` (every field),
``exact_policy_gradient``, ``stochastic_pg_estimate`` (value and stderr, from
300 samples of that generator, at the config's sigma or 0.1 when it is 0) and
``offpolicy_fixed_point``'s ``lam`` with the config's features, or the message
of the netdac error it raises (e.g. ``NearSingularB``).  Both draw on 500
Monte-Carlo nodes when the joint action has more than 3 dimensions.
The script prints the first config that differs and exits 1, or prints a
summary and exits 0 when all rows, messages and oracle bytes agree.
"""

import argparse
import json
import os
import subprocess
import sys

FIELDS = ("t", "batch", "eval_cost", "mean_jhat", "critic_disagreement", "actor_grad_norm")


def random_config(seed: int, index: int):
    """Keyword arguments of ``RunConfig`` for config ``index`` of a comparison, and
    the config's generator, positioned after the config's draws."""
    import numpy as np

    rng = np.random.default_rng([seed, index])

    def pick(*options):
        return options[int(rng.integers(len(options)))]

    cfg = dict(
        kind=pick("bandit", "finite-mdp"),
        algorithm=pick("alg1", "alg2"),
        agents=int(rng.integers(1, 5)),
        action_dim=int(rng.integers(1, 4)),
        states=int(rng.integers(2, 5)),
        seeds=tuple(int(s) for s in rng.integers(0, 1000, size=int(rng.integers(1, 3)))),
        env_seed=int(rng.integers(0, 100)),
        schedule=pick("constant", "constant", "polynomial"),
        critic_step=pick(0.05, 0.1, 0.3),
        actor_step=pick(0.01, 0.05),
        sigma=pick(0.0, 0.1, 0.3),
        topology=pick("complete", "path", "ring", "star", "edgeless"),
        failure_prob=pick(0.0, 0.0, 0.3),
        features=pick("compatible", "compatible", "fourier", "tabular"),
        feature_count=int(rng.integers(2, 7)),
        feature_bias=pick(True, False),
        feature_centered=pick(True, False),
        feature_seed=int(rng.integers(0, 100)),
        update_mode=pick("batch", "online"),
        batch_size=int(rng.integers(1, 9)),
        batches=int(rng.integers(1, 7)),
        actor_grad=pick("batch-mean", "batch-mean", "last-sample"),
        critic_warm_start=pick(True, False),
    )
    if pick(True, False, False, False):
        cfg.update(proj_lo=-0.05, proj_hi=0.05)
    if index % 3 == 0:
        cfg["critic_step"] *= pick(20.0, 2000.0)
    elif index % 3 == 1 and pick(True, False):
        cfg.update(actor_step=cfg["actor_step"] * 1e6, proj_lo=-1e12, proj_hi=1e12)
    if index % 5 == 4:  # a wide shape, past the 16-wide unroll of numpy's dot kernels
        cfg.update(
            agents=int(rng.integers(2, 11)),
            action_dim=int(rng.integers(8, 21)),
            batch_size=int(rng.integers(16, 41)),
            feature_count=int(rng.integers(16, 21)),
        )
    return cfg, rng


def oracle_bytes(cfg, rng) -> list:
    """Hex bytes of ``exact_eval`` (field by field), ``exact_policy_gradient``,
    ``stochastic_pg_estimate`` (value and stderr) and ``offpolicy_fixed_point``'s ``lam``
    (or the message of the netdac error it raises) on the config's environment, under its
    policy with parameters and samples drawn from ``rng``."""
    import numpy as np

    from netdac import oracle
    from netdac.dac import build_features, build_mdp, build_policy
    from netdac.errors import NetdacError

    mdp = build_mdp(cfg)
    policy = build_policy(cfg, mdp)
    policy.set_theta_flat(rng.uniform(-2.0, 2.0, policy.total_param_dim))
    ev = oracle.exact_eval(mdp, policy)
    arrays = list(vars(ev).values()) + [oracle.exact_policy_gradient(mdp, policy)]
    # Joint actions of more than 3 dimensions take the Monte-Carlo branch: a small draw.
    sigma, quad = cfg.sigma or 0.1, oracle.QuadratureConfig(mc_samples=500)
    est = oracle.stochastic_pg_estimate(mdp, policy, sigma, 300, rng, quad)
    arrays += [est.value, est.stderr]
    out = [np.ascontiguousarray(a, dtype=float).tobytes().hex() for a in arrays]
    features = build_features(cfg, mdp, policy)
    try:
        lam = oracle.offpolicy_fixed_point(mdp, policy, sigma, features, quad).lam
    except NetdacError as exc:
        return out + [f"{type(exc).__name__}: {exc}"]
    return out + [np.ascontiguousarray(lam, dtype=float).tobytes().hex()]


def run_configs(seed: int, count: int):
    """Yield one JSON-ready outcome per config, from the netdac on ``sys.path``."""
    import numpy as np

    from netdac.config import RunConfig
    from netdac.dac import run_experiment
    from netdac.errors import NetdacError

    for index in range(count):
        kwargs, rng = random_config(seed, index)
        cfg = RunConfig(**kwargs)
        outcome = {"oracle": oracle_bytes(cfg, rng)}
        try:
            with np.errstate(all="ignore"):
                rows = run_experiment(cfg)
        except NetdacError as exc:
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        else:
            outcome["rows"] = [
                [v.hex() if isinstance(v, float) else v for v in (getattr(r, f) for f in FIELDS)]
                for r in rows
            ]
        yield outcome


def _worker_outcomes(src: str, seed: int, count: int) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--seed", str(seed)]
    out = subprocess.run(
        cmd + ["--configs", str(count)], env=env, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="source tree of the parent (its src/)")
    parser.add_argument("change", nargs="?", help="source tree of the change (its src/)")
    parser.add_argument("--configs", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        for outcome in run_configs(args.seed, args.configs):
            print(json.dumps(outcome), flush=True)
        return 0
    if not (args.parent and args.change):
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    parent = _worker_outcomes(args.parent, args.seed, args.configs)
    change = _worker_outcomes(args.change, args.seed, args.configs)
    if len(parent) != len(change):
        print(f"parent gave {len(parent)} outcomes, change {len(change)}")
        return 1
    for index, (a, b) in enumerate(zip(parent, change)):
        if a != b:
            print(f"config {index} differs: {random_config(args.seed, index)[0]}")
            print(f"  parent: {a}")
            print(f"  change: {b}")
            return 1
    diverged = sum("error" in a for a in parent)
    lam_errors = sum(":" in a["oracle"][-1] for a in parent)  # hex has no colon; messages do
    print(
        f"{len(parent)} configs identical ({diverged} raised, with identical messages; "
        "identical exact_eval, exact_policy_gradient, stochastic_pg_estimate and "
        f"offpolicy_fixed_point bytes or messages, {lam_errors} of them messages)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
