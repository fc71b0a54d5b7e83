"""Golden-row regression gate: tiny runs must reproduce recorded MetricsRows bit for bit.

Every cell of alg1/alg2 x bandit/finite-mdp x compatible/fourier/tabular x
batch/online runs a few batches on a tiny instance; further cells cover the
paths those leave out and the summation orders that a vectorized rewrite
most easily changes:

* bandits with scalar actions and ten agents (numpy sums ten one-element
  rows pairwise, not in agent order);
* finite-MDP runs of 100 steps (the transition gate sums the agents'
  scalar actions in order);
* uncentered features without bias, the polynomial schedule, rollout
  evaluation, last-sample actor gradients, warm-started critics, path,
  star and edgeless graphs, and batches of one step;
* a projection box of +-0.05 that binds (the default box never does) and
  a single-agent run;
* the edges of a batch-mode critic segment: link failures, sigma = 0, long
  compatible batches on the finite MDP and batches of one step;
* a wide Fourier map (20 features on 8 states): every other cell has 4
  features, below the 16-wide unroll of numpy's dot kernels;
* wide bandits (10 agents, 20 action dimensions, batches of 40 steps,
  sigma = 0.1): every other bandit cell has at most 2 action dimensions,
  so only these reach the reward's quadratic form and the 201 compatible
  features at a width numpy's kernels unroll.

Each field must equal the value in ``golden_rows.json`` exactly (JSON floats
round-trip through ``repr``), so a change of one bit anywhere fails here.

To re-record after an intended change of numbers (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_rows.py
"""

import itertools
import json
import os

import pytest

from netdac.config import RunConfig
from netdac.dac import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_rows.json")
FIELDS = ("t", "batch", "eval_cost", "mean_jhat", "critic_disagreement", "actor_grad_norm")


def base_config(algorithm, kind, features, mode, **overrides) -> RunConfig:
    """A tiny run; online cells also exercise link failures on a ring."""
    online = mode == "online"
    values = dict(
        kind=kind,
        algorithm=algorithm,
        agents=10,
        action_dim=2,
        states=3,
        seeds=(7,),
        env_seed=5,
        features=features,
        feature_count=4,
        feature_seed=3,
        update_mode=mode,
        batch_size=4,
        batches=3,
        topology="ring" if online else "complete",
        failure_prob=0.3 if online else 0.0,
        sigma=0.2,
        critic_step=0.2,
        actor_step=0.05,
    )
    values.update(overrides)
    return RunConfig(**values)


CELLS = {
    "-".join(cell): base_config(*cell)
    for cell in itertools.product(
        ("alg1", "alg2"),
        ("bandit", "finite-mdp"),
        ("compatible", "fourier", "tabular"),
        ("batch", "online"),
    )
}
_LONG = dict(batch_size=10, batches=10)
# The benchmark's bandit width: 20 action dimensions, batches of 2m = 40 steps.
_WIDE_BANDIT = dict(action_dim=20, batch_size=40, sigma=0.1)
CELLS.update(
    {
        "m1-alg1-bandit-compatible-online": base_config(
            "alg1", "bandit", "compatible", "online", action_dim=1
        ),
        "m1-alg2-bandit-compatible-batch": base_config(
            "alg2", "bandit", "compatible", "batch", action_dim=1
        ),
        "long-alg1-finite-mdp-fourier-online": base_config(
            "alg1", "finite-mdp", "fourier", "online", **_LONG
        ),
        "long-alg2-finite-mdp-fourier-online": base_config(
            "alg2", "finite-mdp", "fourier", "online", **_LONG
        ),
        "long-alg1-finite-mdp-compatible-online": base_config(
            "alg1", "finite-mdp", "compatible", "online", **_LONG
        ),
        "plain-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", feature_centered=False, feature_bias=False
        ),
        "plain-alg1-finite-mdp-compatible-online": base_config(
            "alg1",
            "finite-mdp",
            "compatible",
            "online",
            feature_centered=False,
            feature_bias=False,
        ),
        "nobias-alg2-finite-mdp-compatible-batch": base_config(
            "alg2", "finite-mdp", "compatible", "batch", feature_bias=False
        ),
        "poly-alg1-finite-mdp-compatible-online": base_config(
            "alg1", "finite-mdp", "compatible", "online", schedule="polynomial"
        ),
        "poly-alg2-bandit-compatible-batch": base_config(
            "alg2", "bandit", "compatible", "batch", schedule="polynomial", critic_step=0.5
        ),
        "rollout-alg2-finite-mdp-fourier-batch": base_config(
            "alg2", "finite-mdp", "fourier", "batch", eval_rollout=5
        ),
        "rollout-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", eval_rollout=5
        ),
        "last-alg1-bandit-fourier-batch": base_config(
            "alg1", "bandit", "fourier", "batch", actor_grad="last-sample"
        ),
        "last-alg1-finite-mdp-compatible-batch": base_config(
            "alg1", "finite-mdp", "compatible", "batch", actor_grad="last-sample"
        ),
        "warm-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", critic_warm_start=True
        ),
        "warm-alg2-finite-mdp-compatible-batch": base_config(
            "alg2", "finite-mdp", "compatible", "batch", critic_warm_start=True
        ),
        "path-alg1-finite-mdp-compatible-online": base_config(
            "alg1", "finite-mdp", "compatible", "online", topology="path"
        ),
        "star-alg2-bandit-compatible-online": base_config(
            "alg2", "bandit", "compatible", "online", topology="star"
        ),
        "edgeless-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", topology="edgeless"
        ),
        "b1-alg1-finite-mdp-compatible-batch": base_config(
            "alg1", "finite-mdp", "compatible", "batch", batch_size=1, batches=5
        ),
        "b1-alg2-bandit-fourier-online": base_config(
            "alg2", "bandit", "fourier", "online", batch_size=1, batches=5
        ),
        "box-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", proj_lo=-0.05, proj_hi=0.05
        ),
        "box-alg2-finite-mdp-fourier-online": base_config(
            "alg2", "finite-mdp", "fourier", "online", proj_lo=-0.05, proj_hi=0.05, **_LONG
        ),
        "n1-alg1-finite-mdp-compatible-online": base_config(
            "alg1", "finite-mdp", "compatible", "online", agents=1
        ),
        "fail-alg2-finite-mdp-fourier-batch": base_config(
            "alg2", "finite-mdp", "fourier", "batch", topology="ring", failure_prob=0.3, **_LONG
        ),
        "sigma0-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", sigma=0.0
        ),
        "long-alg1-finite-mdp-compatible-batch": base_config(
            "alg1", "finite-mdp", "compatible", "batch", **_LONG
        ),
        "b1-alg2-bandit-compatible-batch": base_config(
            "alg2", "bandit", "compatible", "batch", batch_size=1, batches=5
        ),
        "wide-alg2-finite-mdp-fourier-online": base_config(
            "alg2", "finite-mdp", "fourier", "online", states=8, feature_count=20, **_LONG
        ),
        "wide-alg1-bandit-compatible-batch": base_config(
            "alg1", "bandit", "compatible", "batch", **_WIDE_BANDIT
        ),
        "wide-alg2-bandit-compatible-batch": base_config(
            "alg2", "bandit", "compatible", "batch", **_WIDE_BANDIT
        ),
    }
)


def cell_rows(name) -> list:
    return [[getattr(r, f) for f in FIELDS] for r in run_experiment(CELLS[name])]


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_cell_recorded():
    assert sorted(_load()) == sorted(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_rows_match_golden(name):
    want = _load()[name]
    got = cell_rows(name)
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        for field, a, b in zip(FIELDS, row_got, row_want):
            assert a == b, (field, a, b)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: cell_rows(name) for name in CELLS}, fh, indent=1)
        fh.write("\n")
