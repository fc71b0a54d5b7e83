"""Golden-row regression gate: tiny runs must reproduce recorded MetricsRows.

Every cell of alg1/alg2 x bandit/finite-mdp x compatible/fourier/tabular x
batch/online runs a few batches on a tiny instance and must reproduce the
rows in ``golden_rows.json`` to 1e-12 relative.  The file was recorded from
the code before the environment interface was made explicit; a refactor
that changes the arithmetic or the number of random draws fails here.

To re-record after an intended change of numbers (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_rows.py
"""

import itertools
import json
import math
import os

import pytest

from netdac.config import RunConfig
from netdac.dac import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_rows.json")
FIELDS = ("t", "batch", "eval_cost", "mean_jhat", "critic_disagreement", "actor_grad_norm")
CELLS = list(
    itertools.product(
        ("alg1", "alg2"),
        ("bandit", "finite-mdp"),
        ("compatible", "fourier", "tabular"),
        ("batch", "online"),
    )
)


def cell_id(cell) -> str:
    return "-".join(cell)


def cell_config(cell) -> RunConfig:
    """A tiny run; online cells also exercise link failures on a ring."""
    algorithm, kind, features, mode = cell
    online = mode == "online"
    return RunConfig(
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


def cell_rows(cell) -> list:
    return [[getattr(r, f) for f in FIELDS] for r in run_experiment(cell_config(cell))]


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_rows_match_golden(cell):
    want = _load()[cell_id(cell)]
    got = cell_rows(cell)
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        for name, a, b in zip(FIELDS, row_got, row_want):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (name, a, b)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({cell_id(c): cell_rows(c) for c in CELLS}, fh, indent=1)
        fh.write("\n")
