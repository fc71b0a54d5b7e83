"""Golden-digest regression gate for the oracles: outputs must keep every bit.

Each case solves one small instance and hashes the bytes of every output
array (sha256, in field order); the digests in ``golden_oracle.json`` must
match exactly.  The cases cover exact evaluation and the exact policy
gradient on an affine-policy MDP (also at 20 states and 10 agents), the
exact policy gradient with one agent and on a 10-agent bandit, the
on-policy fixed point with Fourier features, the off-policy fixed point
with compatible reward features (bias on and off; Gauss-Hermite order 9
and the Monte-Carlo branch; a bandit and a finite MDP) and the
score-function gradient on a bandit and on an affine-policy MDP.

Memory layout matters, not only values: the oracles multiply feature
batches with BLAS, which sums in a different order for row- and
column-major operands, so a feature map returning equal values in another
layout fails here.

To re-record after an intended change of numbers (say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden_oracle.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from netdac import oracle
from netdac.approx import CompatibleRFeatures, FourierFeatures
from netdac.env import make_bandit, make_finite_mdp
from netdac.policy import affine_policy, constant_policy

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_oracle.json")
_MC = oracle.QuadratureConfig(max_dim=0, mc_samples=5_000, mc_seed=3)
_Q9 = oracle.QuadratureConfig(order=9)


def _mdp_case(states=5, agents=3, seed=4):
    mdp = make_finite_mdp(states, agents, seed=seed)
    pol = affine_policy(states, mdp.action_dims)
    pol.set_theta_flat(np.random.default_rng(seed).uniform(-0.5, 0.5, pol.total_param_dim))
    return mdp, pol


def _bandit_case(agents=3, m=1, seed=9):
    env = make_bandit(agents, m, seed=seed)
    rng = np.random.default_rng(seed)
    pol = constant_policy(env.action_dims, [rng.uniform(-2.0, 2.0, m) for _ in range(agents)])
    return env, pol


def _constant_mdp_case(states=3, agents=2, seed=6):
    mdp = make_finite_mdp(states, agents, seed=seed)
    rng = np.random.default_rng(seed)
    pol = constant_policy(mdp.action_dims, [rng.uniform(-1.0, 1.0, 1) for _ in range(agents)])
    return mdp, pol


def _offpolicy(case, bias, quad):
    env, pol = case()
    return oracle.offpolicy_fixed_point(env, pol, 0.2, CompatibleRFeatures(pol, bias=bias), quad)


def _mspbe():
    mdp, pol = _mdp_case()
    return oracle.mspbe_fixed_point(mdp, pol, FourierFeatures(5, mdp.action_dims, dim=3, seed=2))


def _pg(case, samples):
    env, pol = case()
    return oracle.stochastic_pg_estimate(env, pol, 0.1, samples, np.random.default_rng(17))


CASES = {
    "exact_eval": lambda: oracle.exact_eval(*_mdp_case()),
    "exact_policy_gradient": lambda: oracle.exact_policy_gradient(*_mdp_case()),
    "exact_policy_gradient_s20_n10": lambda: oracle.exact_policy_gradient(*_mdp_case(20, 10)),
    "exact_policy_gradient_one_agent": lambda: oracle.exact_policy_gradient(
        *_constant_mdp_case(4, 1)
    ),
    "exact_policy_gradient_bandit": lambda: oracle.exact_policy_gradient(*_bandit_case(10, 20)),
    "mspbe_fixed_point": _mspbe,
    "offpolicy_bandit_bias_q9": lambda: _offpolicy(_bandit_case, True, _Q9),
    "offpolicy_bandit_nobias_q9": lambda: _offpolicy(_bandit_case, False, _Q9),
    "offpolicy_bandit_bias_mc": lambda: _offpolicy(_bandit_case, True, _MC),
    "offpolicy_bandit_nobias_mc": lambda: _offpolicy(_bandit_case, False, _MC),
    "offpolicy_mdp_bias_q9": lambda: _offpolicy(_constant_mdp_case, True, _Q9),
    "offpolicy_mdp_nobias_mc": lambda: _offpolicy(_constant_mdp_case, False, _MC),
    "stochastic_pg_bandit": lambda: _pg(_bandit_case, 10_000),
    "stochastic_pg_mdp": lambda: _pg(_mdp_case, 20_000),
}


def digest(result) -> str:
    arrays = [result] if isinstance(result, np.ndarray) else list(vars(result).values())
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_recorded():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_digest_matches_golden(name):
    assert digest(CASES[name]()) == _load()[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: digest(solve()) for name, solve in CASES.items()}, fh, indent=1)
        fh.write("\n")
