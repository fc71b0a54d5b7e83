"""Decentralized deterministic actor-critic over communication networks.

A small research library pairing a simulator — networked multi-agent MDPs,
deterministic per-agent policies, linear critics shared by consensus — with
exact small-instance oracles (stationary distributions, policy gradients,
critic fixed points) so every moving part can be verified against closed
forms.  See the README for the command-line interface and demo scripts.
"""

from . import approx, config, dac, env, linalg, network, oracle, policy, seeding, verify
from .approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FeatureMap,
    FourierFeatures,
    TabularFeatures,
)
from .config import MetricsRow, RunConfig, Schedule, load_config, parse_config, serialize_config
from .dac import (
    TrainState,
    alg1_step,
    alg2_step,
    evaluate_policy_cost,
    init_train_state,
    run_experiment,
)
from .env import ContinuousBandit, FiniteTestMdp, NetworkedMdp, make_bandit, make_finite_mdp
from .errors import (
    ConfigError,
    DimensionMismatch,
    Diverged,
    NearSingularB,
    NetdacError,
    RankDeficientFeatures,
    SingularMatrix,
)
from .network import (
    CommGraph,
    GraphProcess,
    check_assumption_random_matrices,
    metropolis_weights,
)
from .oracle import (
    QuadratureConfig,
    exact_eval,
    exact_policy_gradient,
    mspbe_fixed_point,
    offpolicy_fixed_point,
    stochastic_pg_estimate,
)
from .policy import GaussianNoise, PolicySet, affine_policy, constant_policy

__version__ = "0.1.0"
