"""Decentralized deterministic actor-critic training loops.

Two algorithms over a networked MDP, both fully decentralized: every agent
keeps a private critic weight vector and a private policy, and critics are
mixed each step by one consensus round over the communication graph.

Algorithm "alg1" (on-policy).  Agents follow mu_theta plus optional
exploration noise.  Each step, with the pre-step pair (s_t, a_t) and the
next pair (s_{t+1}, a_{t+1}), a_{t+1} = mu_{theta_t}(s_{t+1}) + noise:

    Jhat^i   <- (1 - beta_w) Jhat^i + beta_w r^i
    delta^i   =  r^i - Jhat^i_t + Qhat_{w^i}(s', a') - Qhat_{w^i}(s, a)
    wtilde^i  =  w^i + beta_w delta^i phi(s, a)
    theta^i  <-  proj[ theta^i + beta_th * dmu^i/dtheta^i (s) *
                       dQhat_{w^i}/da^i (s, a) ]          (at the taken a^i)
    w^i      <-  sum_j c_ij wtilde^j                       (consensus)

Jhat is never averaged over the network; only critic weights are.  The actor
uses the pre-consensus, pre-critic-step weights of the same step.

Algorithm "alg2" (off-policy).  Actions come from a fixed-scale Gaussian
behavior policy around the current target policy.  The critic learns the
averaged reward itself (no temporal bootstrapping):

    delta^i   =  r^i - Rbarhat_{l^i}(s, a)
    ltilde^i  =  l^i + beta_l delta^i w(s, a)
    theta^i  <-  proj[ theta^i + beta_th * dmu^i/dtheta^i (s) *
                       dRbarhat_{l^i}/da^i (s, mu_theta(s)) ]
    l^i      <-  sum_j c_ij ltilde^j                       (consensus)

Both algorithms run one step body, ``_critic_segment``: ``steps`` transitions
under a frozen theta (one batch-mode batch), or one transition followed by the
actor step (``alg1_step``, ``alg2_step``).  It branches on the algorithm in two
places: the critic target above (with the action the actor reads the critic's
gradient at) and the draw of the last action, made before the actor step under
alg1 (pre-update policy) and after it under alg2 (new theta).  Only the critic
recurrence is sequential: a segment draws its noise as one block, rolls states
forward with ``transition`` per row and ``act`` once per state visited, takes
all its rewards and features at once (``local_rewards_rows``, ``eval_rows``),
and runs the recurrence in place, in the order of the formulas above.  The
blocks are bit-equal to per-step calls: ``standard_normal((T, n))`` gives the
bits of T draws of n, the ``*_rows`` methods are exact row by row (a stacked
``np.matmul`` makes per slice the single product's BLAS call; ``np.einsum``
sums in its own order), and each ``w @ phi`` reads a C-contiguous row.

Both loops run either fully online (actor every step) or in batch mode: the
critic runs for a batch of steps with theta frozen (re-initialized to zero at
each batch start unless warm-started), then one actor update is applied using
the batch-end critic, averaged over the batch's sampled states/actions.
"""

import functools
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import network
from .approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FeatureMap,
    FourierFeatures,
    TabularFeatures,
)
from .config import MetricsRow, RunConfig, Schedule
from .env import NetworkedMdp, make_bandit, make_finite_mdp
from .errors import ConfigError, Diverged
from .linalg import project_box, stationary_distribution
from .network import CommGraph, GraphProcess, load_edge_list
from .policy import GaussianNoise, PolicySet, affine_policy, constant_policy
from .seeding import substream

__all__ = [
    "TrainState",
    "init_train_state",
    "alg1_step",
    "alg2_step",
    "run_experiment",
    "evaluate_policy_cost",
    "build_mdp",
    "build_policy",
    "build_features",
    "build_graph",
]

#: Iterates whose magnitude passes this bound abort the run.
DIVERGENCE_BOUND = 1e8

#: Steps between divergence checks inside the training loops (the check also
#: runs after every actor update, so blow-ups surface within a few steps).
_FINITE_CHECK_EVERY = 16

#: The sub-stream each algorithm draws its actions from.
_ACTION_STREAM = {"alg1": "noise", "alg2": "behavior"}

_agent_pairs = functools.lru_cache(np.triu_indices)  # the i <= j pairs of N agents


@dataclass
class TrainState:
    """Mutable state of one training run (one seed)."""

    policy: PolicySet
    critic: np.ndarray  # (N, K) per-agent critic weights
    jhat: np.ndarray  # (N,) per-agent average-reward trackers (alg1 only)
    t: int
    s: int
    actions: np.ndarray  # flat joint action to be executed at time t
    rngs: dict  # "env" and the algorithm's action stream, by sub-stream label
    algorithm: str = "alg1"
    actor_direction: np.ndarray = None  # g of the segment's actor step, if it took one
    comm_scalars: int = 0  # simulated network traffic, in scalars sent
    # phi(s, actions) under the current policy, or None: alg1 carries it from
    # step to step, and an actor update clears it (features may use theta).
    phi: np.ndarray = None

    @property
    def last_actor_grad_norm(self) -> float:
        """|g| of the last actor step, or 0.0: computed when read, once per evaluation row."""
        g = self.actor_direction
        # Agent norms added in agent order: one flat dot over g sums differently.
        blocks = () if g is None else self.policy.param_blocks
        return float(np.sqrt(sum(float(g[b] @ g[b]) for b in blocks)))

    @property
    def critic_disagreement(self) -> float:
        """max_ij |w^i - w^j|, with the (N, N, K) cube's einsum bits (i = j keeps its NaN)."""
        i, j = _agent_pairs(len(self.critic))
        d = self.critic[i] - self.critic[j]
        return float(np.sqrt(np.max(np.einsum("pk,pk->p", d, d))))

    def check_finite(self) -> None:
        """Raise Diverged naming the first iterate that is non-finite or too large."""
        iterates = [("critic", self.critic), ("jhat", self.jhat)]
        # params is checked whole; only a failure searches the agents' blocks,
        # so the message names theta[i] with that block's own magnitude.
        params = self.policy.params
        if params.size and not np.abs(params).max() <= DIVERGENCE_BOUND:
            iterates += [(f"theta[{i}]", t) for i, t in enumerate(self.policy.theta)]
        for name, value in iterates:
            worst = float(np.abs(value).max()) if value.size else 0.0
            # max propagates NaN, and NaN fails every comparison.
            if not worst <= DIVERGENCE_BOUND:
                raise Diverged(f"{name} magnitude {worst:.3e} at step {self.t}")


def init_train_state(
    mdp: NetworkedMdp,
    policy: PolicySet,
    features: FeatureMap,
    seed: int,
    algorithm: str = "alg1",
    exploration: GaussianNoise = GaussianNoise(0.0),
) -> TrainState:
    """Fresh state in state 0: zero critics, zero Jhat, initial action mu(0) plus noise.

    Two named sub-streams are derived from the seed: "env" for transitions
    and the algorithm's action stream ("noise" for alg1's exploration,
    "behavior" for alg2's behavior policy), which draws the initial action.
    """
    if algorithm not in _ACTION_STREAM:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rngs = {label: substream(seed, label) for label in ("env", _ACTION_STREAM[algorithm])}
    n = mdp.agent_count
    return TrainState(
        policy=policy,
        critic=np.zeros((n, features.dim)),
        jhat=np.zeros(n),
        t=0,
        s=0,
        actions=exploration.perturb(policy.act(0), rngs[_ACTION_STREAM[algorithm]]),
        rngs=rngs,
        algorithm=algorithm,
    )


def _actor_direction(
    policy: PolicySet, features: FeatureMap, critic: np.ndarray, s: int, actions
) -> np.ndarray:
    """dmu/dparams (s) @ dfhat/da (s, a), agent i's block under agent i's critic w^i."""
    gq = features.grad_action(s, actions, critic)
    return policy.jac_apply(s, gq, np.zeros(policy.total_param_dim))


def _actor_step(state: TrainState, g: np.ndarray, beta_th: float) -> None:
    """params <- proj[params + beta_th g]; keeps g for ``last_actor_grad_norm``."""
    policy = state.policy
    policy.params[:] = project_box(policy.params + beta_th * g, policy.lo, policy.hi)
    state.phi = None
    state.actor_direction = g


def _critic_segment(
    state: TrainState, mdp: NetworkedMdp, features: FeatureMap, process: GraphProcess,
    schedule: Schedule, noise: GaussianNoise, update_actor: bool, algorithm: str, steps: int = 1,
) -> list:
    """``steps`` transitions under a frozen theta, or one followed by the actor step.

    ``update_actor`` needs ``steps = 1``: the rows are evaluated before the
    loop.  Mutates ``state`` and returns the segment's (s_k, a_k) samples.
    """
    if state.algorithm != algorithm:
        raise ValueError(f"{algorithm}_step called on a state initialized for {state.algorithm}")
    policy, alg1, t = state.policy, algorithm == "alg1", state.t
    z = noise.draw(steps, state.actions.size, state.rngs[_ACTION_STREAM[algorithm]])
    states, acts = [state.s], [state.actions]
    # theta is frozen until the actor step; a one-step segment calls act once.
    act = policy.act if steps == 1 else functools.cache(policy.act)

    def next_action(k):
        a = act(states[k + 1])
        return a if z is None else a + z[k]

    for k in range(steps):
        states.append(mdp.transition(states[k], acts[k], state.rngs["env"]))
        if k + 1 < steps or alg1:  # alg2 draws its last action after the actor step
            acts.append(next_action(k))
    # phi(s_k, a_k) for k <= steps under alg1 (k = 0 carried over unless an
    # actor update cleared it), k < steps under alg2.  One row needs no block.
    phis = [] if state.phi is None else [state.phi]
    rows = states[len(phis) : len(acts)], acts[len(phis) :]
    if steps == 1:
        rewards = [mdp.local_rewards(states[0], acts[0])]
        phis.extend(map(features.eval, *rows))
    else:
        rewards = mdp.local_rewards_rows(states[:steps], acts[:steps])
        phis.extend(features.eval_rows(*rows))
    if alg1:
        state.phi = phis[-1]

    state.actor_direction = None
    for k in range(steps):
        w, phi, r, beta_w = state.critic, phis[k], rewards[k], schedule.beta_critic(t)
        if alg1:
            delta = r - state.jhat
            delta += w @ phis[k + 1]
            delta -= w @ phi
            state.jhat = (1.0 - beta_w) * state.jhat + beta_w * r
        else:
            delta = r - w @ phi
        delta *= beta_w
        w_tilde = np.multiply.outer(delta, phi)
        w_tilde += w
        if update_actor:
            # alg2 takes the actor gradient at the on-policy action mu_theta(s_t).
            a_grad = acts[0] if alg1 else policy.act(states[0])
            g = _actor_direction(policy, features, w, states[0], a_grad)
            _actor_step(state, g, schedule.beta_actor(t))
        c = process.sample_weights()
        state.critic = c @ w_tilde
        sent = features.dim * process.directed_edge_count(c)
        state.comm_scalars += sent + features.jacobian_scalars
        t = state.t = t + 1
        if t % _FINITE_CHECK_EVERY == 0:
            state.check_finite()
    if not alg1:
        # The next behavior action is drawn around the post-update policy.
        acts.append(next_action(steps - 1))
    state.s, state.actions = states[-1], acts[-1]
    return list(zip(states, acts[:steps]))


def alg1_step(
    state: TrainState,
    mdp: NetworkedMdp,
    features: FeatureMap,
    process: GraphProcess,
    schedule: Schedule,
    exploration: GaussianNoise = GaussianNoise(0.0),
    update_actor: bool = True,
) -> TrainState:
    """One transition of the on-policy algorithm (mutates and returns state)."""
    _critic_segment(state, mdp, features, process, schedule, exploration, update_actor, "alg1")
    return state


def alg2_step(
    state: TrainState,
    mdp: NetworkedMdp,
    features: FeatureMap,
    process: GraphProcess,
    schedule: Schedule,
    behavior: GaussianNoise = GaussianNoise(0.1),
    update_actor: bool = True,
) -> TrainState:
    """One transition of the off-policy algorithm (mutates and returns state)."""
    _critic_segment(state, mdp, features, process, schedule, behavior, update_actor, "alg2")
    return state


def evaluate_policy_cost(
    mdp: NetworkedMdp, policy: PolicySet, rollout_steps: int = 0, rng=None
) -> float:
    """Cost of the deterministic policy: the negated long-run average reward.

    With ``rollout_steps = 0`` the cost is computed exactly from the
    stationary distribution of the policy-induced chain (both provided
    environments expose exact transition rows).  Otherwise it is estimated
    from a single noise-free rollout of that many steps.
    """
    if rollout_steps > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        s = 0
        total = 0.0
        for _ in range(rollout_steps):
            acts = policy.act(s)
            total += mdp.mean_reward(s, acts)
            s = mdp.transition(s, acts, rng)
        return -total / rollout_steps
    n_s = mdp.state_count
    if n_s == 1:  # the stationary distribution is ones(1): the same float, no solve
        return float(-mdp.mean_reward(0, policy.act(0)))
    rows = np.stack([mdp.transition_row(s, policy.act(s)) for s in range(n_s)])
    d = stationary_distribution(rows)
    rbar = np.array([mdp.mean_reward(s, policy.act(s)) for s in range(n_s)])
    return float(-(d @ rbar))


# ---------------------------------------------------------------------------
# Config-driven experiment runner
# ---------------------------------------------------------------------------


def build_mdp(config: RunConfig) -> NetworkedMdp:
    """Environment instance for a config (fixed across run seeds)."""
    if config.kind == "bandit":
        return make_bandit(config.agents, config.action_dim, config.env_seed)
    return make_finite_mdp(config.states, config.agents, config.env_seed)


def build_policy(config: RunConfig, mdp: NetworkedMdp) -> PolicySet:
    """Zero-initialized policy of the right form for the environment."""
    if mdp.state_count == 1:
        return constant_policy(mdp.action_dims, lo=config.proj_lo, hi=config.proj_hi)
    return affine_policy(
        mdp.state_count, mdp.action_dims, lo=config.proj_lo, hi=config.proj_hi
    )


def build_features(config: RunConfig, mdp: NetworkedMdp, policy: PolicySet) -> FeatureMap:
    """Critic features for the configured algorithm."""
    if config.features == "compatible":
        if config.algorithm == "alg1":
            return CompatibleQFeatures(
                policy, centered=config.feature_centered, bias=config.feature_bias
            )
        return CompatibleRFeatures(policy, bias=config.feature_bias)
    if config.features == "fourier":
        return FourierFeatures(
            mdp.state_count, mdp.action_dims, config.feature_count, seed=config.feature_seed
        )
    return TabularFeatures(mdp.state_count, mdp.action_dims)


def build_graph(config: RunConfig) -> CommGraph:
    """Base communication graph named by the config topology."""
    if ":" not in config.topology:  # a named topology: network.<name>_graph
        return getattr(network, config.topology + "_graph")(config.agents)
    _, _, path = config.topology.partition(":")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_edge_list(text, n=config.agents)
    except ValueError as exc:
        raise ConfigError(f"topology file {path}: {exc}") from exc


def _batch_actor_update(
    state: TrainState,
    features: FeatureMap,
    schedule: Schedule,
    samples: list,
    batch_index: int,
    config: RunConfig,
) -> None:
    """One actor update from a finished batch."""
    policy = state.policy
    if config.actor_grad == "last-sample":
        samples = samples[-1:]
    g = np.zeros(policy.total_param_dim)
    # The per-sample direction depends only on the sample's state whenever the
    # critic's action-gradient does (alg2 always evaluates at mu_theta(s)), so
    # identical states share one evaluation.
    if state.algorithm == "alg2" or features.action_independent_grad:
        counts = Counter(s for s, _ in samples)
        for s, count in counts.items():
            g += count * _actor_direction(policy, features, state.critic, s, policy.act(s))
    else:
        for s, acts in samples:
            g += _actor_direction(policy, features, state.critic, s, acts)
    _actor_step(state, g / len(samples), schedule.beta_actor(batch_index))
    state.check_finite()


def run_experiment(config: RunConfig, seed: int = None) -> list:
    """Run the configured experiment; returns one MetricsRow per evaluation.

    With ``seed=None`` all of ``config.seeds`` are run back to back.  Each
    seed produces an initial evaluation row (batch 0) plus one row per batch.
    """
    if seed is None:
        rows = []
        for s in config.seeds:
            rows.extend(run_experiment(config, s))
        return rows

    mdp = build_mdp(config)
    policy = build_policy(config, mdp)
    features = build_features(config, mdp, policy)
    process = GraphProcess(
        build_graph(config), config.failure_prob, substream(seed, "graph")
    )
    schedule = config.step_sizes
    exploration = GaussianNoise(config.sigma)
    state = init_train_state(
        mdp, policy, features, seed=seed, algorithm=config.algorithm, exploration=exploration
    )
    step_fn = alg1_step if config.algorithm == "alg1" else alg2_step
    run_id = f"{config.algorithm}-{config.kind}-m{config.action_dim}-s{seed}"
    eval_rng = substream(seed, "eval") if config.eval_rollout > 0 else None
    start = time.perf_counter()

    def eval_row(batch: int) -> MetricsRow:
        cost = evaluate_policy_cost(mdp, policy, config.eval_rollout, eval_rng)
        if config.algorithm == "alg1":
            mean_jhat = float(state.jhat.mean())
        else:
            # alg2 has no Jhat; report the agents' mean reward-model value at
            # the on-policy action in the current state.
            feats = features.eval(state.s, policy.act(state.s))
            mean_jhat = float((state.critic @ feats).mean())
        return MetricsRow(
            run_id=run_id,
            seed=seed,
            t=state.t,
            batch=batch,
            eval_cost=cost,
            mean_jhat=mean_jhat,
            critic_disagreement=state.critic_disagreement,
            actor_grad_norm=state.last_actor_grad_norm,
            wallclock_ms=int((time.perf_counter() - start) * 1000),
        )

    rows = [eval_row(0)]
    batch_size = config.effective_batch_size
    if config.update_mode == "batch":
        for b in range(1, config.batches + 1):
            if not config.critic_warm_start:
                state.critic[:] = 0.0
            samples = _critic_segment(
                state, mdp, features, process, schedule, exploration, False, config.algorithm,
                steps=batch_size,
            )
            _batch_actor_update(state, features, schedule, samples, b - 1, config)
            rows.append(eval_row(b))
    else:
        for t in range(config.batches * batch_size):
            step_fn(state, mdp, features, process, schedule, exploration, update_actor=True)
            if (t + 1) % batch_size == 0:
                rows.append(eval_row((t + 1) // batch_size))
    return rows
