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

Both algorithms run one step body, ``_step``, which branches on the algorithm
in two places: the critic target above (with the action the actor reads the
critic's gradient at) and the draw of the next action, made before the actor
step under alg1 (pre-update policy) and after it under alg2 (new theta).

Both loops run either fully online (actor every step) or in batch mode: the
critic runs for a batch of steps with theta frozen (re-initialized to zero at
each batch start unless warm-started), then one actor update is applied using
the batch-end critic, averaged over the batch's sampled states/actions.
"""

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FeatureMap,
    FourierFeatures,
    TabularFeatures,
)
from .config import MetricsRow, RunConfig
from .env import NetworkedMdp, make_bandit, make_finite_mdp
from .errors import ConfigError, Diverged
from .linalg import project_box, stationary_distribution
from .network import (
    CommGraph,
    GraphProcess,
    complete_graph,
    edgeless_graph,
    load_edge_list,
    path_graph,
    ring_graph,
    star_graph,
)
from .policy import GaussianNoise, PolicySet, affine_policy, constant_policy
from .seeding import substream

__all__ = [
    "Schedule",
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


@dataclass(frozen=True)
class Schedule:
    """Step-size schedules for the critic (fast) and actor (slow) timescales.

    ``constant`` uses the two scales as-is.  ``polynomial`` decays them as
    scale / (1 + t)^power with 0.5 < critic_pow < actor_pow <= 1, which keeps
    the actor on a strictly slower timescale than the critic.
    """

    mode: str = "constant"
    critic: float = 0.1
    actor: float = 0.01
    critic_pow: float = 0.6
    actor_pow: float = 0.9

    def __post_init__(self):
        if self.mode not in ("constant", "polynomial"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.critic < 0 or self.actor < 0:
            raise ValueError("step-size scales must be non-negative")
        if self.mode == "polynomial" and not (
            0.5 < self.critic_pow < self.actor_pow <= 1.0
        ):
            raise ValueError("polynomial schedule needs 0.5 < critic_pow < actor_pow <= 1")

    def beta_critic(self, t: int) -> float:
        if self.mode == "constant":
            return self.critic
        return self.critic / (1.0 + t) ** self.critic_pow

    def beta_actor(self, t: int) -> float:
        if self.mode == "constant":
            return self.actor
        return self.actor / (1.0 + t) ** self.actor_pow


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
    last_actor_grad_norm: float = 0.0
    comm_scalars: int = 0  # simulated network traffic, in scalars sent
    # phi(s, actions) under the current policy, or None: alg1 carries it from
    # step to step, and an actor update clears it (features may use theta).
    phi: np.ndarray = None

    def check_finite(self) -> None:
        """Raise Diverged naming the first iterate that is non-finite or too large."""
        iterates = [("critic", self.critic), ("jhat", self.jhat)]
        # params is checked whole; only a failure searches the agents' blocks,
        # so the message names theta[i] with that block's own magnitude.
        params = self.policy.params
        if params.size and not np.max(np.abs(params)) <= DIVERGENCE_BOUND:
            iterates += [(f"theta[{i}]", t) for i, t in enumerate(self.policy.theta)]
        for name, value in iterates:
            worst = float(np.max(np.abs(value))) if value.size else 0.0
            # np.max propagates NaN, and NaN fails every comparison.
            if not worst <= DIVERGENCE_BOUND:
                raise Diverged(f"{name} magnitude {worst:.3e} at step {self.t}")


def init_train_state(
    mdp: NetworkedMdp,
    policy: PolicySet,
    features: FeatureMap,
    seed: int,
    algorithm: str = "alg1",
    exploration: GaussianNoise = GaussianNoise(0.0),
    s0: int = 0,
) -> TrainState:
    """Fresh state: zero critics, zero Jhat, initial action mu(s0) plus noise.

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
        s=int(s0),
        actions=exploration.perturb(policy.act(s0), rngs[_ACTION_STREAM[algorithm]]),
        rngs=rngs,
        algorithm=algorithm,
    )


def _actor_direction(
    policy: PolicySet, features: FeatureMap, critic: np.ndarray, s: int, actions
) -> np.ndarray:
    """dmu/dparams (s) @ dfhat/da (s, a), agent i's block under agent i's critic w^i."""
    gq = features.grad_action(s, actions, critic)
    return policy.jac_apply(s, gq, np.zeros(policy.total_param_dim))


def _actor_step(state: TrainState, g: np.ndarray, beta_th: float) -> float:
    """params <- proj[params + beta_th g]; returns |g|, summed agent by agent."""
    policy = state.policy
    policy.params[:] = project_box(policy.params + beta_th * g, policy.lo, policy.hi)
    state.phi = None
    # Agent norms added in agent order: one flat dot over g sums differently.
    blocks = np.split(g, np.cumsum(policy.param_dims)[:-1])
    return float(np.sqrt(sum(float(gi @ gi) for gi in blocks)))


def _step(
    state: TrainState,
    mdp: NetworkedMdp,
    features: FeatureMap,
    process: GraphProcess,
    schedule: Schedule,
    noise: GaussianNoise,
    update_actor: bool,
    algorithm: str,
) -> TrainState:
    """One transition of either algorithm (mutates and returns state)."""
    if state.algorithm != algorithm:
        raise ValueError(f"{algorithm}_step called on a state initialized for {state.algorithm}")
    policy, w = state.policy, state.critic
    s, acts, t = state.s, state.actions, state.t
    rng = state.rngs[_ACTION_STREAM[algorithm]]
    beta_w = schedule.beta_critic(t)

    r = mdp.local_rewards(s, acts)
    s_next = mdp.transition(s, acts, state.rngs["env"])
    if algorithm == "alg1":
        # Next action follows the current (pre-update) policy.
        a_next = noise.perturb(policy.act(s_next), rng)
        phi = features.eval(s, acts) if state.phi is None else state.phi
        # phi(s', a') is next step's phi unless the actor update below clears it.
        state.phi = features.eval(s_next, a_next)
        delta = r - state.jhat + w @ state.phi - w @ phi
        state.jhat = (1.0 - beta_w) * state.jhat + beta_w * r
    else:
        phi = features.eval(s, acts)
        delta = r - w @ phi
    w_tilde = w + beta_w * delta[:, None] * phi[None, :]

    grad_norm = 0.0
    if update_actor:
        # alg2 takes the actor gradient at the on-policy action mu_theta(s_t).
        a_grad = acts if algorithm == "alg1" else policy.act(s)
        g = _actor_direction(policy, features, w, s, a_grad)
        grad_norm = _actor_step(state, g, schedule.beta_actor(t))
    if algorithm == "alg2":
        # The next behavior action is drawn around the post-update policy.
        a_next = noise.perturb(policy.act(s_next), rng)

    c = process.sample_weights()
    state.critic = c @ w_tilde
    state.comm_scalars += features.dim * process.directed_edge_count(c) + features.jacobian_scalars

    state.last_actor_grad_norm = grad_norm
    state.t = t + 1
    state.s = s_next
    state.actions = a_next
    if state.t % _FINITE_CHECK_EVERY == 0:
        state.check_finite()
    return state


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
    return _step(state, mdp, features, process, schedule, exploration, update_actor, "alg1")


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
    return _step(state, mdp, features, process, schedule, behavior, update_actor, "alg2")


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
    name = config.topology
    makers = {
        "complete": complete_graph,
        "path": path_graph,
        "ring": ring_graph,
        "star": star_graph,
        "edgeless": edgeless_graph,
    }
    if name in makers:
        return makers[name](config.agents)
    _, _, path = name.partition(":")
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
) -> float:
    """One actor update from a finished batch; returns the gradient norm."""
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
    grad_norm = _actor_step(state, g / len(samples), schedule.beta_actor(batch_index))
    state.check_finite()
    return grad_norm


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
    schedule = Schedule(
        config.schedule,
        config.critic_step,
        config.actor_step,
        config.critic_pow,
        config.actor_pow,
    )
    exploration = GaussianNoise(config.sigma)
    state = init_train_state(
        mdp, policy, features, seed=seed, algorithm=config.algorithm, exploration=exploration
    )
    step_fn = alg1_step if config.algorithm == "alg1" else alg2_step
    run_id = f"{config.algorithm}-{config.kind}-m{config.action_dim}-s{seed}"
    eval_rng = substream(seed, "eval") if config.eval_rollout > 0 else None
    start = time.perf_counter()

    def eval_row(batch: int, grad_norm: float) -> MetricsRow:
        cost = evaluate_policy_cost(mdp, policy, config.eval_rollout, eval_rng)
        if config.algorithm == "alg1":
            mean_jhat = float(state.jhat.mean())
        else:
            # alg2 has no Jhat; report the agents' mean reward-model value at
            # the on-policy action in the current state.
            feats = features.eval(state.s, policy.act(state.s))
            mean_jhat = float((state.critic @ feats).mean())
        diffs = state.critic[:, None, :] - state.critic[None, :, :]
        dis = float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diffs, diffs))))
        return MetricsRow(
            run_id=run_id,
            seed=seed,
            t=state.t,
            batch=batch,
            eval_cost=cost,
            mean_jhat=mean_jhat,
            critic_disagreement=dis,
            actor_grad_norm=grad_norm,
            wallclock_ms=int((time.perf_counter() - start) * 1000),
        )

    rows = [eval_row(0, 0.0)]
    batch_size = config.effective_batch_size
    if config.update_mode == "batch":
        for b in range(1, config.batches + 1):
            if not config.critic_warm_start:
                state.critic[:] = 0.0
            samples = []
            for _ in range(batch_size):
                # Every step replaces state.actions with fresh arrays.
                samples.append((state.s, state.actions))
                step_fn(
                    state, mdp, features, process, schedule, exploration, update_actor=False
                )
            grad_norm = _batch_actor_update(state, features, schedule, samples, b - 1, config)
            rows.append(eval_row(b, grad_norm))
    else:
        for t in range(config.batches * batch_size):
            step_fn(state, mdp, features, process, schedule, exploration, update_actor=True)
            if (t + 1) % batch_size == 0:
                rows.append(eval_row((t + 1) // batch_size, state.last_actor_grad_norm))
    return rows
