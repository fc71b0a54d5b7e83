"""Networked multi-agent environments.

An environment couples N agents through a shared finite state and a joint
continuous action.  Each agent i picks a real vector a^i; the tuple
``a = (a^1, ..., a^N)`` drives the transition kernel and gives every agent a
private reward r^i(s, a).  The quantity the team optimizes is the globally
averaged reward ``Rbar(s, a) = mean_i r^i(s, a)``.

Two concrete environments are provided:

* :class:`ContinuousBandit` — a single dummy state; all agents share the
  quadratic reward ``-(sum_i a^i - target)^T C (sum_i a^i - target)``, so the
  optimum is any joint action whose components sum to ``target``.
* :class:`FiniteTestMdp` — a small fully-specified MDP with smooth
  action-dependent transitions and bounded smooth rewards, built to make
  every closed-form quantity (stationary distribution, average reward, exact
  policy gradient) computable by the oracle module.

The interface
-------------
The simulator (:mod:`netdac.dac`) and the oracles (:mod:`netdac.oracle`)
read an environment only through the abstract methods of
:class:`NetworkedMdp`, which every environment implements.  A joint action
is one flat float vector of length ``n_total = sum(action_dims)``: agent i
owns the static slice ``[sum(action_dims[:i]), sum(action_dims[:i+1]))``,
and agents may have different action dimensions.  A batch of T joint
actions is a ``(T, n_total)`` array of such rows.

* single joint action — ``local_rewards`` (all agents' rewards, used by
  training), ``mean_reward`` (Rbar) and ``transition_row`` (the
  distribution over next states);
* rows of (state, joint action) pairs — ``local_rewards_rows``, shape ``(T, N)``;
* batch of joint actions — ``mean_reward_batch`` (shape ``(T,)``) and
  ``transition_row_batch`` (shape ``(T, S)``), used by the quadrature and
  Monte-Carlo oracles;
* joint action gradients, flat ``(n_total,)`` — ``reward_grad_action`` (d Rbar /
  d a) and ``transition_grad_action`` (d (P(.|s, a) . values) / d a for a value
  vector over next states), used by the exact policy gradient.

The ``*_rows`` forms are exact: row k is the single-action call, bit for bit
(a stacked ``np.matmul`` makes each slice's dot or gemv; an einsum does not).
The ``*_batch`` forms agree to roundoff only, each in its own summation order;
training outputs depend on the single-action arithmetic (agent-order sums).
:meth:`NetworkedMdp.transition` samples by bisection on ``transition_row``'s CDF.
"""

import abc
import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "NetworkedMdp",
    "ContinuousBandit",
    "FiniteTestMdp",
    "bandit_reward",
    "bandit_reward_grad",
    "make_bandit",
    "make_finite_mdp",
]


class NetworkedMdp(abc.ABC):
    """Interface every environment implements, over joint actions only (see the module docstring).

    Attributes
    ----------
    state_count : int
        Number of states (>= 1).
    agent_count : int
        Number of agents N.
    action_dims : tuple of int
        Per-agent action dimensions (n_1, ..., n_N).
    """

    state_count: int
    agent_count: int
    action_dims: tuple

    @abc.abstractmethod
    def local_rewards(self, s: int, actions) -> np.ndarray:
        """All agents' rewards r^i(s, a), shape (N,)."""

    @abc.abstractmethod
    def mean_reward(self, s: int, actions) -> float:
        """Globally averaged reward Rbar(s, a) = mean_i r^i(s, a)."""

    @abc.abstractmethod
    def transition_row(self, s: int, actions) -> np.ndarray:
        """Distribution over next states, shape (state_count,)."""

    @abc.abstractmethod
    def mean_reward_batch(self, s: int, flat_actions: np.ndarray) -> np.ndarray:
        """Rbar over a (T, n_total) batch of flat joint actions, shape (T,)."""

    @abc.abstractmethod
    def transition_row_batch(self, s: int, flat_actions: np.ndarray) -> np.ndarray:
        """Transition rows over a (T, n_total) batch, shape (T, state_count)."""

    @abc.abstractmethod
    def reward_grad_action(self, s: int, actions) -> np.ndarray:
        """d Rbar(s, a) / d a over the joint action, flat (n_total,)."""

    @abc.abstractmethod
    def transition_grad_action(self, s: int, actions, values) -> np.ndarray:
        """d (P(.|s, a) . values) / d a for a (state_count,) vector, flat (n_total,)."""

    def local_rewards_rows(self, states, flat_actions) -> np.ndarray:
        """Row k is ``local_rewards(states[k], flat_actions[k])`` bit for bit; shape (T, N)."""
        return np.array([self.local_rewards(s, a) for s, a in zip(states, flat_actions)])

    def transition(self, s: int, actions, rng: np.random.Generator) -> int:
        """Draw s' ~ P(. | s, a) by inverse-CDF sampling on the transition row.

        A single-state environment draws nothing from ``rng``.
        """
        if self.state_count == 1:
            return 0
        cdf = list(itertools.accumulate(self.transition_row(s, actions).tolist()))
        u = rng.random() * cdf[-1]
        return min(bisect.bisect_right(cdf, u), self.state_count - 1)


# ---------------------------------------------------------------------------
# Continuous bandit
# ---------------------------------------------------------------------------


@dataclass
class ContinuousBandit(NetworkedMdp):
    """Single-state team problem with a shared quadratic reward.

    Every agent receives ``r^i(a) = -(sum_j a^j - target)^T cost (sum_j a^j - target)``.
    ``cost`` must be symmetric positive semi-definite for the reward to be a
    sensible (concave) objective; :func:`make_bandit` builds one with
    eigenvalues in {0.1, 1}.
    """

    agent_count: int
    action_dim: int
    cost: np.ndarray
    target: np.ndarray

    state_count: int = field(init=False, default=1)

    def __post_init__(self):
        self.cost = np.asarray(self.cost, dtype=float)
        self.target = np.asarray(self.target, dtype=float).ravel()
        m = self.action_dim
        if self.agent_count < 1 or m < 1:
            raise ValueError("need at least one agent and one action dimension")
        if self.cost.shape != (m, m):
            raise DimensionMismatch(f"cost matrix shape {self.cost.shape}, expected {(m, m)}")
        if self.target.shape != (m,):
            raise DimensionMismatch(f"target shape {self.target.shape}, expected ({m},)")
        if not np.all(np.isfinite(self.cost)) or not np.all(np.isfinite(self.target)):
            raise ValueError("cost/target contain non-finite entries")
        if np.max(np.abs(self.cost - self.cost.T)) > 1e-10:
            raise ValueError("cost matrix must be symmetric")

    @property
    def action_dims(self) -> tuple:
        return (self.action_dim,) * self.agent_count

    def action_sum(self, actions) -> np.ndarray:
        """sum_i a^i in agent order (``.sum`` adds pairwise); a list of the a^i works too."""
        a = np.asarray(actions, dtype=float)
        n, m = self.agent_count, self.action_dim
        if a.size != n * m:
            raise DimensionMismatch(f"joint action has {a.size} entries, expected {n * m}")
        return np.add.accumulate(a.reshape(n, m), axis=0)[-1]

    def local_rewards(self, s, actions) -> np.ndarray:
        return np.full(self.agent_count, bandit_reward(self, actions))

    def local_rewards_rows(self, states, flat_actions) -> np.ndarray:
        # Agent-order sums over the block are exact, and so are the two stacked
        # matmuls: each makes per row the BLAS call of dev @ cost @ dev.
        a = np.asarray(flat_actions, dtype=float).reshape(len(flat_actions), self.agent_count, -1)
        d = (np.add.accumulate(a, axis=1)[:, -1] - self.target)[:, None, :]
        r = -((d @ self.cost) @ d.transpose(0, 2, 1))
        return np.repeat(r[:, 0], self.agent_count, axis=1)

    def mean_reward(self, s, actions) -> float:
        return bandit_reward(self, actions)

    def mean_reward_batch(self, s, flat_actions: np.ndarray) -> np.ndarray:
        """Vectorized Rbar over a (T, N*m) batch of flat joint actions."""
        flat_actions = np.asarray(flat_actions, dtype=float)
        t, total = flat_actions.shape
        if total != self.agent_count * self.action_dim:
            raise DimensionMismatch("flat action batch has wrong width")
        sums = flat_actions.reshape(t, self.agent_count, self.action_dim).sum(axis=1)
        dev = sums - self.target
        return -np.einsum("tj,jk,tk->t", dev, self.cost, dev)

    def transition_row(self, s, actions) -> np.ndarray:
        return np.ones(1)

    def transition_row_batch(self, s, flat_actions: np.ndarray) -> np.ndarray:
        return np.ones((len(flat_actions), 1))

    def reward_grad_action(self, s, actions) -> np.ndarray:
        return np.tile(bandit_reward_grad(self, actions, 0), self.agent_count)

    def transition_grad_action(self, s, actions, values) -> np.ndarray:
        return np.zeros(self.agent_count * self.action_dim)


def bandit_reward(env: ContinuousBandit, actions) -> float:
    """Shared reward: negative quadratic distance of the action sum from target."""
    dev = env.action_sum(actions) - env.target
    return float(-(dev @ env.cost @ dev))


def bandit_reward_grad(env: ContinuousBandit, actions, i: int) -> np.ndarray:
    """d Rbar / d a^i = -2 C (sum_j a^j - target); identical for every agent."""
    if not 0 <= i < env.agent_count:
        raise IndexError(f"agent index {i} out of range")
    dev = env.action_sum(actions) - env.target
    return -2.0 * (env.cost @ dev)


def make_bandit(agents: int, action_dim: int, seed: int = 0) -> ContinuousBandit:
    """Standard bandit instance: C = Q^T diag(e) Q with e_i in {0.1, 1}.

    Q is the orthogonal factor of a seeded Gaussian matrix and the target is
    the all-fours vector, so the optimal cost is exactly zero at any joint
    action summing to the target.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((action_dim, action_dim))
    q, r = np.linalg.qr(g)
    # Fix the sign convention so the factor is unique given g.
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    eigs = rng.choice([0.1, 1.0], size=action_dim)
    cost = q.T @ np.diag(eigs) @ q
    cost = 0.5 * (cost + cost.T)
    target = np.full(action_dim, 4.0)
    return ContinuousBandit(agents, action_dim, cost, target)


# ---------------------------------------------------------------------------
# Finite test MDP
# ---------------------------------------------------------------------------


def _sigmoid(u: float) -> float:
    # Clamped against overflow with np.clip's bits.  Never math.exp: it differs
    # from np.exp in the last bit on about 2% of arguments.
    return 1.0 / (1.0 + np.exp(-min(max(u, -60.0), 60.0)))


@dataclass
class FiniteTestMdp(NetworkedMdp):
    """Small finite-state MDP with smooth action-dependent dynamics.

    Transitions blend two strictly positive row-stochastic tables through a
    logistic gate on the scalar action sum:

        P(s'|s, a) = (1 - g(u)) p0[s, s'] + g(u) p1[s, s'],   u = sum_i a^i,

    with g the logistic function, so the kernel is strictly positive (the
    chain is irreducible and aperiodic for every policy) and analytically
    differentiable in every action component.  Rewards are bounded and
    smooth:

        r^i(s, a) = base[i, s] + amp[i, s] * tanh(offset[i, s] + coef[i, :] . a).

    All agents have scalar actions.
    """

    p0: np.ndarray
    p1: np.ndarray
    base: np.ndarray
    amp: np.ndarray
    offset: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        self.base = np.asarray(self.base, dtype=float)
        self.amp = np.asarray(self.amp, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        self.coef = np.asarray(self.coef, dtype=float)
        s = self.p0.shape[0]
        n = self.base.shape[0]
        if self.p0.shape != (s, s) or self.p1.shape != (s, s):
            raise DimensionMismatch("transition tables must be square and same shape")
        for name, tbl in (("p0", self.p0), ("p1", self.p1)):
            if np.min(tbl) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if np.max(np.abs(tbl.sum(axis=1) - 1.0)) > 1e-10:
                raise ValueError(f"{name} rows must sum to 1")
        for name, arr in (
            ("base", self.base),
            ("amp", self.amp),
            ("offset", self.offset),
        ):
            if arr.shape != (n, s):
                raise DimensionMismatch(f"{name} must have shape ({n}, {s})")
        if self.coef.shape != (n, n):
            raise DimensionMismatch(f"coef must have shape ({n}, {n})")
        # Row i is column i of coef, contiguous: its mean is a 1-D reduction.
        self._coef_t = np.ascontiguousarray(self.coef.T)

    @property
    def state_count(self) -> int:
        return self.p0.shape[0]

    @property
    def agent_count(self) -> int:
        return self.base.shape[0]

    @property
    def action_dims(self) -> tuple:
        return (1,) * self.agent_count

    def _gate(self, actions) -> float:
        # Agent order: a flat ``.sum`` adds pairwise and moves the gate's last bits.
        return _sigmoid(float(np.add.accumulate(actions)[-1]))

    def transition_row(self, s, actions) -> np.ndarray:
        g = self._gate(actions)
        return (1.0 - g) * self.p0[s] + g * self.p1[s]

    def transition_row_batch(self, s, flat_actions: np.ndarray) -> np.ndarray:
        """Vectorized transition rows for a (T, N) batch of flat joint actions."""
        u = np.clip(np.asarray(flat_actions, dtype=float).sum(axis=1), -60.0, 60.0)
        g = 1.0 / (1.0 + np.exp(-u))
        return np.outer(1.0 - g, self.p0[s]) + np.outer(g, self.p1[s])

    def transition_grad_action(self, s, actions, values) -> np.ndarray:
        """Every agent's action enters through the gate's sum: one dot, shape (N,)."""
        g = self._gate(actions)
        return np.full(self.agent_count, (g * (1.0 - g) * (self.p1[s] - self.p0[s])) @ values)

    def local_rewards(self, s, actions) -> np.ndarray:
        z = self.offset[:, s] + self.coef @ actions
        return self.base[:, s] + self.amp[:, s] * np.tanh(z)

    def mean_reward(self, s, actions) -> float:
        return float(self.local_rewards(s, actions).mean())

    def mean_reward_batch(self, s, flat_actions: np.ndarray) -> np.ndarray:
        """Vectorized Rbar over a (T, N) batch of flat joint actions."""
        z = self.offset[:, s][None, :] + np.asarray(flat_actions, dtype=float) @ self.coef.T
        vals = self.base[:, s][None, :] + self.amp[:, s][None, :] * np.tanh(z)
        return vals.mean(axis=1)

    def reward_grad_action(self, s, actions) -> np.ndarray:
        """d Rbar / d a^i = mean_j amp[j, s] sech^2(z_j) coef[j, i], shape (N,)."""
        z = self.offset[:, s] + self.coef @ actions
        return np.mean(self.amp[:, s] * (1.0 - np.tanh(z) ** 2) * self._coef_t, axis=1)


def make_finite_mdp(states: int, agents: int, seed: int = 0) -> FiniteTestMdp:
    """Random, strictly positive instance with bounded smooth rewards."""
    if states < 2 or agents < 1:
        raise ValueError("need at least 2 states and 1 agent")
    rng = np.random.default_rng(seed)

    def _table():
        raw = rng.uniform(0.05, 1.0, size=(states, states))
        return raw / raw.sum(axis=1, keepdims=True)

    return FiniteTestMdp(
        p0=_table(),
        p1=_table(),
        base=rng.uniform(-1.0, 1.0, size=(agents, states)),
        amp=rng.uniform(0.5, 1.5, size=(agents, states)),
        offset=rng.uniform(-1.0, 1.0, size=(agents, states)),
        coef=rng.uniform(-1.0, 1.0, size=(agents, agents)),
    )
