"""Feature maps for linear critics.

A critic is linear in its weights, ``f(s, a) = phi(s, a) . w``; its value is
``features.eval(s, a) @ w``.  Feature maps expose the features on one joint
action (a flat vector, agent i at a static offset; see :mod:`netdac.env`), on
rows of (state, joint action) pairs (a training segment; each row is
``eval``'s bits), on a ``(T, n_total)`` batch of joint actions in one state
(for the oracles; roundoff-equal only), and the joint
critic action-gradient the actor update needs: for per-agent weights
``critic`` (one row per agent), ``features.grad_action(s, a, critic)`` is the
flat vector whose agent-i block is ``d (phi(s, a) . critic[i]) / d a^i``,
each agent differentiating its own critic in its own action.

Feature families
----------------
* :class:`CompatibleQFeatures` — ``phi(s, a)`` stacks, per agent, the
  parameter-Jacobian of that agent's policy applied to its action (optionally
  action minus the policy's own action, and an optional constant feature).
  With these features the action-gradient of the fitted critic equals the
  policy Jacobian applied to the corresponding weight block, which is what
  makes a linear critic's gradient an unbiased stand-in in the actor update.
* :class:`CompatibleRFeatures` — the same construction always centered at the
  policy action; used by the average-reward critic of the off-policy
  algorithm.
* :class:`FourierFeatures` — random cosine features of (one-hot state,
  action), bounded and smooth; a generic nonlinear-in-(s, a) basis.
* :class:`TabularFeatures` — one-hot state indicators (action-independent).
"""

import abc

import numpy as np

from .errors import DimensionMismatch
from .policy import PolicySet

__all__ = [
    "FeatureMap",
    "CompatibleQFeatures",
    "CompatibleRFeatures",
    "FourierFeatures",
    "TabularFeatures",
]


class FeatureMap(abc.ABC):
    """Feature vector phi(s, a) with the joint per-agent critic action-gradient."""

    dim: int
    #: Scalars the agents send over the network each step to compute the
    #: features: their local policy Jacobians, or none.
    jacobian_scalars: int = 0
    #: True when d phi / d a^i depends only on the state, never on the joint
    #: action (lets batched actor updates share one gradient per state).
    action_independent_grad: bool = False

    @abc.abstractmethod
    def eval(self, s: int, actions) -> np.ndarray:
        """phi(s, a), shape (dim,)."""

    @abc.abstractmethod
    def grad_action(self, s: int, actions, critic: np.ndarray) -> np.ndarray:
        """[d (phi(s, a) . critic[i]) / d a^i]_i for an (N, dim) ``critic``; flat (n_total,)."""

    @abc.abstractmethod
    def eval_batch(self, s: int, flat_actions: np.ndarray) -> np.ndarray:
        """phi over a (T, n_total) batch of flat joint actions, shape (T, dim)."""

    def eval_rows(self, states, flat_actions) -> np.ndarray:
        """Row k is ``eval(states[k], flat_actions[k])`` bit for bit; (T, dim), C-contiguous."""
        return np.array([self.eval(s, a) for s, a in zip(states, flat_actions)])


class _PolicyJacobianFeatures(FeatureMap):
    """Per-agent blocks jac(i, s) @ (a^i - center_i(s)), optionally plus a bias."""

    action_independent_grad = True  # phi is linear in the joint action

    def __init__(self, policy: PolicySet, centered: bool, bias: bool):
        self.policy = policy
        self.centered = centered
        self.bias = bias
        self._n_total = sum(policy.action_dims)
        self.dim = policy.total_param_dim + (1 if bias else 0)
        self.jacobian_scalars = sum(
            p * n for p, n in zip(policy.param_dims, policy.action_dims)
        )

    def _fill(self, s, actions, out) -> np.ndarray:
        """Write the block-diagonal policy Jacobian times a (last axis) into ``out``."""
        if self.centered:
            actions = actions - self.policy.act(s)
        self.policy.jac_apply(s, actions, out)
        if self.bias:
            out[..., -1] = 1.0
        return out

    def eval(self, s, actions) -> np.ndarray:
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self._n_total,):
            raise DimensionMismatch(
                f"joint action has shape {actions.shape}, expected ({self._n_total},)"
            )
        return self._fill(s, actions, np.zeros(self.dim))

    def eval_rows(self, states, flat_actions) -> np.ndarray:
        # One scatter through the policy's index table, with per-row states.
        flat_actions = np.asarray(flat_actions, dtype=float)
        return self._fill(list(states), flat_actions, np.zeros((len(flat_actions), self.dim)))

    def grad_action(self, s, actions, critic) -> np.ndarray:
        # d phi / d a^i is jac(i, s).T in agent i's block and zero elsewhere.
        return self.policy.jac_gather(s, critic)

    def eval_batch(self, s, flat_actions) -> np.ndarray:
        flat_actions = np.asarray(flat_actions, dtype=float)
        if flat_actions.ndim != 2 or flat_actions.shape[1] != self._n_total:
            raise DimensionMismatch("flat action batch has wrong width")
        # Column-major: a row-major copy with equal values makes the oracles'
        # BLAS products over it sum in another order, moving their last bits.
        out = np.zeros((len(flat_actions), self.dim), order="F")
        return self._fill(s, flat_actions, out)


class CompatibleQFeatures(_PolicyJacobianFeatures):
    """Action-value features phi(s, a) = stack_i jac(i, s) @ a^i (+ bias).

    ``centered=True`` replaces a^i by a^i - mu^i(s), which changes only the
    value offset, not the action gradients.
    """

    def __init__(self, policy: PolicySet, centered: bool = False, bias: bool = False):
        super().__init__(policy, centered=centered, bias=bias)


class CompatibleRFeatures(_PolicyJacobianFeatures):
    """Reward features w(s, a) = stack_i jac(i, s) @ (a^i - mu^i(s)) (+ bias)."""

    def __init__(self, policy: PolicySet, bias: bool = False):
        super().__init__(policy, centered=True, bias=bias)


class FourierFeatures(FeatureMap):
    """Random cosine features of the one-hot state and the flat joint action.

    phi_k(s, a) = cos(w_k . [onehot(s); a] + b_k) with standard normal w_k and
    uniform b_k in [0, 2 pi), so every feature lies in [-1, 1].
    """

    def __init__(self, n_states: int, action_dims, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.n_states = int(n_states)
        self.action_dims = tuple(int(d) for d in action_dims)
        self.dim = int(dim)
        self._n_total = sum(self.action_dims)
        rng = np.random.default_rng(seed)
        self._w = rng.standard_normal((self.dim, self.n_states + self._n_total))
        self._b = rng.uniform(0.0, 2.0 * np.pi, size=self.dim)
        # Per action dimension n: its agents, their flat positions, (K, n) slabs.
        self._slab_groups = []
        for n in dict.fromkeys(self.action_dims):
            agents = [i for i, d in enumerate(self.action_dims) if d == n]
            flat = np.flatnonzero(np.repeat(self.action_dims, self.action_dims) == n)
            slabs = self._w[:, self.n_states + flat].reshape(self.dim, len(agents), n)
            if len(agents) == len(self.action_dims):  # one group: index by views
                flat = agents = slice(None)
            self._slab_groups.append((flat, agents, slabs.transpose(1, 0, 2).copy()))

    def _input(self, s, actions) -> np.ndarray:
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range")
        actions = np.asarray(actions, dtype=float)
        if actions.shape != (self._n_total,):
            raise DimensionMismatch("joint action has wrong total dimension")
        x = np.zeros(self.n_states + actions.size)
        x[s] = 1.0
        x[self.n_states :] = actions
        return x

    def eval(self, s, actions) -> np.ndarray:
        return np.cos(self._w @ self._input(s, actions) + self._b)

    def grad_action(self, s, actions, critic) -> np.ndarray:
        # d cos(w.x + b)/d a^i_j = -sin(w.x + b) * w[:, col j].  The stacked
        # product makes the dot/gemv call of -(W[:, cols_i] * sin).T @ critic[i]
        # per agent; (n, K) slabs, or mixed dimensions zero-padded to one
        # stack, sum in another order and move the last bits.
        neg_sin = -np.sin(self._w @ self._input(s, actions) + self._b)
        out = np.empty(self._n_total)
        for flat, agents, slabs in self._slab_groups:
            scaled = (slabs * neg_sin[:, None]).transpose(0, 2, 1)
            out[flat] = np.matmul(scaled, critic[agents, :, None]).ravel()
        return out

    def eval_batch(self, s, flat_actions) -> np.ndarray:
        flat_actions = np.asarray(flat_actions, dtype=float)
        if flat_actions.ndim != 2 or flat_actions.shape[1] != self._n_total:
            raise DimensionMismatch("flat action batch has wrong width")
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range")
        z = flat_actions @ self._w[:, self.n_states :].T + self._w[:, s] + self._b
        return np.cos(z)


class TabularFeatures(FeatureMap):
    """One-hot state indicators; constant in the action."""

    action_independent_grad = True

    def __init__(self, n_states: int, action_dims):
        if n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.n_states = int(n_states)
        self.action_dims = tuple(int(d) for d in action_dims)
        self.dim = self.n_states

    def eval(self, s, actions) -> np.ndarray:
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range")
        out = np.zeros(self.dim)
        out[s] = 1.0
        return out

    def grad_action(self, s, actions, critic) -> np.ndarray:
        return np.zeros(sum(self.action_dims))

    def eval_batch(self, s, flat_actions) -> np.ndarray:
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range")
        flat_actions = np.asarray(flat_actions, dtype=float)
        out = np.zeros((flat_actions.shape[0], self.dim))
        out[:, s] = 1.0
        return out
