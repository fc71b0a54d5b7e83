"""Deterministic per-agent policies and Gaussian exploration around them.

Each agent i owns a parameter vector theta^i and a differentiable map
``mu^i(s; theta^i)`` from the shared state to its own action.  Two forms are
provided:

* ``constant`` — the action IS the parameter: mu^i(s) = theta^i (state
  ignored; the natural choice for single-state problems).
* ``affine`` — a separate action per state plus a shared intercept:
  mu^i(s) = W^i[:, s] + b^i with theta^i = (vec(W^i), b^i).

Both are linear in theta, so the parameter-Jacobian d mu^i / d theta^i is
exact and state-dependent but action-independent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import project_box

__all__ = ["PolicySet", "GaussianNoise", "constant_policy", "affine_policy"]


@dataclass
class PolicySet:
    """Collection of per-agent deterministic policies with box-bounded parameters.

    Parameters
    ----------
    form : {"constant", "affine"}
        Functional form shared by all agents.
    action_dims : tuple of int
        Per-agent action dimensions.
    n_states : int
        Number of states the policies condition on (ignored by "constant").
    theta : list of 1-D arrays
        Per-agent parameter vectors.
    lo, hi : float
        Box bounds applied by :meth:`project`.
    """

    form: str
    action_dims: tuple
    n_states: int
    theta: list
    lo: float = -1e3
    hi: float = 1e3
    # Jacobians depend only on (form, dims, state), never on theta, so they
    # are memoized; cached arrays are read-only.
    _jac_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.form not in ("constant", "affine"):
            raise ValueError(f"unknown policy form {self.form!r}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.action_dims = tuple(int(d) for d in self.action_dims)
        self.theta = [np.asarray(t, dtype=float).ravel().copy() for t in self.theta]
        if len(self.theta) != len(self.action_dims):
            raise DimensionMismatch("one parameter vector per agent required")
        for i, t in enumerate(self.theta):
            want = self.param_dim(i)
            if t.shape != (want,):
                raise DimensionMismatch(
                    f"agent {i} parameters have shape {t.shape}, expected ({want},)"
                )
        if self.lo > self.hi:
            raise ValueError("projection box is empty")

    # -- dimensions ---------------------------------------------------------

    @property
    def agent_count(self) -> int:
        return len(self.action_dims)

    def param_dim(self, i: int) -> int:
        n = self.action_dims[i]
        return n if self.form == "constant" else n * self.n_states + n

    @property
    def param_dims(self) -> tuple:
        return tuple(self.param_dim(i) for i in range(self.agent_count))

    @property
    def total_param_dim(self) -> int:
        return sum(self.param_dims)

    # -- evaluation ---------------------------------------------------------

    def act_agent(self, i: int, s: int) -> np.ndarray:
        """mu^i(s), shape (n_i,)."""
        t = self.theta[i]
        n = self.action_dims[i]
        if self.form == "constant":
            return t.copy()
        w = t[: n * self.n_states].reshape(n, self.n_states)
        b = t[n * self.n_states :]
        return w[:, s] + b

    def act(self, s: int) -> np.ndarray:
        """Joint action mu(s) = (mu^1(s), ..., mu^N(s)), one flat vector."""
        if self.form == "constant":
            # The general path's bytes without a call and copy per agent.
            return np.concatenate(self.theta)
        return np.concatenate([self.act_agent(i, s) for i in range(self.agent_count)])

    def jac(self, i: int, s: int) -> np.ndarray:
        """d mu^i(s) / d theta^i, shape (param_dim(i), n_i), read-only."""
        key = (i, s if self.form == "affine" else 0)
        cached = self._jac_cache.get(key)
        if cached is not None:
            return cached
        n = self.action_dims[i]
        m = self.param_dim(i)
        j = np.zeros((m, n))
        if self.form == "constant":
            j[np.arange(n), np.arange(n)] = 1.0
        else:
            for p in range(n):
                j[p * self.n_states + s, p] = 1.0  # state-s column of W^i
                j[n * self.n_states + p, p] = 1.0  # intercept
        j.flags.writeable = False
        self._jac_cache[key] = j
        return j

    def jac_apply(self, s: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write J(s) @ x over the last axis of ``x`` into ``out``, J(s) = d mu(s) / d theta.

        J(s) is block diagonal with 0/1 entries and at most one 1 per parameter
        row, so it is applied as the gather ``out[..., rows] = x[..., cols]``
        over its cached unit entries; ``out`` must be zero in the parameter
        coordinates.
        """
        key = ("index", s if self.form == "affine" else 0)
        index = self._jac_cache.get(key)
        if index is None:
            rows, cols = [], []
            p0 = a0 = 0
            for i in range(self.agent_count):
                r, c = np.nonzero(self.jac(i, s))
                rows.append(r + p0)
                cols.append(c + a0)
                p0 += self.param_dim(i)
                a0 += self.action_dims[i]
            index = (np.concatenate(rows), np.concatenate(cols))
            for a in index:
                a.flags.writeable = False
            self._jac_cache[key] = index
        rows, cols = index
        out[..., rows] = x[..., cols]
        return out

    # -- parameter access ---------------------------------------------------

    def theta_flat(self) -> np.ndarray:
        return np.concatenate(self.theta)

    def set_theta_flat(self, flat) -> None:
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != self.total_param_dim:
            raise DimensionMismatch(
                f"flat parameters have {flat.size} entries, expected {self.total_param_dim}"
            )
        k = 0
        for i in range(self.agent_count):
            m = self.param_dim(i)
            self.theta[i] = flat[k : k + m].copy()
            k += m

    def project(self) -> None:
        """Clamp every agent's parameters into [lo, hi] in place."""
        for i in range(self.agent_count):
            self.theta[i] = project_box(self.theta[i], self.lo, self.hi)

    def copy(self) -> "PolicySet":
        return PolicySet(
            form=self.form,
            action_dims=self.action_dims,
            n_states=self.n_states,
            theta=[t.copy() for t in self.theta],
            lo=self.lo,
            hi=self.hi,
        )


def constant_policy(action_dims, theta0=None, lo: float = -1e3, hi: float = 1e3) -> PolicySet:
    """State-independent policies mu^i = theta^i (zeros by default)."""
    action_dims = tuple(int(d) for d in action_dims)
    if theta0 is None:
        theta0 = [np.zeros(d) for d in action_dims]
    return PolicySet("constant", action_dims, 1, theta0, lo, hi)


def affine_policy(
    n_states: int, action_dims, theta0=None, lo: float = -1e3, hi: float = 1e3
) -> PolicySet:
    """Per-state action tables with intercepts, all parameters zero by default."""
    action_dims = tuple(int(d) for d in action_dims)
    if theta0 is None:
        theta0 = [np.zeros(d * n_states + d) for d in action_dims]
    return PolicySet("affine", action_dims, n_states, theta0, lo, hi)


@dataclass(frozen=True)
class GaussianNoise:
    """Isotropic Gaussian exploration of scale sigma around a joint action."""

    sigma: float = 0.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def perturb(self, actions, rng: np.random.Generator) -> np.ndarray:
        """A new joint action a + N(0, sigma^2 I); sigma = 0 copies and draws nothing."""
        a = np.asarray(actions, dtype=float)
        if self.sigma == 0.0:
            return a.copy()
        return a + self.sigma * rng.standard_normal(a.size)

    def sample(self, policy: PolicySet, s: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a joint action from N(mu_theta(s), sigma^2 I)."""
        return self.perturb(policy.act(s), rng)
