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

A :class:`PolicySet` stores theta^1, ..., theta^N as one flat vector
``params``; ``theta[i]`` is a view of agent i's block.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

__all__ = ["PolicySet", "GaussianNoise", "check_box", "constant_policy", "affine_policy"]


def check_box(lo: float, hi: float) -> None:
    """Raise ValueError unless lo <= hi, lo < inf and hi > -inf: one side may be unbounded."""
    if not (lo <= hi and lo < np.inf and hi > -np.inf):
        raise ValueError(f"projection box [{lo}, {hi}] needs lo <= hi, lo < inf and hi > -inf")


@dataclass
class PolicySet:
    """Per-agent deterministic policies over one flat, box-bounded parameter vector.

    Writing into a view (``theta[i][:] = x``) moves the policy; ``theta`` is
    a tuple, so rebinding an entry raises.  Each action coordinate reads one
    parameter (two in the affine form) at a static index, so ``act`` is one
    gather, ``jac_apply`` one scatter and ``jac_gather``, its transpose, one
    gather.

    Parameters
    ----------
    form : {"constant", "affine"}
        Functional form shared by all agents.
    action_dims : tuple of int
        Per-agent action dimensions.
    n_states : int
        Number of states the policies condition on (ignored by "constant").
    theta : sequence of 1-D arrays
        Per-agent initial parameter vectors (copied into ``params``).
    lo, hi : float
        Box bounds the actor projects ``params`` into.
    """

    form: str
    action_dims: tuple
    n_states: int
    theta: tuple
    lo: float = -1e3
    hi: float = 1e3
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form not in ("constant", "affine"):
            raise ValueError(f"unknown policy form {self.form!r}")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.action_dims = tuple(int(d) for d in self.action_dims)
        theta = [np.asarray(t, dtype=float).ravel() for t in self.theta]
        if len(theta) != len(self.action_dims):
            raise DimensionMismatch("one parameter vector per agent required")
        for i, t in enumerate(theta):
            want = self.param_dim(i)
            if t.shape != (want,):
                raise DimensionMismatch(
                    f"agent {i} parameters have shape {t.shape}, expected ({want},)"
                )
        check_box(self.lo, self.hi)
        self.params = np.concatenate(theta)
        p0 = np.cumsum((0,) + self.param_dims)
        a0 = np.cumsum((0,) + self.action_dims)
        #: Agent i's block of ``params`` (static slices, in agent order).
        self.param_blocks = tuple(map(slice, p0[:-1], p0[1:]))
        self.theta = tuple(self.params[b] for b in self.param_blocks)
        self._agent_actions = tuple(map(slice, a0[:-1], a0[1:]))
        # Action coordinate k, agent i's coordinate p, reads theta^i_p, or
        # W^i[p, s] at _w0[k] + s and b^i_p at _b[k] in the affine form.
        agent = self._agent = np.repeat(np.arange(len(theta)), self.action_dims)
        p = np.arange(a0[-1]) - a0[agent]
        if self.form == "constant":
            self._w0, self._b = p0[agent] + p, None
        else:
            n = a0[agent + 1] - a0[agent]
            self._w0 = p0[agent] + p * self.n_states
            self._b = p0[agent] + n * self.n_states + p

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
        return self.params.size

    # -- evaluation ---------------------------------------------------------

    def _state(self, s):
        """The state offset into the index table: s (range-checked) or 0 for "constant".

        A list of states gives a column, one offset per row.
        """
        if self.form == "constant":
            return 0
        if isinstance(s, list):
            if min(s) < 0 or max(s) >= self.n_states:
                raise IndexError(f"a state in {s} is out of range for {self.n_states} states")
            return np.array(s)[:, None]
        if not 0 <= s < self.n_states:
            raise IndexError(f"state {s} out of range for a policy over {self.n_states} states")
        return s

    def act(self, s) -> np.ndarray:
        """Joint action mu(s) = (mu^1(s), ..., mu^N(s)), one fresh flat vector.

        A list of T states gives the (T, n_total) rows act(s_k), bit for bit.
        """
        a = self.params[self._w0 + self._state(s)]
        if self._b is not None:
            a += self.params[self._b]
        return a

    def act_agent(self, i: int, s: int) -> np.ndarray:
        """mu^i(s), shape (n_i,)."""
        return self.act(s)[self._agent_actions[i]]

    def jac(self, i: int, s: int) -> np.ndarray:
        """d mu^i(s) / d theta^i, shape (param_dim(i), n_i), dense: the reference for checks."""
        s = self._state(s)
        n = self.action_dims[i]
        m = self.param_dim(i)
        j = np.zeros((m, n))
        if self.form == "constant":
            j[np.arange(n), np.arange(n)] = 1.0
        else:
            for p in range(n):
                j[p * self.n_states + s, p] = 1.0  # state-s column of W^i
                j[n * self.n_states + p, p] = 1.0  # intercept
        return j

    def jac_apply(self, s, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write J(s) @ x over the last axis of ``x`` into ``out``, J(s) = d mu(s) / d params.

        J(s) has one 1 per action coordinate (two in the affine form, at W and
        b) and zeros elsewhere, so it is applied as a scatter through the
        index table; ``out`` must be zero in the parameter coordinates.  For a
        list of states, row k of ``out`` gets J(s_k) @ x[k].
        """
        s = self._state(s)
        rows = np.arange(len(out))[:, None] if isinstance(s, np.ndarray) else ...
        out[rows, self._w0 + s] = x
        if self._b is not None:
            out[..., self._b] = x
        return out

    def jac_gather(self, s: int, critic: np.ndarray) -> np.ndarray:
        """[J^i(s).T @ critic[i, block i]]_i, agent i's block under its own row; flat (n_total,).

        The transpose of ``jac_apply``, so a gather through the same index
        table; ``critic`` has one row per agent, its first ``total_param_dim``
        columns laid out like ``params``.
        """
        g = critic[self._agent, self._w0 + self._state(s)]
        if self._b is not None:
            g += critic[self._agent, self._b]
        return g

    # -- parameter access ---------------------------------------------------

    def theta_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_theta_flat(self, flat) -> None:
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != self.total_param_dim:
            raise DimensionMismatch(
                f"flat parameters have {flat.size} entries, expected {self.total_param_dim}"
            )
        self.params[:] = flat

    def copy(self) -> "PolicySet":
        return PolicySet(
            form=self.form,
            action_dims=self.action_dims,
            n_states=self.n_states,
            theta=self.theta,
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
    """Isotropic Gaussian exploration of finite scale sigma >= 0 around a joint action."""

    sigma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and non-negative")

    def perturb(self, actions, rng: np.random.Generator) -> np.ndarray:
        """A new joint action a + N(0, sigma^2 I); sigma = 0 copies and draws nothing."""
        a = np.asarray(actions, dtype=float)
        if self.sigma == 0.0:
            return a.copy()
        return a + self.sigma * rng.standard_normal(a.size)

    def draw(self, rows: int, n: int, rng: np.random.Generator):
        """``rows`` perturbations' noise as one (rows, n) block, same bits; None if sigma = 0."""
        return None if self.sigma == 0.0 else self.sigma * rng.standard_normal((rows, n))
