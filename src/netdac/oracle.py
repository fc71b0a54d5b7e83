"""Exact small-instance solvers the simulator is checked against.

Everything here reads an environment only through the
:class:`~netdac.env.NetworkedMdp` interface the simulator steps (exact
transition rows, rewards, their batch forms and action gradients), and
computes closed-form answers by direct linear algebra rather than by
simulation:

* :func:`exact_eval` — stationary distribution, long-run average reward, and
  differential (bias) values of a deterministic policy, via one dense solve
  of the average-reward evaluation equations.
* :func:`exact_gain` — the long-run average reward alone, without the bias
  solve: the cost every training row reports is its negation.
* :func:`exact_policy_gradient` — the deterministic policy gradient
  assembled from the environment's exact joint action-gradients of the
  average reward and of the kernel contracted with the differential values.
* :func:`mspbe_fixed_point` — the weight vector a linear on-policy TD critic
  converges to: the zero of the projected fixed-point equations, which is
  also the minimizer of the mean-squared projected residual (``mspbe_of``).
* :func:`offpolicy_fixed_point` — the weight vector the decentralized
  averaged-reward critic converges to under a Gaussian behavior policy,
  computed with Gauss-Hermite quadrature over actions (Monte Carlo fallback
  for high-dimensional joint actions).  Each tensor grid is built once per
  (dimension, order) and shared read-only; Monte-Carlo draws are never kept.
* :func:`stochastic_pg_estimate` — a score-function estimator of the policy
  gradient under the Gaussian-smoothed policy, with exact (quadrature-based)
  advantages, used to check that stochastic policy gradients approach the
  deterministic one as the smoothing scale shrinks.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .approx import FeatureMap
from .env import NetworkedMdp
from .errors import NearSingularB, RankDeficientFeatures
from .linalg import solve_linear, stationary_distribution
from .policy import GaussianNoise, PolicySet

__all__ = [
    "ExactEval",
    "exact_eval",
    "exact_gain",
    "exact_policy_gradient",
    "MspbeFixedPoint",
    "mspbe_fixed_point",
    "mspbe_of",
    "QuadratureConfig",
    "OffPolicyFixedPoint",
    "offpolicy_fixed_point",
    "StochasticGradient",
    "stochastic_pg_estimate",
]


# ---------------------------------------------------------------------------
# Exact policy evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactEval:
    """Closed-form evaluation of a deterministic policy.

    Attributes
    ----------
    kernel : (S, S) array
        Policy-induced transition matrix P(s' | s, mu(s)).
    stationary : (S,) array
        Its stationary distribution d.
    reward : (S,) array
        Averaged reward along the policy, Rbar(s, mu(s)).
    gain : float
        Long-run average reward J = d . reward.
    bias : (S,) array
        Differential values V with d . V = 0, satisfying
        V(s) = reward(s) - gain + sum_s' kernel[s, s'] V(s').
    """

    kernel: np.ndarray
    stationary: np.ndarray
    reward: np.ndarray
    gain: float
    bias: np.ndarray


def _poisson_solve(kernel: np.ndarray, reward: np.ndarray):
    """Solve the average-reward evaluation equations for (d, J, V)."""
    d = stationary_distribution(kernel)
    j = float(d @ reward)
    n = kernel.shape[0]
    # (I - P + 1 d^T) V = reward - J 1 has a unique solution with d.V = 0.
    a = np.eye(n) - kernel + np.outer(np.ones(n), d)
    v = solve_linear(a, reward - j)
    return d, j, v


def _policy_chain(mdp: NetworkedMdp, policy: PolicySet):
    """The chain mu induces: kernel P(s' | s, mu(s)) and reward Rbar(s, mu(s))."""
    acts = [policy.act(s) for s in range(mdp.state_count)]
    kernel = np.stack([mdp.transition_row(s, a) for s, a in enumerate(acts)])
    reward = np.array([mdp.mean_reward(s, a) for s, a in enumerate(acts)])
    return kernel, reward


def exact_eval(mdp: NetworkedMdp, policy: PolicySet) -> ExactEval:
    """Evaluate the deterministic policy mu exactly."""
    kernel, reward = _policy_chain(mdp, policy)
    d, j, v = _poisson_solve(kernel, reward)
    return ExactEval(kernel=kernel, stationary=d, reward=reward, gain=j, bias=v)


def exact_gain(mdp: NetworkedMdp, policy: PolicySet) -> float:
    """Long-run average reward J = d . Rbar of mu: ``exact_eval``'s gain, no bias solve."""
    if mdp.state_count == 1:  # d is (1,): the same float, no chain and no solve
        return float(mdp.mean_reward(0, policy.act(0)))
    kernel, reward = _policy_chain(mdp, policy)
    return float(stationary_distribution(kernel) @ reward)


# ---------------------------------------------------------------------------
# Exact deterministic policy gradient
# ---------------------------------------------------------------------------


def exact_q_grad_action(mdp: NetworkedMdp, policy: PolicySet, ev: ExactEval, s: int) -> np.ndarray:
    """d Q(s, a) / d a at a = mu(s), flat (n_total,).

    Differentiates the evaluation identity Q(s, a) = Rbar(s, a) - J +
    sum_s' P(s'|s, a) V(s'); only the reward and kernel depend on the action.
    """
    acts = policy.act(s)
    return mdp.reward_grad_action(s, acts) + mdp.transition_grad_action(s, acts, ev.bias)


def exact_policy_gradient(mdp: NetworkedMdp, policy: PolicySet) -> np.ndarray:
    """Gradient of the long-run average reward in all agents' parameters.

    Returns sum_s d(s) * dmu/dparams (s) @ dQ(s, .)/da |_{a = mu(s)}, the
    agents' blocks in the order of ``policy.params``.
    """
    ev = exact_eval(mdp, policy)
    grad = np.zeros(policy.total_param_dim)
    for s in range(mdp.state_count):
        q = exact_q_grad_action(mdp, policy, ev, s)
        grad += ev.stationary[s] * policy.jac_apply(s, q, np.zeros(policy.total_param_dim))
    return grad


# ---------------------------------------------------------------------------
# On-policy linear-critic fixed point (projected evaluation equations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MspbeFixedPoint:
    """Solution of the projected average-reward evaluation equations.

    ``omega`` solves ``a_matrix @ omega = b_vec`` where
    a_matrix = Phi^T D (I - P) Phi and b_vec = Phi^T D (reward - J 1),
    with Phi the on-policy feature matrix and D = diag(d).  ``mspbe`` is the
    mean-squared projected residual at omega (zero up to roundoff).
    """

    omega: np.ndarray
    mspbe: float
    a_matrix: np.ndarray
    b_vec: np.ndarray
    phi: np.ndarray


def _onpolicy_feature_matrix(
    mdp: NetworkedMdp, policy: PolicySet, features: FeatureMap
) -> np.ndarray:
    return np.stack(
        [features.eval(s, policy.act(s)) for s in range(mdp.state_count)]
    )


def _check_feature_matrix(phi: np.ndarray) -> None:
    n_s, k = phi.shape
    if k > n_s:
        raise RankDeficientFeatures(
            f"{k} features over {n_s} on-policy states cannot be linearly independent"
        )
    sv = np.linalg.svd(phi, compute_uv=False)
    if sv.size < k or sv[-1] <= 1e-8 * max(1.0, sv[0]):
        raise RankDeficientFeatures("on-policy feature matrix is column rank deficient")
    ones = np.ones(n_s)
    coef, *_ = np.linalg.lstsq(phi, ones, rcond=None)
    if np.max(np.abs(phi @ coef - ones)) < 1e-8:
        raise RankDeficientFeatures(
            "features can represent the constant function; the average-reward "
            "evaluation equations then have no unique projected solution"
        )


def mspbe_of(
    mdp: NetworkedMdp, policy: PolicySet, features: FeatureMap, omega
) -> float:
    """Mean-squared projected residual of the evaluation equations at omega.

    The residual of omega is T(Phi omega) - Phi omega with
    T(q) = reward - J 1 + P q; the returned value is the squared D-norm of
    its projection onto the feature span.
    """
    ev = exact_eval(mdp, policy)
    phi = _onpolicy_feature_matrix(mdp, policy, features)
    return _mspbe(ev, phi, np.asarray(omega, dtype=float).ravel())


def _mspbe(ev: ExactEval, phi: np.ndarray, omega: np.ndarray) -> float:
    """``mspbe_of`` on an evaluated chain and its on-policy feature matrix."""
    d = ev.stationary
    target = ev.reward - ev.gain + ev.kernel @ (phi @ omega)
    resid = target - phi @ omega
    # Project the residual onto span(Phi) in the D-weighted inner product.
    gram = phi.T @ (d[:, None] * phi)
    coef = solve_linear(gram, phi.T @ (d * resid))
    proj = phi @ coef
    return float(proj @ (d * proj))


def mspbe_fixed_point(
    mdp: NetworkedMdp, policy: PolicySet, features: FeatureMap
) -> MspbeFixedPoint:
    """Weights solving the projected average-reward evaluation equations.

    Raises
    ------
    RankDeficientFeatures
        If the on-policy feature matrix is not full column rank, or the
        features can represent the constant function (either breaks
        uniqueness of the projected solution).
    """
    ev = exact_eval(mdp, policy)
    phi = _onpolicy_feature_matrix(mdp, policy, features)
    _check_feature_matrix(phi)
    d = ev.stationary
    dphi = d[:, None] * phi
    # A = Phi^T D (I - P) Phi,  b = Phi^T D (reward - J 1).
    a_matrix = dphi.T @ (phi - ev.kernel @ phi)
    b_vec = dphi.T @ (ev.reward - ev.gain)
    omega = solve_linear(a_matrix, b_vec)
    value = _mspbe(ev, phi, omega)
    return MspbeFixedPoint(
        omega=omega, mspbe=value, a_matrix=a_matrix, b_vec=b_vec, phi=phi
    )


# ---------------------------------------------------------------------------
# Off-policy averaged-reward critic fixed point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    """How action-space expectations are computed.

    Tensor-product Gauss-Hermite quadrature of the given order is used when
    the total action dimension is at most ``max_dim``; otherwise seeded
    Monte Carlo with ``mc_samples`` draws.
    """

    order: int = 9
    max_dim: int = 3
    mc_samples: int = 1_000_000
    mc_seed: int = 0

    def __post_init__(self):
        if self.order < 1 or self.max_dim < 0 or self.mc_samples < 1:
            raise ValueError("invalid quadrature configuration")


@functools.lru_cache(maxsize=32)
def _hermite_grid(n_dim: int, order: int):
    """Tensor Gauss-Hermite nodes (T, n_dim) and weights (T,), read-only, one per key."""
    x, w = np.polynomial.hermite.hermgauss(order)
    grids = np.array(list(itertools.product(x, repeat=n_dim)))
    weights = np.prod(np.array(list(itertools.product(w, repeat=n_dim))), axis=1)
    weights /= np.pi ** (n_dim / 2.0)
    grids.flags.writeable = weights.flags.writeable = False
    return grids, weights


def _gaussian_nodes(n_dim: int, sigma: float, quad: QuadratureConfig):
    """Offsets and weights such that E[f(mu + eps)] ~= sum_k w_k f(mu + off_k).

    sigma follows ``GaussianNoise``'s rule (finite, >= 0) and must be > 0.
    Returns (offsets (T, n_dim), weights (T,)).  The tensor grid is built once
    per (n_dim, order) and its weights are shared read-only; Monte-Carlo draws
    are fresh on every call and never kept.
    """
    if GaussianNoise(sigma).sigma == 0.0:
        raise ValueError("sigma must be positive")
    if n_dim <= quad.max_dim:
        grids, weights = _hermite_grid(n_dim, quad.order)
        return np.sqrt(2.0) * sigma * grids, weights
    rng = np.random.default_rng(quad.mc_seed)
    offsets = sigma * rng.standard_normal((quad.mc_samples, n_dim))
    weights = np.full(quad.mc_samples, 1.0 / quad.mc_samples)
    return offsets, weights


@dataclass(frozen=True)
class OffPolicyFixedPoint:
    """Solution of the averaged-reward critic's stationarity equations.

    ``lam`` solves ``b_matrix @ lam = a_matrix @ stationary`` where, for the
    Gaussian behavior policy pi,
    a_matrix[:, s] = E_pi[ Rbar(s, a) w(s, a) ] and
    b_matrix = sum_s d_pi(s) E_pi[ w(s, a) w(s, a)^T ].
    """

    lam: np.ndarray
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    stationary: np.ndarray


def offpolicy_fixed_point(
    mdp: NetworkedMdp,
    policy: PolicySet,
    sigma: float,
    features: FeatureMap,
    quad: QuadratureConfig = QuadratureConfig(),
) -> OffPolicyFixedPoint:
    """Limit weights of the averaged-reward critic under N(mu(s), sigma^2 I).

    Raises
    ------
    NearSingularB
        If the behavior second-moment feature matrix is numerically singular
        (smallest eigenvalue below 1e-10).
    """
    n_s = mdp.state_count
    n_total = sum(mdp.action_dims)
    k = features.dim
    offsets, weights = _gaussian_nodes(n_total, sigma, quad)
    kernel_pi = np.empty((n_s, n_s))
    a_matrix = np.empty((k, n_s))
    b_by_state = np.empty((n_s, k, k))
    for s in range(n_s):
        batch = policy.act(s) + offsets
        kernel_pi[s] = weights @ mdp.transition_row_batch(s, batch)
        rbar = mdp.mean_reward_batch(s, batch)
        feats = features.eval_batch(s, batch)
        a_matrix[:, s] = feats.T @ (weights * rbar)
        b_by_state[s] = feats.T @ (weights[:, None] * feats)
    # Normalize tiny quadrature roundoff so the row sums are exactly 1.
    kernel_pi = np.clip(kernel_pi, 0.0, None)
    kernel_pi /= kernel_pi.sum(axis=1, keepdims=True)
    d_pi = stationary_distribution(kernel_pi)
    b_matrix = np.einsum("s,skl->kl", d_pi, b_by_state)
    b_matrix = 0.5 * (b_matrix + b_matrix.T)
    eig_min = float(np.linalg.eigvalsh(b_matrix)[0])
    if eig_min < 1e-10:
        raise NearSingularB(
            f"behavior feature second-moment matrix has eigenvalue {eig_min:.3e}"
        )
    lam = solve_linear(b_matrix, a_matrix @ d_pi)
    return OffPolicyFixedPoint(
        lam=lam, a_matrix=a_matrix, b_matrix=b_matrix, stationary=d_pi
    )


# ---------------------------------------------------------------------------
# Stochastic policy-gradient estimator (Gaussian-smoothed policy)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticGradient:
    """Score-function gradient estimate with per-component standard errors."""

    value: np.ndarray
    stderr: np.ndarray
    samples: int


def stochastic_pg_estimate(
    mdp: NetworkedMdp,
    policy: PolicySet,
    sigma: float,
    samples: int,
    rng: np.random.Generator,
    quad: QuadratureConfig = QuadratureConfig(),
) -> StochasticGradient:
    """Monte-Carlo score-function gradient of the Gaussian-smoothed policy.

    States are drawn from the smoothed policy's exact stationary
    distribution and actions from N(mu(s), sigma^2 I); each sample
    contributes  (d log pi / d theta) * advantage  with the advantage
    computed exactly (quadrature for the smoothed evaluation, one dense
    solve for the differential values).  As sigma shrinks the mean
    approaches the deterministic policy gradient.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n_s = mdp.state_count
    n_total = sum(mdp.action_dims)
    offsets, weights = _gaussian_nodes(n_total, sigma, quad)

    # Exact smoothed-policy evaluation: kernel, rewards, stationary, values.
    kernel_pi = np.empty((n_s, n_s))
    reward_pi = np.empty(n_s)
    for s in range(n_s):
        batch = policy.act(s) + offsets
        kernel_pi[s] = weights @ mdp.transition_row_batch(s, batch)
        reward_pi[s] = weights @ mdp.mean_reward_batch(s, batch)
    kernel_pi = np.clip(kernel_pi, 0.0, None)
    kernel_pi /= kernel_pi.sum(axis=1, keepdims=True)
    d_pi, j_pi, v_pi = _poisson_solve(kernel_pi, reward_pi)

    total_p = policy.total_param_dim
    acc = np.zeros(total_p)
    acc_sq = np.zeros(total_p)
    states = rng.choice(n_s, size=samples, p=d_pi) if n_s > 1 else np.zeros(samples, int)
    eps = sigma * rng.standard_normal((samples, n_total))
    counts = np.bincount(states, minlength=n_s)
    if counts.max() < samples:  # a stable sort keeps each state's draw order
        eps = eps[np.argsort(states, kind="stable")]
    for s, (m, stop) in enumerate(zip(counts.tolist(), np.cumsum(counts).tolist())):
        if m == 0:
            continue
        e = eps[stop - m : stop]
        batch = policy.act(s) + e
        adv = mdp.mean_reward_batch(s, batch) - j_pi
        adv += mdp.transition_row_batch(s, batch) @ v_pi
        adv -= v_pi[s]
        # Score J_mu(s) eps / sigma^2: J_mu(s) copies coordinates, so sum each coordinate's
        # C-ordered row (numpy's pairwise order), in the batch's memory (nothing to page in).
        score = np.divide(e.T, sigma**2, out=batch.reshape(n_total, m))
        score *= adv
        acc += policy.jac_apply(s, score.sum(axis=1), np.zeros(total_p))
        acc_sq += policy.jac_apply(s, np.square(score, out=score).sum(axis=1), np.zeros(total_p))
    value = acc / samples
    var = np.maximum(acc_sq / samples - value**2, 0.0)
    stderr = np.sqrt(var / samples)
    return StochasticGradient(value=value, stderr=stderr, samples=samples)
