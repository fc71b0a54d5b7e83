"""Self-verification suite: every theory-level claim as an executable check.

Each registered check computes a scalar ``computed`` that must satisfy
``computed <= reference + tolerance``; checks are phrased so that smaller is
better (residuals, deviations, contraction norms).  ``--fault-inject NAME``
corrupts that check's computed value, which must flip it to FAIL — a negative
control proving the harness can actually fail.

The registry covers:

* linear-algebra kernels against direct residuals, and the spectral (mixing)
  norm against the closed-form Metropolis spectra of path, ring, star and
  complete graphs;
* the exact policy gradient against finite differences and the bandit's
  closed form;
* the evaluation (Poisson) equations and both critic fixed points, including
  minimizer and quadrature-order consistency probes;
* the consensus-matrix assumptions on static and randomly failing graphs;
* the stochastic-to-deterministic policy-gradient limit;
* compatible-feature identities and feature gradients;
* bit-level replay determinism of the experiment runner.
"""

from dataclasses import dataclass

import numpy as np

from . import dac, network, oracle
from .approx import CompatibleQFeatures, CompatibleRFeatures, FourierFeatures
from .config import RunConfig
from .env import bandit_reward_grad, make_bandit, make_finite_mdp
from .linalg import solve_linear, stationary_distribution
from .policy import affine_policy, constant_policy

__all__ = ["CheckRecord", "registered_checks", "run_checks", "format_report"]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one verification check (pass iff computed <= reference + tolerance)."""

    name: str
    computed: float
    reference: float
    tolerance: float
    passed: bool
    detail: str = ""


def _fd_policy_gradient(mdp, policy, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the exact average reward over theta."""
    flat = policy.theta_flat()
    grad = np.empty_like(flat)
    work = policy.copy()
    for k in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[k] += h
        lo[k] -= h
        work.set_theta_flat(hi)
        j_hi = oracle.exact_eval(mdp, work).gain
        work.set_theta_flat(lo)
        j_lo = oracle.exact_eval(mdp, work).gain
        grad[k] = (j_hi - j_lo) / (2 * h)
    return grad


# --- linear algebra ---------------------------------------------------------


def _check_linalg_solve():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        x = solve_linear(a, b)
        worst = max(worst, float(np.max(np.abs(a @ x - b))))
    return worst, 0.0, 1e-8, "max residual over 20 random 12x12 solves"


def _check_linalg_stationary():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.05, 1.0, size=(8, 8))
        p /= p.sum(axis=1, keepdims=True)
        d = stationary_distribution(p)
        worst = max(worst, float(np.max(np.abs(d @ p - d))))
    return worst, 0.0, 1e-10, "max balance residual over 20 random chains"


def _metropolis_mixing_norm(kind: str, n: int) -> float:
    """Closed-form mixing norm of the static Metropolis matrix (Xiao & Boyd 2004).

    Path and ring get C = I - L/3 and the star C = I - L/n; the mixing norm
    is the largest squared eigenvalue of C off the consensus direction.
    """
    k = np.arange(1, n)
    if kind == "path":
        return float(np.max((1.0 - (2.0 - 2.0 * np.cos(np.pi * k / n)) / 3.0) ** 2))
    if kind == "ring":
        return float(np.max((1.0 - (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0) ** 2))
    if kind == "star":
        return (1.0 - 1.0 / n) ** 2
    return 0.0  # complete: C = 11^T / n averages exactly in one round


def _check_linalg_spectral_norm():
    worst = 0.0
    for n in (3, 6, 9):
        for kind in ("path", "ring", "star", "complete"):
            graph = getattr(network, kind + "_graph")(n)
            report = network.check_assumption_random_matrices(
                network.GraphProcess(graph), samples=1
            )
            worst = max(worst, abs(report.mixing_norm - _metropolis_mixing_norm(kind, n)))
    detail = "mixing norm vs closed-form Metropolis spectra (path/ring/star/complete)"
    return worst, 0.0, 1e-12, detail


# --- gradients --------------------------------------------------------------


def _check_bandit_gradient():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(5):
        env = make_bandit(3, 2, seed=trial)
        theta = [rng.uniform(-2, 2, size=2) for _ in range(3)]
        policy = constant_policy(env.action_dims, theta)
        grad = oracle.exact_policy_gradient(env, policy)
        per_agent = bandit_reward_grad(env, theta, 0)
        closed = np.tile(per_agent, 3)
        worst = max(worst, float(np.max(np.abs(grad - closed))))
    return worst, 0.0, 1e-10, "oracle gradient vs closed-form -2C(sum a - target)"


def _check_finite_gradient_fd():
    rng = np.random.default_rng(19)
    worst = 0.0
    for trial in range(3):
        mdp = make_finite_mdp(4, 2, seed=trial)
        policy = affine_policy(4, mdp.action_dims)
        policy.set_theta_flat(rng.uniform(-0.5, 0.5, size=policy.total_param_dim))
        grad = oracle.exact_policy_gradient(mdp, policy)
        fd = _fd_policy_gradient(mdp, policy)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    return worst, 0.0, 1e-4, "analytic vs central-FD policy gradient (3 draws)"


# --- evaluation equations and fixed points ----------------------------------


def _check_poisson_residual():
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(5):
        mdp = make_finite_mdp(6, 3, seed=trial + 100)
        policy = affine_policy(6, mdp.action_dims)
        policy.set_theta_flat(rng.uniform(-0.5, 0.5, size=policy.total_param_dim))
        ev = oracle.exact_eval(mdp, policy)
        resid = ev.bias - (ev.reward - ev.gain + ev.kernel @ ev.bias)
        worst = max(worst, float(np.max(np.abs(resid))))
        worst = max(worst, abs(float(ev.stationary @ ev.bias)))
    return worst, 0.0, 1e-8, "evaluation-equation residual and d.V over 5 draws"


def _mspbe_instance():
    mdp = make_finite_mdp(5, 3, seed=42)
    policy = affine_policy(5, mdp.action_dims)
    rng = np.random.default_rng(5)
    policy.set_theta_flat(rng.uniform(-0.5, 0.5, size=policy.total_param_dim))
    features = FourierFeatures(5, mdp.action_dims, dim=3, seed=2)
    return mdp, policy, features


def _check_mspbe_residual():
    mdp, policy, features = _mspbe_instance()
    fp = oracle.mspbe_fixed_point(mdp, policy, features)
    resid = float(np.max(np.abs(fp.a_matrix @ fp.omega - fp.b_vec)))
    return max(resid, fp.mspbe), 0.0, 1e-8, "fixed-point equation residual and MSPBE value"


def _check_mspbe_minimizer():
    mdp, policy, features = _mspbe_instance()
    fp = oracle.mspbe_fixed_point(mdp, policy, features)
    rng = np.random.default_rng(3)
    worst = -np.inf
    for _ in range(20):
        delta = rng.standard_normal(fp.omega.size)
        delta *= 1e-3 / np.linalg.norm(delta)
        worst = max(worst, fp.mspbe - oracle.mspbe_of(mdp, policy, features, fp.omega + delta))
    return worst, 0.0, 1e-15, "MSPBE(omega*) - min over perturbed MSPBE (must be <= 0)"


def _offpolicy_instance():
    env = make_bandit(3, 1, seed=9)
    theta = [np.array([1.0]), np.array([0.5]), np.array([2.0])]
    policy = constant_policy(env.action_dims, theta)
    features = CompatibleRFeatures(policy, bias=True)
    return env, policy, features


def _check_offpolicy_residual():
    env, policy, features = _offpolicy_instance()
    fp = oracle.offpolicy_fixed_point(env, policy, sigma=0.1, features=features)
    resid = float(np.max(np.abs(fp.b_matrix @ fp.lam - fp.a_matrix @ fp.stationary)))
    return resid, 0.0, 1e-8, "stationarity-equation residual of the reward critic"


def _check_offpolicy_quadrature():
    env, policy, features = _offpolicy_instance()
    lam9 = oracle.offpolicy_fixed_point(
        env, policy, 0.1, features, oracle.QuadratureConfig(order=9)
    ).lam
    lam13 = oracle.offpolicy_fixed_point(
        env, policy, 0.1, features, oracle.QuadratureConfig(order=13)
    ).lam
    return (
        float(np.max(np.abs(lam9 - lam13))),
        0.0,
        1e-6,
        "fixed point: Gauss-Hermite order 9 vs 13",
    )


# --- consensus matrices ------------------------------------------------------


def _static_graphs():
    return [
        network.path_graph(6),
        network.ring_graph(6),
        network.star_graph(6),
        network.complete_graph(6),
    ]


def _check_consensus_static():
    worst = 0.0
    for g in _static_graphs():
        c = network.metropolis_weights(g)
        ones = np.ones(g.n)
        worst = max(worst, float(np.max(np.abs(c - c.T))))
        worst = max(worst, float(np.max(np.abs(c @ ones - ones))))
        worst = max(worst, float(np.max(np.abs(ones @ c - ones))))
    return worst, 0.0, 1e-12, "Metropolis symmetry and double stochasticity"


def _check_consensus_mixing():
    worst = 0.0
    for g in _static_graphs():
        process = network.GraphProcess(g)
        report = network.check_assumption_random_matrices(process, samples=3)
        worst = max(worst, report.mixing_norm)
    return worst, 0.0, 1.0 - 1e-3, "static mixing norm on path/ring/star/complete(6)"


def _check_consensus_failures():
    process = network.GraphProcess(
        network.path_graph(6), failure_prob=0.2, rng=np.random.default_rng(31)
    )
    report = network.check_assumption_random_matrices(process, samples=4000)
    stochasticity = max(report.row_residual, report.mean_col_residual)
    mixing_margin = max(0.0, report.mixing_norm - (1.0 - 1e-3))
    return (
        max(stochasticity, mixing_margin),
        0.0,
        1e-3,
        "random link failures p=0.2: stochasticity residuals and mixing margin",
    )


# --- limit theorem -----------------------------------------------------------


def _limit_instance():
    env = make_bandit(3, 1, seed=21)
    theta = [np.array([0.5]), np.array([-0.25]), np.array([1.0])]
    policy = constant_policy(env.action_dims, theta)
    return env, policy


def _check_limit_deviation():
    env, policy = _limit_instance()
    grad = oracle.exact_policy_gradient(env, policy)
    rng = np.random.default_rng(37)
    est = oracle.stochastic_pg_estimate(env, policy, sigma=0.05, samples=30_000, rng=rng)
    rel = float(np.linalg.norm(est.value - grad) / np.linalg.norm(grad))
    return rel, 0.0, 0.05, "relative deviation of the sigma=0.05 stochastic gradient"


def _check_limit_decreasing():
    env, policy = _limit_instance()
    grad = oracle.exact_policy_gradient(env, policy)
    rng = np.random.default_rng(41)
    devs, ses = [], []
    for sigma in (0.5, 0.2, 0.1, 0.05):
        est = oracle.stochastic_pg_estimate(env, policy, sigma=sigma, samples=20_000, rng=rng)
        devs.append(float(np.linalg.norm(est.value - grad)))
        ses.append(float(np.linalg.norm(est.stderr)))
    worst = max(
        devs[k + 1] - devs[k] - 2.0 * (ses[k] + ses[k + 1]) for k in range(len(devs) - 1)
    )
    return worst, 0.0, 0.0, "deviations decrease in sigma up to 2-SE Monte Carlo slack"


# --- features ----------------------------------------------------------------


def _check_compatible_identity():
    rng = np.random.default_rng(43)
    worst = 0.0
    env = make_bandit(3, 2, seed=3)
    theta = [rng.uniform(-1, 1, size=2) for _ in range(3)]
    policy = constant_policy(env.action_dims, theta)
    features = CompatibleQFeatures(policy, centered=False, bias=True)
    starts = np.cumsum((0,) + policy.param_dims)
    for _ in range(20):
        acts = rng.uniform(-2, 2, size=6)
        omega = rng.standard_normal(features.dim)
        q_a = features.eval(0, acts) @ omega
        q_mu = features.eval(0, policy.act(0)) @ omega
        jac_term = 0.0
        for i in range(3):
            gap = acts[2 * i : 2 * i + 2] - policy.act_agent(i, 0)
            jac_term += float(gap @ (policy.jac(i, 0).T @ omega[starts[i] : starts[i + 1]]))
        worst = max(worst, abs(q_a - q_mu - jac_term))
    return worst, 0.0, 1e-10, "Qhat(s,a) - Qhat(s,mu) equals (a - mu) . grad-block identity"


def _check_feature_gradients():
    rng = np.random.default_rng(47)
    h = 1e-6
    worst = 0.0
    mdp = make_finite_mdp(4, 2, seed=8)
    policy = affine_policy(4, mdp.action_dims)
    policy.set_theta_flat(rng.uniform(-1, 1, size=policy.total_param_dim))
    maps = [
        FourierFeatures(4, mdp.action_dims, dim=5, seed=1),
        CompatibleQFeatures(policy, centered=True, bias=True),
        CompatibleRFeatures(policy, bias=False),
    ]
    for fmap in maps:
        for _ in range(5):
            s = int(rng.integers(4))
            acts = rng.uniform(-1, 1, size=2)
            critic = rng.standard_normal((2, fmap.dim))
            analytic = fmap.grad_action(s, acts, critic)
            for i in range(2):  # one action coordinate per agent
                hi, lo = acts.copy(), acts.copy()
                hi[i] += h
                lo[i] -= h
                fd = (fmap.eval(s, hi) - fmap.eval(s, lo)) @ critic[i] / (2 * h)
                worst = max(worst, abs(float(analytic[i]) - fd))
    return worst, 0.0, 1e-6, "critic action-gradients vs central differences"


# --- determinism --------------------------------------------------------------


def _check_replay_determinism():
    cfg = RunConfig(
        kind="bandit", agents=3, action_dim=2, seeds=(1,), batches=3, batch_size=4
    )
    rows_a = dac.run_experiment(cfg, seed=1)
    rows_b = dac.run_experiment(cfg, seed=1)
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        for name in ("eval_cost", "mean_jhat", "critic_disagreement", "actor_grad_norm"):
            worst = max(worst, abs(getattr(ra, name) - getattr(rb, name)))
    if len(rows_a) != len(rows_b):
        worst = np.inf
    return worst, 0.0, 0.0, "two replays of the same seed agree exactly"


_CHECKS = {
    "linalg_solve_residual": _check_linalg_solve,
    "linalg_stationary_residual": _check_linalg_stationary,
    "linalg_spectral_norm": _check_linalg_spectral_norm,
    "bandit_gradient_closed_form": _check_bandit_gradient,
    "finite_gradient_fd": _check_finite_gradient_fd,
    "poisson_residual": _check_poisson_residual,
    "mspbe_fixed_point_residual": _check_mspbe_residual,
    "mspbe_minimizer": _check_mspbe_minimizer,
    "offpolicy_fixed_point_residual": _check_offpolicy_residual,
    "offpolicy_quadrature_orders": _check_offpolicy_quadrature,
    "consensus_static_stochasticity": _check_consensus_static,
    "consensus_static_mixing": _check_consensus_mixing,
    "consensus_link_failures": _check_consensus_failures,
    "limit_gradient_deviation": _check_limit_deviation,
    "limit_deviation_decreasing": _check_limit_decreasing,
    "compatible_feature_identity": _check_compatible_identity,
    "feature_gradients_fd": _check_feature_gradients,
    "replay_determinism": _check_replay_determinism,
}


def registered_checks() -> tuple:
    """Names of all checks, in report order."""
    return tuple(_CHECKS)


def run_checks(names=None, fault_inject: str = None) -> list:
    """Run the suite (or a subset); returns one CheckRecord per check.

    ``fault_inject`` names a check whose computed value is corrupted after
    the fact; the corrupted check must then fail.
    """
    if fault_inject is not None and fault_inject not in _CHECKS:
        raise KeyError(
            f"unknown check {fault_inject!r}; registered: {', '.join(_CHECKS)}"
        )
    selected = registered_checks() if names is None else tuple(names)
    records = []
    for name in selected:
        if name not in _CHECKS:
            raise KeyError(f"unknown check {name!r}")
        computed, reference, tolerance, detail = _CHECKS[name]()
        if fault_inject == name:
            computed = reference + tolerance + max(10.0 * tolerance, 1e-2)
            detail += " [fault injected]"
        passed = bool(computed <= reference + tolerance)
        records.append(
            CheckRecord(
                name=name,
                computed=float(computed),
                reference=float(reference),
                tolerance=float(tolerance),
                passed=passed,
                detail=detail,
            )
        )
    return records


def format_report(records) -> str:
    """Structured text report, one record per line plus a tally."""
    lines = []
    for r in records:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name}: computed={r.computed:.6e} "
            f"reference={r.reference:.6e} tolerance={r.tolerance:.6e} — {r.detail}"
        )
    failed = sum(not r.passed for r in records)
    lines.append(f"{len(records) - failed}/{len(records)} checks passed")
    return "\n".join(lines) + "\n"
