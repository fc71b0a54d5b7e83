"""Output checks for every benchmark operation; none depends on the seed.

Each function returns a list of problems (empty when the output is right).
Training runs are checked from the CSV ``netdac run`` writes; every oracle
solve by the residual of the equations it claims to solve.
"""

import hashlib
import math

import numpy as np

from netdac import env, oracle

_TOL = 1e-8
_PG_Z = 6.0  # Monte-Carlo estimates must lie within this many standard errors


def rows_digest(lines) -> str:
    """sha256 of the CSV lines without the wallclock column."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.rpartition(",")[0].encode())
        h.update(b"\n")
    return h.hexdigest()


def check_training_csv(lines, cfg, initial_cost: float, learns: bool) -> list:
    """Rows of one ``netdac run``: shape, finiteness, start cost and learning."""
    if not lines:
        return ["no CSV rows"]
    problems = []
    header = lines[0].split(",")
    if header[:5] != ["run_id", "seed", "t", "batch", "eval_cost"]:
        return [f"unexpected CSV header {lines[0]!r}"]
    by_seed = {}
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0].endswith("-summary"):
            continue
        values = [float(x) for x in fields[4:8]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite values in row {line!r}")
        by_seed.setdefault(int(fields[1]), []).append(values[0])
    if sorted(by_seed) != sorted(cfg.seeds):
        problems.append(f"rows for seeds {sorted(by_seed)}, expected {sorted(cfg.seeds)}")
    for seed, costs in by_seed.items():
        if len(costs) != cfg.batches + 1:
            problems.append(f"seed {seed}: {len(costs)} evaluation rows, expected {cfg.batches + 1}")
            continue
        if abs(costs[0] - initial_cost) > 1e-9 * max(1.0, abs(initial_cost)):
            problems.append(f"seed {seed}: initial cost {costs[0]!r}, expected {initial_cost!r}")
        if learns and not costs[-1] < costs[0]:
            problems.append(f"seed {seed}: final cost {costs[-1]!r} not below initial {costs[0]!r}")
    return problems


def check_exact_eval(ev) -> list:
    """Poisson equation V = r - J + P V with d.V = 0, and d stationary."""
    resid = ev.bias - (ev.reward - ev.gain + ev.kernel @ ev.bias)
    worst = max(
        float(np.max(np.abs(resid))),
        abs(float(ev.stationary @ ev.bias)),
        float(np.max(np.abs(ev.stationary @ ev.kernel - ev.stationary))),
    )
    return [] if worst <= _TOL else [f"Poisson residual {worst:.3e}"]


def check_policy_gradient(mdp, pol, grad) -> list:
    """Central difference of the exact gain along the gradient equals |grad|."""
    norm = float(np.linalg.norm(grad))
    if not math.isfinite(norm):
        return ["non-finite policy gradient"]
    if norm == 0.0:
        return []
    h = 1e-5
    work = pol.copy()
    base = pol.theta_flat()
    gains = []
    for sign in (1.0, -1.0):
        work.set_theta_flat(base + sign * h * grad / norm)
        gains.append(oracle.exact_eval(mdp, work).gain)
    slope = (gains[0] - gains[1]) / (2 * h)
    err = abs(slope - norm)
    return [] if err <= 1e-6 * max(1.0, norm) else [f"directional derivative off by {err:.3e}"]


def check_mspbe(fp) -> list:
    resid = float(np.max(np.abs(fp.a_matrix @ fp.omega - fp.b_vec)))
    worst = max(resid, fp.mspbe)
    return [] if worst <= _TOL else [f"MSPBE residual {worst:.3e}"]


def check_offpolicy(fp) -> list:
    resid = float(np.max(np.abs(fp.b_matrix @ fp.lam - fp.a_matrix @ fp.stationary)))
    return [] if resid <= _TOL else [f"stationarity residual {resid:.3e}"]


def check_quadrature_orders(fp9, fp13) -> list:
    gap = float(np.max(np.abs(fp9.lam - fp13.lam)))
    return [] if gap <= 1e-6 else [f"order 9 vs 13 gap {gap:.3e}"]


def _z_problems(est, exact) -> list:
    if not (np.all(np.isfinite(est.value)) and np.all(np.isfinite(est.stderr))):
        return ["non-finite stochastic gradient"]
    err = np.abs(est.value - exact)
    limit = _PG_Z * est.stderr + 1e-12
    if np.all(err <= limit):
        return []
    worst = float(np.max(err / limit)) * _PG_Z
    return [f"stochastic gradient {worst:.1f} standard errors from the exact one"]


def check_bandit_pg(bandit, bpol, est) -> list:
    """Quadratic reward: the smoothed gradient equals the closed form -2C(sum a - t)."""
    theta = [bpol.act_agent(i, 0) for i in range(bandit.agent_count)]
    exact = np.concatenate(
        [env.bandit_reward_grad(bandit, theta, i) for i in range(bandit.agent_count)]
    )
    return _z_problems(est, exact)


def check_mdp_pg(mdp, pol, est) -> list:
    """Within Monte-Carlo error of the deterministic gradient (sigma is small)."""
    return _z_problems(est, oracle.exact_policy_gradient(mdp, pol))
