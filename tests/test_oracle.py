"""Exact-solution oracles, each checked against an independent derivation:
hand-solved chains, closed forms on the quadratic team problem, finite
differences, Monte Carlo, and stationarity identities."""

import numpy as np
import pytest

from netdac.approx import CompatibleRFeatures, FeatureMap, FourierFeatures, TabularFeatures
from netdac.env import FiniteTestMdp, make_bandit, make_finite_mdp
from netdac.errors import NearSingularB, RankDeficientFeatures
from netdac.oracle import (
    QuadratureConfig,
    exact_eval,
    exact_policy_gradient,
    exact_q_grad_action,
    mspbe_fixed_point,
    mspbe_of,
    offpolicy_fixed_point,
    stochastic_pg_estimate,
)
from netdac.policy import GaussianNoise, affine_policy, constant_policy


def _hand_chain(base=None):
    """Two-state MDP with action-independent dynamics and rewards.

    p0 = p1 kills the action gate; amp = 0 makes rewards equal base[i, s].
    """
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    if base is None:
        base = np.array([[3.0, 0.0], [0.0, 0.0]])
    zeros = np.zeros_like(base)
    return FiniteTestMdp(p0=p, p1=p, base=base, amp=zeros, offset=zeros, coef=np.zeros((2, 2)))


def _policy_for(mdp, rng=None):
    pol = affine_policy(mdp.state_count, mdp.action_dims)
    if rng is not None:
        pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
    return pol


class TestExactEval:
    def test_single_state(self):
        env = make_bandit(2, 2, seed=0)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([1.0, 0.0])
        pol.theta[1][:] = np.array([0.0, 1.0])
        ev = exact_eval(env, pol)
        np.testing.assert_array_equal(ev.kernel, [[1.0]])
        np.testing.assert_array_equal(ev.stationary, [1.0])
        assert ev.gain == pytest.approx(env.mean_reward(0, pol.act(0)))
        np.testing.assert_allclose(ev.bias, [0.0], atol=1e-12)

    def test_hand_two_state_chain(self):
        # Birth-death chain, rewards (1.5, 0):
        #   d = (2/3, 1/3), J = 1, differential values V = (5/3, -10/3).
        mdp = _hand_chain()
        ev = exact_eval(mdp, _policy_for(mdp))
        np.testing.assert_allclose(ev.stationary, [2 / 3, 1 / 3], atol=1e-12)
        assert ev.gain == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(ev.bias, [5 / 3, -10 / 3], atol=1e-12)

    def test_poisson_identities_random(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            mdp = make_finite_mdp(4, 3, seed=seed)
            pol = _policy_for(mdp, rng)
            ev = exact_eval(mdp, pol)
            # Stationarity and normalization of d.
            np.testing.assert_allclose(ev.stationary @ ev.kernel, ev.stationary, atol=1e-10)
            assert ev.stationary.sum() == pytest.approx(1.0, abs=1e-12)
            # Gain is the stationary average reward.
            assert ev.gain == pytest.approx(float(ev.stationary @ ev.reward), abs=1e-12)
            # Evaluation (Poisson) equation and the centering convention.
            lhs = ev.bias - ev.kernel @ ev.bias
            np.testing.assert_allclose(lhs, ev.reward - ev.gain, atol=1e-9)
            assert abs(float(ev.stationary @ ev.bias)) < 1e-9


class TestExactPolicyGradient:
    def test_bandit_closed_form(self):
        env = make_bandit(3, 4, seed=1)
        pol = constant_policy(env.action_dims)
        rng = np.random.default_rng(2)
        for _ in range(5):
            pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
            dev = sum(pol.theta) - env.target
            per_agent = -2.0 * env.cost @ dev
            want = np.tile(per_agent, 3)
            got = exact_policy_gradient(env, pol)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_action_independent_chain_has_zero_gradient(self):
        mdp = _hand_chain()
        pol = _policy_for(mdp, np.random.default_rng(3))
        np.testing.assert_allclose(exact_policy_gradient(mdp, pol), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for seed in range(3):
            mdp = make_finite_mdp(3, 2, seed=seed)
            pol = _policy_for(mdp, rng)
            grad = exact_policy_gradient(mdp, pol)
            flat0 = pol.theta_flat()
            fd = np.zeros_like(grad)
            for p in range(flat0.size):
                hi, lo = flat0.copy(), flat0.copy()
                hi[p] += h
                lo[p] -= h
                pol.set_theta_flat(hi)
                up = exact_eval(mdp, pol).gain
                pol.set_theta_flat(lo)
                dn = exact_eval(mdp, pol).gain
                fd[p] = (up - dn) / (2 * h)
            pol.set_theta_flat(flat0)
            scale = max(1.0, float(np.linalg.norm(grad)))
            assert np.linalg.norm(grad - fd) / scale < 1e-6

    def test_q_grad_matches_fd(self):
        mdp = make_finite_mdp(3, 2, seed=9)
        pol = _policy_for(mdp, np.random.default_rng(5))
        ev = exact_eval(mdp, pol)
        h = 1e-6
        for s in range(3):
            # Rows 2i and 2i+1 step agent i's action up and down.
            probe = np.repeat(pol.act(s)[None, :], 4, axis=0)
            probe[[0, 2], [0, 1]] += h
            probe[[1, 3], [0, 1]] -= h
            q = mdp.mean_reward_batch(s, probe) + mdp.transition_row_batch(s, probe) @ ev.bias
            got = exact_q_grad_action(mdp, pol, ev, s)
            np.testing.assert_allclose(got, (q[0::2] - q[1::2]) / (2 * h), atol=1e-7)


class TestMspbeFixedPoint:
    def setup_case(self, seed=0):
        mdp = make_finite_mdp(5, 3, seed=seed)
        pol = _policy_for(mdp, np.random.default_rng(seed + 10))
        feats = FourierFeatures(5, mdp.action_dims, dim=3, seed=seed)
        return mdp, pol, feats

    def test_expected_td_update_vanishes(self):
        # Independent stationarity check: at the fixed point the expected
        # TD(0) increment E[delta * phi] over the on-policy chain is zero.
        mdp, pol, feats = self.setup_case()
        fp = mspbe_fixed_point(mdp, pol, feats)
        ev = exact_eval(mdp, pol)
        phi = np.stack([feats.eval(s, pol.act(s)) for s in range(5)])
        values = phi @ fp.omega
        expected_update = np.zeros(feats.dim)
        for s in range(5):
            delta_bar = ev.reward[s] - ev.gain + ev.kernel[s] @ values - values[s]
            expected_update += ev.stationary[s] * delta_bar * phi[s]
        np.testing.assert_allclose(expected_update, 0.0, atol=1e-10)

    def test_is_minimizer(self):
        mdp, pol, feats = self.setup_case(seed=1)
        fp = mspbe_fixed_point(mdp, pol, feats)
        rng = np.random.default_rng(6)
        base = mspbe_of(mdp, pol, feats, fp.omega)
        assert base < 1e-12  # the projected residual vanishes at the solution
        for _ in range(10):
            for scale in (1e-3, 1e-1, 1.0):
                trial = fp.omega + scale * rng.standard_normal(feats.dim)
                assert mspbe_of(mdp, pol, feats, trial) >= base

    def test_perfect_representation_recovers_values(self):
        # One feature proportional to the true differential values V: the
        # projected equations become exact and omega recovers the scaling.
        mdp = _hand_chain()
        pol = _policy_for(mdp)
        v = np.array([5 / 3, -10 / 3])

        class VFeature(FeatureMap):
            dim = 1

            def eval(self, s, actions):
                return np.array([0.5 * v[s]])

            def grad_action(self, s, actions, critic):
                return np.zeros(len(critic))  # one scalar action per agent

            def eval_batch(self, s, flat_actions):
                return np.full((len(flat_actions), 1), 0.5 * v[s])

        fp = mspbe_fixed_point(mdp, pol, VFeature())
        assert fp.omega[0] == pytest.approx(2.0, abs=1e-10)
        assert fp.mspbe == pytest.approx(0.0, abs=1e-14)

    def test_too_many_features_rejected(self):
        mdp, pol, _ = self.setup_case()
        with pytest.raises(RankDeficientFeatures):
            mspbe_fixed_point(mdp, pol, FourierFeatures(5, mdp.action_dims, dim=6, seed=0))

    def test_constant_representing_features_rejected(self):
        # One-hot state features span the constant function, which breaks
        # uniqueness of the average-reward projected solution.
        mdp, pol, _ = self.setup_case()
        with pytest.raises(RankDeficientFeatures):
            mspbe_fixed_point(mdp, pol, TabularFeatures(5, mdp.action_dims))


class _DuplicatedConstant(FeatureMap):
    dim = 2

    def eval(self, s, actions):
        return np.ones(2)

    def grad_action(self, s, actions, critic):
        return np.zeros(len(critic))  # one scalar action per agent

    def eval_batch(self, s, flat_actions):
        return np.ones((len(flat_actions), 2))


class TestOffPolicyFixedPoint:
    def test_constant_feature_recovers_smoothed_reward(self):
        # With the single feature w = 1, lambda is E_pi[Rbar].  For the
        # quadratic team reward that expectation has the closed form
        # -(sum theta - target)' C (sum theta - target) - N sigma^2 tr(C).
        env = make_bandit(2, 1, seed=3)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([1.0])
        pol.theta[1][:] = np.array([0.5])
        sigma = 0.3
        feats = TabularFeatures(1, env.action_dims)
        fp = offpolicy_fixed_point(env, pol, sigma, feats)
        dev = pol.theta[0] + pol.theta[1] - env.target
        want = -(dev @ env.cost @ dev) - 2 * sigma**2 * np.trace(env.cost)
        assert fp.lam[0] == pytest.approx(float(want), rel=1e-10)

    def test_compatible_features_closed_form(self):
        # Scalar quadratic reward r(a) = -c (a1 + a2 - t)^2 with Gaussian
        # behavior around theta.  With w = (a1 - th1, a2 - th2, 1):
        #   B = diag(s^2, s^2, 1),  E[r w] = (-2 c x s^2, -2 c x s^2, E[r]),
        # so lambda = (-2 c x, -2 c x, -c (x^2 + 2 s^2)) with x = th1+th2-t.
        env = make_bandit(2, 1, seed=5)
        c = float(env.cost[0, 0])
        t = float(env.target[0])
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([2.0])
        pol.theta[1][:] = np.array([-1.0])
        x = 2.0 - 1.0 - t
        sigma = 0.2
        feats = CompatibleRFeatures(pol, bias=True)
        fp = offpolicy_fixed_point(env, pol, sigma, feats)
        want = np.array([-2 * c * x, -2 * c * x, -c * (x**2 + 2 * sigma**2)])
        np.testing.assert_allclose(fp.lam, want, rtol=1e-9)

    def test_matches_monte_carlo(self):
        env = make_bandit(2, 1, seed=7)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([1.5])
        pol.theta[1][:] = np.array([0.0])
        sigma = 0.25
        feats = CompatibleRFeatures(pol, bias=True)
        fp = offpolicy_fixed_point(env, pol, sigma, feats)
        rng = np.random.default_rng(8)
        n = 400_000
        draws = pol.act(0) + sigma * rng.standard_normal((n, 2))
        w = feats.eval_batch(0, draws)
        r = env.mean_reward_batch(0, draws)
        b_hat = w.T @ w / n
        a_hat = w.T @ r / n
        lam_hat = np.linalg.solve(b_hat, a_hat)
        np.testing.assert_allclose(fp.lam, lam_hat, atol=0.02)

    def test_quadrature_against_monte_carlo_config(self):
        # Forcing the Monte-Carlo branch (max_dim=0) must agree with the
        # Gauss-Hermite branch on a smooth instance.
        env = make_bandit(2, 1, seed=9)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([0.7])
        pol.theta[1][:] = np.array([0.7])
        feats = CompatibleRFeatures(pol, bias=True)
        gh = offpolicy_fixed_point(env, pol, 0.15, feats)
        mc = offpolicy_fixed_point(
            env, pol, 0.15, feats, QuadratureConfig(max_dim=0, mc_samples=300_000, mc_seed=1)
        )
        np.testing.assert_allclose(gh.lam, mc.lam, atol=0.02)

    def test_singular_second_moment_raises(self):
        env = make_bandit(2, 1, seed=0)
        pol = constant_policy(env.action_dims)
        with pytest.raises(NearSingularB):
            offpolicy_fixed_point(env, pol, 0.1, _DuplicatedConstant())

    def test_sigma_must_be_positive(self):
        env = make_bandit(2, 1, seed=0)
        pol = constant_policy(env.action_dims)
        with pytest.raises(ValueError):
            offpolicy_fixed_point(env, pol, 0.0, TabularFeatures(1, env.action_dims))

    def test_finite_mdp_stationarity(self):
        # Independent check on a multi-state instance: the solution must
        # zero the expected update E[(Rbar - lam.w) w] under the behavior
        # policy's stationary state distribution, estimated by Monte Carlo.
        mdp = make_finite_mdp(3, 2, seed=11)
        pol = _policy_for(mdp, np.random.default_rng(12))
        sigma = 0.3
        feats = FourierFeatures(3, mdp.action_dims, dim=3, seed=2)
        fp = offpolicy_fixed_point(mdp, pol, sigma, feats)
        rng = np.random.default_rng(13)
        n = 200_000
        states = rng.choice(3, size=n, p=fp.stationary)
        resid = np.zeros(feats.dim)
        for s in range(3):
            m = int((states == s).sum())
            if m == 0:
                continue
            draws = pol.act(s) + sigma * rng.standard_normal((m, 2))
            w = feats.eval_batch(s, draws)
            r = mdp.mean_reward_batch(s, draws)
            resid += w.T @ (r - w @ fp.lam)
        resid /= n
        np.testing.assert_allclose(resid, 0.0, atol=5e-3)


class TestStochasticGradient:
    def test_bandit_matches_deterministic_gradient(self):
        # For the quadratic team reward the Gaussian-smoothed objective
        # differs from the deterministic one by a theta-independent constant,
        # so the score-function mean equals the deterministic gradient at
        # every sigma; deviations are pure Monte-Carlo noise.
        env = make_bandit(2, 1, seed=4)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([1.0])
        pol.theta[1][:] = np.array([2.0])
        det = exact_policy_gradient(env, pol)
        est = stochastic_pg_estimate(env, pol, 0.2, 40_000, np.random.default_rng(14))
        assert est.samples == 40_000
        np.testing.assert_array_less(np.abs(est.value - det), 5 * est.stderr + 1e-12)

    def test_stderr_shrinks_with_samples(self):
        env = make_bandit(2, 1, seed=4)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([0.0])
        pol.theta[1][:] = np.array([0.0])
        small = stochastic_pg_estimate(env, pol, 0.3, 2_000, np.random.default_rng(1))
        big = stochastic_pg_estimate(env, pol, 0.3, 32_000, np.random.default_rng(1))
        # Four times the samples halves the standard error (sixteen: quarter).
        assert np.all(big.stderr < 0.5 * small.stderr)

    def test_multi_state_unbiasedness(self):
        # On a finite MDP, compare the score-function mean against finite
        # differences of the smoothed objective J_pi(theta), both computed
        # from the same quadrature evaluation machinery.
        mdp = make_finite_mdp(2, 2, seed=15)
        pol = _policy_for(mdp, np.random.default_rng(16))
        sigma = 0.4
        est = stochastic_pg_estimate(
            mdp, pol, sigma, 300_000, np.random.default_rng(17)
        )
        h = 1e-5
        flat0 = pol.theta_flat()
        fd = np.zeros_like(flat0)
        for p in range(flat0.size):
            hi, lo = flat0.copy(), flat0.copy()
            hi[p] += h
            lo[p] -= h
            fd[p] = (_smoothed_j(mdp, pol, hi, sigma) - _smoothed_j(mdp, pol, lo, sigma)) / (
                2 * h
            )
        np.testing.assert_array_less(np.abs(est.value - fd), 5 * est.stderr + 5e-3)

    def test_invalid_arguments(self):
        env = make_bandit(2, 1, seed=0)
        pol = constant_policy(env.action_dims)
        with pytest.raises(ValueError):
            stochastic_pg_estimate(env, pol, -0.1, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stochastic_pg_estimate(env, pol, 0.1, 0, np.random.default_rng(0))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("which", ["offpolicy_fixed_point", "stochastic_pg_estimate"])
def test_oracles_share_the_sigma_rule(which, sigma):
    # GaussianNoise's rule (finite, >= 0) and sigma > 0, with a message naming
    # sigma; NaN and inf once ran the quadrature into a non-finite kernel.
    mdp = make_finite_mdp(3, 2, seed=0)
    pol = _policy_for(mdp)
    solve = {
        "offpolicy_fixed_point": lambda: offpolicy_fixed_point(
            mdp, pol, sigma, TabularFeatures(3, mdp.action_dims)
        ),
        "stochastic_pg_estimate": lambda: stochastic_pg_estimate(
            mdp, pol, sigma, 10, np.random.default_rng(0)
        ),
    }[which]
    try:
        GaussianNoise(sigma)
        want = "sigma must be positive"
    except ValueError as exc:
        want = str(exc)
    with pytest.raises(ValueError) as got:
        solve()
    assert str(got.value) == want


def _smoothed_j(mdp, pol, flat_theta, sigma):
    """Long-run average reward of the Gaussian-smoothed policy, by quadrature."""
    from netdac.linalg import stationary_distribution
    from netdac.oracle import _gaussian_nodes  # internal, used as a test oracle

    saved = pol.theta_flat()
    pol.set_theta_flat(flat_theta)
    try:
        n_s = mdp.state_count
        offsets, weights = _gaussian_nodes(sum(mdp.action_dims), sigma, QuadratureConfig())
        kernel = np.empty((n_s, n_s))
        reward = np.empty(n_s)
        for s in range(n_s):
            batch = pol.act(s) + offsets
            kernel[s] = weights @ mdp.transition_row_batch(s, batch)
            reward[s] = weights @ mdp.mean_reward_batch(s, batch)
        kernel = np.clip(kernel, 0.0, None)
        kernel /= kernel.sum(axis=1, keepdims=True)
        d = stationary_distribution(kernel)
        return float(d @ reward)
    finally:
        pol.set_theta_flat(saved)


def _reference_nodes(n_dim, sigma, order):
    """The tensor grid as it was built inline on every call, before the grid cache."""
    import itertools

    x, w = np.polynomial.hermite.hermgauss(order)
    grids = np.array(list(itertools.product(x, repeat=n_dim)))
    weights = np.prod(
        np.array(list(itertools.product(w, repeat=n_dim))), axis=1
    ) / np.pi ** (n_dim / 2.0)
    offsets = np.sqrt(2.0) * sigma * grids
    return offsets, weights


class TestGaussianNodes:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_cached_grid_matches_inline_construction(self, n_dim):
        from netdac.oracle import _gaussian_nodes  # internal

        for order in range(1, 16):
            for sigma in (1e-3, 0.1, 0.3, 0.5, 2.0):
                quad = QuadratureConfig(order=order)
                for _ in range(2):  # a fresh grid, then the cached one
                    got = _gaussian_nodes(n_dim, sigma, quad)
                    want = _reference_nodes(n_dim, sigma, order)
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()

    def test_shared_weights_are_read_only(self):
        from netdac.oracle import _gaussian_nodes  # internal

        offsets, weights = _gaussian_nodes(2, 0.1, QuadratureConfig(order=5))
        with pytest.raises(ValueError):
            weights[0] = 1.0
        with pytest.raises(ValueError):
            weights *= 2.0
        offsets[0] = 7.0  # the offsets are the caller's own
        again_offsets, again_weights = _gaussian_nodes(2, 0.1, QuadratureConfig(order=5))
        assert again_weights is weights
        assert again_offsets[0, 0] != 7.0

    def test_monte_carlo_draws_are_fresh_and_writable(self):
        from netdac.oracle import _gaussian_nodes  # internal

        quad = QuadratureConfig(max_dim=0, mc_samples=50, mc_seed=3)
        first = _gaussian_nodes(2, 0.1, quad)
        second = _gaussian_nodes(2, 0.1, quad)
        for a, b in zip(first, second):
            assert a is not b and not np.shares_memory(a, b)
            assert a.flags.writeable and b.flags.writeable
            assert a.tobytes() == b.tobytes()
        first[0][:] = 0.0
        first[1][:] = 0.0
        third = _gaussian_nodes(2, 0.1, quad)
        assert third[0].tobytes() == second[0].tobytes()
        assert third[1].tobytes() == second[1].tobytes()


def _reference_pg_estimate(mdp, policy, sigma, samples, rng, quad=QuadratureConfig()):
    """``stochastic_pg_estimate`` as it was: a mask and a copy per state, and the
    (params, samples) score products scattered by ``jac_apply`` and summed per row."""
    from netdac.oracle import StochasticGradient, _gaussian_nodes, _poisson_solve  # internal

    n_s = mdp.state_count
    n_total = sum(mdp.action_dims)
    offsets, weights = _gaussian_nodes(n_total, sigma, quad)
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
    for s in range(n_s):
        mask = states == s
        m = int(mask.sum())
        if m == 0:
            continue
        e = eps if m == samples else eps[mask]
        batch = policy.act(s) + e
        rbar = mdp.mean_reward_batch(s, batch)
        rows = mdp.transition_row_batch(s, batch)
        adv = rbar - j_pi + rows @ v_pi - v_pi[s]
        contrib = np.zeros((total_p, m))
        policy.jac_apply(s, np.divide(e, sigma**2, out=e), contrib.T)
        contrib *= adv
        acc += contrib.sum(axis=1)
        acc_sq += np.square(contrib, out=contrib).sum(axis=1)
    value = acc / samples
    var = np.maximum(acc_sq / samples - value**2, 0.0)
    stderr = np.sqrt(var / samples)
    return StochasticGradient(value=value, stderr=stderr, samples=samples)


def _estimator_case(name):
    """(mdp, policy, quadrature) of one bit-comparison case."""
    rng = np.random.default_rng({"bandit": 1, "mdp5": 2, "mdp20": 3}[name])
    if name == "bandit":
        env = make_bandit(3, 1, seed=5)
        pol = constant_policy(env.action_dims, [rng.uniform(-2.0, 2.0, size=1) for _ in range(3)])
        return env, pol, QuadratureConfig()
    states, agents = (5, 3) if name == "mdp5" else (20, 10)
    mdp = make_finite_mdp(states, agents, seed=6)
    pol = affine_policy(states, mdp.action_dims)
    pol.set_theta_flat(rng.uniform(-0.5, 0.5, size=pol.total_param_dim))
    # Ten action dimensions take the Monte-Carlo branch; a small draw keeps it quick.
    return mdp, pol, QuadratureConfig(mc_samples=2000)


@pytest.mark.parametrize("sigma", [0.1, 0.5])
@pytest.mark.parametrize("samples", [1, 2, 7, 20_000])
@pytest.mark.parametrize("name", ["bandit", "mdp5", "mdp20"])
def test_pg_estimate_bits_match_per_state_scatter(name, samples, sigma):
    # With 1, 2 or 7 samples some states get none, and one state may hold all.
    mdp, pol, quad = _estimator_case(name)
    for seed in range(3):
        got = stochastic_pg_estimate(mdp, pol, sigma, samples, np.random.default_rng(seed), quad)
        want = _reference_pg_estimate(mdp, pol, sigma, samples, np.random.default_rng(seed), quad)
        assert got.samples == want.samples
        assert got.value.tobytes() == want.value.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()
