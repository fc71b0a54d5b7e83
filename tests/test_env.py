"""Environments: the interface contract shared by every environment,
hand-computed rewards, analytic gradients vs finite differences,
transition-law sanity, and construction invariants."""

import numpy as np
import pytest

from netdac.env import (
    ContinuousBandit,
    FiniteTestMdp,
    NetworkedMdp,
    bandit_reward,
    bandit_reward_grad,
    make_bandit,
    make_finite_mdp,
)
from netdac.policy import constant_policy
from netdac.errors import DimensionMismatch

_FD = 1e-6


def _split(flat, dims):
    """Per-agent action arrays from one flat joint action."""
    return np.split(np.asarray(flat, dtype=float), np.cumsum(dims)[:-1])


def _fd_reward_grad(mdp, s, actions, i):
    """Central finite differences of the mean reward in agent i's action."""
    start = sum(mdp.action_dims[:i])
    out = np.zeros(mdp.action_dims[i])
    for k in range(len(out)):
        hi, lo = actions.copy(), actions.copy()
        hi[start + k] += _FD
        lo[start + k] -= _FD
        out[k] = (mdp.mean_reward(s, hi) - mdp.mean_reward(s, lo)) / (2 * _FD)
    return out


def _fd_batch(env, s, actions, values):
    """Central differences, in every joint-action coordinate, of the batch
    methods: ``mean_reward_batch`` and ``transition_row_batch(...) @ values``."""
    # Rows 2k and 2k+1 step coordinate k up and down.
    probe = np.repeat(actions[None, :], 2 * actions.size, axis=0)
    cols = np.arange(actions.size)
    probe[2 * cols, cols] += _FD
    probe[2 * cols + 1, cols] -= _FD
    rew = env.mean_reward_batch(s, probe)
    contracted = env.transition_row_batch(s, probe) @ values
    return (rew[0::2] - rew[1::2]) / (2 * _FD), (contracted[0::2] - contracted[1::2]) / (2 * _FD)


class TestPackUnpack:
    def test_round_trip(self):
        # A joint action is one flat vector with each agent's action at its
        # static offset: splitting at the offsets gives the actions back.
        acts = [np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0, 5.0, 6.0])]
        flat = constant_policy((2, 1, 3), acts).act(0)
        np.testing.assert_array_equal(flat, [1, 2, 3, 4, 5, 6])
        back = _split(flat, (2, 1, 3))
        assert all(np.array_equal(a, b) for a, b in zip(acts, back))

    def test_agent_sums_run_in_agent_order(self):
        # Ten scalar actions: numpy's flat sum adds pairwise, the simulator
        # must add agent after agent (bit for bit).
        rng = np.random.default_rng(3)
        bandit = make_bandit(10, 1, seed=0)
        mdp = make_finite_mdp(3, 10, seed=0)
        for _ in range(200):
            a = rng.standard_normal(10)
            total = 0.0
            for x in a:
                total += x
            assert bandit.action_sum(a)[0] == total
            gate = 1.0 / (1.0 + np.exp(-np.clip(total, -60.0, 60.0)))
            row = (1.0 - gate) * mdp.p0[1] + gate * mdp.p1[1]
            np.testing.assert_array_equal(mdp.transition_row(1, a), row)


_CONTRACT_ENVS = {
    "bandit": lambda: make_bandit(3, 2, seed=4),
    "finite-mdp": lambda: make_finite_mdp(4, 3, seed=7),
}


@pytest.fixture(params=sorted(_CONTRACT_ENVS))
def contract_env(request):
    return _CONTRACT_ENVS[request.param]()


class TestEnvironmentContract:
    """Every environment implements the whole NetworkedMdp interface, and its
    batch methods and analytic gradients agree with its single-action forms."""

    def _batch(self, env, t=9, seed=6):
        return np.random.default_rng(seed).standard_normal((t, sum(env.action_dims)))

    def test_batch_methods_match_single_action_forms(self, contract_env):
        env = contract_env
        assert isinstance(env, NetworkedMdp)
        flat = self._batch(env)
        for s in range(env.state_count):
            rows = env.transition_row_batch(s, flat)
            rewards = env.mean_reward_batch(s, flat)
            assert rows.shape == (len(flat), env.state_count)
            assert rewards.shape == (len(flat),)
            for t in range(len(flat)):
                acts = flat[t]
                row = env.transition_row(s, acts)
                np.testing.assert_allclose(rows[t], row, rtol=0, atol=1e-12)
                assert abs(rewards[t] - env.mean_reward(s, acts)) <= 1e-12
                assert abs(env.local_rewards(s, acts).mean() - env.mean_reward(s, acts)) <= 1e-12

    def test_gradients_match_batch_central_differences(self, contract_env):
        env = contract_env
        flat = self._batch(env, t=3, seed=8)
        values = np.random.default_rng(9).uniform(-1.0, 1.0, env.state_count)
        for s in range(env.state_count):
            for acts in flat:
                fd_rew, fd_contracted = _fd_batch(env, s, acts, values)
                np.testing.assert_allclose(
                    env.reward_grad_action(s, acts), fd_rew, rtol=1e-6, atol=1e-6
                )
                np.testing.assert_allclose(
                    env.transition_grad_action(s, acts, values), fd_contracted, rtol=0, atol=1e-7
                )

    def test_interface_has_no_defaults(self):
        # Only the sampler is concrete; nothing falls back to another method.
        assert NetworkedMdp.__abstractmethods__ == {
            "local_rewards",
            "mean_reward",
            "transition_row",
            "mean_reward_batch",
            "transition_row_batch",
            "reward_grad_action",
            "transition_grad_action",
        }


class TestContinuousBandit:
    def test_hand_reward_scalar(self):
        # Two agents, 1-D actions, unit cost: r = -(1 + 1 - 4)^2 = -4.
        env = ContinuousBandit(2, 1, np.array([[1.0]]), np.array([4.0]))
        assert bandit_reward(env, np.array([1.0, 1.0])) == -4.0
        # The reward is shared verbatim by every agent.
        np.testing.assert_array_equal(env.local_rewards(0, np.array([1.0, 1.0])), [-4.0, -4.0])

    def test_hand_reward_matrix(self):
        # C = diag(1, 2), target (4, 4), sum (5, 2): r = -(1^2*1 + 2^2*2) = -9.
        env = ContinuousBandit(2, 2, np.diag([1.0, 2.0]), np.full(2, 4.0))
        acts = np.array([2.0, 1.0, 3.0, 1.0])
        assert bandit_reward(env, acts) == -9.0

    def test_optimum_is_zero(self):
        env = make_bandit(3, 4, seed=2)
        acts = np.full(12, 4.0 / 3)
        assert abs(bandit_reward(env, acts)) < 1e-12

    def test_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(0)
        env = make_bandit(3, 5, seed=1)
        for _ in range(10):
            acts = rng.standard_normal(15)
            dev = acts[:5] + acts[5:10] + acts[10:] - env.target
            want = -2.0 * env.cost @ dev
            for i in range(3):
                got = bandit_reward_grad(env, acts, i)
                np.testing.assert_allclose(got, want, atol=1e-12)
                np.testing.assert_allclose(
                    got, _fd_reward_grad(env, 0, acts, i), atol=1e-5
                )

    def test_gradient_identical_across_agents(self):
        env = make_bandit(4, 3, seed=5)
        acts = np.repeat(np.arange(4.0), 3)
        grads = [bandit_reward_grad(env, acts, i) for i in range(4)]
        for g in grads[1:]:
            np.testing.assert_array_equal(g, grads[0])

    def test_make_bandit_spectrum_and_symmetry(self):
        for seed in range(6):
            env = make_bandit(10, 12, seed=seed)
            assert np.max(np.abs(env.cost - env.cost.T)) < 1e-12
            eigs = np.linalg.eigvalsh(env.cost)
            for e in eigs:
                assert min(abs(e - 0.1), abs(e - 1.0)) < 1e-10
            np.testing.assert_array_equal(env.target, np.full(12, 4.0))

    def test_make_bandit_deterministic_in_seed(self):
        a = make_bandit(2, 6, seed=9)
        b = make_bandit(2, 6, seed=9)
        np.testing.assert_array_equal(a.cost, b.cost)
        assert np.any(make_bandit(2, 6, seed=10).cost != a.cost)

    def test_single_state_transitions(self):
        env = make_bandit(2, 2, seed=0)
        acts = np.zeros(4)
        assert env.state_count == 1
        rng = np.random.default_rng(0)
        untouched = np.random.default_rng(0)
        assert env.transition(0, acts, rng) == 0
        # A single-state environment draws nothing from the stream.
        assert rng.random() == untouched.random()
        np.testing.assert_array_equal(env.transition_row(0, acts), [1.0])
        rows = env.transition_row_batch(0, np.zeros((3, 4)))
        np.testing.assert_array_equal(rows, np.ones((3, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBandit(2, 1, np.array([[1.0, 0.5], [0.0, 1.0]])[:1, :1] * np.nan, np.ones(1))
        with pytest.raises(ValueError):
            ContinuousBandit(2, 2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(DimensionMismatch):
            ContinuousBandit(2, 2, np.eye(3), np.ones(2))
        env = make_bandit(2, 2)
        with pytest.raises(DimensionMismatch):
            bandit_reward(env, np.ones(2))
        with pytest.raises(DimensionMismatch):
            bandit_reward(env, np.ones(5))


class TestFiniteTestMdp:
    def make(self, states=4, agents=3, seed=0):
        return make_finite_mdp(states, agents, seed)

    def test_rows_are_distributions(self):
        mdp = self.make()
        rng = np.random.default_rng(1)
        for s in range(mdp.state_count):
            for _ in range(5):
                acts = rng.standard_normal(mdp.agent_count) * 2
                row = mdp.transition_row(s, acts)
                assert row.shape == (mdp.state_count,)
                assert np.all(row > 0)
                assert abs(row.sum() - 1.0) < 1e-12

    def test_mean_reward_is_average_of_locals(self):
        mdp = self.make()
        acts = np.array([-0.4, 0.2, 1.0])
        locals_ = mdp.local_rewards(2, acts)
        assert mdp.mean_reward(2, acts) == pytest.approx(locals_.mean())

    def test_rewards_bounded(self):
        mdp = self.make(seed=3)
        rng = np.random.default_rng(2)
        bound = np.max(np.abs(mdp.base)) + np.max(np.abs(mdp.amp))
        for _ in range(50):
            s = int(rng.integers(mdp.state_count))
            acts = rng.standard_normal(mdp.agent_count) * 10
            assert abs(mdp.mean_reward(s, acts)) <= bound + 1e-12

    def test_reward_grad_matches_fd(self):
        mdp = self.make(seed=5)
        rng = np.random.default_rng(4)
        for _ in range(5):
            s = int(rng.integers(mdp.state_count))
            acts = rng.standard_normal(mdp.agent_count)
            fd, _ = _fd_batch(mdp, s, acts, np.zeros(mdp.state_count))
            np.testing.assert_allclose(mdp.reward_grad_action(s, acts), fd, atol=1e-7)

    def test_transition_grad_matches_fd(self):
        mdp = self.make(seed=6)
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = int(rng.integers(mdp.state_count))
            acts = rng.standard_normal(mdp.agent_count)
            values = rng.uniform(-1.0, 1.0, mdp.state_count)
            _, fd = _fd_batch(mdp, s, acts, values)
            got = mdp.transition_grad_action(s, acts, values)
            np.testing.assert_allclose(got, fd, atol=1e-7)

    def test_sampling_frequencies_match_row(self):
        mdp = self.make(states=3, agents=2, seed=8)
        acts = np.array([0.5, -0.2])
        row = mdp.transition_row(0, acts)
        rng = np.random.default_rng(123)
        n = 40_000
        counts = np.bincount(
            [mdp.transition(0, acts, rng) for _ in range(n)], minlength=3
        )
        # Multinomial standard error is below 0.25/sqrt(n) per state.
        np.testing.assert_allclose(counts / n, row, atol=4 * 0.25 / np.sqrt(n))

    def test_construction_deterministic(self):
        a = make_finite_mdp(4, 3, seed=11)
        b = make_finite_mdp(4, 3, seed=11)
        acts = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(a.transition_row(0, acts), b.transition_row(0, acts))
        np.testing.assert_array_equal(a.local_rewards(1, acts), b.local_rewards(1, acts))
