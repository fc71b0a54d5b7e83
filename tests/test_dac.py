"""Training loops: hand-traced steps, recurrence replay, fixed points,
run bookkeeping, and divergence detection."""

import dataclasses
import re

import numpy as np
import pytest

from netdac.approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FourierFeatures,
    TabularFeatures,
)
from netdac.config import RunConfig
from netdac.dac import (
    Schedule,
    _actor_direction,
    alg1_step,
    alg2_step,
    build_features,
    build_graph,
    build_mdp,
    build_policy,
    evaluate_policy_cost,
    init_train_state,
    run_experiment,
)
from netdac.env import ContinuousBandit, FiniteTestMdp, make_bandit, make_finite_mdp
from netdac.errors import Diverged
from netdac.linalg import stationary_distribution
from netdac.network import GraphProcess, complete_graph, edgeless_graph, metropolis_weights
from netdac.policy import GaussianNoise, affine_policy, constant_policy
from netdac.seeding import substream


def _unit_bandit(theta=1.0):
    """One agent, scalar action, r(a) = -a^2, policy mu = theta."""
    env = ContinuousBandit(1, 1, np.array([[1.0]]), np.array([0.0]))
    pol = constant_policy(env.action_dims)
    pol.theta[0][:] = np.array([float(theta)])
    return env, pol


def _zero_reward_mdp():
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    z = np.zeros((2, 2))
    return FiniteTestMdp(p0=p, p1=p, base=z, amp=z, offset=z, coef=z)


class TestSchedule:
    def test_constant(self):
        sch = Schedule("constant", 0.1, 0.01)
        assert sch.beta_critic(0) == 0.1
        assert sch.beta_critic(999) == 0.1
        assert sch.beta_actor(999) == 0.01

    def test_polynomial(self):
        sch = Schedule("polynomial", 1.0, 1.0, critic_pow=0.6, actor_pow=0.9)
        assert sch.beta_critic(0) == 1.0
        assert sch.beta_critic(3) == pytest.approx(4.0**-0.6)
        assert sch.beta_actor(3) == pytest.approx(4.0**-0.9)
        # The actor runs on the strictly slower timescale.
        assert sch.beta_actor(1000) < sch.beta_critic(1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule("linear")
        with pytest.raises(ValueError):
            Schedule("constant", critic=-0.1)
        with pytest.raises(ValueError):
            Schedule("polynomial", critic_pow=0.9, actor_pow=0.6)


class TestAlg1Step:
    def test_hand_traced_two_steps(self):
        # r(a) = -a^2, theta = 1, no exploration: a = 1 and r = -1 forever.
        # Features phi(a) = a = 1, critic step 0.1, actor step 0.01.
        env, pol = _unit_bandit(theta=1.0)
        feats = CompatibleQFeatures(pol, centered=False, bias=False)
        proc = GraphProcess(edgeless_graph(1))
        sch = Schedule("constant", 0.1, 0.01)
        state = init_train_state(env, pol, feats, seed=0, algorithm="alg1")

        # Step 1: delta = -1 - 0 + 0 - 0 = -1; the actor moves by the
        # pre-update critic (zero), so theta stays 1.
        alg1_step(state, env, feats, proc, sch)
        assert state.critic[0, 0] == pytest.approx(-0.1)
        assert state.jhat[0] == pytest.approx(-0.1)
        assert state.policy.theta[0][0] == 1.0
        assert state.t == 1

        # Step 2: delta = -1 + 0.1 + w*1 - w*1 = -0.9; critic -0.19; the
        # actor now sees dQ/da = w = -0.1: theta <- 1 + 0.01 * (-0.1).
        alg1_step(state, env, feats, proc, sch)
        assert state.critic[0, 0] == pytest.approx(-0.19)
        assert state.jhat[0] == pytest.approx(-0.19)
        assert state.policy.theta[0][0] == pytest.approx(0.999)

    def test_recurrence_replay_multi_agent(self):
        # Replay 40 recorded transitions and re-derive every update by hand:
        # jhat/critic/theta must satisfy the published recurrences exactly.
        mdp = make_finite_mdp(3, 3, seed=2)
        pol = constant_policy(mdp.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(3))
        c = metropolis_weights(complete_graph(3))
        sch = Schedule("constant", 0.2, 0.05)
        noise = GaussianNoise(0.3)
        state = init_train_state(mdp, pol, feats, seed=7, algorithm="alg1", exploration=noise)

        for _ in range(40):
            s_t = state.s
            a_t = state.actions.copy()
            w_t = state.critic.copy()
            jhat_t = state.jhat.copy()
            theta_t = [t.copy() for t in state.policy.theta]
            pol_snapshot = state.policy.copy()
            alg1_step(state, mdp, feats, proc, sch, exploration=noise)
            s_n, a_n = state.s, state.actions

            snap_feats = CompatibleQFeatures(pol_snapshot, centered=True, bias=True)
            r = mdp.local_rewards(s_t, a_t)
            phi = snap_feats.eval(s_t, a_t)
            phi_n = snap_feats.eval(s_n, a_n)
            delta = r - jhat_t + w_t @ phi_n - w_t @ phi
            want_w = c @ (w_t + 0.2 * delta[:, None] * phi[None, :])
            np.testing.assert_allclose(state.critic, want_w, atol=1e-12)
            np.testing.assert_allclose(
                state.jhat, 0.8 * jhat_t + 0.2 * r, atol=1e-12
            )
            # Agent i's actor step: J^i(s) @ dQhat_{w^i}/da^i, with the
            # compatible action-gradient J^i(s).T @ (agent i's block of w^i).
            starts = np.cumsum((0,) + pol_snapshot.param_dims)
            for i in range(3):
                jac = pol_snapshot.jac(i, s_t)
                gq = jac.T @ w_t[i, starts[i] : starts[i + 1]]
                want_theta = theta_t[i] + 0.05 * jac @ gq
                np.testing.assert_allclose(state.policy.theta[i], want_theta, atol=1e-12)

    def test_zero_rewards_are_a_fixed_point(self):
        mdp = _zero_reward_mdp()
        pol = constant_policy(mdp.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(2))
        sch = Schedule("constant", 0.1, 0.01)
        state = init_train_state(mdp, pol, feats, seed=1, algorithm="alg1")
        for _ in range(100):
            alg1_step(state, mdp, feats, proc, sch)
        np.testing.assert_array_equal(state.critic, 0.0)
        np.testing.assert_array_equal(state.jhat, 0.0)
        np.testing.assert_array_equal(state.policy.theta[0], 0.0)

    def test_zero_actor_step_freezes_policy(self):
        env = make_bandit(3, 2, seed=0)
        pol = constant_policy(env.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(3))
        sch = Schedule("constant", 0.1, 0.0)
        noise = GaussianNoise(0.1)
        state = init_train_state(env, pol, feats, seed=3, algorithm="alg1", exploration=noise)
        for _ in range(200):
            alg1_step(state, env, feats, proc, sch, exploration=noise)
        for t in state.policy.theta:
            np.testing.assert_array_equal(t, 0.0)
        assert np.any(state.critic != 0.0)  # the critic did learn

    def test_optimum_is_stationary_without_noise(self):
        # At sum(theta) = target the reward is identically zero along the
        # noise-free trajectory, so nothing moves.
        env = make_bandit(2, 2, seed=1)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = env.target / 2.0
        pol.theta[1][:] = env.target / 2.0
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(2))
        sch = Schedule("constant", 0.1, 0.01)
        state = init_train_state(env, pol, feats, seed=4, algorithm="alg1")
        for _ in range(50):
            alg1_step(state, env, feats, proc, sch)
        np.testing.assert_array_equal(state.policy.theta[0], env.target / 2.0)
        np.testing.assert_array_equal(state.critic, 0.0)

    def test_consensus_mixes_critics(self):
        # One step on a complete graph leaves all critic rows equal.
        env = make_bandit(3, 1, seed=2)
        pol = constant_policy(env.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(3))
        sch = Schedule("constant", 0.1, 0.0)
        state = init_train_state(env, pol, feats, seed=5, algorithm="alg1")
        alg1_step(state, env, feats, proc, sch)
        np.testing.assert_allclose(state.critic[0], state.critic[1], atol=1e-14)
        np.testing.assert_allclose(state.critic[0], state.critic[2], atol=1e-14)


class TestAlg2Step:
    def test_hand_traced_scalar(self):
        # Bandit r = -16 at theta = 0 (target 4, unit cost), single constant
        # feature w = 1: delta = -16, lambda <- 0.1 * (-16) = -1.6, and the
        # next lambda is -1.6 + 0.1*(-16 + 1.6) = -3.04.
        env = ContinuousBandit(2, 1, np.array([[1.0]]), np.array([4.0]))
        pol = constant_policy(env.action_dims)
        feats = TabularFeatures(1, env.action_dims)
        proc = GraphProcess(complete_graph(2))
        sch = Schedule("constant", 0.1, 0.0)
        behavior = GaussianNoise(0.0)
        state = init_train_state(env, pol, feats, seed=0, algorithm="alg2", exploration=behavior)
        alg2_step(state, env, feats, proc, sch, behavior=behavior)
        np.testing.assert_allclose(state.critic, -1.6, atol=1e-12)
        alg2_step(state, env, feats, proc, sch, behavior=behavior)
        np.testing.assert_allclose(state.critic, -3.04, atol=1e-12)
        # jhat plays no role off-policy.
        np.testing.assert_array_equal(state.jhat, 0.0)

    def test_recurrence_replay(self):
        mdp = make_finite_mdp(3, 2, seed=4)
        pol = constant_policy(mdp.action_dims)
        feats = CompatibleRFeatures(pol, bias=True)
        proc = GraphProcess(complete_graph(2))
        c = metropolis_weights(complete_graph(2))
        sch = Schedule("constant", 0.15, 0.02)
        behavior = GaussianNoise(0.2)
        state = init_train_state(mdp, pol, feats, seed=9, algorithm="alg2", exploration=behavior)

        for _ in range(40):
            s_t = state.s
            a_t = state.actions.copy()
            lam_t = state.critic.copy()
            theta_t = [t.copy() for t in state.policy.theta]
            pol_snapshot = state.policy.copy()
            alg2_step(state, mdp, feats, proc, sch, behavior=behavior)

            snap_feats = CompatibleRFeatures(pol_snapshot, bias=True)
            r = mdp.local_rewards(s_t, a_t)
            w_feat = snap_feats.eval(s_t, a_t)
            delta = r - lam_t @ w_feat
            want_lam = c @ (lam_t + 0.15 * delta[:, None] * w_feat[None, :])
            np.testing.assert_allclose(state.critic, want_lam, atol=1e-12)
            # The compatible action-gradient does not depend on the action,
            # so taking it at mu_theta(s_t) leaves J^i(s).T @ (block of lam^i).
            starts = np.cumsum((0,) + pol_snapshot.param_dims)
            for i in range(2):
                jac = pol_snapshot.jac(i, s_t)
                gr = jac.T @ lam_t[i, starts[i] : starts[i + 1]]
                want_theta = theta_t[i] + 0.02 * jac @ gr
                np.testing.assert_allclose(state.policy.theta[i], want_theta, atol=1e-12)

    def test_behavior_noise_scale(self):
        # Actions hover around the (frozen) target policy at scale sigma.
        env = make_bandit(2, 3, seed=3)
        pol = constant_policy(env.action_dims)
        feats = CompatibleRFeatures(pol, bias=True)
        proc = GraphProcess(complete_graph(2))
        sch = Schedule("constant", 0.0, 0.0)
        behavior = GaussianNoise(0.5)
        state = init_train_state(env, pol, feats, seed=11, algorithm="alg2", exploration=behavior)
        draws = []
        for _ in range(500):
            alg2_step(state, env, feats, proc, sch, behavior=behavior)
            draws.append(state.actions.copy())
        draws = np.array(draws)
        assert abs(draws.std() - 0.5) < 0.05
        assert abs(draws.mean()) < 0.05


class TestStepSkeleton:
    """What alg1 and alg2 share one step body for, and where they differ."""

    def _setup(self, algorithm):
        mdp = make_finite_mdp(4, 2, seed=3)
        pol = affine_policy(mdp.state_count, mdp.action_dims)
        feats = FourierFeatures(mdp.state_count, mdp.action_dims, 8, seed=1)
        proc = GraphProcess(complete_graph(2))
        sch = Schedule("constant", 0.3, 0.2)
        state = init_train_state(mdp, pol, feats, seed=2, algorithm=algorithm)
        return state, (mdp, feats, proc, sch)

    @pytest.mark.parametrize("algorithm, other", [("alg1", alg2_step), ("alg2", alg1_step)])
    def test_state_of_the_other_algorithm_rejected(self, algorithm, other):
        state, args = self._setup(algorithm)
        with pytest.raises(ValueError, match="alg1.*alg2|alg2.*alg1"):
            other(state, *args)
        assert state.t == 0

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_next_action_draw_point(self, algorithm):
        # sigma = 0: alg1's next action is the pre-update mu(s'), alg2's the
        # post-update one, byte for byte; the actor must move for this to tell.
        state, args = self._setup(algorithm)
        step = alg1_step if algorithm == "alg1" else alg2_step
        moved = 0
        for _ in range(30):
            before = state.policy.copy()
            step(state, *args, GaussianNoise(0.0))
            pre, post = before.act(state.s), state.policy.act(state.s)
            moved += not np.array_equal(pre, post)
            want = pre if algorithm == "alg1" else post
            assert state.actions.tobytes() == want.tobytes()
        assert moved >= 20


class TestEvaluatePolicyCost:
    def test_bandit_exact(self):
        env = make_bandit(2, 2, seed=6)
        pol = constant_policy(env.action_dims)
        pol.theta[0][:] = np.array([1.0, 2.0])
        pol.theta[1][:] = np.array([0.5, -0.5])
        dev = pol.theta[0] + pol.theta[1] - env.target
        want = float(dev @ env.cost @ dev)
        assert evaluate_policy_cost(env, pol) == pytest.approx(want, abs=1e-12)

    def test_single_state_is_the_stationary_form(self):
        # A single state skips the chain solve; the float must not move.
        env = make_bandit(3, 2, seed=4)
        pol = constant_policy(env.action_dims, [np.array([0.3, -1.2])] * 3)
        d = stationary_distribution(env.transition_row(0, pol.act(0))[None, :])
        want = float(-(d @ np.array([env.mean_reward(0, pol.act(0))])))
        assert evaluate_policy_cost(env, pol) == want

    def test_hand_chain_exact(self):
        # J = 1 on the hand-solved chain, so the cost is -1.
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        z = np.zeros((2, 2))
        mdp = FiniteTestMdp(
            p0=p, p1=p, base=np.array([[3.0, 0.0], [0.0, 0.0]]), amp=z, offset=z, coef=z
        )
        pol = constant_policy(mdp.action_dims)
        assert evaluate_policy_cost(mdp, pol) == pytest.approx(-1.0, abs=1e-12)

    def test_rollout_approximates_exact(self):
        mdp = make_finite_mdp(3, 2, seed=8)
        pol = constant_policy(mdp.action_dims)
        exact = evaluate_policy_cost(mdp, pol)
        rolled = evaluate_policy_cost(mdp, pol, rollout_steps=60_000, rng=np.random.default_rng(0))
        assert abs(rolled - exact) < 0.02

    def test_rollout_on_bandit_is_exact(self):
        env = make_bandit(2, 1, seed=9)
        pol = constant_policy(env.action_dims)
        assert evaluate_policy_cost(env, pol, rollout_steps=10) == pytest.approx(
            evaluate_policy_cost(env, pol), abs=1e-12
        )


class TestCheckFinite:
    def _state(self):
        env = make_bandit(3, 2, seed=0)
        pol = constant_policy(env.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        state = init_train_state(env, pol, feats, seed=0, algorithm="alg1")
        state.critic[0, 0] = 0.5
        state.t = 32
        return state

    def test_finite_state_passes(self):
        self._state().check_finite()

    @pytest.mark.parametrize(
        "where, name",
        [("critic", "critic"), ("jhat", "jhat"), ("theta", "theta[1]")],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -2e8])
    def test_names_iterate_and_step(self, where, name, bad):
        # A NaN that is not the first iterate checked used to slip through.
        state = self._state()
        if where == "critic":
            state.critic[2, 1] = bad
        elif where == "jhat":
            state.jhat[1] = bad
        else:
            state.policy.theta[1][0] = bad
        with pytest.raises(Diverged, match=rf"^{re.escape(name)} magnitude .* at step 32$"):
            state.check_finite()


class TestRunExperiment:
    def base_config(self, **kw):
        defaults = dict(
            kind="bandit",
            algorithm="alg1",
            agents=3,
            action_dim=2,
            seeds=(0,),
            batches=5,
            output="unused.csv",
        )
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_row_bookkeeping(self):
        cfg = self.base_config()
        rows = run_experiment(cfg, 0)
        assert len(rows) == 6  # initial evaluation plus one row per batch
        assert [r.batch for r in rows] == list(range(6))
        assert rows[0].t == 0
        assert rows[-1].t == 5 * cfg.effective_batch_size
        assert all(r.run_id == "alg1-bandit-m2-s0" for r in rows)
        assert all(r.seed == 0 for r in rows)
        assert rows[0].actor_grad_norm == 0.0

    def test_all_seeds_concatenated(self):
        cfg = self.base_config(seeds=(0, 1))
        rows = run_experiment(cfg)
        assert len(rows) == 12
        assert {r.seed for r in rows} == {0, 1}

    def test_deterministic_given_seed(self):
        cfg = self.base_config(batches=8)
        a = run_experiment(cfg, 0)
        b = run_experiment(cfg, 0)
        for ra, rb in zip(a, b):
            assert ra.eval_cost == rb.eval_cost
            assert ra.mean_jhat == rb.mean_jhat
            assert ra.critic_disagreement == rb.critic_disagreement
            assert ra.actor_grad_norm == rb.actor_grad_norm

    def test_seeds_differ(self):
        cfg = self.base_config(batches=8)
        a = run_experiment(cfg, 0)
        b = run_experiment(cfg, 1)
        assert a[-1].eval_cost != b[-1].eval_cost

    def test_cost_decreases_on_bandit(self):
        cfg = self.base_config(
            batches=300, agents=2, action_dim=1, sigma=0.5, actor_step=0.05
        )
        rows = run_experiment(cfg, 0)
        assert rows[-1].eval_cost < 0.5 * rows[0].eval_cost

    def test_alg2_cost_decreases(self):
        cfg = self.base_config(
            algorithm="alg2", batches=300, agents=2, action_dim=1, sigma=0.5, actor_step=0.05
        )
        rows = run_experiment(cfg, 0)
        assert rows[-1].eval_cost < 0.5 * rows[0].eval_cost

    def test_online_mode(self):
        cfg = self.base_config(update_mode="online", batch_size=10, batches=4)
        rows = run_experiment(cfg, 0)
        assert len(rows) == 5
        assert rows[-1].t == 40

    def test_sigma0_alg1_bandit_is_degenerate(self):
        # The paper's claim: without exploration the on-policy algorithm is
        # degenerate.  Centered compatible features vanish at a = mu(s), so
        # the critic's action block stays zero and theta never moves.
        cfg = self.base_config(sigma=0.0, batches=20)
        for mode in ("batch", "online"):
            rows = run_experiment(dataclasses.replace(cfg, update_mode=mode), 0)
            assert [r.actor_grad_norm for r in rows] == [0.0] * 21
            assert {r.eval_cost for r in rows} == {rows[0].eval_cost}

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_online_row_norm_is_its_last_steps_direction(self, algorithm):
        # An online row reports |g| of the step that ends its batch, agent
        # norms added in agent order, with g replayed from the state before
        # that step.
        cfg = self.base_config(
            kind="finite-mdp", algorithm=algorithm, states=4, features="fourier",
            feature_count=20, update_mode="online", batch_size=5, batches=4,
            topology="ring", failure_prob=0.3,
        )
        rows = run_experiment(cfg, 0)
        mdp = build_mdp(cfg)
        pol = build_policy(cfg, mdp)
        feats = build_features(cfg, mdp, pol)
        proc = GraphProcess(build_graph(cfg), cfg.failure_prob, substream(0, "graph"))
        sch = Schedule(cfg.schedule, cfg.critic_step, cfg.actor_step)
        noise = GaussianNoise(cfg.sigma)
        state = init_train_state(mdp, pol, feats, seed=0, algorithm=algorithm, exploration=noise)
        step = alg1_step if algorithm == "alg1" else alg2_step
        ends = np.cumsum((0,) + pol.param_dims)
        want = []
        for t in range(1, 21):
            a = state.actions if algorithm == "alg1" else pol.act(state.s)
            g = _actor_direction(pol, feats, state.critic, state.s, a)
            step(state, mdp, feats, proc, sch, noise)
            if t % 5 == 0:
                blocks = [g[i:j] for i, j in zip(ends[:-1], ends[1:])]
                want.append(float(np.sqrt(sum(float(b @ b) for b in blocks))))
        assert [r.actor_grad_norm for r in rows[1:]] == want
        assert min(want) > 0.0

    def test_batch_restart_zeroes_critic(self):
        # With warm start the critic carries over; the two modes must differ.
        cold = self.base_config(batches=3)
        warm = self.base_config(batches=3, critic_warm_start=True)
        rows_cold = run_experiment(cold, 0)
        rows_warm = run_experiment(warm, 0)
        assert rows_cold[-1].eval_cost != rows_warm[-1].eval_cost

    def test_finite_mdp_run(self):
        cfg = self.base_config(
            kind="finite-mdp", states=3, agents=2, action_dim=1, batch_size=6, batches=4
        )
        rows = run_experiment(cfg, 0)
        assert len(rows) == 5
        assert all(np.isfinite(r.eval_cost) for r in rows)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self):
        cfg = self.base_config(
            update_mode="online",
            batch_size=50,
            batches=40,
            actor_step=1e5,
            critic_step=0.5,
            sigma=0.5,
            feature_centered=False,
            proj_lo=-1e12,
            proj_hi=1e12,
        )
        with pytest.raises(Diverged):
            run_experiment(cfg, 0)

    def test_comm_accounting(self):
        # Complete graph on 3 agents: 6 directed edges; compatible features
        # of dimension 2*3+1=7 plus the per-step Jacobian exchange
        # (sum_i param_dim_i * action_dim_i = 3 * 2 * 2 = 12 scalars).
        env = make_bandit(3, 2, seed=0)
        pol = constant_policy(env.action_dims)
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        proc = GraphProcess(complete_graph(3))
        sch = Schedule("constant", 0.1, 0.01)
        state = init_train_state(env, pol, feats, seed=0, algorithm="alg1")
        for _ in range(10):
            alg1_step(state, env, feats, proc, sch)
        assert state.comm_scalars == 10 * (7 * 6 + 12)


class TestBuildGraph:
    def test_named_topologies(self):
        for name, edges in (
            ("complete", 3),
            ("path", 2),
            ("ring", 3),
            ("star", 2),
            ("edgeless", 0),
        ):
            cfg = RunConfig(kind="bandit", agents=3, topology=name)
            assert len(build_graph(cfg).edges) == edges

    def test_edgelist_file(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n")
        cfg = RunConfig(kind="bandit", agents=3, topology=f"edgelist:{path}")
        g = build_graph(cfg)
        assert g.edges == ((0, 1), (1, 2))
        assert g.n == 3
