"""Property tests for the flat joint action and the flat parameter vector at
their edges (one agent, agents with different action dimensions, constant
and affine policies), for the exact row forms and the frozen-actor critic
segment built on them, for the finite MDP's transition sampler, for the
joint environment action-gradients and the exact policy gradient built on
them, for the pairwise critic disagreement, and for divergence detection in
the training loops."""

import copy
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from netdac.approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FourierFeatures,
    TabularFeatures,
)
from netdac.dac import (
    Schedule,
    TrainState,
    _actor_direction,
    _critic_segment,
    alg1_step,
    alg2_step,
    init_train_state,
)
from netdac.env import (
    ContinuousBandit,
    NetworkedMdp,
    _sigmoid,
    bandit_reward_grad,
    make_bandit,
    make_finite_mdp,
)
from netdac.errors import Diverged
from netdac.network import (
    CommGraph,
    GraphProcess,
    complete_graph,
    metropolis_weights,
    ring_graph,
)
from netdac.oracle import exact_eval, exact_policy_gradient
from netdac.policy import GaussianNoise, affine_policy, constant_policy

_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def policy_cases(draw):
    """(policy with random parameters, a state, a seeded generator)."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    n_states = draw(st.integers(1, 3))
    pol = affine_policy(n_states, dims) if draw(st.booleans()) else constant_policy(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
    return pol, draw(st.integers(0, pol.n_states - 1)), rng


def _blockdiag(pol, s):
    """The stacked policy Jacobian, built densely from the per-agent blocks."""
    out = np.zeros((pol.total_param_dim, sum(pol.action_dims)))
    r = c = 0
    for i in range(pol.agent_count):
        block = pol.jac(i, s)
        out[r : r + block.shape[0], c : c + block.shape[1]] = block
        r += block.shape[0]
        c += block.shape[1]
    return out


def _act_agent_reference(pol, i, s):
    """mu^i(s) computed from theta^i alone: theta^i, or W^i[:, s] + b^i."""
    t, n = pol.theta[i], pol.action_dims[i]
    if pol.form == "constant":
        return t.copy()
    return t[: n * pol.n_states].reshape(n, pol.n_states)[:, s] + t[n * pol.n_states :]


@_SETTINGS
@given(policy_cases())
def test_act_concatenates_agents_in_order(case):
    pol, s, _ = case
    want = np.concatenate([_act_agent_reference(pol, i, s) for i in range(pol.agent_count)])
    assert pol.act(s).tobytes() == want.tobytes()
    for i in range(pol.agent_count):
        assert pol.act_agent(i, s).tobytes() == _act_agent_reference(pol, i, s).tobytes()


@_SETTINGS
@given(policy_cases())
def test_theta_views_stay_live(case):
    pol, s, rng = case
    for i in range(pol.agent_count):
        assert np.shares_memory(pol.theta[i], pol.params)
        pol.theta[i][:] = rng.standard_normal(pol.param_dim(i))
    assert pol.params.tobytes() == np.concatenate(pol.theta).tobytes()
    want = np.concatenate([_act_agent_reference(pol, i, s) for i in range(pol.agent_count)])
    assert pol.act(s).tobytes() == want.tobytes()
    views = pol.theta
    flat = rng.standard_normal(pol.total_param_dim)
    pol.set_theta_flat(flat)
    assert all(a is b for a, b in zip(pol.theta, views))
    assert np.concatenate(views).tobytes() == flat.tobytes()
    got = pol.theta_flat()
    got[:] = 0.0  # a copy, not the parameters themselves
    assert pol.params.tobytes() == flat.tobytes()


@_SETTINGS
@given(policy_cases())
def test_theta_entries_cannot_be_rebound(case):
    pol, _, _ = case
    with pytest.raises(TypeError):
        pol.theta[0] = np.zeros(pol.param_dim(0))


@_SETTINGS
@given(policy_cases())
def test_copy_is_independent(case):
    pol, s, rng = case
    dup = pol.copy()
    assert dup.params.tobytes() == pol.params.tobytes()
    assert not np.shares_memory(dup.params, pol.params)
    before = pol.act(s)
    dup.set_theta_flat(rng.standard_normal(pol.total_param_dim))
    dup.theta[0][:] = 1.0
    assert pol.act(s).tobytes() == before.tobytes()


def _fourier_agent_grads(feats, s, a, critic):
    """-(W[:, cols_i] * sin(W x + b)).T @ critic[i] for each agent i, from the map's draw."""
    x = np.zeros(feats.n_states + a.size)
    x[s] = 1.0
    x[feats.n_states :] = a
    sin = np.sin(feats._w @ x + feats._b)
    cols = feats.n_states + np.cumsum((0,) + feats.action_dims)
    return [
        -(feats._w[:, cols[i] : cols[i + 1]] * sin[:, None]).T @ critic[i]
        for i in range(len(critic))
    ]


@_SETTINGS
@given(policy_cases(), st.sampled_from(["compatible", "fourier"]), st.integers(1, 40))
def test_flat_actor_direction_is_per_agent_jacobian_product(case, family, k):
    # Each agent's critic action-gradient is one dense product under its own
    # weights (compatible: jac(i, s).T on its weight block); the joint
    # gradient and the actor direction must match them bitwise.  Fourier
    # widths K run across the dot kernels' 16-wide unroll.
    pol, s, rng = case
    a = rng.standard_normal(sum(pol.action_dims))
    if family == "compatible":
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        critic = rng.standard_normal((pol.agent_count, feats.dim))
        starts = np.cumsum((0,) + pol.param_dims)
        grads = [
            pol.jac(i, s).T @ critic[i, starts[i] : starts[i + 1]]
            for i in range(pol.agent_count)
        ]
    else:
        feats = FourierFeatures(pol.n_states, pol.action_dims, k, seed=1)
        critic = rng.standard_normal((pol.agent_count, feats.dim))
        grads = _fourier_agent_grads(feats, s, a, critic)
    assert feats.grad_action(s, a, critic).tobytes() == np.concatenate(grads).tobytes()
    want = np.concatenate([pol.jac(i, s) @ g for i, g in enumerate(grads)])
    assert _actor_direction(pol, feats, critic, s, a).tobytes() == want.tobytes()


@_SETTINGS
@given(policy_cases(), st.booleans(), st.booleans())
def test_compatible_eval_is_blockdiag_product(case, centered, bias):
    pol, s, rng = case
    feats = CompatibleQFeatures(pol, centered=centered, bias=bias)
    a = rng.standard_normal(sum(pol.action_dims))
    want = _blockdiag(pol, s) @ (a - pol.act(s) if centered else a)
    if bias:
        want = np.append(want, 1.0)
    np.testing.assert_array_equal(feats.eval(s, a), want)


@_SETTINGS
@given(policy_cases(), st.booleans(), st.booleans(), st.integers(1, 5))
def test_eval_batch_rows_equal_eval(case, centered, bias, t):
    pol, s, rng = case
    feats = CompatibleQFeatures(pol, centered=centered, bias=bias)
    batch = rng.standard_normal((t, sum(pol.action_dims)))
    got = feats.eval_batch(s, batch)
    assert got.shape == (t, feats.dim)
    assert got.flags.f_contiguous  # the layout the oracles' BLAS sums rely on
    for row, a in zip(got, batch):
        assert row.tobytes() == feats.eval(s, a).tobytes()


@_SETTINGS
@given(
    policy_cases(),
    st.sampled_from(["q-centered", "q-plain", "r-bias", "fourier", "tabular"]),
    st.integers(1, 6),
)
def test_eval_rows_equal_eval(case, family, t):
    # Per-row states through the compatible maps' one scatter, and the base
    # loop for the others: every row is eval's bytes, in a C-contiguous block.
    pol, _, rng = case
    if family == "fourier":
        feats = FourierFeatures(pol.n_states, pol.action_dims, 5, seed=2)
    elif family == "tabular":
        feats = TabularFeatures(pol.n_states, pol.action_dims)
    elif family == "r-bias":
        feats = CompatibleRFeatures(pol, bias=True)
    else:
        feats = CompatibleQFeatures(pol, centered=family == "q-centered", bias=False)
    states = [int(x) for x in rng.integers(0, pol.n_states, size=t)]
    acts = list(rng.standard_normal((t, sum(pol.action_dims))))
    got = feats.eval_rows(states, acts)
    assert got.shape == (t, feats.dim) and got.flags.c_contiguous
    for row, s, a in zip(got, states, acts):
        assert row.tobytes() == feats.eval(s, a).tobytes()


@_SETTINGS
@given(
    st.integers(1, 10),
    st.integers(1, 50),
    st.integers(1, 100),
    st.floats(-3.0, 3.0),
    st.integers(0, 2**16),
)
def test_local_rewards_rows_equal_local_rewards(agents, m, t, log_scale, seed):
    # Up to 50 action dimensions: past the 16-wide unroll of numpy's dot kernels.
    rng = np.random.default_rng(seed)
    for env in (make_bandit(agents, m, seed=seed), make_finite_mdp(3, agents, seed=seed)):
        n = sum(env.action_dims)
        states = [int(x) for x in rng.integers(0, env.state_count, size=t)]
        acts = list(rng.normal(0.0, 10.0**log_scale, size=(t, n)))
        got = env.local_rewards_rows(states, acts)
        assert got.shape == (t, agents)
        for row, s, a in zip(got, states, acts):
            assert row.tobytes() == env.local_rewards(s, a).tobytes()


def _cube_disagreement(critic) -> float:
    """The max over the (N, N, K) cube of pairwise critic differences."""
    diffs = critic[:, None, :] - critic[None, :, :]
    return float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", diffs, diffs))))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 260),
    st.sampled_from([1e-3, 1.0, 1e3, 1e160]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_pairwise_disagreement_is_the_cube_form(n, k, scale, seed, non_finite):
    rng = np.random.default_rng(seed)
    critic = rng.normal(0.0, scale, size=(n, k))
    if non_finite:
        critic.flat[rng.integers(0, n * k, size=2)] = rng.choice([np.inf, -np.inf, np.nan], 2)
    with np.errstate(invalid="ignore", over="ignore"):
        got = TrainState(None, critic, None, 0, 0, None, {}).critic_disagreement
        want = _cube_disagreement(critic)
    # float.hex is bit for bit on numbers and spells every NaN alike, as the
    # CSV does.
    assert got.hex() == want.hex()
    if n == 1 and not non_finite:
        assert got == 0.0


@st.composite
def segment_cases(draw):
    """(algorithm, env, features, graph process, schedule, noise, state) for a segment."""
    algorithm = draw(st.sampled_from(["alg1", "alg2"]))
    agents = draw(st.integers(1, 3))
    if draw(st.booleans()):
        env = make_bandit(agents, draw(st.integers(1, 2)), seed=draw(st.integers(0, 9)))
        pol = constant_policy(env.action_dims)
    else:
        env = make_finite_mdp(3, agents, seed=draw(st.integers(0, 9)))
        pol = affine_policy(env.state_count, env.action_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pol.set_theta_flat(rng.uniform(-1.0, 1.0, pol.total_param_dim))
    family = draw(st.sampled_from(["compatible", "fourier", "tabular"]))
    if family == "fourier":
        feats = FourierFeatures(env.state_count, env.action_dims, 4, seed=1)
    elif family == "tabular":
        feats = TabularFeatures(env.state_count, env.action_dims)
    elif algorithm == "alg1":
        feats = CompatibleQFeatures(pol, centered=draw(st.booleans()), bias=draw(st.booleans()))
    else:
        feats = CompatibleRFeatures(pol, bias=draw(st.booleans()))
    failure = draw(st.sampled_from([0.0, 0.3]))
    graph = ring_graph(agents) if agents > 2 else complete_graph(agents)
    proc = GraphProcess(graph, failure, np.random.default_rng(5))
    if draw(st.booleans()):
        sch = Schedule("polynomial", critic=0.5, actor=0.05, critic_pow=0.6, actor_pow=0.9)
    else:
        sch = Schedule("constant", 0.2, 0.05)
    noise = GaussianNoise(draw(st.sampled_from([0.0, 0.3])))
    state = init_train_state(env, pol, feats, seed=3, algorithm=algorithm, exploration=noise)
    step = alg1_step if algorithm == "alg1" else alg2_step
    # A few steps first, so the segment starts at t > 0 with the policy moved,
    # and (actor off last) with alg1's phi carried over.
    warm_actor = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        step(state, env, feats, proc, sch, noise, update_actor=warm_actor)
    return algorithm, env, feats, proc, sch, noise, state


def _snapshot(state, proc) -> list:
    rngs = [state.rngs[k].bit_generator.state for k in sorted(state.rngs)]
    phi = None if state.phi is None else state.phi.tobytes()
    return [
        state.critic.tobytes(),
        state.jhat.tobytes(),
        state.t,
        state.s,
        state.actions.tobytes(),
        phi,
        state.comm_scalars,
        state.policy.params.tobytes(),
        rngs,
        proc.rng.bit_generator.state,
    ]


@_SETTINGS
@given(segment_cases(), st.integers(1, 20))
def test_segment_equals_one_step_calls(case, steps):
    # One frozen-actor segment of T steps against T one-step calls on a copy
    # of the same state: the same bytes in every field and every generator.
    algorithm, env, feats, proc, sch, noise, state = case
    # One deepcopy keeps the compatible maps' policy shared with the state's.
    twin_state, twin_proc, twin_feats = copy.deepcopy((state, proc, feats))
    step = alg1_step if algorithm == "alg1" else alg2_step
    want_samples = []
    for _ in range(steps):
        want_samples.append((twin_state.s, twin_state.actions))
        step(twin_state, env, twin_feats, twin_proc, sch, noise, update_actor=False)
    samples = _critic_segment(state, env, feats, proc, sch, noise, False, algorithm, steps)
    assert _snapshot(state, proc) == _snapshot(twin_state, twin_proc)
    assert [(s, a.tobytes()) for s, a in samples] == [
        (s, a.tobytes()) for s, a in want_samples
    ]


def _clip_sigmoid(u):
    """The logistic gate in its np.clip form."""
    return 1.0 / (1.0 + np.exp(-np.clip(u, -60.0, 60.0)))


@_SETTINGS
@given(st.floats(-70.0, 70.0), st.integers(0, 2**16))
def test_sigmoid_is_the_clip_form(u, seed):
    us = np.concatenate([[u, -60.0, 60.0, -0.0], np.random.default_rng(seed).uniform(-70, 70, 500)])
    for v in us.tolist():
        assert np.float64(_sigmoid(v)).tobytes() == np.float64(_clip_sigmoid(v)).tobytes()


@_SETTINGS
@given(st.integers(2, 8), st.floats(0.05, 0.95), st.integers(0, 2**16))
def test_link_failures_fold_in_edge_order(n, p, seed):
    # Each failed edge's weight moves onto its two diagonals, edge by edge in
    # edge order, on random graphs whose Metropolis weights differ by edge.
    rng = np.random.default_rng(seed)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6)
    proc = GraphProcess(CommGraph(n, edges), p, np.random.default_rng([seed, 1]))
    want_rng = np.random.default_rng([seed, 1])
    for _ in range(10):
        want = metropolis_weights(proc.base)
        for (i, j), r in zip(edges, want_rng.random(len(edges))):
            if r < p:
                want[i, i] += want[i, j]
                want[j, j] += want[j, i]
                want[i, j] = want[j, i] = 0.0
        assert proc.sample_weights().tobytes() == want.tobytes()


class _FixedDraw:
    """A generator stand-in whose ``random()`` returns one given value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@_SETTINGS
@given(st.integers(2, 9), st.integers(1, 10), st.floats(-90.0, 90.0), st.integers(0, 2**16))
def test_transition_draws_the_cumsum_searchsorted_state(states, agents, total, seed):
    # The same next states from the same generator stream as inverse-CDF
    # sampling with np.cumsum and searchsorted(side="right") on the gate's
    # np.clip form; action sums beyond +-60 make the clamp bind.  Draws that
    # land on a CDF value (and on its end) pin the side and the last state.
    env = make_finite_mdp(states, agents, seed=seed % 7)
    rng = np.random.default_rng(seed)
    got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    for step in range(20):
        a = total / agents + rng.standard_normal(agents)
        s = step % states
        g = _clip_sigmoid(float(np.add.accumulate(a)[-1]))
        cdf = np.cumsum((1.0 - g) * env.p0[s] + g * env.p1[s])
        ends = [(c / cdf[-1], _FixedDraw(c / cdf[-1])) for c in cdf]
        for draw, gen in [(want_rng.random(), got_rng)] + ends:
            want = int(min(np.searchsorted(cdf, draw * cdf[-1], side="right"), states - 1))
            got = env.transition(s, a, gen)
            assert type(got) is int and got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _per_agent_grads(env, s, acts, values):
    """Agent i's d Rbar / d a^i and d (P . values) / d a^i, one agent at a time."""
    if isinstance(env, ContinuousBandit):
        zero = np.zeros((env.action_dim, 1))
        return [(bandit_reward_grad(env, acts, i), zero @ values) for i in range(env.agent_count)]
    g = _sigmoid(float(np.add.accumulate(acts)[-1]))
    jac = (g * (1.0 - g) * (env.p1[s] - env.p0[s]))[None, :]
    sech2 = 1.0 - np.tanh(env.offset[:, s] + env.coef @ acts) ** 2
    return [
        (np.array([float(np.mean(env.amp[:, s] * sech2 * env.coef[:, i]))]), jac @ values)
        for i in range(env.agent_count)
    ]


@st.composite
def gradient_cases(draw):
    """(environment, policy with parameters up to +-5, a value vector) on both environments."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    agents = draw(st.integers(1, 12))
    if draw(st.booleans()):
        env = make_bandit(agents, draw(st.integers(1, 20)), seed=draw(st.integers(0, 99)))
        pol = constant_policy(env.action_dims)
    else:
        states = draw(st.integers(2, 20))
        env = make_finite_mdp(states, agents, seed=draw(st.integers(0, 99)))
        form = draw(st.sampled_from([affine_policy, constant_policy]))
        pol = form(states, env.action_dims) if form is affine_policy else form(env.action_dims)
    scale = draw(st.floats(0.1, 5.0))
    pol.set_theta_flat(rng.uniform(-scale, scale, pol.total_param_dim))
    return env, pol, rng.standard_normal(env.state_count)


@_SETTINGS
@given(gradient_cases())
def test_joint_gradients_are_the_per_agent_formulas(case):
    # Parameters up to +-5 saturate tanh and, summed over up to 12 agents,
    # make the gate's clamp bind.
    env, pol, values = case
    ev = exact_eval(env, pol)
    want_pg = np.zeros(pol.total_param_dim)
    for s in range(env.state_count):
        acts = pol.act(s)
        pairs = _per_agent_grads(env, s, acts, values)
        want_r = np.concatenate([r for r, _ in pairs])
        assert env.reward_grad_action(s, acts).tobytes() == want_r.tobytes()
        want_t = np.concatenate([t for _, t in pairs])
        assert env.transition_grad_action(s, acts, values).tobytes() == want_t.tobytes()
        q = np.concatenate([r + t for r, t in _per_agent_grads(env, s, acts, ev.bias)])
        want_pg += ev.stationary[s] * pol.jac_apply(s, q, np.zeros(pol.total_param_dim))
    assert exact_policy_gradient(env, pol).tobytes() == want_pg.tobytes()


@_SETTINGS
@given(policy_cases())
def test_zero_sigma_perturb_copies_and_draws_nothing(case):
    pol, s, rng = case
    a = pol.act(s)
    before = rng.bit_generator.state
    out = GaussianNoise(0.0).perturb(a, rng)
    assert out is not a
    assert out.tobytes() == a.tobytes()
    assert rng.bit_generator.state == before


class _RewardsTurnBad:
    """An environment whose local rewards all read ``bad`` from its ``start``-th call on."""

    def __init__(self, env, start, bad):
        self._env, self._start, self._bad, self._calls = env, start, bad, 0

    def __getattr__(self, name):
        return getattr(self._env, name)

    def local_rewards(self, s, actions):
        r = self._env.local_rewards(s, actions)
        self._calls += 1
        return r if self._calls <= self._start else np.full_like(r, self._bad)

    # Row by row through the wrapper, so each row counts as one call.
    local_rewards_rows = NetworkedMdp.local_rewards_rows


@_SETTINGS
@given(
    st.sampled_from(["alg1", "alg2"]),
    st.booleans(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(0, 40),
    st.booleans(),
)
def test_bad_reward_raises_diverged_naming_critic_and_step(algorithm, bandit, bad, start, batch):
    env = make_bandit(2, 2, seed=1) if bandit else make_finite_mdp(3, 2, seed=1)
    env = _RewardsTurnBad(env, start, bad)
    if bandit:
        pol = constant_policy(env.action_dims)
    else:
        pol = affine_policy(env.state_count, env.action_dims)
    if algorithm == "alg1":
        feats, step = CompatibleQFeatures(pol, centered=True, bias=True), alg1_step
    else:
        feats, step = CompatibleRFeatures(pol, bias=True), alg2_step
    noise = GaussianNoise(0.1)
    proc = GraphProcess(complete_graph(2))
    sch = Schedule("constant", 0.1, 0.01)
    state = init_train_state(env, pol, feats, seed=0, algorithm=algorithm, exploration=noise)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(Diverged) as err:
        if batch:
            # One batch-mode segment takes all its rewards as one block first.
            _critic_segment(state, env, feats, proc, sch, noise, False, algorithm, start + 17)
        else:
            for _ in range(start + 17):
                step(state, env, feats, proc, sch, noise)
    # The step with index ``start`` reads the first bad reward; the critic is
    # the first iterate checked, and the check runs every 16 steps.
    assert start < state.t <= start + 16
    assert re.fullmatch(rf"critic magnitude \S+ at step {state.t}", str(err.value))

