"""Property tests for the flat joint action and the flat parameter vector at
their edges: one agent, agents with different action dimensions, constant
and affine policies."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from netdac.approx import CompatibleQFeatures, FourierFeatures
from netdac.dac import _actor_direction
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


@_SETTINGS
@given(policy_cases(), st.sampled_from(["compatible", "fourier"]))
def test_flat_actor_direction_is_per_agent_jacobian_product(case, family):
    pol, s, rng = case
    if family == "compatible":
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
    else:
        feats = FourierFeatures(pol.n_states, pol.action_dims, 16, seed=1)
    critic = rng.standard_normal((pol.agent_count, feats.dim))
    a = rng.standard_normal(sum(pol.action_dims))
    want = np.concatenate(
        [
            pol.jac(i, s) @ (feats.grad_action(s, a, i) @ critic[i])
            for i in range(pol.agent_count)
        ]
    )
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
@given(policy_cases())
def test_zero_sigma_perturb_copies_and_draws_nothing(case):
    pol, s, rng = case
    a = pol.act(s)
    before = rng.bit_generator.state
    out = GaussianNoise(0.0).perturb(a, rng)
    assert out is not a
    assert out.tobytes() == a.tobytes()
    assert rng.bit_generator.state == before
