"""Feature maps: values, action gradients, batch paths, and the linear
critic ``features.eval(s, a) @ w`` built on them."""

import numpy as np
import pytest

from netdac.approx import (
    CompatibleQFeatures,
    CompatibleRFeatures,
    FourierFeatures,
    TabularFeatures,
)
from netdac.errors import DimensionMismatch
from netdac.policy import affine_policy, constant_policy

_FD = 1e-6


def _fd_critic_grad(features, s, actions, dims, critic):
    """Central differences of phi . critic[i] in each of agent i's action coordinates."""
    agent = np.repeat(np.arange(len(dims)), dims)
    out = np.zeros(sum(dims))
    for k in range(out.size):
        hi, lo = actions.copy(), actions.copy()
        hi[k] += _FD
        lo[k] -= _FD
        out[k] = (features.eval(s, hi) - features.eval(s, lo)) @ critic[agent[k]] / (2 * _FD)
    return out


def _rand_actions(rng, dims):
    """A flat joint action for agents with the given action dimensions."""
    return rng.standard_normal(sum(dims))


class TestCompatibleQFeatures:
    def test_uncentered_constant_policy_value(self):
        # With identity Jacobians and no centering, phi is just the flat action.
        pol = constant_policy((2, 1))
        feats = CompatibleQFeatures(pol, centered=False, bias=False)
        phi = feats.eval(0, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(phi, [1.0, 2.0, 3.0])

    def test_centered_vanishes_at_policy_action(self):
        pol = constant_policy((2, 2))
        pol.theta[0][:] = np.array([1.0, -1.0])
        pol.theta[1][:] = np.array([0.5, 0.5])
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        phi = feats.eval(0, pol.act(0))
        np.testing.assert_array_equal(phi[:-1], np.zeros(4))
        assert phi[-1] == 1.0  # the constant feature

    def test_dim_accounts_for_bias(self):
        pol = constant_policy((2, 3))
        assert CompatibleQFeatures(pol, bias=False).dim == 5
        assert CompatibleQFeatures(pol, bias=True).dim == 6

    def test_gradient_identity(self):
        # Agent i's action-gradient of its fitted critic must equal its policy
        # Jacobian applied to its own weight block — the property that makes
        # these features 'compatible' with the actor update.  The dense
        # product adds exact zeros only, so the gather must match it bitwise.
        rng = np.random.default_rng(0)
        for pol in (affine_policy(n_states=3, action_dims=(2, 1)), constant_policy((2, 1))):
            pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
            feats = CompatibleQFeatures(pol, centered=True, bias=True)
            critic = rng.standard_normal((2, feats.dim))
            acts = _rand_actions(rng, (2, 1))
            starts = np.cumsum((0,) + pol.param_dims)
            want = np.concatenate(
                [pol.jac(i, 1).T @ critic[i, starts[i] : starts[i + 1]] for i in range(2)]
            )
            assert feats.grad_action(1, acts, critic).tobytes() == want.tobytes()

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        pol = affine_policy(n_states=2, action_dims=(2, 3))
        pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
        for feats in (
            CompatibleQFeatures(pol, centered=False, bias=False),
            CompatibleQFeatures(pol, centered=True, bias=True),
            CompatibleRFeatures(pol, bias=True),
        ):
            acts = _rand_actions(rng, (2, 3))
            critic = rng.standard_normal((2, feats.dim))
            for s in range(2):
                np.testing.assert_allclose(
                    feats.grad_action(s, acts, critic),
                    _fd_critic_grad(feats, s, acts, (2, 3), critic),
                    atol=1e-8,
                )

    def test_eval_batch_matches_eval(self):
        rng = np.random.default_rng(2)
        pol = affine_policy(n_states=2, action_dims=(2, 1))
        pol.set_theta_flat(rng.standard_normal(pol.total_param_dim))
        feats = CompatibleQFeatures(pol, centered=True, bias=True)
        flat = rng.standard_normal((7, 3))
        batch = feats.eval_batch(1, flat)
        assert batch.shape == (7, feats.dim)
        for t in range(7):
            np.testing.assert_array_equal(batch[t], feats.eval(1, flat[t]))

    def test_value_offset_only_under_centering(self):
        # Centering shifts values, never action gradients.
        rng = np.random.default_rng(3)
        pol = constant_policy((2,))
        pol.theta[0][:] = np.array([0.7, -0.2])
        w = rng.standard_normal((1, 2))
        plain = CompatibleQFeatures(pol, centered=False, bias=False)
        cent = CompatibleQFeatures(pol, centered=True, bias=False)
        acts = rng.standard_normal(2)
        np.testing.assert_allclose(
            plain.grad_action(0, acts, w), cent.grad_action(0, acts, w), atol=1e-14
        )
        assert plain.eval(0, acts) @ w[0] != pytest.approx(cent.eval(0, acts) @ w[0])

    def test_shape_errors(self):
        pol = constant_policy((2, 1))
        feats = CompatibleQFeatures(pol)
        with pytest.raises(DimensionMismatch):
            feats.eval(0, np.zeros(2))
        with pytest.raises(DimensionMismatch):
            feats.eval(0, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            feats.eval_batch(0, np.zeros((5, 2)))


class TestCompatibleRFeatures:
    def test_always_centered(self):
        pol = constant_policy((3,))
        pol.theta[0][:] = np.array([1.0, 2.0, 3.0])
        feats = CompatibleRFeatures(pol, bias=False)
        np.testing.assert_array_equal(feats.eval(0, pol.act(0)), np.zeros(3))
        np.testing.assert_array_equal(
            feats.eval(0, np.array([2.0, 2.0, 3.0])), [1.0, 0.0, 0.0]
        )


class TestFourierFeatures:
    def test_bounded_and_deterministic(self):
        feats = FourierFeatures(3, (2, 1), dim=8, seed=4)
        again = FourierFeatures(3, (2, 1), dim=8, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = int(rng.integers(3))
            acts = _rand_actions(rng, (2, 1))
            phi = feats.eval(s, acts)
            assert phi.shape == (8,)
            assert np.all(np.abs(phi) <= 1.0)
            np.testing.assert_array_equal(phi, again.eval(s, acts))
        assert np.any(
            FourierFeatures(3, (2, 1), dim=8, seed=6).eval(0, np.zeros(3))
            != feats.eval(0, np.zeros(3))
        )

    def test_state_sensitivity(self):
        feats = FourierFeatures(2, (1,), dim=6, seed=0)
        acts = np.array([0.3])
        assert np.any(feats.eval(0, acts) != feats.eval(1, acts))

    def test_gradients_match_fd(self):
        feats = FourierFeatures(2, (2, 2), dim=5, seed=1)
        rng = np.random.default_rng(6)
        for _ in range(5):
            acts = _rand_actions(rng, (2, 2))
            critic = rng.standard_normal((2, feats.dim))
            np.testing.assert_allclose(
                feats.grad_action(1, acts, critic),
                _fd_critic_grad(feats, 1, acts, (2, 2), critic),
                atol=1e-7,
            )

    def test_eval_batch_matches_eval(self):
        feats = FourierFeatures(2, (2, 1), dim=4, seed=2)
        rng = np.random.default_rng(7)
        flat = rng.standard_normal((6, 3))
        batch = feats.eval_batch(0, flat)
        for t in range(6):
            np.testing.assert_allclose(
                batch[t], feats.eval(0, flat[t]), atol=1e-12
            )

    def test_state_range_checked(self):
        feats = FourierFeatures(2, (1,), dim=3, seed=0)
        with pytest.raises(IndexError):
            feats.eval(2, np.zeros(1))
        with pytest.raises(DimensionMismatch):
            feats.eval(0, np.zeros(2))


class TestTabularFeatures:
    def test_one_hot(self):
        feats = TabularFeatures(4, (1,))
        np.testing.assert_array_equal(feats.eval(2, np.zeros(1)), [0, 0, 1, 0])
        assert feats.dim == 4

    def test_zero_action_gradient(self):
        feats = TabularFeatures(3, (2, 1))
        critic = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(feats.grad_action(1, np.zeros(3), critic), np.zeros(3))

    def test_state_range_checked(self):
        feats = TabularFeatures(2, (1,))
        with pytest.raises(IndexError):
            feats.eval(5, np.zeros(1))

