"""Policy sets: evaluation, Jacobians, parameter round-trips, exploration."""

import numpy as np
import pytest

from netdac.errors import DimensionMismatch
from netdac.policy import GaussianNoise, PolicySet, affine_policy, constant_policy


class TestConstantPolicy:
    def test_action_is_parameter(self):
        pol = constant_policy((2, 3))
        pol.theta[0][:] = np.array([1.0, -1.0])
        pol.theta[1][:] = np.array([0.5, 0.0, 2.0])
        np.testing.assert_array_equal(pol.act_agent(0, 0), [1.0, -1.0])
        np.testing.assert_array_equal(pol.act_agent(1, 0), [0.5, 0.0, 2.0])
        # The joint action is one flat vector, agents in order.
        acts = pol.act(0)
        np.testing.assert_array_equal(acts, [1.0, -1.0, 0.5, 0.0, 2.0])
        acts[0] = 9.0  # a fresh array, not a view of theta
        assert pol.theta[0][0] == 1.0

    def test_jacobian_is_identity(self):
        pol = constant_policy((2, 3))
        np.testing.assert_array_equal(pol.jac(0, 0), np.eye(2))
        np.testing.assert_array_equal(pol.jac(1, 0), np.eye(3))

    def test_param_dims(self):
        pol = constant_policy((4, 1))
        assert pol.param_dims == (4, 1)
        assert pol.total_param_dim == 5


class TestAffinePolicy:
    def make(self):
        pol = affine_policy(n_states=3, action_dims=(2,))
        # theta = (vec of W rows, then intercept b); W is 2 x 3.
        pol.theta[0][:] = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 20.0])
        return pol

    def test_action_values(self):
        pol = self.make()
        # mu(s) = W[:, s] + b.
        np.testing.assert_array_equal(pol.act_agent(0, 0), [11.0, 24.0])
        np.testing.assert_array_equal(pol.act_agent(0, 2), [13.0, 26.0])
        np.testing.assert_array_equal(pol.act(2), [13.0, 26.0])

    def test_jacobian_matches_fd(self):
        pol = self.make()
        h = 1e-6
        for s in range(3):
            jac = pol.jac(0, s)
            fd = np.zeros_like(jac)
            flat0 = pol.theta_flat()
            for p in range(flat0.size):
                hi = flat0.copy()
                lo = flat0.copy()
                hi[p] += h
                lo[p] -= h
                pol.set_theta_flat(hi)
                up = pol.act_agent(0, s)
                pol.set_theta_flat(lo)
                dn = pol.act_agent(0, s)
                pol.set_theta_flat(flat0)
                fd[p] = (up - dn) / (2 * h)
            np.testing.assert_allclose(jac, fd, atol=1e-9)

    def test_blockdiag_stacks_jacobians(self):
        # The block-diagonal Jacobian, recovered by applying it to unit actions.
        pol = affine_policy(n_states=2, action_dims=(1, 2))
        jbd = pol.jac_apply(1, np.eye(3), np.zeros((3, pol.total_param_dim))).T
        # Every entry is 0 or 1, with at most one 1 per parameter row.
        assert set(np.unique(jbd).tolist()) <= {0.0, 1.0}
        assert (jbd.sum(axis=1) <= 1).all()
        np.testing.assert_array_equal(jbd[: pol.param_dim(0), :1], pol.jac(0, 1))
        np.testing.assert_array_equal(jbd[pol.param_dim(0) :, 1:], pol.jac(1, 1))
        # Off-diagonal blocks vanish: no agent's parameters move another's action.
        np.testing.assert_array_equal(jbd[: pol.param_dim(0), 1:], 0.0)

    def test_out_of_range_state_rejected(self):
        pol = self.make()
        zeros = np.zeros(pol.total_param_dim)
        for s in (-1, 3):
            with pytest.raises(IndexError, match=f"state {s} out of range"):
                pol.act(s)
            with pytest.raises(IndexError, match=f"state {s} out of range"):
                pol.jac(0, s)
            with pytest.raises(IndexError, match=f"state {s} out of range"):
                pol.jac_apply(s, np.ones(2), zeros)
            # A list of per-row states is checked as a whole.
            with pytest.raises(IndexError, match=rf"a state in \[0, {s}\] is out of range"):
                pol.act([0, s])
        np.testing.assert_array_equal(zeros, 0.0)
        # The constant form ignores the state.
        const = constant_policy((2,))
        np.testing.assert_array_equal(const.act(5), const.act(0))


class TestParameterAccess:
    def test_flat_round_trip(self):
        pol = constant_policy((2, 3))
        flat = np.arange(5.0)
        pol.set_theta_flat(flat)
        np.testing.assert_array_equal(pol.theta_flat(), flat)
        np.testing.assert_array_equal(pol.theta[1], [2.0, 3.0, 4.0])

    def test_set_flat_wrong_size(self):
        pol = constant_policy((2,))
        with pytest.raises(DimensionMismatch):
            pol.set_theta_flat(np.zeros(3))

    def test_copy_is_independent(self):
        pol = constant_policy((2,))
        pol.theta[0][:] = 7.0
        dup = pol.copy()
        dup.theta[0][:] = -1.0
        np.testing.assert_array_equal(pol.theta[0], [7.0, 7.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicySet("mystery", (2,), 1, [np.zeros(2)])
        with pytest.raises(DimensionMismatch):
            PolicySet("constant", (2,), 1, [np.zeros(3)])
        with pytest.raises(DimensionMismatch):
            PolicySet("constant", (2, 2), 1, [np.zeros(2)])
        with pytest.raises(ValueError):
            PolicySet("constant", (2,), 1, [np.zeros(2)], lo=1.0, hi=-1.0)


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self):
        noise = GaussianNoise(0.0)
        acts = np.array([1.0, 2.0, 3.0])
        out = noise.perturb(acts, np.random.default_rng(0))
        np.testing.assert_array_equal(out, acts)
        assert out is not acts  # still a private copy

    def test_moments(self):
        noise = GaussianNoise(0.5)
        rng = np.random.default_rng(1)
        draws = np.array(
            [noise.perturb(np.zeros(2), rng) for _ in range(20_000)]
        )
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02
        np.testing.assert_allclose(draws.std(axis=0), 0.5, atol=0.02)

    def test_reproducible_from_seeded_rng(self):
        noise = GaussianNoise(1.0)
        a = noise.perturb(np.zeros(3), np.random.default_rng(42))
        b = noise.perturb(np.zeros(3), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)
