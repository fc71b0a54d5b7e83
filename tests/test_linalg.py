"""Dense linear-algebra helpers, checked against hand values and identities."""

import os
import subprocess
import sys

import numpy as np
import pytest

from netdac.errors import DimensionMismatch, SingularMatrix
from netdac.linalg import project_box, solve_linear, stationary_distribution


class TestSolveLinear:
    def test_hand_2x2(self):
        # x + y = 3, x - y = 1  =>  x = 2, y = 1
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        x = solve_linear(a, np.array([3.0, 1.0]))
        np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-14)

    def test_identity(self):
        b = np.array([4.0, -1.0, 0.5])
        np.testing.assert_allclose(solve_linear(np.eye(3), b), b, atol=0)

    def test_residual_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            x = solve_linear(a, b)
            assert np.linalg.norm(a @ x - b) < 1e-9 * max(1.0, np.linalg.norm(b))

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(a, np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_linear(np.ones((2, 3)), np.ones(2))


class TestStationaryDistribution:
    def test_hand_2_state(self):
        # Birth-death chain: d = (q, p)/(p+q) with p = 0.1, q = 0.2.
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(stationary_distribution(p), [2 / 3, 1 / 3], atol=1e-12)

    def test_uniform_for_doubly_stochastic(self):
        p = np.array(
            [
                [0.5, 0.3, 0.2],
                [0.2, 0.5, 0.3],
                [0.3, 0.2, 0.5],
            ]
        )
        np.testing.assert_allclose(stationary_distribution(p), np.full(3, 1 / 3), atol=1e-12)

    def test_random_chains_satisfy_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            p = rng.uniform(0.05, 1.0, size=(n, n))
            p /= p.sum(axis=1, keepdims=True)
            d = stationary_distribution(p)
            assert np.all(d >= 0)
            assert abs(d.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(d @ p, d, atol=1e-10)

    def test_single_state(self):
        # A one-state chain needs no solve: the answer is exactly [1.].
        np.testing.assert_array_equal(stationary_distribution(np.ones((1, 1))), [1.0])
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5]]))

    def test_reducible_identity_raises(self):
        # The identity chain has no unique stationary distribution.
        with pytest.raises(SingularMatrix):
            stationary_distribution(np.eye(2))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[-0.1, 1.1], [0.5, 0.5]]))


class TestProjectBox:
    def test_clips(self):
        out = project_box(np.array([-5.0, 0.5, 7.0]), -1.0, 1.0)
        np.testing.assert_array_equal(out, [-1.0, 0.5, 1.0])

    def test_interior_untouched(self):
        x = np.array([0.2, -0.3])
        np.testing.assert_array_equal(project_box(x, -1.0, 1.0), x)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(6) * 3
            once = project_box(x, -1.0, 1.0)
            np.testing.assert_array_equal(project_box(once, -1.0, 1.0), once)


def test_bandit_run_loads_no_scipy():
    # Only linear solves need scipy, and a bandit run makes none, so it
    # never pays scipy's import time.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, netdac\n"
        "from netdac.config import RunConfig\n"
        "netdac.run_experiment(RunConfig(agents=3, action_dim=2, seeds=(0, 1), batches=3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
