"""Communication graphs, Metropolis weights, link failures, and consensus."""

import itertools

import numpy as np
import pytest

from netdac import network, verify
from netdac.network import (
    CommGraph,
    GraphProcess,
    check_assumption_random_matrices,
    complete_graph,
    edgeless_graph,
    expected_mixing,
    load_edge_list,
    metropolis_weights,
    path_graph,
    ring_graph,
    star_graph,
)


class TestCommGraph:
    def test_builders(self):
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
        assert ring_graph(3).edges == ((0, 1), (0, 2), (1, 2))
        assert star_graph(4).edges == ((0, 1), (0, 2), (0, 3))
        assert complete_graph(3).edges == ((0, 1), (0, 2), (1, 2))
        assert edgeless_graph(3).edges == ()

    def test_degrees(self):
        np.testing.assert_array_equal(star_graph(4).degrees(), [3, 1, 1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            CommGraph(2, ((0, 0),))  # self loop
        with pytest.raises(ValueError):
            CommGraph(2, ((1, 0),))  # wrong endpoint order
        with pytest.raises(ValueError):
            CommGraph(2, ((0, 2),))  # out of range
        with pytest.raises(ValueError):
            CommGraph(2, ((0, 1), (0, 1)))  # duplicate

    def test_edge_list_round_trip(self):
        text = "# comment line\n0 1\n1 2\n\n0 3\n"
        g = load_edge_list(text, n=4)
        assert g.n == 4
        assert g.edges == ((0, 1), (0, 3), (1, 2))
        bigger = load_edge_list(text, n=6)  # nodes 4 and 5 are isolated
        assert bigger.n == 6
        assert bigger.edges == g.edges
        with pytest.raises(ValueError):
            load_edge_list("0 1 2", n=3)
        with pytest.raises(ValueError):
            load_edge_list("0 1", n=1)
        with pytest.raises(ValueError, match="line 2: node 5 out of range"):
            load_edge_list("0 1\n1 5\n", n=3)


class TestMetropolisWeights:
    def test_path_3_hand_values(self):
        # Degrees (1, 2, 1): both edges get 1/(1+2) = 1/3.
        c = metropolis_weights(path_graph(3))
        want = np.array(
            [
                [2 / 3, 1 / 3, 0.0],
                [1 / 3, 1 / 3, 1 / 3],
                [0.0, 1 / 3, 2 / 3],
            ]
        )
        np.testing.assert_allclose(c, want, atol=1e-15)

    def test_complete_is_uniform(self):
        n = 5
        c = metropolis_weights(complete_graph(n))
        np.testing.assert_allclose(c, np.full((n, n), 1 / n), atol=1e-15)

    def test_edgeless_is_identity(self):
        np.testing.assert_array_equal(metropolis_weights(edgeless_graph(4)), np.eye(4))

    @pytest.mark.parametrize(
        "graph",
        [path_graph(6), ring_graph(5), star_graph(7), complete_graph(4)],
        ids=["path6", "ring5", "star7", "complete4"],
    )
    def test_symmetric_doubly_stochastic_nonnegative(self, graph):
        c = metropolis_weights(graph)
        np.testing.assert_allclose(c, c.T, atol=1e-15)
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(c.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(c >= 0)
        # Sparsity pattern matches the graph (plus the diagonal).
        off = c - np.diag(np.diag(c))
        np.testing.assert_array_equal(np.argwhere(np.triu(off) > 0), graph.edges)


class TestGraphProcess:
    def test_no_failures_returns_base(self):
        proc = GraphProcess(ring_graph(5))
        c1 = proc.sample_weights()
        c2 = proc.sample_weights()
        assert c1 is c2  # stable object on the failure-free fast path
        np.testing.assert_array_equal(c1, metropolis_weights(ring_graph(5)))
        assert proc.directed_edge_count(c1) == 2 * len(ring_graph(5).edges)

    def test_failures_preserve_double_stochasticity(self):
        # 0.99: almost every link fails, so most draws are near-identity.
        for prob in (0.4, 0.99):
            proc = GraphProcess(path_graph(6), prob, np.random.default_rng(0))
            for _ in range(200):
                c = proc.sample_weights()
                np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-12)
                np.testing.assert_allclose(c.sum(axis=0), 1.0, atol=1e-12)
                np.testing.assert_allclose(c, c.T, atol=1e-15)
                assert np.all(c >= 0)

    def test_failed_edge_mass_moves_to_diagonal(self):
        base = path_graph(2)
        proc = GraphProcess(base, 0.5, np.random.default_rng(3))
        base_c = metropolis_weights(base)
        saw_fail = saw_keep = False
        for _ in range(100):
            c = proc.sample_weights()
            if c[0, 1] == 0.0:
                saw_fail = True
                np.testing.assert_allclose(np.diag(c), [1.0, 1.0], atol=1e-15)
            else:
                saw_keep = True
                np.testing.assert_allclose(c, base_c, atol=1e-15)
        assert saw_fail and saw_keep

    def test_empirical_failure_rate(self):
        proc = GraphProcess(complete_graph(4), 0.25, np.random.default_rng(7))
        n_samples = 4000
        dead = sum(
            6 - proc.directed_edge_count(proc.sample_weights()) // 2
            for _ in range(n_samples)
        )
        rate = dead / (6 * n_samples)
        assert abs(rate - 0.25) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            GraphProcess(path_graph(3), 1.0)
        with pytest.raises(ValueError):
            GraphProcess(path_graph(3), -0.1)


class TestConsensusStep:
    """One averaging round over the agents' (N, d) parameters is ``C @ params``."""

    def test_exact_average_on_complete_graph(self):
        c = metropolis_weights(complete_graph(4))
        params = np.arange(12.0).reshape(4, 3)
        out = c @ params
        np.testing.assert_allclose(out, np.tile(params.mean(axis=0), (4, 1)), atol=1e-12)

    def test_preserves_network_mean(self):
        rng = np.random.default_rng(2)
        c = metropolis_weights(ring_graph(6))
        params = rng.standard_normal((6, 4))
        out = c @ params
        np.testing.assert_allclose(out.mean(axis=0), params.mean(axis=0), atol=1e-12)

    def test_iterated_consensus_agrees(self):
        c = metropolis_weights(path_graph(5))
        params = np.diag(np.arange(5.0))
        for _ in range(500):
            params = c @ params
        target = np.tile(np.arange(5.0) / 5.0, (5, 1))
        assert np.max(np.abs(params - target)) < 1e-8


class TestAssumptionChecks:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(5), ring_graph(5), star_graph(5), complete_graph(5)],
        ids=["path", "ring", "star", "complete"],
    )
    def test_static_connected_graphs_pass(self, graph):
        report = check_assumption_random_matrices(GraphProcess(graph))
        assert report.ok
        assert report.row_residual <= 1e-12
        assert report.mean_col_residual <= 1e-3
        assert report.mixing_norm < 1.0

    def test_link_failures_pass(self):
        proc = GraphProcess(ring_graph(5), 0.3, np.random.default_rng(1))
        report = check_assumption_random_matrices(proc)
        assert report.ok

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_static_mixing_norm_closed_form(self, n):
        # Metropolis matrices: C = I - L/3 on paths and rings, I - L/n on the
        # star, 11^T/n on the complete graph; the mixing norm is the largest
        # squared eigenvalue of C off the consensus direction.
        k = np.arange(1, n)
        want = {
            "path": np.max((1 - (2 - 2 * np.cos(np.pi * k / n)) / 3) ** 2),
            "ring": np.max((1 - (2 - 2 * np.cos(2 * np.pi * k / n)) / 3) ** 2),
            "star": (1 - 1 / n) ** 2,
            "complete": 0.0,
        }
        for graph, norm in zip(
            (path_graph(n), ring_graph(n), star_graph(n), complete_graph(n)), want.values()
        ):
            report = check_assumption_random_matrices(GraphProcess(graph))
            assert report.mixing_norm == pytest.approx(norm, abs=1e-12)

    def test_edgeless_graph_fails_mixing(self):
        report = check_assumption_random_matrices(GraphProcess(edgeless_graph(4)))
        assert not report.ok
        assert report.mixing_norm >= 1.0 - 1e-9

    def test_draws_nothing(self):
        proc = GraphProcess(ring_graph(5), 0.3, np.random.default_rng(1))
        before = proc.rng.bit_generator.state
        assert check_assumption_random_matrices(proc).ok
        assert proc.rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "name", ["linalg_spectral_norm", "consensus_static_mixing", "consensus_link_failures"]
    )
    def test_verify_consensus_checks_draw_nothing(self, name, monkeypatch):
        made = []

        class RecordingProcess(GraphProcess):
            def __post_init__(self):
                super().__post_init__()
                made.append((self, self.rng.bit_generator.state))

        monkeypatch.setattr(network, "GraphProcess", RecordingProcess)
        (record,) = verify.run_checks([name])
        assert record.passed and made
        for proc, before in made:
            assert proc.rng.bit_generator.state == before


class _PatternRng:
    """Stands in for a generator: ``random(n)`` gives 0.0 (fail) or 1.0 (survive) per edge."""

    def __init__(self, failed):
        self.failed = failed

    def random(self, n):
        assert n == len(self.failed)
        return np.where(self.failed, 0.0, 1.0)


class TestExpectedMixing:
    """The closed form against the exact mean over all 2^|E| failure patterns."""

    @pytest.mark.parametrize(
        "graph, p",
        [
            (path_graph(5), 0.2),
            (ring_graph(5), 0.3),
            (star_graph(4), 0.95),
            (complete_graph(4), 0.5),
            (edgeless_graph(3), 0.4),
            (complete_graph(1), 0.3),
            (path_graph(4), 0.0),
        ],
        ids=["path5", "ring5", "star4", "complete4", "edgeless3", "single", "path4-p0"],
    )
    def test_matches_enumeration(self, graph, p):
        n, m = graph.n, len(graph.edges)
        j_perp = np.eye(n) - np.ones((n, n)) / n
        mean_c, mixing = np.zeros((n, n)), np.zeros((n, n))
        for failed in itertools.product((False, True), repeat=m):
            # Each C is built by the simulator's own sampler.
            c = GraphProcess(graph, p, _PatternRng(np.array(failed, dtype=bool))).sample_weights()
            k = sum(failed)
            weight = p**k * (1.0 - p) ** (m - k)
            mean_c += weight * c
            mixing += weight * (c.T @ j_perp @ c)
        got_mean, got_mixing = expected_mixing(GraphProcess(graph, p))
        np.testing.assert_allclose(got_mean, mean_c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_mixing, mixing, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "graph",
        [path_graph(5), ring_graph(5), star_graph(4), complete_graph(4), edgeless_graph(3),
         complete_graph(1)],
        ids=["path5", "ring5", "star4", "complete4", "edgeless3", "single"],
    )
    def test_directed_edge_count_matches_off_diagonal_nonzeros(self, graph):
        # Every failure pattern, built by the simulator's own sampler.
        off_diagonal = ~np.eye(graph.n, dtype=bool)
        for failed in itertools.product((False, True), repeat=len(graph.edges)):
            proc = GraphProcess(graph, 0.5, _PatternRng(np.array(failed, dtype=bool)))
            c = proc.sample_weights()
            count = proc.directed_edge_count(c)
            assert type(count) is int
            assert count == np.count_nonzero(c[off_diagonal]) == 2 * (len(failed) - sum(failed))
