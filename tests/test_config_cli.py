"""Config parsing, seeded sub-streams, CSV output, and the CLI surface."""

import math

import numpy as np
import pytest

from netdac.cli import CSV_HEADER, main, write_csv, write_mean_csv
from netdac.config import (
    MetricsRow,
    RunConfig,
    Schedule,
    load_config,
    parse_config,
    serialize_config,
)
from netdac.errors import ConfigError
from netdac.network import GraphProcess, path_graph
from netdac.policy import GaussianNoise, constant_policy
from netdac.seeding import substream
from netdac.verify import format_report, registered_checks, run_checks


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        text = "\n# a comment\n  \nagents = 4  # trailing comment\n\n"
        assert parse_config(text) == RunConfig(agents=4)

    def test_hyphenated_and_mixed_case_keys(self):
        cfg = parse_config("Critic-Step = 0.25\nACTION_DIM = 3\n")
        assert cfg.critic_step == 0.25
        assert cfg.action_dim == 3

    def test_seed_lists(self):
        assert parse_config("seeds = 3, 1, 4").seeds == (3, 1, 4)
        assert parse_config("seeds = 3 1 4").seeds == (3, 1, 4)

    def test_bool_words(self):
        assert parse_config("feature_bias = no").feature_bias is False
        assert parse_config("critic_warm_start = TRUE").critic_warm_start is True
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("feature_bias = maybe")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("agents = 4\n\nlearning_rate = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("agents = 4\nagents = 5\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("agents 4\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("agents =\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("agents = 4\nsigma = much\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("agents = 4.5\n")

    def test_serialize_round_trip_defaults(self):
        assert parse_config(serialize_config(RunConfig())) == RunConfig()

    def test_serialize_round_trip_custom(self):
        cfg = RunConfig(
            kind="finite-mdp",
            algorithm="alg2",
            agents=3,
            action_dim=2,
            states=4,
            seeds=(7, 8),
            schedule="polynomial",
            critic_pow=0.55,
            actor_pow=0.95,
            sigma=0.3,
            topology="ring",
            failure_prob=0.2,
            features="fourier",
            feature_count=5,
            feature_bias=False,
            update_mode="online",
            batch_size=17,
            batches=9,
            critic_warm_start=True,
            eval_rollout=100,
            output="other.csv",
        )
        assert parse_config(serialize_config(cfg)) == cfg


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="bandits"),
            dict(kind="verify"),
            dict(algorithm="alg3"),
            dict(agents=0),
            dict(action_dim=0),
            dict(kind="finite-mdp", states=1),
            dict(seeds=()),
            dict(schedule="geometric"),
            dict(critic_step=-0.1),
            dict(schedule="polynomial", critic_pow=0.9, actor_pow=0.6),
            dict(schedule="polynomial", critic_pow=0.4, actor_pow=0.9),
            dict(sigma=-1.0),
            dict(topology="mesh"),
            dict(failure_prob=1.0),
            dict(features="rbf"),
            dict(features="fourier", feature_count=0),
            dict(update_mode="epoch"),
            dict(batch_size=-1),
            dict(batches=-1),
            dict(actor_grad="mean"),
            dict(proj_lo=1.0, proj_hi=-1.0),
            dict(eval_rollout=-1),
            dict(sigma=float("nan")),
            dict(sigma=float("inf")),
            dict(critic_step=float("nan")),
            dict(actor_step=float("inf")),
            dict(proj_lo=float("nan")),
            dict(proj_lo=float("inf"), proj_hi=float("inf")),
            dict(proj_lo=float("-inf"), proj_hi=float("-inf")),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            RunConfig(**kw)

    @staticmethod
    def _outcome(make, error):
        """The message ``make()`` raises ``error`` with, or None if it accepts."""
        try:
            make()
        except error as exc:
            return str(exc)
        return None

    _EDGES = (0.4, 0.5, 0.6, 0.9, 1.0, 1.1, float("nan"))

    @pytest.mark.parametrize("critic_pow", _EDGES)
    @pytest.mark.parametrize("actor_pow", _EDGES)
    def test_config_and_schedule_share_the_polynomial_rule(self, critic_pow, actor_pow):
        cfg = self._outcome(
            lambda: RunConfig(schedule="polynomial", critic_pow=critic_pow, actor_pow=actor_pow),
            ConfigError,
        )
        sch = self._outcome(
            lambda: Schedule("polynomial", critic_pow=critic_pow, actor_pow=actor_pow), ValueError
        )
        assert cfg == sch
        assert (cfg is None) == (0.5 < critic_pow < actor_pow <= 1.0)

    _BOUNDS = (-math.inf, -1.0, 0.0, 1.0, math.inf, math.nan)

    @pytest.mark.parametrize("lo", _BOUNDS)
    @pytest.mark.parametrize("hi", _BOUNDS)
    def test_config_and_policy_share_the_box_rule(self, lo, hi):
        # An unbounded side may stand; an empty box at infinity may not.
        cfg = self._outcome(lambda: RunConfig(proj_lo=lo, proj_hi=hi), ConfigError)
        pol = self._outcome(lambda: constant_policy((2,), lo=lo, hi=hi), ValueError)
        assert cfg == pol
        assert (cfg is None) == (lo <= hi and lo < math.inf and hi > -math.inf)

    _NUMBERS = (-1.0, 0.0, 0.5, 1.0, float("inf"), float("nan"))
    #: Config field -> (the component that states its rule, the values the
    #: rule accepts, the values tried).
    _RULES = {
        "sigma": (GaussianNoise, lambda v: 0.0 <= v < math.inf, _NUMBERS),
        "critic_step": (lambda v: Schedule(critic=v), lambda v: 0.0 <= v < math.inf, _NUMBERS),
        "actor_step": (lambda v: Schedule(actor=v), lambda v: 0.0 <= v < math.inf, _NUMBERS),
        "schedule": (
            Schedule,
            lambda v: v in ("constant", "polynomial"),
            ("constant", "polynomial", "Constant", "linear", ""),
        ),
        "failure_prob": (
            lambda v: GraphProcess(path_graph(2), v), lambda v: 0.0 <= v < 1.0, _NUMBERS
        ),
    }

    @pytest.mark.parametrize(
        "field, value", [(f, v) for f, (_, _, values) in _RULES.items() for v in values]
    )
    def test_config_and_component_share_the_rule(self, field, value):
        make, accepts, _ = self._RULES[field]
        cfg = self._outcome(lambda: RunConfig(**{field: value}), ConfigError)
        assert cfg == self._outcome(lambda: make(value), ValueError)
        assert (cfg is None) == accepts(value)

    def test_bandit_ignores_states(self):
        # states only matters for finite-state runs.
        assert RunConfig(kind="bandit", states=1).states == 1

    def test_effective_batch_size(self):
        assert RunConfig(action_dim=7).effective_batch_size == 14
        assert RunConfig(action_dim=7, batch_size=5).effective_batch_size == 5


class TestSeeding:
    def test_same_pair_same_stream(self):
        a = substream(3, "env").standard_normal(8)
        b = substream(3, "env").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_are_independent(self):
        labels = ("env", "noise", "graph", "behavior", "eval")
        draws = {lab: substream(0, lab).standard_normal(4) for lab in labels}
        labs = list(draws)
        for k in range(len(labs)):
            for j in range(k + 1, len(labs)):
                assert not np.array_equal(draws[labs[k]], draws[labs[j]])

    def test_seeds_are_independent(self):
        a = substream(0, "env").standard_normal(4)
        b = substream(1, "env").standard_normal(4)
        assert not np.array_equal(a, b)


def _row(seed, t, batch, cost):
    return MetricsRow(
        run_id="alg1-bandit-m1-s%d" % seed,
        seed=seed,
        t=t,
        batch=batch,
        eval_cost=cost,
        mean_jhat=-cost,
        critic_disagreement=0.0,
        actor_grad_norm=1.0,
        wallclock_ms=5,
    )


class TestCsvWriters:
    def test_write_csv_layout(self, tmp_path):
        rows = [_row(0, 0, 0, 4.0), _row(0, 2, 1, 3.0), _row(1, 0, 0, 4.0), _row(1, 2, 1, 2.0)]
        path = tmp_path / "out.csv"
        write_csv(str(path), rows, seeds=(0, 1))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 + 2  # header, rows, one summary per seed
        assert lines[2].startswith("alg1-bandit-m1-s0,0,2,1,3.0")
        assert lines[5].split(",")[0] == "alg1-bandit-m1-s0-summary"
        assert lines[6].split(",")[0] == "alg1-bandit-m1-s1-summary"

    def test_write_mean_csv(self, tmp_path):
        rows = [_row(0, 0, 0, 4.0), _row(0, 2, 1, 3.0), _row(1, 0, 0, 4.0), _row(1, 2, 1, 2.0)]
        path = tmp_path / "mean.csv"
        write_mean_csv(str(path), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "batch,mean_eval_cost,seed_count"
        assert lines[1] == "0,4.0,2"
        assert lines[2] == "1,2.5,2"


class TestCli:
    def test_print_defaults_round_trips(self, capsys):
        assert main(["print-defaults"]) == 0
        out = capsys.readouterr().out
        assert parse_config(out) == RunConfig()

    def test_run_end_to_end(self, tmp_path, capsys):
        out_csv = tmp_path / "run.csv"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "kind = bandit\nagents = 2\naction_dim = 1\nseeds = 0\n"
            f"batches = 2\noutput = {out_csv}\n"
        )
        assert main(["run", str(cfg_path)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # initial row + 2 batch rows + 1 summary row
        assert len(lines) == 5
        mean_csv = tmp_path / "run_mean.csv"
        assert mean_csv.exists()
        mean_lines = mean_csv.read_text().splitlines()
        assert len(mean_lines) == 4  # header + batches 0..2
        assert "wrote" in capsys.readouterr().out

    def test_run_determinism_excluding_wallclock(self, tmp_path):
        bodies = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"{tag}.csv"
            cfg_path = tmp_path / f"{tag}.cfg"
            cfg_path.write_text(
                "kind = bandit\nagents = 2\naction_dim = 1\nseeds = 0, 1\n"
                f"batches = 4\noutput = {out_csv}\n"
            )
            assert main(["run", str(cfg_path)]) == 0
            body = [
                ",".join(line.split(",")[:-1])
                for line in out_csv.read_text().splitlines()
            ]
            bodies.append(body)
        assert bodies[0] == bodies[1]

    def test_run_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        # Seeds run in two worker processes write the serial run's rows.
        outputs = {}
        for workers in ("1", "2"):
            out_csv = tmp_path / f"w{workers}.csv"
            cfg_path = tmp_path / f"w{workers}.cfg"
            cfg_path.write_text(
                "agents = 4\naction_dim = 2\nseeds = 3, 8\nbatches = 4\ntopology = ring\n"
                f"failure_prob = 0.3\noutput = {out_csv}\n"
            )
            monkeypatch.setenv("NETDAC_MAX_WORKERS", workers)
            assert main(["run", str(cfg_path)]) == 0
            body = [line.rsplit(",", 1)[0] for line in out_csv.read_text().splitlines()]
            outputs[workers] = (body, (tmp_path / f"w{workers}_mean.csv").read_text())
        assert outputs["1"] == outputs["2"]
        assert len(outputs["1"][0]) == 1 + 2 * 5 + 2

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("agents = -1\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edges, why", [("0 1\n1 x\n", "non-integer node index"), ("0 1\n1 5\n", "out of range")]
    )
    def test_run_malformed_edgelist_exits_2(self, tmp_path, capsys, edges, why):
        graph = tmp_path / "graph.txt"
        graph.write_text(edges)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            f"agents = 3\naction_dim = 1\nseeds = 0\nbatches = 1\n"
            f"topology = edgelist:{graph}\noutput = {tmp_path / 'run.csv'}\n"
        )
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: topology file {graph}: edge list line 2")
        assert why in err
        assert "Traceback" not in err

    def test_load_config_reads_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("agents = 6\n")
        assert load_config(p) == RunConfig(agents=6)


class TestVerifySuite:
    def test_subset_passes_and_report_format(self):
        names = (
            "linalg_solve_residual",
            "bandit_gradient_closed_form",
            "consensus_static_stochasticity",
        )
        records = run_checks(names=names)
        assert [r.name for r in records] == list(names)
        assert all(r.passed for r in records)
        report = format_report(records)
        assert report.count("PASS") == 3
        assert report.strip().endswith("3/3 checks passed")

    def test_fault_injection_flips_named_check(self):
        records = run_checks(
            names=("linalg_solve_residual",), fault_inject="linalg_solve_residual"
        )
        assert not records[0].passed
        assert "[fault injected]" in records[0].detail
        report = format_report(records)
        assert "FAIL linalg_solve_residual" in report
        assert report.strip().endswith("0/1 checks passed")

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            run_checks(names=("no_such_check",))
        with pytest.raises(KeyError):
            run_checks(fault_inject="no_such_check")

    def test_registry_covers_all_module_claims(self):
        names = registered_checks()
        assert len(names) == len(set(names)) == 18
        prefixes = {n.split("_")[0] for n in names}
        assert {"linalg", "bandit", "finite", "poisson", "mspbe", "offpolicy",
                "consensus", "limit", "compatible", "feature", "replay"} <= prefixes

    def test_cli_verify_fault_inject(self, tmp_path, capsys):
        # Full-suite CLI run with an injected fault: exit 1 and the report
        # names the corrupted check.
        report_path = tmp_path / "report.txt"
        code = main(
            ["verify", "--fault-inject", "replay_determinism", "--output", str(report_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL replay_determinism" in report_path.read_text()
        assert "failed checks: replay_determinism" in captured.err
        assert "17/18 checks passed" in captured.out

    def test_cli_verify_unknown_check_exits_2(self, tmp_path, capsys):
        code = main(["verify", "--fault-inject", "bogus", "--output", str(tmp_path / "r.txt")])
        assert code == 2
        assert "unknown check" in capsys.readouterr().err
