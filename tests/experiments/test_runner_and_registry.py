"""Unit tests for experiment infrastructure (tables, replication,
registry) and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.basic import SilentAdversary
from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments.registry import (
    SCHEMA_VERSION,
    ExperimentReport,
    RunConfig,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.runner import Table, replicate, stable_hash
from repro.protocols.one_to_one import OneToOneBroadcast, OneToOneParams


class TestTable:
    def test_round_trip(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(3, 4.0)
        assert list(t.column("a")) == [1.0, 3.0]
        rendered = t.render()
        assert "demo" in rendered and "2.500" in rendered

    def test_dict_round_trip(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", -3)
        back = Table.from_dict(t.to_dict())
        assert back.title == t.title
        assert back.columns == t.columns
        assert [list(r) for r in back.rows] == [list(r) for r in t.rows]

    def test_from_dict_checks_arity(self):
        with pytest.raises(ConfigurationError):
            Table.from_dict({"title": "t", "columns": ["a", "b"], "rows": [[1]]})

    def test_wrong_arity(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ConfigurationError):
            t.add_row(1)

    def test_render_formats_large_numbers(self):
        t = Table("demo", ["x"])
        t.add_row(123456.0)
        assert "1.23e+05" in t.render()


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_full_crc32_range_no_mass_collisions(self):
        # Regression: an earlier `% 10_000` collapsed the range, so any
        # two of ~120 sweep cells collided with even odds and silently
        # shared seeds.  Over the full 32-bit range, 20k inputs should
        # collide essentially never (expected collisions ~ 0.05).
        values = {stable_hash("cell", i) for i in range(20_000)}
        assert len(values) >= 19_990
        assert max(values) > 10_000  # the old modulus would cap here


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.seed, cfg.quick, cfg.jobs, cfg.timeout) == (0, True, 1, None)
        assert not cfg.full

    def test_stats_excluded_from_equality(self):
        a, b = RunConfig(seed=1), RunConfig(seed=1)
        a.stats.tasks = 99
        assert a == b

    def test_module_entry_point_takes_config_only(self):
        # The PR-1 seed=/quick= shim is gone from the experiment
        # modules: run() takes a RunConfig (or nothing), full stop.
        from repro.experiments import e05_product_lower_bound as e05

        with pytest.raises(TypeError):
            e05.run(seed=0, quick=True)
        modern = e05.run(RunConfig(seed=0, quick=True))
        default = e05.run()
        assert modern.checks == default.checks

    def test_registry_boundary_takes_config_only(self):
        # The legacy seed=/quick= spellings finished their one-release
        # deprecation window: run_experiment now takes a RunConfig (or
        # nothing), full stop.
        with pytest.raises(TypeError):
            run_experiment("E5", seed=0, quick=True)
        with pytest.raises(ConfigurationError):
            run_experiment("E5", 7)
        modern = run_experiment("E5", RunConfig(seed=0, quick=True))
        default = run_experiment("E5")
        assert modern.checks == default.checks
        assert [t.to_dict() for t in modern.tables] == [
            t.to_dict() for t in default.tables
        ]


class TestReplicate:
    def test_independent_and_deterministic(self):
        make = lambda: OneToOneBroadcast(OneToOneParams.sim())
        r1 = replicate(make, SilentAdversary, 3, seed=5)
        r2 = replicate(make, SilentAdversary, 3, seed=5)
        assert [list(r.node_costs) for r in r1] == [list(r.node_costs) for r in r2]
        costs = [tuple(r.node_costs) for r in r1]
        assert len(set(costs)) > 1  # replications differ from each other

    def test_bad_reps(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda: None, SilentAdversary, 0)


class TestRegistry:
    def test_all_registered(self):
        ids = [e.eid for e in list_experiments()]
        n_exp = sum(1 for i in ids if i.startswith("E"))
        assert ids[:n_exp] == [f"E{i}" for i in range(1, n_exp + 1)]
        assert set(ids[n_exp:]) == {"A1", "A3", "A4", "A5", "A6"}

    def test_lookup_case_insensitive(self):
        assert get_experiment("e5").eid == "E5"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            get_experiment("E99")

    def test_run_e5_quick(self):
        # E5 is closed-form and fast: a true end-to-end registry test.
        report = run_experiment("E5", RunConfig(quick=True))
        assert isinstance(report, ExperimentReport)
        assert report.eid == "E5"
        assert report.tables
        assert report.all_checks_pass
        assert "PASS" in report.render()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "A4" in out

    def test_run_e5(self, capsys):
        assert cli_main(["run", "E5"]) == 0
        out = capsys.readouterr().out
        assert "product game" in out or "E5" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0


class TestBatchValidation:
    """``--batch`` below 1 is refused where the value enters, before
    any work starts."""

    def test_run_config_rejects_batch_below_one(self):
        with pytest.raises(ConfigurationError, match="batch must be >= 1"):
            RunConfig(batch=0)
        with pytest.raises(ConfigurationError, match="batch must be >= 1"):
            RunConfig(batch=-3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E4"],
            ["arena", "search"],
            ["arena", "tournament"],
            ["arena", "replay"],
            ["arena", "corpus"],
            ["serve"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_cli_batch_option_is_a_usage_error(self, argv, capsys):
        parser = build_parser()
        assert parser.parse_args(argv + ["--batch", "2"]).batch == 2
        for bad in ("0", "-1", "x"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + ["--batch", bad])
            assert exc.value.code == 2
            assert "--batch" in capsys.readouterr().err


class TestReportRendering:
    def test_failed_check_renders(self):
        rep = ExperimentReport(eid="X", title="t", anchor="a")
        rep.checks["always"] = False
        assert "FAIL" in rep.render()
        assert not rep.all_checks_pass


class TestCliExtras:
    def test_duel(self, capsys):
        assert cli_main(["duel", "--points", "2", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out and "fig1" in out
        assert "cost ~ T^" in out

    def test_trace(self, capsys):
        assert cli_main(["trace", "--phases", "1"]) == 0
        out = capsys.readouterr().out
        assert "replay audit" in out
        assert "jam" in out
