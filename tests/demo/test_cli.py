"""Tests for the demo CLI."""

import pytest

from repro.demo.cli import _parse_failure, build_parser, main
from repro.errors import ConfigError


class TestFailureSpecParsing:
    def test_single_partition(self):
        assert _parse_failure("2:0") == (2, [0])

    def test_multiple_partitions(self):
        assert _parse_failure("4:1,3") == (4, [1, 3])

    def test_missing_colon_rejected(self):
        with pytest.raises(ConfigError, match="hint"):
            _parse_failure("4")

    def test_empty_partitions_rejected(self):
        with pytest.raises(ConfigError, match="no partitions"):
            _parse_failure("4:")

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="hint"):
            _parse_failure("a:b")


class TestBadInputExitCodes:
    """Malformed --fail arguments exit with code 2 and a usage hint, not
    a raw traceback."""

    def test_missing_worker_list(self, capsys):
        assert main(["--fail", "3"]) == 2
        out = capsys.readouterr().out
        assert "malformed failure spec" in out
        assert "hint" in out

    def test_non_numeric_ids(self, capsys):
        assert main(["--fail", "3:a,b"]) == 2
        out = capsys.readouterr().out
        assert "malformed failure spec" in out

    def test_empty_partition_list(self, capsys):
        assert main(["--fail", "3:"]) == 2
        assert "no partitions" in capsys.readouterr().out

    def test_out_of_range_partition(self, capsys):
        assert main(["--fail", "2:-7"]) == 2
        assert "out of range" in capsys.readouterr().out

    def test_invalid_recovery_combo(self, capsys):
        assert main(["--algorithm", "pagerank", "--recovery", "incremental"]) == 2
        assert "delta iteration" in capsys.readouterr().out


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.algorithm == "connected-components"
        assert args.graph == "small"
        assert args.strategy == "optimistic"
        assert args.failures == []

    def test_multiple_failures(self):
        # --fail stays a raw string at parse time; main() parses specs so
        # malformed ones surface as ConfigError with a usage hint.
        args = build_parser().parse_args(["--fail", "2:0", "--fail", "5:1,3"])
        assert [_parse_failure(text) for text in args.failures] == [
            (2, [0]),
            (5, [1, 3]),
        ]


class TestMain:
    def test_basic_run(self, capsys):
        assert main(["--fail", "2:0"]) == 0
        out = capsys.readouterr().out
        assert "connected-components: converged" in out
        assert "1 failures" in out

    def test_states_flag(self, capsys):
        assert main(["--fail", "2:0", "--states"]) == 0
        out = capsys.readouterr().out
        assert "initial state" in out
        assert "after compensation" in out
        assert "converged state" in out

    def test_plots_flag_pagerank(self, capsys):
        assert main(["--algorithm", "pagerank", "--fail", "4:1", "--plots"]) == 0
        out = capsys.readouterr().out
        assert "l1_delta" in out
        assert "failures struck at iteration(s): [4]" in out

    def test_plots_flag_cc(self, capsys):
        assert main(["--plots"]) == 0
        out = capsys.readouterr().out
        assert "messages" in out

    def test_twitter_graph(self, capsys):
        assert main(["--graph", "twitter", "--size", "120", "--fail", "1:0"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_checkpoint_recovery(self, capsys):
        code = main(
            ["--fail", "2:0", "--recovery", "checkpoint", "--checkpoint-interval", "1"]
        )
        assert code == 0

    def test_restart_after_rollback_states(self, capsys):
        assert main(["--fail", "2:0", "--recovery", "restart", "--states"]) == 0
        out = capsys.readouterr().out
        assert "after restart" in out

    def test_failure_free_run(self, capsys):
        assert main([]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_invalid_partition_errors_cleanly(self, capsys):
        # Out-of-range partitions are a usage error: argparse-style exit 2.
        assert main(["--fail", "2:99"]) == 2
        assert "error:" in capsys.readouterr().out


class TestParallelFlags:
    """The removed execution modes and their flags are usage errors."""

    def test_removed_modes_are_usage_errors(self, capsys):
        for argv in (
            ["--columnar"],
            ["--parallel-backend", "processes"],
            ["--parallel-workers", "2"],
            ["serve", "--jobs", "2", "--core-budget", "4"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(["--strategy", "lineage"]) == 2
        out = capsys.readouterr().out
        assert "unknown recovery strategy 'lineage'" in out
        assert "valid strategies are" in out


class TestServeTelemetryFlags:
    """serve --telemetry / --status-interval / --prom-out / --telemetry-out."""

    def test_telemetry_flag_runs_clean(self, capsys):
        assert main(["serve", "--jobs", "2", "--pool", "2", "--telemetry"]) == 0
        assert "serve: 2 jobs" in capsys.readouterr().out

    def test_status_interval_prints_live_frames(self, capsys):
        code = main(
            ["serve", "--jobs", "3", "--pool", "2", "--status-interval", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro status" in out
        assert "in-flight" in out

    def test_non_positive_status_interval_exits_2(self, capsys):
        code = main(["serve", "--jobs", "2", "--status-interval", "0"])
        assert code == 2
        assert "status" in capsys.readouterr().out

    def test_prom_out_writes_scrape(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        code = main(
            ["serve", "--jobs", "2", "--telemetry", "--prom-out", str(scrape)]
        )
        assert code == 0
        capsys.readouterr()
        text = scrape.read_text()
        assert "# TYPE repro_service_submitted_total counter" in text
        assert "repro_service_submitted_total" in text

    def test_prom_out_without_telemetry_uses_service_registry(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        code = main(["serve", "--jobs", "2", "--prom-out", str(scrape)])
        assert code == 0
        capsys.readouterr()
        assert "repro_service_submitted_total" in scrape.read_text()

    def test_telemetry_out_writes_strict_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "telemetry.jsonl"
        code = main(
            ["serve", "--jobs", "2", "--telemetry", "--telemetry-out", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        lines = [line for line in path.read_text().splitlines() if line]
        assert lines
        events = [json.loads(line) for line in lines]
        assert all("kind" in e and "level" in e for e in events)
        # Correlated job lifecycle events made it to disk.
        assert any(e["kind"] == "job_finished" for e in events)

    def test_prom_out_unwritable_exits_1(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "metrics.prom"
        code = main(
            ["serve", "--jobs", "2", "--telemetry", "--prom-out", str(target)]
        )
        assert code == 1
        assert "prom" in capsys.readouterr().out.lower()
