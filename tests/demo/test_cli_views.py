"""Tests for the ``repro views`` CLI subcommand."""

from repro.demo.cli import main, views_main


def run(argv, capsys):
    code = views_main(argv)
    return code, capsys.readouterr().out


SMALL = ["--components", "2", "--component-size", "6", "--parallelism", "2"]


class TestBadInputExitCodes:
    def test_bad_removal_fraction(self, capsys):
        code, out = run(["--removal-fraction", "1.5"], capsys)
        assert code == 2
        assert "removal_fraction" in out

    def test_bad_strategy(self, capsys):
        code, out = run(["--strategy", "heroic"], capsys)
        assert code == 2
        assert "error:" in out

    def test_bad_epochs(self, capsys):
        code, out = run(["--epochs", "0"], capsys)
        assert code == 2
        assert "epochs" in out

    def test_bad_fail_epoch(self, capsys):
        code, out = run(["--fail-epoch", "0"], capsys)
        assert code == 2
        assert "fail-epoch" in out

    def test_malformed_failure_spec(self, capsys):
        code, out = run(["--fail", "nope"], capsys)
        assert code == 2
        assert "hint" in out


class TestScenarioRuns:
    def test_default_run_prints_table(self, capsys):
        code, out = run(SMALL + ["--epochs", "2"], capsys)
        assert code == 0
        assert "cc-labels" in out
        assert "ranks" in out
        assert "component-mass" in out
        assert "base graph" in out
        assert "all views fresh" in out

    def test_warm_mode_reports_warm_refreshes(self, capsys):
        code, out = run(
            SMALL + ["--epochs", "2", "--refresh-mode", "warm"], capsys
        )
        assert code == 0
        assert "warm" in out
        # 3 views x 3 polls; the derived view and epoch 0 stay cold
        assert "4 warm refreshes, 5 cold refreshes" in out

    def test_cold_mode_never_warms(self, capsys):
        code, out = run(
            SMALL + ["--epochs", "2", "--refresh-mode", "cold"], capsys
        )
        assert code == 0
        assert "0 warm refreshes, 9 cold refreshes" in out

    def test_failure_injection_heals_in_run(self, capsys):
        code, out = run(
            SMALL
            + ["--epochs", "2", "--fail", "2:0", "--fail-epoch", "1"],
            capsys,
        )
        assert code == 0
        assert "all views fresh" in out

    def test_service_path(self, capsys):
        code, out = run(SMALL + ["--epochs", "1", "--service"], capsys)
        assert code == 0
        assert "all views fresh" in out

    def test_main_dispatches_views_subcommand(self, capsys):
        code = main(["views"] + SMALL + ["--epochs", "1"])
        assert code == 0
        assert "all views fresh" in capsys.readouterr().out
