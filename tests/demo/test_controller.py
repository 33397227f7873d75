"""Tests for the headless demo controller."""

import pytest

from repro.demo.controller import ALGORITHMS, DemoSession
from repro.errors import ConfigError
from repro.graph.generators import chain_graph


class TestDemoSessionSetup:
    def test_algorithm_tabs(self):
        assert "connected-components" in ALGORITHMS
        assert "pagerank" in ALGORITHMS

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            DemoSession(algorithm="bogus")

    def test_unknown_graph_rejected(self):
        with pytest.raises(ConfigError):
            DemoSession(graph="bogus")

    def test_small_graph_defaults_per_algorithm(self):
        cc = DemoSession(algorithm="connected-components", graph="small")
        pr = DemoSession(algorithm="pagerank", graph="small")
        assert not cc.graph.directed
        assert pr.graph.directed

    def test_twitter_graph(self):
        session = DemoSession(graph="twitter", twitter_size=100)
        assert session.graph.num_vertices == 100

    def test_custom_graph(self):
        graph = chain_graph(5)
        session = DemoSession(graph=graph)
        assert session.graph is graph

    def test_schedule_failure_validation(self):
        session = DemoSession()
        with pytest.raises(ConfigError):
            session.schedule_failure(-1, [0])
        with pytest.raises(ConfigError):
            session.schedule_failure(1, [99])

    def test_schedule_and_clear_failures(self):
        session = DemoSession()
        session.schedule_failure(2, [0, 1])
        assert session.scheduled_failures == [(2, (0, 1))]
        session.clear_failures()
        assert session.scheduled_failures == []


class TestDemoRun:
    @pytest.fixture
    def run(self):
        session = DemoSession(algorithm="connected-components", graph="small")
        session.schedule_failure(2, [0])
        return session.press_play()

    def test_navigation_starts_at_initial_state(self, run):
        assert run.position == -1

    def test_step_forward_and_backward(self, run):
        run.step_forward()
        run.step_forward()
        assert run.position == 1
        run.step_backward()
        assert run.position == 0
        run.step_backward()
        run.step_backward()  # clamped
        assert run.position == -1

    def test_forward_clamped_at_last(self, run):
        for _ in range(100):
            run.step_forward()
        assert run.position == run.last_superstep

    def test_jump(self, run):
        run.jump(2)
        assert run.position == 2
        with pytest.raises(ConfigError):
            run.jump(99)

    def test_initial_state_snapshot(self, run):
        state = run.state_at(-1)
        assert state == {v: v for v in run.graph.vertices}

    def test_final_state_matches_result(self, run):
        assert run.state_at(run.last_superstep) == run.result.final_dict

    def test_lost_vertices_at_failure_superstep(self, run):
        lost = run.lost_vertices(2)
        assert lost == [v for v in run.graph.vertices if v % 4 == 0]

    def test_lost_vertices_elsewhere_empty(self, run):
        assert run.lost_vertices(0) == []

    def test_render_current_marks_lost(self, run):
        run.jump(2)
        rendering = run.render_current()
        assert "0*" in rendering

    def test_statistics(self, run):
        stats = run.statistics()
        assert stats.failures == [2]
        assert len(stats.converged.values) == run.result.supersteps

    def test_recovery_choices(self):
        for recovery in ("optimistic", "checkpoint", "restart"):
            session = DemoSession(algorithm="connected-components", graph="small")
            session.schedule_failure(1, [0])
            run = session.press_play(recovery=recovery)
            assert run.result.converged

    def test_unknown_recovery_rejected(self):
        session = DemoSession()
        with pytest.raises(ConfigError):
            session.press_play(recovery="bogus")

    def test_incremental_recovery_on_delta_tab(self):
        session = DemoSession(algorithm="connected-components", graph="small")
        session.schedule_failure(2, [0])
        run = session.press_play(recovery="incremental")
        assert run.result.converged

    def test_incremental_recovery_rejected_on_bulk_tab(self):
        session = DemoSession(algorithm="pagerank", graph="small")
        with pytest.raises(ConfigError, match="delta iteration"):
            session.press_play(recovery="incremental")

    def test_pagerank_run_renders_bars(self):
        session = DemoSession(algorithm="pagerank", graph="small")
        run = session.press_play()
        run.jump(run.last_superstep)
        assert "#" in run.render_current()
