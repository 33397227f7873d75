"""Tests for the no-op and recording tracers."""

from repro.config import CostModel
from repro.observability.span import SpanKind
from repro.observability.tracer import NOOP_TRACER, NoopTracer, RecordingTracer, Tracer
from repro.runtime.clock import SimulatedClock


class TestNoopTracer:
    def test_is_disabled(self):
        assert NOOP_TRACER.enabled is False
        assert Tracer.enabled is False

    def test_span_yields_a_null_span(self):
        with NOOP_TRACER.span("anything", kind=SpanKind.RUN, extra=1) as span:
            span.set_attribute("ignored", True)  # must not raise
        assert NOOP_TRACER.roots == []
        assert NOOP_TRACER.root is None

    def test_span_context_is_shared(self):
        # zero allocation on the hot path: every call returns the same object
        assert NoopTracer().span("a") is NOOP_TRACER.span("b")

    def test_point_is_a_noop(self):
        NOOP_TRACER.point("p", kind=SpanKind.PARTITION)
        assert NOOP_TRACER.roots == []

    def test_bind_accepts_any_clock(self):
        NOOP_TRACER.bind(SimulatedClock())  # must not raise


class TestRecordingTracer:
    def test_records_nested_spans(self):
        tracer = RecordingTracer()
        with tracer.span("run", kind=SpanKind.RUN) as run:
            with tracer.span("superstep:0", kind=SpanKind.SUPERSTEP) as step:
                with tracer.span("op:map", kind=SpanKind.OPERATOR):
                    pass
        assert tracer.root is run
        assert run.children == [step]
        assert [s.name for s in run.walk()] == ["run", "superstep:0", "op:map"]
        assert step.children[0].parent_id == step.span_id

    def test_span_ids_are_unique(self):
        tracer = RecordingTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        ids = [s.span_id for s in tracer.root.walk()]
        assert len(ids) == len(set(ids))

    def test_sim_times_come_from_the_bound_clock(self):
        clock = SimulatedClock(CostModel(cpu_per_record=0.5))
        tracer = RecordingTracer()
        tracer.bind(clock)
        clock.charge_compute(2)
        with tracer.span("work") as span:
            clock.charge_compute(5)
        assert span.sim_start == 1.0
        assert span.sim_end == 3.5
        assert span.sim_duration == 2.5

    def test_costs_capture_category_deltas(self):
        clock = SimulatedClock()
        tracer = RecordingTracer()
        tracer.bind(clock)
        with tracer.span("outer") as outer:
            clock.charge_compute(100)
            with tracer.span("inner") as inner:
                clock.charge_network(50)
        assert set(inner.costs) == {"network"}
        assert outer.costs["network"] == inner.costs["network"]
        assert outer.costs["compute"] > 0.0
        # exclusive costs: outer keeps only its own compute
        assert "network" not in outer.self_costs()

    def test_wall_duration_is_positive(self):
        tracer = RecordingTracer()
        with tracer.span("timed") as span:
            pass
        assert span.wall_duration >= 0.0
        assert span.wall_end is not None

    def test_attributes_from_kwargs_and_set_attribute(self):
        tracer = RecordingTracer()
        with tracer.span("s", kind=SpanKind.SUPERSTEP, superstep=3) as span:
            span.set_attribute("messages", 17)
        assert span.attributes == {"superstep": 3, "messages": 17}

    def test_point_records_an_instant_child(self):
        tracer = RecordingTracer()
        with tracer.span("parent") as parent:
            tracer.point("partition:0", kind=SpanKind.PARTITION, records=5)
        assert len(parent.children) == 1
        point = parent.children[0]
        assert point.kind is SpanKind.PARTITION
        assert point.sim_duration == 0.0
        assert point.attributes == {"records": 5}

    def test_unwound_inner_spans_are_closed(self):
        tracer = RecordingTracer()
        outer_ctx = tracer.span("outer")
        outer = outer_ctx.__enter__()
        tracer.span("forgotten").__enter__()  # never exited
        outer_ctx.__exit__(None, None, None)
        assert not outer.is_open
        assert not outer.children[0].is_open

    def test_works_without_a_clock(self):
        tracer = RecordingTracer()
        with tracer.span("unbound") as span:
            pass
        assert span.sim_start == 0.0
        assert span.sim_end == 0.0
        assert span.costs == {}

    def test_reset_drops_everything(self):
        tracer = RecordingTracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == []
        with tracer.span("b") as span:
            pass
        assert span.span_id == 0

    def test_multiple_roots(self):
        tracer = RecordingTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]
        assert tracer.root.name == "first"
