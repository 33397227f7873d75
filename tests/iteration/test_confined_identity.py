"""Bit-identity of confined recovery (satellite of the confined PR).

Hypothesis generates random single- and multi-event failure schedules;
for each one we pin:

* confined recovery's final records equal the failure-free run's exactly
  (deterministic replay heals the precise pre-failure contents), with an
  identical superstep count;
* confined and optimistic recovery reach the same final fixpoint
  (bit-identical for Connected Components' discrete labels, within the
  convergence tolerance for PageRank's floats).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.config import EngineConfig
from repro.core.confined import ConfinedRecovery
from repro.graph.generators import multi_component_graph, twitter_like_graph
from repro.runtime.failures import FailureSchedule

PARALLELISM = 4

#: up to two failure events in distinct early supersteps, each killing
#: one or two workers (the spare pool covers at most four deaths).
failure_schedules = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.integers(min_value=0, max_value=PARALLELISM - 1),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda event: event[0],
)

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _config():
    return EngineConfig(parallelism=PARALLELISM, spare_workers=8)


def _cc_job():
    return connected_components(multi_component_graph(3, 10, seed=13))


def _pr_job():
    return pagerank(twitter_like_graph(48, seed=13), epsilon=1e-3)


@SETTINGS
@given(events=failure_schedules)
def test_cc_confined_matches_failure_free_and_optimistic(events):
    schedule = FailureSchedule.at(*events)
    free = _cc_job().run(config=_config())
    confined = _cc_job().run(
        config=_config(), recovery=ConfinedRecovery(), failures=schedule
    )
    job = _cc_job()
    optimistic = job.run(
        config=_config(), recovery=job.optimistic(), failures=schedule
    )
    assert sorted(confined.final_records) == sorted(free.final_records)
    assert confined.supersteps == free.supersteps
    # CC labels are discrete: both strategies land on the exact fixpoint.
    assert sorted(confined.final_records) == sorted(optimistic.final_records)


@SETTINGS
@given(events=failure_schedules)
def test_pagerank_confined_matches_failure_free_exactly(events):
    schedule = FailureSchedule.at(*events)
    free = _pr_job().run(config=_config())
    confined = _pr_job().run(
        config=_config(), recovery=ConfinedRecovery(), failures=schedule
    )
    assert sorted(confined.final_records) == sorted(free.final_records)
    assert confined.supersteps == free.supersteps


@SETTINGS
@given(events=failure_schedules)
def test_pagerank_confined_and_optimistic_share_the_fixpoint(events):
    schedule = FailureSchedule.at(*events)
    confined = _pr_job().run(
        config=_config(), recovery=ConfinedRecovery(), failures=schedule
    )
    job = _pr_job()
    optimistic = job.run(
        config=_config(), recovery=job.optimistic(), failures=schedule
    )
    assert confined.converged and optimistic.converged
    conf = dict(confined.final_records)
    opt = dict(optimistic.final_records)
    assert conf.keys() == opt.keys()
    # both converge to the same true ranks within the epsilon-derived
    # tolerance; trajectories (and float round-off) differ by design
    for key, rank in conf.items():
        assert rank == pytest.approx(opt[key], abs=5e-3)
