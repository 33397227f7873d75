"""Backend equivalence: serial / threads / processes are bit-identical.

The execution backend decides only *where* partition kernels run; every
simulated cost is charged by the driver from record counts. These tests
pin the resulting guarantee end-to-end: for both iteration models and
for **every recovery strategy**, a run under an injected failure
schedule produces the same final records, the same simulated time, the
same superstep count and the same per-superstep statistics on all three
backends. A PageRank job whose spare pool is exhausted mid-recovery
additionally proves that ``RecoveryError`` failure paths are identical.
"""

import pytest

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.config import PARALLEL_BACKENDS, EngineConfig
from repro.core.checkpointing import CheckpointRecovery
from repro.core.incremental import IncrementalCheckpointRecovery
from repro.core.restart import RestartRecovery
from repro.errors import RecoveryError
from repro.graph.generators import multi_component_graph, twitter_like_graph
from repro.runtime.failures import FailureSchedule

#: strategies applicable to both iteration models.
COMMON_RECOVERIES = ("optimistic", "checkpoint", "restart")


def _strategy(job, name):
    return {
        "optimistic": job.optimistic,
        "checkpoint": lambda: CheckpointRecovery(interval=2),
        "incremental": IncrementalCheckpointRecovery,
        "restart": RestartRecovery,
    }[name]()


def _config(backend):
    return EngineConfig(
        parallelism=4,
        spare_workers=8,
        parallel_backend=backend,
        parallel_workers=3,
    )


def _fingerprint(result):
    return (
        sorted(result.final_records),
        result.clock.now,
        result.clock.breakdown(),
        result.supersteps,
        result.converged,
        [series.values for series in vars(result.stats).values()
         if hasattr(series, "values")],
    )


def _run_pagerank(backend, recovery_name):
    job = pagerank(twitter_like_graph(60, seed=11), epsilon=1e-3)
    return job.run(
        config=_config(backend),
        recovery=_strategy(job, recovery_name),
        failures=FailureSchedule.single(3, [1]),
    )


def _run_cc(backend, recovery_name):
    job = connected_components(multi_component_graph(3, 12, seed=5))
    return job.run(
        config=_config(backend),
        recovery=_strategy(job, recovery_name),
        failures=FailureSchedule.single(2, [0, 2]),
    )


@pytest.mark.parametrize("recovery_name", COMMON_RECOVERIES)
def test_pagerank_identical_across_backends(recovery_name):
    baseline = _fingerprint(_run_pagerank("serial", recovery_name))
    for backend in ("threads", "processes"):
        assert _fingerprint(_run_pagerank(backend, recovery_name)) == baseline


@pytest.mark.parametrize("recovery_name", COMMON_RECOVERIES + ("incremental",))
def test_connected_components_identical_across_backends(recovery_name):
    baseline = _fingerprint(_run_cc("serial", recovery_name))
    for backend in ("threads", "processes"):
        assert _fingerprint(_run_cc(backend, recovery_name)) == baseline


@pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
def test_spare_exhaustion_fails_identically(backend):
    # No spares: the injected failure is unrecoverable. The error class
    # and the job's partial progress must not depend on the backend.
    job = pagerank(twitter_like_graph(40, seed=3), epsilon=1e-3)
    config = EngineConfig(
        parallelism=4,
        spare_workers=0,
        parallel_backend=backend,
        parallel_workers=2,
    )
    with pytest.raises(RecoveryError):
        job.run(
            config=config,
            recovery=job.optimistic(),
            failures=FailureSchedule.single(2, [1]),
        )


@pytest.mark.parametrize("backend", ("threads", "processes"))
def test_multi_failure_optimistic_identical(backend):
    # Two separate failure events, the second hitting the recovered
    # topology — exercises resident invalidation after reassignment.
    def run(chosen):
        job = connected_components(multi_component_graph(2, 14, seed=9))
        return job.run(
            config=_config(chosen),
            recovery=job.optimistic(),
            failures=FailureSchedule.at((1, [0]), (3, [2])),
        )

    assert _fingerprint(run(backend)) == _fingerprint(run("serial"))
