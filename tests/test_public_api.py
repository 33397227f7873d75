"""Export integrity: every name in every package's ``__all__`` must
resolve, and the README's core imports must work verbatim."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.algorithms",
    "repro.core",
    "repro.dataflow",
    "repro.demo",
    "repro.graph",
    "repro.iteration",
    "repro.observability",
    "repro.pregel",
    "repro.runtime",
    "repro.service",
    "repro.views",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} is exported but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted(package_name):
    package = importlib.import_module(package_name)
    exported = list(package.__all__)
    assert exported == sorted(exported), f"{package_name}.__all__ is not sorted"


def test_readme_quickstart_imports():
    from repro.graph import demo_graph
    from repro.algorithms import connected_components
    from repro.core import OptimisticRecovery
    from repro.runtime import FailureSchedule

    job = connected_components(demo_graph())
    assert isinstance(job.optimistic(), OptimisticRecovery)
    assert FailureSchedule.single(superstep=2, worker_ids=[0])


def test_every_algorithm_factory_is_exported():
    import repro.algorithms as algorithms

    for factory in ("connected_components", "pagerank", "sssp", "kmeans", "als", "hits"):
        assert factory in algorithms.__all__


def test_every_strategy_is_exported():
    import repro.core as core

    for strategy in (
        "OptimisticRecovery",
        "CheckpointRecovery",
        "IncrementalCheckpointRecovery",
        "RestartRecovery",
    ):
        assert strategy in core.__all__


def test_importing_the_packages_leaves_numpy_and_networkx_unloaded():
    """numpy and networkx are imported by the functions that use them,
    so the CLI, the service and every engine process start without them."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, repro.graph, repro.algorithms, repro.service, repro.demo.cli; "
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"
