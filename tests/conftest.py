"""Shared fixtures for the test suite."""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.graph.generators import erdos_renyi_adjacency, grid_adjacency, path_adjacency
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.spark.context import SparkContext


def _sharedfs_dirs() -> set[str]:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "apspark-sharedfs-*")))


@pytest.fixture(scope="session", autouse=True)
def no_leaked_sharedfs_dirs():
    """Fail the run when it leaves new shared-fs temp dirs behind.

    A context removes the temp dir it created on ``stop()``, so a leftover
    dir means some test or fixture never stopped its context or engine.
    """
    before = _sharedfs_dirs()
    yield
    leaked = sorted(_sharedfs_dirs() - before)
    if leaked:
        pytest.fail(f"the test run left {len(leaked)} apspark-sharedfs-* temp "
                    f"dir(s) behind, e.g. {leaked[0]}: stop every context and "
                    "engine a test opens")


@pytest.fixture
def engine_config() -> EngineConfig:
    """Small deterministic engine configuration used by most engine tests."""
    return EngineConfig(backend="serial", num_executors=4, cores_per_executor=2)


@pytest.fixture
def threaded_config() -> EngineConfig:
    """Thread-pool backend configuration (exercises concurrent task execution)."""
    return EngineConfig(backend="threads", num_executors=2, cores_per_executor=2)


@pytest.fixture
def spark_context(engine_config):
    """A SparkContext that is stopped at the end of the test."""
    sc = SparkContext(engine_config)
    yield sc
    sc.stop()


@pytest.fixture(scope="session")
def small_er_graph() -> np.ndarray:
    """A 48-vertex Erdős–Rényi adjacency matrix shared across tests."""
    return erdos_renyi_adjacency(48, seed=7)


@pytest.fixture(scope="session")
def small_er_reference(small_er_graph) -> np.ndarray:
    """Ground-truth APSP distances for :func:`small_er_graph`."""
    return floyd_warshall_reference(small_er_graph)


@pytest.fixture(scope="session")
def medium_er_graph() -> np.ndarray:
    """A 96-vertex Erdős–Rényi adjacency matrix for solver integration tests."""
    return erdos_renyi_adjacency(96, seed=19)


@pytest.fixture(scope="session")
def medium_er_reference(medium_er_graph) -> np.ndarray:
    return floyd_warshall_reference(medium_er_graph)


@pytest.fixture(scope="session")
def grid_graph() -> np.ndarray:
    """A 6x8 grid graph whose shortest paths are Manhattan distances."""
    return grid_adjacency(6, 8)


@pytest.fixture(scope="session")
def path_graph() -> np.ndarray:
    """A 12-vertex path graph with unit weights."""
    return path_adjacency(12)
