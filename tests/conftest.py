"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.api import CollectiveBackend
from repro.compression.base import SimContext
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.kernel_cost import KernelCostModel


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "Rewrite the golden-value fixtures under tests/experiments/goldens/ "
            "from the current driver outputs instead of comparing against them. "
            "Review the resulting diff before committing: goldens exist so "
            "refactors cannot silently shift reproduced numbers."
        ),
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    """Whether this run should rewrite the golden fixtures."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def cluster() -> ClusterSpec:
    """The paper's 2-node x 2-GPU testbed."""
    return paper_testbed()


@pytest.fixture
def backend(cluster: ClusterSpec) -> CollectiveBackend:
    """A collective backend on the paper testbed."""
    return CollectiveBackend(cluster)


@pytest.fixture
def ctx(backend: CollectiveBackend) -> SimContext:
    """A simulation context with a fixed seed."""
    return SimContext(
        backend=backend,
        kernels=KernelCostModel(),
        rng=np.random.default_rng(1234),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture
def worker_gradients(rng: np.random.Generator, cluster: ClusterSpec) -> list[np.ndarray]:
    """Four small worker gradients sharing a common signal component."""
    d = 4096
    shared = rng.standard_normal(d)
    return [
        (shared + 0.5 * rng.standard_normal(d)).astype(np.float32)
        for _ in range(cluster.world_size)
    ]


@pytest.fixture
def true_mean(worker_gradients: list[np.ndarray]) -> np.ndarray:
    """The exact mean of the fixture gradients."""
    return np.mean(np.stack(worker_gradients), axis=0)
