"""Bridge workers are rank-local: each rank encodes only its own row.

A worker holds one gradient row, so its kernels run over one row -- the
forward rotation and the stochastic rounding included -- while
``simulate_trace`` runs them over all ``n``; its scratch shrinks with it.
Error feedback keeps each rank's residual on that rank and still tracks the
simulator round by round.  A process-transport run reads a trace loaded
from disk where it lies, and saves only a trace built in memory.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

import repro.bridge.actors as actors
import repro.bridge.prediction as prediction
import repro.compression.qsgd as qsgd
import repro.compression.thc as thc
from repro.bridge import (
    RecordingBackend,
    load_trace,
    run_harness,
    save_trace,
    simulate_trace,
    synthetic_trace,
)
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
from repro.simulator.cluster import ClusterSpec
from repro.simulator.kernel_cost import KernelCostModel

THC_FULL = "thc(q=4, rot=full, agg=sat)"


def cluster_of(world_size: int) -> ClusterSpec:
    return ClusterSpec(num_nodes=1, gpus_per_node=world_size)


def spy(monkeypatch, module, name: str, rows_of) -> list[tuple[str, int]]:
    """Record ``(thread name, rows)`` for every call of ``module.name``."""
    calls: list[tuple[str, int]] = []
    function = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((threading.current_thread().name, rows_of(*args)))
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def split(calls: list[tuple[str, int]]) -> tuple[list[int], list[int]]:
    """Rows per call on the bridge's worker threads, and on the simulator's."""
    workers = [rows for thread, rows in calls if thread.startswith("bridge-w")]
    simulator = [rows for thread, rows in calls if not thread.startswith("bridge-w")]
    return workers, simulator


@pytest.mark.parametrize("world_size", [2, 4])
@pytest.mark.parametrize(
    "spec", [THC_FULL, "thc(q=4, rot=partial, agg=sat)", "qsgd(q=4, agg=sat)"]
)
def test_workers_run_their_kernels_over_one_row(spec, world_size, monkeypatch):
    cluster = cluster_of(world_size)
    trace = synthetic_trace(num_steps=2, num_workers=world_size, seed=5)
    rotations = spy(monkeypatch, thc, "fwht_rows", lambda matrix, *_: matrix.shape[0])
    roundings = [
        spy(monkeypatch, module, "round_stochastically", lambda _, levels, *__: levels.shape[0])
        for module in (thc, qsgd)
    ]
    run_harness(spec, trace, cluster=cluster, seed=9)
    simulate_trace(spec, trace, cluster=cluster, seed=9)

    rounded_workers, rounded_simulator = split(roundings[0] + roundings[1])
    assert rounded_workers == [1] * (world_size * trace.num_steps)
    assert rounded_simulator == [world_size] * trace.num_steps
    rotated_workers, rotated_simulator = split(rotations)
    if spec.startswith("thc"):
        # Per step: the forward over the held rows, the inverse on the mean.
        assert rotated_workers == [1] * (2 * world_size * trace.num_steps)
        assert rotated_simulator == [world_size, 1] * trace.num_steps
    else:
        assert rotations == []


def record_contexts(monkeypatch, module) -> list[SimContext]:
    """Every ``SimContext`` that ``module`` builds."""
    built: list[SimContext] = []

    def building(**kwargs):
        ctx = SimContext(**kwargs)
        built.append(ctx)
        return ctx

    monkeypatch.setattr(module, "SimContext", building)
    return built


def scratch_bytes(ctx: SimContext) -> int:
    """Bytes of the workspace's one-dimensional buffers: tiles and row blocks."""
    return sum(
        buffer.nbytes for buffer in ctx.workspace._buffers.values() if buffer.ndim == 1
    )


# The default trace (d = 5,773) and one whose padded rows exceed a tile
# (d = 70,001, so the transform runs one row per block).
@pytest.mark.parametrize("layers", [None, (("w", (70001,)),)])
@pytest.mark.parametrize("world_size", [2, 4])
def test_worker_workspace_is_a_share_of_the_simulators(world_size, layers, monkeypatch):
    cluster = cluster_of(world_size)
    extra = {} if layers is None else {"layers": layers}
    trace = synthetic_trace(num_steps=1, num_workers=world_size, seed=5, **extra)
    workers = record_contexts(monkeypatch, actors)
    simulators = record_contexts(monkeypatch, prediction)
    run_harness(THC_FULL, trace, cluster=cluster, seed=9)
    simulate_trace(THC_FULL, trace, cluster=cluster, seed=9)

    (simulator,) = simulators
    assert len(workers) == world_size
    share = simulator.workspace.allocated_bytes() / world_size
    for worker in workers:
        assert worker.workspace.allocated_bytes() <= share + scratch_bytes(worker)


class Float16RangeBackend(RecordingBackend):
    """The simulator's fold, fed 16-bit float payloads as the wire rounds them."""

    def allreduce_matrix(self, matrix, *, wire_bits_per_value, **kwargs):
        if wire_bits_per_value == 16.0 and not np.issubdtype(matrix.dtype, np.integer):
            matrix = matrix.astype(np.float16).astype(matrix.dtype)
        return super().allreduce_matrix(
            matrix, wire_bits_per_value=wire_bits_per_value, **kwargs
        )


@pytest.mark.parametrize(
    "spec", ["ef(thc(q=4, rot=full, agg=sat))", "ef(topk(b=2))", "ef(qsgd(q=4, agg=sat))"]
)
def test_error_feedback_tracks_the_simulator_round_by_round(spec, monkeypatch):
    """Each rank keeps only its own residual, and both it and the mean match
    a simulator whose 16-bit float payloads are rounded as the wire rounds
    them (THC's range consensus; the other payloads cross it losslessly)."""
    cluster = cluster_of(4)
    trace = synthetic_trace(num_steps=3, num_workers=4, seed=5)
    built: dict[str, object] = {}

    def building(worker_spec):
        scheme = make_scheme(worker_spec)
        built[threading.current_thread().name] = scheme
        return scheme

    monkeypatch.setattr(actors, "make_scheme", building)
    measured = run_harness(spec, trace, cluster=cluster, seed=9)

    ctx = SimContext(
        backend=Float16RangeBackend(cluster),
        kernels=KernelCostModel(gpu=cluster.gpu),
        rng=np.random.default_rng(9),
    )
    scheme = make_scheme(spec)
    for step, round_ in zip(trace.steps, measured.rounds):
        simulated = scheme.aggregate(step.flats(), ctx).mean_estimate
        assert np.array_equal(round_.mean_estimate, simulated)
    for rank in range(cluster.world_size):
        (residual,) = built[f"bridge-w{rank}"].residuals
        np.testing.assert_array_equal(residual, scheme.residuals[rank])


class TestTraceSavedOnce:
    @pytest.fixture
    def saves(self, monkeypatch) -> list[str]:
        calls: list[str] = []
        save = actors.save_trace

        def counting(trace, directory):
            calls.append(str(directory))
            return save(trace, directory)

        monkeypatch.setattr(actors, "save_trace", counting)
        return calls

    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(num_steps=2, num_workers=2, seed=5)

    def test_a_loaded_trace_is_read_where_it_lies(self, trace, saves, tmp_path):
        save_trace(trace, tmp_path / "t")
        loaded = load_trace(tmp_path / "t")
        assert loaded.source == tmp_path / "t"
        measured = run_harness(
            "topk(b=2)", loaded, cluster=cluster_of(2), seed=9, transport="process"
        )
        assert saves == []
        simulated = simulate_trace("topk(b=2)", trace, cluster=cluster_of(2), seed=9)
        for sim, meas in zip(simulated.rounds, measured.rounds):
            np.testing.assert_array_equal(meas.mean_estimate, sim.mean_estimate)

    def test_a_trace_built_in_memory_is_saved_for_the_call(self, trace, saves):
        assert trace.source is None
        run_harness("topk(b=2)", trace, cluster=cluster_of(2), seed=9, transport="process")
        assert len(saves) == 1

    def test_a_copy_of_a_loaded_trace_is_saved_again(self, trace, saves, tmp_path):
        save_trace(trace, tmp_path / "t")
        copy = dataclasses.replace(load_trace(tmp_path / "t"), metadata={"edited": True})
        assert copy.source is None
        run_harness("topk(b=2)", copy, cluster=cluster_of(2), seed=9, transport="process")
        assert len(saves) == 1
