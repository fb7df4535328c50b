"""The execution harness: GradientWorker / AggregationServer actors.

This is where a registered scheme stops being simulated and actually *runs*.
Every worker executes the scheme's one implementation -- the same kernels
``session.vnmse`` and ``tta`` run -- but the collective backend underneath it
is a :class:`TransportBackend` that wire-encodes the worker's own row of each
collective payload into real bytes, ships it to an :class:`AggregationServer`
over a transport channel, and returns the reduced payload the server sends
back.  The server stacks the decoded rows and folds them with the
simulator's own matrix fold (:meth:`CollectiveBackend.allreduce_matrix` on
the same cluster), so the only differences between a harness run and a
monolithic simulation are the ones a real deployment has: wire-precision
rounding and actual bytes on a channel.

Execution is SPMD: worker ``i`` calls ``scheme.aggregate`` on a gradient
list that is zero everywhere except its own rank.  Registered schemes derive
their mean estimate exclusively from collective results (enforced by the
exactness tests in ``tests/bridge/``), so the placeholder rows never leak
into any output -- and every worker must finish the round holding the
bit-identical mean estimate, which the harness asserts.  Workers share the
seed, so every rank draws the same rng stream as the monolithic simulator.

Measured per round, per worker: real uplink payload bits/bytes (compared
*exactly* against the simulator's traffic accounting), the scheme's VNMSE on
the trace's true mean, wall-clock seconds, and the simulated seconds the
priced cost model attributes to the same round.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bridge.trace import GradientTrace, load_trace, save_trace
from repro.bridge.transport import (
    BridgeTimeoutError,
    inprocess_channel,
    multiprocess_channel,
)
from repro.bridge.wire import EncodedSection, decode_section, encode_section
from repro.collectives.api import (
    Collective,
    CollectiveBackend,
    CollectiveResult,
    SectionedGatherResult,
)
from repro.collectives.ops import ReduceOp, SumOp
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
from repro.core.metrics import vnmse
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.kernel_cost import KernelCostModel

#: Default per-message timeout of harness channels.
DEFAULT_TIMEOUT = 60.0


class BridgeProtocolError(RuntimeError):
    """Workers sent inconsistent or unexpected messages to the server."""


@dataclass
class CallRecord:
    """Uplink accounting for one collective call made by one worker."""

    kind: str
    bits: int
    nbytes: int


class TransportBackend(CollectiveBackend):
    """A collective backend whose payloads cross a real transport channel.

    Drop-in replacement for :class:`CollectiveBackend` inside a
    :class:`~repro.compression.base.SimContext`: the functional result comes
    from the :class:`AggregationServer` at the other end of ``endpoint``,
    while the priced :class:`CollectiveCost` is computed by the same cost
    model the simulator uses, as the :class:`CollectiveBackend` contract
    requires.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        rank: int,
        endpoint,
        *,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        super().__init__(cluster)
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside world of {self.world_size}")
        self.rank = rank
        self.endpoint = endpoint
        self.timeout = timeout
        self.sequence = 0
        self.calls: list[CallRecord] = []

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    @property
    def uplink_bits(self) -> int:
        """Logical bits this worker has put on the wire so far."""
        return sum(call.bits for call in self.calls)

    @property
    def uplink_bytes(self) -> int:
        """Actual payload bytes this worker has put on the wire so far."""
        return sum(call.nbytes for call in self.calls)

    def _record(self, kind: str, sections: list[EncodedSection]) -> None:
        self.calls.append(
            CallRecord(
                kind=kind,
                bits=sum(section.bits for section in sections),
                nbytes=sum(section.nbytes for section in sections),
            )
        )

    def _exchange(self, message: dict) -> dict:
        message["seq"] = self.sequence
        message["rank"] = self.rank
        self.sequence += 1
        self.endpoint.send(message)
        reply = self.endpoint.recv(self.timeout)
        if reply.get("kind") == "error":
            raise BridgeProtocolError(f"server reported: {reply.get('error')}")
        if reply.get("seq") != message["seq"]:
            raise BridgeProtocolError(
                f"reply out of order: sent seq {message['seq']}, "
                f"got {reply.get('seq')}"
            )
        return reply

    # -------------------------------------------------------------- #
    # Collectives
    # -------------------------------------------------------------- #
    def allreduce_matrix(
        self,
        matrix: np.ndarray,
        *,
        wire_bits_per_value: float,
        op: ReduceOp | None = None,
        collective: Collective = Collective.RING_ALLREDUCE,
    ) -> CollectiveResult:
        """Send this rank's row; the server folds every rank's and replies.

        The other rows are the rank's local placeholders and never leave it.
        """
        self._check_matrix(matrix)
        op = op or SumOp()
        own = np.asarray(matrix[self.rank])
        section = encode_section(own, wire_bits_per_value)
        self._record("allreduce", [section])
        reply = self._exchange(
            {
                "kind": "allreduce",
                "op": op,
                "collective": collective.value,
                "section": section,
            }
        )
        aggregate = decode_section(reply["section"])
        cost = self.allreduce_cost(own.size * wire_bits_per_value, collective)
        return CollectiveResult(aggregate=aggregate, gathered=None, cost=cost)

    def allgather(
        self,
        worker_payloads: list[np.ndarray],
        *,
        wire_bits_per_value: float,
    ) -> CollectiveResult:
        if len(worker_payloads) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_payloads)}"
            )
        own = np.asarray(worker_payloads[self.rank])
        section = encode_section(own, wire_bits_per_value)
        self._record("allgather", [section])
        reply = self._exchange({"kind": "allgather", "sections": [section]})
        per_worker: list[list[EncodedSection]] = reply["sections"]
        gathered = [decode_section(sections[0]) for sections in per_worker]
        max_bits = max(sum(s.bits for s in sections) for sections in per_worker)
        cost = self.cost_model.allgather(float(max_bits))
        return CollectiveResult(aggregate=None, gathered=gathered, cost=cost)

    def allgather_sections(
        self,
        worker_sections: list[tuple[np.ndarray, ...]],
        *,
        wire_bits_per_section: tuple[float, ...],
    ) -> SectionedGatherResult:
        if len(worker_sections) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} payloads, got {len(worker_sections)}"
            )
        own = worker_sections[self.rank]
        sections = [
            encode_section(np.asarray(array), bits)
            for array, bits in zip(own, wire_bits_per_section)
        ]
        self._record("allgather", sections)
        reply = self._exchange({"kind": "allgather", "sections": sections})
        per_worker: list[list[EncodedSection]] = reply["sections"]
        gathered = [
            tuple(decode_section(section) for section in sections)
            for sections in per_worker
        ]
        max_bits = max(sum(s.bits for s in sections) for sections in per_worker)
        cost = self.cost_model.allgather(float(max_bits))
        return SectionedGatherResult(gathered=gathered, cost=cost)

    def parameter_server(self, *args, **kwargs):
        raise NotImplementedError(
            "the bridge transports all-reduce and all-gather; no registered "
            "scheme aggregates through a parameter server"
        )


class AggregationServer:
    """Reduces wire payloads from lockstep workers and broadcasts results.

    The server owns one channel endpoint per worker.  Workers run the same
    deterministic scheme, so they issue identical sequences of collective
    calls; the server collects message ``k`` from every worker, validates
    that kinds/operators/collectives agree, decodes the payload bytes, stacks
    them into one matrix and folds it with the simulator's own fold
    (:meth:`CollectiveBackend.allreduce_matrix` on the same cluster), and
    replies.  Gathers are forwarded verbatim: every worker receives every
    worker's encoded sections.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        endpoints: list,
        *,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.backend = CollectiveBackend(cluster)
        self.endpoints = endpoints
        self.timeout = timeout
        self.downlink_bytes = 0
        self.collective_calls = 0
        self.results: dict[int, dict] = {}

    def serve(self) -> dict[int, dict]:
        """Serve collective traffic until every worker sends its result."""
        world = len(self.endpoints)
        try:
            while len(self.results) < world:
                batch = [
                    self.endpoints[rank].recv(self.timeout) for rank in range(world)
                ]
                kinds = {message.get("kind") for message in batch}
                if kinds == {"result"}:
                    for message in batch:
                        self.results[message["rank"]] = message
                    break
                if len(kinds) != 1:
                    raise BridgeProtocolError(
                        f"workers desynchronised: mixed message kinds {sorted(kinds)}"
                    )
                self._serve_collective(batch)
        except Exception as error:
            # A worker blocked on recv() must fail loudly, not time out in
            # silence: broadcast the failure before propagating it.
            for endpoint in self.endpoints:
                try:
                    endpoint.send({"kind": "error", "error": repr(error)})
                except Exception:  # reprolint: disable=RPL007 - best-effort notify; the original error re-raises below
                    pass  # pragma: no cover - channel already gone
            raise
        return self.results

    def _serve_collective(self, batch: list[dict]) -> None:
        kind = batch[0]["kind"]
        seqs = {message["seq"] for message in batch}
        if len(seqs) != 1:
            raise BridgeProtocolError(f"workers desynchronised: seqs {sorted(seqs)}")
        by_rank = sorted(batch, key=lambda message: message["rank"])
        if [message["rank"] for message in by_rank] != list(range(len(batch))):
            raise BridgeProtocolError("duplicate or missing worker ranks in batch")
        self.collective_calls += 1
        seq = by_rank[0]["seq"]

        if kind == "allreduce":
            ops = {repr(message["op"]) for message in by_rank}
            collectives = {message["collective"] for message in by_rank}
            if len(ops) != 1 or len(collectives) != 1:
                raise BridgeProtocolError(
                    f"workers disagree on the reduction: ops={sorted(ops)} "
                    f"collectives={sorted(collectives)}"
                )
            first = by_rank[0]["section"]
            reduced = self.backend.allreduce_matrix(
                np.stack([decode_section(message["section"]) for message in by_rank]),
                wire_bits_per_value=first.wire_bits,
                op=by_rank[0]["op"],
                collective=Collective(by_rank[0]["collective"]),
            )
            section = encode_section(np.asarray(reduced.aggregate), 64.0)
            reply = {"kind": "reduced", "seq": seq, "section": section}
            for endpoint in self.endpoints:
                endpoint.send(reply)
                self.downlink_bytes += section.nbytes
        elif kind == "allgather":
            counts = {len(message["sections"]) for message in by_rank}
            if len(counts) != 1:
                raise BridgeProtocolError(
                    f"workers disagree on section counts: {sorted(counts)}"
                )
            all_sections = [message["sections"] for message in by_rank]
            reply = {"kind": "gathered", "seq": seq, "sections": all_sections}
            nbytes = sum(s.nbytes for sections in all_sections for s in sections)
            for endpoint in self.endpoints:
                endpoint.send(reply)
                self.downlink_bytes += nbytes
        else:
            raise BridgeProtocolError(f"unknown message kind {kind!r}")


class GradientWorker:
    """One rank of the harness: runs the scheme over every trace step."""

    def __init__(
        self,
        rank: int,
        spec: str,
        trace: GradientTrace,
        cluster: ClusterSpec,
        endpoint,
        *,
        seed: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.rank = rank
        self.spec = spec
        self.trace = trace
        self.cluster = cluster
        self.endpoint = endpoint
        self.seed = seed
        self.timeout = timeout

    def run(self) -> dict:
        """Aggregate every trace step; return the result message."""
        backend = TransportBackend(
            self.cluster, self.rank, self.endpoint, timeout=self.timeout
        )
        ctx = SimContext(
            backend=backend,
            kernels=KernelCostModel(gpu=self.cluster.gpu),
            rng=np.random.default_rng(self.seed),
        )
        scheme = make_scheme(self.spec)
        world = self.cluster.world_size
        d = self.trace.num_coordinates
        zero = np.zeros(d, dtype=np.float32)

        rounds = []
        for step in self.trace.steps:
            # SPMD: only this worker's own row carries data; peers'
            # contributions arrive through the collective, never this list.
            gradients = [zero] * world
            gradients[self.rank] = step.flat(self.rank)
            calls_before = len(backend.calls)
            bits_before = backend.uplink_bits
            bytes_before = backend.uplink_bytes
            started = time.perf_counter()
            result = scheme.aggregate(gradients, ctx)
            wall_seconds = time.perf_counter() - started
            rounds.append(
                {
                    "index": step.index,
                    "mean": np.asarray(result.mean_estimate, dtype=np.float32),
                    "uplink_bits": backend.uplink_bits - bits_before,
                    "uplink_bytes": backend.uplink_bytes - bytes_before,
                    "collective_calls": len(backend.calls) - calls_before,
                    "bits_per_coordinate": result.bits_per_coordinate,
                    "wall_seconds": wall_seconds,
                }
            )
        return {"kind": "result", "rank": self.rank, "rounds": rounds}


# ------------------------------------------------------------------ #
# Harness drivers
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class HarnessRound:
    """Measured outcome of one aggregation round across all workers."""

    index: int
    vnmse: float
    mean_estimate: np.ndarray
    per_worker_bits: tuple[int, ...]
    per_worker_bytes: tuple[int, ...]
    collective_calls: int
    bits_per_coordinate: float
    wall_seconds: float


@dataclass(frozen=True)
class HarnessResult:
    """What one harness run measured.

    Attributes:
        spec: The scheme spec that ran.
        transport: ``"inprocess"`` or ``"process"``.
        rounds: Per-round measurements; ``vnmse`` is computed against the
            trace's exact per-step mean.
        downlink_bytes: Total server->worker payload bytes (reported for
            completeness; the differential traffic check compares uplink,
            which is what the simulator's per-scheme accounting prices).
    """

    spec: str
    transport: str
    rounds: tuple[HarnessRound, ...] = field(default_factory=tuple)
    downlink_bytes: int = 0

    @property
    def mean_vnmse(self) -> float:
        return float(np.mean([round_.vnmse for round_ in self.rounds]))

    @property
    def total_uplink_bits(self) -> int:
        return sum(sum(round_.per_worker_bits) for round_ in self.rounds)

    @property
    def total_wall_seconds(self) -> float:
        return float(sum(round_.wall_seconds for round_ in self.rounds))


def _merge_results(
    spec: str,
    transport: str,
    trace: GradientTrace,
    results: dict[int, dict],
    downlink_bytes: int,
) -> HarnessResult:
    world = trace.num_workers
    rounds = []
    for position, step in enumerate(trace.steps):
        per_worker = [results[rank]["rounds"][position] for rank in range(world)]
        means = [entry["mean"] for entry in per_worker]
        # Every worker must leave the round holding the identical estimate:
        # the collective delivered one aggregate, and everything after it is
        # deterministic local arithmetic.  Any divergence is a harness bug.
        for rank in range(1, world):
            if not np.array_equal(means[0], means[rank]):
                raise BridgeProtocolError(
                    f"round {step.index}: worker {rank}'s mean estimate "
                    "diverged from worker 0's"
                )
        rounds.append(
            HarnessRound(
                index=step.index,
                vnmse=vnmse(means[0], step.true_mean()),
                mean_estimate=means[0],
                per_worker_bits=tuple(entry["uplink_bits"] for entry in per_worker),
                per_worker_bytes=tuple(entry["uplink_bytes"] for entry in per_worker),
                collective_calls=per_worker[0]["collective_calls"],
                bits_per_coordinate=per_worker[0]["bits_per_coordinate"],
                wall_seconds=max(entry["wall_seconds"] for entry in per_worker),
            )
        )
    return HarnessResult(
        spec=spec,
        transport=transport,
        rounds=tuple(rounds),
        downlink_bytes=downlink_bytes,
    )


def _run_inprocess(
    spec: str,
    trace: GradientTrace,
    cluster: ClusterSpec,
    seed: int,
    timeout: float,
) -> HarnessResult:
    world = cluster.world_size
    channels = [inprocess_channel() for _ in range(world)]
    server = AggregationServer(
        cluster, [server_end for _, server_end in channels], timeout=timeout
    )

    failures: dict[int, BaseException] = {}

    def worker_main(rank: int) -> None:
        worker = GradientWorker(
            rank,
            spec,
            trace,
            cluster,
            channels[rank][0],
            seed=seed,
            timeout=timeout,
        )
        try:
            channels[rank][0].send(worker.run())
        except BaseException as error:  # noqa: B036 - relayed to the driver
            failures[rank] = error
            # Unblock the server so the driver sees the real error.
            channels[rank][0].send({"kind": "result", "rank": rank, "rounds": []})

    threads = [
        threading.Thread(target=worker_main, args=(rank,), name=f"bridge-w{rank}")
        for rank in range(world)
    ]
    for thread in threads:
        thread.start()
    try:
        results = server.serve()
    except Exception as server_error:
        for thread in threads:
            thread.join(timeout=timeout)
        # A worker failure desynchronises the protocol before the server
        # notices; report the root cause, not the symptom.
        if failures:
            rank, error = sorted(failures.items())[0]
            raise BridgeProtocolError(
                f"worker {rank} failed: {error!r}"
            ) from error
        raise server_error
    finally:
        for thread in threads:
            thread.join(timeout=timeout)
    if failures:
        rank, error = sorted(failures.items())[0]
        raise BridgeProtocolError(f"worker {rank} failed: {error!r}") from error
    return _merge_results(spec, "inprocess", trace, results, server.downlink_bytes)


def _process_worker_main(
    rank: int,
    spec: str,
    trace_dir: str,
    cluster: ClusterSpec,
    seed: int,
    timeout: float,
    endpoint,
) -> None:
    """Entry point of one worker OS process (must be module-level to spawn)."""
    try:
        trace = load_trace(trace_dir)
        worker = GradientWorker(
            rank, spec, trace, cluster, endpoint, seed=seed, timeout=timeout
        )
        endpoint.send(worker.run())
    except BaseException as error:  # noqa: B036 - relayed to the driver
        endpoint.send(
            {"kind": "result", "rank": rank, "rounds": [], "error": repr(error)}
        )
        raise


def _run_multiprocess(
    spec: str,
    trace: GradientTrace,
    cluster: ClusterSpec,
    seed: int,
    timeout: float,
    trace_dir: str | None,
) -> HarnessResult:
    world = cluster.world_size
    with tempfile.TemporaryDirectory(prefix="bridge-trace-") as scratch:
        if trace_dir is None:
            # Workers load the trace from disk -- the honest path: each
            # process sees only the recorded artifact, not driver memory.
            save_trace(trace, scratch)
            trace_dir = scratch
        channels = [multiprocess_channel() for _ in range(world)]
        mp_context = multiprocessing.get_context()
        processes = [
            mp_context.Process(
                target=_process_worker_main,
                args=(
                    rank,
                    spec,
                    str(Path(trace_dir)),
                    cluster,
                    seed,
                    timeout,
                    channels[rank][0],
                ),
                name=f"bridge-w{rank}",
            )
            for rank in range(world)
        ]
        for process in processes:
            process.start()
        server = AggregationServer(
            cluster, [server_end for _, server_end in channels], timeout=timeout
        )
        try:
            results = server.serve()
        finally:
            for process in processes:
                process.join(timeout=timeout)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
    errors = {
        rank: message["error"]
        for rank, message in results.items()
        if message.get("error")
    }
    if errors:
        rank = sorted(errors)[0]
        raise BridgeProtocolError(f"worker {rank} failed: {errors[rank]}")
    return _merge_results(spec, "process", trace, results, server.downlink_bytes)


def run_harness(
    spec: str,
    trace: GradientTrace | str | Path,
    *,
    cluster: ClusterSpec | None = None,
    seed: int = 0,
    transport: str = "inprocess",
    timeout: float = DEFAULT_TIMEOUT,
) -> HarnessResult:
    """Actually run ``spec`` over ``trace`` on worker/server actors.

    Args:
        spec: Scheme spec string (each worker builds its own instance).
        trace: An in-memory :class:`GradientTrace` or a trace directory.
        cluster: Simulated cluster pricing the rounds; its world size must
            equal the trace's worker count.  Defaults to the paper testbed.
        seed: Seeds every worker's compression rng.  Workers share the seed,
            which reproduces the monolithic simulator's randomness stream --
            measured and simulated stochastic schemes then agree up to wire
            rounding (different seeds agree only in distribution).
        transport: ``"inprocess"`` (worker threads, the default) or
            ``"process"`` (one OS process per worker; payloads cross real
            pipes and workers load the trace from disk).
        timeout: Per-message channel timeout; a crashed or deadlocked actor
            surfaces as :class:`~repro.bridge.transport.BridgeTimeoutError`.
    """
    trace_dir: str | None = None
    if isinstance(trace, (str, Path)):
        trace_dir = str(trace)
        trace = load_trace(trace_dir)
    cluster = cluster or paper_testbed()
    if cluster.world_size != trace.num_workers:
        raise ValueError(
            f"cluster world size {cluster.world_size} != trace workers "
            f"{trace.num_workers}"
        )
    if transport == "inprocess":
        return _run_inprocess(spec, trace, cluster, seed, timeout)
    if transport == "process":
        return _run_multiprocess(spec, trace, cluster, seed, timeout, trace_dir)
    raise ValueError(f"unknown transport {transport!r}; use 'inprocess' or 'process'")
