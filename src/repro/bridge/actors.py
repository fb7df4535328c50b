"""The execution harness: GradientWorker / AggregationServer actors.

This is where a registered scheme stops being simulated and actually *runs*.
Every worker executes the scheme's one implementation -- the same kernels
``session.vnmse`` and ``tta`` run, through the simulator's own per-step loop
(:func:`~repro.bridge.prediction.aggregate_steps`) -- on the one gradient row
it holds, as a rank of a real deployment would.  Its collective backend is a
:class:`TransportBackend` that holds just that rank
(:attr:`~TransportBackend.local_ranks`): it wire-encodes the worker's row of
each collective payload into real bytes, ships it to an
:class:`AggregationServer` over a transport channel, and returns the reduced
payload the server sends back.  The server stacks the decoded rows and folds
them with the simulator's own matrix fold
(:meth:`CollectiveBackend.allreduce_matrix` on the same cluster) and sends
the aggregate back at its own dtype's width, so the only differences between
a harness run and a monolithic simulation are the ones a real deployment
has: wire-precision rounding and actual bytes on a channel.

Workers share the seed, and a rank's stochastic kernels draw exactly its
row's share of the stream the monolithic simulator draws for all rows, so
every worker finishes the round holding the bit-identical mean estimate,
which the harness asserts.

:func:`run_harness` is the one driver of both transports.  They differ only
in the channel factory, in whether workers start as threads or as OS
processes, in where a worker reads its rows (the trace in memory, or its
rank's rows from the trace directory) and in how a hung worker is cleaned
up (a thread is left to its timeout, a process is terminated).  Every
worker runs :func:`_worker_main`, which sends a failure as its ``result``
message with the error's ``repr``; the server raises
``BridgeProtocolError("worker {rank} failed: {error}")`` for the lowest
failing rank of the first batch that holds one, after telling every peer.

Measured per round, per worker: real uplink payload bits/bytes (compared
*exactly* against the simulator's traffic accounting) and wall-clock
seconds.  Simulated seconds come from the scheme's ``estimate_costs`` on the
simulator's side (:func:`~repro.bridge.prediction.simulate_trace`); no
collective here prices anything.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.bridge.prediction import aggregate_steps
from repro.bridge.trace import GradientTrace, load_rank_rows, load_trace, save_trace
from repro.bridge.transport import (
    BridgeTimeoutError,
    inprocess_channel,
    multiprocess_channel,
)
from repro.bridge.wire import (
    EncodedSection,
    decode_section,
    encode_raw,
    encode_section,
)
from repro.collectives.api import Collective, CollectiveBackend
from repro.collectives.ops import ReduceOp, SumOp
from repro.compression.base import SimContext
from repro.compression.registry import make_scheme
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
    :class:`~repro.compression.base.SimContext` that holds one rank: each
    collective is given that rank's payload row, encodes it at its declared
    wire width, and returns the values the :class:`AggregationServer` at the
    other end of ``endpoint`` folded from every rank's.
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

    @property
    def local_ranks(self) -> range:
        """This backend holds its own rank's rows only."""
        return range(self.rank, self.rank + 1)

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
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
    ) -> np.ndarray:
        """Send this rank's one-row payload; the server folds every rank's and replies."""
        self._check_matrix(matrix)
        op = op or SumOp()
        section = encode_section(np.asarray(matrix[0]), wire_bits_per_value)
        self._record("allreduce", [section])
        reply = self._exchange(
            {
                "kind": "allreduce",
                "op": op,
                "collective": collective.value,
                "section": section,
            }
        )
        return decode_section(reply["section"])

    def allgather_sections(
        self,
        worker_sections: list[tuple[np.ndarray, ...]],
        *,
        wire_bits_per_section: tuple[float, ...],
    ) -> list[tuple[np.ndarray, ...]]:
        self._check_count(len(worker_sections), "payloads")
        sections = [
            encode_section(np.asarray(array), bits)
            for array, bits in zip(worker_sections[0], wire_bits_per_section)
        ]
        self._record("allgather", sections)
        reply = self._exchange({"kind": "allgather", "sections": sections})
        per_worker: list[list[EncodedSection]] = reply["sections"]
        return [
            tuple(decode_section(section) for section in sections)
            for sections in per_worker
        ]


class AggregationServer:
    """Reduces wire payloads from lockstep workers and broadcasts results.

    The server owns one channel endpoint per worker.  Workers run the same
    deterministic scheme, so they issue identical sequences of collective
    calls; the server collects message ``k`` from every worker, validates
    that kinds/operators/collectives agree, decodes the payload bytes, stacks
    them into one matrix and folds it with the simulator's own fold
    (:meth:`CollectiveBackend.allreduce_matrix` on the same cluster), and
    replies with the aggregate's own bytes (:func:`encode_raw`: an int8
    saturating level sum goes back at 8 bits per value, a float32 mean at
    32).  Gathers are forwarded verbatim: every worker receives every
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
        """Serve collective traffic until every worker sends its result.

        A batch holding a failed worker's result raises for the lowest
        failing rank, before any other check of the batch.
        """
        world = len(self.endpoints)
        try:
            while len(self.results) < world:
                batch = [
                    self.endpoints[rank].recv(self.timeout) for rank in range(world)
                ]
                failed = sorted(
                    (message["rank"], message["error"])
                    for message in batch
                    if message.get("error")
                )
                if failed:
                    rank, error = failed[0]
                    raise BridgeProtocolError(f"worker {rank} failed: {error}")
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
            section = encode_raw(reduced)
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
    """One rank of the harness: runs the scheme over every trace step.

    ``rows`` holds the rank's own ``(step index, flattened gradient)`` per
    step -- all a rank contributes; its peers' rows reach it only through
    the collectives.
    """

    def __init__(
        self,
        rank: int,
        spec: str,
        rows: list[tuple[int, np.ndarray]],
        cluster: ClusterSpec,
        endpoint,
        *,
        seed: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.rank = rank
        self.spec = spec
        self.rows = rows
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
        steps = aggregate_steps(
            make_scheme(self.spec), ctx, (row[np.newaxis] for _, row in self.rows)
        )
        rounds = []
        for index, _ in self.rows:
            # Pulling the next step runs its aggregation, so it is timed.
            started = time.perf_counter()
            mean, calls, bits_per_coordinate = next(steps)
            rounds.append(
                {
                    "index": index,
                    "mean": mean,
                    "uplink_bits": sum(call.bits for call in calls),
                    "uplink_bytes": sum(call.nbytes for call in calls),
                    "collective_calls": len(calls),
                    "bits_per_coordinate": bits_per_coordinate,
                    "wall_seconds": time.perf_counter() - started,
                }
            )
        return {"kind": "result", "rank": self.rank, "rounds": rounds}


# ------------------------------------------------------------------ #
# The harness driver
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class HarnessRound:
    """Measured outcome of one aggregation round across all workers."""

    index: int
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
        rounds: Per-round measurements, in trace order.
        downlink_bytes: Total server->worker payload bytes: the world size
            times the summed bytes of every reply.  A reduced aggregate goes
            back at its own dtype's width, a gather as every worker's uplink
            sections.  Reported for completeness; the differential traffic
            check compares uplink, which is what the simulator's per-scheme
            accounting prices.
    """

    spec: str
    transport: str
    rounds: tuple[HarnessRound, ...] = field(default_factory=tuple)
    downlink_bytes: int = 0

    @property
    def total_wall_seconds(self) -> float:
        return float(sum(round_.wall_seconds for round_ in self.rounds))


def _merge_results(
    spec: str, transport: str, results: dict[int, dict], downlink_bytes: int
) -> HarnessResult:
    rounds = []
    for per_worker in zip(*(results[rank]["rounds"] for rank in sorted(results))):
        first = per_worker[0]
        # Every worker must leave the round holding the identical estimate:
        # the collective delivered one aggregate, and everything after it is
        # deterministic local arithmetic.  Any divergence is a harness bug.
        for rank, entry in enumerate(per_worker[1:], start=1):
            if not np.array_equal(first["mean"], entry["mean"]):
                raise BridgeProtocolError(
                    f"round {first['index']}: worker {rank}'s mean estimate "
                    "diverged from worker 0's"
                )
        rounds.append(
            HarnessRound(
                index=first["index"],
                mean_estimate=first["mean"],
                per_worker_bits=tuple(entry["uplink_bits"] for entry in per_worker),
                per_worker_bytes=tuple(entry["uplink_bytes"] for entry in per_worker),
                collective_calls=first["collective_calls"],
                bits_per_coordinate=first["bits_per_coordinate"],
                wall_seconds=max(entry["wall_seconds"] for entry in per_worker),
            )
        )
    return HarnessResult(
        spec=spec,
        transport=transport,
        rounds=tuple(rounds),
        downlink_bytes=downlink_bytes,
    )


def _worker_main(
    rank: int,
    spec: str,
    rows_of: Callable[[int], list[tuple[int, np.ndarray]]],
    cluster: ClusterSpec,
    seed: int,
    timeout: float,
    endpoint,
) -> None:
    """Entry point of one worker, thread or process (module-level to spawn).

    Sends the worker's result message; a failure is sent as the result's
    ``error``, which the server raises naming this rank.
    """
    try:
        worker = GradientWorker(
            rank, spec, rows_of(rank), cluster, endpoint, seed=seed, timeout=timeout
        )
        message = worker.run()
    except Exception as error:  # relayed to the server, which raises it
        message = {"kind": "result", "rank": rank, "rounds": [], "error": repr(error)}
    endpoint.send(message)


@contextlib.contextmanager
def _rank_rows(trace: GradientTrace, transport: str) -> Iterator[Callable]:
    """Where each worker reads its own rows, as ``rows_of(rank)``.

    Threads read the trace in memory.  Processes read their rank's rows from
    disk -- the honest path: each process sees only the recorded artifact,
    not driver memory.  A trace read from disk is read again from there;
    one built in memory is saved for the call.
    """
    if transport == "inprocess":
        yield lambda rank: [(step.index, step.flat(rank)) for step in trace.steps]
    elif trace.source is not None:
        yield functools.partial(load_rank_rows, str(trace.source))
    else:
        with tempfile.TemporaryDirectory(prefix="bridge-trace-") as trace_dir:
            save_trace(trace, trace_dir)
            yield functools.partial(load_rank_rows, trace_dir)


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
            pipes and each worker reads its rows from disk: from the
            directory a loaded trace came from, else from a save made for
            the call).
        timeout: Per-message channel timeout; a crashed or deadlocked actor
            surfaces as :class:`~repro.bridge.transport.BridgeTimeoutError`.

    Raises:
        BridgeProtocolError: ``worker {rank} failed: {error}`` when a worker
            raised, for the lowest failing rank; or the protocol broke.
    """
    if isinstance(trace, (str, Path)):
        trace = load_trace(trace)
    cluster = cluster or paper_testbed()
    if cluster.world_size != trace.num_workers:
        raise ValueError(
            f"cluster world size {cluster.world_size} != trace workers "
            f"{trace.num_workers}"
        )
    if transport == "inprocess":
        channel, start = inprocess_channel, threading.Thread
    elif transport == "process":
        channel, start = multiprocess_channel, multiprocessing.get_context().Process
    else:
        raise ValueError(
            f"unknown transport {transport!r}; use 'inprocess' or 'process'"
        )
    channels = [channel() for _ in range(cluster.world_size)]
    server = AggregationServer(
        cluster, [server_end for _, server_end in channels], timeout=timeout
    )
    with _rank_rows(trace, transport) as rows_of:
        workers = [
            start(
                target=_worker_main,
                args=(rank, spec, rows_of, cluster, seed, timeout, worker_end),
                name=f"bridge-w{rank}",
            )
            for rank, (worker_end, _) in enumerate(channels)
        ]
        for worker in workers:
            worker.start()
        try:
            results = server.serve()
        finally:
            for worker in workers:
                worker.join(timeout=timeout)
                if worker.is_alive() and transport == "process":  # pragma: no cover - hung worker
                    worker.terminate()
    return _merge_results(spec, transport, results, server.downlink_bytes)
