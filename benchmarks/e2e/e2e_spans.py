"""Per-layer spans for the end-to-end benchmark, recorded from outside ``src``.

The traced run wraps the public entry points of each layer (``repro.api``,
``repro.compression``, ``repro.collectives``, ``repro.simulator``,
``repro.training``, ``repro.service`` and ``repro.bridge``) with spans.
Nothing under ``src/`` changes: class methods are wrapped on the class that
defines them, and module functions bound into other modules with
``from x import f`` are replaced in every ``repro`` module that holds them.

Spans nest per thread.  A span's self time is its duration minus the time
its direct child spans cover.  A call into a layer that is already open on
the same thread (``ErrorFeedback`` wrapping an inner scheme, ``make_scheme``
calling ``parse_spec``) records no second span, so every call is counted
once, at its outermost boundary.  Counts are taken at the same boundaries.
Everything is held in memory; :func:`summarize` turns it into per-layer
count, busy, self, p50 and tail.

Bridge workers are forked processes.  Each worker's spans are shipped back
inside its result message and merged by the server, so worker-side encode,
decode, trace-load and wait times appear in the parent's summary.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Key of the worker-side span export inside a bridge result message.
SHIPPED_KEY = "e2e_spans"


class Recorder:
    """In-memory span and counter store; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.origin_pid = os.getpid()
        self._reset(self.origin_pid)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def stack(self) -> list:
        """This thread's open spans; a forked child starts from empty."""
        pid = os.getpid()
        if pid != self.pid:
            self._reset(pid)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def in_child(self) -> bool:
        """Whether this is a forked worker rather than the benchmark process."""
        return os.getpid() != self.origin_pid

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def export(self) -> dict:
        return {
            "spans": {name: list(samples) for name, samples in self.spans.items()},
            "counts": dict(self.counts),
        }

    def merge(self, exported: dict) -> None:
        for name, samples in exported["spans"].items():
            self.spans[name].extend(tuple(sample) for sample in samples)
        for name, amount in exported["counts"].items():
            self.counts[name] += amount


def traced(recorder: Recorder, name: str, function, after=None):
    """``function`` wrapped in a span named ``name``.

    ``after(result, args, kwargs)`` runs once the call returns, for counts
    taken at the same boundary.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        stack = recorder.stack()
        if any(frame[0] == name for frame in stack):
            return function(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += duration
            recorder.spans[name].append((duration, duration - frame[1]))
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _replace_function(recorder: Recorder, function, name: str, after=None) -> None:
    """Replace ``function`` in every loaded ``repro`` module that binds it."""
    wrapper = traced(recorder, name, function, after)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                setattr(module, attribute, wrapper)


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _wrap_methods(
    recorder: Recorder, base: type, methods: tuple[str, ...], name: str, after=None
) -> None:
    """Wrap each method on ``base`` and on every subclass that defines it."""
    for cls in _subclasses(base):
        for method in methods:
            original = cls.__dict__.get(method)
            if original is not None:
                setattr(cls, method, traced(recorder, name, original, after))


def _payload_bits(method: str, args: tuple, kwargs: dict) -> float:
    """Per-worker payload bits of one collective call, from its arguments."""
    if method in ("allreduce", "parameter_server"):
        return float(np.asarray(args[1][0]).size * kwargs["wire_bits_per_value"])
    if method == "allreduce_matrix":
        return float(args[1].shape[1] * kwargs["wire_bits_per_value"])
    if method == "allgather":
        return float(
            max(np.asarray(p).size for p in args[1]) * kwargs["wire_bits_per_value"]
        )
    if method == "allgather_sections":
        bits = kwargs["wire_bits_per_section"]
        return float(
            max(
                sum(np.asarray(s).size * b for s, b in zip(sections, bits))
                for sections in args[1]
            )
        )
    return 0.0


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at.

    Imports every traced module first, so subclasses and ``from x import f``
    bindings exist before they are patched.
    """
    import repro.api.measures as measures
    import repro.bridge  # noqa: F401 - registers the bridge's backend subclasses
    import repro.bridge.actors as actors
    import repro.bridge.prediction as prediction
    import repro.bridge.trace as trace_io
    import repro.bridge.transport as transport
    import repro.bridge.wire as wire
    import repro.compression.kernels as kernels
    import repro.compression.registry as registry
    import repro.compression.spec as spec
    import repro.core.metrics as core_metrics
    import repro.experiments.validation  # noqa: F401 - binds bridge functions
    import repro.service.models as service_models
    import repro.simulator.pipeline as pipeline
    from repro.api.session import ExperimentSession
    from repro.collectives.api import CollectiveBackend
    from repro.compression.base import AggregationScheme
    from repro.compression.hadamard import HadamardRotation
    from repro.service.advisor import AdvisorService  # noqa: F401 - loads the service
    from repro.service.cache import PricingCache
    from repro.simulator.recovery import PolicyEngine
    from repro.simulator.scenario import Scenario
    from repro.training.data import DatasetShard
    from repro.training.gradients import SyntheticGradientModel
    from repro.training.models import Model
    from repro.training.optimizer import SGD

    # compression: spec parsing, scheme aggregation, rotation kernels.
    for function in (
        spec.parse_spec,
        spec.canonical_spec,
        service_models.canonical_spec,
        registry.make_scheme,
    ):
        _replace_function(recorder, function, "compression.spec.parse")
    _wrap_methods(recorder, AggregationScheme, ("aggregate",), "compression.aggregate")
    _replace_function(recorder, kernels.fwht_rows, "compression.rotation")
    _wrap_methods(recorder, HadamardRotation, ("forward", "inverse"), "compression.rotation")

    # collectives: every fold and gather, with the payload it carried.
    collective_methods = (
        "allreduce",
        "allreduce_matrix",
        "reduce_vectors",
        "allgather",
        "allgather_sections",
        "parameter_server",
    )
    for method in collective_methods:
        _wrap_methods(
            recorder,
            CollectiveBackend,
            (method,),
            "collectives.fold",
            after=lambda result, args, kwargs, method=method: recorder.count(
                "collectives.payload_bits", _payload_bits(method, args, kwargs)
            ),
        )

    # core: gradient synthesis and the vNMSE metric.
    _wrap_methods(
        recorder, SyntheticGradientModel, ("next_round", "true_mean"), "gradients.synth"
    )
    _replace_function(recorder, core_metrics.vnmse, "metrics.vnmse")

    # training: model math, optimizer and batch sampling.
    _wrap_methods(recorder, Model, ("loss_and_gradient",), "training.grad")
    _wrap_methods(recorder, Model, ("evaluate",), "training.eval")
    _wrap_methods(recorder, SGD, ("step",), "training.optimizer")
    _wrap_methods(recorder, DatasetShard, ("sample_batch",), "training.batch")

    # simulator: pricing, pipeline schedule, scenarios and recovery.
    _replace_function(recorder, measures.estimate_throughput, "pricing.throughput")
    _replace_function(recorder, pipeline.simulate_schedule, "pricing.schedule")
    _wrap_methods(recorder, Scenario, ("cluster_at",), "scenario.cluster_at")

    def after_resolve(result, args, kwargs):
        engine = args[0]
        seen = engine.__dict__.get("_e2e_seen", 0)
        recorder.count("recovery.distinct_clusters", engine.distinct_clusters - seen)
        engine.__dict__["_e2e_seen"] = engine.distinct_clusters

    _wrap_methods(recorder, PolicyEngine, ("resolve",), "recovery.resolve", after_resolve)

    # api: sweeps and the points they evaluate.
    _wrap_methods(
        recorder,
        ExperimentSession,
        ("sweep",),
        "api.sweep",
        after=lambda result, args, kwargs: recorder.count(
            "api.sweep_points", len(result.points)
        ),
    )

    # service: cache lookups.
    _wrap_methods(
        recorder,
        PricingCache,
        ("get",),
        "service.cache_get",
        after=lambda result, args, kwargs: recorder.count(
            "service.cache_get_hits", result is not None
        ),
    )

    # bridge: simulation, harness, wire codecs, waiting and trace I/O.
    _replace_function(recorder, prediction.simulate_trace, "bridge.simulate")
    _replace_function(recorder, actors.run_harness, "bridge.harness")

    def after_encode(section, args, kwargs):
        if recorder.in_child:
            recorder.count("bridge.uplink_bytes", section.nbytes)
            recorder.count("bridge.uplink_bits", section.bits)

    _replace_function(recorder, wire.encode_section, "bridge.encode", after_encode)
    _replace_function(recorder, wire.decode_section, "bridge.decode")
    _replace_function(recorder, trace_io.save_trace, "bridge.trace_save")
    _replace_function(recorder, trace_io.load_trace, "bridge.trace_load")
    # The process transport's pipes: the server waits in the benchmark
    # process, each worker in its own.
    server_wait = traced(recorder, "bridge.server_wait", transport.PipeEndpoint.recv)
    worker_wait = traced(recorder, "bridge.worker_wait", transport.PipeEndpoint.recv)

    def recv(self, timeout):
        if recorder.in_child:
            return worker_wait(self, timeout)
        return server_wait(self, timeout)

    transport.PipeEndpoint.recv = recv

    # Ship forked workers' spans home inside their result message.
    run_worker = actors.GradientWorker.run

    def worker_run(self):
        result = run_worker(self)
        if recorder.enabled and recorder.in_child:
            result[SHIPPED_KEY] = recorder.export()
        return result

    actors.GradientWorker.run = worker_run
    serve = actors.AggregationServer.serve

    def server_serve(self):
        results = serve(self)
        for message in results.values():
            shipped = message.pop(SHIPPED_KEY, None)
            if shipped is not None:
                recorder.merge(shipped)
        return results

    actors.AggregationServer.serve = server_serve


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
#: Percentiles the tail is picked from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(num_samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for percent in TAIL_PERCENTILES:
        if num_samples * (100.0 - percent) / 100.0 >= 10:
            return percent
    return None


def summarize(recorder: Recorder) -> dict:
    """Per span name: count, busy and self seconds, p50 and tail in ms."""
    summary = {}
    for name in sorted(recorder.spans):
        samples = np.asarray(recorder.spans[name], dtype=np.float64).reshape(-1, 2)
        durations = samples[:, 0]
        tail = tail_percentile(durations.size)
        summary[name] = {
            "count": int(durations.size),
            "busy_s": float(durations.sum()),
            "self_s": float(samples[:, 1].sum()),
            "p50_ms": float(np.percentile(durations, 50) * 1e3) if durations.size else 0.0,
            "tail_percentile": tail,
            "tail_ms": (
                float(np.percentile(durations, tail) * 1e3) if tail is not None else None
            ),
        }
    return summary
