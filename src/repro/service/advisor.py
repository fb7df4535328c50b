"""The advisor service: scheme selection as a long-lived asyncio API.

:class:`AdvisorService` turns :class:`~repro.api.session.ExperimentSession`
into a query engine for the paper's core question -- *which compression/
aggregation scheme wins on this workload, this cluster, under this failure
scenario?* -- designed to answer it at volume:

* **Warm-cache fast path** -- a request whose candidates are all priced in
  the :class:`~repro.service.cache.PricingCache` is answered synchronously
  on the event loop, no queueing: thousands of queries per second.
* **Single-flight dedup** -- identical evaluations in flight are computed
  once; concurrent duplicates await the same future.
* **Micro-batching** -- distinct cold queries landing within the batch
  window are grouped by their axes and dispatched as *one* grid sweep per
  group, so 100 concurrent requests over one cluster cost one sweep, not
  100 sessions.
* **Backpressure** -- a bounded queue rejects at admission (429-style) once
  full, and per-request deadlines keep one fleet-scale query from starving
  everyone else.
* **Graceful drain** -- ``stop()`` stops admitting, finishes in-flight
  work, and flushes the persistent cache tier.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api.session import ExperimentSession
from repro.service.cache import CachedPoint, PricingCache
from repro.service.errors import (
    DeadlineExceededError,
    InvalidRequestError,
    ServiceOverloadedError,
    ServiceStoppedError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.models import (
    AdviseRequest,
    AdviseResponse,
    ResolvedRequest,
    rank_candidates,
    summarize_detail,
)
from repro.simulator.cluster import ClusterSpec

logger = logging.getLogger("repro.service")


@dataclass
class _Pending:
    """One queued request: its resolution, prefilled hits, and the future."""

    resolved: ResolvedRequest
    started_at: float
    future: asyncio.Future
    #: spec (as written) -> (value, tail, provenance); cache hits prefilled.
    values: dict = field(default_factory=dict)


@dataclass
class _SweepGroup:
    """Distinct cold evaluations sharing one set of sweep axes."""

    resolved: ResolvedRequest
    #: (spec as written, canonical spec, point key) per distinct cold point.
    entries: list = field(default_factory=list)


class AdvisorService:
    """Long-lived scheme-selection service over one experiment session.

    Args:
        session: Backing session; defaults to a fresh one on the paper
            testbed.  The session's sweep memo is shared with (and kept
            consistent by) its cross-thread single-flight, so the advisor's
            evaluation pool can safely share it.
        cluster: Convenience: build the default session on this cluster.
        cache: A pre-built :class:`PricingCache`; overrides the knobs below.
        cache_entries: In-memory LRU bound of the default cache.
        spill_path: Persistent tier of the default cache (``*.json`` or
            sqlite); ``None`` for memory-only.
        max_queue: Bounded request-queue depth; admission beyond it raises
            :class:`ServiceOverloadedError`.
        batch_window: Seconds the batcher waits to accumulate a micro-batch
            after the first cold request arrives (0 batches only what is
            already queued).
        max_batch: Micro-batch size bound.
        eval_workers: Threads in the evaluation pool (each runs one grouped
            sweep at a time).
        default_deadline: Fallback per-request deadline in seconds
            (``None`` = unbounded).
        log_interval: Seconds between periodic telemetry log lines on the
            ``repro.service`` logger (``None`` disables).
        serve_stale_on_overload: When the bounded queue is full, answer
            from already-cached pricing (memory or persistent tier) instead
            of raising :class:`ServiceOverloadedError` -- the response is
            flagged ``stale=True`` with the age of its oldest entry, and
            may rank only the candidates that were cached.  Requests with
            no cached candidate still get the hard 429.
    """

    def __init__(
        self,
        session: ExperimentSession | None = None,
        *,
        cluster: ClusterSpec | None = None,
        cache: PricingCache | None = None,
        cache_entries: int = 4096,
        spill_path=None,
        max_queue: int = 1024,
        batch_window: float = 0.002,
        max_batch: int = 64,
        eval_workers: int = 2,
        default_deadline: float | None = None,
        log_interval: float | None = None,
        serve_stale_on_overload: bool = False,
    ):
        if session is not None and cluster is not None:
            raise ValueError("pass either a session or a cluster, not both")
        self.session = session or ExperimentSession(cluster=cluster)
        # `is not None`, not truthiness: an empty PricingCache has len() 0.
        self.cache = (
            cache
            if cache is not None
            else PricingCache(max_entries=cache_entries, spill_path=spill_path)
        )
        self.metrics = ServiceMetrics()
        self.max_queue = max_queue
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self.log_interval = log_interval
        self.serve_stale_on_overload = serve_stale_on_overload
        self._pool = ThreadPoolExecutor(
            max_workers=eval_workers, thread_name_prefix="advisor-eval"
        )
        self._queue: asyncio.Queue[_Pending] | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self._batcher: asyncio.Task | None = None
        self._log_task: asyncio.Task | None = None
        self._accepting = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "AdvisorService":
        """Start the batcher (and the telemetry logger, if configured)."""
        if self._accepting:
            return self
        if self._stopped:
            raise ServiceStoppedError("a stopped AdvisorService cannot be restarted")
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._batcher = asyncio.create_task(self._batch_loop(), name="advisor-batcher")
        if self.log_interval is not None:
            self._log_task = asyncio.create_task(self._log_loop(), name="advisor-telemetry")
        self._accepting = True
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop admitting requests; drain (default) or abort in-flight work.

        Draining waits for every queued request and every dispatched sweep
        to finish, then flushes the persistent cache tier, so a clean
        shutdown never loses accepted work or computed pricing.
        """
        if self._stopped:
            return
        self._accepting = False
        if self._queue is not None:
            if drain:
                await self._queue.join()
                while self._tasks:
                    await asyncio.gather(*list(self._tasks), return_exceptions=True)
            else:
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not item.future.done():
                        item.future.set_exception(
                            ServiceStoppedError("service stopped before evaluation")
                        )
                    self._queue.task_done()
                for task in list(self._tasks):
                    task.cancel()
                if self._tasks:
                    await asyncio.gather(*list(self._tasks), return_exceptions=True)
        for task in (self._batcher, self._log_task):
            if task is not None:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        self._pool.shutdown(wait=True)
        self.cache.flush()
        self._stopped = True

    async def __aenter__(self) -> "AdvisorService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # The API
    # ------------------------------------------------------------------ #
    async def advise(
        self, request: AdviseRequest, *, deadline: float | None = None
    ) -> AdviseResponse:
        """Answer one request: candidates ranked best-first on its metric.

        Raises:
            InvalidRequestError: malformed request (bad spec/scenario/...).
            ServiceOverloadedError: the bounded queue is full.
            DeadlineExceededError: the deadline elapsed first (the underlying
                sweep keeps running and still warms the cache).
            ServiceStoppedError: the service is not accepting requests.
        """
        # Request latency is operational telemetry -- genuinely wall-clock,
        # never part of a pricing result, so determinism is unaffected.
        started = time.perf_counter()  # reprolint: disable=RPL001 - latency telemetry
        self.metrics.record_request()
        if not self._accepting or self._queue is None:
            self.metrics.record_rejected("stopped")
            raise ServiceStoppedError("the advisor service is not running")
        try:
            resolved = request.resolve(self.session.cluster)
        except InvalidRequestError:
            self.metrics.record_rejected("invalid")
            raise

        # Warm-cache fast path: every candidate already priced.
        values: dict[str, tuple[float, dict | None, str]] = {}
        complete = True
        for spec, canonical in zip(request.specs, resolved.canonical_specs):
            if spec in values:
                continue
            hit = self.cache.get(resolved.point_key(canonical))
            if hit is None:
                complete = False
            else:
                entry, tier = hit
                values[spec] = (entry.value, entry.tail, tier)
        if complete:
            latency = time.perf_counter() - started  # reprolint: disable=RPL001 - latency telemetry
            self.metrics.record_completed(latency, fast_path=True)
            return rank_candidates(
                resolved, values, latency_seconds=latency, batch_size=1
            )

        item = _Pending(
            resolved=resolved,
            started_at=started,
            future=asyncio.get_running_loop().create_future(),
            values=values,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            if self.serve_stale_on_overload:
                stale = self._stale_response(resolved, started)
                if stale is not None:
                    return stale
            self.metrics.record_rejected("queue_full")
            raise ServiceOverloadedError(
                f"request queue full ({self.max_queue} pending); retry with backoff"
            ) from None
        self.metrics.record_queue_depth(self._queue.qsize())

        timeout = deadline
        if timeout is None:
            timeout = request.deadline_seconds
        if timeout is None:
            timeout = self.default_deadline
        try:
            values, batch_size = await asyncio.wait_for(item.future, timeout)
        except asyncio.TimeoutError:
            self.metrics.record_rejected("deadline")
            raise DeadlineExceededError(
                f"advise request missed its {timeout:.3f}s deadline"
            ) from None
        except (ServiceStoppedError, ServiceOverloadedError):
            raise
        except asyncio.CancelledError:
            raise
        except Exception:
            self.metrics.record_rejected("failed")
            raise
        latency = time.perf_counter() - started  # reprolint: disable=RPL001 - latency telemetry
        self.metrics.record_completed(latency, fast_path=False)
        return rank_candidates(
            resolved, values, latency_seconds=latency, batch_size=batch_size
        )

    def _stale_response(self, resolved, started: float) -> AdviseResponse | None:
        """Best-effort ranked answer from already-cached pricing (any tier).

        Returns ``None`` when not a single candidate is cached -- the
        caller then falls through to the hard overload rejection.
        """
        values: dict[str, tuple[float, dict | None, str]] = {}
        ages: list[float] = []
        now = time.time()  # reprolint: disable=RPL001 - stale-age telemetry
        for spec, canonical in zip(
            resolved.request.specs, resolved.canonical_specs
        ):
            if spec in values:
                continue
            hit = self.cache.get(resolved.point_key(canonical))
            if hit is None:
                continue
            entry, tier = hit
            values[spec] = (entry.value, entry.tail, tier)
            if entry.created_at is not None:
                ages.append(max(0.0, now - entry.created_at))
        if not values:
            return None
        latency = time.perf_counter() - started  # reprolint: disable=RPL001 - latency telemetry
        self.metrics.record_stale_served()
        self.metrics.record_completed(latency, fast_path=True)
        return rank_candidates(
            resolved,
            values,
            latency_seconds=latency,
            batch_size=1,
            stale=True,
            stale_age_seconds=max(ages) if ages else None,
            allow_partial=True,
        )

    async def advise_many(
        self, requests, *, deadline: float | None = None
    ) -> list[AdviseResponse]:
        """Issue several requests concurrently and gather their responses."""
        return list(
            await asyncio.gather(
                *(self.advise(request, deadline=deadline) for request in requests)
            )
        )

    def snapshot(self) -> dict:
        """One coherent telemetry snapshot, cache stats included."""
        return self.metrics.snapshot(self.cache.stats())

    # ------------------------------------------------------------------ #
    # Batching & evaluation
    # ------------------------------------------------------------------ #
    async def _batch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            batch = [item]
            try:
                if self.batch_window > 0:
                    horizon = loop.time() + self.batch_window
                    while len(batch) < self.max_batch:
                        remaining = horizon - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            batch.append(
                                await asyncio.wait_for(self._queue.get(), remaining)
                            )
                        except asyncio.TimeoutError:
                            break
                while len(batch) < self.max_batch:
                    try:
                        batch.append(self._queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
            except asyncio.CancelledError:
                # Cancelled mid-window (abrupt stop): fail the requests this
                # batch already holds so their callers never hang.
                for held in batch:
                    if not held.future.done():
                        held.future.set_exception(
                            ServiceStoppedError("service stopped before evaluation")
                        )
                    self._queue.task_done()
                raise
            self.metrics.record_batch(len(batch))
            try:
                self._dispatch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _dispatch(self, batch: list[_Pending]) -> None:
        """Plan one micro-batch: dedupe, group by axes, launch sweeps."""
        groups: dict[str, _SweepGroup] = {}
        finishers: list[tuple[_Pending, dict[str, asyncio.Future]]] = []
        loop = asyncio.get_running_loop()
        for item in batch:
            if item.future.done():  # deadline already fired while queued
                continue
            needed: dict[str, asyncio.Future] = {}
            resolved = item.resolved
            for spec, canonical in zip(resolved.request.specs, resolved.canonical_specs):
                if spec in item.values or spec in needed:
                    continue
                key = resolved.point_key(canonical)
                hit = self.cache.get(key)
                if hit is not None:
                    entry, tier = hit
                    item.values[spec] = (entry.value, entry.tail, tier)
                    continue
                future = self._inflight.get(key)
                if future is None:
                    future = loop.create_future()
                    # Keep abandoned evaluations (every waiter timed out)
                    # from logging "exception was never retrieved".
                    future.add_done_callback(self._consume_exception)
                    self._inflight[key] = future
                    group = groups.get(resolved.axes_key)
                    if group is None:
                        group = _SweepGroup(resolved=resolved)
                        groups[resolved.axes_key] = group
                    group.entries.append((spec, canonical, key))
                needed[spec] = future
            finishers.append((item, needed))

        for group in groups.values():
            self._spawn(self._evaluate_group(group))
        batch_size = len(batch)
        for item, needed in finishers:
            if needed:
                self._spawn(self._finish(item, needed, batch_size))
            elif not item.future.done():
                item.future.set_result((item.values, batch_size))

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    @staticmethod
    def _consume_exception(future: asyncio.Future) -> None:
        if not future.cancelled():
            future.exception()

    async def _evaluate_group(self, group: _SweepGroup) -> None:
        """Price one group's cold points as a single grid sweep."""
        loop = asyncio.get_running_loop()
        try:
            points = await loop.run_in_executor(self._pool, self._run_sweep, group)
        except Exception as error:
            for _, _, key in group.entries:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(error)
            return
        for (_spec, canonical, key), point in zip(group.entries, points):
            cached = CachedPoint(
                key=key,
                value=float(point.value),
                canonical_spec=canonical,
                tail=summarize_detail(group.resolved.metric, point.detail),
                created_at=time.time(),  # reprolint: disable=RPL001 - stale-age telemetry
            )
            self.cache.put(cached)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(cached)

    def _run_sweep(self, group: _SweepGroup) -> list:
        """Pool-thread entry: one sweep over the group's distinct specs."""
        resolved = group.resolved
        specs = [spec for spec, _, _ in group.entries]
        self.metrics.record_evaluations(len(specs), 1)
        result = self.session.sweep(
            specs,
            workloads=resolved.workload,
            clusters=resolved.cluster,
            scenarios=[resolved.scenario] if resolved.scenario is not None else None,
            metric=resolved.metric,
            **resolved.metric_kwargs,
        )
        return list(result.points)

    async def _finish(
        self, item: _Pending, needed: dict[str, asyncio.Future], batch_size: int
    ) -> None:
        """Complete one request once its cold points resolve."""
        try:
            for spec, future in needed.items():
                cached: CachedPoint = await future
                item.values[spec] = (cached.value, cached.tail, "computed")
        except Exception as error:
            if not item.future.done():
                item.future.set_exception(error)
            return
        if not item.future.done():
            item.future.set_result((item.values, batch_size))

    async def _log_loop(self) -> None:
        while True:
            await asyncio.sleep(self.log_interval)
            logger.info(self.metrics.log_line(self.cache.stats()))
