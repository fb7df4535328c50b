"""The unified experiment session: one object, every measurement.

:class:`ExperimentSession` bundles what every experiment needs -- a cluster,
its kernel cost model and a seed policy -- and exposes the paper's
measurements as methods:

* :meth:`~ExperimentSession.aggregate` -- one functional aggregation round;
* :meth:`~ExperimentSession.throughput` -- paper-scale round pricing;
* :meth:`~ExperimentSession.vnmse` -- compression error on synthetic
  BERT-like gradients;
* :meth:`~ExperimentSession.tta` -- an end-to-end training run with its
  time-to-accuracy curve;
* :meth:`~ExperimentSession.compare` -- several schemes against the FP16
  baseline with utility reports;
* :meth:`~ExperimentSession.validate` -- real execution through the bridge
  harness checked against the simulator's predictions;
* :meth:`~ExperimentSession.sweep` -- any of the above expanded over a
  spec x workload x cluster grid, executed concurrently with per-point
  memoization.

Schemes are named by spec strings (see :mod:`repro.compression.spec`), so a
sweep definition is pure data::

    session = ExperimentSession()
    grid = session.sweep(
        [f"topkc(b={b:g})" for b in (0.5, 2, 8)],
        workloads=[bert_large_wikitext(), vgg19_tinyimagenet()],
        metric="throughput",
    )
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.api.executors import resolve_executor, run_tasks, validate_executor
from repro.api.measures import (
    GradientRound,
    ThroughputEstimate,
    bert_like_gradients,
    check_vnmse_call,
    draw_round,
    estimate_throughput,
    vnmse_over_rounds,
)
from repro.api.sweep import SweepPoint, SweepResult, cluster_label, expand_grid
from repro.collectives.api import CollectiveBackend
from repro.compression.base import AggregationResult, AggregationScheme, SimContext
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.registry import make_scheme
from repro.core.evaluation import EndToEndResult, run_end_to_end
from repro.core.utility import UtilityReport, compute_utility
from repro.simulator.cluster import ClusterSpec, paper_testbed
from repro.simulator.gpu import Precision
from repro.simulator.kernel_cost import KernelCostModel
from repro.simulator.recovery import RecoveryPolicy
from repro.simulator.scenario import Scenario, scenario as as_scenario
from repro.topology.fabric import FabricSpec
from repro.training.gradients import SyntheticGradientModel
from repro.training.workloads import WorkloadSpec

#: The spec of the baseline the paper measures utility against.
DEFAULT_BASELINE_SPEC = "baseline(p=fp16)"

#: Metric names understood by :meth:`ExperimentSession.sweep`.
SWEEP_METRICS = ("throughput", "vnmse", "tta")


@dataclass(frozen=True)
class _SweepTask:
    """One picklable sweep point shipped to a worker process.

    Carries everything a fresh child-side session needs to reproduce the
    point exactly: the base cluster, the session seed, and the metric call.  Results are deterministic, so parent- and
    child-side execution agree.
    """

    spec: str
    workload: WorkloadSpec | None
    cluster: ClusterSpec | None
    base_cluster: ClusterSpec
    seed: int
    metric: str
    kwargs: dict = field(default_factory=dict)
    scenario: Scenario | None = None


@dataclass
class _GradientRounds:
    """The session's vNMSE rounds of one ``(d, gradient_seed, n)`` key.

    Holds the generator (so a longer call continues its stream) and every
    round drawn so far, read-only: the rows, true means and vNMSE
    denominators are shared by every scheme the session measures.
    """

    key: tuple[int, int, int]
    generator: SyntheticGradientModel
    rounds: list[GradientRound] = field(default_factory=list)


def _read_only(round_: GradientRound) -> GradientRound:
    for array in (round_.rows, round_.true_mean):
        array.flags.writeable = False
    return round_


def _run_sweep_task(task: _SweepTask) -> tuple[float, object]:
    """Process-pool entry point: evaluate one sweep point in a child process."""
    session = ExperimentSession(
        cluster=task.base_cluster,
        seed=task.seed,
        executor="serial",
    )
    return session._evaluate_metric(
        task.metric,
        task.spec,
        task.workload,
        task.cluster,
        dict(task.kwargs),
        scenario=task.scenario,
    )


class ExperimentSession:
    """Cluster, kernels and rng policy in one experiment façade.

    Args:
        cluster: Simulated cluster; defaults to the paper's 2x2 testbed.
        seed: Base seed of the session's measurements (aggregation contexts
            and training runs), so all schemes see identical randomness and
            results are reproducible regardless of execution order.  The
            vNMSE measurement is the exception: it is seeded by its own
            ``gradient_seed`` so error numbers compare across sessions.
        max_workers: Worker count for :meth:`sweep` (threads or processes);
            defaults to the number of grid points capped at 8 for threads and
            at the available CPUs for processes.
        record_timeline: Accepted only as ``False``, for old callers.
            Sessions record no time: a round's simulated seconds come from
            ``scheme.estimate_costs(d, session.context())``.
        executor: Default sweep execution strategy: ``"auto"`` (processes for
            CPU-heavy metrics on multi-core machines, threads otherwise),
            ``"process"``, ``"thread"``, or ``"serial"``.

    Besides memoized sweep points, a session keeps the vNMSE gradient rounds
    of its most recent ``(num_coordinates, gradient_seed, num_workers)``:
    ``num_workers * num_coordinates * 4 * num_rounds`` bytes, so that
    :meth:`vnmse` and serial or thread ``vnmse`` sweeps draw each round once.
    :meth:`clear_cache` frees them.  Process sweeps still draw rounds per
    point: each child builds a fresh session.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        *,
        seed: int = 0,
        max_workers: int | None = None,
        record_timeline: bool = False,
        executor: str = "auto",
    ):
        if record_timeline is not False:
            raise ValueError(
                f"record_timeline={record_timeline!r} is not supported: sessions "
                "record no time; price a round with "
                "scheme.estimate_costs(d, session.context())"
            )
        self.cluster = cluster or paper_testbed()
        self.seed = seed
        self.executor = validate_executor(executor)
        self.kernels = KernelCostModel(gpu=self.cluster.gpu)
        self.max_workers = max_workers
        self._memo: dict[tuple, SweepPoint] = {}
        self._memo_lock = threading.Lock()
        # Cross-thread single-flight: memo keys currently being computed by
        # some sweep, mapped to the Future that will carry the finished
        # SweepPoint.  A concurrent sweep that needs one of these keys waits
        # on the future instead of recomputing the point, so N threads
        # sharing one session (the advisor service does) evaluate each
        # distinct point exactly once.
        self._inflight: dict[tuple, Future] = {}
        # The vNMSE rounds of the most recent (d, gradient_seed, n): every
        # scheme measured on them draws no gradients of its own.
        self._rounds: _GradientRounds | None = None
        self._rounds_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def scheme(
        self, spec: str | AggregationScheme, *, error_feedback: bool = False
    ) -> AggregationScheme:
        """Build a scheme from a spec string (pass-through for instances)."""
        if isinstance(spec, AggregationScheme):
            if error_feedback and not isinstance(spec, ErrorFeedback):
                return ErrorFeedback(spec)
            return spec
        return make_scheme(spec, error_feedback=error_feedback)

    def context(
        self,
        *,
        seed: int | None = None,
        cluster: ClusterSpec | None = None,
    ) -> SimContext:
        """A fresh simulation context on the session's (or a given) cluster."""
        cluster = cluster or self.cluster
        return SimContext(
            backend=CollectiveBackend(cluster),
            kernels=self.kernels if cluster is self.cluster else KernelCostModel(gpu=cluster.gpu),
            rng=np.random.default_rng(self.seed if seed is None else seed),
        )

    # ------------------------------------------------------------------ #
    # Single-point measurements
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        spec: str | AggregationScheme,
        worker_gradients: list[np.ndarray],
        *,
        seed: int | None = None,
        error_feedback: bool = False,
    ) -> AggregationResult:
        """Aggregate one round of per-worker gradients with a scheme.

        Returns values only; ``scheme.estimate_costs`` prices the round.
        """
        scheme = self.scheme(spec, error_feedback=error_feedback)
        ctx = self.context(seed=seed)
        return scheme.aggregate(worker_gradients, ctx)

    def throughput(
        self,
        spec: str | AggregationScheme,
        workload: WorkloadSpec,
        *,
        training_precision: Precision = Precision.TF32,
        cluster: ClusterSpec | None = None,
        error_feedback: bool = False,
        num_buckets: int = 1,
        scenario: Scenario | str | None = None,
        num_rounds: int | None = None,
        policy: "RecoveryPolicy | str | None" = None,
    ) -> ThroughputEstimate:
        """Price one training round of a scheme on a workload at paper scale.

        ``num_buckets > 1`` prices the round through the bucketed pipeline
        simulator (per-bucket collectives interleaved with backward compute).
        ``scenario`` (a :class:`~repro.simulator.scenario.Scenario` or spec
        string such as ``"flap(rack=1)@20..25 + churn(p=0.05)"``) prices a
        ``num_rounds`` run under dynamic events and attaches per-scenario
        tail metrics.
        ``policy`` (a :class:`~repro.simulator.recovery.RecoveryPolicy` or
        spec string such as ``"timeout(k=3) + drop(max_workers=1)"``) makes
        the scenario run recover from its faults; the empty policy is
        bit-exact with the plain scenario path.
        """
        scheme = self.scheme(spec, error_feedback=error_feedback)
        return estimate_throughput(
            scheme,
            workload,
            training_precision=training_precision,
            ctx=self.context(cluster=cluster),
            num_buckets=num_buckets,
            scenario=scenario,
            num_rounds=num_rounds,
            policy=policy,
        )

    def vnmse(
        self,
        spec: str | AggregationScheme,
        *,
        num_coordinates: int = 1 << 17,
        num_rounds: int = 3,
        num_workers: int = 4,
        gradient_seed: int = 3,
        error_feedback: bool = False,
        cluster: ClusterSpec | None = None,
    ) -> float:
        """Mean vNMSE of a scheme on BERT-like synthetic gradients.

        Unlike the other measurements, the randomness here is governed
        entirely by ``gradient_seed`` (it seeds both the gradient model and
        the compression rng), so a scheme's vNMSE is comparable across
        sessions; vary ``gradient_seed`` to draw independent replicates.

        The session keeps the gradient rounds of the most recent
        ``(num_coordinates, gradient_seed, num_workers)``, so measuring
        several schemes on them draws each round once.  That costs
        ``num_workers * num_coordinates * 4 * num_rounds`` bytes for the
        largest ``num_rounds`` asked (192 MiB at 16 x 2^20 x 3) until a call
        with another key replaces it or :meth:`clear_cache` frees it.
        ``num_workers`` must equal the cluster's world size.
        """
        scheme = self.scheme(spec, error_feedback=error_feedback)
        ctx = self.context(seed=gradient_seed, cluster=cluster)
        check_vnmse_call(num_coordinates, num_rounds, num_workers, ctx)
        rounds = self._gradient_rounds(
            num_coordinates, gradient_seed, num_workers, num_rounds
        )
        return vnmse_over_rounds(scheme, rounds, ctx)

    def _gradient_rounds(
        self, num_coordinates: int, gradient_seed: int, num_workers: int, num_rounds: int
    ) -> list[GradientRound]:
        """The first ``num_rounds`` vNMSE rounds of a key, drawn at most once."""
        key = (num_coordinates, gradient_seed, num_workers)
        with self._rounds_lock:
            if self._rounds is None or self._rounds.key != key:
                self._rounds = _GradientRounds(
                    key, bert_like_gradients(num_coordinates, seed=gradient_seed)
                )
            memo = self._rounds
            while len(memo.rounds) < num_rounds:
                memo.rounds.append(_read_only(draw_round(memo.generator, num_workers)))
            return memo.rounds[:num_rounds]

    def tta(
        self,
        spec: str,
        workload: WorkloadSpec,
        *,
        num_rounds: int = 600,
        eval_every: int = 10,
        seed: int | None = None,
        error_feedback: bool | None = None,
        rolling_window: int = 5,
        cluster: ClusterSpec | None = None,
        num_buckets: int = 1,
        scenario: Scenario | str | None = None,
        policy: "RecoveryPolicy | str | None" = None,
    ) -> EndToEndResult:
        """Train a scheme end-to-end and return its time-to-accuracy result.

        ``num_buckets > 1`` prices each simulated round through the bucketed
        pipeline simulator instead of serializing the phases.  ``scenario``
        runs the training under dynamic events: per-round effective-cluster
        pricing, elastic membership, and tail behaviour in the history.
        ``policy`` layers fault recovery over the scenario: timed-out rounds
        abort (their updates skipped or served stale), degraded rounds
        retry, and stragglers are dropped from the aggregation.
        """
        return run_end_to_end(
            spec,
            workload,
            num_rounds=num_rounds,
            cluster=cluster or self.cluster,
            seed=self.seed if seed is None else seed,
            eval_every=eval_every,
            error_feedback=error_feedback,
            rolling_window=rolling_window,
            num_buckets=num_buckets,
            scenario=scenario,
            policy=policy,
        )

    def validate(
        self,
        specs: Sequence[str] | None = None,
        *,
        trace=None,
        num_steps: int = 2,
        seed: int | None = None,
        transport: str = "inprocess",
        cluster: ClusterSpec | None = None,
    ):
        """Check the simulator's predictions against real execution.

        Runs the real-tensor bridge (:mod:`repro.bridge`) next to the
        monolithic simulated path over the same gradient trace and returns
        the :class:`~repro.experiments.validation.ValidationReport` of
        measured-vs-simulated VNMSE and traffic agreement.  Defaults to the
        whole scheme registry on a seeded synthetic trace sized to the
        session's cluster.
        """
        from repro.experiments.validation import run_validation

        return run_validation(
            tuple(specs) if specs is not None else None,
            trace=trace,
            cluster=cluster or self.cluster,
            num_steps=num_steps,
            seed=self.seed + 7 if seed is None else seed,
            transport=transport,
        )

    # ------------------------------------------------------------------ #
    # Multi-point measurements
    # ------------------------------------------------------------------ #
    def compare(
        self,
        specs: Sequence[str],
        workload: WorkloadSpec,
        *,
        baseline: str = DEFAULT_BASELINE_SPEC,
        num_rounds: int = 600,
        eval_every: int = 10,
        rolling_window: int = 5,
        parallel: bool = True,
    ) -> tuple[dict[str, EndToEndResult], dict[str, UtilityReport]]:
        """Run several schemes plus the baseline and compute each one's utility.

        Returns:
            A dict of end-to-end results keyed by the spec strings as given
            (the baseline included) and a dict of utility reports keyed by
            spec (baseline excluded).
        """
        all_specs = list(dict.fromkeys([baseline, *specs]))
        grid = self.sweep(
            all_specs,
            workloads=workload,
            metric="tta",
            parallel=parallel,
            num_rounds=num_rounds,
            eval_every=eval_every,
            rolling_window=rolling_window,
        )
        results = {spec: grid.detail(spec, workload) for spec in all_specs}
        baseline_curve = results[baseline].curve
        utilities = {
            spec: compute_utility(results[spec].curve, baseline_curve)
            for spec in all_specs
            if spec != baseline
        }
        return results, utilities

    def sweep(
        self,
        specs: Sequence[str] | str,
        workloads: Sequence[WorkloadSpec] | WorkloadSpec | None = None,
        clusters: Sequence[ClusterSpec] | ClusterSpec | None = None,
        *,
        fabrics: "Sequence[FabricSpec] | FabricSpec | None" = None,
        scenarios: "Sequence[Scenario | str] | Scenario | str | None" = None,
        metric: str | Callable = "throughput",
        parallel: bool = True,
        memoize: bool = True,
        executor: str | None = None,
        **metric_kwargs,
    ) -> SweepResult:
        """Measure every (spec, workload, cluster, scenario) grid point.

        Args:
            specs: Scheme spec strings (one or several).
            workloads: Workload axis; None for workload-free metrics (vNMSE).
            clusters: Cluster axis; None uses the session's cluster.
            fabrics: Optional fabric axis
                (:class:`~repro.topology.fabric.FabricSpec`); each cluster of
                the cluster axis (or the session's cluster) is expanded into
                one grid point per fabric via
                :meth:`~repro.simulator.cluster.ClusterSpec.with_fabric`, so
                oversubscription / rack-count sweeps are pure data.
            scenarios: Optional dynamic-events axis
                (:class:`~repro.simulator.scenario.Scenario` instances or
                spec strings like ``"flap(rack=1)@20..25 + churn(p=0.05)"``);
                every grid point is measured once per scenario.  Memoization
                keys include the scenario's full cache key, so two scenarios
                on the same cluster never share a memo entry.  Supported by
                the ``throughput`` and ``tta`` metrics (and callables taking
                a ``scenario`` keyword).
            metric: ``"throughput"``, ``"vnmse"``, ``"tta"``, or a callable
                ``metric(session, spec, workload, cluster, **kwargs)``
                returning a value or a ``(value, detail)`` pair (called with
                an extra ``scenario=`` keyword under a scenarios axis).
            parallel: Execute points concurrently (results are identical to
                the sequential order because every point draws its own rng
                from the session seed).  ``False`` forces serial execution.
            memoize: Reuse previously computed points of this session.  Grid
                entries that share a memo key (an alias and its spec form,
                say) are computed once per sweep either way.  Memoized
                sweeps are also single-flight across threads: when another
                thread of this session is already computing a key, this
                sweep waits for that result instead of recomputing it, so a
                session shared by a thread pool evaluates each distinct
                point exactly once.
            executor: Execution strategy for uncached points -- ``"auto"``,
                ``"process"``, ``"thread"``, or ``"serial"``; defaults to the
                session's ``executor``.  Processes win real parallelism for
                CPU-bound metrics (vNMSE, TTA); callable metrics cannot cross
                process boundaries and run on threads under ``"auto"``.
            **metric_kwargs: Passed through to the metric for every point.

        Returns:
            A :class:`SweepResult` with one :class:`SweepPoint` per grid
            entry, in grid order.
        """
        if fabrics is not None:
            fabric_list = [fabrics] if isinstance(fabrics, FabricSpec) else list(fabrics)
            if not fabric_list:
                raise ValueError("fabrics axis must not be empty when given")
            if clusters is None:
                base_clusters = [self.cluster]
            elif isinstance(clusters, ClusterSpec):
                base_clusters = [clusters]
            else:
                base_clusters = list(clusters)
            clusters = [
                cluster.with_fabric(fabric)
                for cluster in base_clusters
                for fabric in fabric_list
            ]
        scenario_axis: Sequence[Scenario] | Scenario | None
        if scenarios is None:
            scenario_axis = None
        elif isinstance(scenarios, (Scenario, str)):
            scenario_axis = as_scenario(scenarios)
        else:
            scenario_axis = [as_scenario(entry) for entry in scenarios]
        grid = expand_grid(specs, workloads, clusters, scenario_axis)
        metric_name = metric if isinstance(metric, str) else getattr(metric, "__name__", "custom")
        if isinstance(metric, str) and metric not in SWEEP_METRICS:
            raise ValueError(
                f"unknown sweep metric {metric!r}; expected one of {SWEEP_METRICS} "
                "or a callable"
            )

        # One parse/build/format per distinct spec spelling; the canonical
        # form keys the memo so aliases and their spec forms share entries.
        canonical_by_spec = {
            spec: self._canonical(spec) for spec in dict.fromkeys(s for s, _, _, _ in grid)
        }

        def key_for(spec: str, workload, cluster, scenario) -> tuple:
            # The cluster and scenario are keyed by their full identities,
            # not their display labels: two same-shape clusters with
            # different GPUs, NICs, or worker profiles -- and two scenarios
            # on the same cluster (or one scenario at two seeds) -- must
            # never share memoized points.
            return (
                metric_name,
                canonical_by_spec[spec] if isinstance(metric, str) else spec,
                workload.name if workload is not None else None,
                cluster.cache_key() if cluster is not None else None,
                scenario.cache_key() if scenario is not None else None,
                repr(sorted(metric_kwargs.items(), key=lambda item: item[0])),
            )

        def as_point(
            spec: str, workload, cluster, scenario, outcome: tuple[float, object]
        ) -> SweepPoint:
            value, detail = outcome
            return SweepPoint(
                spec=spec,
                canonical_spec=canonical_by_spec[spec],
                workload=workload.name if workload is not None else None,
                cluster=cluster_label(cluster) if cluster is not None else None,
                metric=metric_name,
                value=value,
                detail=detail,
                scenario=scenario.label() if scenario is not None else None,
            )

        def respell(point: SweepPoint, spec: str, scenario) -> SweepPoint:
            # Preserve the caller's spelling of the spec -- and the caller's
            # scenario display name -- in the result.  Two scenarios equal in
            # identity but differently named share one memo entry, yet each
            # grid point must stay addressable by its own label.
            label = scenario.label() if scenario is not None else None
            if point.spec == spec and point.scenario == label:
                return point
            return SweepPoint(
                spec=spec,
                canonical_spec=point.canonical_spec,
                workload=point.workload,
                cluster=point.cluster,
                metric=point.metric,
                value=point.value,
                detail=point.detail,
                scenario=label,
            )

        # Split the grid into memo hits, keys another thread is already
        # computing (single-flight: wait on its future instead of
        # recomputing), and the pending work-list this sweep claims; grid
        # entries sharing a memo key (aliases and their spec forms, repeated
        # clusters) are computed once and fanned back out.
        results: dict[int, SweepPoint] = {}
        if memoize:
            pending: dict[tuple, list[int]] = {}
            waiting: dict[tuple, tuple[Future, list[int]]] = {}
            with self._memo_lock:
                for position, entry in enumerate(grid):
                    key = key_for(*entry)
                    cached = self._memo.get(key)
                    if cached is not None:
                        results[position] = respell(cached, entry[0], entry[3])
                    elif key in pending:
                        pending[key].append(position)
                    elif key in waiting:
                        waiting[key][1].append(position)
                    elif key in self._inflight:
                        waiting[key] = (self._inflight[key], [position])
                    else:
                        self._inflight[key] = Future()
                        pending[key] = [position]
            work_positions = [positions[0] for positions in pending.values()]
        else:
            pending = {}
            waiting = {}
            work_positions = list(range(len(grid)))

        try:
            outcomes = self._execute_points(
                [grid[position] for position in work_positions],
                metric,
                metric_name,
                metric_kwargs,
                executor=executor,
                parallel=parallel,
            )
        except BaseException as error:
            # Release claimed keys so single-flight waiters fail fast
            # instead of hanging on a future nobody will complete.
            if memoize:
                with self._memo_lock:
                    for key in pending:
                        future = self._inflight.pop(key, None)
                        if future is not None:
                            future.set_exception(error)
            raise

        if memoize:
            with self._memo_lock:
                for (key, positions), outcome in zip(pending.items(), outcomes):
                    entry = grid[positions[0]]
                    point = as_point(*entry, outcome)
                    self._memo[key] = point
                    future = self._inflight.pop(key, None)
                    if future is not None:
                        future.set_result(point)
                    for position in positions:
                        results[position] = respell(
                            point, grid[position][0], grid[position][3]
                        )
            # Every claimed key is published; now (outside the lock, and
            # only after publishing, so two sweeps waiting on each other's
            # keys cannot deadlock) collect the points other threads own.
            for future, positions in waiting.values():
                point = future.result()
                for position in positions:
                    results[position] = respell(
                        point, grid[position][0], grid[position][3]
                    )
        else:
            for position, outcome in zip(work_positions, outcomes):
                results[position] = as_point(*grid[position], outcome)

        points = [results[position] for position in range(len(grid))]
        return SweepResult(metric=metric_name, points=points)

    def _execute_points(
        self,
        entries: list[tuple],
        metric: str | Callable,
        metric_name: str,
        metric_kwargs: dict,
        *,
        executor: str | None,
        parallel: bool,
    ) -> list[tuple[float, object]]:
        """Evaluate uncached grid entries with the chosen execution strategy."""
        if not entries:
            return []
        strategy = validate_executor(executor if executor is not None else self.executor)
        if not parallel:
            strategy = "serial"
        else:
            strategy = resolve_executor(
                strategy,
                num_tasks=len(entries),
                metric_is_callable=callable(metric),
                metric=metric_name if not callable(metric) else None,
            )

        if strategy == "process":
            tasks = [
                _SweepTask(
                    spec=spec,
                    workload=workload,
                    cluster=cluster,
                    base_cluster=self.cluster,
                    seed=self.seed,
                    metric=metric_name,
                    kwargs=dict(metric_kwargs),
                    scenario=scenario,
                )
                for spec, workload, cluster, scenario in entries
            ]
            return run_tasks(
                tasks, _run_sweep_task, executor="process", max_workers=self.max_workers
            )

        def evaluate(entry: tuple) -> tuple[float, object]:
            spec, workload, cluster, scenario = entry
            return self._evaluate_metric(
                metric, spec, workload, cluster, metric_kwargs, scenario=scenario
            )

        max_workers = self.max_workers or min(8, len(entries))
        return run_tasks(entries, evaluate, executor=strategy, max_workers=max_workers)

    def clear_cache(self) -> None:
        """Forget every memoized sweep point and the kept vNMSE rounds."""
        with self._memo_lock:
            self._memo.clear()
        with self._rounds_lock:
            self._rounds = None

    @property
    def cached_points(self) -> int:
        """Number of memoized sweep points held by the session."""
        with self._memo_lock:
            return len(self._memo)

    # ------------------------------------------------------------------ #
    def _canonical(self, spec: str | AggregationScheme) -> str:
        if isinstance(spec, AggregationScheme):
            try:
                return spec.spec()
            except NotImplementedError:
                return spec.name
        try:
            return make_scheme(spec).spec()
        except NotImplementedError:
            return spec

    def _evaluate_metric(
        self,
        metric: str | Callable,
        spec: str,
        workload: WorkloadSpec | None,
        cluster: ClusterSpec | None,
        kwargs: dict,
        *,
        scenario: Scenario | None = None,
    ) -> tuple[float, object]:
        # Scenario-free points call the metric exactly as they always have,
        # so the historical three-axis sweeps stay byte-for-byte identical.
        scenario_kwargs = {} if scenario is None else {"scenario": scenario}
        if callable(metric):
            outcome = metric(self, spec, workload, cluster, **scenario_kwargs, **kwargs)
            if isinstance(outcome, tuple) and len(outcome) == 2:
                return float(outcome[0]), outcome[1]
            return float(outcome), None
        if metric == "throughput":
            if workload is None:
                raise ValueError("the throughput metric needs a workload axis")
            estimate = self.throughput(
                spec, workload, cluster=cluster, **scenario_kwargs, **kwargs
            )
            return estimate.rounds_per_second, estimate
        if metric == "vnmse":
            if scenario is not None:
                raise ValueError(
                    "the vnmse metric has no time dimension; scenarios do not "
                    "apply (use the throughput or tta metric)"
                )
            error = self.vnmse(spec, cluster=cluster, **kwargs)
            return error, error
        if metric == "tta":
            if workload is None:
                raise ValueError("the tta metric needs a workload axis")
            result = self.tta(spec, workload, cluster=cluster, **scenario_kwargs, **kwargs)
            return result.curve.best_value(), result
        raise ValueError(f"unknown sweep metric {metric!r}")
