"""Request/response schema of the advisor service.

An :class:`AdviseRequest` is the paper's question made declarative: *given
this workload, this cluster, and this failure scenario, which of these
candidate schemes wins on this metric?*  Every axis is expressed in the
repo's canonical spec languages -- scheme spec strings, named workloads,
:class:`~repro.simulator.cluster.ClusterSpec` objects, scenario spec
strings -- and canonicalized through the same ``cache_key()`` machinery the
sweep memo uses, so two differently-spelled requests for the same question
share cache entries, in-flight evaluations, and persisted pricing.

The :class:`AdviseResponse` ranks the candidates best-first with margins,
tail metrics (under a scenario), and per-candidate cache provenance, and is
JSON-serializable via :meth:`AdviseResponse.to_dict`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from repro.compression.registry import make_scheme
from repro.service.errors import InvalidRequestError
from repro.simulator.cluster import ClusterSpec
from repro.simulator.scenario import Scenario, scenario as as_scenario
from repro.training.workloads import WorkloadSpec, bert_large_wikitext, vgg19_tinyimagenet

#: Metrics the advisor can rank on (the session's sweep metrics).
ADVISE_METRICS = ("throughput", "vnmse", "tta")

#: Named workloads requests may reference by string.
WORKLOADS = {
    "bert_large": bert_large_wikitext,
    "vgg19": vgg19_tinyimagenet,
}


def resolve_workload(workload: str | WorkloadSpec | None) -> WorkloadSpec | None:
    """Resolve a workload given by name through :data:`WORKLOADS`."""
    if workload is None or isinstance(workload, WorkloadSpec):
        return workload
    try:
        return WORKLOADS[workload]()
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise InvalidRequestError(
            f"unknown workload {workload!r}; expected one of: {known} "
            "(or pass a WorkloadSpec)"
        ) from None


@lru_cache(maxsize=1024)
def canonical_spec(spec: str) -> str:
    """The round-trippable canonical form of a scheme spec (parse-checked).

    Cached because the advisor canonicalizes every request on its hot path;
    the warm-cache fast path must not re-parse spec strings per query.
    """
    scheme = make_scheme(spec)
    try:
        return scheme.spec()
    except NotImplementedError:
        # For custom factories without a spec() the registered name IS the
        # scheme's identity (the registry enforces uniqueness), not a label.
        return scheme.name  # reprolint: disable=RPL003 - registry name is the identity here


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


@lru_cache(maxsize=256)
def _cluster_digest(cluster: ClusterSpec) -> str:
    # cache_key() is the cluster's canonical identity: the worker population
    # appears as merged run-length profile segments, so class lists that
    # spell one population digest identically and share cached advisor
    # responses.  These digests key cache entries that outlive the process:
    # the repr of cache_key() must not move (tests/simulator pins it).  The
    # digest makes it a compact, restart-stable string.
    return _digest(repr(cluster.cache_key()))


def metric_direction(metric: str, workload: WorkloadSpec | None) -> str:
    """``"max"`` or ``"min"``: which way the metric improves.

    Throughput improves up, vNMSE improves down, and TTA follows the
    workload's goal metric (perplexity improves down, accuracy up).
    """
    if metric == "throughput":
        return "max"
    if metric == "vnmse":
        return "min"
    if workload is not None and workload.metric_improves == "down":
        return "min"
    return "max"


@dataclass(frozen=True)
class AdviseRequest:
    """One advisor query, pure data.

    Attributes:
        specs: Candidate scheme spec strings to rank (at least one).
        workload: A registered workload name (:data:`WORKLOADS`) or a
            :class:`WorkloadSpec`; required for the throughput and tta
            metrics, ignored-by-construction for vnmse.
        cluster: Cluster to price on; ``None`` uses the service's cluster.
        scenario: Optional dynamic-events axis -- a
            :class:`~repro.simulator.scenario.Scenario` or a spec string
            such as ``"slowdown(w=1, x=8)@10..40"``.
        metric: ``"throughput"`` (default), ``"vnmse"``, or ``"tta"``.
        metric_kwargs: Extra keyword arguments for the metric (for example
            ``{"num_rounds": 60}`` for scenario-conditioned throughput).
        deadline_seconds: Per-request deadline; ``None`` falls back to the
            service default (which may be unbounded).
    """

    specs: tuple[str, ...]
    workload: str | WorkloadSpec | None = None
    cluster: ClusterSpec | None = None
    scenario: Scenario | str | None = None
    metric: str = "throughput"
    metric_kwargs: Mapping[str, object] = field(default_factory=dict)
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        specs = (self.specs,) if isinstance(self.specs, str) else tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "metric_kwargs", dict(self.metric_kwargs))
        if not specs:
            raise InvalidRequestError("an AdviseRequest needs at least one candidate spec")
        if self.metric not in ADVISE_METRICS:
            raise InvalidRequestError(
                f"unknown metric {self.metric!r}; expected one of {ADVISE_METRICS}"
            )
        if self.metric in ("throughput", "tta") and self.workload is None:
            raise InvalidRequestError(f"the {self.metric} metric needs a workload")
        if self.metric == "vnmse" and self.scenario is not None:
            raise InvalidRequestError(
                "the vnmse metric has no time dimension; scenarios do not apply"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise InvalidRequestError("deadline_seconds must be positive")

    def resolve(self, default_cluster: ClusterSpec) -> "ResolvedRequest":
        """Canonicalize against a service's default cluster.

        Validation that needs parsing (unknown schemes, malformed scenario
        specs) happens here and surfaces as :class:`InvalidRequestError`.
        """
        try:
            canonical = tuple(canonical_spec(spec) for spec in self.specs)
        except InvalidRequestError:
            raise
        except Exception as error:
            raise InvalidRequestError(f"invalid candidate spec: {error}") from error
        workload = resolve_workload(self.workload)
        cluster = self.cluster if self.cluster is not None else default_cluster
        if self.scenario is None:
            story = None
        else:
            try:
                story = as_scenario(self.scenario)
            except Exception as error:
                raise InvalidRequestError(f"invalid scenario: {error}") from error
        return ResolvedRequest(request=self, canonical_specs=canonical,
                               workload=workload, cluster=cluster, scenario=story)


@dataclass(frozen=True)
class ResolvedRequest:
    """An :class:`AdviseRequest` with every axis canonicalized.

    Carries the restart-stable point keys that identify each candidate's
    evaluation in the pricing cache and the in-flight (single-flight) table.
    """

    request: AdviseRequest
    canonical_specs: tuple[str, ...]
    workload: WorkloadSpec | None
    cluster: ClusterSpec
    scenario: Scenario | None

    @property
    def metric(self) -> str:
        return self.request.metric

    @property
    def metric_kwargs(self) -> dict:
        return dict(self.request.metric_kwargs)

    @cached_property
    def axes_key(self) -> str:
        """The canonicalized non-spec axes, shared by every candidate's key.

        Built once per resolved request: formatting the scenario and
        digesting the cluster is most of a point key's cost.
        """
        workload = self.workload.name if self.workload is not None else "-"
        if self.scenario is None:
            scenario_part = "-"
        else:
            scenario_part = f"{self.scenario.spec()}#seed={self.scenario.seed}"
        kwargs = repr(sorted(self.request.metric_kwargs.items()))
        return "|".join(
            [self.metric, workload, _cluster_digest(self.cluster), scenario_part, kwargs]
        )

    def point_key(self, canonical: str) -> str:
        """Stable cache identity of one candidate's evaluation.

        Built from the canonical spec plus the canonicalized axes, so it
        survives service restarts (unlike the sweep memo's object keys) and
        two spellings of one question collide on purpose.
        """
        return f"{canonical}|{self.axes_key}"

    def point_keys(self) -> dict[str, str]:
        """Ordered mapping of candidate spec (as written) to its point key."""
        return {
            spec: self.point_key(canonical)
            for spec, canonical in zip(self.request.specs, self.canonical_specs)
        }

    @property
    def direction(self) -> str:
        return metric_direction(self.metric, self.workload)


@dataclass(frozen=True)
class RankedSpec:
    """One candidate's position in an advisor ranking.

    Attributes:
        spec: The candidate spec as the caller wrote it.
        canonical_spec: Its canonical round-trippable form.
        value: The measured metric value.
        margin_vs_best: Relative distance to the winner
            (``abs(value - best) / abs(best)``; 0.0 for the winner itself).
        tail: Scenario tail metrics (p50/p95/p99 round seconds, degraded
            rounds, ...) when the request had a scenario; ``None`` otherwise.
        provenance: Where the value came from: ``"memory"`` (in-memory cache
            tier), ``"persistent"`` (re-hydrated from the spill tier), or
            ``"computed"`` (priced by a sweep during this request).
    """

    spec: str
    canonical_spec: str
    value: float
    margin_vs_best: float
    tail: dict | None = None
    provenance: str = "computed"

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "canonical_spec": self.canonical_spec,
            "value": self.value,
            "margin_vs_best": self.margin_vs_best,
            "tail": self.tail,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class AdviseResponse:
    """The advisor's answer: candidates ranked best-first.

    Attributes:
        metric: The metric the ranking is on.
        direction: ``"max"`` or ``"min"`` -- how the metric improves.
        workload: Workload name (or ``None`` for vnmse).
        cluster: Display label of the cluster priced on.
        scenario: Canonical scenario spec, or ``None`` for a static request.
        ranked: Candidates best-first, with margins and provenance.
        latency_seconds: Wall-clock service latency of this request.
        batch_size: Number of requests sharing the micro-batch that served
            this one (1 for warm-cache fast-path answers).
        stale: True when this response was served from already-cached
            pricing under overload instead of a fresh evaluation; the
            ranking may then cover only the candidates that were cached.
        stale_age_seconds: Age of the oldest cached pricing behind a stale
            response (``None`` when fresh, or when the cached entries
            predate age tracking).
    """

    metric: str
    direction: str
    workload: str | None
    cluster: str
    scenario: str | None
    ranked: tuple[RankedSpec, ...]
    latency_seconds: float
    batch_size: int = 1
    stale: bool = False
    stale_age_seconds: float | None = None

    @property
    def best(self) -> RankedSpec:
        """The winning candidate."""
        return self.ranked[0]

    @property
    def winner_margin(self) -> float:
        """The winner's relative margin over the runner-up (0.0 if alone)."""
        if len(self.ranked) < 2:
            return 0.0
        return self.ranked[1].margin_vs_best

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "workload": self.workload,
            "cluster": self.cluster,
            "scenario": self.scenario,
            "ranked": [entry.to_dict() for entry in self.ranked],
            "latency_seconds": self.latency_seconds,
            "batch_size": self.batch_size,
            "stale": self.stale,
            "stale_age_seconds": self.stale_age_seconds,
        }


def rank_candidates(
    resolved: ResolvedRequest,
    values: Mapping[str, tuple[float, dict | None, str]],
    *,
    latency_seconds: float,
    batch_size: int,
    stale: bool = False,
    stale_age_seconds: float | None = None,
    allow_partial: bool = False,
) -> AdviseResponse:
    """Assemble the response from per-spec ``(value, tail, provenance)``.

    ``values`` is keyed by the candidate specs as written; candidates tied
    on value keep request order (stable sort), so rankings are deterministic.
    ``allow_partial`` (the stale-on-overload path) ranks only the candidates
    present in ``values`` instead of requiring every requested spec.
    """
    direction = resolved.direction
    entries = []
    for spec, canonical in zip(resolved.request.specs, resolved.canonical_specs):
        if allow_partial and spec not in values:
            continue
        value, tail, provenance = values[spec]
        entries.append((spec, canonical, float(value), tail, provenance))
    if not entries:
        raise ValueError("rank_candidates needs at least one priced candidate")
    reverse = direction == "max"
    entries.sort(key=lambda item: item[2], reverse=reverse)
    best_value = entries[0][2]
    scale = abs(best_value)
    ranked = tuple(
        RankedSpec(
            spec=spec,
            canonical_spec=canonical,
            value=value,
            margin_vs_best=abs(value - best_value) / scale if scale > 0 else 0.0,
            tail=tail,
            provenance=provenance,
        )
        for spec, canonical, value, tail, provenance in entries
    )
    from repro.api.sweep import cluster_label  # local import: avoid cycle at module load

    return AdviseResponse(
        metric=resolved.metric,
        direction=direction,
        workload=resolved.workload.name if resolved.workload is not None else None,
        cluster=cluster_label(resolved.cluster),
        scenario=resolved.scenario.spec() if resolved.scenario is not None else None,
        ranked=ranked,
        latency_seconds=latency_seconds,
        batch_size=batch_size,
        stale=stale,
        stale_age_seconds=stale_age_seconds,
    )


def summarize_detail(metric: str, detail: object) -> dict | None:
    """JSON-safe tail summary of a sweep point's detail object.

    Only scenario-conditioned throughput estimates carry tail behaviour
    worth surfacing (and persisting); everything else summarizes to None.
    """
    scenario_metrics = getattr(detail, "scenario_metrics", None)
    if scenario_metrics is None:
        return None
    return {
        "num_rounds": scenario_metrics.num_rounds,
        "p50_round_seconds": scenario_metrics.p50_round_seconds,
        "p95_round_seconds": scenario_metrics.p95_round_seconds,
        "p99_round_seconds": scenario_metrics.p99_round_seconds,
        "max_round_seconds": scenario_metrics.max_round_seconds,
        "degraded_rounds": scenario_metrics.degraded_rounds,
        "excess_seconds": scenario_metrics.excess_seconds,
    }
