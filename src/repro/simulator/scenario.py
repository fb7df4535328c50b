"""Dynamic-events scenario engine: faults, churn, and elastic membership.

The paper evaluates its aggregation schemes on a static cluster, but real
deployments are anything but static: stragglers come and go, links degrade
and recover, switches run out of aggregation memory under competing tenants,
and elastic training jobs gain and lose workers mid-run.  Steady-state
averages hide all of that -- transient hotspots dominate *tail* round times,
and scheme rankings that hold on a quiet cluster can invert under churn.

A :class:`Scenario` is a timed sequence of cluster mutations.  Each
:class:`ScenarioEvent` owns a half-open round window ``[start_round,
until_round)`` (``until_round=None`` means "until the end of the run") and a
pure rewrite of the effective :class:`~repro.simulator.cluster.ClusterSpec`
for the rounds in its window:

* :func:`slowdown` -- one worker's compute/kernel clock runs ``x`` times
  slower (a straggler);
* :func:`nic_degrade` -- one worker's NIC drops to ``1/x`` bandwidth;
* :func:`link_flap` -- every worker in one rack loses NIC bandwidth (an
  uplink flapping down to a degraded rate);
* :func:`domain_fail` -- every worker in one fabric *failure domain* (a
  fat-tree pod, a torus plane, a sub-DCell) loses NIC bandwidth;
* :func:`switch_memory_pressure` -- the fabric switches' aggregation pool
  shrinks to a fraction of its size (competing in-network tenants);
* :func:`churn` -- every round, each worker independently becomes a
  straggler with probability ``p`` (deterministic per scenario seed);
* :func:`join` / :func:`leave` -- elastic membership at node granularity.

Scenarios are expressed programmatically (``Scenario.of(slowdown(3, 2.5,
at_round=10, until=40))``) or as spec strings in the scenario dialect of
:mod:`repro.grammar`::

    scenario("flap(rack=1)@20..25 + churn(p=0.05)")

The engine rewrites the effective cluster per round (:meth:`
Scenario.cluster_at`); rounds with no active events return the base cluster
*object itself*, so static stretches price bit-exactly like the static
simulator and sweep memoization keys (:meth:`Scenario.cache_key`) stay
correct.  :func:`run_scenario` drives any per-cluster pricing function over
a scenario and summarises the tail behaviour (:class:`ScenarioMetrics`:
p50/p95/p99 round time, excess time attributable to events, recovery).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.grammar import (
    NON_NEGATIVE,
    POSITIVE,
    REQUIRED,
    UNIT,
    Dialect,
    GrammarParamError,
    GrammarSyntaxError,
    Interval,
    Param,
    UnknownNameError,
    parse_terms,
)
from repro.simulator.cluster import (
    NOMINAL_PROFILE,
    PER_RANK_LIMIT,
    ClusterSpec,
    WorkerProfile,
    classes_of,
)


class UnknownEventError(UnknownNameError):
    """An unknown scenario event name, with close-match suggestions."""

    what = "scenario event"


class ScenarioSyntaxError(GrammarSyntaxError):
    """A scenario spec string that does not conform to the grammar."""

    what = "scenario spec"


class ScenarioParamError(GrammarParamError):
    """A well-formed scenario spec whose arguments do not fit the event."""


class ScenarioApplicationError(ValueError):
    """An event that cannot be applied to the cluster it meets at runtime."""


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed cluster mutation.

    Attributes:
        start_round: First round (0-indexed) the event is active.
        until_round: First round the event is no longer active (half-open
            window, matching Python ranges); ``None`` means the event never
            ends within the run.
    """

    start_round: int = field(default=0, kw_only=True)
    until_round: int | None = field(default=None, kw_only=True)

    #: Spec-language family name (set per subclass).
    kind = "abstract"

    def __post_init__(self) -> None:
        if self.start_round < 0:
            raise ValueError("start_round must be non-negative")
        if self.until_round is not None and self.until_round <= self.start_round:
            raise ValueError(
                f"until_round ({self.until_round}) must be greater than "
                f"start_round ({self.start_round})"
            )
        self._spec_family.check(self)

    def active_at(self, round_index: int) -> bool:
        """Whether the event's window covers ``round_index``."""
        if round_index < self.start_round:
            return False
        return self.until_round is None or round_index < self.until_round

    def apply(
        self, cluster: "ClusterSpec", round_index: int, rng: np.random.Generator
    ) -> "ClusterSpec":
        """The effective cluster after this event (must not mutate the input)."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical spec-string form of this event, window suffix included."""
        text = self._spec_family.format_instance(self)
        if self.until_round is not None:
            return f"{text}@{self.start_round}..{self.until_round}"
        if self.start_round > 0:
            return f"{text}@{self.start_round}"
        return text

    def _window_bound(self) -> int:
        """Last round (exclusive) this event can perturb; open windows count 1."""
        return self.until_round if self.until_round is not None else self.start_round + 1


def _scale_ranks(
    cluster: "ClusterSpec",
    ranges: Iterable[tuple[int, int]],
    *,
    slowdown: float = 1.0,
    nic: float = 1.0,
) -> "ClusterSpec":
    """Multiply the slowdown / nic_scale factors of ranks in ``[start, stop)`` ranges.

    ``ranges`` ascend and do not overlap.  They are spliced into the
    canonical profile segments (:meth:`~repro.simulator.cluster.ClusterSpec.splice`),
    so an event costs O(#segments + #ranges) whatever the world size: one
    range per worker for single-rank events and per-rank churn, one per
    rack or failure domain for flap and domain_fail.  Every scaled rank
    gets the same two products of its old factors.
    """
    ranges = list(ranges)
    if ranges and ranges[-1][1] > cluster.world_size:
        raise ScenarioApplicationError(
            f"event targets worker {ranges[-1][1] - 1} but the effective cluster "
            f"has world size {cluster.world_size}"
        )

    def scale(profile: WorkerProfile) -> WorkerProfile:
        return WorkerProfile(
            slowdown=profile.slowdown * slowdown,
            nic_scale=profile.nic_scale * nic,
        )

    return cluster.splice((start, stop, scale) for start, stop in ranges)


@dataclass(frozen=True)
class SlowdownEvent(ScenarioEvent):
    """Worker ``worker`` computes (and runs kernels) ``factor`` times slower."""

    worker: int
    factor: float
    kind = "slowdown"

    def apply(self, cluster, round_index, rng):
        return _scale_ranks(cluster, [(self.worker, self.worker + 1)], slowdown=self.factor)


@dataclass(frozen=True)
class NicDegradeEvent(ScenarioEvent):
    """Worker ``worker``'s NIC drops to ``1/factor`` of nominal bandwidth."""

    worker: int
    factor: float
    kind = "nic_degrade"

    def apply(self, cluster, round_index, rng):
        return _scale_ranks(cluster, [(self.worker, self.worker + 1)], nic=self.factor)


@dataclass(frozen=True)
class LinkFlapEvent(ScenarioEvent):
    """Rack ``rack``'s uplink flaps down: every member NIC runs ``factor`` x slower."""

    rack: int
    factor: float = 8.0
    kind = "flap"

    def apply(self, cluster, round_index, rng):
        if self.rack >= cluster.num_racks:
            raise ScenarioApplicationError(
                f"flap targets rack {self.rack} but the effective cluster has "
                f"{cluster.num_racks} rack(s)"
            )
        # Rack membership is a contiguous rank range by construction
        # (ranks fill nodes, nodes fill racks, in order) -- no per-rank scan.
        members_per_rack = cluster.workers_per_rack
        start = self.rack * members_per_rack
        return _scale_ranks(cluster, [(start, start + members_per_rack)], nic=self.factor)


@dataclass(frozen=True)
class DomainFailEvent(ScenarioEvent):
    """Failure domain ``domain`` degrades: every member NIC runs ``factor`` x slower.

    Targets the fabric's failure-domain metadata
    (:attr:`~repro.topology.fabric.FabricSpec.racks_per_domain`): a fat-tree
    pod losing its aggregation uplinks, a torus plane, a sub-DCell.  On a
    cluster without a fabric the whole cluster is the single domain 0.
    """

    domain: int
    factor: float = 8.0
    kind = "domain_fail"

    def apply(self, cluster, round_index, rng):
        fabric = cluster.fabric
        num_domains = fabric.num_domains if fabric is not None else 1
        if self.domain >= num_domains:
            raise ScenarioApplicationError(
                f"domain_fail targets domain {self.domain} but the effective "
                f"cluster has {num_domains} failure domain(s)"
            )
        racks_per_domain = fabric.racks_per_domain if fabric is not None else 1
        workers_per_domain = cluster.workers_per_rack * racks_per_domain
        start = self.domain * workers_per_domain
        return _scale_ranks(cluster, [(start, start + workers_per_domain)], nic=self.factor)


@dataclass(frozen=True)
class SwitchMemoryPressureEvent(ScenarioEvent):
    """The fabric switches' aggregation pool shrinks to ``factor`` of its size.

    A no-op on clusters without a fabric (there is no switch to pressure);
    on fabric clusters the smaller pool forces in-network aggregation into
    more chunks, each paying the recirculation overhead.
    """

    factor: float = 0.25
    kind = "switch_mem"

    def apply(self, cluster, round_index, rng):
        if cluster.fabric is None or self.factor == 1.0:
            return cluster
        switch = cluster.fabric.switch
        squeezed = replace(
            switch,
            aggregation_memory_bytes=max(
                1, int(switch.aggregation_memory_bytes * self.factor)
            ),
        )
        return replace(cluster, fabric=replace(cluster.fabric, switch=squeezed))


@dataclass(frozen=True)
class ChurnEvent(ScenarioEvent):
    """Transient stragglers: each worker slows by ``factor`` w.p. ``p`` per round.

    The draw is deterministic given the scenario seed, the event's position
    in the scenario, and the round index -- identical scenarios replay
    identical churn regardless of execution order or executor.  At or below
    :data:`~repro.simulator.cluster.PER_RANK_LIMIT` workers the draw is one
    uniform per rank; above it one binomial draw per canonical profile
    segment picks how many of that segment's workers (its first ones)
    churn, keeping fleet-scale rounds O(#segments).  Both regimes scale the
    hit ranks through one splice of the population.
    """

    p: float
    factor: float = 4.0
    kind = "churn"

    def apply(self, cluster, round_index, rng):
        if cluster.world_size <= PER_RANK_LIMIT:
            hit = np.flatnonzero(rng.random(cluster.world_size) < self.p).tolist()
            ranges = [(rank, rank + 1) for rank in hit]
        else:
            ranges = []
            position = 0
            for _, count in cluster.profile_segments():
                hits = int(rng.binomial(count, self.p))
                if hits:
                    ranges.append((position, position + hits))
                position += count
        if not ranges:
            return cluster
        return _scale_ranks(cluster, ranges, slowdown=self.factor)


def _resize_nodes(cluster: "ClusterSpec", new_num_nodes: int) -> "ClusterSpec":
    """A copy of the cluster with ``new_num_nodes`` nodes (profiles adjusted).

    Members keep their profiles in rank order: the last workers leave first,
    joiners arrive nominal.  The canonical segments are cut or extended in
    O(#segments).
    """
    if new_num_nodes < 1:
        raise ScenarioApplicationError("membership events cannot empty the cluster")
    if cluster.fabric is not None and cluster.fabric.num_racks > 1:
        if new_num_nodes % cluster.fabric.num_racks != 0:
            raise ScenarioApplicationError(
                f"membership event leaves {new_num_nodes} nodes, which does not "
                f"divide into the fabric's {cluster.fabric.num_racks} racks; "
                "join/leave whole rack-multiples on multi-rack clusters"
            )
    segments: list[tuple[WorkerProfile, int]] = []
    remaining = new_num_nodes * cluster.gpus_per_node
    for profile, count in cluster.profile_segments():
        if remaining <= 0:
            break
        taken = min(count, remaining)
        segments.append((profile, taken))
        remaining -= taken
    if remaining > 0:
        segments.append((NOMINAL_PROFILE, remaining))
    return replace(cluster, num_nodes=new_num_nodes, worker_classes=classes_of(segments))


@dataclass(frozen=True)
class JoinEvent(ScenarioEvent):
    """``nodes`` extra nominal nodes join for the duration of the window."""

    nodes: int = 1
    kind = "join"

    def apply(self, cluster, round_index, rng):
        return _resize_nodes(cluster, cluster.num_nodes + self.nodes)


@dataclass(frozen=True)
class LeaveEvent(ScenarioEvent):
    """The last ``nodes`` nodes leave for the duration of the window."""

    nodes: int = 1
    kind = "leave"

    def apply(self, cluster, round_index, rng):
        return _resize_nodes(cluster, cluster.num_nodes - self.nodes)


# --------------------------------------------------------------------------- #
# The scenario container
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Scenario:
    """A timed sequence of cluster mutations, applied in declaration order.

    Attributes:
        events: The events, applied left to right within each round so later
            events compose onto earlier ones (two slowdowns on one worker
            multiply).
        seed: Seed of the scenario's stochastic events (churn).  Part of the
            scenario's identity: two scenarios differing only in seed never
            share sweep memo entries.
        name: Optional display name (not part of equality / cache identity).
    """

    events: tuple[ScenarioEvent, ...] = ()
    seed: int = 0
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, ScenarioEvent):
                raise TypeError(f"not a ScenarioEvent: {event!r}")

    @classmethod
    def of(cls, *events: ScenarioEvent, seed: int = 0, name: str = "") -> "Scenario":
        """Build a scenario from events given positionally."""
        return cls(events=tuple(events), seed=seed, name=name)

    @property
    def is_static(self) -> bool:
        """Whether the scenario has no events (the provably bit-exact case)."""
        return not self.events

    @property
    def is_deterministic(self) -> bool:
        """Whether the scenario replays identically regardless of its seed."""
        return not any(isinstance(event, ChurnEvent) for event in self.events)

    def horizon(self) -> int:
        """First round index at which no (bounded) event is still pending.

        Open-ended events count from their start round only, so the horizon
        is always finite; it is the natural lower bound on ``num_rounds``
        for a run that wants to observe every event.
        """
        if not self.events:
            return 0
        return max(event._window_bound() for event in self.events)

    def default_num_rounds(self, recovery_margin: int = 5) -> int:
        """A run length that covers every event plus a recovery margin."""
        if self.is_static:
            return 1
        return self.horizon() + recovery_margin

    def cluster_at(
        self, base: "ClusterSpec", round_index: int, *, attempt: int = 0
    ) -> "ClusterSpec":
        """The effective cluster of round ``round_index`` (0-indexed).

        Rounds with no active events return ``base`` itself (identity, not a
        copy), so static stretches are indistinguishable -- bit-exactly --
        from the static simulator, and per-cluster pricing memoization hits.

        ``attempt`` is the recovery layer's re-issue counter: attempt 0 (the
        default) seeds stochastic events with the historical ``(seed,
        position, round_index)`` tuple, so every pre-recovery number is
        preserved bit-exactly; attempt ``k > 0`` extends the tuple with the
        attempt index, re-drawing transient faults (churn) while
        deterministic windows persist.
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        cluster = base
        for position, event in enumerate(self.events):
            if event.active_at(round_index):
                seed_key = (
                    (self.seed, position, round_index)
                    if attempt == 0
                    else (self.seed, position, round_index, attempt)
                )
                rng = np.random.default_rng(seed_key)
                cluster = event.apply(cluster, round_index, rng)
        return cluster

    def clusters(self, base: "ClusterSpec", num_rounds: int) -> "list[ClusterSpec]":
        """The effective cluster of every round of a ``num_rounds`` run."""
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        return [self.cluster_at(base, index) for index in range(num_rounds)]

    def max_world_size(self, base: "ClusterSpec", num_rounds: int) -> int:
        """The largest world size any round of the run sees (join events)."""
        return max(cluster.world_size for cluster in self.clusters(base, num_rounds))

    def cache_key(self) -> "Scenario":
        """Hashable full identity for sweep memoization.

        The frozen dataclass is its own key: equality covers the events and
        the seed (``name`` is display-only and excluded), so two scenarios on
        the same cluster never share a memo entry unless they genuinely
        replay the same mutations.
        """
        return self

    def spec(self) -> str:
        """The canonical, round-trippable spec string of this scenario."""
        if not self.events:
            return STATIC_SPEC
        return " + ".join(event.spec() for event in self.events)

    def label(self) -> str:
        """Display label: the name when given, the canonical spec otherwise."""
        return self.name or self.spec()


#: Spec spelling of the empty scenario (``scenario("static")`` parses to it).
STATIC_SPEC = "static"


# --------------------------------------------------------------------------- #
# The spec-string language
# --------------------------------------------------------------------------- #

#: The scenario dialect: numeric arguments, ``+`` joins, ``@A..B`` windows.
_EVENTS = Dialect(
    ScenarioSyntaxError,
    ScenarioParamError,
    UnknownEventError,
    windows=True,
    term_name="an event name",
    terms="events",
)

_WORKER = Param("w", int, "worker", default=REQUIRED, aliases=("worker",), domain=NON_NEGATIVE)
_FACTOR = Param("x", float, "factor", doc="times slower", aliases=("factor",), domain=POSITIVE)
_REQUIRED_FACTOR = replace(_FACTOR, default=REQUIRED)
_POOL_FRACTION = replace(_FACTOR, doc="pool fraction left", domain=Interval(0, 1, low_open=True))
_RACK = Param("rack", int, default=REQUIRED, domain=NON_NEGATIVE)
_DOMAIN = Param("d", int, "domain", default=REQUIRED, aliases=("domain",), domain=NON_NEGATIVE)
_PROBABILITY = Param("p", float, default=REQUIRED, doc="per-round chance", domain=UNIT)
_NODES = Param("n", int, "nodes", aliases=("nodes",), domain=Interval(1))

_EVENTS.register("slowdown", SlowdownEvent, (_WORKER, _REQUIRED_FACTOR))
_EVENTS.register("nic_degrade", NicDegradeEvent, (_WORKER, _REQUIRED_FACTOR), aliases=("nic",))
_EVENTS.register("flap", LinkFlapEvent, (_RACK, _FACTOR), aliases=("link_flap",))
_EVENTS.register("domain_fail", DomainFailEvent, (_DOMAIN, _FACTOR), aliases=("domain",))
_EVENTS.register(
    "switch_mem", SwitchMemoryPressureEvent, (_POOL_FRACTION,), aliases=("switch_memory_pressure",)
)
_EVENTS.register("churn", ChurnEvent, (_PROBABILITY, _FACTOR))
_EVENTS.register("join", JoinEvent, (_NODES,))
_EVENTS.register("leave", LeaveEvent, (_NODES,))


def available_events() -> list[str]:
    """Canonical scenario event names, sorted."""
    return _EVENTS.names()


def parse_scenario(text: str, *, seed: int = 0, name: str = "") -> Scenario:
    """Parse a scenario spec string into a :class:`Scenario`.

    The grammar is the scenario dialect of :mod:`repro.grammar`: events
    joined by ``+``, numeric arguments, and ``"static"`` for no events.
    ``@A..B`` is the half-open round window ``[A, B)``; ``@A`` alone means
    "from round A until the end of the run"; no ``@`` means "always".

    Raises:
        ScenarioSyntaxError: Malformed spec text.
        UnknownEventError: Unknown event name (with suggestions).
        ScenarioParamError: Arguments not matching the event's parameters.
    """
    if not isinstance(text, str) or not text.strip():
        raise ScenarioSyntaxError(str(text), 0, "empty scenario spec")
    if text.strip() == STATIC_SPEC:
        return Scenario(seed=seed, name=name)
    events = [
        family.build(args, start_round=start, until_round=until)
        for family, args, (start, until) in parse_terms(text, _EVENTS)
    ]
    return Scenario(events=tuple(events), seed=seed, name=name)


def scenario(
    value: "str | Scenario | ScenarioEvent | Sequence[ScenarioEvent]",
    *,
    seed: int = 0,
    name: str = "",
) -> Scenario:
    """Coerce a spec string, an event (or sequence), or a Scenario to a Scenario.

    The public constructor mirroring :func:`repro.compression.registry.
    make_scheme`: ``scenario("flap(rack=1)@20..25 + churn(p=0.05)")``.
    Passing an existing :class:`Scenario` returns it unchanged (the ``seed``
    and ``name`` arguments are ignored in that case).
    """
    if isinstance(value, Scenario):
        return value
    if isinstance(value, str):
        return parse_scenario(value, seed=seed, name=name)
    if isinstance(value, ScenarioEvent):
        return Scenario(events=(value,), seed=seed, name=name)
    return Scenario(events=tuple(value), seed=seed, name=name)


# --------------------------------------------------------------------------- #
# Programmatic event constructors
# --------------------------------------------------------------------------- #

#: Each takes the event's spec parameters positionally or by keyword, plus
#: the round window ``at_round=`` / ``until=``: ``slowdown(3, 2.5,
#: at_round=10, until=40)`` is ``slowdown(w=3, x=2.5)@10..40``.
_WINDOW = {"at_round": "start_round", "until": "until_round"}
slowdown = _EVENTS.constructor("slowdown", **_WINDOW)
nic_degrade = _EVENTS.constructor("nic_degrade", **_WINDOW)
link_flap = _EVENTS.constructor("link_flap", **_WINDOW)
domain_fail = _EVENTS.constructor("domain_fail", **_WINDOW)
switch_memory_pressure = _EVENTS.constructor("switch_memory_pressure", **_WINDOW)
churn = _EVENTS.constructor("churn", **_WINDOW)
join = _EVENTS.constructor("join", **_WINDOW)
leave = _EVENTS.constructor("leave", **_WINDOW)


# --------------------------------------------------------------------------- #
# Running a scenario and summarising its tail behaviour
# --------------------------------------------------------------------------- #

#: Relative slack above the baseline round time before a round counts as
#: degraded (absorbs float noise in the pricing arithmetic).
DEGRADED_RELATIVE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScenarioMetrics:
    """Tail summary of one scenario run's per-round times.

    Attributes:
        num_rounds: Rounds simulated.
        total_seconds: Sum of all round times.
        mean_round_seconds: Average round time.
        p50_round_seconds / p95_round_seconds / p99_round_seconds: Round-time
            percentiles -- the tail behaviour static averages hide.
        max_round_seconds: The single worst round.
        baseline_round_seconds: Static round time of the unperturbed cluster.
        degraded_rounds: Rounds measurably slower than the baseline.
        excess_seconds: Total time above baseline accumulated over degraded
            rounds -- the cost attributable to the scenario's events.
        recovery_round: First round index (0-indexed) after the last degraded
            round, i.e. when round times return to the static baseline;
            ``None`` if the run never degrades or never recovers within it.
        recovery_seconds: Simulated time from the onset of the first degraded
            round until recovery (the total span the job runs perturbed).
        timed_out_rounds: Rounds aborted at the recovery policy's deadline
            (0 when no policy ran -- the PR 5 path never times out).
        retries: Total failed attempts re-issued by the retry rule.
        dropped_worker_rounds: Worker-rounds excused by the drop rule
            (summed over rounds: 3 rounds dropping 2 workers each = 6).
        stale_rounds: Aborted rounds whose update re-applied the last good
            aggregate instead of being skipped.
    """

    num_rounds: int
    total_seconds: float
    mean_round_seconds: float
    p50_round_seconds: float
    p95_round_seconds: float
    p99_round_seconds: float
    max_round_seconds: float
    baseline_round_seconds: float
    degraded_rounds: int
    excess_seconds: float
    recovery_round: int | None
    recovery_seconds: float
    timed_out_rounds: int = 0
    retries: int = 0
    dropped_worker_rounds: int = 0
    stale_rounds: int = 0

    @property
    def tail_amplification(self) -> float:
        """p99 round time relative to the static baseline (1.0 = no tail)."""
        if self.baseline_round_seconds <= 0:
            return float("nan")
        return self.p99_round_seconds / self.baseline_round_seconds


def scenario_metrics(
    round_seconds: Sequence[float], baseline_round_seconds: float
) -> ScenarioMetrics:
    """Summarise per-round times against the unperturbed baseline."""
    if not round_seconds:
        raise ValueError("need at least one round time")
    times = np.asarray(round_seconds, dtype=float)
    threshold = baseline_round_seconds * (1.0 + DEGRADED_RELATIVE_TOLERANCE)
    degraded = times > threshold
    degraded_indices = np.flatnonzero(degraded)
    if degraded_indices.size:
        first = int(degraded_indices[0])
        last = int(degraded_indices[-1])
        recovery_round = last + 1 if last + 1 < len(times) else None
        recovery_seconds = float(times[first : last + 1].sum())
    else:
        recovery_round = None
        recovery_seconds = 0.0
    return ScenarioMetrics(
        num_rounds=len(times),
        total_seconds=float(times.sum()),
        mean_round_seconds=float(times.mean()),
        p50_round_seconds=float(np.percentile(times, 50)),
        p95_round_seconds=float(np.percentile(times, 95)),
        p99_round_seconds=float(np.percentile(times, 99)),
        max_round_seconds=float(times.max()),
        baseline_round_seconds=float(baseline_round_seconds),
        degraded_rounds=int(degraded.sum()),
        excess_seconds=float((times[degraded] - baseline_round_seconds).sum()),
        recovery_round=recovery_round,
        recovery_seconds=recovery_seconds,
    )


@dataclass(frozen=True)
class ScenarioRun:
    """Per-round times of one scenario run plus their tail summary.

    Attributes:
        scenario: The scenario that was run.
        round_seconds: Time of every simulated round, in round order.
        metrics: Tail summary (:class:`ScenarioMetrics`).
        distinct_clusters: How many distinct effective cluster configurations
            the run priced (1 for a static scenario; churn typically many).
    """

    scenario: Scenario
    round_seconds: tuple[float, ...]
    metrics: ScenarioMetrics
    distinct_clusters: int


def run_scenario(
    base: "ClusterSpec",
    scenario: Scenario,
    num_rounds: int,
    price_round: "Callable[[ClusterSpec], float]",
) -> ScenarioRun:
    """Drive a per-cluster pricing function over a scenario's rounds.

    ``price_round`` maps an effective :class:`ClusterSpec` to that round's
    simulated duration; it is called once per *distinct* effective cluster
    (results are memoized by :meth:`ClusterSpec.cache_key`), so a 1000-round
    scenario with one slowdown window prices exactly two configurations.

    The baseline for the tail metrics is ``price_round(base)`` -- the static
    round time of the unperturbed cluster.  This is
    :func:`~repro.simulator.recovery.run_recovered_scenario` under the empty
    policy, with ``price_round`` wrapped by ``deadline_clamp``.
    """
    from repro.simulator.recovery import (
        RecoveryPolicy,
        deadline_clamp,
        run_recovered_scenario,
    )

    run = run_recovered_scenario(
        base, scenario, RecoveryPolicy(), num_rounds, deadline_clamp(price_round)
    )
    return ScenarioRun(
        scenario=scenario,
        round_seconds=run.round_seconds,
        metrics=run.metrics,
        distinct_clusters=run.distinct_clusters,
    )
