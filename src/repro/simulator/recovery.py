"""Composable fault-recovery policies over scenario-injected failures.

The scenario engine (PR 5) *injects* faults -- stragglers, flapped links,
churn -- and prices every round as if the training system simply waited:
a slowdown window stretches each of its rounds forever, and the only
defence is choosing a different scheme offline.  Real systems react.
Survivability work on virtual networks frames this as explicit recovery
policies layered over failures, and that is what this module provides: a
small, composable policy language describing *how the system responds*
when a round runs long, priced through the same per-round machinery so
policies are comparable on the same footing as schemes and scenarios.

A :class:`RecoveryPolicy` composes up to one rule of each kind:

* :func:`timeout` -- ``timeout(k=3)``: abort the collective once the round
  exceeds ``k`` times the nominal (unperturbed) round time.  An aborted
  round costs exactly the deadline; its update is skipped unless a stale
  rule saves it.
* :func:`retry` -- ``retry(max=2, backoff=0.1)``: when a round prices
  degraded (flap/degrade/churn events), abandon the attempt, wait an
  exponential-backoff delay (``backoff * 2**i`` nominal rounds), and
  re-issue the round.  Stochastic events (churn) are re-drawn on each
  attempt -- transient stragglers may clear; deterministic windows persist
  and the retry budget is honestly wasted.
* :func:`drop_stragglers` -- ``drop(max_workers=f)``: partial aggregation.
  Excuse up to ``f`` of the worst-perturbed workers (the collective stops
  waiting for them) and aggregate the remaining ``n - f`` contributions,
  rescaled by ``n / (n - f)``; the explicit variance cost is
  :attr:`RoundResolution.vnmse_penalty`.
* :func:`stale_gradients` -- ``stale(max=s)``: graceful degradation for
  timed-out rounds.  Re-apply the last successful aggregate for up to
  ``s`` *consecutive* aborted rounds before falling back to skipping the
  update entirely (``skip`` is the implicit default for aborts).

Policies are spec strings in the policy dialect of :mod:`repro.grammar`,
with the same parse / round-trip / suggestion UX as ``scenario(...)``::

    policy("timeout(k=3) + retry(max=2, backoff=0.1) + drop(max_workers=1)")

The empty policy (``policy("")`` or ``policy("none")``) is **bit-exact**
with the PR 5 scenario path: no branch of the resolution logic runs, so
every existing number is preserved (property-tested across the scheme
registry and both kernel backends).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.grammar import (
    NON_NEGATIVE,
    Dialect,
    GrammarParamError,
    GrammarSyntaxError,
    Interval,
    Param,
    UnknownNameError,
    parse_terms,
)
from repro.simulator.cluster import ClusterSpec, WorkerProfile
from repro.simulator.scenario import (
    DEGRADED_RELATIVE_TOLERANCE,
    Scenario,
    ScenarioMetrics,
    scenario_metrics,
)

__all__ = [
    "PolicyRule",
    "TimeoutRule",
    "RetryRule",
    "DropRule",
    "StaleRule",
    "RecoveryPolicy",
    "RoundResolution",
    "RecoveredRun",
    "PolicyEngine",
    "UnknownPolicyRuleError",
    "PolicySyntaxError",
    "PolicyParamError",
    "NONE_SPEC",
    "available_policy_rules",
    "parse_policy",
    "policy",
    "timeout",
    "retry",
    "drop_stragglers",
    "stale_gradients",
    "deadline_clamp",
    "excuse_stragglers",
    "run_recovered_scenario",
]


class UnknownPolicyRuleError(UnknownNameError):
    """An unknown recovery-rule name, with close-match suggestions."""

    what = "recovery rule"


class PolicySyntaxError(GrammarSyntaxError):
    """A policy spec string that does not conform to the grammar."""

    what = "recovery policy spec"


class PolicyParamError(GrammarParamError):
    """A well-formed policy spec whose arguments do not fit the rule."""


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PolicyRule:
    """One recovery behaviour; a policy composes at most one of each kind."""

    #: Spec-language family name (set per subclass).
    kind = "abstract"

    def __post_init__(self) -> None:
        self._spec_family.check(self)

    def spec(self) -> str:
        """Canonical spec-string form of this rule."""
        return self._spec_family.format_instance(self)


@dataclass(frozen=True)
class TimeoutRule(PolicyRule):
    """Abort the collective once the round exceeds ``k`` nominal round times."""

    k: float = 3.0
    kind = "timeout"


@dataclass(frozen=True)
class RetryRule(PolicyRule):
    """Re-issue degraded rounds up to ``max_attempts`` times with backoff.

    Each failed attempt costs its own (possibly deadline-clamped) duration
    plus ``backoff * 2**i`` nominal round times of exponential-backoff
    delay before attempt ``i + 1``.
    """

    max_attempts: int = 2
    backoff: float = 0.1
    kind = "retry"


@dataclass(frozen=True)
class DropRule(PolicyRule):
    """Excuse up to ``max_workers`` stragglers; aggregate the rest, rescaled."""

    max_workers: int = 1
    kind = "drop"


@dataclass(frozen=True)
class StaleRule(PolicyRule):
    """Re-apply the last good aggregate for up to ``max_stale`` consecutive aborts."""

    max_stale: int = 1
    kind = "stale"


#: Canonical composition order of rule kinds within a policy spec; also the
#: order the engine applies them in (retry, then drop, then the deadline).
_KIND_ORDER = ("timeout", "retry", "drop", "stale")


# --------------------------------------------------------------------------- #
# The policy container
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryPolicy:
    """A composition of recovery rules, at most one per kind.

    Attributes:
        rules: The rules, stored in canonical kind order regardless of the
            order they were spelled in (so spec strings round-trip and two
            spellings of the same policy share sweep memo entries).
        name: Optional display name (not part of equality / cache identity).
    """

    rules: tuple[PolicyRule, ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        seen: dict[str, PolicyRule] = {}
        for rule in self.rules:
            if not isinstance(rule, PolicyRule):
                raise TypeError(f"not a PolicyRule: {rule!r}")
            if rule.kind in seen:
                raise PolicyParamError(
                    f"policy composes two {rule.kind!r} rules; "
                    "a policy takes at most one rule of each kind"
                )
            seen[rule.kind] = rule
        ordered = tuple(seen[kind] for kind in _KIND_ORDER if kind in seen)
        object.__setattr__(self, "rules", ordered)

    @classmethod
    def of(cls, *rules: PolicyRule, name: str = "") -> "RecoveryPolicy":
        """Build a policy from rules given positionally."""
        return cls(rules=tuple(rules), name=name)

    @property
    def is_empty(self) -> bool:
        """Whether the policy has no rules (the provably bit-exact case)."""
        return not self.rules

    def _rule(self, kind: str) -> PolicyRule | None:
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None

    @property
    def timeout_rule(self) -> TimeoutRule | None:
        return self._rule("timeout")  # type: ignore[return-value]

    @property
    def retry_rule(self) -> RetryRule | None:
        return self._rule("retry")  # type: ignore[return-value]

    @property
    def drop_rule(self) -> DropRule | None:
        return self._rule("drop")  # type: ignore[return-value]

    @property
    def stale_rule(self) -> StaleRule | None:
        return self._rule("stale")  # type: ignore[return-value]

    def cache_key(self) -> "RecoveryPolicy":
        """Hashable full identity for sweep memoization (the frozen self)."""
        return self

    def spec(self) -> str:
        """The canonical, round-trippable spec string of this policy."""
        if not self.rules:
            return NONE_SPEC
        return " + ".join(rule.spec() for rule in self.rules)

    def label(self) -> str:
        """Display label: the name when given, the canonical spec otherwise."""
        return self.name or self.spec()


#: Spec spelling of the empty policy (``policy("none")`` parses to it; the
#: empty string is accepted too).
NONE_SPEC = "none"


# --------------------------------------------------------------------------- #
# The spec-string language
# --------------------------------------------------------------------------- #

#: The policy dialect: numeric arguments and ``+`` joins; no round windows.
_RULES = Dialect(
    PolicySyntaxError,
    PolicyParamError,
    UnknownPolicyRuleError,
    window_hint="recovery rules do not take round windows; a policy is active "
    "for the whole run (windows belong to scenario events)",
    term_name="a recovery rule name",
    terms="rules",
)

_RULES.register(
    "timeout",
    TimeoutRule,
    (
        Param(
            "k",
            float,
            doc="deadline in nominal round times; a sub-nominal one would abort every round",
            domain=Interval(1),
        ),
    ),
    aliases=("deadline",),
)
_RULES.register(
    "retry",
    RetryRule,
    (
        Param(
            "max",
            int,
            "max_attempts",
            doc="retry budget; 0 disables retries",
            aliases=("max_attempts",),
            domain=NON_NEGATIVE,
        ),
        Param(
            "backoff",
            float,
            doc="delay before each re-issue, in nominal round times",
            domain=NON_NEGATIVE,
        ),
    ),
)
_RULES.register(
    "drop",
    DropRule,
    (
        Param(
            "max_workers",
            int,
            doc="stragglers excused; dropping none would never change the round",
            aliases=("f",),
            domain=Interval(1),
        ),
    ),
    aliases=("drop_stragglers",),
)
_RULES.register(
    "stale",
    StaleRule,
    (
        Param(
            "max",
            int,
            "max_stale",
            doc="consecutive aborts re-applying the last aggregate; 0 always skips them",
            aliases=("max_stale",),
            domain=NON_NEGATIVE,
        ),
    ),
    aliases=("stale_gradients",),
)


def available_policy_rules() -> list[str]:
    """Canonical recovery-rule names, sorted."""
    return _RULES.names()


def parse_policy(text: str, *, name: str = "") -> RecoveryPolicy:
    """Parse a policy spec string into a :class:`RecoveryPolicy`.

    The grammar is the policy dialect of :mod:`repro.grammar`: rules joined
    by ``+`` with numeric arguments, and ``""`` or ``"none"`` for no rules.
    All parameters are validated at parse time (``timeout(k=0.5)`` or
    ``retry(max=-1)`` fail here, not mid-simulation).

    Raises:
        PolicySyntaxError: Malformed spec text.
        UnknownPolicyRuleError: Unknown rule name (with suggestions).
        PolicyParamError: Arguments not matching the rule's parameters.
    """
    if not isinstance(text, str):
        raise PolicySyntaxError(str(text), 0, "policy spec must be a string")
    stripped = text.strip()
    if not stripped or stripped == NONE_SPEC:
        return RecoveryPolicy(name=name)
    rules = [family.build(args) for family, args, _ in parse_terms(text, _RULES)]
    return RecoveryPolicy(rules=tuple(rules), name=name)


def policy(
    value: "str | RecoveryPolicy | PolicyRule | Sequence[PolicyRule] | None",
    *,
    name: str = "",
) -> RecoveryPolicy:
    """Coerce a spec string, a rule (or sequence), or a policy to a policy.

    The public constructor mirroring :func:`~repro.simulator.scenario.
    scenario`: ``policy("timeout(k=3) + drop(max_workers=1)")``.  ``None``
    and the empty string both coerce to the empty (bit-exact) policy.
    Passing an existing :class:`RecoveryPolicy` returns it unchanged.
    """
    if value is None:
        return RecoveryPolicy(name=name)
    if isinstance(value, RecoveryPolicy):
        return value
    if isinstance(value, str):
        return parse_policy(value, name=name)
    if isinstance(value, PolicyRule):
        return RecoveryPolicy(rules=(value,), name=name)
    return RecoveryPolicy(rules=tuple(value), name=name)


# --------------------------------------------------------------------------- #
# Programmatic rule constructors
# --------------------------------------------------------------------------- #

#: Each takes the rule's spec parameters positionally or by keyword:
#: ``retry(2, backoff=0.1)`` is ``retry(max=2, backoff=0.1)``.
timeout = _RULES.constructor("timeout")
retry = _RULES.constructor("retry")
drop_stragglers = _RULES.constructor("drop_stragglers")
stale_gradients = _RULES.constructor("stale_gradients")


# --------------------------------------------------------------------------- #
# Straggler identification
# --------------------------------------------------------------------------- #

#: Relative perturbation above a worker's reference profile before the drop
#: rule considers it a straggler (absorbs float noise in event arithmetic).
_STRAGGLER_RELATIVE_TOLERANCE = 1e-9


def _merged_segments(cluster: "ClusterSpec", base: "ClusterSpec"):
    """Walk ``(start, stop, effective_profile, reference_profile)`` spans.

    Both clusters cover the same world; the walk advances through both
    canonical segment lists at once, so it is O(#classes) even on
    fleet-scale populations.
    """
    effective = list(cluster.profile_segments())
    reference = list(base.profile_segments())
    position = 0
    ei = ri = 0
    e_left = effective[0][1]
    r_left = reference[0][1]
    while ei < len(effective) and ri < len(reference):
        span = min(e_left, r_left)
        yield position, position + span, effective[ei][0], reference[ri][0]
        position += span
        e_left -= span
        r_left -= span
        if e_left == 0:
            ei += 1
            if ei < len(effective):
                e_left = effective[ei][1]
        if r_left == 0:
            ri += 1
            if ri < len(reference):
                r_left = reference[ri][1]


def excuse_stragglers(
    cluster: "ClusterSpec", base: "ClusterSpec", max_workers: int
) -> "tuple[ClusterSpec, tuple[int, ...]]":
    """Excuse up to ``max_workers`` of the worst-perturbed workers.

    A worker is a straggler when its effective profile is measurably worse
    than its reference profile in ``base`` (the unperturbed cluster);
    excused workers stop gating the collective, which the simulator models
    by restoring their profiles to the reference.  The identification walks
    canonical profile segments, so fleet-scale clusters stay O(#classes).

    Returns the rewritten cluster and the excused ranks (empty when no
    worker qualifies, e.g. membership changed or nothing is degraded).
    """
    if cluster.world_size != base.world_size:
        # Membership events changed the world: rank identities no longer
        # line up with the base population, so dropping is not defined.
        return cluster, ()

    candidates: list[tuple[float, int, int, WorkerProfile]] = []
    for start, stop, profile, ref in _merged_segments(cluster, base):
        badness = max(profile.slowdown / ref.slowdown, profile.nic_scale / ref.nic_scale)
        if badness > 1.0 + _STRAGGLER_RELATIVE_TOLERANCE:
            candidates.append((badness, start, stop, ref))
    if not candidates:
        return cluster, ()
    candidates.sort(key=lambda item: (-item[0], item[1]))

    restored: list[tuple[int, int, Callable[[WorkerProfile], WorkerProfile]]] = []
    budget = max_workers
    for _, start, stop, ref in candidates:
        if budget <= 0:
            break
        take = min(budget, stop - start)
        restored.append((start, start + take, lambda _, ref=ref: ref))
        budget -= take
    restored.sort(key=lambda edit: edit[0])
    excused = tuple(rank for start, stop, _ in restored for rank in range(start, stop))
    return cluster.splice(restored), excused


# --------------------------------------------------------------------------- #
# Per-round resolution
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RoundResolution:
    """How one round played out under a recovery policy.

    Attributes:
        round_index: The round (0-indexed).
        seconds: Total charged wall time: the accepted attempt plus every
            failed attempt and its backoff delay.
        attempts: Pricing attempts made (1 = no retry fired).
        timed_out: Whether the accepted attempt hit the deadline (the round
            was aborted at ``k`` nominal round times).
        dropped_workers: Workers excused by the drop rule this round.
        excused_ranks: The excused ranks (empty when none).
        stale: The update was replaced by the last good aggregate.
        skipped: The update was skipped entirely.
        cluster: Effective cluster of the accepted attempt (post-drop), the
            one a trainer aggregates on.
    """

    round_index: int
    seconds: float
    attempts: int
    timed_out: bool
    dropped_workers: int
    excused_ranks: tuple[int, ...]
    stale: bool
    skipped: bool
    cluster: "ClusterSpec"

    @property
    def retries(self) -> int:
        """Failed attempts re-issued before the accepted one."""
        return self.attempts - 1

    @property
    def vnmse_penalty(self) -> float:
        """Variance inflation of aggregating ``n - f`` of ``n`` contributions.

        The mean of ``n - f`` i.i.d. worker gradients has ``n / (n - f)``
        times the variance of the full mean -- the explicit quality price
        of partial aggregation (1.0 when nothing was dropped).
        """
        world = self.cluster.world_size
        kept = world - self.dropped_workers
        if kept <= 0:
            return float("inf")
        return world / kept


def deadline_clamp(
    price_round: "Callable[[ClusterSpec], float]",
) -> "Callable[[ClusterSpec, float | None], tuple[float, bool]]":
    """Adapt a plain per-cluster pricing function to the engine's contract.

    The engine prices rounds through ``price(cluster, deadline_seconds) ->
    (seconds, aborted)`` so call sites that schedule through
    :func:`~repro.simulator.pipeline.simulate_schedule` can thread the
    deadline into the scheduler itself.  Call sites with a plain float
    pricing function wrap it here: the clamp is applied after the fact.
    """

    def wrapped(cluster: "ClusterSpec", deadline: float | None) -> tuple[float, bool]:
        seconds = price_round(cluster)
        if deadline is not None and seconds > deadline:
            return deadline, True
        return seconds, False

    return wrapped


class PolicyEngine:
    """Stateful per-round resolver: scenario faults in, recovered rounds out.

    The engine owns the pricing memo (per distinct effective cluster), the
    deadline derived from the nominal round time, and the consecutive-stale
    counter; :meth:`resolve` is called once per round, in round order.
    With an empty policy every resolution is exactly the raw scenario
    round -- no branch of the recovery logic runs.
    """

    def __init__(
        self,
        base: "ClusterSpec",
        scenario: Scenario,
        policy: RecoveryPolicy,
        price_round: "Callable[[ClusterSpec, float | None], tuple[float, bool]]",
        *,
        nominal_seconds: float | None = None,
    ):
        self.base = base
        self.scenario = scenario
        self.policy = policy
        self._price_round = price_round
        self._memo: dict[object, tuple[float, bool]] = {}
        if nominal_seconds is None:
            nominal_seconds, _ = self._price(base, None)
        self.nominal_seconds = float(nominal_seconds)
        timeout_rule = policy.timeout_rule
        self.deadline_seconds = (
            timeout_rule.k * self.nominal_seconds if timeout_rule is not None else None
        )
        self._threshold = self.nominal_seconds * (1.0 + DEGRADED_RELATIVE_TOLERANCE)
        self._consecutive_stale = 0
        self.timed_out_rounds = 0
        self.retries = 0
        self.dropped_worker_rounds = 0
        self.stale_rounds = 0

    @property
    def distinct_clusters(self) -> int:
        """How many distinct effective configurations were priced so far."""
        return len(self._memo)

    def _price(self, cluster: "ClusterSpec", deadline: float | None) -> tuple[float, bool]:
        key = cluster.cache_key()
        hit = self._memo.get(key)
        if hit is None:
            hit = self._price_round(cluster, deadline)
            self._memo[key] = hit
        return hit

    def _degraded(self, seconds: float, aborted: bool) -> bool:
        return aborted or seconds > self._threshold

    def adopt_state(self, predecessor: "PolicyEngine") -> None:
        """Carry run-level recovery state over from a predecessor engine.

        An adaptive trainer that switches schemes mid-run rebuilds the
        engine (the deadline and pricing memo are scheme-specific) but the
        consecutive-stale counter and the recovery totals belong to the
        *run*, so the successor inherits them.
        """
        self._consecutive_stale = predecessor._consecutive_stale
        self.timed_out_rounds = predecessor.timed_out_rounds
        self.retries = predecessor.retries
        self.dropped_worker_rounds = predecessor.dropped_worker_rounds
        self.stale_rounds = predecessor.stale_rounds

    def resolve(self, round_index: int, *, can_stale: bool = True) -> RoundResolution:
        """Resolve round ``round_index`` under the policy.

        ``can_stale`` lets a trainer veto stale re-application when it has
        no previous aggregate to re-apply (round 0 aborts fall back to a
        skipped update).
        """
        policy = self.policy
        cluster = self.scenario.cluster_at(self.base, round_index)
        seconds, aborted = self._price(cluster, self.deadline_seconds)

        if policy.is_empty:
            return RoundResolution(
                round_index=round_index,
                seconds=seconds,
                attempts=1,
                timed_out=False,
                dropped_workers=0,
                excused_ranks=(),
                stale=False,
                skipped=False,
                cluster=cluster,
            )

        attempts = 1
        overhead = 0.0
        excused: tuple[int, ...] = ()
        dropped = 0

        retry_rule = policy.retry_rule
        if retry_rule is not None and self._degraded(seconds, aborted):
            for attempt in range(1, retry_rule.max_attempts + 1):
                # The failed attempt runs to its (deadline-clamped) end,
                # then the backoff delay elapses before the re-issue.
                overhead += seconds
                overhead += retry_rule.backoff * (2.0 ** (attempt - 1)) * self.nominal_seconds
                redrawn = self.scenario.cluster_at(self.base, round_index, attempt=attempt)
                seconds, aborted = self._price(redrawn, self.deadline_seconds)
                cluster = redrawn
                attempts += 1
                if not self._degraded(seconds, aborted):
                    break

        drop_rule = policy.drop_rule
        if drop_rule is not None and self._degraded(seconds, aborted):
            rewritten, ranks = excuse_stragglers(cluster, self.base, drop_rule.max_workers)
            if ranks:
                d_seconds, d_aborted = self._price(rewritten, self.deadline_seconds)
                if (aborted and not d_aborted) or d_seconds < seconds:
                    cluster, seconds, aborted = rewritten, d_seconds, d_aborted
                    excused, dropped = ranks, len(ranks)

        timed_out = aborted
        stale = skipped = False
        if timed_out:
            stale_rule = policy.stale_rule
            if (
                stale_rule is not None
                and can_stale
                and self._consecutive_stale < stale_rule.max_stale
            ):
                stale = True
                self._consecutive_stale += 1
            else:
                skipped = True
        else:
            self._consecutive_stale = 0

        self.timed_out_rounds += int(timed_out)
        self.retries += attempts - 1
        self.dropped_worker_rounds += dropped
        self.stale_rounds += int(stale)
        return RoundResolution(
            round_index=round_index,
            seconds=overhead + seconds,
            attempts=attempts,
            timed_out=timed_out,
            dropped_workers=dropped,
            excused_ranks=excused,
            stale=stale,
            skipped=skipped,
            cluster=cluster,
        )

    def metrics(self, round_seconds: Sequence[float]) -> ScenarioMetrics:
        """Tail summary of the resolved round times, recovery counters included."""
        return replace(
            scenario_metrics(round_seconds, self.nominal_seconds),
            timed_out_rounds=self.timed_out_rounds,
            retries=self.retries,
            dropped_worker_rounds=self.dropped_worker_rounds,
            stale_rounds=self.stale_rounds,
        )


# --------------------------------------------------------------------------- #
# Running a scenario under a policy
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveredRun:
    """Per-round resolutions of one policy-governed scenario run.

    Attributes:
        scenario: The scenario that was run.
        policy: The governing recovery policy.
        round_seconds: Charged time of every round, in round order.
        resolutions: Per-round :class:`RoundResolution` records.
        metrics: Tail summary with recovery counters
            (:class:`~repro.simulator.scenario.ScenarioMetrics`).
        distinct_clusters: Distinct effective configurations priced.
    """

    scenario: Scenario
    policy: RecoveryPolicy
    round_seconds: tuple[float, ...]
    resolutions: tuple[RoundResolution, ...]
    metrics: ScenarioMetrics
    distinct_clusters: int

    @property
    def mean_vnmse_penalty(self) -> float:
        """Mean per-round variance inflation from partial aggregation."""
        if not self.resolutions:
            return 1.0
        return sum(r.vnmse_penalty for r in self.resolutions) / len(self.resolutions)


def run_recovered_scenario(
    base: "ClusterSpec",
    scenario: Scenario,
    policy: RecoveryPolicy,
    num_rounds: int,
    price_round: "Callable[[ClusterSpec, float | None], tuple[float, bool]]",
    *,
    nominal_seconds: float | None = None,
) -> RecoveredRun:
    """Drive a pricing function over a scenario's rounds under a policy.

    The recovery-aware sibling of :func:`~repro.simulator.scenario.
    run_scenario`: ``price_round`` maps ``(cluster, deadline_seconds)`` to
    ``(seconds, aborted)`` (wrap a plain float function with
    :func:`deadline_clamp`), is memoized per distinct effective cluster,
    and each round is resolved through the full retry / drop / timeout /
    stale pipeline.  Under the empty policy this is :func:`run_scenario`,
    which delegates here.
    """
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    engine = PolicyEngine(
        base, scenario, policy, price_round, nominal_seconds=nominal_seconds
    )
    resolutions = tuple(engine.resolve(index) for index in range(num_rounds))
    round_seconds = tuple(resolution.seconds for resolution in resolutions)
    return RecoveredRun(
        scenario=scenario,
        policy=policy,
        round_seconds=round_seconds,
        resolutions=resolutions,
        metrics=engine.metrics(round_seconds),
        distinct_clusters=engine.distinct_clusters,
    )
