"""Round-trip fuzz over the three spec grammars.

Schemes, scenarios and recovery policies print themselves as spec strings,
and those strings key goldens, sweep memos and the advisor's cache.  For
each grammar, hypothesis builds objects programmatically -- with arbitrary
finite floats over each parameter's valid range -- and checks that

* the printed spec parses back to an equal object, and
* printing is a fixpoint: the parsed object prints the same spec.
"""

from __future__ import annotations

import enum

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compression.registry import make_scheme
from repro.compression.spec import available_families, get_family
from repro.simulator.recovery import (
    DropRule,
    RecoveryPolicy,
    RetryRule,
    StaleRule,
    TimeoutRule,
    parse_policy,
)
from repro.simulator.scenario import (
    Scenario,
    churn,
    domain_fail,
    join,
    leave,
    link_flap,
    nic_degrade,
    parse_scenario,
    slowdown,
    switch_memory_pressure,
)

#: Every finite float, and the positive ones.
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)
counts = st.integers(min_value=0, max_value=1 << 20)


# --------------------------------------------------------------------------- #
# Schemes: every registered family, drawn from its declared parameters
# --------------------------------------------------------------------------- #


def _param_values(param) -> st.SearchStrategy:
    if isinstance(param.kind, type) and issubclass(param.kind, enum.Enum):
        return st.sampled_from(list(param.kind))
    if param.kind is bool:
        return st.booleans()
    if param.kind is int:
        return st.integers(min_value=-2, max_value=64)
    return finite


@st.composite
def schemes(draw, wrappers: bool = True):
    names = [n for n in available_families() if wrappers or not get_family(n).wraps]
    family = get_family(draw(st.sampled_from(names)))
    kwargs = {
        param.constructor_keyword: draw(_param_values(param))
        for param in family.params
        if draw(st.booleans())
    }
    wrapped = (draw(schemes(wrappers=False)),) if family.wraps else ()
    try:
        return family.cls(*wrapped, **kwargs)
    except ValueError:
        assume(False)


def _scheme_identity(scheme) -> tuple:
    family = type(scheme)._spec_family
    values = [getattr(scheme, param.attribute) for param in family.params]
    if family.wraps:
        values.append(_scheme_identity(getattr(scheme, family.wrapped_attr)))
    return family.name, tuple(values)


# --------------------------------------------------------------------------- #
# Scenarios: every event type, with random windows
# --------------------------------------------------------------------------- #


@st.composite
def _window(draw) -> dict:
    start = draw(counts)
    until = draw(st.none() | st.integers(min_value=start + 1, max_value=start + (1 << 20)))
    return {"at_round": start, "until": until}


_EVENTS = [
    st.builds(lambda w, x, window: slowdown(w, x, **window), counts, positive, _window()),
    st.builds(lambda w, x, window: nic_degrade(w, x, **window), counts, positive, _window()),
    st.builds(lambda r, x, window: link_flap(r, x, **window), counts, positive, _window()),
    st.builds(lambda d, x, window: domain_fail(d, x, **window), counts, positive, _window()),
    st.builds(
        lambda x, window: switch_memory_pressure(x, **window),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        _window(),
    ),
    st.builds(lambda p, x, window: churn(p, x, **window), unit, positive, _window()),
    st.builds(lambda n, window: join(n, **window), st.integers(1, 64), _window()),
    st.builds(lambda n, window: leave(n, **window), st.integers(1, 64), _window()),
]

scenarios = st.builds(
    lambda events, seed: Scenario(events=tuple(events), seed=seed),
    st.lists(st.one_of(_EVENTS), max_size=4),
    counts,
)


# --------------------------------------------------------------------------- #
# Recovery policies: any subset of the four rule kinds
# --------------------------------------------------------------------------- #

_RULES = [
    st.builds(TimeoutRule, k=st.floats(min_value=1.0, allow_infinity=False)),
    st.builds(
        RetryRule,
        max_attempts=counts,
        backoff=st.floats(min_value=0.0, allow_infinity=False),
    ),
    st.builds(DropRule, max_workers=st.integers(min_value=1, max_value=1 << 20)),
    st.builds(StaleRule, max_stale=counts),
]

policies = st.builds(
    lambda rules: RecoveryPolicy(rules=tuple(rules)),
    st.lists(st.one_of(_RULES), max_size=4, unique_by=lambda rule: rule.kind),
)


GRAMMARS = {
    "scheme": (schemes(), lambda text, _: make_scheme(text), _scheme_identity),
    "scenario": (scenarios, lambda text, subject: parse_scenario(text, seed=subject.seed), None),
    "policy": (policies, lambda text, _: parse_policy(text), None),
}


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_spec_parses_back_to_an_equal_object_and_is_a_fixpoint(grammar, data):
    strategy, parse, identity = GRAMMARS[grammar]
    identity = identity or (lambda subject: subject)
    subject = data.draw(strategy)
    text = subject.spec()
    parsed = parse(text, subject)
    assert identity(parsed) == identity(subject)
    assert parsed.spec() == text
