"""Round-trip fuzz over the three spec grammars, drawn from the declared domains.

Schemes, scenarios and recovery policies print themselves as spec strings,
and those strings key goldens, sweep memos and the advisor's cache.  For
every registered family of each grammar, hypothesis builds objects
programmatically -- each parameter drawn from its :class:`~repro.grammar.Param`
kind and domain, infinity included where a domain's end admits it -- and
checks that

* the printed spec parses back to an equal object, and
* printing is a fixpoint: the parsed object prints the same spec.

The domains are also probed from outside: the nearest value past each
finite end of an interval (and NaN) is rejected by the spec string and by
the Python constructor alike, with one message.
"""

from __future__ import annotations

import enum
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compression.registry import make_scheme
from repro.compression.spec import _DIALECT as SCHEMES
from repro.grammar import REQUIRED, Interval, render_value
from repro.simulator.recovery import _RULES as RULES
from repro.simulator.recovery import RecoveryPolicy, parse_policy
from repro.simulator.scenario import _EVENTS as EVENTS
from repro.simulator.scenario import Scenario, parse_scenario

#: Families whose parameters constrain each other (``wire_bits >=
#: quantization_bits``); no single domain states that, so draws that break
#: it are skipped.
CROSS_FIELD = {"thc", "qsgd"}

#: Integer draws past a lower bound stay within this span.
INT_SPAN = 1 << 20


def _families(dialect) -> list:
    """The dialect's families, once each (aliases dropped), by name."""
    unique = {family.name: family for family in dialect.families.values()}
    return [unique[name] for name in sorted(unique)]


def _param_values(param) -> st.SearchStrategy:
    """Every value of the parameter's kind inside its domain."""
    domain, kind = param.domain, param.kind
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return st.sampled_from(list(kind))
    if kind is bool:
        return st.booleans()
    if domain is None:
        domain = Interval(-2, 64) if kind is int else Interval()
    if kind is int:
        # Integer domains here have integral, closed or open, finite lower ends.
        low = int(domain.low) + domain.low_open
        high = low + INT_SPAN if math.isinf(domain.high) else int(domain.high) - domain.high_open
        return st.integers(low, high)
    # Infinity is drawn where the domain has a closed infinite end.
    return st.floats(
        min_value=domain.low,
        max_value=domain.high,
        exclude_min=domain.low_open,
        exclude_max=domain.high_open,
        allow_nan=False,
    )


@st.composite
def _built(draw, family, **extra):
    """An instance of ``family``: required parameters always, the rest maybe."""
    kwargs = {
        param.constructor_keyword: draw(_param_values(param))
        for param in family.params
        if param.default is REQUIRED or draw(st.booleans())
    }
    wrapped = (draw(schemes(wrappers=False)),) if family.wraps else ()
    try:
        return family.cls(*wrapped, **kwargs, **extra)
    except ValueError:
        if family.name not in CROSS_FIELD:
            raise
        assume(False)


# --------------------------------------------------------------------------- #
# Schemes: every registered family
# --------------------------------------------------------------------------- #


@st.composite
def schemes(draw, wrappers: bool = True):
    families = [family for family in _families(SCHEMES) if wrappers or not family.wraps]
    return draw(_built(draw(st.sampled_from(families))))


def _scheme_identity(scheme) -> tuple:
    family = type(scheme)._spec_family
    values = [getattr(scheme, param.attribute) for param in family.params]
    if family.wraps:
        values.append(_scheme_identity(getattr(scheme, family.wrapped_attr)))
    return family.name, tuple(values)


# --------------------------------------------------------------------------- #
# Scenarios: every event family, with random windows
# --------------------------------------------------------------------------- #


@st.composite
def _event(draw):
    start = draw(st.integers(0, INT_SPAN))
    until = draw(st.none() | st.integers(min_value=start + 1, max_value=start + INT_SPAN))
    family = draw(st.sampled_from(_families(EVENTS)))
    return draw(_built(family, start_round=start, until_round=until))


scenarios = st.builds(
    lambda events, seed: Scenario(events=tuple(events), seed=seed),
    st.lists(_event(), max_size=4),
    st.integers(0, INT_SPAN),
)


# --------------------------------------------------------------------------- #
# Recovery policies: any subset of the rule families
# --------------------------------------------------------------------------- #

policies = st.builds(
    lambda rules: RecoveryPolicy(rules=tuple(rules)),
    st.lists(
        st.sampled_from(_families(RULES)).flatmap(_built),
        max_size=len(_families(RULES)),
        unique_by=lambda rule: rule.kind,
    ),
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


# --------------------------------------------------------------------------- #
# Just outside each domain: both paths reject, with one message
# --------------------------------------------------------------------------- #

PARSERS = {"scheme": make_scheme, "scenario": parse_scenario, "policy": parse_policy}

#: The scheme a wrapper family wraps when probed.
INNER = "topk(b=2)"


def _inside(param) -> object:
    """One value inside the parameter's domain (for required neighbours)."""
    domain = param.domain
    if isinstance(domain, tuple):
        return domain[0]
    low = domain.low if not domain.low_open else domain.low + 1
    return param.kind(low)


def _outside(param) -> list[object]:
    """The nearest value past each finite end of the parameter's interval."""
    domain = param.domain
    values = []
    for end, is_open, direction in (
        (domain.low, domain.low_open, -math.inf),
        (domain.high, domain.high_open, math.inf),
    ):
        if math.isinf(end):
            continue
        if param.kind is int:
            values.append(int(end) if is_open else int(end) + (1 if direction > 0 else -1))
        else:
            values.append(float(end) if is_open else math.nextafter(end, direction))
    if param.kind is float:
        values.append(math.nan)
    return values


def _probes():
    for grammar, dialect in (("scheme", SCHEMES), ("scenario", EVENTS), ("policy", RULES)):
        for family in _families(dialect):
            for param in family.params:
                if isinstance(param.domain, Interval):
                    for value in _outside(param):
                        name = f"{family.name}-{param.name}={render_value(value)}"
                        yield pytest.param(grammar, family, param, value, id=name)


@pytest.mark.parametrize("grammar, family, param, value", list(_probes()))
def test_values_just_outside_a_domain_fail_alike(grammar, family, param, value):
    arguments = {
        other: _inside(other)
        for other in family.params
        if other.default is REQUIRED and other is not param
    }
    arguments[param] = value
    wrapped = (make_scheme(INNER),) if family.wraps else ()
    with pytest.raises(ValueError) as from_python:
        family.cls(*wrapped, **{p.constructor_keyword: v for p, v in arguments.items()})
    assert str(from_python.value) == f"{param.attribute} must be {param.domain.label()}"

    rendered = [f"{p.name}={render_value(v)}" for p, v in arguments.items()]
    text = f"{family.name}({', '.join([INNER, *rendered] if family.wraps else rendered)})"
    with pytest.raises(ValueError) as from_spec:
        PARSERS[grammar](text)
    if not math.isnan(value):  # no spec literal spells NaN
        assert str(from_spec.value) == f"{family.name}: {from_python.value}"
