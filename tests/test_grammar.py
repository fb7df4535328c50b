"""Error contract of the spec grammars: which exception each bad input raises.

Scheme specs, scenario specs, recovery-policy specs and reprolint rule
codes share one error vocabulary: an unknown name is a ``KeyError`` with
close-match suggestions, malformed text is a ``ValueError`` with a caret
position, and arguments that do not fit a family are a ``ValueError``
naming the family.  The corpus below pins the exact class for each input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.registry import UnknownRuleError, resolve_rule_codes
from repro.compression.registry import make_scheme
from repro.compression.spec import SpecParamError, SpecSyntaxError, UnknownSchemeError
from repro.compression.topk import TopKCompressor
from repro.compression.topkc import TopKChunkedCompressor
from repro.simulator.recovery import (
    PolicyParamError,
    PolicySyntaxError,
    RetryRule,
    UnknownPolicyRuleError,
    parse_policy,
)
from repro.simulator.scenario import (
    ScenarioParamError,
    ScenarioSyntaxError,
    SlowdownEvent,
    UnknownEventError,
    join,
    parse_scenario,
    slowdown,
)

CORPUS = [
    # Scheme specs.
    (make_scheme, "topkx(b=2)", UnknownSchemeError),
    (make_scheme, "Topk(b=2)", UnknownSchemeError),
    (make_scheme, "topk(", SpecSyntaxError),
    (make_scheme, "topk(b=2", SpecSyntaxError),
    (make_scheme, "thc(q=4 rot=partial)", SpecSyntaxError),
    (make_scheme, "topk(b=2) extra", SpecSyntaxError),
    (make_scheme, "topk(b=2)!", SpecSyntaxError),
    (make_scheme, "topk(b=2,,)", SpecSyntaxError),
    (make_scheme, "topk(b=2)@5..9", SpecSyntaxError),
    (make_scheme, "topk(b=2) + thc(q=4)", SpecSyntaxError),
    (make_scheme, "", SpecSyntaxError),
    (make_scheme, "thc(q=4, rot=sideways)", SpecParamError),
    (make_scheme, "topk(b=2, b=4)", SpecParamError),
    (make_scheme, "topk(zz=1)", SpecParamError),
    (make_scheme, "topk(b=hello)", SpecParamError),
    (make_scheme, "ef()", SpecParamError),
    (make_scheme, "ef(decay=0.5)", SpecParamError),
    # Scenario specs.
    (parse_scenario, "slowdwn(w=1, x=2)", UnknownEventError),
    (parse_scenario, "Slowdown(w=1, x=2)", ScenarioSyntaxError),
    (parse_scenario, "slowdown(w=1,x=2)@", ScenarioSyntaxError),
    (parse_scenario, "slowdown(w=1, x=8)@5..5", ScenarioSyntaxError),
    (parse_scenario, "@5..9", ScenarioSyntaxError),
    (parse_scenario, "churn(p=0.1) +", ScenarioSyntaxError),
    (parse_scenario, "slowdown(w=1,,x=2)", ScenarioSyntaxError),
    (parse_scenario, "join(n=2", ScenarioSyntaxError),
    (parse_scenario, "slowdown(w=yes, x=2)", ScenarioSyntaxError),
    (parse_scenario, "churn(p=0.1) churn(p=0.2)", ScenarioSyntaxError),
    (parse_scenario, "   ", ScenarioSyntaxError),
    (parse_scenario, "slowdown(w=1, w=2, x=2)", ScenarioParamError),
    (parse_scenario, "slowdown(w=1.5, x=2)", ScenarioParamError),
    (parse_scenario, "slowdown(q=3)", ScenarioParamError),
    (parse_scenario, "slowdown(1, 2, 3)", ScenarioParamError),
    (parse_scenario, "churn", ScenarioParamError),
    (parse_scenario, "churn(p=2)", ScenarioParamError),
    # Recovery-policy specs.
    (parse_policy, "timout(k=3)", UnknownPolicyRuleError),
    (parse_policy, "Timeout(k=3)", PolicySyntaxError),
    (parse_policy, "timeout(k=3)@5..10", PolicySyntaxError),
    (parse_policy, "timeout(k=3) +", PolicySyntaxError),
    (parse_policy, "+ timeout(k=3)", PolicySyntaxError),
    (parse_policy, "timeout(k=3,,)", PolicySyntaxError),
    (parse_policy, "timeout(k=3", PolicySyntaxError),
    (parse_policy, "timeout(k=oops)", PolicySyntaxError),
    (parse_policy, "timeout(k=1, k=2)", PolicyParamError),
    (parse_policy, "timeout(1, 2)", PolicyParamError),
    (parse_policy, "timeout(k=0.5)", PolicyParamError),
    (parse_policy, "timeout(k=2) + timeout(k=3)", PolicyParamError),
    # Reprolint rule codes.
    (resolve_rule_codes, ["RPL00"], UnknownRuleError),
    (resolve_rule_codes, ["nope"], UnknownRuleError),
]

#: Literals that overflow a float.  They used to parse to ``inf`` and print
#: ``x=inf``, which does not parse back; now they are syntax errors.
NON_FINITE = [
    (parse_scenario, "slowdown(w=1, x=1e999)", ScenarioSyntaxError),
    (parse_scenario, "churn(p=0.1, x=1e999)", ScenarioSyntaxError),
    (parse_policy, "timeout(k=1e999)", PolicySyntaxError),
    (parse_policy, "retry(max=2, backoff=1e999)", PolicySyntaxError),
    (make_scheme, "topkc(b=1e999)", SpecSyntaxError),
]

#: Scheme constructor rejections.  They used to escape as a bare
#: ``ValueError`` without the family's name; now they are typed like the
#: scenario and policy families' (``SpecParamError`` is a ``ValueError``;
#: tests/compression/test_spec.py pins the messages).
CONSTRUCTOR_ERRORS = [
    (make_scheme, "topk(b=-1)", SpecParamError),
    (make_scheme, "thc(q=0)", SpecParamError),
    (make_scheme, "powersgd(r=0)", SpecParamError),
    (make_scheme, "ef(topk(b=2), decay=2)", SpecParamError),
    # ``c=0`` used to read as "unset" and silently priced the default C = 64.
    (make_scheme, "topkc(b=2, c=0)", SpecParamError),
]

#: An argument list left open.  The old regex matcher skipped it and built
#: the event without arguments, so this raised ScenarioParamError ("missing
#: required parameter 'w'"); the parser now reports the unclosed list.
UNCLOSED_ARGUMENTS = [
    (parse_scenario, "slowdown(w=1, x=2", ScenarioSyntaxError),
]

#: An integer literal too large for a float parameter.  It used to escape
#: as an OverflowError from the float conversion; now the parameter rejects
#: it like any other value of the wrong type.
HUGE_INTEGERS = [
    (parse_scenario, "slowdown(w=1, x=1" + "0" * 400 + ")", ScenarioParamError),
    (make_scheme, "topk(b=1" + "0" * 400 + ")", SpecParamError),
]

ALL_CASES = CORPUS + NON_FINITE + CONSTRUCTOR_ERRORS + UNCLOSED_ARGUMENTS + HUGE_INTEGERS

SYNTAX_ERRORS = (SpecSyntaxError, ScenarioSyntaxError, PolicySyntaxError)


def _case_id(case) -> str:
    parse, text, _ = case
    return f"{parse.__name__}:{str(text)[:40]!r}"


@pytest.mark.parametrize(
    "parse, text, expected", ALL_CASES, ids=[_case_id(c) for c in ALL_CASES]
)
def test_malformed_input_raises_exactly(parse, text, expected):
    with pytest.raises(Exception) as excinfo:
        parse(text)
    assert type(excinfo.value) is expected
    if expected in SYNTAX_ERRORS:
        assert 0 <= excinfo.value.position <= len(text)


@pytest.mark.parametrize("parse, text, expected", NON_FINITE, ids=[_case_id(c) for c in NON_FINITE])
def test_non_finite_literal_is_pointed_at(parse, text, expected):
    with pytest.raises(expected) as excinfo:
        parse(text)
    assert excinfo.value.position == text.index("1e999")
    assert "1e999" in excinfo.value.reason


def test_negative_zero_prints_as_a_fixpoint():
    scheme = make_scheme("ef(baseline(p=fp16), decay=0)")
    scheme.decay = -0.0
    assert scheme.spec() == "ef(baseline(p=fp16), decay=0)"
    assert make_scheme(scheme.spec()).spec() == scheme.spec()


#: Objects built in Python, and what each must do: raise ``ValueError``
#: where no spec string could spell the object, or print this spec.  The
#: constructors used to accept all of them, and the rejected ones printed
#: specs that do not parse back (``join(n=true)``, ``retry(max=2.5, ...)``)
#: or that spell another value (``topk(b=1)`` for ``b=True``).
PYTHON_BUILT = [
    ("join(True)", lambda: join(True), ValueError),
    ("RetryRule(max_attempts=2.5)", lambda: RetryRule(max_attempts=2.5), ValueError),
    ("SlowdownEvent(worker=1.5)", lambda: SlowdownEvent(worker=1.5, factor=2), ValueError),
    ("topkc(c=2.5)", lambda: TopKChunkedCompressor(2.0, chunk_size=2.5), ValueError),
    ("topkc(c=0)", lambda: TopKChunkedCompressor(2.0, chunk_size=0), ValueError),
    ("slowdown(1)", lambda: slowdown(1), ValueError),
    ("slowdown(np.int64)", lambda: slowdown(np.int64(2), 3.0), "slowdown(w=2, x=3)"),
    ("topk(b=True)", lambda: TopKCompressor(True), ValueError),
    ("topkc(b=True)", lambda: TopKChunkedCompressor(True), ValueError),
    ("slowdown(x=inf)", lambda: slowdown(1, float("inf")), "slowdown(w=1, x=inf)"),
]


@pytest.mark.parametrize(
    "build, expected", [case[1:] for case in PYTHON_BUILT], ids=[case[0] for case in PYTHON_BUILT]
)
def test_python_built_objects_print_specs_that_parse_back(build, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            build()
        return
    built = build()
    assert built.spec() == expected
    assert parse_scenario(expected).events == (built,)
