"""The reprolint rule registry.

Every rule is a small module under :mod:`repro.analysis.rules` that
registers itself with the :func:`rule` decorator, mirroring the scheme
registry in :mod:`repro.compression.spec`: a decorator, a module-level
table, and an unknown-name error with close-match suggestions
(:class:`UnknownRuleError` matches the ``UnknownSchemeError`` UX exactly,
down to the ``did you mean`` phrasing).

A rule class needs:

* a ``check(tree, ctx)`` method yielding :class:`~repro.analysis.findings.Finding`
  objects (``ctx`` is a :class:`~repro.analysis.engine.FileContext`);
* registration metadata: its code (``RPL001``), a short name, the invariant
  it protects, and the default path scope it applies to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.grammar import UnknownNameError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    import ast

    from repro.analysis.engine import FileContext
    from repro.analysis.findings import Finding


class UnknownRuleError(UnknownNameError):
    """An unknown rule code, with close-match suggestions.

    Subclasses :class:`KeyError` so ``except KeyError`` handlers keep
    working -- the same contract as
    :class:`repro.compression.spec.UnknownSchemeError`.
    """

    what = "reprolint rule"

    @staticmethod
    def _comparable(name: str) -> str:
        return name.upper()


@dataclass
class Rule:
    """Registration metadata plus the checker instance for one rule code."""

    code: str
    name: str
    invariant: str
    default_paths: tuple[str, ...]
    checker: object
    default_options: dict = field(default_factory=dict)

    def check(self, tree: "ast.AST", ctx: "FileContext") -> "Iterator[Finding]":
        return self.checker.check(tree, ctx)


_RULES: dict[str, Rule] = {}


def rule(
    code: str,
    *,
    name: str,
    invariant: str,
    default_paths: tuple[str, ...] | list[str] = (),
    default_options: dict | None = None,
):
    """Class decorator registering a rule checker under ``code``.

    Usage::

        @rule("RPL001", name="determinism", invariant="...", default_paths=[...])
        class Determinism:
            def check(self, tree, ctx): ...
    """
    code = code.upper()

    def decorate(cls: type) -> type:
        if code in _RULES:
            raise ValueError(f"reprolint rule {code!r} is already registered")
        _RULES[code] = Rule(
            code=code,
            name=name,
            invariant=invariant,
            default_paths=tuple(default_paths),
            checker=cls(),
            default_options=dict(default_options or {}),
        )
        cls.code = code
        return cls

    return decorate


def _ensure_loaded() -> None:
    # Importing the rules package populates the table; deferred so that
    # `import repro.analysis.registry` alone never costs a full rule load.
    if not _RULES:
        from repro.analysis import rules  # noqa: F401  (import side effect)


def available_rules() -> list[str]:
    """Registered rule codes, sorted."""
    _ensure_loaded()
    return sorted(_RULES)


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _ensure_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


def get_rule(code: str) -> Rule:
    """Look a rule up by code (case-insensitive).

    Raises:
        UnknownRuleError: If no rule with that code exists (with
            suggestions, matching the ``UnknownSchemeError`` UX).
    """
    _ensure_loaded()
    found = _RULES.get(code.upper())
    if found is None:
        raise UnknownRuleError(code, _RULES)
    return found


def resolve_rule_codes(names: Iterable[str]) -> list[str]:
    """Normalize a list of rule codes, erroring on unknown ones."""
    return [get_rule(name).code for name in names]
