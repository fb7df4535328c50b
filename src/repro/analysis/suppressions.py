"""Inline suppression comments: ``# reprolint: disable=RPL001``.

Two forms, both parsed from real comment tokens (string literals that merely
*look* like suppression comments never suppress anything):

* line suppressions -- ``# reprolint: disable=RPL001`` (or
  ``disable=RPL001,RPL003`` / ``disable=all``) at the end of the offending
  line suppresses those rules on that line only.  Anything after the rule
  list (conventionally a justification, e.g. ``- wall-clock latency
  histogram``) is ignored by the parser but expected by reviewers.
* file suppressions -- ``# reprolint: disable-file=RPL002`` anywhere in the
  file suppresses the rules for the whole file (for a module whose
  deliberate exceptions are the rule, not the exception).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Sentinel rule set meaning "every rule".
ALL = frozenset({"ALL"})

_COMMENT_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass
class SuppressionMap:
    """Parsed suppressions of one file."""

    #: line number -> rule codes suppressed on that line (or :data:`ALL`).
    lines: dict[int, frozenset[str]] = field(default_factory=dict)
    #: rule codes suppressed for the whole file (or :data:`ALL`).
    file_wide: frozenset[str] = frozenset()

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed at ``line``."""
        rule = rule.upper()
        if "ALL" in self.file_wide or rule in self.file_wide:
            return True
        at_line = self.lines.get(line)
        if at_line is None:
            return False
        return "ALL" in at_line or rule in at_line

    @property
    def count(self) -> int:
        """Number of suppression comments parsed (line + file-wide)."""
        return len(self.lines) + (1 if self.file_wide else 0)


def _parse_comment(text: str) -> tuple[str, frozenset[str]] | None:
    match = _COMMENT_RE.search(text)
    if match is None:
        return None
    rules = frozenset(part.strip().upper() for part in match.group("rules").split(","))
    return match.group("kind"), rules


def parse_suppressions(source: str) -> SuppressionMap:
    """Extract the suppression map from a file's source text.

    Uses :mod:`tokenize` so only genuine comments count; on a tokenize
    failure (the file will fail AST parsing anyway and be reported as a
    parse error) an empty map is returned.
    """
    result = SuppressionMap()
    file_wide: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            parsed = _parse_comment(token.string)
            if parsed is None:
                continue
            kind, rules = parsed
            if kind == "disable-file":
                file_wide.update(rules)
            else:
                line = token.start[0]
                existing = result.lines.get(line, frozenset())
                result.lines[line] = existing | rules
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return SuppressionMap()
    result.file_wide = frozenset(file_wide)
    return result
