"""Pieces shared by the repository's spec languages.

Scheme specs (``compression/spec.py``), scenario specs
(``simulator/scenario.py``) and recovery-policy specs
(``simulator/recovery.py``) all promise that a printed spec parses back to
an equal object.  Numbers are where that promise is easiest to break, so
they are printed in one place.
"""

from __future__ import annotations


def format_number(value: float) -> str:
    """Shortest spelling that parses back to exactly ``value``.

    ``%g`` keeps common specs tidy (``k=3``, not ``k=3.0``) but only carries
    six significant digits; when that would lose precision -- and break the
    round-trip contract -- fall back to the exact ``repr``.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)
