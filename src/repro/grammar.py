"""The spec language shared by schemes, scenarios and recovery policies.

Every configurable decision in this repository is a spec string:

* a scheme (``compression/spec.py``): ``thc(q=4, rot=sat)``, ``ef(topk(b=2))``;
* a fault scenario (``simulator/scenario.py``): ``slowdown(w=1, x=4)@5..15``;
* a recovery policy (``simulator/recovery.py``): ``timeout(k=3) + drop(1)``.

They are one grammar in three dialects (whitespace-insensitive)::

    term     := NAME [ "(" [ arg ("," arg)* ] ")" ]
    arg      := NAME "=" value | value
    value    := NUMBER | BOOL | NAME | term     # schemes; the others take NUMBER only
    scheme   := term
    scenario := "static" | event ("+" event)*  # event := term [ "@" START [".." UNTIL] ]
    policy   := "" | "none" | term ("+" term)*

NUMBER is a decimal literal that fits a float, or ``inf`` (signed or not),
which is how a domain's infinite end prints; scenario and policy names are
lowercase identifiers.

This module holds the tokenizer and parser, the typed parameter binder
(:class:`Param` / :class:`SchemeFamily`), the canonical printer and the base
error classes.  Each spec module declares a :class:`Dialect` with its own
error subclasses and registers its families into it.

A :class:`Param` states a parameter once: name, kind and domain (an
:class:`Interval` or a tuple of values).  Registered classes call the one
check, :meth:`SchemeFamily.check`, from their constructors, so spec strings
and Python callers accept the same values; :meth:`Dialect.constructor`
binds Python arguments like a spec term.

Printed specs are a protocol -- they key goldens, sweep memos and the
advisor's cache -- so every printed spec parses back to an equal object.
"""

from __future__ import annotations

import difflib
import enum
import math
import numbers
import re
import string
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator


def format_number(value: float) -> str:
    """Shortest spelling that parses back to exactly ``value``.

    ``%g`` keeps common specs tidy (``k=3``, not ``k=3.0``) but only carries
    six significant digits; when that would lose precision -- and break the
    round-trip contract -- fall back to the exact ``repr``.  Negative zero
    prints as ``0``: ``-0`` would parse back as the integer 0.
    """
    if value == 0:
        value = 0.0
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def render_value(value: object) -> str:
    """Format a literal (or enum member) in spec-string syntax."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #


class UnknownNameError(KeyError):
    """An unknown family name, with close-match suggestions.

    Subclasses :class:`KeyError` so ``except KeyError`` handlers keep
    working.  Subclasses set :attr:`what` to name what was looked up.
    """

    what = "name"

    def __init__(self, name: str, known: Iterable[str]):
        self.name = name
        self.known = sorted(known)
        self.suggestions = difflib.get_close_matches(
            self._comparable(name), self.known, n=3, cutoff=0.5
        )
        message = f"unknown {self.what} {name!r}"
        if self.suggestions:
            message += f"; did you mean: {', '.join(self.suggestions)}?"
        message += f" (known: {', '.join(self.known)})"
        super().__init__(message)

    @staticmethod
    def _comparable(name: str) -> str:
        """The spelling matched against the known names."""
        return name

    def __str__(self) -> str:  # KeyError.__str__ shows the repr of args[0]
        return self.args[0]


class GrammarSyntaxError(ValueError):
    """Spec text that does not conform to the grammar, with a caret pointer."""

    what = "spec"

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        pointer = " " * position + "^"
        super().__init__(f"invalid {self.what}: {reason}\n  {text}\n  {pointer}")


class GrammarParamError(ValueError):
    """A well-formed spec whose arguments do not fit the family's parameters."""


# --------------------------------------------------------------------------- #
# Parameters and families
# --------------------------------------------------------------------------- #


class _Marker:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


#: Default marker for parameters that the canonical spec always spells out
#: (their constructor resolves a value even when the spec omits them).
ALWAYS = _Marker("ALWAYS")

#: Default marker for parameters a spec must give (always spelled out too).
REQUIRED = _Marker("REQUIRED")


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` to ``high``, each end open or closed (NaN is outside)."""

    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False

    def __contains__(self, value: object) -> bool:
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def bound(self) -> str:
        """The interval in symbols: ``>= 2``, ``> 0``, ``in (0, 1]``."""
        low, high = format_number(self.low), format_number(self.high)
        if self.high == math.inf and not self.high_open:
            return f"{'>' if self.low_open else '>='} {low}"
        return f"in {'(' if self.low_open else '['}{low}, {high}{')' if self.high_open else ']'}"

    def label(self) -> str:
        return "positive" if self == POSITIVE else self.bound()


POSITIVE = Interval(0, low_open=True)
NON_NEGATIVE = Interval(0)
UNIT = Interval(0, 1)

_KIND_NAMES = {int: "an integer", float: "a number", bool: "a bool", str: "a string"}
#: The values a number kind takes (the builtins first: they are the fast checks).
_NUMBERS = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}


@dataclass(frozen=True, eq=False)  # identity: each parameter is declared once
class Param:
    """One typed, introspectable parameter of a family.

    Attributes:
        name: The key used in spec strings (short, e.g. ``q``).
        kind: ``int``, ``float``, ``bool``, ``str``, or an :class:`enum.Enum`
            subclass; parsed values are coerced to this type.
        kwarg: Constructor keyword the value is passed as (defaults to
            ``name``).
        attr: Instance attribute read back when formatting a canonical spec
            (defaults to ``kwarg``).
        default: Spec-level default.  When the instance attribute equals this
            value the canonical spec omits the parameter; :data:`ALWAYS`
            means the parameter is always rendered, :data:`REQUIRED` that
            it is always rendered and a spec must give it.
        doc: One-line description (and why the domain is what it is).
        aliases: Other keys a spec may spell the parameter with.
        domain: The admitted values of the kind: an :class:`Interval`, a
            tuple of values, or ``None`` for all.
    """

    name: str
    kind: type
    kwarg: str | None = None
    attr: str | None = None
    default: object = ALWAYS
    doc: str = ""
    aliases: tuple[str, ...] = ()
    domain: Interval | tuple | None = None

    @property
    def constructor_keyword(self) -> str:
        return self.kwarg if self.kwarg is not None else self.name

    @property
    def attribute(self) -> str:
        return self.attr if self.attr is not None else self.constructor_keyword

    @property
    def has_default(self) -> bool:
        return self.default is not ALWAYS and self.default is not REQUIRED

    def coerce(
        self, value: object, family: str, error: type[GrammarParamError] = GrammarParamError
    ) -> object:
        """Coerce a parsed literal or Python argument (numpy scalars too) onto the type."""
        numeric = _NUMBERS.get(self.kind)
        if numeric and isinstance(value, numeric) and not isinstance(value, bool):
            try:
                return self.kind(value)
            except OverflowError:  # an integer literal beyond the float range
                pass
        if self.kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
        if isinstance(self.kind, type) and issubclass(self.kind, enum.Enum):
            return self._coerce_enum(value, family, error)
        if isinstance(value, self.kind) and not isinstance(value, bool):
            return value
        raise error(
            f"{family}: parameter {self.name!r} expects {self._kind_label()}, "
            f"got {value!r}"
        )

    def _coerce_enum(self, value: object, family: str, error: type[GrammarParamError]) -> object:
        members: list[enum.Enum] = list(self.kind)
        if isinstance(value, self.kind):
            return value
        text = str(value).lower()
        for member in members:
            if text in (str(member.value).lower(), member.name.lower()):
                return member
        prefix_matches = [m for m in members if str(m.value).lower().startswith(text)]
        if len(prefix_matches) == 1:
            return prefix_matches[0]
        choices = ", ".join(str(m.value) for m in members)
        message = (
            f"{family}: parameter {self.name!r} expects one of [{choices}], got {value!r}"
        )
        suggestions = difflib.get_close_matches(
            text, [str(m.value).lower() for m in members], n=1, cutoff=0.5
        )
        if suggestions:
            message += f"; did you mean {suggestions[0]!r}?"
        raise error(message)

    def render(self, value: object) -> str:
        """Format a coerced value back into spec-string syntax."""
        return render_value(value)

    def _kind_label(self) -> str:
        if isinstance(self.kind, type) and issubclass(self.kind, enum.Enum):
            return _set_label(self.kind)
        return self.kind.__name__

    def violation(self, value: object) -> str | None:
        """What ``value`` must be and is not (``None`` if it fits); never a bool for numbers."""
        kind, domain = self.kind, self.domain
        if kind in _NUMBERS:
            if isinstance(value, bool) or not isinstance(value, _NUMBERS[kind]):
                return _KIND_NAMES[kind]
        elif not isinstance(value, kind):
            return _KIND_NAMES.get(kind, f"one of {self._kind_label()}")
        if domain is None or value in domain:
            return None
        return domain.label() if isinstance(domain, Interval) else f"one of {_set_label(domain)}"

    def signature_fragment(self) -> str:
        """``name: kind [domain] [= default]``, e.g. ``q: int >= 2``."""
        domain = self.domain
        if domain is None or isinstance(domain, Interval):
            fragment = f"{self.name}: {self._kind_label()}"
            fragment += f" {domain.bound()}" if domain else ""
        else:
            fragment = f"{self.name}: {_set_label(domain)}"
        if self.has_default:
            fragment += f" = {self.render(self.default)}"
        return fragment


def _set_label(values: Iterable[object]) -> str:
    return "{" + ",".join(render_value(value) for value in values) + "}"


@dataclass(frozen=True)
class SchemeFamily:
    """A registered family: a class plus its spec-language surface.

    Scheme families, scenario event families and recovery rule families
    are all instances of this class.

    Attributes:
        name: The family name used in spec strings (``topkc``, ``churn``...).
        cls: The class this family builds.
        params: Declared parameters, in canonical rendering order.
        wraps: Whether the family wraps another scheme (error feedback); the
            wrapped scheme is the spec's first positional argument.
        wrapped_attr: Instance attribute holding the wrapped scheme.
        description: One-line description for listings.
        aliases: Other names a spec may spell the family with.
        param_error: The error raised when arguments do not fit.
    """

    name: str
    cls: type
    params: tuple[Param, ...] = ()
    wraps: bool = False
    wrapped_attr: str = "scheme"
    description: str = ""
    aliases: tuple[str, ...] = ()
    param_error: type[GrammarParamError] = GrammarParamError

    def __post_init__(self) -> None:
        by_key: dict[str, Param] = {}
        for param in self.params:
            for key in (param.name, *param.aliases):
                if key in by_key:
                    raise ValueError(f"family {self.name!r} declares {key!r} twice")
                by_key[key] = param
        object.__setattr__(self, "_by_key", by_key)
        object.__setattr__(self, "_required", [p for p in self.params if p.default is REQUIRED])

    def param_named(self, name: str) -> Param:
        param = self._by_key.get(name)
        if param is not None:
            return param
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise self.param_error(
            f"{self.name}: unknown parameter {name!r}; valid parameters: {valid}"
        )

    def bind(self, args: tuple[tuple[str | None, object], ...]) -> tuple[object | None, dict[Param, object]]:
        """Match parsed arguments to parameters.

        Returns the (unbuilt) inner-spec argument for wrapper families and a
        mapping of parameter -> raw value for the rest.  Positional arguments
        bind in declaration order (after the wrapped scheme, if any).
        """
        inner: object | None = None
        bound: dict[Param, object] = {}
        positional_cursor = 0
        for key, value in args:
            if key is None:
                if self.wraps and inner is None and isinstance(value, (ParsedSpec, str)):
                    inner = value
                    continue
                if positional_cursor >= len(self.params):
                    raise self.param_error(
                        f"{self.name}: too many positional arguments "
                        f"(takes {len(self.params)})"
                    )
                param = self.params[positional_cursor]
                positional_cursor += 1
            else:
                param = self.param_named(key)
            if param in bound:
                raise self.param_error(f"{self.name}: parameter {param.name!r} given twice")
            bound[param] = value
        if self.wraps and inner is None:
            raise self.param_error(
                f"{self.name}: wrapper families need an inner scheme, "
                f"e.g. {self.name}(topk(b=2))"
            )
        return inner, bound

    def build(
        self,
        args: tuple[tuple[str | None, object], ...],
        build_inner: Callable[[object], object] | None = None,
        **extra: object,
    ):
        """Instantiate the family from parsed arguments.

        ``extra`` keywords go to the constructor as they are (a scenario
        event's round window).  A ``ValueError`` from the constructor is
        re-raised as the family's parameter error, naming the family.
        """
        inner, bound = self.bind(args)
        kwargs = {
            param.constructor_keyword: param.coerce(value, self.name, self.param_error)
            for param, value in bound.items()
        }
        for param in self._required:
            if param not in bound:
                raise self.param_error(
                    f"{self.name}: missing required parameter {param.name!r}"
                )
        wrapped = (build_inner(inner),) if self.wraps else ()
        try:
            return self.cls(*wrapped, **kwargs, **extra)
        except ValueError as error:
            raise self.param_error(f"{self.name}: {error}") from None

    def check(self, instance: object) -> None:
        """The one range check: raise unless each parameter fits its kind and domain."""
        for param in self.params:
            label = param.violation(getattr(instance, param.attribute))
            if label is not None:
                raise ValueError(f"{param.attribute} must be {label}")

    def format_instance(self, instance: object) -> str:
        """The canonical spec string of a live instance (round-trippable)."""
        parts: list[str] = []
        if self.wraps:
            wrapped = getattr(instance, self.wrapped_attr)
            parts.append(wrapped.spec())
        for param in self.params:
            value = getattr(instance, param.attribute)
            if value == param.default and param.has_default:
                continue
            parts.append(f"{param.name}={param.render(value)}")
        if not parts:
            return self.name
        return f"{self.name}({', '.join(parts)})"

    def signature(self) -> str:
        """Human-readable signature, e.g. ``thc(q: int >= 2, b: int, rot: {...})``."""
        fragments = ["<scheme>"] if self.wraps else []
        fragments.extend(param.signature_fragment() for param in self.params)
        return f"{self.name}({', '.join(fragments)})"


@dataclass(frozen=True)
class Dialect:
    """One spec language: what it allows beyond a bare term, and its families.

    Attributes:
        syntax_error / param_error / unknown_error: The language's error
            classes.
        nested: Values may be bools, names and nested terms, and the text
            is one term (schemes); otherwise values are numbers only and
            terms join with ``+``.
        windows: Terms may carry an ``@START[..UNTIL]`` round window.
        window_hint: Why ``@`` is rejected when ``windows`` is off.
        term_name / terms: How messages name a term ("an event name") and
            several of them ("events").
        families: Registered families by name and alias.
    """

    syntax_error: type[GrammarSyntaxError]
    param_error: type[GrammarParamError]
    unknown_error: type[UnknownNameError]
    nested: bool = False
    windows: bool = False
    window_hint: str = ""
    term_name: str = ""
    terms: str = ""
    families: dict[str, SchemeFamily] = field(default_factory=dict, repr=False, compare=False)

    def register(
        self, name: str, cls: type, params: Iterable[Param] = (), **options
    ) -> SchemeFamily:
        """Add a family (under its name and aliases) and bind it to ``cls``.

        Raises:
            ValueError: If the name is malformed or already registered.
        """
        if not _NAME_RE.fullmatch(name):
            raise ValueError(
                f"family name {name!r} must be a lowercase identifier ([a-z_][a-z0-9_]*)"
            )
        if name in self.families:
            raise ValueError(f"family {name!r} is already registered")
        if not options.get("description"):
            doc_lines = (cls.__doc__ or "").strip().splitlines()
            options["description"] = doc_lines[0] if doc_lines else ""
        family = SchemeFamily(name, cls, tuple(params), param_error=self.param_error, **options)
        for key in (name, *family.aliases):
            self.families[key] = family
        cls._spec_family = family
        return family

    def constructor(self, name: str, **renames: str) -> Callable[..., object]:
        """A Python constructor building like the spec term (``renames``: extra keywords)."""
        family = self.families[name]

        def construct(*args: object, **kwargs: object) -> object:
            extra = {renames[key]: kwargs.pop(key) for key in list(kwargs) if key in renames}
            bound = tuple((None, value) for value in args) + tuple(kwargs.items())
            return family.build(bound, **extra)

        construct.__name__ = construct.__qualname__ = name
        construct.__doc__ = f"``{family.signature()}``: {family.description}"
        return construct

    def names(self) -> list[str]:
        """Canonical family names, sorted."""
        return sorted({family.name for family in self.families.values()})


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParsedSpec:
    """The AST of one scheme spec: a family name plus (key, value) arguments.

    Values are Python literals (``int``, ``float``, ``bool``, ``str``) or
    nested :class:`ParsedSpec` nodes for wrapper composition.
    """

    family: str
    args: tuple[tuple[str | None, object], ...] = ()

    def format(self) -> str:
        """Format the tree back into spec syntax (not necessarily canonical)."""
        if not self.args:
            return self.family
        rendered = []
        for key, value in self.args:
            text = value.format() if isinstance(value, ParsedSpec) else render_value(value)
            rendered.append(text if key is None else f"{key}={text}")
        return f"{self.family}({', '.join(rendered)})"


#: One token per match: a number, a name, ``..``, or any other single
#: non-space character (punctuation, or a stray character that the parser
#: reports as unexpected when it reaches it, so errors surface in reading
#: order).
_TOKEN_RE = re.compile(
    r"""
    \s*(
        # A dot right after the digits starts a '..' window, not a fraction.
        [+-]?(?:[0-9]+\.(?!\.)[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?
        # Infinity as format_number prints it, not the start of a longer name.
      | [+-]?inf(?![A-Za-z0-9_.])
        # Dots are allowed after the first character so legacy alias names
        # such as "topk_b0.5" stay one token and compose inside wrappers.
      | [A-Za-z_][A-Za-z0-9_.]*
      | \.\.
      | \S
    )
    """,
    re.VERBOSE,
)

_NAME_START = frozenset(string.ascii_letters + "_")
_PUNCTUATION = frozenset(("(", ")", ",", "=", "+", "@", ".."))

#: Family names -- and so scenario and policy terms -- are lowercase identifiers.
_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*")

_BOOL_LITERALS = {"true": True, "false": False}


def _is_number(token: str) -> bool:
    # Numbers start with a digit, or with a sign or dot that is not a whole
    # token ("+" joins terms, ".." spans a window); or they are infinity.
    return (
        token[:1].isdigit()
        or (len(token) > 1 and token[0] in "+-." and token != "..")
        or token == "inf"
    )


class _Parser:
    """Recursive-descent parser over the token strings of one spec."""

    def __init__(self, text: str, dialect: Dialect):
        self.text = text
        self.dialect = dialect
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")  # end of input
        self.index = 0

    def fail(self, reason: str, index: int | None = None) -> GrammarSyntaxError:
        """A syntax error at token ``index`` (default: the current token)."""
        index = self.index if index is None else index
        token = self.tokens[index]
        if token and token[0] not in _NAME_START and token not in _PUNCTUATION:
            if not _is_number(token):
                reason = f"unexpected character {token!r}"
        starts = [match.start(1) for match in _TOKEN_RE.finditer(self.text)]
        position = starts[index] if index < len(starts) else len(self.text)
        return self.dialect.syntax_error(self.text, position, reason)

    def got(self) -> str:
        return repr(self.tokens[self.index] or "end of input")

    def tree(self) -> ParsedSpec:
        """One scheme spec, nested specs included."""
        name = self.tokens[self.index]
        if name[:1] not in _NAME_START:
            raise self.fail(f"expected 'name', got {self.got()}")
        self.index += 1
        return ParsedSpec(name, self.arguments())

    def arguments(self) -> tuple[tuple[str | None, object], ...]:
        tokens = self.tokens
        if tokens[self.index] != "(":
            return ()
        self.index += 1
        args: list[tuple[str | None, object]] = []
        if tokens[self.index] != ")":
            while True:
                key = tokens[self.index]
                if key[:1] in _NAME_START and tokens[self.index + 1] == "=":
                    self.index += 2
                else:
                    key = None
                args.append((key, self.value()))
                if tokens[self.index] == ")":
                    break
                if tokens[self.index] != ",":
                    raise self.fail(f"expected ',' or ')', got {self.got()}")
                self.index += 1
        self.index += 1
        return tuple(args)

    def value(self) -> object:
        token = self.tokens[self.index]
        if _is_number(token):
            self.index += 1
            if token.lstrip("+-").isdecimal():
                try:
                    return int(token)
                except ValueError:  # more digits than int() converts
                    pass
            number = float(token)
            if math.isinf(number) and not token.endswith("inf"):
                raise self.fail(f"number {token!r} overflows a float", self.index - 1)
            return number
        if not self.dialect.nested:
            raise self.fail(f"expected a number, got {self.got()}")
        if token[:1] in _NAME_START:
            if self.tokens[self.index + 1] == "(":
                return self.tree()
            self.index += 1
            return _BOOL_LITERALS.get(token.lower(), token)
        raise self.fail(f"expected a value, got {self.got()}")

    def terms(self) -> Iterator[tuple[SchemeFamily, tuple, tuple[int, int | None]]]:
        """``(family, args, (start, until))`` per term, each as it is read.

        Lazy, so a term's family lookup and the caller's build happen before
        the next term is read -- errors surface in reading order.
        """
        dialect = self.dialect
        while True:
            name = self.tokens[self.index]
            family = dialect.families.get(name)
            if family is None:
                if not _NAME_RE.fullmatch(name):
                    raise self.fail(f"expected {dialect.term_name}")
                raise dialect.unknown_error(name, dialect.families)
            self.index += 1
            yield family, self.arguments(), self.window()
            if not self.tokens[self.index]:
                return
            if self.tokens[self.index] != "+":
                raise self.fail(f"expected '+' between {dialect.terms}, got {self.got()}")
            self.index += 1

    def window(self) -> tuple[int, int | None]:
        if self.tokens[self.index] != "@":
            return 0, None
        if not self.dialect.windows:
            raise self.fail(self.dialect.window_hint)
        self.index += 1
        start = self.round_number()
        if self.tokens[self.index] != "..":
            return start, None  # "@20" means "from round 20, forever"
        self.index += 1
        until = self.round_number()
        if until <= start:
            raise self.fail(
                f"empty round window @{start}..{until}: windows are half-open "
                f"[A, B), so B must be greater than A "
                f"(did you mean @{start}..{start + 1} for the single round {start}?)",
                self.index - 3,
            )
        return start, until

    def round_number(self) -> int:
        token = self.tokens[self.index]
        if not token.isdecimal():
            raise self.fail(f"expected a round number, got {self.got()}")
        self.index += 1
        return int(token)


def parse_tree(text: str, dialect: Dialect) -> ParsedSpec:
    """Parse one nested spec (the scheme dialect) into its AST."""
    parser = _Parser(text, dialect)
    spec = parser.tree()
    if parser.tokens[parser.index]:
        raise parser.fail(f"trailing input after spec: {parser.tokens[parser.index]!r}")
    return spec


def parse_terms(
    text: str, dialect: Dialect
) -> Iterator[tuple[SchemeFamily, tuple, tuple[int, int | None]]]:
    """Read ``term (+ term)*`` text lazily: ``(family, args, window)`` per term."""
    return _Parser(text, dialect).terms()
