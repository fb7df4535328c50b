"""The compositional scheme-specification language.

The paper's argument is that gradient-compression schemes must be judged
across *many* configurations; a registry of hand-picked factory names cannot
express that space.  This module provides the compositional alternative: a
small, typed specification language in which every scheme configuration is a
string such as

    ``baseline(p=fp16)``
    ``topkc(b=2, perm=true)``
    ``thc(q=4, rot=partial, agg=sat)``
    ``ef(topk(b=0.5))``

Scheme classes declare their spec-language surface with the :func:`register`
decorator, listing their parameters (:class:`Param`) with types, constructor
keywords, and defaults.  The module then provides, uniformly for every
registered family:

* :func:`parse_spec` -- parse a spec string into a :class:`ParsedSpec` tree
  (wrapper schemes such as error feedback nest their inner scheme);
* :func:`build_spec` -- instantiate the parsed tree into an
  :class:`~repro.compression.base.AggregationScheme`;
* ``scheme.spec()`` -- the canonical, round-trippable spec string of a live
  scheme instance (implemented generically on the base class);
* :func:`family_signature` -- a human-readable signature for introspection.

Grammar (whitespace-insensitive)::

    spec    := NAME [ "(" [ arg ("," arg)* ] ")" ]
    arg     := NAME "=" value | value
    value   := NUMBER | BOOL | NAME | spec

Enum-valued parameters accept the enum's value, its member name, or any
unambiguous prefix (``agg=sat`` means ``agg=saturation``).
"""

from __future__ import annotations

import difflib
import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.grammar import format_number


class UnknownSchemeError(KeyError):
    """An unknown scheme name or family, with close-match suggestions.

    Subclasses :class:`KeyError` so existing ``except KeyError`` handlers
    (and tests) keep working.
    """

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = sorted(known)
        self.suggestions = difflib.get_close_matches(name, self.known, n=3, cutoff=0.5)
        message = f"unknown scheme {name!r}"
        if self.suggestions:
            message += f"; did you mean: {', '.join(self.suggestions)}?"
        message += f" (known: {', '.join(self.known)})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ shows the repr of args[0]
        return self.args[0]


class SpecSyntaxError(ValueError):
    """A spec string that does not conform to the grammar."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        self.reason = reason
        pointer = " " * position + "^"
        super().__init__(f"invalid scheme spec: {reason}\n  {text}\n  {pointer}")


class SpecParamError(ValueError):
    """A well-formed spec whose arguments do not fit the family's parameters."""


class _AlwaysType:
    """Sentinel: the parameter has no spec-level default and is always rendered."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ALWAYS"


#: Default marker for parameters that the canonical spec always spells out
#: (their constructor resolves a value even when the spec omits them).
ALWAYS = _AlwaysType()


@dataclass(frozen=True)
class Param:
    """One typed, introspectable parameter of a scheme family.

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
            means the parameter is always rendered.
        doc: One-line description shown by :func:`family_signature`.
    """

    name: str
    kind: type
    kwarg: str | None = None
    attr: str | None = None
    default: object = ALWAYS
    doc: str = ""

    @property
    def constructor_keyword(self) -> str:
        return self.kwarg if self.kwarg is not None else self.name

    @property
    def attribute(self) -> str:
        return self.attr if self.attr is not None else self.constructor_keyword

    def coerce(self, value: object, family: str) -> object:
        """Coerce a parsed literal onto this parameter's type."""
        if isinstance(self.kind, type) and issubclass(self.kind, enum.Enum):
            return self._coerce_enum(value, family)
        if self.kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if self.kind is int and isinstance(value, int) and not isinstance(value, bool):
            return value
        if self.kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
        if self.kind is str and isinstance(value, str):
            return value
        if isinstance(value, self.kind) and not isinstance(value, bool):
            return value
        raise SpecParamError(
            f"{family}: parameter {self.name!r} expects {self._kind_label()}, "
            f"got {value!r}"
        )

    def _coerce_enum(self, value: object, family: str) -> object:
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
        raise SpecParamError(message)

    def render(self, value: object) -> str:
        """Format a coerced value back into spec-string syntax."""
        if isinstance(value, enum.Enum):
            return str(value.value)
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_number(value)
        return str(value)

    def _kind_label(self) -> str:
        if isinstance(self.kind, type) and issubclass(self.kind, enum.Enum):
            return "{" + ",".join(str(m.value) for m in self.kind) + "}"
        return self.kind.__name__

    def signature_fragment(self) -> str:
        fragment = f"{self.name}: {self._kind_label()}"
        if self.default is not ALWAYS:
            fragment += f" = {self.render(self.default)}"
        return fragment


@dataclass(frozen=True)
class SchemeFamily:
    """A registered scheme family: a class plus its spec-language surface.

    Attributes:
        name: The family name used in spec strings (``topkc``, ``thc``...).
        cls: The :class:`AggregationScheme` subclass this family builds.
        params: Declared parameters, in canonical rendering order.
        wraps: Whether the family wraps another scheme (error feedback); the
            wrapped scheme is the spec's first positional argument.
        wrapped_attr: Instance attribute holding the wrapped scheme.
        description: One-line description for listings.
    """

    name: str
    cls: type
    params: tuple[Param, ...] = ()
    wraps: bool = False
    wrapped_attr: str = "scheme"
    description: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for param in self.params:
            if param.name in seen:
                raise ValueError(f"family {self.name!r} declares {param.name!r} twice")
            seen.add(param.name)

    def param_named(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        valid = ", ".join(p.name for p in self.params) or "(none)"
        raise SpecParamError(
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
                    raise SpecParamError(
                        f"{self.name}: too many positional arguments "
                        f"(takes {len(self.params)})"
                    )
                param = self.params[positional_cursor]
                positional_cursor += 1
            else:
                param = self.param_named(key)
            if param in bound:
                raise SpecParamError(f"{self.name}: parameter {param.name!r} given twice")
            bound[param] = value
        if self.wraps and inner is None:
            raise SpecParamError(
                f"{self.name}: wrapper families need an inner scheme, "
                f"e.g. {self.name}(topk(b=2))"
            )
        return inner, bound

    def build(self, args: tuple[tuple[str | None, object], ...], build_inner: Callable[[object], object]):
        """Instantiate the family from parsed arguments."""
        inner, bound = self.bind(args)
        kwargs = {
            param.constructor_keyword: param.coerce(value, self.name)
            for param, value in bound.items()
        }
        if self.wraps:
            return self.cls(build_inner(inner), **kwargs)
        return self.cls(**kwargs)

    def format_instance(self, instance: object) -> str:
        """The canonical spec string of a live instance (round-trippable)."""
        parts: list[str] = []
        if self.wraps:
            wrapped = getattr(instance, self.wrapped_attr)
            parts.append(wrapped.spec())
        for param in self.params:
            value = getattr(instance, param.attribute)
            if param.default is not ALWAYS and value == param.default:
                continue
            parts.append(f"{param.name}={param.render(value)}")
        if not parts:
            return self.name
        return f"{self.name}({', '.join(parts)})"

    def signature(self) -> str:
        """Human-readable signature, e.g. ``thc(q: int, b: int, rot: {...})``."""
        fragments = ["<scheme>"] if self.wraps else []
        fragments.extend(param.signature_fragment() for param in self.params)
        return f"{self.name}({', '.join(fragments)})"


# --------------------------------------------------------------------------- #
# The family registry
# --------------------------------------------------------------------------- #

_FAMILIES: dict[str, SchemeFamily] = {}

_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def register(
    name: str,
    *,
    params: tuple[Param, ...] | list[Param] = (),
    wraps: bool = False,
    wrapped_attr: str = "scheme",
    description: str = "",
):
    """Class decorator registering an :class:`AggregationScheme` family.

    Usage::

        @register("topk", params=[Param("b", float, "bits_per_coordinate")])
        class TopKCompressor(AggregationScheme):
            ...

    The decorated class gains a working ``spec()`` method (via the base
    class), and the family becomes constructible from spec strings.

    Raises:
        ValueError: If the name is malformed or already registered.
    """
    if not _NAME_RE.match(name):
        raise ValueError(
            f"family name {name!r} must be a lowercase identifier ([a-z_][a-z0-9_]*)"
        )

    def decorate(cls: type) -> type:
        if name in _FAMILIES:
            raise ValueError(f"scheme family {name!r} is already registered")
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        family = SchemeFamily(
            name=name,
            cls=cls,
            params=tuple(params),
            wraps=wraps,
            wrapped_attr=wrapped_attr,
            description=description or (doc_lines[0] if doc_lines else ""),
        )
        _FAMILIES[name] = family
        cls._spec_family = family
        return cls

    return decorate


def unregister_family(name: str) -> None:
    """Remove a registered family (intended for tests and notebooks)."""
    family = _FAMILIES.pop(name, None)
    if family is not None and getattr(family.cls, "_spec_family", None) is family:
        del family.cls._spec_family


def available_families() -> list[str]:
    """Registered family names, sorted."""
    return sorted(_FAMILIES)


def get_family(name: str) -> SchemeFamily:
    """Look up a family by name.

    Raises:
        UnknownSchemeError: If no family with that name exists (suggestions
            are drawn from families and registry aliases).
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownSchemeError(name, _known_names()) from None


def family_signature(name: str) -> str:
    """The introspectable signature of one family."""
    return get_family(name).signature()


def family_signatures() -> dict[str, str]:
    """Signatures of every registered family, keyed by family name."""
    return {name: _FAMILIES[name].signature() for name in available_families()}


def _known_names() -> list[str]:
    """Every name a spec could legally start with (families + aliases)."""
    names = set(_FAMILIES)
    # Late import: registry depends on this module, not the other way round.
    from repro.compression import registry

    names.update(registry.available_schemes())
    return sorted(names)


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParsedSpec:
    """The AST of one spec string: a family name plus (key, value) arguments.

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
            text = value.format() if isinstance(value, ParsedSpec) else _render_literal(value)
            rendered.append(text if key is None else f"{key}={text}")
        return f"{self.family}({', '.join(rendered)})"


def _render_literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    # Dots are allowed after the first character so legacy alias names such
    # as "topk_b0.5" stay one token and compose inside wrappers.
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>[(),=])
    """,
    re.VERBOSE,
)

_BOOL_LITERALS = {"true": True, "false": False}


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "punct" | "end"
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SpecSyntaxError(text, position, f"unexpected character {text[position]!r}")
        position = match.end()
        kind = match.lastgroup
        if kind == "space":
            continue
        yield _Token(kind, match.group(), match.start())
    yield _Token("end", "", len(text))


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            got = token.text or "end of input"
            raise SpecSyntaxError(self.text, token.position, f"expected {wanted!r}, got {got!r}")
        return self.advance()

    def parse(self) -> ParsedSpec:
        spec = self.parse_spec()
        if self.current.kind != "end":
            raise SpecSyntaxError(
                self.text,
                self.current.position,
                f"trailing input after spec: {self.current.text!r}",
            )
        return spec

    def parse_spec(self) -> ParsedSpec:
        name_token = self.expect("name")
        if self.current.kind == "punct" and self.current.text == "(":
            self.advance()
            args = self.parse_args()
            self.expect("punct", ")")
            return ParsedSpec(name_token.text, tuple(args))
        return ParsedSpec(name_token.text)

    def parse_args(self) -> list[tuple[str | None, object]]:
        args: list[tuple[str | None, object]] = []
        if self.current.kind == "punct" and self.current.text == ")":
            return args
        while True:
            args.append(self.parse_arg())
            if self.current.kind == "punct" and self.current.text == ",":
                self.advance()
                continue
            if self.current.kind == "punct" and self.current.text == ")":
                return args
            got = self.current.text or "end of input"
            raise SpecSyntaxError(
                self.text, self.current.position, f"expected ',' or ')', got {got!r}"
            )

    def parse_arg(self) -> tuple[str | None, object]:
        token = self.current
        if token.kind == "name":
            after = self.tokens[self.index + 1]
            if after.kind == "punct" and after.text == "=":
                self.advance()  # key
                self.advance()  # '='
                return token.text, self.parse_value()
        return None, self.parse_value()

    def parse_value(self) -> object:
        token = self.current
        if token.kind == "number":
            self.advance()
            return _parse_number(token.text)
        if token.kind == "name":
            after = self.tokens[self.index + 1]
            if after.kind == "punct" and after.text == "(":
                return self.parse_spec()
            self.advance()
            lowered = token.text.lower()
            if lowered in _BOOL_LITERALS:
                return _BOOL_LITERALS[lowered]
            return token.text
        got = token.text or "end of input"
        raise SpecSyntaxError(self.text, token.position, f"expected a value, got {got!r}")


def _parse_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_spec(text: str) -> ParsedSpec:
    """Parse a spec string into its AST.

    Raises:
        SpecSyntaxError: If the string does not conform to the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecSyntaxError(str(text), 0, "empty scheme spec")
    return _Parser(text.strip()).parse()


# --------------------------------------------------------------------------- #
# Building
# --------------------------------------------------------------------------- #


def build_spec(spec: ParsedSpec | str):
    """Instantiate an :class:`AggregationScheme` from a spec (string or AST).

    Bare names are first resolved through the registry's legacy aliases and
    custom factories, so ``build_spec("topkc_b2")`` and
    ``build_spec("ef(topkc_b2)")`` both work.

    Raises:
        UnknownSchemeError: Unknown family or alias.
        SpecSyntaxError: Malformed spec string.
        SpecParamError: Arguments not matching the family's parameters.
    """
    from repro.compression import registry

    if isinstance(spec, str):
        resolved = registry.resolve_name(spec.strip())
        if resolved is not None:
            return resolved()
        try:
            spec = parse_spec(spec)
        except SpecSyntaxError:
            # A bare, parenthesis-free name that merely fails the spec
            # grammar (e.g. a dotted legacy-style name) is an unknown scheme
            # name, not a syntax error.
            if spec.strip() and "(" not in spec and ")" not in spec:
                raise UnknownSchemeError(spec.strip(), _known_names()) from None
            raise

    if spec.family not in _FAMILIES:
        if not spec.args:
            resolved = registry.resolve_name(spec.family)
            if resolved is not None:
                return resolved()
        raise UnknownSchemeError(spec.family, _known_names())

    family = _FAMILIES[spec.family]
    return family.build(spec.args, build_inner=build_spec)


def canonical_spec(text: str) -> str:
    """The canonical form of a spec string (or alias): build, then format."""
    return build_spec(text).spec()
