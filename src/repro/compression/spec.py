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

Scheme specs are the nested dialect of the grammar in :mod:`repro.grammar`.
Enum-valued parameters accept the enum's value, its member name, or any
unambiguous prefix (``agg=sat`` means ``agg=saturation``).
"""

from __future__ import annotations

from repro.grammar import (  # noqa: F401 - ALWAYS is re-exported
    ALWAYS,
    Dialect,
    GrammarParamError,
    GrammarSyntaxError,
    Param,
    ParsedSpec,
    SchemeFamily,
    UnknownNameError,
    parse_tree,
)


class UnknownSchemeError(UnknownNameError):
    """An unknown scheme name or family, with close-match suggestions.

    Subclasses :class:`KeyError` so existing ``except KeyError`` handlers
    (and tests) keep working.
    """

    what = "scheme"


class SpecSyntaxError(GrammarSyntaxError):
    """A spec string that does not conform to the grammar."""

    what = "scheme spec"


class SpecParamError(GrammarParamError):
    """A well-formed spec whose arguments do not fit the family's parameters."""


#: The scheme dialect: nested specs, bool and name values, no ``+`` joins.
_DIALECT = Dialect(SpecSyntaxError, SpecParamError, UnknownSchemeError, nested=True)


# --------------------------------------------------------------------------- #
# The family registry
# --------------------------------------------------------------------------- #

_FAMILIES = _DIALECT.families


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

    def decorate(cls: type) -> type:
        _DIALECT.register(
            name, cls, params, wraps=wraps, wrapped_attr=wrapped_attr, description=description
        )
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


def parse_spec(text: str) -> ParsedSpec:
    """Parse a spec string into its AST.

    Raises:
        SpecSyntaxError: If the string does not conform to the grammar.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecSyntaxError(str(text), 0, "empty scheme spec")
    return parse_tree(text.strip(), _DIALECT)


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
