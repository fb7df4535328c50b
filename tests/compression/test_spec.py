"""Tests for the compositional scheme-spec language."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    Param,
    SpecParamError,
    SpecSyntaxError,
    UnknownSchemeError,
    available_families,
    available_schemes,
    canonical_spec,
    family_signature,
    family_signatures,
    make_scheme,
    parse_spec,
)
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.registry import ALIASES
from repro.compression.spec import ParsedSpec, register, unregister_family


def aggregate_fingerprint(scheme, worker_gradients, ctx_factory):
    """The scheme's aggregate output on fixed gradients with a fixed rng."""
    result = scheme.aggregate(worker_gradients, ctx_factory())
    return result.mean_estimate, result.bits_per_coordinate


class TestParsing:
    def test_bare_name(self):
        spec = parse_spec("signsgd")
        assert spec == ParsedSpec("signsgd")

    def test_keyword_arguments(self):
        spec = parse_spec("thc(q=4, rot=partial, agg=sat)")
        assert spec.family == "thc"
        assert spec.args == (("q", 4), ("rot", "partial"), ("agg", "sat"))

    def test_positional_argument(self):
        assert parse_spec("topk(2)").args == ((None, 2),)

    def test_nested_spec(self):
        spec = parse_spec("ef(topk(b=2), decay=0.9)")
        assert spec.family == "ef"
        key, inner = spec.args[0]
        assert key is None
        assert inner == ParsedSpec("topk", (("b", 2),))
        assert spec.args[1] == ("decay", 0.9)

    def test_booleans_and_floats(self):
        spec = parse_spec("topkc(b=0.5, perm=true)")
        assert spec.args == (("b", 0.5), ("perm", True))

    def test_whitespace_insensitive(self):
        assert parse_spec(" thc( q = 4 , agg = sat ) ") == parse_spec("thc(q=4,agg=sat)")

    def test_format_round_trips_through_parse(self):
        spec = parse_spec("ef(topkc(b=2, perm=false), decay=0.5)")
        assert parse_spec(spec.format()) == spec

    def test_float_beyond_six_digits_round_trips(self):
        canonical = canonical_spec("topkc(b=0.12345678)")
        assert "b=0.12345678" in canonical
        assert canonical_spec(canonical) == canonical
        assert make_scheme(canonical).spec() == canonical
        # Six-digit %g used to give both schemes one memo and cache key.
        assert canonical != canonical_spec("topkc(b=0.123457)")
        nested = parse_spec("ef(topk(b=2), decay=0.987654321)")
        assert parse_spec(nested.format()) == nested


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("topk(", "expected a value"),
            ("topk(b=)", "expected a value"),
            ("topk(b=2", "expected ',' or ')'"),
            ("thc(q=4 rot=partial)", "expected ',' or ')'"),
            ("topk(b=2) extra", "trailing input"),
            ("topk(b=2)!", "unexpected character"),
            ("", "empty scheme spec"),
            ("topkc(b=1e999)", "overflows a float"),
        ],
    )
    def test_malformed_specs_raise_with_pointer(self, text, fragment):
        with pytest.raises(SpecSyntaxError) as excinfo:
            make_scheme(text)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("topk(b=-1)", "topk: bits_per_coordinate must be positive"),
            ("thc(q=0)", "thc: quantization_bits must be >= 2"),
            ("powersgd(r=0)", "powersgd: rank must be >= 1"),
            ("ef(topk(b=2), decay=2)", "ef: decay must be in [0, 1]"),
        ],
    )
    def test_constructor_rejections_are_typed_and_name_the_family(self, text, message):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme(text)
        assert str(excinfo.value) == message

    def test_unknown_family_suggests_close_matches(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            make_scheme("topkx(b=2)")
        message = str(excinfo.value)
        assert "topkx" in message
        assert "topk" in excinfo.value.suggestions

    def test_unknown_alias_suggests_close_matches(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            make_scheme("topkc_b3")
        assert "topkc_b2" in excinfo.value.suggestions

    def test_unknown_scheme_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            make_scheme("definitely_not_a_scheme")

    def test_unknown_parameter_lists_valid_ones(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("topk(zz=1)")
        assert "valid parameters: b" in str(excinfo.value)

    def test_wrong_value_type_names_expectation(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("topk(b=hello)")
        assert "expects float" in str(excinfo.value)

    def test_bad_enum_value_lists_choices(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("thc(q=4, rot=sideways)")
        assert "full" in str(excinfo.value) and "partial" in str(excinfo.value)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(SpecParamError):
            make_scheme("topk(b=2, b=4)")

    def test_wrapper_without_inner_scheme_rejected(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("ef(decay=0.5)")
        assert "inner scheme" in str(excinfo.value)


class TestCanonicalRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "baseline(p=fp16)",
            "topk(b=0.5)",
            "topkc(b=2)",
            "topkc(b=2, c=32, perm=true, seed=7)",
            "thc(q=4, rot=partial, agg=sat)",
            "thc(q=4, b=8, rot=full, agg=widened)",
            "qsgd(q=8, agg=widened)",
            "signsgd",
            "signsgd(scale=false)",
            "powersgd(r=4, bits=16, warm=false)",
            "ef(topk(b=2))",
            "ef(topkc(b=0.5), decay=0.9)",
        ],
    )
    def test_spec_is_a_fixed_point(self, text):
        canonical = canonical_spec(text)
        assert canonical_spec(canonical) == canonical

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_alias_canonicalises_to_its_spec_form(self, alias):
        assert canonical_spec(alias) == canonical_spec(ALIASES[alias])

    def test_round_trip_builds_equal_scheme(self, worker_gradients, ctx):
        original = make_scheme("thc(q=4, rot=partial, agg=sat)")
        rebuilt = make_scheme(original.spec())
        assert rebuilt.spec() == original.spec()
        assert rebuilt.quantization_bits == original.quantization_bits
        assert rebuilt.rotation == original.rotation
        assert rebuilt.aggregation == original.aggregation


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["topk", "topkc"]),
    bits=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
    wrap_ef=st.booleans(),
    decay=st.sampled_from([1.0, 0.9, 0.5]),
)
def test_property_round_trip_sparsifiers(family, bits, wrap_ef, decay):
    """parse -> build -> spec() -> parse -> build reaches a fixed point."""
    text = f"{family}(b={bits:g})"
    if wrap_ef:
        text = f"ef({text}, decay={decay:g})"
    scheme = make_scheme(text)
    canonical = scheme.spec()
    rebuilt = make_scheme(canonical)
    assert rebuilt.spec() == canonical
    inner = rebuilt.scheme if wrap_ef else rebuilt
    assert inner.bits_per_coordinate == pytest.approx(bits)


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 6, 8]),
    rot=st.sampled_from(["full", "partial", "none"]),
    agg=st.sampled_from(["sat", "widened", "switch"]),
)
def test_property_round_trip_thc(q, rot, agg):
    scheme = make_scheme(f"thc(q={q}, rot={rot}, agg={agg})")
    canonical = scheme.spec()
    rebuilt = make_scheme(canonical)
    assert rebuilt.spec() == canonical
    assert rebuilt.quantization_bits == q
    assert rebuilt.wire_bits == scheme.wire_bits


class TestAliasEquivalence:
    """Each legacy registry name builds a scheme identical to its spec form."""

    @pytest.fixture(params=sorted(ALIASES))
    def alias(self, request):
        return request.param

    def test_alias_and_spec_form_aggregate_identically(
        self, alias, worker_gradients, backend
    ):
        from repro.simulator.kernel_cost import KernelCostModel
        from repro.compression.base import SimContext

        def fresh_ctx():
            return SimContext(
                backend=backend,
                kernels=KernelCostModel(),
                rng=np.random.default_rng(99),
            )

        from_alias = make_scheme(alias)
        from_spec = make_scheme(ALIASES[alias])
        mean_a, bits_a = aggregate_fingerprint(from_alias, worker_gradients, fresh_ctx)
        mean_b, bits_b = aggregate_fingerprint(from_spec, worker_gradients, fresh_ctx)
        np.testing.assert_array_equal(mean_a, mean_b)
        assert bits_a == bits_b

    def test_alias_and_spec_form_share_canonical_spec(self, alias):
        assert make_scheme(alias).spec() == make_scheme(ALIASES[alias]).spec()

    def test_alias_and_spec_form_share_name(self, alias):
        assert make_scheme(alias).name == make_scheme(ALIASES[alias]).name


class TestIntrospection:
    def test_available_families_cover_all_aliases(self):
        families = set(available_families())
        for spec_text in ALIASES.values():
            assert parse_spec(spec_text).family in families

    def test_family_signature_mentions_params_and_types(self):
        signature = family_signature("thc")
        assert signature.startswith("thc(")
        assert "q: int" in signature
        assert "rot: {full,partial,none}" in signature

    def test_family_signatures_lists_every_family(self):
        signatures = family_signatures()
        assert set(signatures) == set(available_families())

    def test_wrapper_signature_shows_scheme_slot(self):
        assert family_signature("ef").startswith("ef(<scheme>")

    def test_unknown_family_signature_raises(self):
        with pytest.raises(UnknownSchemeError):
            family_signature("nope")


class TestRegisterDecorator:
    def test_register_and_build_custom_family(self):
        from repro.compression.base import AggregationScheme

        @register("testfam_xyz", params=(Param("k", int, default=3),))
        class TestScheme(AggregationScheme):
            def __init__(self, k: int = 3):
                self.k = k
                self.name = f"testfam_xyz_{k}"

            def aggregate_rows(self, rows, ctx, d):  # pragma: no cover
                raise NotImplementedError

            def expected_bits_per_coordinate(self, num_coordinates, world_size):
                return 1.0

            def estimate_costs(self, num_coordinates, ctx):  # pragma: no cover
                raise NotImplementedError

        try:
            assert "testfam_xyz" in available_families()
            built = make_scheme("testfam_xyz(k=5)")
            assert built.k == 5
            assert built.spec() == "testfam_xyz(k=5)"
            assert make_scheme("testfam_xyz").spec() == "testfam_xyz"
            wrapped = make_scheme("ef(testfam_xyz(k=2))")
            assert isinstance(wrapped, ErrorFeedback)
        finally:
            unregister_family("testfam_xyz")

    def test_duplicate_family_rejected(self):
        with pytest.raises(ValueError):
            register("topk")(object)

    def test_malformed_family_name_rejected(self):
        with pytest.raises(ValueError):
            register("Not-Valid")(object)


class TestMakeSchemeCompat:
    def test_error_feedback_kwarg_still_wraps(self):
        scheme = make_scheme("topkc(b=2)", error_feedback=True)
        assert isinstance(scheme, ErrorFeedback)
        assert scheme.spec() == "ef(topkc(b=2, c=64))"

    def test_error_feedback_kwarg_does_not_double_wrap(self):
        scheme = make_scheme("ef(topkc(b=2))", error_feedback=True)
        assert isinstance(scheme, ErrorFeedback)
        assert not isinstance(scheme.scheme, ErrorFeedback)

    def test_aliases_compose_inside_wrappers(self):
        scheme = make_scheme("ef(topkc_b2)")
        assert isinstance(scheme, ErrorFeedback)
        assert scheme.spec() == "ef(topkc(b=2, c=64))"

    def test_dotted_aliases_compose_inside_wrappers(self):
        scheme = make_scheme("ef(topk_b0.5)")
        assert isinstance(scheme, ErrorFeedback)
        assert scheme.scheme.bits_per_coordinate == 0.5

    def test_available_schemes_still_lists_aliases(self):
        names = available_schemes()
        assert set(ALIASES).issubset(names)


class TestAggregationFabricParams:
    """Round-tripping of the in-network aggregation spec surface (agg=switch)."""

    @pytest.mark.parametrize(
        "text",
        [
            "thc(q=4, agg=switch)",
            "thc(q=2, b=4, rot=none, agg=switch)",
            "qsgd(q=4, agg=switch)",
            "ef(thc(q=4, agg=switch))",
        ],
    )
    def test_switch_specs_round_trip(self, text):
        """parse -> build -> str() -> parse -> build reaches a fixed point."""
        scheme = make_scheme(text)
        canonical = scheme.spec()
        assert "agg=switch" in canonical
        rebuilt = make_scheme(canonical)
        assert rebuilt.spec() == canonical
        reparsed = parse_spec(canonical)
        assert make_scheme(reparsed.format()).spec() == canonical

    def test_switch_mode_defaults_wire_to_q(self):
        scheme = make_scheme("thc(q=4, agg=switch)")
        assert scheme.wire_bits == scheme.quantization_bits == 4

    def test_switch_accepts_unambiguous_prefix(self):
        assert make_scheme("thc(q=4, agg=sw)").spec() == make_scheme(
            "thc(q=4, agg=switch)"
        ).spec()

    def test_saturation_prefix_still_unambiguous(self):
        """Regression: adding 'switch' must not break the historical agg=sat."""
        scheme = make_scheme("thc(q=4, agg=sat)")
        assert "agg=sat" in scheme.spec()

    def test_ambiguous_prefix_rejected(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("thc(q=4, agg=s)")
        assert "switch" in str(excinfo.value) and "saturation" in str(excinfo.value)

    def test_misspelled_agg_value_gets_suggestion(self):
        with pytest.raises(SpecParamError) as excinfo:
            make_scheme("thc(q=4, agg=swich)")
        message = str(excinfo.value)
        assert "widened" in message and "saturation" in message and "switch" in message
        assert "did you mean 'switch'?" in message

    def test_misspelled_family_with_agg_args_gets_suggestions(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            make_scheme("thk(q=4, agg=switch)")
        assert "thc" in excinfo.value.suggestions
