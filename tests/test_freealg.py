"""Free polynomial arithmetic, substitution, and the expression grammar."""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from njordan.errors import GuardError
from njordan.freealg import (
    COMMUTATIVE,
    EXPANSION_CAP,
    NONCOMMUTATIVE,
    FreePoly,
    ParseError,
    abelianize,
    digit_limit,
    grlex_key,
    linear_form,
    parse_expr,
    read_int,
    substitute_linear,
    to_string,
    var_id,
    var_name,
)
from njordan.identities import SEED_VAR, combine, seed, substitute


def poly(text: str, mode: str = NONCOMMUTATIVE) -> FreePoly:
    return parse_expr(text, mode)


class TestCanonicalForm:
    def test_terms_sorted_graded_lex(self):
        p = poly("y^2 + x*y + x + z^3")
        words = [w for w, _ in p.terms]
        assert words == sorted(words, key=grlex_key)
        assert words[0] == (var_id("x"),)

    def test_like_terms_merge_and_cancel(self):
        p = poly("x*y + x*y - 2*x*y + z")
        assert p == poly("z")

    def test_zero_polynomial_has_no_terms(self):
        assert poly("x - x").is_zero()
        assert poly("0").is_zero()

    def test_commutative_words_sorted(self):
        assert poly("y*x", COMMUTATIVE) == poly("x*y", COMMUTATIVE)
        assert poly("y*x") != poly("x*y")

    def test_coeff_lookup(self):
        p = poly("3*x*y - 1/2*x")
        assert p.coeff((var_id("x"), var_id("y"))) == 3
        assert p.coeff((var_id("x"),)) == Fraction(-1, 2)
        assert p.coeff((var_id("z"),)) == 0

    def test_degree_and_word_lengths(self):
        p = poly("x^3 + y*z")
        assert p.degree() == 3
        assert p.word_lengths() == {3, 2}
        assert FreePoly.zero(NONCOMMUTATIVE).degree() == 0


class TestArithmetic:
    def test_noncommutative_product_keeps_order(self):
        p = poly("x + y") * poly("x - y")
        assert p == poly("x^2 - x*y + y*x - y^2")

    def test_commutative_product_collapses(self):
        p = poly("x + y", COMMUTATIVE) * poly("x - y", COMMUTATIVE)
        assert p == poly("x^2 - y^2", COMMUTATIVE)

    def test_cube_of_binomial_has_eight_words(self):
        p = poly("x + y") ** 3
        assert len(p.terms) == 8
        assert all(c == 1 for _, c in p.terms)
        assert abelianize(p) == poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", COMMUTATIVE)

    def test_scaling(self):
        p = poly("x*y").scale(Fraction(1, 3))
        assert p.coeff((var_id("x"), var_id("y"))) == Fraction(1, 3)
        assert (2 * poly("x")) == poly("2*x")

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly("x") + poly("x", COMMUTATIVE)

    def test_distributivity_small(self):
        p, q, r = poly("x + 2*y"), poly("y*z - x"), poly("z")
        assert (p + q) * r == p * r + q * r
        assert p * (q + r) == p * q + p * r


class TestExpansionCap:
    @pytest.mark.parametrize("text", ["x + 2*y - z", "x", "2/3", "x - x", "x*y + y*x"])
    @pytest.mark.parametrize("mode", [NONCOMMUTATIVE, COMMUTATIVE])
    def test_power_matches_repeated_products(self, text, mode):
        p = poly(text, mode)
        expected = FreePoly.one(mode)
        for n in range(8):
            assert p ** n == expected
            expected = expected * p

    @pytest.mark.parametrize(
        "text", ["(x+y+z)^30", "x^1000000000", "(x - x)^1000000000", "(2)^1000000000"]
    )
    def test_oversized_expressions_are_refused_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(GuardError, match="expansion"):
            parse_expr(text, NONCOMMUTATIVE)
        assert time.perf_counter() - start < 1.0

    def test_product_is_bounded_before_it_is_built(self):
        def linear(width: int) -> FreePoly:
            return FreePoly.from_terms([((v,), 1) for v in range(width)], NONCOMMUTATIVE)

        assert len((linear(100) * linear(100)).terms) == 10 ** 4
        start = time.perf_counter()
        with pytest.raises(GuardError):
            linear(1000) * linear(1000)  # 10^6 words of 2 letters
        assert time.perf_counter() - start < 1.0

    def test_largest_power_under_the_cap_is_built(self):
        # 2^15 words of 15 letters fit; 2^16 words of 16 letters do not
        assert 2 ** 15 * 15 <= EXPANSION_CAP < 2 ** 16 * 16
        assert len(poly("(x+y)^15").terms) == 2 ** 15
        with pytest.raises(GuardError):
            poly("(x+y)^16")

    def test_sum_is_bounded_as_it_is_parsed(self):
        text = "x^999999 + y^999999 + z^999999 + w^999999 + t^999999 + a^999999 + b^999999 + c^999999"
        start = time.perf_counter()
        with pytest.raises(GuardError, match="expansion"):
            parse_expr(text, NONCOMMUTATIVE)
        assert time.perf_counter() - start < 1.0

    def test_from_terms_bounds_the_terms_it_keeps(self):
        full, half, other = (0,) * EXPANSION_CAP, (0,) * 600_000, (1,) * 600_000
        assert len(FreePoly.from_terms([(full, 1)], NONCOMMUTATIVE).terms) == 1
        with pytest.raises(GuardError):
            FreePoly.from_terms([(full, 1), ((), 1)], NONCOMMUTATIVE)  # a constant counts one letter
        # a cancelled term no longer counts
        kept = FreePoly.from_terms([(half, 1), (half, -1), (other, 1)], NONCOMMUTATIVE)
        assert kept.terms == ((other, 1),)

        def stream():
            yield half, 1
            yield other, 1
            raise AssertionError("consumed past the bound")

        with pytest.raises(GuardError):
            FreePoly.from_terms(stream(), COMMUTATIVE)

    def test_substitution_is_bounded_before_expanding(self):
        x = var_id("x")
        form = poly("x + y + z")
        assert len(substitute_linear(poly("x^10"), {x: form}).terms) == 3 ** 10
        start = time.perf_counter()
        with pytest.raises(GuardError):
            substitute_linear(poly("x^11"), {x: form})
        assert time.perf_counter() - start < 1.0


class TestSubstituteLinear:
    def test_expands_commutator_shape(self):
        x, z = var_id("x"), var_id("z")
        p = poly("y*x^2 - x^2*y")
        image = substitute_linear(p, {x: linear_form({x: 1, z: 1}, NONCOMMUTATIVE)})
        assert image == poly(
            "y*x^2 + y*x*z + y*z*x + y*z^2 - x^2*y - x*z*y - z*x*y - z^2*y"
        )
        assert len(image.terms) == 8

    def test_untouched_variables_pass_through(self):
        p = poly("x*y")
        out = substitute_linear(p, {var_id("x"): poly("-x")})
        assert out == poly("-x*y")

    def test_rejects_nonlinear_image(self):
        with pytest.raises(ValueError):
            substitute_linear(poly("x"), {var_id("x"): poly("x*y")})

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            substitute_linear(poly("x"), {var_id("x"): poly("x + 1")})

    def test_rejects_fractional_coefficient(self):
        with pytest.raises(ValueError, match="not integer-linear"):
            substitute_linear(poly("x"), {var_id("x"): poly("1/2*x")})

    def test_rejects_mode_mismatch(self):
        with pytest.raises(ValueError):
            substitute_linear(poly("x"), {var_id("x"): poly("y", COMMUTATIVE)})

    def test_composition_order(self):
        # substituting x -> x+y then y -> -y differs from the reverse order
        x, y = var_id("x"), var_id("y")
        p = poly("x*y")
        first = substitute_linear(p, {x: poly("x + y")})
        assert first == poly("x*y + y^2")
        second = substitute_linear(first, {y: poly("-y")})
        assert second == poly("-x*y + y^2")


class TestGrammar:
    def test_round_trip_fixed_cases(self):
        for text in (
            "x",
            "-x",
            "x + y",
            "x^2*y - 2*x*y*x + y*x^2",
            "1/2*x*y + 3*z^4",
            "-5/7*x^2 + x*y*z*w*t",
        ):
            p = poly(text)
            assert parse_expr(to_string(p), NONCOMMUTATIVE) == p

    def test_h_heads_round_trip(self):
        p = parse_expr("H(x)^2*H(y) - 3*H(z)", COMMUTATIVE, h_heads=True)
        assert parse_expr(to_string(p, h_heads=True), COMMUTATIVE, h_heads=True) == p

    def test_parenthesized_groups(self):
        assert poly("(x + y)*(x - y)") == poly("x^2 - x*y + y*x - y^2")

    def test_juxtaposition_is_an_error(self):
        with pytest.raises(ParseError):
            poly("x y")
        with pytest.raises(ParseError):
            poly("2x")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            poly("(x + y")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            poly("x^-1")

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            poly("q + x")

    def test_var_name_round_trip(self):
        for name in ("x", "y", "z", "w", "t", "a", "b", "c"):
            assert var_name(var_id(name)) == name

    def test_var_id_accepts_exactly_the_grammar_names(self):
        assert var_id("v0") == 8 and var_id("v12") == 20
        for name in ("q", "", "v", "V1", "xy", "x1", "v1a", "v\u0661", "\u00e9"):
            with pytest.raises(ValueError, match=f"unknown variable name {name!r}"):
                var_id(name)

    # One case per error path of the grammar: each message with the offset it names.
    @pytest.mark.parametrize("text,h_heads,message,position", [
        ("x @", False, "unexpected character '@'", 2),
        ("x\r", False, "unexpected character '\\r'", 1),
        ("x +", False, "expected a variable or parenthesized expression", 3),
        ("1/x", False, "expected integer denominator", 2),
        ("1/0*x", False, "zero denominator", 2),
        ("2x", False, "missing '*' after coefficient", 1),
        ("2 (x)", False, "missing '*' after coefficient", 2),
        ("x^y", False, "expected integer exponent", 2),
        ("(x", False, "expected ')'", 2),
        ("x)", False, "trailing input", 1),
        ("q", False, "unknown variable name 'q'", 0),
        ("G(x)", True, "expected H(<var>), got 'G'", 0),
        ("H x", True, "expected '('", 2),
        ("H(1)", True, "expected variable name", 2),
        ("H(x", True, "expected ')'", 3),
        ("H(q)", True, "unknown variable name 'q'", 2),
    ])
    def test_errors_name_their_position(self, text, h_heads, message, position):
        with pytest.raises(ParseError) as info:
            parse_expr(text, NONCOMMUTATIVE, h_heads)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position

    # Unicode digits and letters are no part of the grammar: int() once read
    # the superscript two and failed, and the Arabic-Indic one read as 1.
    @pytest.mark.parametrize("text,position", [
        ("x^\u00b2", 2), ("2\u00b2*x", 1), ("v\u0661", 1), ("x + \u0663", 4), ("\u00e9", 0), ("x\u00a0+ y", 1),
    ])
    def test_non_ascii_text_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as info:
            poly(text)
        assert info.value.position == position

    # int() would refuse these digit strings with a bare ValueError and no position.
    @pytest.mark.parametrize("text,what,position", [
        ("1" * 5000 + "*x", "integer", 0),
        ("x^" + "1" * 5000, "integer", 2),
        ("v" + "1" * 5000, "name", 0),
        ("x + 1/" + "1" * 5000, "integer", 6),
    ], ids=["coefficient", "exponent", "variable", "denominator"])
    def test_integers_past_the_digit_limit_are_parse_errors(self, text, what, position):
        with pytest.raises(ParseError) as info:
            poly(text)
        limit = sys.get_int_max_str_digits()
        assert str(info.value) == f"{what} longer than {limit} characters (at position {position})"
        assert info.value.position == position

    @given(st.text(alphabet="xyzvH0123()+-*/^= \t\u00b2\u0661\u00e9\u03b1\u00a0\r", max_size=20),
           st.sampled_from([NONCOMMUTATIVE, COMMUTATIVE]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_parse_or_guard_error(self, text, mode, h_heads):
        try:
            assert isinstance(parse_expr(text, mode, h_heads), FreePoly)
        except (ParseError, GuardError):
            pass


# Digit strings with and without a sign, text over an alphabet that holds every
# near miss (other signs, blanks, underscores, non-ASCII digits), and digit
# runs either side of the digit limit.
INTEGER_TEXT = st.one_of(
    st.from_regex("-?[0-9]{1,30}", fullmatch=True),
    st.text(alphabet="-+0123456789 _.\n\u0665\u00b2e", max_size=8),
    st.builds(lambda sign, n: sign + "7" * n, st.sampled_from(["", "-"]), st.integers(4290, 4310)),
)


class TestReadInt:
    @given(INTEGER_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_ascii_digits_within_the_bound(self, text):
        digits = text[1:] if text.startswith("-") else text
        if digits and all(ch in "0123456789" for ch in digits) and len(digits) <= digit_limit():
            assert read_int(text) == int(text)
        else:
            with pytest.raises(ValueError) as info:
                read_int(text)
            message = str(info.value)
            assert len(message) < 120
            assert "int()" not in message and "Exceeds the limit" not in message

    def test_limit_is_the_interpreter_digit_limit(self):
        assert digit_limit() == sys.get_int_max_str_digits()
        assert read_int("-" + "9" * digit_limit()) == -int("9" * digit_limit())


@st.composite
def free_polys(draw, mode=NONCOMMUTATIVE):
    nterms = draw(st.integers(min_value=0, max_value=5))
    pairs = []
    for _ in range(nterms):
        length = draw(st.integers(min_value=1, max_value=4))
        word = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(length))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.sampled_from([1, 2, 3, 6]))
        pairs.append((word, Fraction(num, den)))
    return FreePoly.from_terms(pairs, mode)


class TestProperties:
    @given(free_polys())
    @settings(max_examples=60, deadline=None)
    def test_print_parse_round_trip(self, p):
        assert parse_expr(to_string(p), NONCOMMUTATIVE) == p

    @given(free_polys(), free_polys())
    @settings(max_examples=40, deadline=None)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(free_polys(), free_polys(), free_polys())
    @settings(max_examples=25, deadline=None)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(free_polys())
    @settings(max_examples=40, deadline=None)
    def test_abelianize_is_ring_map_on_squares(self, p):
        assert abelianize(p * p) == abelianize(p) * abelianize(p)


def assert_canonical_coefficients(p: FreePoly) -> None:
    """Each coefficient is an int when integral and a Fraction otherwise."""
    for _, c in p.terms:
        assert type(c) is (int if c.denominator == 1 else Fraction), (p.terms, c)


class TestIntCoefficients:
    @given(free_polys(), free_polys(),
           st.fractions(min_value=-4, max_value=4, max_denominator=6),
           st.integers(min_value=0, max_value=3),
           st.dictionaries(st.integers(0, 3), st.dictionaries(st.integers(0, 4), st.integers(-2, 2), max_size=3),
                           max_size=3),
           st.fractions(min_value=-4, max_value=4, max_denominator=6))
    @settings(max_examples=80, deadline=None)
    def test_every_operation_stores_int_exactly_when_integral(self, p, q, k, n, images, weight):
        subst = {v: linear_form(img, NONCOMMUTATIVE) for v, img in images.items()}
        inst = [substitute(seed(3, NONCOMMUTATIVE), {SEED_VAR: f}) for f in [poly("x + y"), *subst.values()]]
        combined = combine([(k, inst[0])] + [(weight, i) for i in inst])
        for made in (
            parse_expr(to_string(p), NONCOMMUTATIVE),
            FreePoly.from_terms(p.terms + q.terms, NONCOMMUTATIVE),
            p.scale(k), k * p, -p, p * q, p ** n,
            substitute_linear(p, subst),
            combined.lhs, combined.rhs,
        ):
            assert_canonical_coefficients(made)

    def test_integral_fraction_and_int_give_one_polynomial(self):
        from_fraction = FreePoly.from_terms([((0,), Fraction(2)), ((1,), Fraction(6, 3))], NONCOMMUTATIVE)
        from_int = FreePoly.from_terms([((0,), 2), ((1,), 2)], NONCOMMUTATIVE)
        assert from_fraction == from_int
        assert hash(from_fraction) == hash(from_int)
        assert from_fraction.terms == (((0,), 2), ((1,), 2))
        assert_canonical_coefficients(from_fraction)

    def test_other_numbers_convert_through_fraction(self):
        p = FreePoly.from_terms([((0,), 0.1), ((1,), 2.0), ((2,), True)], NONCOMMUTATIVE)
        assert p.terms == (((0,), Fraction(0.1)), ((1,), 2), ((2,), 1))
        assert_canonical_coefficients(p)
        assert poly("4*x").scale(0.25).terms == (((0,), 1),)
        assert_canonical_coefficients(poly("4*x").scale(0.25))
