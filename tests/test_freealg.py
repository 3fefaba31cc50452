"""Free polynomial arithmetic, substitution, and the expression grammar."""

from __future__ import annotations

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
    grlex_key,
    linear_form,
    parse_expr,
    substitute_linear,
    to_string,
    var_id,
    var_name,
)


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
