"""Identity objects: seed, substitute, combine, parsing, model evaluation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from njordan import models
from njordan.errors import GuardError
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE, parse_expr, var_id
from njordan.identities import (
    SEED_VAR,
    HIdentity,
    combine,
    evaluate,
    identity_to_string,
    is_homogeneous,
    parse_identity,
    seed,
    substitute,
)

X, Y, Z = var_id("x"), var_id("y"), var_id("z")


def nc(text: str):
    return parse_expr(text, NONCOMMUTATIVE)


class TestConstruction:
    def test_seed_shape(self):
        s = seed(3, NONCOMMUTATIVE)
        assert identity_to_string(s) == "h(a^3) = H(a)^3"
        assert s.denominators == frozenset()

    def test_seed_rejects_small_n(self):
        with pytest.raises(ValueError):
            seed(1, NONCOMMUTATIVE)

    def test_substitute_additively_expands_lhs(self):
        s = seed(2, NONCOMMUTATIVE)
        t = substitute(s, {SEED_VAR: nc("x + y")})
        assert identity_to_string(t) == (
            "h(x^2 + x*y + y*x + y^2) = H(x)^2 + 2*H(x)*H(y) + H(y)^2"
        )

    def test_combine_tracks_denominators(self):
        s = seed(2, NONCOMMUTATIVE)
        t = combine([(Fraction(1, 6), s)])
        assert t.denominators == frozenset({2, 3})

    def test_zero_identity_is_allowed(self):
        s = seed(3, NONCOMMUTATIVE)
        z = combine([(1, s), (-1, s)])
        assert z.lhs.is_zero() and z.rhs.is_zero()

    def test_combine_is_bounded_by_the_merged_size(self):
        base = seed(10, NONCOMMUTATIVE)
        first = substitute(base, {SEED_VAR: nc("x + y + z")})
        second = substitute(base, {SEED_VAR: nc("w + t + a")})
        assert len(first.lhs.terms) * 10 == len(second.lhs.terms) * 10 == 590_490
        with pytest.raises(GuardError, match="expansion"):
            combine([(1, first), (1, second)])  # 1,180,980 letters
        assert combine([(1, first), (-1, first)]).lhs.is_zero()

    def test_equality_ignores_denominator_badge(self):
        a = parse_identity("h(x*y) = H(x)*H(y)", NONCOMMUTATIVE)
        b = HIdentity(a.lhs, a.rhs, frozenset({2, 3}))
        assert a == b
        assert hash(a) == hash(b)

    def test_substitute_rejects_nonlinear(self):
        s = seed(3, NONCOMMUTATIVE)
        with pytest.raises(ValueError):
            substitute(s, {SEED_VAR: nc("x*y")})


class TestLinearizationSteps:
    """The two-variable consequences of the cube seed, built by hand."""

    def test_first_polarization_of_the_cube(self):
        s = seed(3, NONCOMMUTATIVE)
        sx = substitute(s, {SEED_VAR: nc("x")})
        sy = substitute(s, {SEED_VAR: nc("y")})
        sxy = substitute(s, {SEED_VAR: nc("x + y")})
        mixed = combine([(1, sxy), (-1, sx), (-1, sy)])
        assert identity_to_string(mixed) == (
            "h(x^2*y + x*y*x + x*y^2 + y*x^2 + y*x*y + y^2*x)"
            " = 3*H(x)^2*H(y) + 3*H(x)*H(y)^2"
        )
        assert is_homogeneous(mixed, 3)

    def test_odd_part_isolates_the_y_square_block(self):
        s = seed(3, NONCOMMUTATIVE)
        sx = substitute(s, {SEED_VAR: nc("x")})
        sy = substitute(s, {SEED_VAR: nc("y")})
        sxy = substitute(s, {SEED_VAR: nc("x + y")})
        mixed = combine([(1, sxy), (-1, sx), (-1, sy)])
        flipped = substitute(mixed, {Y: nc("-y")})
        even = combine([(Fraction(1, 2), mixed), (Fraction(1, 2), flipped)])
        assert identity_to_string(even) == (
            "h(x*y^2 + y*x*y + y^2*x) = 3*H(x)*H(y)^2"
        )
        assert even.denominators == frozenset({2})

    def test_difference_of_transcribed_forms(self):
        # combining two parsed statements is plain linear algebra on terms
        first = parse_identity("h(x*y*x + 2*y*x^2) = 3*H(x)^2*H(y)", NONCOMMUTATIVE)
        swapped = parse_identity(
            "h(y*x^2 + x*y*x + x^2*y) = 3*H(x)^2*H(y)", NONCOMMUTATIVE
        )
        diff = combine([(1, first), (-1, swapped)])
        assert identity_to_string(diff) == "h(-x^2*y + y*x^2) = 0"

    def test_commutative_mode_collapses_orderings(self):
        s = seed(3, COMMUTATIVE)
        t = substitute(s, {SEED_VAR: parse_expr("x + y", COMMUTATIVE)})
        assert identity_to_string(t) == (
            "h(x^3 + 3*x^2*y + 3*x*y^2 + y^3)"
            " = H(x)^3 + 3*H(x)^2*H(y) + 3*H(x)*H(y)^2 + H(y)^3"
        )


class TestParsing:
    def test_round_trip(self):
        text = "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)"
        ident = parse_identity(text, NONCOMMUTATIVE)
        assert identity_to_string(ident) == text
        assert parse_identity(identity_to_string(ident), NONCOMMUTATIVE) == ident

    def test_badge_reflects_present_denominators(self):
        ident = parse_identity("h(1/6*x^2) = H(x)^2", NONCOMMUTATIVE)
        assert ident.denominators == frozenset({2, 3})
        plain = parse_identity("h(x^2) = H(x)^2", NONCOMMUTATIVE)
        assert plain.denominators == frozenset()

    def test_rejects_missing_equals(self):
        with pytest.raises(ValueError):
            parse_identity("h(x*y)", NONCOMMUTATIVE)

    def test_rejects_bad_lhs_head(self):
        with pytest.raises(ValueError):
            parse_identity("g(x*y) = H(x)*H(y)", NONCOMMUTATIVE)

    def test_rejects_constant_words(self):
        with pytest.raises(ValueError):
            parse_identity("h(x + 1) = H(x)", NONCOMMUTATIVE)

    def test_rejects_a_constant_right_side_and_accepts_one_letter(self):
        with pytest.raises(ValueError, match="rhs monomials must be nonempty"):
            parse_identity("h(x) = 1", NONCOMMUTATIVE)
        assert str(parse_identity("h(x) = H(x)", NONCOMMUTATIVE)) == "h(x) = H(x)"

    def test_homogeneity_check(self):
        assert is_homogeneous(parse_identity("h(x*y) = H(x)*H(y)", NONCOMMUTATIVE), 2)
        assert not is_homogeneous(
            parse_identity("h(x*y + x) = H(x)*H(y)", NONCOMMUTATIVE), 2
        )


class TestModelEvaluation:
    def test_identity_map_satisfies_everything_derived(self):
        z7 = models.make_zm(7)
        ident_map = models.AdditiveMap(z7, z7, np.eye(z7.dim, dtype=np.int64))
        for text in (
            "h(x*y*z) = H(x)*H(y)*H(z)",
            "h(x^2*y + x*y*x + y*x^2) = 3*H(x)^2*H(y)",
        ):
            rep = evaluate(parse_identity(text, NONCOMMUTATIVE), z7, z7, ident_map)
            assert rep.ok and rep.exhaustive

    def test_negation_satisfies_odd_but_not_even_products(self):
        z5 = models.make_zm(5)
        neg = models.negation_map(z5)
        odd = parse_identity("h(x*y*z) = H(x)*H(y)*H(z)", NONCOMMUTATIVE)
        even = parse_identity("h(x*y) = H(x)*H(y)", NONCOMMUTATIVE)
        assert evaluate(odd, z5, z5, neg).ok
        rep = evaluate(even, z5, z5, neg)
        assert not rep.ok
        assert rep.witness == {"x": [1], "y": [1]}

    def test_symmetrized_triple_holds_on_gap_model(self):
        dom, cod, h = models.gap_witness_model()
        sym = parse_identity(
            "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)",
            NONCOMMUTATIVE,
        )
        rep = evaluate(sym, dom, cod, h, max_assignments=2000, sample_seed=0)
        assert rep.ok and not rep.exhaustive

    def test_single_ordering_fails_on_gap_model(self):
        dom, cod, h = models.gap_witness_model()
        single = parse_identity("h(x*y*z) = H(x)*H(y)*H(z)", NONCOMMUTATIVE)
        rep = evaluate(single, dom, cod, h, max_assignments=2000, sample_seed=0)
        assert not rep.ok
        assert rep.witness is not None

    def test_sampling_requires_seed(self):
        dom, cod, h = models.gap_witness_model()
        single = parse_identity("h(x*y*z) = H(x)*H(y)*H(z)", NONCOMMUTATIVE)
        with pytest.raises(GuardError):
            evaluate(single, dom, cod, h, max_assignments=2000)

    def test_zero_assignments_are_refused(self):
        pair = models.ring_from_spec("zm:5^2")
        h = models.AdditiveMap(pair, pair, [[2, 0], [0, 0]])
        ident = parse_identity("h(x*y) = H(x)*H(y)", NONCOMMUTATIVE)
        assert not evaluate(ident, pair, pair, h).ok
        with pytest.raises(ValueError, match="sample count must be at least 1"):
            evaluate(ident, pair, pair, h, max_assignments=0, sample_seed=1)

    def test_denominator_must_be_invertible(self):
        z5 = models.make_zm(5)
        neg = models.negation_map(z5)
        bad = parse_identity("h(1/5*x*y) = H(x)*H(y)", NONCOMMUTATIVE)
        with pytest.raises(ValueError):
            evaluate(bad, z5, z5, neg)

    def test_a_denominator_is_refused_exactly_when_it_shares_a_factor_with_the_modulus(self):
        z3 = models.make_zm(3)
        neg = models.negation_map(z3)
        # 7 is 1 modulo 3, so invertible there
        assert not evaluate(parse_identity("h(1/7*x*y) = 1/7*H(x)*H(y)", NONCOMMUTATIVE), z3, z3, neg).ok
        assert evaluate(parse_identity("h(1/7*x) = 1/7*H(x)", NONCOMMUTATIVE), z3, z3, neg).ok
        with pytest.raises(ValueError, match="denominator prime 3 is not invertible modulo 3"):
            evaluate(parse_identity("h(1/3*x) = 1/3*H(x)", NONCOMMUTATIVE), z3, z3, neg)

    def test_noncommutative_codomain_rejected(self):
        m2 = models.matrix_ring(2, 2)
        ident = parse_identity("h(x^2) = H(x)^2", NONCOMMUTATIVE)
        h = models.AdditiveMap(m2, m2, np.eye(m2.dim, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate(ident, m2, m2, h)

    def test_commutative_mode_needs_a_commutative_domain_only(self):
        pair, m2 = models.ring_from_spec("zm:5^2"), models.matrix_ring(2, 5)
        ident = parse_identity("h(x*y) = H(x)*H(y)", COMMUTATIVE)
        assert evaluate(ident, pair, pair, models.AdditiveMap(pair, pair, np.eye(2, dtype=np.int64))).ok
        with pytest.raises(ValueError, match="commutative domain"):
            evaluate(ident, m2, pair, models.AdditiveMap(m2, pair, np.zeros((2, 4), dtype=np.int64)))

    def test_each_map_endpoint_must_be_the_given_ring(self):
        pair, other = models.ring_from_spec("zm:5^2"), models.ring_from_spec("zm:5^2")
        ident = parse_identity("h(x*y) = H(x)*H(y)", NONCOMMUTATIVE)
        for dom, cod in ((pair, other), (other, pair)):
            h = models.AdditiveMap(dom, cod, np.eye(2, dtype=np.int64))
            with pytest.raises(ValueError, match="map endpoints"):
                evaluate(ident, pair, pair, h)

    def test_the_zero_identity_holds_on_its_one_empty_assignment(self):
        s = seed(3, NONCOMMUTATIVE)
        z5 = models.make_zm(5)
        rep = evaluate(combine([(1, s), (-1, s)]), z5, z5, models.negation_map(z5))
        assert (rep.ok, rep.checked, rep.space, rep.exhaustive, rep.witness) == (True, 1, 1, True, None)
