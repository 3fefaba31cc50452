"""Derivation replay, span checking, and certificate round trips."""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from njordan import derivation, exact
from njordan.derivation import (
    BUILTIN_SCRIPTS,
    AssertEquals,
    Certificate,
    Combine,
    DerivationScript,
    InSpan,
    NotInSpan,
    Seed,
    Substitute,
    consequence_check,
    generate_instances,
    dumps,
    replay,
    verify_certificate,
)
from njordan.errors import GuardError
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE, FreePoly, linear_form, parse_expr, to_string
from njordan.identities import SEED_VAR, combine, identity_to_string, parse_identity, seed, substitute

SYM_SIX = "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)"
SINGLE = "h(x*y*z) = H(x)*H(y)*H(z)"


class TestReplayBuiltins:
    def test_cube_commutative_chain_passes(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_2_n3"])
        assert not tr.failed
        assert tr.assertions_passed == 2
        assert set(tr.denominators) == {2, 3}
        assert tr.final_identity() == SINGLE

    def test_fourth_power_commutative_chain_passes(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_2_n4"])
        assert not tr.failed
        assert tr.assertions_passed == 6
        labels = [r.label for r in tr.steps if r.kind == "assertequals"]
        assert labels == ["(2)", "(3)", "(4)", "(5)", "(6)", "final"]
        # commutative canonical form sorts the word by variable id
        assert tr.final_identity() == "h(x*y*w*t) = H(x)*H(y)*H(w)*H(t)"

    def test_square_commutative_chain_passes(self):
        tr = replay(BUILTIN_SCRIPTS["n2_comm"])
        assert not tr.failed
        assert set(tr.denominators) == {2}
        assert tr.final_identity() == "h(x*y) = H(x)*H(y)"

    def test_noncommutative_chain_refutes_transcribed_forms(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_5_step1"])
        assert tr.failed
        assert tr.assertions_passed == 4
        assert tr.assertions_failed == 8
        outcomes = {
            r.label: r.passed for r in tr.steps if r.kind == "assertequals"
        }
        assert outcomes == {
            "(7)": True,
            "(8)": True,
            "(9)": True,
            "(10)": True,
            "(11)": False,
            "(12)": False,
            "(13)": False,
            "(14)": False,
            "(15)": False,
            "(17)": False,
            "(18)": False,
            "final": False,
        }

    def test_noncommutative_chain_divergences_are_specific(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_5_step1"])
        div = {
            r.label: r.divergence
            for r in tr.steps
            if r.kind == "assertequals" and not r.passed
        }
        assert div["(11)"] == "lhs term x*y*z: 1 vs 2"
        assert div["final"] == "lhs term x*y*z: 1/6 vs 0"

    def test_noncommutative_chain_flags_transcription_mismatches(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_5_step1"])
        noted = [r.label for r in tr.steps if r.kind == "assertequals" and r.note]
        assert "(10)" in noted and "(11)" in noted

    def test_symmetrized_noncommutative_chain_passes(self):
        tr = replay(BUILTIN_SCRIPTS["thm2_5_step1_sym"])
        assert not tr.failed
        assert tr.assertions_passed == 8
        assert set(tr.denominators) == {2}
        assert tr.final_identity() == SYM_SIX

    def test_replay_is_deterministic(self):
        a = dumps(dataclasses.asdict(replay(BUILTIN_SCRIPTS["thm2_5_step1"])))
        b = dumps(dataclasses.asdict(replay(BUILTIN_SCRIPTS["thm2_5_step1"])))
        assert a == b

    def test_trace_json_has_no_wall_time(self):
        payload = json.loads(dumps(dataclasses.asdict(replay(BUILTIN_SCRIPTS["thm2_2_n3"]))))
        assert "wall_time" not in payload


class TestScriptValidation:
    def test_forward_reference_rejected(self):
        # step #2 naming #5, and step #2 naming itself
        for ref in (5, 2):
            script = DerivationScript("bad", NONCOMMUTATIVE, (Seed(3), Substitute(ref, {"a": "x"})))
            with pytest.raises(ValueError, match="not an earlier step"):
                replay(script)

    def test_duplicate_assert_labels_rejected(self):
        script = DerivationScript(
            "bad",
            NONCOMMUTATIVE,
            (
                Seed(3),
                AssertEquals(1, "h(a^3) = H(a)^3", "L"),
                AssertEquals(1, "h(a^3) = H(a)^3", "L"),
            ),
        )
        with pytest.raises(ValueError):
            replay(script)

    def test_failed_assertion_is_recorded_not_raised(self):
        script = DerivationScript(
            "probe",
            NONCOMMUTATIVE,
            (Seed(3), AssertEquals(1, "h(a^3) = 2*H(a)^3", "off")),
        )
        tr = replay(script)
        assert tr.failed and tr.assertions_failed == 1
        assert tr.steps[1].divergence == "rhs term H(a)^3: 1 vs 2"


class TestInstanceGeneration:
    def test_counts_for_three_variables(self):
        assert len(generate_instances(3, ("x", "y", "z"), 1)) == 13
        assert len(generate_instances(3, ("x",), 1)) == 1
        assert len(generate_instances(3, ("x", "y", "z"), 2)) == 62

    def test_instances_are_deduplicated_up_to_sign(self):
        inst = generate_instances(3, ("x", "y"), 1)
        exprs = [i.expr for i in inst]
        assert len(exprs) == len(set(exprs)) == 4
        # the sign representative keeps the lexicographically smaller vector
        assert "-x" in exprs[0]

    def test_variable_guard(self):
        with pytest.raises(GuardError):
            generate_instances(3, ("x", "y", "z", "w", "t"), 1)

    def test_instances_past_the_cap_together_are_refused_even_with_override(self):
        # x, y, z with range 1: 736,263 letters together at n = 9, 2.4 million at n = 10
        assert len(generate_instances(9, ("x", "y", "z"), 1)) == 13
        for override in (False, True):
            with pytest.raises(GuardError, match="expansion exceeds the cap"):
                generate_instances(10, ("x", "y", "z"), 1, override=override)

    def test_coefficient_guard_with_override(self):
        with pytest.raises(GuardError):
            generate_instances(3, ("x",), 3)
        assert len(generate_instances(3, ("x",), 3, override=True)) == 3


SPAN_BATTERY_N3_C1 = [
    (SYM_SIX, True),
    (SINGLE, False),
    ("h(y*x*z) = H(y)*H(x)*H(z)", False),
    ("h(y*x*z + z*x*y + 2*x*y*z + 2*y*z*x) = 6*H(x)*H(y)*H(z)", False),
    ("h(3*y*x^2 + x^2*y + 2*x*y*x) = 6*H(x)^2*H(y)", False),
    ("h(x*y*x + 2*y*x^2) = 3*H(x)^2*H(y)", False),
    ("h(y*x^2 - x^2*y) = 0", False),
    ("h(y*x*z - x*z*y) = 0", False),
    ("h(y*x*z + y*z*x - x*z*y - z*x*y) = 0", False),
    ("h(y*x*z + y*z*x - x*z*y - z*x*y + x*y*z - z*y*x) = 0", False),
    ("h(x*y*x + y*x^2) = 2*H(x)^2*H(y)", False),
    ("h(y*x^2) = H(y)*H(x)^2", False),
    ("h(y*x*z + y*z*x) = 2*H(x)*H(y)*H(z)", False),
    ("h(x^2*y + x*y*x + y*x^2) = 3*H(x)^2*H(y)", True),
    (
        "h(x*y^2 + x*z^2 - x*y*z - x*z*y + y^2*x + z^2*x - y*z*x - z*y*x"
        " + y*x*y + z*x*z - y*x*z - z*x*y)"
        " = 3*H(x)*H(y)^2 + 3*H(x)*H(z)^2 - 6*H(x)*H(y)*H(z)",
        True,
    ),
    (
        "h(x^2*y + x*y*x + x*y^2 + y*x^2 + y*x*y + y^2*x)"
        " = 3*H(x)^2*H(y) + 3*H(x)*H(y)^2",
        True,
    ),
    ("h(x*y^2 + y*x*y + y^2*x) = 3*H(x)*H(y)^2", True),
]


class TestConsequenceCheck:
    @pytest.mark.parametrize("target,member", SPAN_BATTERY_N3_C1)
    def test_span_battery_unit_coefficients(self, target, member):
        result = consequence_check(3, target, ("x", "y", "z"), 1)
        assert result.member is member
        assert result.rank == 10
        assert result.n_instances == 13
        if member:
            assert verify_certificate(result.certificate)

    @pytest.mark.parametrize(
        "target,member",
        [(SYM_SIX, True), ("h(y*x*z) = H(y)*H(x)*H(z)", False),
         ("h(y*x^2) = H(y)*H(x)^2", False)],
    )
    def test_span_battery_wider_coefficients(self, target, member):
        result = consequence_check(3, target, ("x", "y", "z"), 2)
        assert result.member is member
        assert result.rank == 10
        assert result.n_instances == 62

    def test_commutative_mode_reaches_single_ordering(self):
        result = consequence_check(3, SINGLE, ("x", "y", "z"), 1, mode=COMMUTATIVE)
        assert isinstance(result, InSpan)
        assert result.rank == 10
        assert verify_certificate(result.certificate)

    def test_square_seed_pair_versus_single(self):
        single = consequence_check(2, "h(x*y) = H(x)*H(y)", ("x", "y", "z"), 2)
        pair = consequence_check(2, "h(x*y + y*x) = 2*H(x)*H(y)", ("x", "y", "z"), 2)
        assert isinstance(single, NotInSpan)
        assert single.rank == 6
        assert isinstance(pair, InSpan)
        assert verify_certificate(pair.certificate)

    def test_not_in_span_reports_residual(self):
        result = consequence_check(3, "h(y*x*z) = H(y)*H(x)*H(z)", ("x", "y", "z"), 1)
        assert isinstance(result, NotInSpan)
        assert result.residual == "h(y*x*z) = H(x)*H(y)*H(z)"

    def test_finite_field_verdicts_match_rationals(self):
        for field in ("GF(5)", "GF(7)"):
            assert isinstance(
                consequence_check(3, SYM_SIX, ("x", "y", "z"), 1, field=field), InSpan
            )
            assert isinstance(
                consequence_check(3, SINGLE, ("x", "y", "z"), 1, field=field),
                NotInSpan,
            )

    def test_characteristic_two_drops_rank(self):
        result = consequence_check(3, SINGLE, ("x", "y", "z"), 1, field="GF(2)")
        assert isinstance(result, NotInSpan)
        assert result.rank == 7

    def test_composite_field_rejected(self):
        with pytest.raises(ValueError):
            consequence_check(3, SINGLE, ("x", "y", "z"), 1, field="GF(6)")

    def test_inhomogeneous_target_rejected(self):
        with pytest.raises(ValueError):
            consequence_check(3, "h(x*y) = H(x)*H(y)", ("x", "y"), 1)

    def test_single_variable_certificate_uses_sign_representative(self):
        result = consequence_check(3, "h(x^3) = H(x)^3", ("x",), 1)
        assert isinstance(result, InSpan)
        assert result.certificate.instances == (("-x", "-1"),)
        assert verify_certificate(result.certificate)


class TestCertificates:
    def fresh(self) -> Certificate:
        result = consequence_check(3, SYM_SIX, ("x", "y", "z"), 1)
        assert isinstance(result, InSpan)
        return result.certificate

    def test_json_round_trip(self):
        cert = self.fresh()
        again = Certificate.from_json(cert.to_json())
        assert again == cert
        assert verify_certificate(again)

    def test_verification_checks_against_supplied_target(self):
        cert = self.fresh()
        assert verify_certificate(dataclasses.replace(cert, target=SYM_SIX))
        assert not verify_certificate(dataclasses.replace(cert, target=SINGLE))

    def test_tampered_coefficient_fails(self):
        cert = self.fresh()
        subst, coeff = cert.instances[0]
        bad = Certificate(
            cert.n,
            cert.mode,
            cert.field,
            cert.target,
            (( subst, str(Fraction(coeff) + 1)),) + cert.instances[1:],
        )
        assert not verify_certificate(bad)

    def test_tampered_substitution_fails(self):
        cert = self.fresh()
        subst, coeff = cert.instances[0]
        bad = Certificate(
            cert.n,
            cert.mode,
            cert.field,
            cert.target,
            (("x + y + z", coeff),) + cert.instances[1:],
        )
        assert not verify_certificate(bad)

    def test_prime_field_certificate_verdicts(self):
        result = consequence_check(3, SYM_SIX, ("x", "y", "z"), 1, field="GF(7)")
        assert isinstance(result, InSpan)
        cert = result.certificate
        subst, coeff = cert.instances[0]

        def variant(new_coeff: str, field: str = "GF(7)") -> Certificate:
            instances = ((subst, new_coeff),) + cert.instances[1:]
            return Certificate(cert.n, cert.mode, field, cert.target, instances)

        assert verify_certificate(cert)
        assert not verify_certificate(variant(str(Fraction(coeff) + 1)))
        assert verify_certificate(variant(str(Fraction(coeff) + 7)))
        assert not verify_certificate(variant("1/7"))
        for tampered in (coeff, str(Fraction(coeff) + 7)):
            assert not verify_certificate(variant(tampered, field="Q"))

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Certificate.from_json("{\"n\": 3}")
        with pytest.raises(ValueError):
            Certificate.from_json("not json at all")

    def test_unparsable_expression_returns_false(self):
        cert = self.fresh()
        bad = Certificate(
            cert.n, cert.mode, cert.field, cert.target, (("x +", "1"),)
        )
        assert not verify_certificate(bad)

    def test_coefficient_size_is_bounded(self):
        cert = self.fresh()
        subst, _ = cert.instances[0]

        def variant(coeff: str) -> Certificate:
            return Certificate(cert.n, cert.mode, cert.field, cert.target, ((subst, coeff),) + cert.instances[1:])

        bound = derivation.MAX_COEFF_DIGITS
        # at the bound a coefficient is read and simply does not verify; a
        # decimal or an exponent is outside the p/q grammar at any length
        at_bound = ("7" * bound, "7/1" + "0" * (bound - 3))
        for coeff in at_bound + ("0.5", f"1e{bound + 1}", f"2.5e+{bound}", "1e10000000"):
            assert not verify_certificate(variant(coeff))
        for coeff in ("7" * (bound + 1), "7/1" + "0" * (bound - 2), "1e" + "0" * bound):
            with pytest.raises(GuardError, match="coefficient exceeds"):
                verify_certificate(variant(coeff))

    def test_fuzz_random_members_round_trip(self):
        rng = random.Random(7)
        instances = generate_instances(3, ("x", "y", "z"), 1)
        for _ in range(100):
            picks = rng.sample(range(len(instances)), rng.randint(1, 5))
            coeffs = [
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
                for _ in picks
            ]
            target = combine(
                [(c, instances[i].identity) for c, i in zip(coeffs, picks)]
            )
            if target.lhs.is_zero() and target.rhs.is_zero():
                continue
            result = consequence_check(3, identity_to_string(target), ("x", "y", "z"), 1)
            assert isinstance(result, InSpan), identity_to_string(target)
            assert verify_certificate(result.certificate)


# Certificate mutations: consequence_check's certificate for a random
# combination of seed instances, with one part changed.  Over Q every change
# below alters the recombined identity, so verification must fail; over
# GF(7) only a coefficient change divisible by 7 leaves it intact.
VARS = ("x", "y", "z")
INSTANCES = {mode: generate_instances(3, VARS, 1, mode) for mode in (NONCOMMUTATIVE, COMMUTATIVE)}
DELTAS = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.sampled_from([1, 2, 3, 5]))
MUTATION_SETTINGS = settings(max_examples=20, deadline=None, database=None)


@st.composite
def fresh_certificates(draw, field: str):
    mode = draw(st.sampled_from([NONCOMMUTATIVE, COMMUTATIVE]))
    instances = INSTANCES[mode]
    picks = draw(st.lists(st.integers(0, len(instances) - 1), min_size=1, max_size=4, unique=True))
    target = combine([(draw(DELTAS), instances[i].identity) for i in picks])
    result = consequence_check(3, identity_to_string(target), VARS, 1, field=field, mode=mode)
    assert isinstance(result, InSpan)
    assume(result.certificate.instances)
    return result.certificate


def _with_coefficient(cert: Certificate, index: int, delta: Fraction) -> Certificate:
    instances = list(cert.instances)
    form, coeff = instances[index % len(instances)]
    instances[index % len(instances)] = (form, str(Fraction(coeff) + delta))
    return dataclasses.replace(cert, instances=tuple(instances))


class TestCertificateMutation:
    @MUTATION_SETTINGS
    @given(fresh_certificates("Q"), st.integers(0, 20), DELTAS)
    def test_changed_coefficient_is_rejected(self, cert, index, delta):
        assert verify_certificate(cert)
        assert not verify_certificate(_with_coefficient(cert, index, delta))

    @MUTATION_SETTINGS
    @given(fresh_certificates("Q"), st.integers(0, 100), DELTAS)
    def test_changed_target_coefficient_is_rejected(self, cert, index, delta):
        target = parse_identity(cert.target, cert.mode)
        sides = [("lhs", word) for word, _ in target.lhs.terms] + [("rhs", word) for word, _ in target.rhs.terms]
        side, word = sides[index % len(sides)]
        old = getattr(target, side)
        changed = dataclasses.replace(target, **{side: old + FreePoly.from_terms([(word, delta)], old.mode)})
        assert not verify_certificate(dataclasses.replace(cert, target=identity_to_string(changed)))

    @MUTATION_SETTINGS
    @given(fresh_certificates("Q"), st.integers(0, 20), st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_replaced_form_is_rejected(self, cert, index, eps):
        # h(L^n) determines L up to sign, so any other nonzero form changes the sum
        instances = list(cert.instances)
        form, coeff = instances[index % len(instances)]
        new = linear_form(dict(enumerate(eps)), cert.mode)
        old = parse_expr(form, cert.mode)
        assume(not new.is_zero() and new not in (old, -old))
        instances[index % len(instances)] = (to_string(new), coeff)
        assert not verify_certificate(dataclasses.replace(cert, instances=tuple(instances)))

    @MUTATION_SETTINGS
    @given(fresh_certificates("GF(7)"), st.integers(0, 20), DELTAS, st.integers(-3, 3).filter(bool))
    def test_prime_field_rejects_exactly_the_changes_not_divisible_by_p(self, cert, index, delta, k):
        assert verify_certificate(cert)
        assert verify_certificate(_with_coefficient(cert, index, 7 * k))
        assume(delta.numerator % 7)
        assert not verify_certificate(_with_coefficient(cert, index, delta))


# The materialised oracle: every instance expanded from its printed linear
# form into a list of vectors before elimination starts, as consequence_check
# did before it streamed them.
EXTRA_TARGETS = [SINGLE, "h(y*x^2 - x^2*y) = 0", "h(x*y*z) = 0"]


def _materialised(n, target, variables, coeff_range, field, mode):
    instances = generate_instances(n, variables, coeff_range, mode)
    base = seed(n, mode)
    expanded = [substitute(base, {SEED_VAR: parse_expr(inst.expr, mode)}) for inst in instances]
    vectors = [derivation._identity_vector(ident) for ident in expanded]
    p = derivation._parse_field(field)
    independent, combo, residual = exact.eliminate(vectors, derivation._identity_vector(target), p)
    return instances, len(independent), combo, residual


class TestStreamedSpanCheck:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        st.sampled_from([NONCOMMUTATIVE, COMMUTATIVE]),
        st.sampled_from(["Q", "GF(7)"]),
        st.sampled_from([("x", "y"), VARS]),
        st.integers(1, 2),
        st.lists(st.tuples(st.integers(0, len(INSTANCES[COMMUTATIVE]) - 1), DELTAS), min_size=1, max_size=4),
        st.lists(st.sampled_from(EXTRA_TARGETS), max_size=1),
    )
    def test_matches_the_materialised_elimination(self, mode, field, variables, coeff_range, picks, extra):
        instances = INSTANCES[mode]
        parts = [(c, instances[i].identity) for i, c in picks]
        parts += [(1, parse_identity(text, mode)) for text in extra]
        target = combine(parts)
        assume(not (target.lhs.is_zero() and target.rhs.is_zero()))
        result = consequence_check(3, target, variables, coeff_range, field=field, mode=mode)
        kept, rank, combo, residual = _materialised(3, target, variables, coeff_range, field, mode)
        assert (result.rank, result.n_instances, result.member) == (rank, len(kept), combo is not None)
        if combo is None:
            assert result.residual == derivation._residual_string(residual, mode)
        else:
            expected = tuple((kept[i].expr, str(combo[i])) for i in sorted(combo))
            assert result.certificate.instances == expected

    def test_peak_memory_holds_one_expanded_instance(self):
        # 312 instances of about 291 terms each: expanding them all first peaked at 7.4 MiB
        target = "h(x*y*z*w + y*x*z*w) = H(x)*H(y)*H(z)*H(w) + H(y)*H(x)*H(z)*H(w)"
        tracemalloc.start()
        try:
            result = consequence_check(4, target, "xyzw", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.rank, result.n_instances) == (35, 312)
        assert peak < 2 * 2 ** 20
