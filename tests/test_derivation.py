"""Derivation replay, span checking, and certificate round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from njordan import derivation
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
    replay,
    trace_to_json,
    verify_certificate,
)
from njordan.errors import GuardError
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE

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
        a = trace_to_json(replay(BUILTIN_SCRIPTS["thm2_5_step1"]))
        b = trace_to_json(replay(BUILTIN_SCRIPTS["thm2_5_step1"]))
        assert a == b

    def test_trace_json_has_no_wall_time(self):
        payload = json.loads(trace_to_json(replay(BUILTIN_SCRIPTS["thm2_2_n3"])))
        assert "wall_time" not in payload


class TestScriptValidation:
    def test_forward_reference_rejected(self):
        script = DerivationScript(
            "bad", NONCOMMUTATIVE, (Seed(3), Substitute(5, {"a": "x"}))
        )
        with pytest.raises(ValueError):
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
        assert verify_certificate(cert, SYM_SIX)
        assert not verify_certificate(cert, SINGLE)

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
        # at the bound a coefficient is read and simply does not verify
        for coeff in (f"1e{bound}", f"1E-{bound}", "7" * bound, f"2.5e+{bound}"):
            assert not verify_certificate(variant(coeff))
        for coeff in (f"1e{bound + 1}", f"-1e-{bound + 1}", "1.0E1_000_000", "7" * (bound + 1)):
            with pytest.raises(GuardError, match="coefficient exceeds"):
                verify_certificate(variant(coeff))

    def test_fuzz_random_members_round_trip(self):
        rng = random.Random(7)
        instances = generate_instances(3, ("x", "y", "z"), 1)
        from njordan.identities import combine, identity_to_string as i2s

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
            result = consequence_check(3, i2s(target), ("x", "y", "z"), 1)
            assert isinstance(result, InSpan), i2s(target)
            assert verify_certificate(result.certificate)
