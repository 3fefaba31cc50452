"""End-to-end command line behavior and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from njordan import cstar_num, derivation, freealg, models
from njordan.cli import _integer, build_parser, main
from njordan.errors import GuardError
from njordan.identities import combine, identity_to_string


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# a 100-bit prime: no factor below the trial-division bound, and past its square
BIG_PRIME = 10 ** 30 + 57


class TestReplayCommand:
    def test_passing_script_exits_zero(self, capsys):
        code, out, _ = run(["replay", "--script", "thm2_2_n3"], capsys)
        assert code == 0
        assert "final PASS" in out

    def test_failing_script_exits_one(self, capsys):
        code, out, _ = run(["replay", "--script", "thm2_5_step1"], capsys)
        assert code == 1
        assert "final FAIL" in out

    def test_unknown_script_exits_two(self, capsys):
        code, _, err = run(["replay", "--script", "nope"], capsys)
        assert code == 2
        assert "available" in err

    def test_json_output_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["replay", "--script", "thm2_5_step1", "--json", str(a)], capsys)
        run(["replay", "--script", "thm2_5_step1", "--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["script"] == "thm2_5_step1"


class TestConsequenceCommand:
    MEMBER = "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)"
    NONMEMBER = "h(y*x*z) = H(y)*H(x)*H(z)"

    def test_member_writes_verifiable_certificate(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code, out, _ = run(
            ["consequence", "--n", "3", "--target", self.MEMBER, "--cert", str(cert)],
            capsys,
        )
        assert code == 0
        assert "IN SPAN" in out
        code2, out2, _ = run(["verify-cert", str(cert)], capsys)
        assert code2 == 0
        assert "valid" in out2

    def test_nonmember_exits_one_with_rank(self, capsys):
        code, out, _ = run(
            ["consequence", "--n", "3", "--target", self.NONMEMBER], capsys
        )
        assert code == 1
        assert "NOT IN SPAN" in out and "rank 10" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run(
            ["consequence", "--n", "3", "--target", "h(x*y*"], capsys
        )
        assert code == 2
        assert err

    @pytest.mark.parametrize("depth,expected", [(freealg.MAX_DEPTH, 0), (freealg.MAX_DEPTH + 1, 2), (200, 2)])
    def test_nesting_past_the_bound_exits_two(self, depth, expected, capsys):
        target = "h(" + "(" * depth + "x^2" + ")" * depth + ") = H(x)^2"
        start = time.perf_counter()
        code, _, err = run(["consequence", "--n", "2", "--vars", "x", "--target", target], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == expected
        assert ("nest deeper than" in err) == (expected == 2)

    @pytest.mark.parametrize("names", ["x,q", "x,v\u0661", "x,V1", "x,xy"])
    def test_unknown_variable_names_exit_two(self, names, capsys):
        code, _, err = run(["consequence", "--n", "2", "--target", "h(x^2) = H(x)^2", "--vars", names], capsys)
        assert code == 2
        assert err == f"error: unknown variable name {names.split(',')[1]!r}\n"

    @pytest.mark.parametrize("names,message", [
        ("x,x", "variable 'x' is repeated"),
        ("x,y,x", "variable 'x' is repeated"),
        (",", "at least one variable is needed"),
    ])
    def test_repeated_or_missing_variables_exit_two(self, names, message, capsys):
        code, out, err = run(["consequence", "--n", "3", "--target", "h(x^3) = H(x)^3", "--vars", names], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_long_unknown_variable_name_is_quoted_to_forty_characters(self, capsys):
        name = "q" * 1000
        code, _, err = run(["consequence", "--n", "2", "--target", "h(x^2) = H(x)^2", "--vars", f"x,{name}"], capsys)
        assert code == 2
        assert err == f"error: unknown variable name {name[:40]!r}...\n"

    # trial division would run to the square root of a 100-bit prime
    @pytest.mark.parametrize("extra", [
        ["--target", f"h(1/{BIG_PRIME}*x^2) = 1/{BIG_PRIME}*H(x)^2"],
        ["--target", "h(x^2) = H(x)^2", "--field", f"GF({BIG_PRIME})"],
    ])
    def test_unfactorable_denominator_or_field_exits_two_quickly(self, extra, capsys):
        start = time.perf_counter()
        code, _, err = run(["consequence", "--n", "2", "--vars", "x", *extra], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "no prime factor up to" in err

    # the left side's text is parsed on its own, so positions count from its first character
    @pytest.mark.parametrize("target,what,position", [
        ("h(" + "1" * 5000 + "*x^2) = H(x)^2", "integer", 0),
        ("h(x^" + "1" * 5000 + ") = H(x)^2", "integer", 2),
        ("h(v" + "1" * 5000 + "^2) = H(x)^2", "name", 0),
    ], ids=["coefficient", "exponent", "variable"])
    def test_integers_past_the_digit_limit_exit_two(self, target, what, position, capsys):
        code, _, err = run(["consequence", "--n", "2", "--vars", "x", "--target", target], capsys)
        assert code == 2
        limit = sys.get_int_max_str_digits()
        assert err == f"error: {what} longer than {limit} characters (at position {position})\n"

    @pytest.mark.parametrize("field", ["GF( 7 )", "GF(+7)", "GF(0_7)", "GF(\u0667)", "GF(7.0)"])
    def test_field_other_than_ascii_digits_exits_two(self, field, capsys):
        code, _, err = run(["consequence", "--n", "2", "--vars", "x", "--target", "h(x^2) = H(x)^2",
                            "--field", field], capsys)
        assert code == 2
        assert err == f"error: unrecognized field {field!r}; use 'Q' or 'GF(p)'\n"

    def test_field_prime_past_two_to_the_forty_is_decided(self, capsys):
        code, out, _ = run(
            ["consequence", "--n", "2", "--vars", "x", "--target", "h(x^2) = H(x)^2", "--field", "GF(1099511627791)"],
            capsys,
        )
        assert code == 0
        assert "IN SPAN" in out

    def test_coefficient_guard_exits_two_without_override(self, capsys):
        code, _, err = run(
            ["consequence", "--n", "3", "--target", self.MEMBER, "--coeff-range", "3"],
            capsys,
        )
        assert code == 2
        assert "guard refused" in err

    def test_seed_power_whose_instances_pass_the_cap_exits_two_before_eliminating(self, capsys):
        # x, y, z with range 1 at n = 10: the 3-term instances expand to 3^10 * 10
        # letters each, 2.4 million for the 13 instances together
        start = time.perf_counter()
        code, out, err = run(["consequence", "--n", "10", "--target", "h(x^10) = H(x)^10"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"guard refused: expansion exceeds the cap of {freealg.EXPANSION_CAP} letters\n"

    def test_certificate_of_the_largest_accepted_seed_power_verifies(self, capsys):
        # x, y, z with range 1 at n = 9: the 13 instances expand to 736,263 letters
        # together, so a certificate over any of them is under verify-cert's bound
        instances = derivation.generate_instances(9, "xyz", 1)
        largest = [inst.identity for inst in instances if len(inst.form.terms) == 3][:2]
        target = identity_to_string(combine([(1, ident) for ident in largest]))
        code, out, err = run(["consequence", "--n", "9", "--target", target], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("IN SPAN: rank 13, 13 instances, certificate uses 2 of them,")
        assert out.endswith("independent verification passed\n")

    def test_override_lifts_the_guard(self, capsys):
        code, out, _ = run(
            [
                "consequence",
                "--n",
                "3",
                "--target",
                self.MEMBER,
                "--coeff-range",
                "3",
                "--unsafe-override",
            ],
            capsys,
        )
        assert code == 0

    def test_json_report_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["consequence", "--n", "3", "--target", self.MEMBER]
        run(args + ["--json", str(a)], capsys)
        run(args + ["--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCertCommand:
    def fresh_cert(self, tmp_path, capsys) -> str:
        cert = tmp_path / "cert.json"
        run(
            [
                "consequence",
                "--n",
                "3",
                "--target",
                TestConsequenceCommand.MEMBER,
                "--cert",
                str(cert),
            ],
            capsys,
        )
        return str(cert)

    def test_tampered_certificate_exits_one(self, tmp_path, capsys):
        path = self.fresh_cert(tmp_path, capsys)
        payload = json.loads(open(path).read())
        payload["instances"][0]["coeff"] = "7"
        open(path, "w").write(json.dumps(payload))
        code, out, _ = run(["verify-cert", path], capsys)
        assert code == 1
        assert "INVALID" in out

    @pytest.mark.parametrize("field", ["GF( 7 )", "GF(+7)", "GF(0_7)", "GF(\u0667)"])
    def test_field_other_than_ascii_digits_is_invalid(self, field, tmp_path, capsys):
        path = self.fresh_cert(tmp_path, capsys)
        payload = json.loads(open(path).read())
        payload["field"] = "GF(7)"
        open(path, "w").write(json.dumps(payload))
        assert run(["verify-cert", path], capsys)[0] == 0
        payload["field"] = field
        open(path, "w").write(json.dumps(payload))
        code, out, _ = run(["verify-cert", path], capsys)
        assert code == 1
        assert "INVALID" in out

    # Fraction reads each of these, "-1_0" as -10, and verified it as that value;
    # a certificate writes a coefficient as an integer or p/q, never a decimal
    @pytest.mark.parametrize("coeff", ["-\u0661", " -1 ", "-1_0", "+1", "-1.0", "-1e0"])
    def test_coefficient_outside_the_ascii_grammar_is_invalid(self, coeff, tmp_path, capsys):
        value = int(Fraction(coeff))
        path = tmp_path / "cert.json"
        cert = {"n": 3, "mode": "nc", "field": "Q", "target": f"h({-value}*x^3) = {-value}*H(x)^3",
                "instances": [{"subst": {"a": "-x"}, "coeff": coeff}]}
        for text, code in ((str(value), 0), (coeff, 1)):
            cert["instances"][0]["coeff"] = text
            path.write_text(json.dumps(cert))
            assert run(["verify-cert", str(path)], capsys)[0] == code

    def test_truncated_file_exits_two(self, tmp_path, capsys):
        path = self.fresh_cert(tmp_path, capsys)
        text = open(path).read()
        open(path, "w").write(text[: len(text) // 2])
        code, _, err = run(["verify-cert", path], capsys)
        assert code == 2

    @pytest.mark.parametrize("n", [11, 10 ** 9])
    def test_oversized_expansion_exits_two_quickly(self, n, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": n, "mode": "nc", "field": "Q", "target": "h(x^11) = H(x)^11",
            "instances": [{"subst": {"a": "x + y + z"}, "coeff": "1"}],
        }))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "expansion exceeds" in err

    def test_oversized_coefficient_exits_two_quickly(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        cert = {"n": 3, "mode": "nc", "field": "Q", "target": "h(x^3) = H(x)^3",
                "instances": [{"subst": {"a": "x"}, "coeff": "1" * 1001}]}
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "coefficient exceeds" in err
        # an exponent is outside the written p/q grammar: INVALID, never expanded
        cert["instances"][0]["coeff"] = "1e10000000"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "INVALID" in out

    def test_unfactorable_coefficient_denominator_exits_two_quickly(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 2, "mode": "nc", "field": "Q", "target": "h(x^2) = H(x)^2",
            "instances": [{"subst": {"a": "-x"}, "coeff": f"1/{BIG_PRIME}"}],
        }))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "no prime factor up to" in err

    def test_instances_past_the_cap_together_exit_two_quickly(self, tmp_path, capsys):
        # each instance alone expands to 7^6 * 6 = 705,894 letters, under the cap;
        # expanded one after another, three of them took 6 s and 91 MB
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 6, "mode": "nc", "field": "Q", "target": "h(x^6) = H(x)^6",
            "instances": [{"subst": {"a": "x + y + z + w + t + a + b"}, "coeff": "1"}] * 3,
        }))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"guard refused: expansion exceeds the cap of {freealg.EXPANSION_CAP} letters\n"

    def test_every_instance_of_the_largest_unguarded_class_is_under_the_cap(self, tmp_path, capsys):
        # n = 4 over four variables with coefficients in -2..2: a certificate over all
        # 312 instances expands, the target being wrong, to INVALID rather than a
        # guard refusal
        instances = derivation.generate_instances(4, "xyzw", derivation.MAX_COEFF)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 4, "mode": "nc", "field": "Q", "target": "h(x^4) = H(x)^4",
            "instances": [{"subst": {"a": inst.expr}, "coeff": "1"} for inst in instances],
        }))
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert (len(instances), code, err) == (312, 1, "")
        assert out.endswith(": INVALID\n")

    @pytest.mark.parametrize("key", ["mode", "field", "target", "subst.a"])
    @pytest.mark.parametrize("value", [5, None, ["x"], {"b": 1}], ids=["int", "null", "list", "object"])
    def test_text_fields_must_be_json_strings(self, key, value, tmp_path, capsys):
        path = tmp_path / "cert.json"
        cert = {"n": 3, "mode": "nc", "field": "Q", "target": "h(x^3) = H(x)^3",
                "instances": [{"subst": {"a": "-x"}, "coeff": "-1"}]}
        path.write_text(json.dumps(cert))
        assert run(["verify-cert", str(path)], capsys)[0] == 0
        if key == "subst.a":
            cert["instances"][0]["subst"]["a"] = value
        else:
            cert[key] = value
        path.write_text(json.dumps(cert))
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert (code, out) == (2, "")
        kind = type(value).__name__
        assert err == f"error: cannot read certificate: certificate {key} must be a JSON string, got {kind}\n"

    def test_largest_expansion_under_the_cap_verifies(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 10, "mode": "nc", "field": "Q", "target": "h((x + y + z)^10) = (H(x) + H(y) + H(z))^10",
            "instances": [{"subst": {"a": "x + y + z"}, "coeff": "1"}],
        }))
        code, out, _ = run(["verify-cert", str(path)], capsys)
        assert code == 0
        assert out.endswith(": valid\n")

    @pytest.mark.parametrize("depth,expected", [(freealg.MAX_DEPTH, 0), (freealg.MAX_DEPTH + 1, 2), (200, 2)])
    def test_nested_linear_form_past_the_bound_exits_two(self, depth, expected, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 3, "mode": "nc", "field": "Q", "target": "h(x^3) = H(x)^3",
            "instances": [{"subst": {"a": "(" * depth + "x" + ")" * depth}, "coeff": "1"}],
        }))
        code, _, err = run(["verify-cert", str(path)], capsys)
        assert code == expected
        assert ("nest deeper than" in err) == (expected == 2)

    def test_deeply_nested_json_exits_two_quickly(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text("[" * 10 ** 5)
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "nests too deeply" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run(["verify-cert", str(tmp_path / "nope.json")], capsys)
        assert code == 2


class TestSearchCommand:
    def test_small_search_lists_hits(self, tmp_path, capsys):
        out_json = tmp_path / "hits.json"
        code, out, _ = run(
            [
                "search",
                "--domain",
                "zm:5",
                "--codomain",
                "zm:5",
                "--n",
                "3",
                "--predicate",
                "njordan_not_jordan",
                "--json",
                str(out_json),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["hits"][0]["index"] == 4

    def test_bad_ring_spec_exits_two(self, capsys):
        code, _, err = run(
            ["search", "--domain", "nope:1", "--codomain", "zm:5"], capsys
        )
        assert code == 2

    def test_overflowing_override_modulus_exits_two(self, capsys):
        spec = f"zm:{2 ** 40 + 15}"
        code, _, err = run(
            ["search", "--domain", spec, "--codomain", spec, "--unsafe-override"], capsys
        )
        assert code == 2
        assert "overflows" in err

    def test_zero_modulus_exits_two(self, capsys):
        code, _, err = run(
            ["search", "--domain", "zm:0", "--codomain", "zm:0", "--unsafe-override"], capsys
        )
        assert code == 2
        assert "at least 2" in err

    def test_oversized_enumeration_exits_two(self, capsys):
        code, _, err = run(
            ["search", "--domain", "mat:2x2@5", "--codomain", "mat:2x2@5"], capsys
        )
        assert code == 2
        assert "guard refused" in err


    @pytest.mark.parametrize(
        "spec", ["zm:5^200", "zm:5^1000000000", "nilpoly:200@5", "freetrunc:9d9@5", "fun:freetrunc:2d5@2,pts:4"]
    )
    def test_oversized_ring_exits_two_quickly(self, spec, capsys):
        start = time.perf_counter()
        code, _, err = run(["search", "--domain", spec, "--codomain", "zm:5", "--unsafe-override"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "exceeds 64" in err


    @pytest.mark.parametrize(
        "flag,value", [("--limit", "0"), ("--limit", "-3"), ("--sample-count", "0"), ("--sample-count", "-4")]
    )
    def test_counts_below_one_exit_two(self, flag, value, capsys):
        code, out, err = run(["search", "--domain", "zm:5", "--codomain", "zm:5", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert "must be at least 1" in err

    @pytest.mark.parametrize("spec", ["upper:1@2", "upper:0@2", "mat:0x0@2", "mat:-2x-2@5", "nilpoly:-1@5"])
    def test_ring_without_basis_elements_exits_two(self, spec, capsys):
        code, _, err = run(["search", "--domain", spec, "--codomain", spec], capsys)
        assert code == 2
        assert "ring dimension 0 is below 1" in err

    @pytest.mark.parametrize(
        "argv,message",
        [(["--n", "100000"], "exceeds 64"), (["--n", "65", "--predicate", "njordan_not_jordan"], "exceeds 64"),
         (["--n", "0"], "at least 1"), (["--sample-count", "100000000"], "work cap")],
    )
    def test_search_integers_past_their_bounds_exit_two_quickly(self, argv, message, capsys):
        start = time.perf_counter()
        code, out, err = run(["search", "--domain", "zm:5", "--codomain", "zm:5", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert message in err

    def test_ring_check_past_the_product_bound_exits_two_quickly(self, capsys):
        # 25 candidate maps, each counted with a ring check on 2^23 basis tuples, refused before any product
        start = time.perf_counter()
        code, out, err = run(
            ["search", "--domain", "zm:5^2", "--codomain", "zm:5", "--n", "23", "--predicate", "njordan_not_nring"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("guard refused: a scan of 25 candidate maps needs") and "over the work cap" in err

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            # 2^22 maps into Z_2^2, every one surviving the cube filter on 2,048 elements: about 28 minutes
            (["--domain", "zm:2^11", "--codomain", "zm:2^2", "--n", "3", "--predicate", "njordan_not_jordan"],
             "a scan of 4194304 candidate maps needs"),
            # the zero map always survives; a ring check on 6^10 basis tuples for each of 64 maps, or of 5 draws
            (["--domain", "upper:4@2", "--codomain", "zm:2", "--n", "10", "--predicate", "njordan_not_nring"],
             "a scan of 64 candidate maps needs"),
            (["--domain", "upper:4@2", "--codomain", "zm:2", "--n", "10", "--predicate", "njordan_not_nring",
              "--sample-count", "5", "--seed", "3"], "a scan of 5 candidate maps needs"),
        ],
    )
    def test_searches_past_the_work_cap_exit_two_before_any_product(self, argv, refusal, monkeypatch, capsys):
        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for cls, name in ((models.FiniteRing, "mul_batch"), (models.AdditiveMap, "apply_batch")):
            monkeypatch.setattr(cls, name, kernel)
        monkeypatch.setattr(models, "_power_mismatch", kernel)
        start = time.perf_counter()
        code, out, err = run(["search", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"guard refused: {refusal}") and "over the work cap" in err

    @pytest.mark.parametrize("depth,code", [(freealg.MAX_DEPTH, 0), (freealg.MAX_DEPTH + 1, 2), (1500, 2)])
    def test_function_ring_nesting_is_bounded(self, depth, code, capsys):
        spec = "fun:" * depth + "zm:5" + ",pts:1" * depth
        start = time.perf_counter()
        got, out, err = run(["search", "--domain", spec, "--codomain", "zm:5", "--limit", "1"], capsys)
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code == 2:
            assert out == ""
            assert err == f"guard refused: ring spec nests fun: deeper than {freealg.MAX_DEPTH}\n"

    def test_ring_check_past_the_sweep_bound_is_exact(self, tmp_path, capsys):
        # every additive map Z_2^12 -> Z_2 is Jordan; the ring maps are 0 and the 12 coordinate projections
        out_json = tmp_path / "hits.json"
        code, _, _ = run(
            ["search", "--domain", "zm:2^12", "--codomain", "zm:2", "--n", "3", "--predicate", "jordan_not_ring",
             "--limit", "3", "--json", str(out_json)],
            capsys,
        )
        assert code == 0
        hits = json.loads(out_json.read_text())["hits"]
        assert [hit["index"] for hit in hits] == [3, 5, 6]
        assert all(hit["details"]["ring"]["checked"] == 4096 ** 2 for hit in hits)
        code, out, _ = run(
            ["search", "--domain", "zm:5^2", "--codomain", "zm:5", "--n", "6", "--predicate", "njordan_not_nring"],
            capsys,
        )
        assert code == 0
        assert out.startswith("0 map(s) satisfy njordan_not_nring")


class TestExamplesCommand:
    def test_catalogue_passes_and_is_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code, out, _ = run(["examples", "--json", str(a)], capsys)
        assert code == 0
        run(["examples", "--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["ok"] is True


class TestNormCommand:
    def test_functional_sweep(self, capsys):
        code, out, _ = run(["norm", "corollary26", "--m", "2", "--k", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_norm"] == 1.0

    def test_sweep_guard_exits_two(self, capsys):
        code, _, err = run(["norm", "corollary26", "--m", "9"], capsys)
        assert code == 2

    def test_norm_chain_on_permutation(self, capsys):
        code, out, _ = run(
            ["norm", "theorem27", "--k", "3", "--perm", "1,2,0", "--power", "2"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["contractive"] and payload["slack_nonnegative"]

    def test_reduction_sweep(self, capsys):
        code, out, _ = run(
            ["norm", "step2", "--m", "2", "--k", "2", "--count", "50"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalence_held"] == 50

    @pytest.mark.parametrize("check", ["corollary26", "theorem27", "step2"])
    def test_zero_samples_exit_two(self, check, capsys):
        code, out, err = run(["norm", check, "--samples", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [["theorem27", "--k", "3", "--power", "3", "--samples", "100001"], ["corollary26", "--samples", "10000000000"],
         ["step2", "--samples", "100001"], ["step2", "--count", "100001"]],
    )
    def test_counts_over_the_bound_exit_two_quickly(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(["norm", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "exceeds 100000" in err

    def test_step2_work_over_the_bound_exits_two_quickly(self, capsys):
        # each count is within MAX_SAMPLES; their product is not
        start = time.perf_counter()
        code, out, err = run(["norm", "step2", "--count", "100000", "--samples", "100000"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "over the work cap" in err
        with pytest.raises(GuardError, match="over the work cap"):
            cstar_num.check_step2(2, 2, 3, 10 ** 5, 10 ** 4)

    def test_wide_step2_sweep_exits_two_before_any_draw(self, monkeypatch, capsys):
        # 10^7 map-sample pairs, but each at 64 x 64 multiply-adds: about a minute of sweeping
        def draw(*args, **kwargs):
            raise AssertionError("a map or sample was drawn")

        monkeypatch.setattr(cstar_num, "random_linear_maps", draw)
        monkeypatch.setattr(cstar_num, "_linear_maps", draw)
        monkeypatch.setattr(cstar_num, "sample_batch", draw)
        start = time.perf_counter()
        argv = ["norm", "step2", "--m", "64", "--k", "64", "--count", "1000", "--samples", "10000"]
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("guard refused: a step 2 sweep of 1000 maps x 10000 samples needs")

    @pytest.mark.parametrize(
        "argv,message",
        [(["corollary26", "--m", "0"], "m must be at least 1"), (["corollary26", "--k", "-1"], "k must be at least 1"),
         (["theorem27", "--k", "0"], "k must be at least 1"), (["theorem27", "--k", "100000000"], "exceeds 64"),
         (["theorem27", "--power", "0"], "power must be at least 1"),
         (["theorem27", "--power", "-3"], "power must be at least 1"), (["theorem27", "--power", "600"], "not finite"),
         (["step2", "--n", "0"], "n must be at least 1"), (["step2", "--n", "-2"], "n must be at least 1"),
         (["step2", "--n", "2000"], "not finite"), (["step2", "--m", "65"], "exceeds 64"),
         (["step2", "--k", "0"], "k must be at least 1")],
    )
    def test_arguments_out_of_range_exit_two_quickly(self, argv, message, capsys):
        start = time.perf_counter()
        code, out, err = run(["norm", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert message in err

    def test_zero_count_exits_two(self, capsys):
        code, out, err = run(["norm", "step2", "--count", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [["theorem27", "--k", "3", "--n", "3"], ["theorem27", "--m", "2"], ["theorem27", "--count", "5"],
         ["step2", "--perm", "x"], ["step2", "--power", "2"], ["corollary26", "--n", "3"],
         ["corollary26", "--power", "2"], ["corollary26", "--perm", "1,0"], ["corollary26", "--count", "5"]],
    )
    def test_an_option_the_check_does_not_read_exits_two(self, argv, capsys):
        code, err = exit_code_and_stderr(["norm", *argv], capsys)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


# Each command's options in registration order, which is also the order of its
# usage line and help; a norm check is a command of its own under "norm".
COMMAND_OPTIONS = {
    "replay": ["--script", "--json"],
    "consequence": ["--n", "--target", "--vars", "--coeff-range", "--field", "--mode", "--cert", "--json",
                    "--unsafe-override"],
    "search": ["--domain", "--codomain", "--n", "--predicate", "--limit", "--sample-count", "--seed", "--json",
               "--unsafe-override"],
    "examples": ["--json"],
    "norm": ["check"],
    "norm corollary26": ["--m", "--k", "--samples", "--seed", "--json"],
    "norm theorem27": ["--k", "--power", "--perm", "--samples", "--seed", "--json"],
    "norm step2": ["--m", "--k", "--n", "--count", "--samples", "--seed", "--json"],
    "verify-cert": ["path"],
}
MEMBER, NONMEMBER = TestConsequenceCommand.MEMBER, TestConsequenceCommand.NONMEMBER
# every way a command writes a file; "{out}" is a path inside a missing directory
WRITING_COMMANDS = {
    "replay-json": ["replay", "--script", "n2_comm", "--json", "{out}"],
    "consequence-json": ["consequence", "--n", "3", "--target", MEMBER, "--json", "{out}"],
    "consequence-cert": ["consequence", "--n", "3", "--target", MEMBER, "--cert", "{out}"],
    "nonmember-json": ["consequence", "--n", "3", "--target", NONMEMBER, "--json", "{out}"],
    "search-json": ["search", "--domain", "zm:5", "--codomain", "zm:5", "--json", "{out}"],
    "examples-json": ["examples", "--json", "{out}"],
    "norm-json": ["norm", "corollary26", "--json", "{out}"],
}
SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(argv):
    """The command line as its own process: exit status and stderr as the shell sees them."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "njordan.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestCommandContract:
    @pytest.mark.parametrize("argv", WRITING_COMMANDS.values(), ids=WRITING_COMMANDS.keys())
    def test_unwritable_output_exits_two_with_one_line(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code, _, err = run([a.replace("{out}", str(out)) for a in argv], capsys)
        assert code == 2
        assert err.startswith("error: cannot write output: [Errno 2] No such file or directory")
        assert err.count("\n") == 1 and "Traceback" not in err

    # every refusal here was reached by no other test
    @pytest.mark.parametrize("argv,message", [
        *((["search", "--domain", spec, "--codomain", "zm:5"], message) for spec, message in [
            ("mat:5x5@5", "guard refused: matrix size 5 exceeds 4"),
            ("upper:5@2", "guard refused: matrix size 5 exceeds 4"),
            ("fun:zm:5,pts:5", "guard refused: 5 points exceed 4"),
            ("fun:zm:5,pts:0", "error: need at least one point"),
            ("zm:5^0", "error: power must be positive"),
            ("freetrunc:0d2@5", "error: need at least one letter and degree 1"),
            ("zm:2^13", "guard refused: search domain too large"),
        ]),
        (["consequence", "--n", "2", "--target", "h(x^2) = H(x)^2", "--coeff-range", "0"],
         "error: coefficient range must be at least 1"),
        (["verify-cert", "{cert}"], "error: cannot read certificate: certificate JSON must be an object"),
        (["norm", "theorem27", "--k", "3", "--perm", "0,0,1"], "error: perm must be a permutation of 0..k-1"),
    ])
    def test_refusal_exits_two_with_one_line(self, argv, message, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        code, _, err = run([a.replace("{cert}", str(cert)) for a in argv], capsys)
        assert code == 2
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_each_command_keeps_its_options(self):
        options, parsers = {}, [("", build_parser())]
        for prefix, parser in parsers:
            for sub in parser._actions:
                if isinstance(sub, argparse._SubParsersAction):
                    parsers.extend((f"{prefix}{name} ", command) for name, command in sub.choices.items())
            if prefix:
                options[prefix.strip()] = [opt for action in parser._actions
                                           for opt in action.option_strings or [action.dest]
                                           if opt not in ("-h", "--help")]
        assert options == COMMAND_OPTIONS

    def test_every_constant_the_guard_table_cites_resolves(self):
        """Each row of README's bounds table cites its constants as `module.NAME`, or
        `module.name()` for a function, of njordan, or has none (a dash)."""
        lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| Input | Bound | Constant | Override |")
        rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]))
        cited = []
        for row in rows:
            cells = row.strip("|").split("|")
            assert len(cells) == 4, row
            constant = cells[2].strip()
            assert re.sub(r"`[^`]*`", "", constant).strip(" ,") in ("", "—"), row
            cited += re.findall(r"`([^`]*)`", constant)
        for name in cited:
            module, attr = re.fullmatch(r"(\w+)\.(\w+)(?:\(\))?", name).groups()
            assert hasattr(importlib.import_module(f"njordan.{module}"), attr), name
        assert len(rows) > 20 and {"models.MAX_POINTS", "models.MAX_SEARCH_DOMAIN"} <= set(cited)

    def test_process_exit_status(self, tmp_path):
        ok = run_process(["replay", "--script", "n2_comm"])
        assert (ok.returncode, ok.stderr) == (0, "")
        assert "final PASS" in ok.stdout
        refused = run_process(["replay", "--script", "n2_comm", "--json", str(tmp_path / "missing" / "x.json")])
        assert refused.returncode == 2
        assert refused.stderr.startswith("error: cannot write output:")
        assert refused.stderr.count("\n") == 1 and "Traceback" not in refused.stderr


# Python's own wording for an integer it cannot read, or a spec it cannot split.
PYTHON_INT_WORDING = ("invalid literal for int()", "Exceeds the limit", "not enough values to unpack")
DIGITS_5000 = "7" * 5000


def exit_code_and_stderr(argv, capsys):
    """main's exit code, also when argparse refuses an option value by raising SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestOneIntegerReader:
    @pytest.mark.parametrize("argv", [
        ["search", "--domain", "zm:\u0665", "--codomain", "zm:5"],
        ["search", "--domain", "zm:+5", "--codomain", "zm:5"],
        ["search", "--domain", "zm:5^0_2", "--codomain", "zm:5"],
        ["search", "--domain", "mat:2x2@ 5", "--codomain", "zm:5"],
        ["search", "--domain", "upper:3", "--codomain", "zm:5"],
        ["search", "--domain", "mat:2x2@5@", "--codomain", "zm:5"],
        ["search", "--domain", "zm:5^", "--codomain", "zm:5"],
        ["search", "--domain", f"fun:zm:5,pts:{DIGITS_5000}", "--codomain", "zm:5"],
        ["norm", "step2", "--n", "\u0663"],
        ["norm", "theorem27", "--k", "3", "--perm", "1,2,"],
        ["consequence", "--n", "2", "--target", "h(x^2) = H(x)^2", "--vars", f"x,v{DIGITS_5000}"],
        ["consequence", "--n", "2", "--target", "h(x^2) = H(x)^2", "--field", f"GF({DIGITS_5000})"],
    ], ids=["zm-arabic-indic", "zm-plus", "zm-underscore", "mat-blank", "upper-no-modulus", "mat-trailing-at",
            "zm-empty-power", "fun-5000-digit-points", "norm-arabic-indic-n", "perm-trailing-comma",
            "vars-5000-digit-name", "field-5000-digits"])
    def test_malformed_integer_exits_two_in_njordans_words(self, argv, capsys):
        code, err = exit_code_and_stderr(argv, capsys)
        assert code == 2
        assert err
        assert not any(wording in err for wording in PYTHON_INT_WORDING)

    @pytest.mark.parametrize("n", [3.9, "\u0663", "3", True])
    def test_certificate_n_must_be_a_json_integer(self, n, tmp_path, capsys):
        path = tmp_path / "cert.json"
        cert = {"n": 3, "mode": "nc", "field": "Q", "target": "h(x^3) = H(x)^3",
                "instances": [{"subst": {"a": "-x"}, "coeff": "-1"}]}
        path.write_text(json.dumps(cert))
        assert run(["verify-cert", str(path)], capsys)[0] == 0
        path.write_text(json.dumps({**cert, "n": n}))
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read certificate: certificate n must be a JSON integer")

    def test_long_unrecognized_ring_spec_is_quoted_to_forty_characters(self, capsys):
        spec = "zm:" + "\u0665" * 1000
        code, err = exit_code_and_stderr(["search", "--domain", spec, "--codomain", "zm:5"], capsys)
        assert code == 2
        assert err == f"error: unrecognized ring spec {spec[:40]!r}...\n"

    def test_certificate_integer_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(f'{{"n": {DIGITS_5000}, "mode": "nc", "field": "Q", "target": "t", "instances": []}}')
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read certificate: integer longer than {freealg.digit_limit()} digits")
        assert len(err) < 200

    def test_no_option_reads_integers_with_bare_int(self):
        # every integer option goes through the reader: a new option declared
        # with type=int would accept Unicode digits, signs, blanks and underscores
        parsers, types = [build_parser()], []
        for parser in parsers:
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                types.append(action.type)
        assert len(parsers) == 10
        assert int not in types
        assert _integer in types


# Untrusted input run through main in-process: whatever the text, JSON or
# integers, the command ends in exit 0, 1 or 2 within the deadline, with no
# exception escaping.  The integers stay in [-3, 700]; step2's map and sample
# counts are held small, since their product is bounded separately.
SMALL_INTS = st.integers(-3, 700)
ATOMS = st.sampled_from(["x", "x*y", "2*x + y", "x^2 - 1/3*y*x", "x*", "1/0*x", "H(x)", ""])
NESTED = st.builds(
    lambda depth, close, atom, tail: "(" * depth + atom + ")" * close + tail,
    st.integers(0, 300), st.integers(0, 300), ATOMS, st.text("xyz()+-*^/0123 \u00b2\u0661\u00e9\u03b1", max_size=12),
)
# grammar names, unknown ASCII names and names with non-ASCII characters
VAR_NAMES = st.sampled_from(["x", "y", "v3", "q", "", "v", "X", "v\u0661", "\u00e9", "x\u00b2", "H"])
# JSON values that are not strings, for the certificate's text fields
NOT_TEXT = st.sampled_from([5, None, ["x"], {"b": 1}])
CERT_TEXT = st.one_of(
    st.builds(lambda depth: "[" * depth, st.integers(1, 3000)),
    st.builds(
        lambda n, mode, field, target, forms, coeff: json.dumps({
            "n": n, "mode": mode, "field": field, "target": target,
            "instances": [{"subst": {"a": form}, "coeff": coeff} for form in forms],
        }),
        st.one_of(SMALL_INTS, st.text(max_size=3)), st.one_of(st.sampled_from(["nc", "c", "q"]), NOT_TEXT),
        st.one_of(
            st.sampled_from(["Q", "GF(7)", "GF(4)", "R", "GF(1099511627791)", f"GF({BIG_PRIME})", "GF(\u0667)"]),
            NOT_TEXT,
        ),
        st.one_of(st.builds("h({}) = H(x)^3".format, NESTED), NOT_TEXT),
        st.lists(st.one_of(NESTED, NOT_TEXT), max_size=3),
        st.one_of(st.sampled_from(["1", "-1/2", "1e5", "x", f"1/{BIG_PRIME}", f"-3/{3 * BIG_PRIME}"]), SMALL_INTS),
    ),
)
# Ring specs of every family, fun: wrappers nested up to 2000 deep, and at most
# one character replaced by a bad integer, a stray separator or nothing.
FAMILIES = st.sampled_from(
    ["zm:{}", "zm:{}^{}", "mat:{}x{}@{}", "upper:{}@{}", "freetrunc:{}d{}@{}", "nilpoly:{}@{}", "bogus:{}"]
)
SPEC_FAULTS = st.sampled_from(
    ["", "0", "-3", "700", "x", "1e3", "99999999999999999999", "^", "@", ",pts:", "\u0665", "+5", " 5", "5_0", "7" * 5000]
)


def _ring_spec(depth, family, ints, pts, fault):
    spec = "fun:" * depth + family.format(*ints) + (",pts:" + pts) * depth
    if fault is None:
        return spec
    at, token = fault
    at %= len(spec)
    return spec[:at] + token + spec[at + 1 :]


RING_SPECS = st.builds(
    _ring_spec,
    st.one_of(st.integers(0, 2), st.integers(0, 2000)), FAMILIES,
    st.lists(st.sampled_from(["1", "2", "3", "5"]), min_size=3, max_size=3), st.sampled_from(["1", "2", "5"]),
    st.one_of(st.none(), st.tuples(st.integers(0, 10 ** 4), SPEC_FAULTS)),
)
PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=2000, suppress_health_check=[HealthCheck.too_slow], database=None
)


# Hypothesis raises the recursion limit while a test runs; the command line
# runs under the interpreter's own limit, read here at import.
PROCESS_RECURSION_LIMIT = sys.getrecursionlimit()


def _quiet_main(argv) -> int:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(PROCESS_RECURSION_LIMIT)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([str(a) for a in argv])
    finally:
        sys.setrecursionlimit(limit)


class TestUntrustedInputProperty:
    @PROPERTY_SETTINGS
    @given(NESTED, st.sampled_from(["nc", "c"]))
    @example("(" * 300 + "x" + ")" * 300, "nc")
    def test_expression_text(self, text, mode):
        argv = ["consequence", "--n", 2, "--vars", "x,y", "--mode", mode, "--target", f"h({text}) = H(x)^2"]
        assert _quiet_main(argv) in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(st.lists(VAR_NAMES, max_size=4))
    @example(["x", "q"])
    def test_variable_names(self, names):
        argv = ["consequence", "--n", 2, "--vars", ",".join(names), "--target", "h(x^2) = H(x)^2"]
        assert _quiet_main(argv) in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(text=CERT_TEXT)
    @example(text="[" * 3000)
    @example(text=json.dumps({"n": 2, "mode": "nc", "field": f"GF({BIG_PRIME})", "target": "h(x^2) = H(x)^2",
                              "instances": [{"subst": {"a": "-x"}, "coeff": "1"}]}))
    @example(text=json.dumps({"n": 2, "mode": "nc", "field": "Q", "target": "h(x^2) = H(x)^2",
                              "instances": [{"subst": {"a": 5}, "coeff": "1"}]}))
    def test_certificate_json(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("cert") / "cert.json"
        path.write_text(text)
        assert _quiet_main(["verify-cert", path]) in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(
        st.sampled_from(["corollary26", "theorem27", "step2"]),
        SMALL_INTS, SMALL_INTS, SMALL_INTS, SMALL_INTS, SMALL_INTS, SMALL_INTS,
    )
    @example("corollary26", 0, 2, 3, 1, 16, 0)
    @example("theorem27", 2, 2, 3, 600, 16, 0)
    def test_norm_integers(self, check, m, k, n, power, samples, seed):
        # each check gets only the options it reads, so every draw reaches the check
        own = {"corollary26": ["--m", m, "--samples", samples], "theorem27": ["--power", power, "--samples", samples],
               "step2": ["--m", m, "--n", n, "--count", 3, "--samples", 8]}
        argv = ["norm", check, "--k", k, *own[check], "--seed", seed]
        assert _quiet_main(argv) in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(
        st.sampled_from(["zm:5", "zm:5^2"]), st.sampled_from(models.PREDICATES),
        SMALL_INTS, SMALL_INTS, st.one_of(st.none(), SMALL_INTS), SMALL_INTS,
    )
    def test_search_integers(self, codomain, predicate, n, limit, sample_count, seed):
        argv = ["search", "--domain", "zm:5", "--codomain", codomain, "--predicate", predicate,
                "--n", n, "--limit", limit, "--seed", seed]
        if sample_count is not None:
            argv += ["--sample-count", sample_count]
        assert _quiet_main(argv) in (0, 1, 2)

    @PROPERTY_SETTINGS
    @given(RING_SPECS, st.sampled_from(["zm:5", None]))
    @example("fun:" * 1500 + "zm:5" + ",pts:1" * 1500, "zm:5")
    def test_ring_specs(self, spec, codomain):
        # mapped into zm:5, or into the spec's own ring, whose modulus always matches; the
        # = form keeps argparse from reading a spec that starts with "-" as an option
        argv = ["search", f"--domain={spec}", f"--codomain={codomain or spec}", "--limit", 1, "--sample-count", 3]
        assert _quiet_main(argv) in (0, 2)
