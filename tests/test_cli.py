"""End-to-end command line behavior and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from njordan import cstar_num, freealg, models
from njordan.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_coefficient_guard_exits_two_without_override(self, capsys):
        code, _, err = run(
            ["consequence", "--n", "3", "--target", self.MEMBER, "--coeff-range", "3"],
            capsys,
        )
        assert code == 2
        assert "guard refused" in err

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
        path.write_text(json.dumps({
            "n": 3, "mode": "nc", "field": "Q", "target": "h(x^3) = H(x)^3",
            "instances": [{"subst": {"a": "x"}, "coeff": "1e10000000"}],
        }))
        start = time.perf_counter()
        code, out, err = run(["verify-cert", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "coefficient exceeds" in err

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
         (["--n", "0"], "at least 1"), (["--sample-count", "100000000"], "enumeration cap")],
    )
    def test_search_integers_past_their_bounds_exit_two_quickly(self, argv, message, capsys):
        start = time.perf_counter()
        code, out, err = run(["search", "--domain", "zm:5", "--codomain", "zm:5", *argv], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert message in err

    def test_ring_check_past_the_product_bound_exits_two_quickly(self, capsys):
        # 2^23 basis tuples at 22 products each, for the first map that passes the filter
        start = time.perf_counter()
        code, out, err = run(
            ["search", "--domain", "zm:5^2", "--codomain", "zm:5", "--n", "23", "--predicate", "njordan_not_nring"],
            capsys,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "2^23 basis tuples exceed cap 10000000 at 22 products each" in err

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
        assert "exceeds 10000000" in err
        with pytest.raises(ValueError, match="exceeds 10000000"):
            cstar_num.check_step2(2, 2, 3, 1001, 10 ** 4)

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


# Untrusted input run through main in-process: whatever the text, JSON or
# integers, the command ends in exit 0, 1 or 2 within the deadline, with no
# exception escaping.  The integers stay in [-3, 700]; step2's map and sample
# counts are held small, since their product is bounded separately.
SMALL_INTS = st.integers(-3, 700)
ATOMS = st.sampled_from(["x", "x*y", "2*x + y", "x^2 - 1/3*y*x", "x*", "1/0*x", "H(x)", ""])
NESTED = st.builds(
    lambda depth, close, atom, tail: "(" * depth + atom + ")" * close + tail,
    st.integers(0, 300), st.integers(0, 300), ATOMS, st.text("xyz()+-*^/0123 ", max_size=12),
)
CERT_TEXT = st.one_of(
    st.builds(lambda depth: "[" * depth, st.integers(1, 3000)),
    st.builds(
        lambda n, mode, field, target, forms, coeff: json.dumps({
            "n": n, "mode": mode, "field": field, "target": target,
            "instances": [{"subst": {"a": form}, "coeff": coeff} for form in forms],
        }),
        st.one_of(SMALL_INTS, st.text(max_size=3)), st.sampled_from(["nc", "c", "q"]),
        st.sampled_from(["Q", "GF(7)", "GF(4)", "R"]), st.builds("h({}) = H(x)^3".format, NESTED),
        st.lists(NESTED, max_size=3), st.one_of(st.sampled_from(["1", "-1/2", "1e5", "x"]), SMALL_INTS),
    ),
)
# Ring specs of every family, fun: wrappers nested up to 2000 deep, and at most
# one character replaced by a bad integer, a stray separator or nothing.
FAMILIES = st.sampled_from(
    ["zm:{}", "zm:{}^{}", "mat:{}x{}@{}", "upper:{}@{}", "freetrunc:{}d{}@{}", "nilpoly:{}@{}", "bogus:{}"]
)
SPEC_FAULTS = st.sampled_from(["", "0", "-3", "700", "x", "1e3", "99999999999999999999", "^", "@", ",pts:"])


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
    @given(text=CERT_TEXT)
    @example(text="[" * 3000)
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
        argv = ["norm", check, "--m", m, "--k", k, "--n", n, "--power", power, "--seed", seed]
        argv += ["--count", 3, "--samples", 8] if check == "step2" else ["--samples", samples]
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
