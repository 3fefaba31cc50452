"""End-to-end command line behavior and exit codes."""

from __future__ import annotations

import json
import time

import pytest

from njordan import cstar_num
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

    def test_zero_count_exits_two(self, capsys):
        code, out, err = run(["norm", "step2", "--count", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "at least 1" in err
