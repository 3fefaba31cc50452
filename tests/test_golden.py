"""Golden outputs of the README command lines.

Each case runs one README command through ``njordan.cli.main`` and compares
its exit code, its stdout and every file it writes (``--json``, ``--cert``)
byte for byte with the files under ``tests/golden/``.  The commands that
take ``--json`` get one even where the README omits it.  Four more cases pin
the prime fields: a GF(7) certificate and its verification, and a GF(2)
target outside the span in ``nc`` mode and inside it in ``c`` mode.  Each
``verify-cert`` case reads the golden certificate of a ``consequence`` case.

The golden files are regenerated with ``PYTHONPATH=src python
tests/test_golden.py``; do that only for an intended output change.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from njordan.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYM_SIX = "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)"
SINGLE = "h(x*y*z) = H(x)*H(y)*H(z)"

# name -> argv; "{out}" is the directory the command writes into.
CASES: dict[str, list[str]] = {
    "replay_thm2_2_n3": ["replay", "--script", "thm2_2_n3", "--json", "{out}/replay_thm2_2_n3.json"],
    "replay_thm2_5_step1": ["replay", "--script", "thm2_5_step1", "--json", "{out}/step1.json"],
    "replay_thm2_5_step1_sym": [
        "replay", "--script", "thm2_5_step1_sym", "--json", "{out}/replay_thm2_5_step1_sym.json",
    ],
    "consequence_sym": [
        "consequence", "--n", "3", "--target", SYM_SIX, "--vars", "x,y,z", "--coeff-range", "1",
        "--cert", "{out}/sym.cert.json", "--json", "{out}/consequence_sym.json",
    ],
    "verify_cert_sym": ["verify-cert", str(GOLDEN / "sym.cert.json")],
    "consequence_sym_gf7": [
        "consequence", "--n", "3", "--target", SYM_SIX, "--vars", "x,y,z", "--coeff-range", "1",
        "--field", "GF(7)", "--cert", "{out}/sym_gf7.cert.json", "--json", "{out}/consequence_sym_gf7.json",
    ],
    "verify_cert_sym_gf7": ["verify-cert", str(GOLDEN / "sym_gf7.cert.json")],
    "consequence_single_gf2": [
        "consequence", "--n", "3", "--target", SINGLE, "--field", "GF(2)",
        "--json", "{out}/consequence_single_gf2.json",
    ],
    "consequence_single_gf2_c": [
        "consequence", "--n", "3", "--target", SINGLE, "--field", "GF(2)", "--mode", "c",
        "--json", "{out}/consequence_single_gf2_c.json",
    ],
    "consequence_pair_n2": [
        "consequence", "--n", "2", "--target", "h(x*y) = H(x)*H(y)", "--vars", "x,y,z",
        "--coeff-range", "2", "--mode", "nc", "--json", "{out}/consequence_pair_n2.json",
    ],
    "search_zm5": [
        "search", "--domain", "zm:5", "--codomain", "zm:5", "--n", "3",
        "--predicate", "njordan_not_jordan", "--json", "{out}/search_zm5.json",
    ],
    "search_mat2x2": [
        "search", "--domain", "mat:2x2@5", "--codomain", "zm:5", "--n", "3",
        "--predicate", "jordan_not_ring", "--unsafe-override", "--json", "{out}/search_mat2x2.json",
    ],
    # 6,000 seeded draws, all scanned (150 hits under the limit), cross every
    # candidate block boundary
    "search_zm5sq_sampled": [
        "search", "--domain", "zm:5^2", "--codomain", "zm:5^2", "--n", "3", "--predicate", "njordan_not_jordan",
        "--sample-count", "6000", "--seed", "7", "--limit", "700", "--json", "{out}/search_zm5sq_sampled.json",
    ],
    "examples": ["examples", "--json", "{out}/examples.json"],
    "norm_corollary26": ["norm", "corollary26", "--m", "3", "--k", "3", "--json", "{out}/norm_corollary26.json"],
    "norm_theorem27": [
        "norm", "theorem27", "--k", "3", "--power", "2", "--perm", "1,2,0",
        "--json", "{out}/norm_theorem27.json",
    ],
    "norm_step2": ["norm", "step2", "--count", "1000", "--seed", "0", "--json", "{out}/norm_step2.json"],
}


def run_case(name: str, out: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stdout bytes and the bytes of every file the command wrote."""
    argv = [arg.replace("{out}", str(out)) for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout.getvalue().encode("utf-8"), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_matches_golden(name, tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())[name]
    code, stdout, written = run_case(name, tmp_path)
    assert code == manifest["exit"]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert sorted(written) == manifest["files"]
    for fname, data in written.items():
        assert data == (GOLDEN / fname).read_bytes(), fname


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    # the consequence cases write the certificates verify-cert reads
    for name in sorted(CASES, key=lambda n: n.startswith("verify_cert")):
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, written = run_case(name, Path(tmp))
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        for fname, data in written.items():
            (GOLDEN / fname).write_bytes(data)
        manifest[name] = {"exit": code, "files": sorted(written)}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
