"""Command line front end.

Exit codes: 0 success / verified, 1 a check failed (failed assertion,
target not in span, invalid certificate, unexpected counterexample),
2 usage or guard errors, bad input, or an output file that cannot be written.

A subcommand only computes: it prints its report and returns its exit code
with the payload for ``--json`` (None if it has none).  ``main`` alone writes
``--json`` and turns every refusal into exit 2 with one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import cstar_num, derivation, models
from .errors import GuardError
from .freealg import NONCOMMUTATIVE, quote, read_int


def _write(path: str, text: str) -> None:
    """Write an output file; ValueError, so exit 2, if it cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc


def _cmd_replay(args: argparse.Namespace) -> tuple[int, dict]:
    script = derivation.BUILTIN_SCRIPTS.get(args.script)
    if script is None:
        names = ", ".join(sorted(derivation.BUILTIN_SCRIPTS))
        raise ValueError(f"unknown script {quote(args.script)}; available: {names}")
    trace = derivation.replay(script)
    sys.stdout.write(derivation.trace_to_text(trace))
    return (1 if trace.failed else 0), asdict(trace)


def _cmd_consequence(args: argparse.Namespace) -> tuple[int, dict]:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    result = derivation.consequence_check(
        args.n,
        args.target,
        variables,
        args.coeff_range,
        field=args.field,
        mode=args.mode,
        override=args.unsafe_override,
    )
    if isinstance(result, derivation.NotInSpan):
        print(
            f"NOT IN SPAN: rank {result.rank} from {result.n_instances} instances;"
            f" unexplained residual {result.residual}"
        )
        return 1, {"member": False, "rank": result.rank, "instances": result.n_instances, "residual": result.residual}
    verified = derivation.verify_certificate(result.certificate)
    print(
        f"IN SPAN: rank {result.rank}, {result.n_instances} instances,"
        f" certificate uses {len(result.certificate.instances)} of them,"
        f" independent verification {'passed' if verified else 'FAILED'}"
    )
    if args.cert:
        _write(args.cert, result.certificate.to_json())
    return (0 if verified else 1), {
        "member": True,
        "rank": result.rank,
        "instances": result.n_instances,
        "certificate": result.certificate.to_dict(),
        "verified": verified,
    }


def _cmd_search(args: argparse.Namespace) -> tuple[int, dict]:
    domain = models.ring_from_spec(args.domain, args.unsafe_override)
    codomain = models.ring_from_spec(args.codomain, args.unsafe_override)
    hits = models.search(
        domain,
        codomain,
        args.n,
        predicate=args.predicate,
        limit=args.limit,
        sample_count=args.sample_count,
        seed=args.seed,
        override=args.unsafe_override,
    )
    print(f"{len(hits)} map(s) satisfy {args.predicate} ({domain.name} -> {codomain.name})")
    for hit in hits:
        print(f"  index {hit.index}: matrix {hit.matrix}")
    return 0, {
        "domain": domain.name,
        "codomain": codomain.name,
        "n": args.n,
        "predicate": args.predicate,
        "hits": [hit.to_json() for hit in hits],
    }


def _report(report: dict) -> tuple[int, dict]:
    """A check's report, printed as JSON, with exit 0 exactly when it is ok."""
    sys.stdout.write(derivation.dumps(report))
    return (0 if report.get("ok") else 1), report


def _cmd_norm(args: argparse.Namespace) -> tuple[int, dict]:
    if args.check == "corollary26":
        return _report(cstar_num.check_corollary_2_6(args.m, args.k, args.samples, args.seed))
    if args.check == "theorem27":
        perm = tuple(read_int(x) for x in args.perm.split(",")) if args.perm else None
        h = cstar_num.coordinate_star_map(args.k, perm)
        return _report(cstar_num.check_theorem_2_7(h, args.power, args.samples, args.seed))
    return _report(cstar_num.check_step2(args.m, args.k, args.n, args.count, args.samples, args.seed))


def _cmd_verify_cert(args: argparse.Namespace) -> tuple[int, None]:
    try:
        cert = derivation.Certificate.from_json(Path(args.path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read certificate: {exc}") from exc
    ok = derivation.verify_certificate(cert)
    print(f"certificate for {cert.target}: {'valid' if ok else 'INVALID'}")
    return (0 if ok else 1), None


def _integer(text: str) -> int:
    """The type of every integer option: read_int, with its message as argparse's error."""
    try:
        return read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="njordan",
        description="Verification toolkit for additive maps preserving n-th powers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    p_replay = command("replay", _cmd_replay, "replay a builtin derivation script")
    p_replay.add_argument("--script", required=True)

    p_cons = command("consequence", _cmd_consequence, "span membership for a target identity")
    p_cons.add_argument("--n", type=_integer, required=True)
    p_cons.add_argument("--target", required=True)
    p_cons.add_argument("--vars", default="x,y,z")
    p_cons.add_argument("--coeff-range", type=_integer, default=1, dest="coeff_range")
    p_cons.add_argument("--field", default="Q")
    p_cons.add_argument("--mode", choices=("nc", "c"), default=NONCOMMUTATIVE)
    p_cons.add_argument("--cert", metavar="PATH")

    p_search = command("search", _cmd_search, "scan additive maps between finite rings")
    p_search.add_argument("--domain", required=True)
    p_search.add_argument("--codomain", required=True)
    p_search.add_argument("--n", type=_integer, default=3)
    p_search.add_argument("--predicate", default="jordan_not_ring", choices=models.PREDICATES)
    p_search.add_argument("--limit", type=_integer, default=10)
    p_search.add_argument("--sample-count", type=_integer, default=None, dest="sample_count")
    p_search.add_argument("--seed", type=_integer, default=0)

    p_ex = command("examples", lambda _: _report(models.paper_examples()), "reproduce the motivating finite examples")

    # each norm check has its own parser, so an option it does not read is refused
    checks = command("norm", _cmd_norm, "numeric contractivity checks").add_subparsers(dest="check", required=True)
    p_c26 = checks.add_parser("corollary26", help="contractivity sweep over power-preserving maps")
    p_t27 = checks.add_parser("theorem27", help="norm check of a coordinate permutation")
    p_s2 = checks.add_parser("step2", help="whole-map versus componentwise power check")
    for p in (p_c26, p_s2):
        p.add_argument("--m", type=_integer, default=2)
    for p in (p_c26, p_t27, p_s2):
        p.add_argument("--k", type=_integer, default=2)
    p_t27.add_argument("--power", type=_integer, default=1)
    p_t27.add_argument("--perm", default=None, help="comma separated permutation")
    p_s2.add_argument("--n", type=_integer, default=3)
    p_s2.add_argument("--count", type=_integer, default=1000)
    for p in (p_c26, p_t27, p_s2):
        p.add_argument("--samples", type=_integer, default=cstar_num.DEFAULT_SAMPLES)
        p.add_argument("--seed", type=_integer, default=0)

    command("verify-cert", _cmd_verify_cert, "independently verify a certificate file").add_argument("path")

    # Added last, so usage and help list them after each command's own options.
    for p in (p_replay, p_cons, p_search, p_ex, p_c26, p_t27, p_s2):
        p.add_argument("--json", metavar="PATH")
    for p in (p_cons, p_search):
        p.add_argument("--unsafe-override", action="store_true", dest="unsafe_override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.func(args)
        if getattr(args, "json", None):
            _write(args.json, derivation.dumps(payload))
        return code
    except GuardError as exc:
        message = f"guard refused: {exc}"
    except ValueError as exc:  # ParseError and unwritable output included
        message = f"error: {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
