"""Command line front end.

Exit codes: 0 success / verified, 1 a check failed (failed assertion,
target not in span, invalid certificate, unexpected counterexample),
2 usage or guard errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cstar_num, derivation, models
from .errors import GuardError
from .freealg import NONCOMMUTATIVE, ParseError, read_int

JSON_KW = {"indent": 2, "sort_keys": True}


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            fh.write(json.dumps(payload, **JSON_KW) + "\n")


def _cmd_replay(args: argparse.Namespace) -> int:
    script = derivation.BUILTIN_SCRIPTS.get(args.script)
    if script is None:
        names = ", ".join(sorted(derivation.BUILTIN_SCRIPTS))
        print(f"unknown script {args.script!r}; available: {names}", file=sys.stderr)
        return 2
    trace = derivation.replay(script)
    sys.stdout.write(derivation.trace_to_text(trace))
    if args.json:
        _write_json(args.json, derivation.trace_to_json(trace))
    return 1 if trace.failed else 0


def _cmd_consequence(args: argparse.Namespace) -> int:
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
    if isinstance(result, derivation.InSpan):
        verified = derivation.verify_certificate(result.certificate)
        payload = {
            "member": True,
            "rank": result.rank,
            "instances": result.n_instances,
            "certificate": result.certificate.to_dict(),
            "verified": verified,
        }
        print(
            f"IN SPAN: rank {result.rank}, {result.n_instances} instances,"
            f" certificate uses {len(result.certificate.instances)} of them,"
            f" independent verification {'passed' if verified else 'FAILED'}"
        )
        if args.cert:
            _write_json(args.cert, result.certificate.to_json())
        if args.json:
            _write_json(args.json, payload)
        return 0 if verified else 1
    payload = {
        "member": False,
        "rank": result.rank,
        "instances": result.n_instances,
        "residual": result.residual,
    }
    print(
        f"NOT IN SPAN: rank {result.rank} from {result.n_instances} instances;"
        f" unexplained residual {result.residual}"
    )
    if args.json:
        _write_json(args.json, payload)
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
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
    payload = {
        "domain": domain.name,
        "codomain": codomain.name,
        "n": args.n,
        "predicate": args.predicate,
        "hits": [hit.to_json() for hit in hits],
    }
    print(f"{len(hits)} map(s) satisfy {args.predicate} ({domain.name} -> {codomain.name})")
    for hit in hits:
        print(f"  index {hit.index}: matrix {hit.matrix}")
    if args.json:
        _write_json(args.json, payload)
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    report = models.paper_examples()
    print(json.dumps(report, **JSON_KW))
    if args.json:
        _write_json(args.json, report)
    return 0 if report["ok"] else 1


def _cmd_norm(args: argparse.Namespace) -> int:
    if args.check == "corollary26":
        report = cstar_num.check_corollary_2_6(args.m, args.k, args.samples, args.seed)
    elif args.check == "theorem27":
        perm = None
        if args.perm:
            perm = tuple(read_int(x) for x in args.perm.split(","))
        h = cstar_num.coordinate_star_map(args.k, perm)
        report = cstar_num.check_theorem_2_7(h, args.power, args.samples, args.seed)
    else:
        report = cstar_num.check_step2(args.m, args.k, args.n, args.count, args.samples, args.seed)
    print(json.dumps(report, **JSON_KW))
    if args.json:
        _write_json(args.json, report)
    return 0 if report.get("ok") else 1


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        cert = derivation.Certificate.from_json(text)
    except (OSError, ValueError) as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return 2
    ok = derivation.verify_certificate(cert)
    print(f"certificate for {cert.target}: {'valid' if ok else 'INVALID'}")
    return 0 if ok else 1


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

    p_replay = sub.add_parser("replay", help="replay a builtin derivation script")
    p_replay.add_argument("--script", required=True)
    p_replay.add_argument("--json", metavar="PATH")
    p_replay.set_defaults(func=_cmd_replay)

    p_cons = sub.add_parser("consequence", help="span membership for a target identity")
    p_cons.add_argument("--n", type=_integer, required=True)
    p_cons.add_argument("--target", required=True)
    p_cons.add_argument("--vars", default="x,y,z")
    p_cons.add_argument("--coeff-range", type=_integer, default=1, dest="coeff_range")
    p_cons.add_argument("--field", default="Q")
    p_cons.add_argument("--mode", choices=("nc", "c"), default=NONCOMMUTATIVE)
    p_cons.add_argument("--cert", metavar="PATH")
    p_cons.add_argument("--json", metavar="PATH")
    p_cons.add_argument("--unsafe-override", action="store_true", dest="unsafe_override")
    p_cons.set_defaults(func=_cmd_consequence)

    p_search = sub.add_parser("search", help="scan additive maps between finite rings")
    p_search.add_argument("--domain", required=True)
    p_search.add_argument("--codomain", required=True)
    p_search.add_argument("--n", type=_integer, default=3)
    p_search.add_argument("--predicate", default="jordan_not_ring", choices=models.PREDICATES)
    p_search.add_argument("--limit", type=_integer, default=10)
    p_search.add_argument("--sample-count", type=_integer, default=None, dest="sample_count")
    p_search.add_argument("--seed", type=_integer, default=0)
    p_search.add_argument("--json", metavar="PATH")
    p_search.add_argument("--unsafe-override", action="store_true", dest="unsafe_override")
    p_search.set_defaults(func=_cmd_search)

    p_ex = sub.add_parser("examples", help="reproduce the motivating finite examples")
    p_ex.add_argument("--json", metavar="PATH")
    p_ex.set_defaults(func=_cmd_examples)

    p_norm = sub.add_parser("norm", help="numeric contractivity checks")
    p_norm.add_argument("check", choices=("corollary26", "theorem27", "step2"))
    p_norm.add_argument("--m", type=_integer, default=2)
    p_norm.add_argument("--k", type=_integer, default=2)
    p_norm.add_argument("--n", type=_integer, default=3)
    p_norm.add_argument("--power", type=_integer, default=1)
    p_norm.add_argument("--perm", default=None, help="comma separated permutation")
    p_norm.add_argument("--count", type=_integer, default=1000)
    p_norm.add_argument("--samples", type=_integer, default=cstar_num.DEFAULT_SAMPLES)
    p_norm.add_argument("--seed", type=_integer, default=0)
    p_norm.add_argument("--json", metavar="PATH")
    p_norm.set_defaults(func=_cmd_norm)

    p_vc = sub.add_parser("verify-cert", help="independently verify a certificate file")
    p_vc.add_argument("path")
    p_vc.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard refused: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
