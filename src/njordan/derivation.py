"""Scripted derivations with assertions, and a span decision procedure.

A DerivationScript is an ordered list of steps: introduce the seed
identity, substitute linear forms, take rational combinations, and assert
that the identity produced so far equals an expected statement.  replay()
executes a script and returns a Trace that records every intermediate
identity, every assertion outcome with the first diverging term, and the
accumulated denominator badge.  Assertions never abort a replay: a failed
assertion marks the trace failed and the remaining steps still run on the
mechanically derived identities.

The builtin scripts replay two classical derivation chains for additive
maps that preserve n-th powers.  Their assertion targets are the
transcribed numbered equations of the source argument; where the
transcription is unreachable by the sound steps, the assertion fails
honestly and the trace note explains the divergence.

consequence_check() asks a different, fully general question: is a target
identity an exact rational (or prime-field) linear combination of
substitution instances h(L^n) = H(L)^n of the seed?  Membership is decided
by exact Gaussian elimination, a positive answer comes with a Certificate
that an independent routine can re-expand and confirm, and a negative
answer reports the rank and the unexplained residual.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import GuardError
from .exact import eliminate, prime_factors
from .freealg import (
    COMMUTATIVE,
    NONCOMMUTATIVE,
    FreePoly,
    linear_form,
    parse_expr,
    to_string,
    var_id,
)
from .identities import (
    SEED_VAR,
    HIdentity,
    combine,
    identity_to_string,
    is_homogeneous,
    parse_identity,
    seed,
    substitute,
)

MAX_VARS = 4
MAX_COEFF = 2
# Longest certificate coefficient text, and largest decimal exponent in it:
# Fraction("1e10000000") alone builds a ten-million-digit integer.
MAX_COEFF_DIGITS = 1000


# --- script steps -------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """Introduce the seed identity h(a^n) = H(a)^n."""

    n: int


@dataclass(frozen=True)
class Substitute:
    """Apply variable -> linear-form images (given as expression text) to step #ref."""

    ref: int
    subst: Mapping[str, str]


@dataclass(frozen=True)
class Combine:
    """Linear combination sum(coeff * step #ref); coefficients exact rationals."""

    terms: tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class AssertEquals:
    """Assert step #ref equals the expected identity (parsed in script mode)."""

    ref: int
    expected: str
    label: str
    note: str | None = None


Step = Seed | Substitute | Combine | AssertEquals


@dataclass(frozen=True)
class DerivationScript:
    name: str
    mode: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class StepRecord:
    index: int
    kind: str
    detail: str
    identity: str
    denominators: tuple[int, ...]
    label: str | None = None
    expected: str | None = None
    passed: bool | None = None
    divergence: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class Trace:
    script: str
    mode: str
    steps: tuple[StepRecord, ...]
    denominators: tuple[int, ...]
    assertions_passed: int
    assertions_failed: int
    failed: bool

    def final_identity(self) -> str:
        return self.steps[-1].identity if self.steps else "h(0) = 0"


def _first_divergence(actual: HIdentity, expected: HIdentity) -> str:
    """Describe the first term, in graded-lex order, where the sides differ."""
    diff = combine([(1, actual), (-1, expected)])
    for side in ("lhs", "rhs"):
        poly = getattr(diff, side)
        if poly.terms:
            word = poly.terms[0][0]
            shown = to_string(FreePoly.from_terms([(word, 1)], poly.mode), h_heads=(side == "rhs"))
            ca, cb = getattr(actual, side).coeff(word), getattr(expected, side).coeff(word)
            return f"{side} term {shown}: {ca} vs {cb}"
    return "no divergence"


def _subst_detail(spec: Mapping[str, str], ref: int) -> str:
    inner = ", ".join(f"{k} -> {v}" for k, v in sorted(spec.items(), key=lambda kv: var_id(kv[0])))
    return f"substitute {{{inner}}} in #{ref}"


def replay(script: DerivationScript) -> Trace:
    """Execute every step; assertion failures are recorded, never raised."""
    results: list[HIdentity] = []
    records: list[StepRecord] = []
    labels: set[str] = set()
    passed = failed = 0

    def resolve(ref: int, at: int) -> HIdentity:
        if not 1 <= ref < at:
            raise ValueError(f"step #{at} references #{ref}, which is not an earlier step")
        return results[ref - 1]

    for index, step in enumerate(script.steps, start=1):
        label = expected_str = divergence = note = None
        ok: bool | None = None
        if isinstance(step, Seed):
            ident = seed(step.n, script.mode)
            detail = f"seed h(a^{step.n}) = H(a)^{step.n}"
        elif isinstance(step, Substitute):
            base = resolve(step.ref, index)
            images = {var_id(k): parse_expr(v, script.mode) for k, v in step.subst.items()}
            ident = substitute(base, images)
            detail = _subst_detail(step.subst, step.ref)
        elif isinstance(step, Combine):
            parts = [(coeff, resolve(ref, index)) for coeff, ref in step.terms]
            ident = combine(parts)
            detail = "combine " + " + ".join(f"({coeff})*#{ref}" for coeff, ref in step.terms)
        elif isinstance(step, AssertEquals):
            ident = resolve(step.ref, index)
            if step.label in labels:
                raise ValueError(f"duplicate assertion label {step.label!r}")
            labels.add(step.label)
            expected_ident = parse_identity(step.expected, script.mode)
            ok = ident == expected_ident
            label = step.label
            expected_str = identity_to_string(expected_ident)
            note = step.note
            if ok:
                passed += 1
            else:
                failed += 1
                divergence = _first_divergence(ident, expected_ident)
            detail = f"assert #{step.ref} equals {step.label}"
        else:
            raise ValueError(f"unknown step type {type(step).__name__}")
        results.append(ident)
        records.append(
            StepRecord(
                index=index,
                kind=type(step).__name__.lower(),
                detail=detail,
                identity=identity_to_string(ident),
                denominators=tuple(sorted(ident.denominators)),
                label=label,
                expected=expected_str,
                passed=ok,
                divergence=divergence,
                note=note,
            )
        )

    denominators: set[int] = set()
    for ident in results:
        denominators |= ident.denominators
    return Trace(
        script=script.name,
        mode=script.mode,
        steps=tuple(records),
        denominators=tuple(sorted(denominators)),
        assertions_passed=passed,
        assertions_failed=failed,
        failed=failed > 0,
    )


def trace_to_json(trace: Trace) -> str:
    """JSON form; its bytes depend only on the script."""
    return json.dumps(asdict(trace), indent=2, sort_keys=True) + "\n"


def trace_to_text(trace: Trace) -> str:
    lines = [f"script {trace.script} (mode {trace.mode})"]
    for r in trace.steps:
        lines.append(f"  {r.index:>3}. {r.detail}")
        lines.append(f"       {r.identity}")
        if r.kind == "assertequals":
            verdict = "PASS" if r.passed else "FAIL"
            lines.append(f"       {r.label} {verdict}")
            if not r.passed:
                lines.append(f"       expected {r.expected}")
                lines.append(f"       first divergence: {r.divergence}")
            if r.note:
                lines.append(f"       note: {r.note}")
    lines.append(
        f"assertions: {trace.assertions_passed} passed, {trace.assertions_failed} failed; "
        f"denominators {{{', '.join(str(d) for d in trace.denominators)}}}; "
        f"{'FAILED' if trace.failed else 'OK'}"
    )
    return "\n".join(lines) + "\n"


# --- builtin scripts ----------------------------------------------------------

_F = Fraction


def _c(*terms: tuple) -> Combine:
    return Combine(tuple((_F(c), r) for c, r in terms))


THM2_2_N3 = DerivationScript(
    name="thm2_2_n3",
    mode=COMMUTATIVE,
    steps=(
        Seed(3),
        Substitute(1, {"a": "x"}),
        Substitute(1, {"a": "y"}),
        Substitute(1, {"a": "x + y"}),
        _c((_F(1, 3), 4), (_F(-1, 3), 2), (_F(-1, 3), 3)),
        AssertEquals(5, "h(x^2*y + x*y^2) = H(x)^2*H(y) + H(x)*H(y)^2", "(1)"),
        Substitute(5, {"x": "x + z"}),
        Substitute(5, {"x": "z"}),
        _c((_F(1, 2), 7), (_F(-1, 2), 5), (_F(-1, 2), 8)),
        AssertEquals(9, "h(x*y*z) = H(x)*H(y)*H(z)", "final"),
    ),
)

THM2_2_N4 = DerivationScript(
    name="thm2_2_n4",
    mode=COMMUTATIVE,
    steps=(
        Seed(4),
        Substitute(1, {"a": "x"}),
        Substitute(1, {"a": "y"}),
        Substitute(1, {"a": "x + y"}),
        _c((1, 4), (-1, 2), (-1, 3)),
        AssertEquals(
            5,
            "h(4*x^3*y + 6*x^2*y^2 + 4*x*y^3)"
            " = 4*H(x)^3*H(y) + 6*H(x)^2*H(y)^2 + 4*H(x)*H(y)^3",
            "(2)",
        ),
        Substitute(5, {"x": "x + z"}),
        AssertEquals(
            7,
            "h(4*x^3*y + 6*x^2*y^2 + 4*x*y^3 + 4*z^3*y + 6*z^2*y^2 + 4*z*y^3"
            " + 12*x^2*z*y + 12*x*z^2*y + 12*x*z*y^2)"
            " = 4*H(x)^3*H(y) + 6*H(x)^2*H(y)^2 + 4*H(x)*H(y)^3"
            " + 4*H(z)^3*H(y) + 6*H(z)^2*H(y)^2 + 4*H(z)*H(y)^3"
            " + 12*H(x)^2*H(z)*H(y) + 12*H(x)*H(z)^2*H(y) + 12*H(x)*H(z)*H(y)^2",
            "(3)",
            note="recomputed by direct substitution; the recomputation agrees with the"
            " transcribed display, so no sign correction was needed",
        ),
        Substitute(5, {"x": "z"}),
        _c((_F(1, 12), 7), (_F(-1, 12), 5), (_F(-1, 12), 9)),
        AssertEquals(
            10,
            "h(x^2*y*z + x*y^2*z + x*y*z^2)"
            " = H(x)^2*H(y)*H(z) + H(x)*H(y)^2*H(z) + H(x)*H(y)*H(z)^2",
            "(4)",
        ),
        Substitute(10, {"z": "-x"}),
        _c((-1, 12)),
        AssertEquals(13, "h(x^2*y^2) = H(x)^2*H(y)^2", "(5)"),
        Substitute(13, {"y": "y + w"}),
        Substitute(13, {"y": "w"}),
        _c((_F(1, 2), 15), (_F(-1, 2), 13), (_F(-1, 2), 16)),
        AssertEquals(17, "h(x^2*y*w) = H(x)^2*H(y)*H(w)", "(6)"),
        Substitute(17, {"x": "x + t"}),
        Substitute(17, {"x": "t"}),
        _c((_F(1, 2), 19), (_F(-1, 2), 17), (_F(-1, 2), 20)),
        AssertEquals(21, "h(x*t*y*w) = H(x)*H(t)*H(y)*H(w)", "final"),
    ),
)

_NOTE_10 = (
    "transcribed-form mismatch: the transcribed statement collapses the distinct"
    " words xyz, xzy into 2xyz and yzx, zyx into 2yzx and misstates the right"
    " side; this assertion targets the recomputed direct substitution"
)
_NOTE_11 = (
    "the mechanical combination (9) + (9 at z) - (10) yields the fully"
    " symmetrized sum of all six orderings; the transcribed asymmetric form"
    " additionally presumes h(xyz - xzy + yzx - zyx) = 0, which no prior step"
    " provides"
)
_NOTE_14 = (
    "the transcribed citation for this step does not cancel mechanically; the"
    " mechanical route combines (13) with the x,y-swapped (9), and from the"
    " symmetric forms actually derived the difference is the trivial identity"
)
_NOTE_15 = (
    "transcribed-form mismatch: the expected statement here is the symmetrized"
    " corrected form h(yxz + yzx - xzy - zxy) = 0 rather than the transcribed"
    " collapsed form h(yxz - xzy) = 0; the mechanical result is trivial because"
    " step (14) was already trivial"
)
_NOTE_FINAL = (
    "patched ending: the single final substitution only yields the pair"
    " identity h(yxz + yzx) = 2*H(y)*H(x)*H(z), so this step combines the"
    " permutation instances of (11) with the polarized (18) to isolate the"
    " single word; the isolation succeeds only if the asymmetric transcribed"
    " forms hold, which the mechanical derivation does not establish"
)

# The derivation of (9) from the cube identity, shared by both step-1 scripts.
_STEP1_TO_9 = (
    Seed(3),
    Substitute(1, {"a": "x"}),
    Substitute(1, {"a": "y"}),
    Substitute(1, {"a": "x + y"}),
    _c((1, 4), (-1, 2), (-1, 3)),
    AssertEquals(
        5,
        "h(x*y*x + y*x^2 + y^2*x + x^2*y + x*y^2 + y*x*y)"
        " = 3*H(x)^2*H(y) + 3*H(x)*H(y)^2",
        "(7)",
    ),
    Substitute(5, {"y": "-y"}),
    AssertEquals(
        7,
        "h(-x*y*x - y*x^2 + y^2*x - x^2*y + x*y^2 + y*x*y)"
        " = -3*H(x)^2*H(y) + 3*H(x)*H(y)^2",
        "(8)",
    ),
    _c((_F(1, 2), 5), (_F(1, 2), 7)),
    AssertEquals(9, "h(x*y^2 + y^2*x + y*x*y) = 3*H(x)*H(y)^2", "(9)"),
)

THM2_5_STEP1 = DerivationScript(
    name="thm2_5_step1",
    mode=NONCOMMUTATIVE,
    steps=(
        *_STEP1_TO_9,
        Substitute(9, {"y": "y - z"}),
        AssertEquals(
            11,
            "h(x*y^2 + x*z^2 - x*y*z - x*z*y + y^2*x + z^2*x - y*z*x - z*y*x"
            " + y*x*y + z*x*z - y*x*z - z*x*y)"
            " = 3*H(x)*H(y)^2 + 3*H(x)*H(z)^2 - 6*H(x)*H(y)*H(z)",
            "(10)",
            note=_NOTE_10,
        ),
        Substitute(9, {"y": "z"}),
        _c((1, 9), (1, 13), (-1, 11)),
        AssertEquals(
            14,
            "h(y*x*z + z*x*y + 2*x*y*z + 2*y*z*x) = 6*H(x)*H(y)*H(z)",
            "(11)",
            note=_NOTE_11,
        ),
        Substitute(14, {"z": "x"}),
        AssertEquals(
            16,
            "h(3*y*x^2 + x^2*y + 2*x*y*x) = 6*H(x)^2*H(y)",
            "(12)",
        ),
        Substitute(9, {"x": "y", "y": "x"}),
        _c((1, 16), (-1, 18)),
        AssertEquals(
            19,
            "h(x*y*x + 2*y*x^2) = 3*H(x)^2*H(y)",
            "(13)",
        ),
        _c((1, 19), (-1, 18)),
        AssertEquals(21, "h(y*x^2 - x^2*y) = 0", "(14)", note=_NOTE_14),
        Substitute(21, {"x": "x + z"}),
        Substitute(21, {"x": "z"}),
        _c((1, 23), (-1, 21), (-1, 24)),
        AssertEquals(
            25,
            "h(y*x*z + y*z*x - x*z*y - z*x*y) = 0",
            "(15)",
            note=_NOTE_15,
        ),
        Substitute(25, {"y": "z", "z": "y"}),
        _c((1, 14), (1, 27)),
        Substitute(28, {"z": "x"}),
        _c((_F(1, 3), 29)),
        AssertEquals(30, "h(x*y*x + y*x^2) = 2*H(x)^2*H(y)", "(17)"),
        _c((1, 19), (-1, 30)),
        AssertEquals(32, "h(y*x^2) = H(y)*H(x)^2", "(18)"),
        Substitute(32, {"x": "x + z"}),
        Substitute(32, {"x": "z"}),
        _c((1, 34), (-1, 32), (-1, 35)),
        Substitute(14, {"x": "y", "y": "z", "z": "x"}),
        Substitute(14, {"x": "z", "y": "x", "z": "y"}),
        Substitute(36, {"x": "y", "y": "z", "z": "x"}),
        _c((_F(-1, 2), 14), (_F(-1, 2), 37), (_F(1, 2), 38), (_F(3, 2), 36), (_F(1, 2), 39)),
        AssertEquals(40, "h(y*x*z) = H(y)*H(x)*H(z)", "final", note=_NOTE_FINAL),
    ),
)

_NOTE_SYM = (
    "this is the strongest order-symmetric product identity the sound steps"
    " reach: the value of h on the sum of all six orderings of xyz is"
    " determined, while single orderings are not"
)

THM2_5_STEP1_SYM = DerivationScript(
    name="thm2_5_step1_sym",
    mode=NONCOMMUTATIVE,
    steps=(
        *_STEP1_TO_9,
        Substitute(9, {"y": "y - z"}),
        AssertEquals(
            11,
            "h(x*y^2 + x*z^2 - x*y*z - x*z*y + y^2*x + z^2*x - y*z*x - z*y*x"
            " + y*x*y + z*x*z - y*x*z - z*x*y)"
            " = 3*H(x)*H(y)^2 + 3*H(x)*H(z)^2 - 6*H(x)*H(y)*H(z)",
            "(10)",
        ),
        Substitute(9, {"y": "z"}),
        _c((1, 9), (1, 13), (-1, 11)),
        AssertEquals(
            14,
            "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)",
            "(11-sym)",
        ),
        Substitute(14, {"z": "x"}),
        AssertEquals(16, "h(2*x^2*y + 2*x*y*x + 2*y*x^2) = 6*H(x)^2*H(y)", "(12-sym)"),
        _c((_F(1, 2), 16)),
        AssertEquals(18, "h(x^2*y + x*y*x + y*x^2) = 3*H(x)^2*H(y)", "(13-sym)"),
        AssertEquals(
            14,
            "h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)",
            "final-sym",
            note=_NOTE_SYM,
        ),
    ),
)

N2_COMM = DerivationScript(
    name="n2_comm",
    mode=COMMUTATIVE,
    steps=(
        Seed(2),
        Substitute(1, {"a": "x"}),
        Substitute(1, {"a": "y"}),
        Substitute(1, {"a": "x + y"}),
        _c((1, 4), (-1, 2), (-1, 3)),
        AssertEquals(5, "h(2*x*y) = 2*H(x)*H(y)", "pair"),
        _c((_F(1, 2), 5)),
        AssertEquals(7, "h(x*y) = H(x)*H(y)", "final"),
    ),
)

BUILTIN_SCRIPTS: dict[str, DerivationScript] = {
    s.name: s
    for s in (THM2_2_N3, THM2_2_N4, THM2_5_STEP1, THM2_5_STEP1_SYM, N2_COMM)
}


# --- seed instances and span membership ----------------------------------------


@dataclass(frozen=True)
class Instance:
    """One substitution instance of the seed: h(L^n) = H(L)^n for linear L."""

    expr: str
    identity: HIdentity


def generate_instances(
    n: int,
    variables: Sequence[str] = ("x", "y", "z"),
    coeff_range: int = 1,
    mode: str = NONCOMMUTATIVE,
    override: bool = False,
) -> list[Instance]:
    """Seed instances for every coefficient vector in {-c..c}^|vars|.

    The zero vector is dropped and each {eps, -eps} pair is represented by
    its member whose first nonzero entry is negative, its lexicographically
    smaller one (the negation of an instance is a scalar multiple, so nothing
    is lost).  Enumeration order is the lexicographic order of the kept
    vectors.
    """
    if (len(variables) > MAX_VARS or coeff_range > MAX_COEFF) and not override:
        raise GuardError(
            f"instance guard: at most {MAX_VARS} variables and coefficient range"
            f" {MAX_COEFF} without override"
        )
    if coeff_range < 1:
        raise ValueError("coefficient range must be at least 1")
    ids = [var_id(v) for v in variables]
    base = seed(n, mode)
    out = []
    for eps in itertools.product(range(-coeff_range, coeff_range + 1), repeat=len(ids)):
        if next((e for e in eps if e), 0) < 0:
            form = linear_form({v: e for v, e in zip(ids, eps) if e}, mode)
            out.append(Instance(to_string(form), substitute(base, {SEED_VAR: form})))
    return out


# (side, word length, word): side 0 holds the left words and side 1 the right
# monomials, so tuple order is graded-lex order within each side.
Coord = tuple[int, int, tuple[int, ...]]


def _identity_vector(ident: HIdentity) -> dict[Coord, Fraction]:
    vec = {(0, len(word), word): coeff for word, coeff in ident.lhs.terms}
    vec.update(((1, len(word), word), coeff) for word, coeff in ident.rhs.terms)
    return vec


def _parse_field(field_spec) -> int | None:
    """None for exact rationals, or the prime p for GF(p)."""
    if field_spec in (None, "Q", "q"):
        return None
    if not (isinstance(field_spec, str) and field_spec.startswith("GF(") and field_spec.endswith(")")):
        raise ValueError(f"unrecognized field {field_spec!r}; use 'Q' or 'GF(p)'")
    p = int(field_spec[3:-1])
    if prime_factors(p) != {p}:
        raise ValueError(f"{p} is not prime")
    return p


# --- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Exact coefficients over seed instances that reconstruct a target."""

    n: int
    mode: str
    field: str
    target: str
    instances: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "field": self.field,
            "target": self.target,
            "instances": [
                {"subst": {"a": expr}, "coeff": coeff} for expr, coeff in self.instances
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        try:
            instances = tuple(
                (entry["subst"]["a"], str(entry["coeff"])) for entry in data["instances"]
            )
            return Certificate(
                n=int(data["n"]),
                mode=str(data["mode"]),
                field=str(data["field"]),
                target=str(data["target"]),
                instances=instances,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("certificate JSON nests too deeply") from exc
        if not isinstance(data, dict):
            raise ValueError("certificate JSON must be an object")
        return Certificate.from_dict(data)


@dataclass(frozen=True)
class InSpan:
    certificate: Certificate
    rank: int
    n_instances: int

    @property
    def member(self) -> bool:
        return True


@dataclass(frozen=True)
class NotInSpan:
    rank: int
    n_instances: int
    residual: str

    @property
    def member(self) -> bool:
        return False


def _residual_string(residual: Mapping[Coord, Fraction | int], mode: str) -> str:
    lhs_terms = [(w, c) for (side, _, w), c in residual.items() if side == 0]
    rhs_terms = [(w, c) for (side, _, w), c in residual.items() if side == 1]
    lhs = FreePoly.from_terms(lhs_terms, mode)
    rhs = FreePoly.from_terms(rhs_terms, COMMUTATIVE)
    return f"h({to_string(lhs)}) = {to_string(rhs, h_heads=True)}"


def consequence_check(
    n: int,
    target: HIdentity | str,
    variables: Sequence[str] = ("x", "y", "z"),
    coeff_range: int = 1,
    field="Q",
    mode: str = NONCOMMUTATIVE,
    override: bool = False,
) -> InSpan | NotInSpan:
    """Decide whether target is a linear combination of seed instances.

    The linear space has one coordinate per left-side word and one per
    right-side monomial; instances and target embed as sparse vectors, and
    exact elimination (rationals, or GF(p) when field='GF(p)') decides
    membership.  Coordinates order themselves (left words graded-lex, then
    right monomials graded-lex) and each pivot is the smallest coordinate of
    its row, so the emitted certificate is deterministic.
    """
    if isinstance(target, str):
        target = parse_identity(target, mode)
    if not is_homogeneous(target, n):
        raise ValueError(f"target must be degree-homogeneous of degree {n}")
    p = _parse_field(field)
    field_tag = "Q" if p is None else f"GF({p})"
    instances = generate_instances(n, variables, coeff_range, target.mode, override=override)
    vectors = (_identity_vector(inst.identity) for inst in instances)
    independent, combo, residual = eliminate(vectors, _identity_vector(target), p)
    rank = len(independent)
    if combo is None:
        return NotInSpan(rank, len(instances), _residual_string(residual, target.mode))
    used = tuple((instances[idx].expr, str(combo[idx])) for idx in sorted(combo))
    cert = Certificate(
        n=n,
        mode=target.mode,
        field=field_tag,
        target=identity_to_string(target),
        instances=used,
    )
    return InSpan(cert, rank, len(instances))


def _coefficient(text: str) -> Fraction:
    """An untrusted certificate coefficient, refused past MAX_COEFF_DIGITS digits."""
    exponent = re.search(r"e([-+]?\d[\d_]*)", text, re.IGNORECASE)
    if len(text) > MAX_COEFF_DIGITS or (exponent and abs(int(exponent.group(1))) > MAX_COEFF_DIGITS):
        raise GuardError(f"certificate coefficient exceeds {MAX_COEFF_DIGITS} digits")
    return Fraction(text)


def verify_certificate(cert: Certificate, target: HIdentity | str | None = None) -> bool:
    """Re-expand the certificate with the identity calculus and compare.

    Pure recomputation: substitutes each stored linear form into a fresh
    seed, combines with the stored coefficients, and checks the result
    against the target (the embedded one unless an explicit target is
    given): the difference of the combination and the target must vanish,
    over GF(p) up to congruence of every coefficient.
    """
    try:
        if target is None:
            expected = parse_identity(cert.target, cert.mode)
        elif isinstance(target, str):
            expected = parse_identity(target, cert.mode)
        else:
            expected = target
        p = _parse_field(cert.field)
        base = seed(cert.n, cert.mode)
        parts = []
        for expr, coeff in cert.instances:
            form = parse_expr(expr, cert.mode)
            parts.append((_coefficient(coeff), substitute(base, {SEED_VAR: form})))
        diff = combine(parts + [(-1, expected)])
    except (ValueError, ZeroDivisionError):
        return False
    terms = diff.lhs.terms + diff.rhs.terms
    if p is None:
        return not terms
    # Congruence is tested here with plain integer arithmetic, not exact.residue,
    # so the verifier shares no arithmetic with the eliminator it checks.
    return all(c.denominator % p and c.numerator % p == 0 for _, c in terms)
