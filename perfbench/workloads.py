"""The two workloads: seeded inputs, library calls, and verdict checks.

``span`` exercises the free algebra, the identity calculus and the span
checker and never touches ``models``.  ``models`` is the finite-model and
numeric side: each of its rounds joins three op families, ``search``
(map searches), ``evaluate`` (derive an identity, then evaluate it on a
map) and ``catalogue`` (replays, the example catalogue, norm checks and
fresh-ring probes).  A ``models`` round issues every request whose
arguments are fixed (each ``find_njordan_maps``, exhaustive ``search``,
builtin ``replay`` and ``paper_examples``) once and the seeded requests
twice, and a run of the benchmark's length is one round, so no request
repeats exactly within a run.

Each workload is a sequence of rounds.  A round is a stratified mix: the
number of ops in each class is fixed, and the seed chooses only the inputs
inside a class, so every seed gives a mix of the same cost.  Rounds are
generated from ``(workload, seed, round index)`` alone, never from the
program, and each op carries its expected verdict from ``answers``.

Ops call the library the way the command line does, through module
attributes (``derivation.consequence_check``, ``models.search``, ...), so
the traced run sees every call once its wrappers are installed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

import answers

WORKLOADS = ("span", "models")


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes in geometric steps from lo to hi.

    The classes where the median and the 90th percentile fall get their
    sizes from a ladder, so op costs around those quantiles form a smooth
    range wider than the machine's own speed swings, and the quantiles
    move smoothly with them instead of jumping between two levels.
    """
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


@dataclass
class Op:
    """One request: its class, its inputs and its answer key (all JSON-able)."""

    cls: str
    kind: str
    args: dict
    expect: dict = field(default_factory=dict)


# --- span ------------------------------------------------------------------------

# (n, variables, coefficient range, mode, field, members, non-members) per
# round.  Non-members skip verify_certificate, so each (class, member) pair
# has its own cost.  Counts put the median op in the middle of the
# (3, xyz, 2, Q) non-members and the 90th percentile in the middle of the
# (4, xyzw, 1) non-members; the last class is the heavy (4, xyzw, 2) case.
SPAN_MIX = (
    (3, "xyz", 1, "nc", "Q", 3, 4),
    (3, "xyz", 2, "nc", "Q", 2, 8),
    (3, "xyzw", 1, "nc", "Q", 2, 1),
    (4, "xyz", 1, "nc", "Q", 2, 3),
    (4, "xyzw", 1, "nc", "Q", 1, 4),
    (4, "xyz", 2, "c", "Q", 1, 2),
    (3, "xyz", 2, "nc", "GF(7)", 3, 3),
    (4, "xyzw", 2, "nc", "Q", 1, 0),
)

Q_WEIGHTS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))
GF_WEIGHTS = (1, -1, 2, -2, 3)


def _field_prime(name: str) -> int | None:
    return None if name == "Q" else int(name[3:-1])


def _poly_json(p: answers.Poly) -> list[list[str]]:
    return [["".join(w), str(c)] for w, c in sorted(p.items())]


def _poly_from_json(rows) -> answers.Poly:
    return {tuple(w): Fraction(c) for w, c in rows}


def _span_target(rng: random.Random, n: int, variables: str, c: int, mode: str, fld: str):
    """Three instances with nonzero coefficients, combined; kept only when every
    word and monomial survives, so all targets of a class have the same size
    (parsing and checking cost grow with it)."""
    weights = Q_WEIGHTS if fld == "Q" else GF_WEIGHTS
    p = _field_prime(fld)
    full = answers.instance(dict.fromkeys(variables, 1), n, mode)
    while True:
        acc: tuple[answers.Poly, answers.Poly] = ({}, {})
        for _ in range(3):
            eps = [rng.choice([e for e in range(-c, c + 1) if e]) for _ in variables]
            part = answers.instance(dict(zip(variables, eps)), n, mode)
            acc = answers.add_scaled(acc, part, Fraction(rng.choice(weights)))
        alive = [{w for w, v in side.items() if p is None or v.numerator % p} for side in acc]
        if alive == [set(full[0]), set(full[1])]:
            return acc


def _perturb(rng: random.Random, target, n: int, variables: str, how: str):
    lhs, rhs = dict(target[0]), dict(target[1])
    if how == "asym":
        word = rng.choice([w for w in itertools.product(variables, repeat=n) if len(set(w)) > 1])
        lhs[word] = lhs.get(word, Fraction(0)) + 1
    else:
        mono = tuple(sorted(rng.choice(list(itertools.product(variables, repeat=n))), key=answers.VAR_ORDER.index))
        rhs[mono] = rhs.get(mono, Fraction(0)) + 1
    return answers.clean(lhs), answers.clean(rhs)


def span_round(rng: random.Random) -> list[Op]:
    ops = []
    for n, variables, c, mode, fld, members, non_members in SPAN_MIX:
        cls = f"n{n}.{variables}.c{c}.{mode}.{fld}"
        p = _field_prime(fld)
        for i in range(members + non_members):
            lhs, rhs = _span_target(rng, n, variables, c, mode, fld)
            member = i < members
            stratum = f"{cls}.{'member' if member else 'non'}"
            if not member:
                how = "asym" if mode == "nc" and (i - members) % 2 == 0 else "rhs"
                lhs, rhs = _perturb(rng, (lhs, rhs), n, variables, how)
            if answers.satisfies_span_invariants(lhs, rhs, mode, p) != member:
                raise AssertionError(f"span target generator broke its own invariant in {cls}")
            ops.append(Op(
                stratum,
                "span",
                {"n": n, "vars": variables, "coeff_range": c, "mode": mode, "field": fld,
                 "target": answers.render_identity(lhs, rhs)},
                {"member": member, "lhs": _poly_json(lhs), "rhs": _poly_json(rhs)},
            ))
    return ops


# --- models: search family ----------------------------------------------------------------------

THEORY_RINGS = {"zm:5": 1, "zm:5^2": 2}

# Exhaustive requests, each once per round: (domain, codomain, predicate, n).
SEARCH_FIXED = tuple(
    [("zm:5", "zm:5", pred, n) for pred in ("jordan_not_ring", "njordan_not_jordan", "njordan_not_nring")
     for n in (2, 3, 4, 5)]
    + [
        ("zm:5^2", "zm:5^2", "jordan_not_ring", 2),
        ("zm:5^2", "zm:5^2", "njordan_not_jordan", 3),
        ("zm:5^2", "zm:5^2", "njordan_not_jordan", 5),
        ("zm:5^2", "zm:5^2", "njordan_not_nring", 3),
        ("zm:5^2", "zm:5^2", "njordan_not_nring", 4),
        ("upper:3@2", "upper:3@2", "jordan_not_ring", 2),
        ("upper:3@2", "upper:3@2", "njordan_not_jordan", 4),
        ("upper:3@2", "upper:3@2", "njordan_not_nring", 3),
        ("mat:2x2@2", "mat:2x2@2", "jordan_not_ring", 2),
        ("mat:2x2@2", "mat:2x2@2", "njordan_not_jordan", 3),
        ("mat:2x2@2", "mat:2x2@2", "njordan_not_nring", 2),
        ("mat:2x2@5", "zm:5", "jordan_not_ring", 2),
        ("mat:2x2@5", "zm:5", "njordan_not_jordan", 3),
    ]
)
FIND_FIXED = tuple((spec, n) for spec in ("zm:5", "zm:5^2") for n in (2, 3, 4, 5))

# Seeded-sample requests: (ring, predicate, n, sample sizes).  The seed
# picks only each op's sample seed.  The models workload's median op falls
# in the middle of the zm:5^2 n=5 ladder and its 90th percentile in the
# middle of the mat:2x2@2 n=4 ladder.
SEARCH_SAMPLED = (
    ("upper:3@2", "njordan_not_jordan", 3, [300] * 5),
    ("zm:5^2", "jordan_not_ring", 2, [200] * 5),
    ("upper:3@2", "jordan_not_ring", 2, [300] * 5),
    ("upper:3@2", "njordan_not_nring", 2, [300] * 5),
    ("zm:5^2", "njordan_not_jordan", 5, ladder(100, 300, 24)),
    ("mat:2x2@2", "njordan_not_jordan", 2, [1000] * 3),
    ("mat:2x2@2", "njordan_not_jordan", 3, [1000] * 2),
    ("mat:2x2@2", "njordan_not_jordan", 5, [1000] * 2),
    ("mat:2x2@2", "jordan_not_ring", 2, [1000] * 2),
    ("mat:2x2@2", "njordan_not_nring", 2, [1000] * 2),
    ("mat:2x2@2", "njordan_not_nring", 3, [1000] * 2),
    ("mat:2x2@2", "njordan_not_jordan", 4, ladder(2500, 6000, 10)),
)
SEARCH_RINGS = ("zm:5", "zm:5^2", "upper:3@2", "mat:2x2@2", "mat:2x2@5")

# Only h = 0 preserves squares or cubes from M_2(Z_5) into Z_5: h(N)^n =
# h(N^n) = 0 kills the square-zero matrices, which span the trace-zero ones,
# so h = mu*tr; then a = E11 gives mu^n = mu and a = I gives 2mu = 2^n mu^n,
# which forces mu = 0 for n = 2, 3.  So neither request has a hit.
ZERO_HIT_REQUESTS = {("mat:2x2@5", "zm:5", "jordan_not_ring", 2), ("mat:2x2@5", "zm:5", "njordan_not_jordan", 3)}


def _search_expect(dom: str, cod: str, pred: str, n: int) -> list[int] | None:
    if dom == cod and dom in THEORY_RINGS:
        return answers.theory_search_indices(5, THEORY_RINGS[dom], pred, n)
    if (dom, cod, pred, n) in ZERO_HIT_REQUESTS:
        return []
    return None


def fixed_search() -> list[Op]:
    """Each find request and each exhaustive search once."""
    ops = []
    for spec, n in FIND_FIXED:
        ops.append(Op(f"find.{spec}.n{n}", "find", {"dom": spec, "n": n, "limit": 700},
                      {"indices": answers.njordan_map_indices(5, THEORY_RINGS[spec], n)}))
    for dom, cod, pred, n in SEARCH_FIXED:
        key = _search_expect(dom, cod, pred, n)
        limit = 700 if key is not None else 10
        ops.append(Op(f"search.{dom}.{cod}.{pred}.n{n}", "search",
                      {"dom": dom, "cod": cod, "predicate": pred, "n": n, "limit": limit,
                       "sample_count": None, "seed": 0},
                      {"indices": key}))
    return ops


def search_round(rng: random.Random) -> list[Op]:
    """The seeded-sample searches."""
    ops = []
    for dom, pred, n, counts in SEARCH_SAMPLED:
        for count in counts:
            ops.append(Op(f"sample.{dom}.{pred}.n{n}", "search",
                          {"dom": dom, "cod": dom, "predicate": pred, "n": n, "limit": 10,
                           "sample_count": count, "seed": rng.randrange(2 ** 31)},
                          {"subset_of": _search_expect(dom, dom, pred, n)}))
    return ops


# --- models: evaluate family --------------------------------------------------------------------

# (model, shape, assignment cap of each op in a round).  S2 is
# I(e1 a + e2 b) - I(e1 a) - I(e2 b), S3 the alternating sum over nonempty
# subsets of three variables: both have six left-side words whatever the
# seed picks, so every op has a fixed cost.  'neg' are the two
# order-asymmetric controls.  A space over the cap is sampled, otherwise
# enumerated.  The p5.S2 count helps put the models workload's median in
# the search family's ladder; the p5.S3 and mat.S2 (criterion-8 hot path)
# ladders keep op costs smooth.
EVALUATE_MIX = (
    ("p5", "S2", [10 ** 5] * 37),
    ("p5", "S3", ladder(6000, 15625, 50)),
    ("gap", "neg", [10 ** 4] * 2),
    ("mat", "S2", ladder(25000, 10 ** 5, 8)),
    ("mat", "S3", [10 ** 5] * 2),
    ("gap", "S2", [10 ** 4]),
    ("gap", "S3", [10 ** 4]),
)
NEGATIVE_CONTROLS = (
    ("h(x*y*x) = H(x)^2*H(y)", [["xyx", "1"]], [["xxy", "1"]]),
    ("h(x*y*z) = H(x)*H(y)*H(z)", [["xyz", "1"]], [["xyz", "1"]]),
)
EVAL_WEIGHTS = ("1", "-1", "2", "1/2", "-1/3", "3")
P5_CUBE_MAPS = tuple(
    [list(r) for r in rows]
    for rows in itertools.product(answers.power_functionals(5, 2, 3), repeat=2)
)


def evaluate_round(rng: random.Random) -> list[Op]:
    ops = []
    neg = 0
    for model, shape, sizes in EVALUATE_MIX:
        for size in sizes:
            args: dict[str, Any] = {"model": model, "shape": shape, "sample_seed": rng.randrange(2 ** 31),
                                    "max_assignments": size}
            if shape == "neg":
                text, lhs, rhs = NEGATIVE_CONTROLS[neg % len(NEGATIVE_CONTROLS)]
                neg += 1
                args.update(target=text, lhs=lhs, rhs=rhs)
                k = len(set(lhs[0][0]))
                ok = False
            else:
                k = 2 if shape == "S2" else 3
                args["vars"] = "".join(rng.sample("xyz", k))
                args["coeffs"] = [rng.choice((1, -1, 2, -2)) for _ in range(k)]
                args["weight"] = rng.choice(EVAL_WEIGHTS)
                ok = True
            space = {"p5": 25, "mat": 625, "gap": 5 ** 14}[model] ** k
            if model == "p5":
                args["map"] = rng.randrange(len(P5_CUBE_MAPS))
            checked, exhaustive = (space, True) if space <= size else (size, False)
            ops.append(Op(f"{model}.{shape}", "evaluate", args,
                          {"ok": ok, "checked": checked, "exhaustive": exhaustive}))
    return ops


# --- models: catalogue family -------------------------------------------------------------------

PERMS = tuple(itertools.permutations(range(3)))


def fixed_catalogue() -> list[Op]:
    """Each builtin replay script and the example catalogue once."""
    ops = [Op("replay", "replay", {"script": name}, {"outcome": list(out)})
           for name, out in answers.REPLAY_OUTCOMES.items()]
    ops.append(Op("examples", "examples", {}, {"ok": True}))
    return ops


def catalogue_round(rng: random.Random) -> list[Op]:
    """Norm checks and fresh-ring probes, all seeded."""
    ops = []
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            ops.append(Op(f"corollary26.m{m}", "corollary26", {"m": m, "k": k, "seed": rng.randrange(2 ** 31)},
                          {"maps_checked": (2 * m + 1) ** k}))
    # sample and batch sizes on ladders keep op costs smooth
    samples = iter(ladder(128, 512, 18))
    for power in (1, 2, 3):
        for perm in PERMS:
            ops.append(Op("theorem27", "theorem27", {"power": power, "perm": list(perm), "samples": next(samples),
                                                     "seed": rng.randrange(2 ** 31)}, {"rejected_by": None}))
    ops.append(Op("theorem27.scaled", "theorem27_scaled",
                  {"scale": rng.choice((0.25, 0.5, 0.75)), "seed": rng.randrange(2 ** 31)},
                  {"rejected_by": "star_product"}))
    for n, count in zip((2, 3, 4, 2, 3, 4, 3), ladder(150, 600, 7)):
        ops.append(Op("step2", "step2", {"m": 3, "k": 3, "n": n, "count": count,
                                         "seed": rng.randrange(2 ** 31)}, {"all_equivalent": True}))
    for _ in range(4):
        p, n = rng.choice((3, 5, 7)), rng.randint(2, 6)
        spec = rng.choice((f"zm:{p}", f"zm:{p}^2"))
        ops.append(Op("negation", "negation", {"spec": spec, "n": n}, {"ok": n % 2 == 1}))
    for p in (2, 2, 3, 3):
        ops.append(Op(f"transpose.{p}", "transpose", {"spec": f"mat:2x2@{p}", "n": rng.randint(2, 6)},
                      {"jordan": True, "ring": False}))
    return ops


# Copies of the seeded requests in a models round; the p50 and p90
# placements described above assume two.
MODELS_COPIES = 2


def models_round(rng: random.Random) -> list[Op]:
    ops = fixed_search() + fixed_catalogue()
    for _ in range(MODELS_COPIES):
        ops += search_round(rng) + evaluate_round(rng) + catalogue_round(rng)
    return ops


ROUNDS = {"span": span_round, "models": models_round}

# The op family of each op kind, for the families' shares of op time.
FAMILY = {
    "span": "span",
    "find": "search", "search": "search",
    "evaluate": "evaluate",
    "replay": "catalogue", "examples": "catalogue", "corollary26": "catalogue", "theorem27": "catalogue",
    "theorem27_scaled": "catalogue", "step2": "catalogue", "negation": "catalogue", "transpose": "catalogue",
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of one round, in seeded random order; a pure function of its arguments.

    Shuffling spreads every class over the whole round, so a slow spell of
    the machine does not land on one class only.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops


# --- set-up and execution --------------------------------------------------------


def setup(workload: str) -> dict:
    """Import the library and build every ring, map and model the workload uses."""
    import njordan
    from njordan import models

    built: dict[str, Any] = {"nj": njordan}
    if workload == "models":
        built["rings"] = {spec: models.ring_from_spec(spec) for spec in SEARCH_RINGS}
        m25, z5 = models.matrix_ring(2, 5), models.make_zm(5)
        p5 = models.ring_from_spec("zm:5^2")
        built["mat"] = (m25, z5, [models.AdditiveMap(m25, z5, np.zeros((1, 4), dtype=np.int64))])
        built["p5"] = (p5, p5, [models.AdditiveMap(p5, p5, mat) for mat in P5_CUBE_MAPS])
        dom, cod, h = models.gap_witness_model()
        built["gap"] = (dom, cod, [h])
    return built


def _linear_text(variables: str, coeffs) -> str:
    return " + ".join(f"{c}*{v}" for v, c in zip(variables, coeffs)).replace("+ -", "- ")


def _derive(nj, variables: str, coeffs, weight: Fraction, shape: str):
    """seed / substitute / combine: the identity an evaluate op checks."""
    nc = nj.freealg.NONCOMMUTATIVE
    base = nj.identities.seed(3, nc)

    def inst(subset):
        form = nj.freealg.parse_expr(_linear_text([variables[i] for i in subset], [coeffs[i] for i in subset]), nc)
        return nj.identities.substitute(base, {nj.identities.SEED_VAR: form})

    k = len(variables)
    parts = []
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            parts.append((weight * (-1) ** (k - size), inst(subset)))
    return nj.identities.combine(parts)


def execute(op: Op, built: dict):
    """Run one op against the library and return its raw outputs."""
    nj = built["nj"]
    a = op.args
    if op.kind == "span":
        res = nj.derivation.consequence_check(a["n"], a["target"], tuple(a["vars"]), a["coeff_range"],
                                              field=a["field"], mode=a["mode"])
        verified = nj.derivation.verify_certificate(res.certificate) if res.member else None
        return res, verified
    if op.kind == "find":
        ring = built["rings"][a["dom"]]
        return nj.models.find_njordan_maps(ring, ring, a["n"], limit=a["limit"])
    if op.kind == "search":
        rings = built["rings"]
        return nj.models.search(rings[a["dom"]], rings[a["cod"]], a["n"], predicate=a["predicate"],
                                limit=a["limit"], sample_count=a["sample_count"], seed=a["seed"])
    if op.kind == "evaluate":
        dom, cod, maps = built[a["model"]]
        h = maps[a.get("map", 0)]
        if a["shape"] == "neg":
            ident = nj.identities.parse_identity(a["target"], nj.freealg.NONCOMMUTATIVE)
        else:
            ident = _derive(nj, a["vars"], a["coeffs"], Fraction(a["weight"]), a["shape"])
        return nj.identities.evaluate(ident, dom, cod, h, max_assignments=a["max_assignments"],
                                      sample_seed=a["sample_seed"]), h.matrix.tolist()
    if op.kind == "replay":
        return nj.derivation.replay(nj.derivation.BUILTIN_SCRIPTS[a["script"]])
    if op.kind == "examples":
        return nj.models.paper_examples()
    cs = nj.cstar_num
    if op.kind == "corollary26":
        return cs.check_corollary_2_6(a["m"], a["k"], seed=a["seed"])
    if op.kind == "theorem27":
        return cs.check_theorem_2_7(cs.coordinate_star_map(3, tuple(a["perm"])), a["power"], a["samples"],
                                    seed=a["seed"])
    if op.kind == "theorem27_scaled":
        return cs.check_theorem_2_7(cs.LinearMapC(a["scale"] * np.eye(2)), 1, seed=a["seed"])
    if op.kind == "step2":
        maps = cs.random_linear_maps(a["m"], a["k"], a["count"], a["seed"])
        return [cs.step2_reduction_check(h, a["n"], seed=a["seed"]) for h in maps]
    if op.kind == "negation":
        ring = nj.models.ring_from_spec(a["spec"])
        h = nj.models.AdditiveMap(ring, ring, answers.negation_matrix(ring.dim, ring.modulus))
        return nj.models.is_n_jordan(h, a["n"])
    if op.kind == "transpose":
        ring = nj.models.ring_from_spec(a["spec"])
        h = nj.models.AdditiveMap(ring, ring, answers.transpose_matrix(2))
        return nj.models.is_n_jordan(h, a["n"]), nj.models.is_n_ring(h, 2)
    raise ValueError(f"unknown op kind {op.kind!r}")


# --- verdict checks --------------------------------------------------------------


def _hits_ok(a: dict, expect: dict, hits) -> bool:
    indices = [h.index for h in hits]
    if len(hits) > a["limit"]:
        return False
    if expect.get("indices") is not None and indices != expect["indices"]:
        return False
    if expect.get("subset_of") is not None and not set(indices) <= set(expect["subset_of"]):
        return False
    m = answers.ring_arith(a["dom"])[0]
    for hit in hits:
        if hit.index != answers.matrix_index(hit.matrix, m):
            return False
        if not answers.predicate_holds(a["predicate"], a["dom"], a["cod"], hit.matrix, a["n"]):
            return False
    if a["sample_count"] is None and indices != sorted(set(indices)):
        return False
    return True


def _identity_differs(dom: str, cod: str, matrix, lhs, rhs, witness: dict) -> bool:
    m, _, mul_a = answers.ring_arith(dom)
    _, db, mul_b = answers.ring_arith(cod)
    vals = {v: tuple(x % m for x in vec) for v, vec in witness.items()}
    images = {v: answers.apply(matrix, vec, m) for v, vec in vals.items()}
    left = [0] * db
    for word, c in lhs:
        img = answers.apply(matrix, answers.product(mul_a, [vals[v] for v in word]), m)
        left = [(x + int(c) * y) % m for x, y in zip(left, img)]
    right = [0] * db
    for word, c in rhs:
        img = answers.product(mul_b, [images[v] for v in word])
        right = [(x + int(c) * y) % m for x, y in zip(right, img)]
    return left != right


GAP_SPECS = ("freetrunc:2d3@5", "nilpoly:2@5")


def check(op: Op, out) -> bool:
    """Compare one op's outputs with its answer key."""
    a, e = op.args, op.expect
    if op.kind == "span":
        res, verified = out
        if res.member != e["member"]:
            return False
        if not res.member:
            return True
        cert = res.certificate
        return verified is True and answers.certificate_reconstructs(
            cert.instances, a["n"], a["mode"], _poly_from_json(e["lhs"]), _poly_from_json(e["rhs"]),
            _field_prime(a["field"]))
    if op.kind == "find":
        return [h.index for h in out] == e["indices"]
    if op.kind == "search":
        return _hits_ok(a, e, out)
    if op.kind == "evaluate":
        rep, matrix = out
        if (rep.ok, rep.checked, rep.exhaustive) != (e["ok"], e["checked"], e["exhaustive"]):
            return False
        if rep.ok:
            return rep.witness is None
        return _identity_differs(*GAP_SPECS, matrix, a["lhs"], a["rhs"], rep.witness)
    if op.kind == "replay":
        return [out.failed, out.assertions_passed, out.assertions_failed] == e["outcome"]
    if op.kind == "examples":
        return answers.examples_ok(out) == e["ok"]
    if op.kind == "corollary26":
        return out["ok"] and out["maps_checked"] == e["maps_checked"] and out["max_norm"] <= 1.0
    if op.kind in ("theorem27", "theorem27_scaled"):
        if out["rejected_by"] != e["rejected_by"]:
            return False
        return out["rejected_by"] is not None or (out["ok"] and abs(out["norm"] - 1.0) < 1e-9)
    if op.kind == "step2":
        return all(out) == e["all_equivalent"]
    if op.kind == "negation":
        if out.ok != e["ok"]:
            return False
        if out.ok:
            return True
        m, d, _ = answers.ring_arith(a["spec"])
        return answers.n_jordan_violated(a["spec"], a["spec"], answers.negation_matrix(d, m), a["n"],
                                         out.witness[0])
    if op.kind == "transpose":
        jordan, ring = out
        if (jordan.ok, ring.ok) != (e["jordan"], e["ring"]):
            return False
        return answers.n_ring_violated(a["spec"], a["spec"], answers.transpose_matrix(2), 2, ring.witness)
    raise ValueError(f"unknown op kind {op.kind!r}")
