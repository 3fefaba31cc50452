"""Answer keys that do not depend on the code under test.

Everything here is plain Python integers and Fractions: ring products are
written out from the documented coordinate conventions of each ring, power
expansions are computed word by word, and expected verdicts come from the
invariants and theorems stated next to each key.  Nothing in this module
imports njordan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

Vec = tuple[int, ...]
Mul = Callable[[Vec, Vec], Vec]

VAR_ORDER = "xyzwtabc"


# --- ring arithmetic ------------------------------------------------------------
#
# Coordinates follow the library's documented bases: Z_m^k is componentwise;
# k x k matrices use e_ij in row-major order; strictly upper triangular
# matrices use the pairs (i, j), i < j, in row-major order; the truncated
# free algebra on two letters uses all words of length 1..3 in graded
# lexicographic order; Z_m[e]/(e^3) uses 1, e, e^2.


def mul_zm(m: int) -> Mul:
    return lambda u, v: tuple((a * b) % m for a, b in zip(u, v))


def mul_mat(k: int, m: int) -> Mul:
    def mul(u: Vec, v: Vec) -> Vec:
        return tuple(
            sum(u[i * k + j] * v[j * k + q] for j in range(k)) % m
            for i in range(k)
            for q in range(k)
        )

    return mul


def mul_upper(k: int, m: int) -> Mul:
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pos = {p: n for n, p in enumerate(pairs)}

    def mul(u: Vec, v: Vec) -> Vec:
        out = [0] * len(pairs)
        for (i, j), a in pos.items():
            if not u[a]:
                continue
            for (p, q), b in pos.items():
                if j == p and v[b]:
                    out[pos[(i, q)]] += u[a] * v[b]
        return tuple(x % m for x in out)

    return mul


def mul_freetrunc(letters: int, maxdeg: int, m: int) -> Mul:
    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(maxdeg):
        frontier = [w + (a,) for w in frontier for a in range(letters)]
        words.extend(frontier)
    pos = {w: i for i, w in enumerate(words)}

    def mul(u: Vec, v: Vec) -> Vec:
        out = [0] * len(words)
        for w1, i in pos.items():
            if not u[i]:
                continue
            for w2, j in pos.items():
                if v[j] and len(w1) + len(w2) <= maxdeg:
                    out[pos[w1 + w2]] += u[i] * v[j]
        return tuple(x % m for x in out)

    return mul


def mul_nilpoly(maxdeg: int, m: int) -> Mul:
    d = maxdeg + 1

    def mul(u: Vec, v: Vec) -> Vec:
        out = [0] * d
        for i in range(d):
            for j in range(d - i):
                out[i + j] += u[i] * v[j]
        return tuple(x % m for x in out)

    return mul


def ring_arith(spec: str) -> tuple[int, int, Mul]:
    """(modulus, dimension, product) for the ring specs the workloads use."""
    if spec.startswith("zm:"):
        body = spec[3:]
        m, k = (int(x) for x in body.split("^")) if "^" in body else (int(body), 1)
        return m, k, mul_zm(m)
    if spec.startswith("mat:"):
        shape, m = spec[4:].split("@")
        k = int(shape.split("x")[0])
        return int(m), k * k, mul_mat(k, int(m))
    if spec.startswith("upper:"):
        k, m = (int(x) for x in spec[6:].split("@"))
        return m, k * (k - 1) // 2, mul_upper(k, m)
    if spec.startswith("freetrunc:"):
        body, m = spec[10:].split("@")
        letters, maxdeg = (int(x) for x in body.split("d"))
        return int(m), sum(letters ** j for j in range(1, maxdeg + 1)), mul_freetrunc(letters, maxdeg, int(m))
    if spec.startswith("nilpoly:"):
        maxdeg, m = (int(x) for x in spec[8:].split("@"))
        return m, maxdeg + 1, mul_nilpoly(maxdeg, m)
    raise ValueError(f"no reference arithmetic for {spec!r}")


def apply(matrix: Sequence[Sequence[int]], u: Vec, m: int) -> Vec:
    return tuple(sum(int(a) * b for a, b in zip(row, u)) % m for row in matrix)


def power(mul: Mul, u: Vec, n: int) -> Vec:
    out = u
    for _ in range(n - 1):
        out = mul(out, u)
    return out


def product(mul: Mul, factors: Sequence[Vec]) -> Vec:
    out = factors[0]
    for f in factors[1:]:
        out = mul(out, f)
    return out


def elements(m: int, d: int):
    return itertools.product(range(m), repeat=d)


def n_jordan_violated(dom: str, cod: str, matrix, n: int, a: Sequence[int]) -> bool:
    """True when h(a^n) differs from h(a)^n at this element."""
    m, _, mul_a = ring_arith(dom)
    _, _, mul_b = ring_arith(cod)
    a = tuple(int(x) % m for x in a)
    return apply(matrix, power(mul_a, a, n), m) != power(mul_b, apply(matrix, a, m), n)


def is_n_jordan(dom: str, cod: str, matrix, n: int) -> bool:
    """h(a^n) = h(a)^n on every element of the domain."""
    m, d, _ = ring_arith(dom)
    return not any(n_jordan_violated(dom, cod, matrix, n, a) for a in elements(m, d))


def n_ring_violated(dom: str, cod: str, matrix, n: int, factors: Sequence[Vec]) -> bool:
    """True when h(a_1 ... a_n) differs from h(a_1) ... h(a_n) at these factors."""
    m, _, mul_a = ring_arith(dom)
    _, _, mul_b = ring_arith(cod)
    factors = [tuple(int(x) % m for x in f) for f in factors]
    lhs = apply(matrix, product(mul_a, factors), m)
    rhs = product(mul_b, [apply(matrix, f, m) for f in factors])
    return lhs != rhs


def has_n_ring_violation(dom: str, cod: str, matrix, n: int) -> bool:
    m, d, _ = ring_arith(dom)
    elems = list(elements(m, d))
    return any(n_ring_violated(dom, cod, matrix, n, t) for t in itertools.product(elems, repeat=n))


def predicate_holds(predicate: str, dom: str, cod: str, matrix, n: int) -> bool:
    """Re-check one search hit exhaustively with the arithmetic above."""
    if predicate == "jordan_not_ring":
        return is_n_jordan(dom, cod, matrix, 2) and has_n_ring_violation(dom, cod, matrix, 2)
    if predicate == "njordan_not_jordan":
        return is_n_jordan(dom, cod, matrix, n) and not is_n_jordan(dom, cod, matrix, 2)
    if predicate == "njordan_not_nring":
        return is_n_jordan(dom, cod, matrix, n) and has_n_ring_violation(dom, cod, matrix, n)
    raise ValueError(predicate)


def matrix_index(matrix: Sequence[Sequence[int]], m: int) -> int:
    """Row-major base-m index of an additive map's matrix."""
    index = 0
    for row in matrix:
        for x in row:
            index = index * m + int(x)
    return index


# --- power-preserving maps on Z_5^k ------------------------------------------
#
# A functional f(a) = sum c_i a_i on Z_p^k with f(a^n) = f(a)^n for n < p is
# a polynomial identity of degree n < p in each coordinate, so every cross
# term vanishes: at most one c_i is nonzero and it satisfies c^n = c.  For
# n = p every functional qualifies (Frobenius).  A map into Z_p^k preserves
# n-th powers exactly when each component functional does.


def power_functionals(p: int, k: int, n: int) -> list[Vec]:
    if not 2 <= n <= p:
        raise ValueError("the classification above covers 2 <= n <= p")
    if n == p:
        return list(itertools.product(range(p), repeat=k))
    out: list[Vec] = [(0,) * k]
    for i in range(k):
        for c in range(1, p):
            if pow(c, n, p) == c:
                out.append(tuple(c if j == i else 0 for j in range(k)))
    return out


def njordan_map_indices(p: int, k: int, n: int) -> list[int]:
    """Indices of every n-th-power-preserving additive map Z_p^k -> Z_p^k."""
    rows = power_functionals(p, k, n)
    return sorted(matrix_index(mat, p) for mat in itertools.product(rows, repeat=k))


def theory_search_indices(p: int, k: int, predicate: str, n: int) -> list[int]:
    """Search hits on Z_p^k -> Z_p^k from the classification above.

    For n < p the power-preserving maps have rows c*e_i with c^n = c, which
    are multiplicative in every arity, so jordan_not_ring and
    njordan_not_nring have no hits (njordan_not_nring is keyed for n < p,
    or k = 1 where every map is a scalar); njordan_not_jordan hits are the
    n-power maps that are not 2-power maps.
    """
    if predicate == "jordan_not_ring":
        return []
    if predicate == "njordan_not_nring":
        if n >= p and k > 1:
            raise ValueError("no key for njordan_not_nring at n >= p on Z_p^k, k > 1")
        return []
    jordan = set(njordan_map_indices(p, k, 2))
    return [i for i in njordan_map_indices(p, k, n) if i not in jordan]


# --- span targets -------------------------------------------------------------
#
# Polynomials are dicts from words (tuples of variable names) to Fractions.
# The left side of h(L^n) = H(L)^n with L = sum e_v v has coefficient
# prod e over each word, so (1) in nc mode the left side is constant on
# each letter-content class, and (2) the left coefficients summed over a
# class equal the right coefficient of that class's monomial.  Both survive
# linear combination, so they hold on every span member; a target breaking
# either is outside the span.

Poly = dict[tuple[str, ...], Fraction]


def _canon(word: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(word, key=VAR_ORDER.index))


def instance(coeffs: dict[str, int], n: int, mode: str) -> tuple[Poly, Poly]:
    """Both sides of h(L^n) = H(L)^n, expanded word by word."""
    lhs: Poly = {}
    rhs: Poly = {}
    for word in itertools.product(sorted(coeffs, key=VAR_ORDER.index), repeat=n):
        c = Fraction(1)
        for v in word:
            c *= coeffs[v]
        if not c:
            continue
        key = _canon(word) if mode == "c" else word
        lhs[key] = lhs.get(key, Fraction(0)) + c
        rhs[_canon(word)] = rhs.get(_canon(word), Fraction(0)) + c
    return clean(lhs), clean(rhs)


def clean(p: Poly) -> Poly:
    return {w: c for w, c in p.items() if c}


def add_scaled(acc: tuple[Poly, Poly], part: tuple[Poly, Poly], weight: Fraction) -> tuple[Poly, Poly]:
    out = []
    for a, b in zip(acc, part):
        merged = dict(a)
        for w, c in b.items():
            merged[w] = merged.get(w, Fraction(0)) + weight * c
        out.append(clean(merged))
    return out[0], out[1]


def satisfies_span_invariants(lhs: Poly, rhs: Poly, mode: str, p: int | None) -> bool:
    """Invariants (1) and (2) above, over Q or modulo p."""

    def zero(c: Fraction) -> bool:
        return c == 0 if p is None else c.numerator % p == 0

    classes: dict[tuple[str, ...], list[Fraction]] = {}
    for w, c in lhs.items():
        classes.setdefault(_canon(w), []).append(c)
    for cls in set(classes) | set(rhs):
        coeffs = classes.get(cls, [])
        if mode == "nc":
            size = len(set(itertools.permutations(cls)))
            full = coeffs + [Fraction(0)] * (size - len(coeffs))
            if any(not zero(c - full[0]) for c in full):
                return False
        if not zero(sum(coeffs, Fraction(0)) - rhs.get(cls, Fraction(0))):
            return False
    return True


def render_word(word: tuple[str, ...], heads: bool) -> str:
    return "*".join(f"H({v})" if heads else v for v in word)


def render_poly(p: Poly, heads: bool) -> str:
    if not p:
        return "0"
    parts = []
    for w in sorted(p, key=lambda w: (len(w), [VAR_ORDER.index(v) for v in w])):
        c = p[w]
        mag = -c if c < 0 else c
        body = render_word(w, heads) if mag == 1 else f"{mag}*{render_word(w, heads)}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def render_identity(lhs: Poly, rhs: Poly) -> str:
    return f"h({render_poly(lhs, False)}) = {render_poly(rhs, True)}"


def parse_linear(expr: str) -> dict[str, int]:
    """Coefficients of a rendered integer-linear form such as '-x + 2*z'."""
    out: dict[str, int] = {}
    text = expr.replace(" - ", " + -").strip()
    for term in text.split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coeff, _, var = term.rpartition("*")
        out[var] = out.get(var, 0) + sign * (int(coeff) if coeff else 1)
    return out


def certificate_reconstructs(
    instances: Sequence[tuple[str, str]], n: int, mode: str, lhs: Poly, rhs: Poly, p: int | None
) -> bool:
    """Re-expand a certificate word by word and compare with the target."""
    acc: tuple[Poly, Poly] = ({}, {})
    for expr, coeff in instances:
        acc = add_scaled(acc, instance(parse_linear(expr), n, mode), Fraction(coeff))
    diff = add_scaled(acc, (lhs, rhs), Fraction(-1))
    if p is None:
        return not diff[0] and not diff[1]
    return all(c.denominator % p and c.numerator % p == 0 for side in diff for c in side.values())


# --- evaluate and catalogue keys -----------------------------------------------

# Builtin scripts: (failed, assertions passed, assertions failed).  The
# order-separating chain fails 8 of its 12 assertions under exact replay;
# every other script replays cleanly.
REPLAY_OUTCOMES = {
    "thm2_2_n3": (False, 2, 0),
    "thm2_2_n4": (False, 6, 0),
    "thm2_5_step1": (True, 4, 8),
    "thm2_5_step1_sym": (False, 8, 0),
    "n2_comm": (False, 2, 0),
}


def examples_ok(report: dict) -> bool:
    """The acceptance conjunction the ``examples`` command applies."""
    return bool(
        report["negation_on_z5"]["is_3_jordan"]["ok"]
        and not report["negation_on_z5"]["is_2_jordan"]["ok"]
        and not report["negation_on_z5"]["is_4_jordan"]["ok"]
        and report["jordan_functionals_on_z5"]["all_multiplicative"]
        and report["strict_upper_4_2"]["nilpotency_index"] == 4
        and report["strict_upper_4_2"]["triple_product_witness"]["nonzero"]
        and report["strict_upper_4_2"]["all_sampled_maps_4_jordan"]
        and report["function_ring_on_3_points"]["all_4_fold_products_zero"]
        and report["transpose_on_mat2_z2"]["is_2_jordan"]["ok"]
        and not report["transpose_on_mat2_z2"]["is_2_ring"]["ok"]
    )


def negation_matrix(d: int, m: int) -> list[list[int]]:
    return [[(m - 1) if i == j else 0 for j in range(d)] for i in range(d)]


def transpose_matrix(k: int) -> list[list[int]]:
    d = k * k
    mat = [[0] * d for _ in range(d)]
    for i in range(k):
        for j in range(k):
            mat[j * k + i][i * k + j] = 1
    return mat
