"""Differential tests: the shared scanners and decoders against plain oracles.

find_njordan_maps and search run on one blocked, vectorized power filter;
their oracle is one is_n_jordan call per enumerated map, followed for
search by the named predicate's second check.  Index decoding and the
seeded map sample are compared with plain Python digit arithmetic and
per-map draws, and the one point enumerator's blocks with Python digits
and one whole seeded draw, and search, find_njordan_maps and additive_maps
give the same results with BLOCK_ROWS set to 7, 100 or its default.  The
one exact eliminator is compared with sympy's rank over Q and prime fields
on random sparse matrices, and the nilpotency index it computes with its
known value on every constructor, whose known unit is checked by
multiplication.  The ring constructor's associativity check, a join over
the nonzero structure constants, is compared with dense d^4 tables on
random structure constants, and every catalogue ring's table with an
independent definition of its basis products (matrix units multiplied as
numpy matrices, word concatenation, exponent sums, componentwise
products).  substitute_linear is compared with a plain expansion that
picks one image term per letter and sums in a dict, with no FreePoly
arithmetic.  Sampled evaluation runs must return their recorded
witnesses, and a three-variable witness and an is_n_jordan witness are
confirmed by plain integer arithmetic.  The sparse ring product is
compared with the dense einsum over the whole structure table, and the
streamed assignments, exhaustive and sampled, with one-shot columns
checked all at once.  The is_n_ring, which decides and finds its first
witness on the d^n basis tuples alone, is compared with the one-shot sweep
over all size^n tuples.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from njordan import models
from njordan.errors import GuardError
from njordan.exact import eliminate, residue
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE, FreePoly, linear_form, substitute_linear, var_name
from njordan.identities import evaluate, parse_identity, seed
from njordan.models import (
    PREDICATES,
    AdditiveMap,
    FiniteRing,
    PredicateResult,
    additive_maps,
    find_njordan_maps,
    gap_witness_model,
    is_n_jordan,
    is_n_ring,
    matrix_ring,
    negation_map,
    nilpotency_index,
    ring_from_spec,
    search,
    transpose_map,
)


@pytest.mark.parametrize("dom,cod", [("zm:5", "zm:5"), ("zm:5^2", "zm:5^2"), ("mat:2x2@2", "zm:2")])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_find_njordan_maps_matches_per_map_predicate(dom, cod, n):
    domain, codomain = ring_from_spec(dom), ring_from_spec(cod)
    oracle = [h for h in additive_maps(domain, codomain) if is_n_jordan(h, n).ok]
    assert find_njordan_maps(domain, codomain, n, limit=10 ** 6) == oracle
    assert find_njordan_maps(domain, codomain, n, limit=3) == oracle[:3]


# name: (filter power, None meaning n; first key; second key; second check)
SEARCH_ORACLE = {
    "jordan_not_ring": (2, "jordan", "ring", lambda h, n: is_n_ring(h, 2)),
    "njordan_not_jordan": (None, "njordan", "jordan", lambda h, n: is_n_jordan(h, 2)),
    "njordan_not_nring": (None, "njordan", "nring", lambda h, n: is_n_ring(h, n)),
}
SEARCH_CASES = [
    (dom, cod, name, n)
    for dom, cod, powers in [
        ("zm:5", "zm:5", (2, 3, 4, 5)),
        ("zm:5^2", "zm:5^2", (2, 3, 4, 5)),
        ("mat:2x2@2", "zm:2", (2, 3)),
        ("upper:3@2", "upper:3@2", (2, 3)),
    ]
    for name in PREDICATES
    for n in powers
    # the second check walks 25^n tuples per survivor; criterion 7 covers n = 4
    if not (dom == "zm:5^2" and name == "njordan_not_nring" and n > 3)
]


@pytest.mark.parametrize("dom,cod,name,n", SEARCH_CASES)
def test_search_matches_per_map_predicates(dom, cod, name, n):
    domain, codomain = ring_from_spec(dom), ring_from_spec(cod)
    power, first_key, second_key, second = SEARCH_ORACLE[name]
    oracle = []
    for h in additive_maps(domain, codomain):
        first = is_n_jordan(h, power or n)
        if first.ok and not (res := second(h, n)).ok:
            oracle.append((h.index, h.matrix.tolist(), {first_key: first.to_json(), second_key: res.to_json()}))
    got = search(domain, codomain, n, name, limit=10 ** 6)
    assert [(hit.index, hit.matrix, hit.details) for hit in got] == oracle


def _python_digits(index: int, m: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        index, d = divmod(index, m)
        digits.append(d)
    return digits[::-1]


def test_index_decoding_matches_python_digits():
    pair = ring_from_spec("zm:5^2")
    maps = list(additive_maps(pair, pair))
    assert len(maps) == 625
    for index, h in enumerate(maps):
        assert h.matrix.reshape(-1).tolist() == _python_digits(index, 5, 4)
        assert AdditiveMap.from_index(pair, pair, index) == h
    m23 = matrix_ring(2, 3)
    for index in range(m23.size):
        assert m23.element(index).tolist() == _python_digits(index, 3, 4)
        assert m23.element_vectors()[index].tolist() == _python_digits(index, 3, 4)
    free = ring_from_spec("freetrunc:2d3@5")
    big = 5 ** 100 + 7  # beyond int64, decoding stays exact
    assert AdditiveMap.from_index(free, free, big).index == big


@pytest.mark.parametrize("base,width", [(2, 1), (3, 4), (5, 3), (7, 2)])
def test_point_blocks_match_python_digits_and_one_whole_draw(base, width):
    """Exhaustive blocks are the base-digit rows in index order; sampled blocks
    cut one whole seeded draw, for block sizes that do not divide the count."""
    count = 250
    whole = np.random.default_rng(9).integers(0, base, size=(count, width))
    for block in (1, 7, 100):
        points = list(models._blocks(base, width, block))
        assert all(0 < len(p) <= block and p.shape[1] == width for p in points)
        assert np.concatenate(points).tolist() == [_python_digits(i, base, width) for i in range(base ** width)]
        drawn = list(models._blocks(base, width, block, count, seed=9))
        assert all(0 < len(p) <= block for p in drawn)
        assert (np.concatenate(drawn) == whole).all()


@pytest.mark.parametrize("dom,cod", [("mat:2x2@2", "zm:2"), ("zm:5^2", "zm:5")])
def test_sampled_maps_match_per_map_draws(dom, cod):
    domain, codomain = ring_from_spec(dom), ring_from_spec(cod)
    count = 5000
    rng = np.random.default_rng(11)
    expected = [rng.integers(0, domain.modulus, size=(codomain.dim, domain.dim)) for _ in range(count)]
    got = list(additive_maps(domain, codomain, count, seed=11))
    assert len(got) == count
    assert all((h.matrix == mat).all() for h, mat in zip(got, expected))


def _scan_results(domain: FiniteRing, codomain: FiniteRing, predicate: str, n: int) -> list:
    """search, find_njordan_maps and additive_maps on one ring pair, exhaustive and sampled."""
    return [
        search(domain, codomain, n, predicate, limit=10 ** 6),
        search(domain, codomain, n, predicate, limit=10 ** 6, sample_count=300, seed=5),
        find_njordan_maps(domain, codomain, n, limit=10 ** 6),
        list(additive_maps(domain, codomain)),
        list(additive_maps(domain, codomain, 300, seed=5)),
    ]


@pytest.mark.parametrize("block", [7, 100])
@pytest.mark.parametrize(
    "dom,cod,predicate,n", [("zm:5^2", "zm:5^2", "njordan_not_jordan", 3), ("mat:2x2@2", "zm:2", "jordan_not_ring", 2)]
)
def test_scans_do_not_depend_on_the_block_size(dom, cod, predicate, n, block, monkeypatch):
    domain, codomain = ring_from_spec(dom), ring_from_spec(cod)
    expected = _scan_results(domain, codomain, predicate, n)
    assert all(expected)
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    assert _scan_results(domain, codomain, predicate, n) == expected


def _sympy_rank(rows: list[dict[int, Fraction]], ncols: int, p: int | None) -> int:
    if p is None:
        dom, conv = QQ, lambda c: QQ(c.numerator, c.denominator)
    else:
        dom = GF(p)
        conv = lambda c: dom(c.numerator * pow(c.denominator, -1, p) % p)
    mat = [[conv(Fraction(row.get(j, 0))) for j in range(ncols)] for row in rows]
    return DomainMatrix(mat, (len(rows), ncols), dom).rank()


def _random_entry(rng: random.Random) -> Fraction | int:
    num = rng.choice([-3, -2, -1, 1, 2, 3, 7, 10])
    if rng.random() < 0.5:
        return num
    # denominators invertible in every field tested
    return Fraction(num, rng.choice([3, 11, 13]))


def _random_system(rng: random.Random, ncols: int):
    rows: list[dict[int, Fraction | int]] = []
    for _ in range(rng.randint(1, 8)):
        if rows and rng.random() < 0.3:
            combo = {j: 0 for j in range(ncols)}
            for row in rng.sample(rows, rng.randint(1, len(rows))):
                f = _random_entry(rng)
                for j, c in row.items():
                    combo[j] += f * c
            rows.append({j: c for j, c in combo.items() if c})
        else:
            rows.append({j: _random_entry(rng) for j in range(ncols) if rng.random() < 0.35})
    target = {j: 0 for j in range(ncols)}
    for idx in rng.sample(range(len(rows)), rng.randint(1, len(rows))):
        for j, c in rows[idx].items():
            target[j] += 2 * c
    if rng.random() < 0.5:
        target[rng.randrange(ncols)] += 1
    return rows, {j: c for j, c in target.items() if c}


@pytest.mark.parametrize("p", [None, 2, 5, 7])
def test_eliminate_matches_sympy_rank(p):
    rng = random.Random(1000 + (p or 0))
    for _ in range(150):
        ncols = rng.randint(1, 7)
        rows, target = _random_system(rng, ncols)
        independent, combo, residual = eliminate(rows, target, p)
        ranks = [0] + [_sympy_rank(rows[: i + 1], ncols, p) for i in range(len(rows))]
        assert independent == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]
        in_span = _sympy_rank(rows + [target], ncols, p) == len(independent)
        assert (combo is not None) == in_span
        if combo is None:
            assert residual
            continue
        total = {j: Fraction(0) for j in range(ncols)}
        for idx, coeff in combo.items():
            for j, c in rows[idx].items():
                total[j] += coeff * c
        for j in range(ncols):
            diff = total[j] - target.get(j, 0)
            if p is None:
                assert diff == 0
            else:
                assert diff.denominator % p and diff.numerator % p == 0


UNIT_AND_NILPOTENCY = [
    ("zm:5", [1], None),
    ("zm:7^2", [1, 1], None),
    ("mat:2x2@5", [1, 0, 0, 1], None),
    ("mat:3x3@2", [1, 0, 0, 0, 1, 0, 0, 0, 1], None),
    ("upper:3@2", None, 3),
    ("upper:4@2", None, 4),
    ("fun:zm:3,pts:2", [1, 1], None),
    ("fun:mat:2x2@3,pts:2", [1, 0, 0, 1, 1, 0, 0, 1], None),
    ("fun:upper:4@2,pts:3", None, 4),
    ("freetrunc:1d2@2", None, 3),
    ("freetrunc:2d3@5", None, 4),
    ("nilpoly:2@5", [1, 0, 0], None),
    ("freetrunc:1d16@5", None, 17),
    ("freetrunc:1d20@5", None, 21),
]


@pytest.mark.parametrize("spec,unit,index", UNIT_AND_NILPOTENCY)
def test_unit_and_nilpotency_on_constructor_rings(spec, unit, index):
    # a listed unit is a two-sided unit of the constructed table; a nilpotent
    # ring has none
    ring = ring_from_spec(spec)
    assert (unit is None) == (index is not None)
    if unit is not None:
        basis = np.eye(ring.dim, dtype=np.int64)
        units = np.tile(unit, (ring.dim, 1))
        assert (ring.mul_batch(units, basis) == basis).all()
        assert (ring.mul_batch(basis, units) == basis).all()
    assert nilpotency_index(ring) == index


def _first_nonassociative_triple(struct, m):
    """The dense check on every basis triple at once, as d^4 tables."""
    left = np.einsum("ijl,lkm->ijkm", struct, struct) % m
    right = np.einsum("jkl,ilm->ijkm", struct, struct) % m
    bad = np.argwhere((left != right).any(axis=3))
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def test_associativity_check_matches_dense_tables():
    rng = np.random.default_rng(0)
    for spec, _, _ in UNIT_AND_NILPOTENCY:
        ring = ring_from_spec(spec)
        assert _first_nonassociative_triple(ring.struct, ring.modulus) is None
    failures = 0
    for _ in range(1000):
        d, m = int(rng.integers(1, 5)), int(rng.choice([2, 3, 5]))
        struct = (rng.random((d, d, d)) < rng.random()) * rng.integers(0, m, (d, d, d))
        expected = _first_nonassociative_triple(struct, m)
        if expected is None:
            assert FiniteRing("r", m, struct).dim == d
        else:
            failures += 1
            with pytest.raises(ValueError, match=re.escape(f"at basis triple {expected}")):
                FiniteRing("r", m, struct)
    assert 100 < failures < 900


def _orthonormal_table(basis, product):
    """Table of the span of 0/1 basis vectors with disjoint supports, which
    product maps into itself: coefficients are inner products with the basis."""
    basis = np.array(basis, dtype=np.int64)
    prods = np.array([[product(a, b) for b in basis] for a in basis])
    table = prods @ basis.T
    assert (table @ basis == prods).all()  # every product lies in the span
    return table


def _matrix_unit_table(k, upper):
    """Matrix units E_ij (i < j when upper) in row-major order, multiplied as k x k matrices."""
    units = []
    for i, j in itertools.product(range(k), repeat=2):
        if not upper or i < j:
            e = np.zeros((k, k), dtype=np.int64)
            e[i, j] = 1
            units.append(e.reshape(-1))
    return _orthonormal_table(units, lambda a, b: (a.reshape(k, k) @ b.reshape(k, k)).reshape(-1))


def _componentwise_table(k):
    return _orthonormal_table(np.eye(k, dtype=np.int64), np.multiply)


def _concatenation_table(letters, maxdeg):
    """Words of length 1..maxdeg sorted by (length, word), multiplied by concatenation."""
    words = sorted(
        {w for n in range(1, maxdeg + 1) for w in itertools.product(range(letters), repeat=n)},
        key=lambda w: (len(w), w),
    )
    pos = {w: i for i, w in enumerate(words)}
    table = np.zeros((len(words),) * 3, dtype=np.int64)
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) <= maxdeg:
            table[pos[u], pos[v], pos[u + v]] = 1
    return table


def _exponent_sum_table(maxdeg):
    """Powers e^0..e^maxdeg, multiplied by adding exponents."""
    d = maxdeg + 1
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, j in itertools.product(range(d), repeat=2):
        if i + j <= maxdeg:
            table[i, j, i + j] = 1
    return table


# (spec, an independent definition of its table, its arguments)
CONSTRUCTOR_TABLES = (
    [(f"mat:{k}x{k}@5", _matrix_unit_table, (k, False)) for k in (1, 2, 3, 4)]
    + [(f"upper:{k}@2", _matrix_unit_table, (k, True)) for k in (2, 3, 4, 6)]
    + [(f"freetrunc:{n}d{e}@5", _concatenation_table, (n, e)) for n, e in ((1, 1), (1, 5), (2, 3), (3, 2), (2, 5))]
    + [(f"nilpoly:{e}@7", _exponent_sum_table, (e,)) for e in (0, 1, 4, 63)]
    + [(f"zm:5^{k}", _componentwise_table, (k,)) for k in (1, 2, 3, 64)]
    + [("zm:7", _componentwise_table, (1,))]
)


@pytest.mark.parametrize("spec,definition,args", CONSTRUCTOR_TABLES)
def test_constructor_tables_match_their_definitions(spec, definition, args):
    expected = definition(*args)
    assert ring_from_spec(spec, override=True).struct.tolist() == expected.tolist()


def test_sampled_predicates_keep_their_witnesses():
    """A one-variable sample is one column of seeded draws, so its first failing draw stays pinned."""
    dom, cod, h = gap_witness_model()
    rep = evaluate(seed(2, NONCOMMUTATIVE), dom, cod, h, max_assignments=10 ** 4, sample_seed=0)
    assert (rep.ok, rep.checked, rep.exhaustive) == (False, 10 ** 4, False)
    assert rep.witness == {"a": [4, 3, 2, 1, 1, 0, 0, 0, 0, 4, 3, 4, 2, 3]}


def _plain_mul(ring, u, v):
    """u * v through the structure table in Python integers."""
    d = ring.dim
    return [
        sum(u[i] * v[j] * int(ring.struct[i, j, k]) for i in range(d) for j in range(d)) % ring.modulus
        for k in range(d)
    ]


def _plain_apply(h, u):
    return [sum(int(c) * x for c, x in zip(row, u)) % h.domain.modulus for row in h.matrix]


def _plain_pow(ring, u, n):
    """u^n by repeated _plain_mul."""
    out = u
    for _ in range(n - 1):
        out = _plain_mul(ring, out, u)
    return out


def test_witness_recheck_uses_plain_arithmetic():
    z5 = models.make_zm(5)
    neg = negation_map(z5)
    r2 = is_n_jordan(neg, 2)
    assert r2.witness is not None
    a = [int(x) for x in r2.witness[0]]
    for n, violated in ((2, True), (3, False)):
        lhs, rhs = _plain_apply(neg, _plain_pow(z5, a, n)), _plain_pow(z5, _plain_apply(neg, a), n)
        assert (lhs != rhs) is violated


def test_sampled_evaluation_keeps_its_witness():
    dom, cod, h = gap_witness_model()
    single = parse_identity("h(x*y*z) = H(x)*H(y)*H(z)", NONCOMMUTATIVE)
    rep = evaluate(single, dom, cod, h, max_assignments=2000, sample_seed=0)
    assert (rep.ok, rep.checked, rep.space, rep.exhaustive) == (False, 2000, 5 ** 42, False)
    assert rep.witness == {
        "x": [4, 3, 2, 1, 1, 0, 0, 0, 0, 4, 3, 4, 2, 3],
        "y": [4, 3, 3, 2, 2, 4, 1, 4, 3, 0, 1, 4, 2, 0],
        "z": [3, 3, 4, 0, 0, 4, 0, 2, 0, 1, 2, 2, 2, 0],
    }
    x, y, z = rep.witness.values()
    lhs = _plain_apply(h, _plain_mul(dom, _plain_mul(dom, x, y), z))
    rhs = _plain_mul(cod, _plain_mul(cod, _plain_apply(h, x), _plain_apply(h, y)), _plain_apply(h, z))
    assert lhs != rhs


def _expand_by_hand(pairs, images, mode):
    """Terms of substitute_linear(pairs, images), sorted graded-lex: every choice
    of one image term per letter, summed in a plain dict."""
    acc = {}
    for word, coeff in pairs:
        choices = [images.get(v, [(v, 1)]) for v in word]
        for picks in itertools.product(*choices):
            w = tuple(v for v, _ in picks)
            if mode == COMMUTATIVE:
                w = tuple(sorted(w))
            c = Fraction(coeff)
            for _, k in picks:
                c *= k
            acc[w] = acc.get(w, 0) + c
    return sorted(((w, c) for w, c in acc.items() if c), key=lambda t: (len(t[0]), t[0]))


@pytest.mark.parametrize("mode", [NONCOMMUTATIVE, COMMUTATIVE])
def test_substitute_linear_matches_plain_expansion(mode):
    rng = random.Random(5)
    for _ in range(150):
        pairs = [
            (tuple(rng.randrange(4) for _ in range(rng.randrange(5))), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(rng.randrange(1, 6))
        ]
        images = {}
        for v in rng.sample(range(4), rng.randrange(1, 4)):
            coeffs = {u: rng.choice([-2, -1, 1, 2]) for u in rng.sample(range(5), rng.randrange(0, 4))}
            images[v] = sorted(coeffs.items())
        subst = {v: linear_form(dict(img), mode) for v, img in images.items()}
        out = substitute_linear(FreePoly.from_terms(pairs, mode), subst)
        assert list(out.terms) == _expand_by_hand(pairs, images, mode)


def _einsum_product(ring, u, v):
    """The dense product over every structure constant at once."""
    m = ring.modulus
    return np.einsum("bi,bj,ijk->bk", u % m, v % m, ring.struct) % m


# one spec per ring_from_spec constructor family
FAMILY_SPECS = [
    "zm:5", "zm:7^3", "mat:2x2@5", "mat:3x3@2", "upper:4@3",
    "fun:mat:2x2@3,pts:2", "freetrunc:2d3@5", "nilpoly:4@7",
]


@pytest.mark.parametrize("spec", FAMILY_SPECS)
@pytest.mark.parametrize("rows", [0, 1, 10 ** 5])
def test_mul_batch_matches_einsum(spec, rows):
    ring = ring_from_spec(spec)
    m = ring.modulus
    rng = np.random.default_rng(rows)
    # unreduced and negative entries
    u, v = rng.integers(-3 * m, 3 * m, size=(2, rows, ring.dim))
    got = ring.mul_batch(u, v)
    assert got.shape == (rows, ring.dim)
    assert (got == _einsum_product(ring, u, v)).all()


def test_mul_batch_matches_einsum_on_random_tables():
    """Constructor rings only have constants 0 and 1; random associative tables have any."""
    rng = np.random.default_rng(1)
    built = 0
    for _ in range(400):
        d, m = int(rng.integers(1, 4)), int(rng.choice([3, 5, 7]))
        struct = (rng.random((d, d, d)) < 0.3) * rng.integers(0, m, (d, d, d))
        try:
            ring = FiniteRing("r", m, struct)
        except ValueError:
            continue
        built += 1
        u, v = rng.integers(-2 * m, 2 * m, size=(2, 50, d))
        assert (ring.mul_batch(u, v) == _einsum_product(ring, u, v)).all()
    assert built > 100


def _largest_modulus(spec_of, bound_factor):
    """The largest modulus m with bound_factor * (m - 1)^2 under 2^63."""
    m = math.isqrt((2 ** 63 - 1) // bound_factor) + 1
    ring_from_spec(spec_of(m), override=True)
    with pytest.raises(GuardError, match="overflows int64"):
        ring_from_spec(spec_of(m + 1), override=True)
    return m


# (spec for a modulus, max over k of the sum of c_ijk over i, j, or d if larger)
@pytest.mark.parametrize("spec_of,factor", [(lambda m: f"zm:{m}", 1), (lambda m: f"mat:2x2@{m}", 4)])
def test_mul_batch_matches_exact_products_just_under_the_int64_guard(spec_of, factor):
    m = _largest_modulus(spec_of, factor)
    ring = ring_from_spec(spec_of(m), override=True)
    rng = np.random.default_rng(0)
    u = np.concatenate([rng.integers(-m, m, size=(200, ring.dim)), np.full((1, ring.dim), m - 1)])
    v = np.concatenate([rng.integers(-m, m, size=(200, ring.dim)), np.full((1, ring.dim), -1)])
    got = ring.mul_batch(u, v)
    # Python integers cannot wrap
    exact = np.einsum("bi,bj,ijk->bk", u.astype(object) % m, v.astype(object) % m, ring.struct.astype(object)) % m
    assert got.tolist() == exact.tolist()
    assert (got == _einsum_product(ring, u, v)).all()


def _one_shot_columns(ring, k, sample=None):
    """Every k-tuple of elements in index order, as k full columns; or, for
    sample = (seed, count), one (count, k * d) seeded draw split into k columns."""
    if sample is not None:
        rng = np.random.default_rng(sample[0])
        return np.hsplit(rng.integers(0, ring.modulus, size=(sample[1], k * ring.dim)), k)
    grids = np.meshgrid(*(np.arange(ring.size) for _ in range(k)), indexing="ij")
    return [ring.element_vectors()[g.reshape(-1)] for g in grids]


def _first_witness(bad, cols):
    if not bad.any():
        return None
    first = int(np.flatnonzero(bad)[0])
    return tuple(c[first].tolist() for c in cols)


def _one_shot_jordan(h, n):
    (elems,) = _one_shot_columns(h.domain, 1)
    lhs = h.apply_batch(h.domain.power_batch(elems, n))
    rhs = h.codomain.power_batch(h.apply_batch(elems), n)
    witness = _first_witness((lhs != rhs).any(axis=1), [elems])
    return PredicateResult(witness is None, len(elems), True, witness)


def _one_shot_ring(h, n):
    cols = _one_shot_columns(h.domain, n)
    lhs = h.apply_batch(h.domain.product_batch(cols))
    rhs = h.codomain.product_batch(h.apply_batch(c) for c in cols)
    witness = _first_witness((lhs != rhs).any(axis=1), cols)
    return PredicateResult(witness is None, len(cols[0]), True, witness)


def _one_shot_evaluate(ident, h, sample=None):
    """evaluate's verdict from full columns, applying h to each left word."""
    ring_a, ring_b, m = h.domain, h.codomain, h.domain.modulus
    variables = sorted(set(ident.lhs.variables()) | set(ident.rhs.variables()))
    cols = _one_shot_columns(ring_a, len(variables), sample)
    assign = dict(zip(variables, cols))
    lhs = np.zeros((len(cols[0]), ring_b.dim), dtype=np.int64)
    for word, coeff in ident.lhs.terms:
        lhs = (lhs + residue(coeff, m) * h.apply_batch(ring_a.product_batch(assign[v] for v in word))) % m
    rhs = np.zeros_like(lhs)
    for word, coeff in ident.rhs.terms:
        rhs = (rhs + residue(coeff, m) * ring_b.product_batch(h.apply_batch(assign[v]) for v in word)) % m
    witness = _first_witness((lhs != rhs).any(axis=1), cols)
    return witness is None, len(cols[0]), witness and dict(zip(map(var_name, variables), witness))


def _streamed_maps():
    pair = ring_from_spec("zm:5^2")
    z5 = ring_from_spec("zm:5")
    m22 = matrix_ring(2, 5)
    return [
        AdditiveMap(pair, pair, [[1, 0], [0, 1]]),
        AdditiveMap(pair, pair, [[2, 0], [0, 0]]),
        AdditiveMap(pair, pair, [[0, 1], [1, 0]]),
        AdditiveMap(pair, z5, [[1, 1]]),
        negation_map(m22),
        transpose_map(2, 5)[1],
        AdditiveMap(m22, z5, [[1, 0, 0, 1]]),
    ]


@pytest.mark.parametrize("block", [7, 100, models.BLOCK_ROWS, 2 ** 16])
def test_streamed_jordan_predicate_matches_one_shot_column(block, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    for h in _streamed_maps():
        for n in (2, 3, 4):
            assert is_n_jordan(h, n) == _one_shot_jordan(h, n)


@pytest.mark.parametrize("block", [1000, models.BLOCK_ROWS, 2 ** 16])
def test_streamed_ring_predicate_matches_one_shot_columns(block, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    for h in _streamed_maps():
        if h.domain.size ** 3 <= 10 ** 5:
            for n in (2, 3):
                assert is_n_ring(h, n) == _one_shot_ring(h, n)
        else:
            assert is_n_ring(h, 2) == _one_shot_ring(h, 2)


@pytest.mark.parametrize("block", [100, models.BLOCK_ROWS, 2 ** 16])
def test_streamed_evaluation_matches_one_shot_columns(block, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    texts = [
        "h(x*y*x) = H(x)^2*H(y)",
        "h(x*y + y*x) = 2*H(x)*H(y)",
        "h(x^2*y - 3*y*x^2 + 2/3*x*y*x) = -1/3*H(x)^2*H(y)",
        "h(x*y*z) = H(x)*H(y)*H(z)",
    ]
    for h in filter(lambda h: h.codomain.commutative, _streamed_maps()):
        for text in texts:
            ident = parse_identity(text, NONCOMMUTATIVE)
            # every space here holds at least 25^2 assignments, so 300 are sampled
            rep = evaluate(ident, h.domain, h.codomain, h, max_assignments=300, sample_seed=4)
            assert not rep.exhaustive
            assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(ident, h, (4, 300))
            if h.domain.size ** len(ident.lhs.variables()) > 10 ** 5:
                continue
            rep = evaluate(ident, h.domain, h.codomain, h)
            assert rep.exhaustive
            assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(ident, h)


def test_first_mismatch_past_the_first_block():
    """h(x, y) = (2x, 0) on Z_5 x Z_5 first fails at a_1 = ... = a_4 = (1, 0), element 5."""
    pair = ring_from_spec("zm:5^2")
    h = AdditiveMap(pair, pair, [[2, 0], [0, 0]])
    first = 5 * (25 ** 3 + 25 ** 2 + 25 + 1)
    assert first > models.BLOCK_ROWS
    expected = _one_shot_ring(h, 4)
    assert expected == PredicateResult(False, 25 ** 4, True, ([1, 0], [1, 0], [1, 0], [1, 0]))
    assert is_n_ring(h, 4) == expected
    ident = parse_identity("h(x*y*z*w) = H(x)*H(y)*H(z)*H(w)", NONCOMMUTATIVE)
    rep = evaluate(ident, pair, pair, h)
    assert (rep.ok, rep.checked, rep.space, rep.exhaustive) == (False, 25 ** 4, 25 ** 4, True)
    assert rep.witness == {"x": [1, 0], "y": [1, 0], "z": [1, 0], "w": [1, 0]}


def _ring_pair_maps(dom, cod):
    """Known n-ring maps (zero, identity, coordinate projections), the coordinate
    sum (multiplicative on each basis vector alone, not on e_0 e_1), maps whose
    first failing tuple is not the first basis tuple, and seeded random maps."""
    domain, codomain = ring_from_spec(dom, override=True), ring_from_spec(cod, override=True)
    mats = [np.zeros((codomain.dim, domain.dim), dtype=np.int64)]
    if dom == cod:
        mats.append(np.eye(domain.dim, dtype=np.int64))
        # e_0, the last basis vector in index order, goes to 2 e_0: h(e_0 e_0) = 2 e_0 differs from 4 e_0
        scaled = np.eye(domain.dim, dtype=np.int64)
        scaled[0, 0] = 2
        mats.append(scaled)
    if dom.startswith("zm:"):
        # Z_m^2 -> Z_m and Z_m^2 -> Z_m^2 projections onto one factor
        for j in range(domain.dim):
            proj = np.zeros((codomain.dim, domain.dim), dtype=np.int64)
            proj[0, j] = 1
            mats.append(proj)
        mats.append(mats[-1] + mats[-2])
    if dom.startswith("mat:") and cod.startswith("zm:"):
        # the trace first fails at (E22, E11): tr(E22 E11) = 0, tr(E22) tr(E11) = 1
        mats.append(np.array([[1, 0, 0, 1]]))
    rng = np.random.default_rng(0)
    mats += list(rng.integers(0, domain.modulus, size=(3, codomain.dim, domain.dim)))
    return [AdditiveMap(domain, codomain, mat) for mat in mats]


@pytest.mark.parametrize(
    "dom,cod",
    [("zm:5^2", "zm:5^2"), ("upper:3@2", "upper:3@2"), ("mat:2x2@2", "mat:2x2@2"),
     ("mat:2x2@5", "zm:5"), ("zm:5^2", "zm:5"),
     # composite moduli, under override
     ("zm:4^2", "zm:4^2"), ("zm:6^2", "zm:6^2"), ("mat:2x2@4", "zm:4")],
)
def test_basis_tuple_ring_check_matches_the_full_sweep(dom, cod):
    """is_n_ring decides and finds its witness on the d^n basis tuples; the oracle sweeps all size^n tuples."""
    verdicts, later_witnesses = set(), 0
    for h in _ring_pair_maps(dom, cod):
        for n in (2, 3, 4):
            if h.domain.size ** n > 10 ** 6:
                continue
            result = is_n_ring(h, n)
            assert result == _one_shot_ring(h, n)
            verdicts.add(result.ok)
            # element 1 is the basis vector e_(d-1)
            later_witnesses += not result.ok and result.witness != (h.domain.element(1).tolist(),) * n
    assert verdicts == {True, False}
    assert later_witnesses > 0


def test_passing_ring_check_multiplies_only_basis_tuples(monkeypatch):
    pair = ring_from_spec("zm:5^2")
    rows = []
    mul_batch = FiniteRing.mul_batch

    def counting(self, u, v):
        rows.append(len(u))
        return mul_batch(self, u, v)

    monkeypatch.setattr(FiniteRing, "mul_batch", counting)
    assert is_n_ring(AdditiveMap(pair, pair, np.eye(pair.dim, dtype=np.int64)), 4) == PredicateResult(True, 25 ** 4, True)
    # three products of 2^4 basis tuples on each side
    assert sum(rows) <= 2 * 3 * 16
