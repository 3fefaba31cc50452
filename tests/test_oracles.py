"""Differential tests: the shared scanners and decoders against plain oracles.

find_njordan_maps and search run on one blocked, vectorized power filter;
their oracle is one is_n_jordan call per enumerated map, followed for
search by the named predicate's second check.  Index decoding and the
seeded map sample are compared with plain Python digit arithmetic and
per-map draws, and the one point enumerator's blocks with Python digits
and one whole seeded draw, and search, find_njordan_maps and additive_maps
give the same results with BLOCK_ROWS set to 7, 100, 2^15 (the old
default) or its default.  The one exact eliminator is compared with
sympy's rank over Q and prime fields on random sparse matrices,
prime_factors with sympy's factorint below 2^40, and the nilpotency index it computes with its known value on every
constructor, whose known unit is checked by multiplication, and with a
basis-tuple oracle on tables conjugated by random GF(p) basis changes.  The ring constructor's associativity check, a join over
the nonzero structure constants, is compared with dense d^4 tables on
random structure constants, and every catalogue ring's table with an
independent definition of its basis products (matrix units multiplied as
numpy matrices, word concatenation, exponent sums, componentwise
products).  substitute_linear is compared with a plain expansion that
picks one image term per letter and sums in a dict, with no FreePoly
arithmetic.  Sampled evaluation runs must return their recorded
witnesses, and a three-variable witness and an is_n_jordan witness are
confirmed by plain integer arithmetic.  The sparse ring product is
compared with the dense einsum over the whole structure table; it, the
map kernel and the power filter get unreduced and negative input and
are compared with oracles that reduce it with % first.  power_batch's
repeated squaring is compared with the left-to-right product on every
constructor family, and is_n_jordan, with the power-table cache bounded
to three tables, with the left-to-right oracle on a ring of its own.  evaluate, which sums each side as a prefix tree of
its words, is compared with an oracle that reduces after every word: at
x = -1 and five moduli from 101 up to the largest the int64 guard
admits, on Hypothesis-drawn identities with shared prefixes, and on the
streamed assignments, exhaustive and sampled, against one-shot columns
checked all at once.  The is_n_ring, which
decides and finds its first witness on the d^n basis tuples alone, is
compared with the one-shot sweep over all size^n tuples, and the block
bodies of both predicates, which check a block of maps at once, with the
one-shot oracles map by map on Hypothesis-drawn blocks, and the power
filter's reads of h(a)^n from the codomain's power map with the
left-to-right oracle, on codomains that are their domain, same-spec
codomains and codomains larger than any block; its mask of codomain
element indices is compared with the d-vector oracle it replaced, up to
the block at which every map has failed, and each image is formed once,
in index order, before a block reads it.  With
room for the element table and one power map, or fifteen as on zm:2^17,
the cache forms each ring's element table once.  A search's
predicted work, on which its refusal alone depends, is compared with the
rows times the cost of each row that actually reach mul_batch,
apply_batch and the power filter's map products (one per element when it
compares indices, two when it compares vectors), counted by wrappers
around them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ, Matrix, factorint, nextprime
from sympy.polys.matrices import DomainMatrix

from njordan import errors, models
from njordan.errors import GuardError
from njordan.exact import MAX_TRIAL_DIVISOR, eliminate, prime_factors, residue
from njordan.freealg import COMMUTATIVE, NONCOMMUTATIVE, FreePoly, linear_form, substitute_linear, var_id, var_name
from njordan.identities import HIdentity, evaluate, parse_identity, seed
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


@pytest.mark.parametrize("block", [7, 100, 2 ** 15])
@pytest.mark.parametrize(
    "dom,cod,predicate,n", [("zm:5^2", "zm:5^2", "njordan_not_jordan", 3), ("mat:2x2@2", "zm:2", "jordan_not_ring", 2)]
)
def test_scans_do_not_depend_on_the_block_size(dom, cod, predicate, n, block, monkeypatch):
    domain, codomain = ring_from_spec(dom), ring_from_spec(cod)
    expected = _scan_results(domain, codomain, predicate, n)
    assert all(expected)
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    assert _scan_results(domain, codomain, predicate, n) == expected


def test_prime_factors_matches_sympy_below_two_to_the_forty():
    rng = random.Random(40)
    cases = [2, 3, 4, 2 ** 39, 2 ** 40 - 87, nextprime(MAX_TRIAL_DIVISOR) * 7, MAX_TRIAL_DIVISOR ** 2 - 1]
    cases += [rng.randrange(2, 2 ** 40) for _ in range(10)]
    primes_below_the_bound = [nextprime(rng.randrange(2 ** 20 - 10 ** 5)) for _ in range(12)]
    cases += [p * q for p, q in zip(primes_below_the_bound[::2], primes_below_the_bound[1::2])]
    cases += [nextprime(rng.randrange(2 ** 39, 2 ** 40 - 10 ** 5)) for _ in range(3)]
    for n in cases:
        assert prime_factors(n) == set(factorint(n)) == prime_factors(-n), n
    assert prime_factors(0) == prime_factors(1) == frozenset()


def test_prime_factors_refuses_past_the_trial_bound():
    big = nextprime(2 ** 41)
    for n in (big, 3 * big, 10 ** 30 + 57):
        with pytest.raises(GuardError, match=f"no prime factor up to {MAX_TRIAL_DIVISOR}"):
            prime_factors(n)
    # past 2^40, but decided: the cofactor left after the small primes is 1
    assert prime_factors(2 ** 41 * 3 ** 5) == {2, 3}
    assert prime_factors(nextprime(2 ** 40)) == {nextprime(2 ** 40)}


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
    ("freetrunc:1d40@5", None, 41),
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


def _nilpotency_oracle(ring):
    """Smallest k with every product of k basis vectors zero, or None if there is none up to d + 1.

    Each step multiplies every distinct nonzero product of k - 1 basis
    vectors by each basis vector on the right through the dense table.
    """
    d, m = ring.dim, ring.modulus
    level = np.eye(d, dtype=np.int64)
    for k in range(2, d + 2):
        prods = np.einsum("ni,ijk->njk", level, ring.struct).reshape(-1, d) % m
        level = np.unique(prods[prods.any(axis=1)], axis=0)
        if not len(level):
            return k
    return None


def _conjugated(ring, rng):
    """The ring's table in the basis f = P e for a random invertible P over GF(p)."""
    d, p = ring.dim, ring.modulus
    while True:
        P = rng.integers(0, p, (d, d))
        M = Matrix(P.tolist())
        if M.det() % p:
            break
    Q = np.array(M.inv_mod(p).tolist(), dtype=np.int64)
    # f_a f_b = sum P[a,i] P[b,j] c[i,j,k] e_k, and e_k = sum Q[k,c] f_c with Q = P^-1
    return FiniteRing(f"conj({ring.name})", p, np.einsum("ai,bj,ijk,kc->abc", P, P, ring.struct, Q) % p)


# Constructor tables are monomial (each basis product is 0 or one basis
# vector); a random basis change makes them dense.  Rings above dimension 9
# are left out: their dense tables exceed the associativity join bound.
CONJUGATED = [(spec, index) for spec, _, index in UNIT_AND_NILPOTENCY if ring_from_spec(spec).dim <= 9] + [
    ("freetrunc:1d8@3", 9), ("freetrunc:2d2@5", 3), ("fun:upper:3@2,pts:3", 3), ("nilpoly:5@7", None),
]


@pytest.mark.parametrize("spec,index", CONJUGATED)
def test_nilpotency_index_after_a_random_basis_change_matches_the_tuple_oracle(spec, index):
    ring = ring_from_spec(spec)
    assert _nilpotency_oracle(ring) == index
    rng = np.random.default_rng(len(spec))
    conjugates = [_conjugated(ring, rng) for _ in range(3)]
    for conj in conjugates:
        assert nilpotency_index(conj) == _nilpotency_oracle(conj) == index
    # some basis product is a combination of two or more basis vectors
    assert ring.dim < 3 or any(((c.struct != 0).sum(axis=2) > 1).any() for c in conjugates)


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
    """The kernels on unreduced and negative entries, against oracles that reduce with %."""
    ring = ring_from_spec(spec)
    m, d = ring.modulus, ring.dim
    rng = np.random.default_rng(rows)
    u, v = rng.integers(-3 * m, 3 * m, size=(2, rows, d))
    got = ring.mul_batch(u, v)
    assert got.shape == (rows, d)
    assert (got == _einsum_product(ring, u, v)).all()
    # and on reduced input, which is what the kernels mostly get, and on other dtypes
    assert (ring.mul_batch(u % m, v % m) == got).all()
    assert (ring.mul_batch(u.astype(np.int32), v.astype(object)) == got).all()

    mat = rng.integers(-3 * m, 3 * m, size=(d, d))
    h = AdditiveMap(ring, ring, mat)
    expected = (u % m) @ (mat % m).T % m
    assert (h.apply_batch(u) == expected).all()
    assert (h.apply_batch(u % m) == expected).all()
    assert (h.apply_batch(u.astype(np.int32)) == expected).all()

    # and on nonnegative input past m
    big_u, big_v = rng.integers(0, 5 * m, size=(2, rows, d))
    assert (ring.mul_batch(big_u, big_v) == _einsum_product(ring, big_u, big_v)).all()
    assert (h.apply_batch(big_u) == (big_u % m) @ (mat % m).T % m).all()


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_power_filter_matches_einsum(spec):
    """The power filter on unreduced and negative map matrices, against einsum oracles that reduce them with %
    first, over every element of the domain: the ring itself, or zm:m^2 into a ring too large to tabulate."""
    codomain = ring_from_spec(spec)
    m, d = codomain.modulus, codomain.dim
    domain = codomain if codomain.size * d <= models.ELEMENT_CAP else ring_from_spec(f"zm:{m}^2")
    rng = np.random.default_rng(d)
    mat = rng.integers(-3 * m, 3 * m, size=(d, domain.dim))
    # the identity map (the zero map into a larger ring) preserves squares and a random map mostly does not;
    # each matrix is shifted by multiples of m, some negative
    first = np.eye(d, dtype=np.int64) if domain is codomain else np.zeros_like(mat)
    mats = np.stack([first, mat]) + m * rng.integers(-3, 3, size=(2, d, domain.dim))
    elems = domain.element_vectors()
    images = elems @ (mat % m).T % m
    lhs = _einsum_product(domain, elems, elems) @ (mat % m).T % m
    mask = models._power_mismatch(mats, domain, codomain, 2)
    assert mask.shape == (2, domain.size)
    assert not mask[0].any()
    assert (mask[1] == (lhs != _einsum_product(codomain, images, images)).any(axis=1)).all()


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_power_by_squaring_matches_the_left_to_right_product(spec):
    """Non-commutative rings (mat, freetrunc) and rings without a unit (upper, freetrunc) included."""
    ring = ring_from_spec(spec)
    m = ring.modulus
    x = np.random.default_rng(2).integers(-2 * m, 2 * m, size=(300, ring.dim))
    for n in range(1, 10):
        assert (ring.power_batch(x, n) % m == functools.reduce(ring.mul_batch, [x] * n) % m).all(), n


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
    # nonnegative but past m: at this modulus the unreduced products would pass 2^63
    big = u % m + m * (np.arange(len(u)) % 2)[:, None]
    assert ring.mul_batch(big, v % m).tolist() == exact.tolist()
    assert ring.mul_batch(v % m, big).tolist() == ring.mul_batch(v, u).tolist()


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
    """is_n_jordan's verdict from left-to-right products, not from power_batch's squarings."""
    (elems,) = _one_shot_columns(h.domain, 1)
    lhs = h.apply_batch(functools.reduce(h.domain.mul_batch, [elems] * n))
    rhs = functools.reduce(h.codomain.mul_batch, [h.apply_batch(elems)] * n)
    witness = _first_witness((lhs != rhs).any(axis=1), [elems])
    return PredicateResult(witness is None, len(elems), witness)


def _one_shot_ring(h, n):
    cols = _one_shot_columns(h.domain, n)
    lhs = h.apply_batch(functools.reduce(h.domain.mul_batch, cols))
    rhs = functools.reduce(h.codomain.mul_batch, (h.apply_batch(c) for c in cols))
    witness = _first_witness((lhs != rhs).any(axis=1), cols)
    return PredicateResult(witness is None, len(cols[0]), witness)


def _one_shot_evaluate(ident, h, sample=None, cols=None):
    """evaluate's verdict from full columns, the leading ones of cols if given, applying h to each left word."""
    ring_a, ring_b, m = h.domain, h.codomain, h.domain.modulus
    variables = sorted(set(ident.lhs.variables()) | set(ident.rhs.variables()))
    cols = (cols or _one_shot_columns(ring_a, len(variables), sample))[: len(variables)]
    assign = dict(zip(variables, cols))
    lhs = np.zeros((len(cols[0]), ring_b.dim), dtype=np.int64)
    for word, coeff in ident.lhs.terms:
        lhs = (lhs + residue(coeff, m) * h.apply_batch(functools.reduce(ring_a.mul_batch, (assign[v] for v in word)))) % m
    rhs = np.zeros_like(lhs)
    for word, coeff in ident.rhs.terms:
        rhs = (rhs + residue(coeff, m) * functools.reduce(ring_b.mul_batch, (h.apply_batch(assign[v]) for v in word))) % m
    witness = _first_witness((lhs != rhs).any(axis=1), cols)
    return witness is None, len(cols[0]), witness and dict(zip(map(var_name, variables), witness))


# (2^63 - m) // (m - 1)^2 is 3, 2 and 1 at the three moduli after 101, where
# (m - 2)^2 in its place would give 4, 3 and 2; the last is the largest
# modulus the int64 guard admits, and at the small modulus 101 the bound
# must still come out at least 1.
@pytest.mark.parametrize("m", [101, 1_518_500_251, 1_753_413_058, 2_147_483_649, math.isqrt(2 ** 63 - 1) + 1])
def test_evaluation_reduces_its_sums_before_they_pass_int64(m, monkeypatch):
    """evaluate reduces after every (2^63 - m) // (m - 1)^2 summands, as many as
    stay under 2^63, and the per-word oracle after each word.  evaluate sums
    each side as a prefix tree, where a chain of words puts at most two
    summands on a node; the third identity puts four on the node below x:
    at x = y = z = w = -1 each is exactly (m - 1)^2, so one summand more
    between reductions passes 2^63 at each of the first three moduli.
    Negation preserves odd powers and products of two, so the first and
    third identities hold: a sum that wrapped would show as a false
    mismatch."""
    ring = ring_from_spec(f"zm:{m}", override=True)
    h = negation_map(ring)
    holds = parse_identity("h(-x^3 - x^5 - x^7 - x^9) = -H(x)^3 - H(x)^5 - H(x)^7 - H(x)^9", NONCOMMUTATIVE)
    fails = parse_identity("h(-x^3 - x^5 - x^7 - x*y) = H(x)^3 + H(x)^5 + H(x)^7 + H(x)*H(y)", NONCOMMUTATIVE)
    prefixed = parse_identity("h(-x*x - x*y - x*z - x*w) = H(x)^2 + H(x)*H(y) + H(x)*H(z) + H(x)*H(w)",
                              NONCOMMUTATIVE)
    for ident, ok in ((holds, True), (fails, False), (prefixed, True)):
        k = len(ident.lhs.variables())
        # seeded draws with every variable at -1 put first: evaluate checks these columns
        cols = [np.vstack([[[m - 1]], col]) for col in _one_shot_columns(ring, k, (3, 500))]
        monkeypatch.setattr(ring, "assignments", lambda k, cap, seed, cols=cols: (iter([cols[:k]]), False))
        rep = evaluate(ident, ring, ring, h)
        assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(ident, h, cols=cols)
        assert rep.ok == ok


LETTERS = [var_id(c) for c in "xyz"]
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 4]))


@st.composite
def prefixed_identities(draw):
    """Left words with a shared stem: the stem itself, two words one letter
    longer, a one-letter word and a few free words; rational coefficients
    invertible mod 5; a right side of up to three monomials, possibly none."""
    letter = st.sampled_from(LETTERS)
    stem = tuple(draw(st.lists(letter, min_size=1, max_size=2)))
    words = {stem, stem + (draw(letter),), stem + (draw(letter),), (draw(letter),)}
    words |= {tuple(w) for w in draw(st.lists(st.lists(letter, min_size=1, max_size=4), max_size=4))}
    lhs = FreePoly.from_terms([(w, draw(COEFFS)) for w in sorted(words)], NONCOMMUTATIVE)
    rhs_words = draw(st.lists(st.lists(letter, min_size=1, max_size=3), max_size=3))
    return HIdentity(lhs, FreePoly.from_terms([(w, draw(COEFFS)) for w in rhs_words], COMMUTATIVE))


FACTORED_PAIRS = [("freetrunc:2d2@5", "nilpoly:2@5"), ("upper:3@5", "zm:5^2"), ("mat:2x2@5", "zm:5")]


@settings(max_examples=60, deadline=None)
@given(ident=prefixed_identities(), pair=st.sampled_from(FACTORED_PAIRS), density=st.sampled_from([0.2, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_tree_evaluation_matches_the_per_word_oracle(ident, pair, density, seed):
    """evaluate's prefix-tree sums against _one_shot_evaluate's word-by-word
    products, on sampled assignments of non-commutative domains, the same
    identity also with its right side replaced by 0; a one-letter identity
    on upper:3@5 fits under the cap and is enumerated."""
    domain, codomain = (ring_from_spec(spec) for spec in pair)
    rng = np.random.default_rng(seed)
    shape = (codomain.dim, domain.dim)
    h = AdditiveMap(domain, codomain, rng.integers(0, 5, size=shape) * (rng.random(shape) < density))
    for case in (ident, HIdentity(ident.lhs, FreePoly.zero(COMMUTATIVE))):
        rep = evaluate(case, domain, codomain, h, max_assignments=200, sample_seed=seed)
        sample = None if rep.exhaustive else (seed, 200)
        assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(case, h, sample)


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


@pytest.mark.parametrize("block", [7, 100, models.BLOCK_ROWS, 2 ** 15, 2 ** 16])
def test_streamed_jordan_predicate_matches_one_shot_column(block, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    for h in _streamed_maps():
        for n in (2, 3, 4):
            assert is_n_jordan(h, n) == _one_shot_jordan(h, n)


def test_bounded_power_tables_match_the_uncached_oracle(monkeypatch):
    """With room for three zm:5^2 element tables, that is one element table
    and four power maps, is_n_jordan for n = 1..9 in shuffled order gives
    the verdicts of the left-to-right oracle on a ring of its own.  The
    cache fills to ELEMENT_CAP cells and never passes it, even with the
    entry being formed counted, and the maps after the first at each n
    reuse its power map: an emptied cache keeps the element table, so a
    call forms at most its n-th powers."""
    domain, codomain, oracle_domain = (ring_from_spec("zm:5^2") for _ in range(3))
    cells = domain.size * domain.dim
    monkeypatch.setattr(models, "ELEMENT_CAP", 3 * cells)
    held, formed = [], []
    power_batch = FiniteRing.power_batch

    def counting(self, vecs, n):
        if self is domain:
            formed.append(n)
            entry = cells if n == 1 else domain.size
            assert sum(t.size for t in domain._tables.values()) + entry <= models.ELEMENT_CAP
        return power_batch(self, vecs, n)

    monkeypatch.setattr(FiniteRing, "power_batch", counting)
    # x -> (2 x_0, 3 x_1) is n-Jordan exactly when n = 1 mod 4; the swap is an automorphism
    mats = [[[2, 0], [0, 3]], [[0, 1], [1, 0]], [[1, 1], [0, 0]]]
    order = list(range(1, 10))
    random.Random(0).shuffle(order)
    verdicts = set()
    for n in order:
        for k, mat in enumerate(mats):
            before = len(formed)
            result = is_n_jordan(AdditiveMap(domain, codomain, mat), n)
            assert result == _one_shot_jordan(AdditiveMap(oracle_domain, codomain, mat), n), (n, mat)
            verdicts.add(result.ok)
            held.append(sum(t.size for t in domain._tables.values()))
            # a call forms at most the element table and the n-th powers, and only the first call at n forms the powers
            assert set(formed[before:]) <= {1, n}
            assert not k or n not in formed[before:], (n, mat)
    assert verdicts == {True, False}
    assert max(held) == models.ELEMENT_CAP
    # one table exactly at the cap is formed; one cell less refuses it
    monkeypatch.setattr(models, "ELEMENT_CAP", cells)
    assert is_n_jordan(AdditiveMap(domain, codomain, mats[1]), 11).ok
    monkeypatch.setattr(models, "ELEMENT_CAP", cells - 1)
    with pytest.raises(GuardError, match="25 elements exceed the materialization cap: 50 cells over 49"):
        is_n_jordan(AdditiveMap(oracle_domain, codomain, mats[1]), 2)


@pytest.mark.parametrize("spec", ["zm:5^2", "mat:2x2@2", "upper:3@2"])
def test_an_emptied_cache_keeps_the_element_table(spec, monkeypatch):
    """With room for the element table and one power map, is_n_jordan for n = 1..9 forms the element
    table once: each emptying of the cache keeps it beside the new n-th power map, and the cache stays
    under the cap."""
    domain, codomain = ring_from_spec(spec), ring_from_spec(spec)
    monkeypatch.setattr(models, "ELEMENT_CAP", domain.size * (domain.dim + 1))
    formed = []
    power_batch = FiniteRing.power_batch

    def counting(self, vecs, n):
        if self is domain:
            formed.append(n)
        return power_batch(self, vecs, n)

    monkeypatch.setattr(FiniteRing, "power_batch", counting)
    h = AdditiveMap(domain, codomain, np.eye(domain.dim, dtype=np.int64))
    for n in range(1, 10):
        assert is_n_jordan(h, n).ok
        assert sorted(domain._tables) == sorted({1, n})
    assert formed == list(range(1, 10))


@pytest.mark.parametrize("block", [1000, models.BLOCK_ROWS, 2 ** 15, 2 ** 16])
def test_streamed_ring_predicate_matches_one_shot_columns(block, monkeypatch):
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    for h in _streamed_maps():
        if h.domain.size ** 3 <= 10 ** 5:
            for n in (2, 3):
                assert is_n_ring(h, n) == _one_shot_ring(h, n)
        else:
            assert is_n_ring(h, 2) == _one_shot_ring(h, 2)


@pytest.mark.parametrize("block", [7, 100, models.BLOCK_ROWS, 2 ** 15, 2 ** 16])
def test_streamed_evaluation_matches_one_shot_columns(block, monkeypatch):
    """Blocks hold 4 * BLOCK_ROWS // d assignments: from 2 rows of the gap
    model's d = 14 to 2^18 rows of Z_7's d = 1."""
    monkeypatch.setattr(models, "BLOCK_ROWS", block)
    z7 = ring_from_spec("zm:7")
    maps = [*filter(lambda h: h.codomain.commutative, _streamed_maps()), gap_witness_model()[2],
            AdditiveMap(z7, z7, [[3]])]
    texts = [
        "h(x*y*x) = H(x)^2*H(y)",
        "h(x*y + y*x) = 2*H(x)*H(y)",
        "h(x^2*y - 3*y*x^2 + 2/3*x*y*x) = -1/3*H(x)^2*H(y)",
        "h(x*y*z) = H(x)*H(y)*H(z)",
    ]
    for h in maps:
        for text in texts:
            ident = parse_identity(text, NONCOMMUTATIVE)
            space = h.domain.size ** len(ident.lhs.variables())
            # 300 assignments are sampled, or one fewer than Z_7's 7^2
            cap = min(300, space - 1)
            rep = evaluate(ident, h.domain, h.codomain, h, max_assignments=cap, sample_seed=4)
            assert not rep.exhaustive
            assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(ident, h, (4, cap))
            if space > 10 ** 5:
                continue
            rep = evaluate(ident, h.domain, h.codomain, h)
            assert rep.exhaustive
            assert (rep.ok, rep.checked, rep.witness) == _one_shot_evaluate(ident, h)


def test_first_mismatch_past_the_first_block():
    """h(x, y) = (2x, 0) on Z_5 x Z_5 first fails at a_1 = ... = a_4 = (1, 0), element 5."""
    pair = ring_from_spec("zm:5^2")
    h = AdditiveMap(pair, pair, [[2, 0], [0, 0]])
    first = 5 * (25 ** 3 + 25 ** 2 + 25 + 1)
    # evaluate's blocks of 4 * BLOCK_ROWS // d assignments of zm:5^2 hold 8,192
    assert first > 4 * models.BLOCK_ROWS // pair.dim == 8192
    expected = _one_shot_ring(h, 4)
    assert expected == PredicateResult(False, 25 ** 4, ([1, 0], [1, 0], [1, 0], [1, 0]))
    assert is_n_ring(h, 4) == expected
    ident = parse_identity("h(x*y*z*w) = H(x)*H(y)*H(z)*H(w)", NONCOMMUTATIVE)
    # a space exactly at the cap is enumerated
    rep = evaluate(ident, pair, pair, h, max_assignments=25 ** 4)
    assert (rep.ok, rep.checked, rep.space, rep.exhaustive) == (False, 25 ** 4, 25 ** 4, True)
    assert rep.witness == {"x": [1, 0], "y": [1, 0], "z": [1, 0], "w": [1, 0]}


@pytest.mark.parametrize("spec,k,rows", [("zm:7", 6, 16384), ("zm:5^2", 4, 8192), ("freetrunc:2d3@5", 3, 1170)])
def test_assignment_blocks_hold_a_coordinate_budget(spec, k, rows):
    """Blocks of 4 * BLOCK_ROWS // d assignments, each variable's (rows, d)
    column in Fortran order, so that every column holds 4 * BLOCK_ROWS cells."""
    ring = ring_from_spec(spec)
    assert rows == 4 * models.BLOCK_ROWS // ring.dim
    for cap, seed in ((ring.size ** k, None), (3 * rows, 0)):
        blocks, _ = ring.assignments(k, cap, seed)
        cols = next(blocks)
        assert len(cols) == k
        assert all(c.shape == (rows, ring.dim) and c.flags.f_contiguous for c in cols)


def test_evaluation_blocks_stay_small_on_a_wide_domain():
    """Each variable's block column holds 4 * BLOCK_ROWS int64 cells, so the
    six-word S3 identity on 10^4 samples of the gap model (d = 14) peaks
    under 2 MiB of traced allocations."""
    dom, cod, h = gap_witness_model()
    ident = parse_identity("h(x*y*z + x*z*y + y*x*z + y*z*x + z*x*y + z*y*x) = 6*H(x)*H(y)*H(z)", NONCOMMUTATIVE)
    evaluate(ident, dom, cod, h, max_assignments=10 ** 4, sample_seed=0)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        rep = evaluate(ident, dom, cod, h, max_assignments=10 ** 4, sample_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.checked == 10 ** 4
    assert peak < 2 * 2 ** 20


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
    assert is_n_ring(AdditiveMap(pair, pair, np.eye(pair.dim, dtype=np.int64)), 4) == PredicateResult(True, 25 ** 4)
    # three products of 2^4 basis tuples on each side
    assert sum(rows) <= 2 * 3 * 16


BLOCK_PAIRS = [("zm:5", "zm:5"), ("zm:5^2", "zm:5^2"), ("upper:3@2", "upper:3@2"), ("mat:2x2@2", "zm:2"),
               ("zm:5^2", "zm:5")]


@functools.lru_cache(maxsize=None)
def _pair_pool(pair):
    return _ring_pair_maps(*pair)


@functools.lru_cache(maxsize=None)
def _one_shot_reports(domain, codomain, matrix, n):
    """The one-shot oracles' (jordan, ring) reports for one map matrix, ring None past 4 * 10^4 tuples."""
    h = AdditiveMap(domain, codomain, np.array(matrix).reshape(codomain.dim, domain.dim))
    return _one_shot_jordan(h, n), _one_shot_ring(h, n) if domain.size ** n <= 4 * 10 ** 4 else None


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(BLOCK_PAIRS), n=st.integers(2, 5), block=st.sampled_from([7, 100, models.BLOCK_ROWS]),
       data=st.data())
def test_block_checks_match_the_one_shot_oracles(pair, n, block, data):
    """_jordan_checks and _ring_checks on a block of hand-picked maps (zero, identity, projections,
    coordinate sums, trace, seeded random) and random, unreduced matrices give each map the one-shot
    oracle's report, with BLOCK_ROWS small enough that element blocks, tuple blocks and survivor chunks
    split; the ring oracle sweeps every tuple, so it is checked up to 4 * 10^4 of them."""
    pool = _pair_pool(pair)
    domain, codomain = pool[0].domain, pool[0].codomain
    shape, m = (codomain.dim, domain.dim), domain.modulus
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    raw = data.draw(st.lists(st.lists(st.integers(-2 * m, 2 * m), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]), max_size=6))
    mats = [pool[i].matrix for i in picks] + [np.array(r).reshape(shape) for r in raw]
    mats = np.array(data.draw(st.permutations(mats)) if mats else [pool[0].matrix], dtype=np.int64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "BLOCK_ROWS", block)
        jordan = models._jordan_checks(domain, codomain, mats, n)
        ring = models._ring_checks(domain, codomain, mats, n)
    for mat, got_jordan, got_ring in zip(mats, jordan, ring, strict=True):
        expected_jordan, expected_ring = _one_shot_reports(domain, codomain, tuple((mat % m).reshape(-1).tolist()), n)
        assert got_jordan == expected_jordan
        if expected_ring is not None:
            assert got_ring == expected_ring
        else:
            assert got_ring.checked == domain.size ** n


# (domain spec, codomain spec or None when the domain is its own codomain, BLOCK_ROWS or None for the
# default): the codomain's power table cached by the domain's own check, a same-spec codomain whose
# table is formed for a block of at least its size, and codomains larger than any block of 7 rows,
# whose powers power_batch forms image by image
TABLE_PAIRS = [("zm:5^2", None, None), ("mat:2x2@2", None, 7), ("upper:3@2", None, None),
               ("zm:5^2", "zm:5^2", None), ("mat:2x2@2", "mat:2x2@2", None), ("zm:3^2", "zm:3^2", None),
               ("zm:3", "zm:3^2", 7), ("zm:2", "upper:3@2", 7), ("zm:2^2", "mat:2x2@2", 7), ("zm:5", "zm:5^2", 7)]


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(TABLE_PAIRS), n=st.integers(2, 6), data=st.data())
def test_power_table_reads_match_the_one_shot_oracle(pair, n, data):
    """_jordan_checks, which reads h(a)^n from the codomain's power table when it is cached or no
    larger than the block, gives each map of a block the left-to-right oracle's report on every kind
    of pair; power_batch on the codomain forms whole tables alone on the table pairs, and only
    images' powers, never a table, when the codomain outgrows the block."""
    spec, cod_spec, block = pair
    domain = ring_from_spec(spec)
    codomain = domain if cod_spec is None else ring_from_spec(cod_spec)
    shape, m = (codomain.dim, domain.dim), domain.modulus
    raw = data.draw(st.lists(st.lists(st.integers(-2 * m, 2 * m), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]), min_size=1, max_size=6))
    mats = np.array([np.zeros(shape, dtype=np.int64)] + [np.array(r).reshape(shape) for r in raw], dtype=np.int64)
    if cod_spec is None or cod_spec == spec:
        mats = np.concatenate([mats, np.eye(domain.dim, dtype=np.int64)[None]])
    powered = []
    power_batch = FiniteRing.power_batch

    def recording(self, vecs, k):
        if self is codomain:
            powered.append(len(vecs))
        return power_batch(self, vecs, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteRing, "power_batch", recording)
        patch.setattr(models, "BLOCK_ROWS", block or models.BLOCK_ROWS)
        reports = models._jordan_checks(domain, codomain, mats, n)
    for mat, report in zip(mats, reports, strict=True):
        assert report == _one_shot_jordan(AdditiveMap(ring_from_spec(spec), ring_from_spec(cod_spec or spec), mat), n)
    if block is None or cod_spec is None:
        assert powered and set(powered) == {codomain.size}
    else:
        assert powered and max(powered) < codomain.size and not codomain._tables


def _vector_power_mismatch(mats, elems, powers, codomain, n):
    """The power filter's (C, N) mask as it compared d-vectors: the images of the elements and of their n-th
    powers by two matrix products; h(a)^n read from a power table of the whole codomain at each image's
    index when the codomain has at most 10^4 elements, else formed by power_batch on the images; and
    (lhs != rhs).any(axis=2)."""
    m, d = codomain.modulus, codomain.dim
    transposed = (mats % m).transpose(0, 2, 1)
    images = elems @ transposed % m
    if codomain.size <= 10 ** 4:
        table = functools.reduce(codomain.mul_batch, [models._digits(np.arange(codomain.size), m, d)] * n)
        rhs = table[images @ m ** np.arange(d - 1, -1, -1)]
    else:
        rhs = codomain.power_batch(images.reshape(-1, d), n).reshape(images.shape)
    lhs = powers @ transposed % m
    return (lhs != rhs).any(axis=2)


# TABLE_PAIRS' rings, a domain larger than one default block, alone and with a same-spec codomain, and a
# codomain past ELEMENT_CAP
INDEX_PAIRS = [(spec, cod_spec) for spec, cod_spec, _ in TABLE_PAIRS] + [
    ("zm:3^8", None), ("zm:3^8", "zm:3^8"), ("zm:3", "zm:3^15")]


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(INDEX_PAIRS), n=st.integers(2, 6), block=st.sampled_from([7, None]), data=st.data())
def test_index_filter_matches_the_vector_oracle(pair, n, block, data):
    """_power_mismatch, which compares codomain element indices when it can tabulate the codomain, gives
    the mask of the vector oracle on unreduced random matrices, with BLOCK_ROWS 7 or its default: it
    compares indices whenever the domain is its codomain, and vectors into a codomain past ELEMENT_CAP.
    The mask stops at the end of the first block at which every map has failed, or runs to the end."""
    spec, cod_spec = pair
    domain = ring_from_spec(spec)
    codomain = domain if cod_spec is None else ring_from_spec(cod_spec)
    shape, m = (codomain.dim, domain.dim), domain.modulus
    raw = data.draw(st.lists(st.lists(st.integers(-2 * m, 2 * m), min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]), min_size=1, max_size=6))
    mats = np.array([np.array(r).reshape(shape) for r in raw], dtype=np.int64)
    if cod_spec is None:
        mats = np.concatenate([mats, np.eye(domain.dim, dtype=np.int64)[None]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "BLOCK_ROWS", block or models.BLOCK_ROWS)
        mask = models._power_mismatch(mats, domain, codomain, n)
    assert n in codomain._tables or cod_spec is not None
    assert not codomain._tables or cod_spec != "zm:3^15"
    elems = models._digits(np.arange(domain.size), m, domain.dim)
    expected = _vector_power_mismatch(mats, elems, functools.reduce(domain.mul_batch, [elems] * n), codomain, n)
    cut, step = mask.shape[1], max(1, (block or models.BLOCK_ROWS) // len(mats))
    assert mask.tolist() == expected[:, :cut].tolist()
    assert cut == domain.size or cut % step == 0 and expected[:, :cut].any(axis=1).all()
    assert not expected[:, :(cut - 1) // step * step].any(axis=1).all()


def test_the_filter_stops_at_the_block_where_every_map_has_failed():
    """Negation on zm:3^8 fails the square condition at element 1, so is_n_jordan's filter checks
    one block of BLOCK_ROWS of its 6,561 elements; the identity passes on all of them."""
    ring = ring_from_spec("zm:3^8")
    neg, eye = models.negation_map(ring).matrix, np.eye(ring.dim, dtype=np.int64)
    assert models._power_mismatch(neg[None], ring, ring, 2).shape == (1, models.BLOCK_ROWS)
    assert models._power_mismatch(np.stack([neg, eye]), ring, ring, 2).shape == (2, ring.size)
    assert is_n_jordan(models.negation_map(ring), 2) == PredicateResult(False, ring.size, ([0] * 7 + [1],))


def test_the_index_filter_forms_each_image_once_before_a_block_reads_it(monkeypatch):
    """With blocks of one element, the index filter forms each element's codomain index I(b) once, in
    index order, and before the block of a reads the codomain's power map it has formed I(a) and I(a^2)
    and nothing further: the identity into a second copy of upper:3@2 or of mat:2x2@2 (where element 6,
    E12 + E21, squares to element 9, E11 + E22) passes on every element, and the functional of upper:3@2
    reading E13's coefficient into zm:2 first fails at element 2, E13, and stops there."""
    monkeypatch.setattr(models, "BLOCK_ROWS", 1)
    for spec, cod_spec, functional in [("upper:3@2", "upper:3@2", False), ("mat:2x2@2", "mat:2x2@2", False),
                                       ("upper:3@2", "zm:2", True)]:
        domain, codomain = ring_from_spec(spec), ring_from_spec(cod_spec)
        mat = np.array([[0, 1, 0]]) if functional else np.eye(domain.dim, dtype=np.int64)
        events = []

        class Elements(np.ndarray):
            def __getitem__(self, key):
                events.append(key.start)
                return np.asarray(self)[key]

        class PowerMap(np.ndarray):
            def __getitem__(self, key):
                events.append("read")
                return np.asarray(self)[key]

        elems, all_powers = domain.element_vectors(), codomain.all_powers
        monkeypatch.setattr(domain, "element_vectors", lambda: elems.view(Elements))
        monkeypatch.setattr(codomain, "all_powers", lambda n: all_powers(n).view(PowerMap))
        mask = models._power_mismatch(mat[None], domain, codomain, 2)
        assert mask[0].tolist() == [False] * (2 if functional else domain.size) + [True] * functional
        squares, expected, formed = domain.all_powers(2), [], 0
        for a in range(mask.shape[1]):
            reach = max(formed, a + 1, squares[a] + 1)
            expected += list(range(formed, reach)) + ["read"]
            formed = reach
        assert events == expected


def test_the_filter_tabulates_a_codomain_no_larger_than_its_images():
    """A fresh codomain's power map is formed when it has no more elements than there are images (maps
    times domain elements), so that forming it costs no more than the powers it replaces; otherwise
    power_batch powers the images."""
    for spec, cod_spec, maps, tabulated in [("zm:5^2", "zm:5^2", 1, True), ("zm:2", "zm:2^2", 1, False),
                                            ("zm:2", "zm:2^2", 2, True), ("zm:5", "zm:5^2", 3, False),
                                            ("zm:5", "zm:5^2", 5, True)]:
        domain, codomain = ring_from_spec(spec), ring_from_spec(cod_spec)
        models._power_mismatch(np.ones((maps, codomain.dim, domain.dim), dtype=np.int64), domain, codomain, 3)
        assert (3 in codomain._tables) == tabulated


def test_power_maps_fit_beside_the_element_table(monkeypatch):
    """zm:2^17's element table, 17 cells an element, fits in ELEMENT_CAP beside 15 power maps of one cell
    an element, so is_n_jordan for n = 2..17 forms it once.  The same room on zm:2^5: n = 2..16 fill the
    cache to the cap, and n = 17 empties it but for the element table."""
    assert 2 ** 17 * (17 + 15) == models.ELEMENT_CAP
    ring = ring_from_spec("zm:2^5")
    monkeypatch.setattr(models, "ELEMENT_CAP", ring.size * (ring.dim + 15))
    built = []
    digits = models._digits

    def counting(idx, m, width):
        built.append(len(idx))
        return digits(idx, m, width)

    monkeypatch.setattr(models, "_digits", counting)
    h = AdditiveMap(ring, ring, np.eye(ring.dim, dtype=np.int64))
    for n in range(2, 18):
        assert is_n_jordan(h, n) == PredicateResult(True, ring.size)
        assert sum(t.size for t in ring._tables.values()) <= models.ELEMENT_CAP
        if n == 16:
            assert sorted(ring._tables) == list(range(1, 17))
            assert sum(t.size for t in ring._tables.values()) == models.ELEMENT_CAP
    assert sorted(ring._tables) == [1, 17]
    assert built == [ring.size]


def test_jordan_check_into_a_codomain_past_the_element_cap_powers_its_images():
    """A codomain too large to tabulate never has its table formed, so is_n_jordan answers as before:
    zm:2 -> zm:2^23 passes (every element of a Boolean ring is idempotent) and a -> (2a, ..., 2a)
    from zm:3 to zm:3^15 fails at a = 1, where 2 differs from 2^2 = 1."""
    wide = ring_from_spec("zm:2^23")
    assert wide.size * wide.dim > models.ELEMENT_CAP
    for n in range(2, 6):
        assert is_n_jordan(AdditiveMap(ring_from_spec("zm:2"), wide, np.ones((wide.dim, 1))), n) == \
            PredicateResult(True, 2)
    odd = ring_from_spec("zm:3^15")
    assert odd.size * odd.dim > models.ELEMENT_CAP
    assert is_n_jordan(AdditiveMap(ring_from_spec("zm:3"), odd, np.full((odd.dim, 1), 2)), 2) == \
        PredicateResult(False, 3, ([1],))
    assert not wide._tables and not odd._tables


WORK_PAIRS = [("zm:5", "zm:5"), ("zm:5^2", "zm:5"), ("zm:3^2", "zm:3^2"), ("upper:3@2", "zm:2"),
              ("mat:2x2@2", "zm:2"), ("zm:2^3", "zm:2^2"), ("nilpoly:2@3", "zm:3"), ("zm:5^2", "zm:5^2")]


def _counted_scan(pair, predicate, n, sample_count, seed, cap):
    """(refused, largest predicted work, multiply-adds counted in the kernels) of one scan under a stand-in cap.

    A ring product costs its nonzero structure terms per row and a map
    application d_A * d_B per row; the power filter applies each of its
    maps to every element by one matrix product when it compares element
    indices (the codomain's power map is cached once it returns), and to
    every element and to its power, two products, when it compares
    vectors.  The rings are built afresh, so no power map is cached from
    before.
    """
    domain, codomain = (ring_from_spec(spec) for spec in pair)
    counted, predicted = [0], []
    mul_batch, apply_batch, check_work = FiniteRing.mul_batch, AdditiveMap.apply_batch, models.check_work
    power_mismatch = models._power_mismatch

    def counting_filter(mats, domain, codomain, n):
        mask = power_mismatch(mats, domain, codomain, n)
        counted[0] += (1 if n in codomain._tables else 2) * mats.size * domain.size
        return mask

    def counting_mul(ring, u, v):
        counted[0] += len(u) * len(ring._terms)
        return mul_batch(ring, u, v)

    def counting_apply(h, vecs):
        counted[0] += len(vecs) * h.domain.dim * h.codomain.dim
        return apply_batch(h, vecs)

    def recording(what, work, override=False):
        predicted.append(work)
        return check_work(what, work, override)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteRing, "mul_batch", counting_mul)
        patch.setattr(AdditiveMap, "apply_batch", counting_apply)
        patch.setattr(models, "_power_mismatch", counting_filter)
        patch.setattr(models, "check_work", recording)
        patch.setattr(errors, "WORK_CAP", cap)
        try:
            if predicate is None:
                find_njordan_maps(domain, codomain, n, limit=10 ** 6)
            else:
                search(domain, codomain, n, predicate, limit=10 ** 6, sample_count=sample_count, seed=seed)
        except GuardError:
            return True, max(predicted), counted[0]
    return False, max(predicted), counted[0]


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(WORK_PAIRS), predicate=st.sampled_from((None, *PREDICATES)), n=st.integers(2, 6),
       sample_count=st.none() | st.integers(1, 300), seed=st.integers(0, 2 ** 31),
       cap=st.sampled_from([10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 10]))
def test_predicted_work_never_undercounts_the_kernels(pair, predicate, n, sample_count, seed, cap):
    """Every map survives in the prediction, so no scan does more kernel work than it predicted, and
    a refusal comes before any kernel and from the arguments alone: another seed is refused alike."""
    if predicate is None:
        sample_count = None  # find_njordan_maps scans every map
    refused, predicted, counted = _counted_scan(pair, predicate, n, sample_count, seed, cap)
    assert counted <= predicted
    assert not refused or counted == 0
    assert _counted_scan(pair, predicate, n, sample_count, seed + 1, cap)[0] == refused
