"""Finite rings given by structure constants, and searches over additive maps.

A ring lives on the additive group (Z_m)^d.  Multiplication is the bilinear
extension of a table c[i, j] giving the product of basis vectors e_i * e_j
as a vector of d coefficients.  The list of its nonzero entries is the
ring's multiplication: the product kernel sums over it, and associativity
is checked on all basis triples at construction time by joining it with
itself, so an accepted FiniteRing really is a ring.

Additive maps between two rings over the same modulus are exactly the
(d_B x d_A) matrices over Z_m.  They are enumerated in row-major order
(index 0 is the zero map, the entry at row 0, column 0 is the most
significant digit), which keeps every search reproducible.

These rings serve as finite surrogates: small stand-ins over Z_m for the
real or complex algebras that motivate the example constructions.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import count, islice, product as cartesian_product
from typing import Callable, ClassVar, Iterable, Iterator

import numpy as np

from .errors import CALL_WORK, GuardError, check_work
from .exact import eliminate, prime_factors
from .freealg import MAX_DEPTH, quote, read_int

# Most rows one vectorized check holds at a time: (candidate map, element)
# pairs in a scan, elements in is_n_jordan, basis tuples in is_n_ring.
# Identity evaluation counts coordinates instead: a block holds
# 4 * BLOCK_ROWS // d assignments of a d-dimensional domain, so each
# variable's (rows, d) int64 column is 128 KiB whatever d is, which stays in
# a core's L2 cache.
BLOCK_ROWS = 2 ** 12
# Most int64 cells (elements times dimension) of one element table, and of
# all the element-power tables one ring caches together.
ELEMENT_CAP = 2 ** 22
# Most elements of a search domain: a memory bound, so that a scan block of
# one candidate map on every element holds at most BLOCK_ROWS rows.
MAX_SEARCH_DOMAIN = BLOCK_ROWS
CONSTRUCTOR_MODULI = (2, 3, 5, 7)
MAX_MATRIX_SIZE = 4
# Most points of a function ring, with no override.
MAX_POINTS = 4
# Most basis elements of any ring, with no override: every ring materializes
# its d x d x d structure table.
MAX_DIM = 64
# Most products the associativity join may form, with no override; the
# largest constructor ring, nilpoly:63, needs 91,520.
MAX_JOIN = 2 * 10 ** 5
# Largest power n a predicate or search takes, with no override: each n-fold
# product costs n - 1 ring products per row, an n-th power about log2(n).
MAX_POWER = 64


def _check_dim(d: int) -> None:
    """Refuse a ring of dimension d below 1 or over MAX_DIM, before any of its tables is built."""
    if d < 1:
        raise ValueError(f"ring dimension {d} is below 1: a ring needs at least one basis element")
    if d > MAX_DIM:
        raise GuardError(f"ring dimension {d} exceeds {MAX_DIM}")


def _check_power(n: int, least: int) -> None:
    """Refuse a power n below least or over MAX_POWER, before any product is formed."""
    if n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
    if n > MAX_POWER:
        raise GuardError(f"n = {n} exceeds {MAX_POWER}")


def _digits(idx, m: int, width: int) -> np.ndarray:
    """Base-m digits of each index, most significant first, as an (N, width) array.

    The one decoding of an index into coordinates: ring elements and
    additive-map matrices (flattened row-major) both use it.
    """
    rest = np.asarray(idx)
    out = np.empty((rest.shape[0], width), dtype=np.int64)
    for j in range(width - 1, -1, -1):
        out[:, j] = rest % m
        rest = rest // m
    return out


def _index(digits, m: int) -> int:
    """The index with the given base-m digits, most significant first; inverse of _digits.

    The one encoding of coordinates into an index, in Python ints so that it
    stays exact past int64.
    """
    index = 0
    for d in digits:
        index = index * m + int(d) % m
    return index


def _residues(x, m: int) -> np.ndarray:
    """x as an int64 array of residues mod m.

    An int64 array already in [0, m), as every kernel's output is, comes
    back as it is, uncopied: a range check costs less than int64 %.  Anything
    else is reduced into a new C-contiguous array.  Read as uint64 a
    negative int64 is at least 2^63, past any modulus, so one max checks
    both ends of the range.
    """
    x = np.asarray(x)
    if x.dtype == np.int64 and (x.size == 0 or np.maximum.reduce(x.view(np.uint64), axis=None) < m):
        return x
    return np.remainder(x, m, order="C").astype(np.int64, copy=False)


def _blocks(base: int, width: int, block: int, count: int | None = None, seed: int = 0) -> Iterator[np.ndarray]:
    """Points of (Z_base)^width as (rows, width) digit arrays, in blocks of at most block rows.

    The one point enumerator: candidate maps, assignments and basis tuples
    all come from here.  With no count, every point in index order (row i
    holds the base-``base`` digits of i); with a count (at least 1, so no
    check passes vacuously), that many seeded uniform draws, made one block
    at a time.  The draws do not depend on block: a Generator's stream is
    the same however it is cut.
    """
    if count is None:
        total = base ** width
        for start in range(0, total, block):
            yield _digits(np.arange(start, min(start + block, total), dtype=np.int64), base, width)
        return
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    for start in range(0, count, block):
        yield rng.integers(0, base, size=(min(block, count - start), width))


class FiniteRing:
    """Ring on (Z_m)^d defined by a structure constant table."""

    def __init__(self, name: str, modulus: int, struct: np.ndarray):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        struct = np.asarray(struct, dtype=object) % modulus
        if struct.ndim != 3 or struct.shape[0] != struct.shape[1] or struct.shape[1] != struct.shape[2]:
            raise ValueError("structure table must have shape (d, d, d)")
        _check_dim(struct.shape[0])
        # mul_batch sums c_ijk * u_i * v_j over i, j and apply_batch sums d
        # products of residues, all in int64
        bound = max(struct.sum(axis=(0, 1)).max(initial=0), struct.shape[0]) * (modulus - 1) ** 2
        if bound >= 2 ** 63:
            raise GuardError(f"modulus {modulus} overflows int64 arithmetic in this ring")
        struct = struct.astype(np.int64)
        self.name = name
        self.modulus = modulus
        self.struct = struct
        # (i, j, k, c) for every nonzero c = struct[i, j, k]: the terms mul_batch
        # sums and _check_associativity joins
        nonzero = np.nonzero(struct)
        self._terms = list(zip(*(a.tolist() for a in nonzero), struct[nonzero].tolist()))
        self.dim = struct.shape[0]
        self.size = modulus ** self.dim
        self._check_associativity()
        self.commutative = bool((struct == struct.transpose(1, 0, 2)).all())
        # n -> the n-th powers of every element; the element table is n = 1
        self._tables: dict[int, np.ndarray] = {}

    def _check_associativity(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, as a join over the nonzero constants.

        For each term e_i e_j -> c e_p, (e_i e_j) e_k goes through the terms
        e_p e_k and e_a (e_i e_j) through the terms e_a e_p.  Both sides are
        summed into one coefficient per (i, j, k, r); a triple is bad when one
        of its coefficients is nonzero mod m.  The join's size is known from
        the term counts, and a join over MAX_JOIN products is refused first.
        """
        starting, ending = defaultdict(list), defaultdict(list)
        for i, j, k, c in self._terms:
            starting[i].append((j, k, c))
            ending[j].append((i, k, c))
        work = sum(len(starting[p]) + len(ending[p]) for _, _, p, _ in self._terms)
        if work > MAX_JOIN:
            raise GuardError(f"associativity check needs {work} products, over {MAX_JOIN}")
        diff: defaultdict[tuple[int, int, int, int], int] = defaultdict(int)
        for i, j, p, c in self._terms:
            for k, r, c2 in starting[p]:
                diff[i, j, k, r] += c * c2
            for a, r, c2 in ending[p]:
                diff[a, i, j, r] -= c * c2
        bad = [key[:3] for key, value in diff.items() if value % self.modulus]
        if bad:
            raise ValueError(f"structure table is not associative at basis triple {min(bad)}")

    def mul_batch(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Componentwise ring product of two (N, d) batches of any integers.

        One pass over the nonzero structure constants, out[k] += c * u[i] * v[j],
        on (d, N) arrays so that each coordinate is one contiguous row: a batch
        in Fortran order, such as another product, is read without a copy.  An
        input already reduced mod m, such as another product, is used as it is
        (after a range check); any other is reduced first.  A square reads its
        one batch once.
        """
        m, square = self.modulus, v is u
        u = np.ascontiguousarray(_residues(np.asarray(u).T, m))
        v = u if square else np.ascontiguousarray(_residues(np.asarray(v).T, m))
        out = np.zeros(u.shape, dtype=np.int64)
        tmp = np.empty(u.shape[1], dtype=np.int64)
        for i, j, k, c in self._terms:
            np.multiply(u[i], v[j], out=tmp)
            if c != 1:
                tmp *= c
            out[k] += tmp
        # out is nonnegative, where fmod agrees with % and costs less
        return np.fmod(out, m, out=out).T

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.mul_batch(np.asarray(u)[None, :], np.asarray(v)[None, :])[0]

    def element_vectors(self) -> np.ndarray:
        """All elements as an (size, d) array in index order."""
        return self.all_powers(1)

    def index_of(self, vec: np.ndarray) -> int:
        return _index(vec, self.modulus)

    def element(self, idx: int) -> np.ndarray:
        return _digits([idx], self.modulus, self.dim)[0]

    def assignments(self, k: int, cap: int, sample_seed: int | None) -> tuple[Iterator[list[np.ndarray]], bool]:
        """Blocks of columns of elements to assign to k variables, and whether they are exhaustive.

        Every k-tuple in index order when the size**k tuples fit under cap
        (tuple i is the k*d base-m digits of i); otherwise cap seeded uniform
        draws, which needs sample_seed.  Either way in blocks of at most
        4 * BLOCK_ROWS // d rows, each split into k (rows, d) columns held in
        Fortran order, so that mul_batch reads each coordinate as one
        contiguous row without copying it.  Identity evaluation draws its
        assignments here.
        """
        space, d = self.size ** k, self.dim
        exhaustive = space <= cap
        if not exhaustive and sample_seed is None:
            raise GuardError(f"{space} assignments exceed cap {cap}; pass sample_seed to sample")
        points = _blocks(self.modulus, k * d, max(1, 4 * BLOCK_ROWS // d), None if exhaustive else cap,
                         sample_seed or 0)
        # map holds no block once it is transposed, so only the (k * d, rows) copy stays alive
        coords = map(lambda pts: np.ascontiguousarray(pts.T), points)
        return ([rows[v * d:(v + 1) * d].T for v in range(k)] for rows in coords), exhaustive

    def power_batch(self, vecs: np.ndarray, n: int) -> np.ndarray:
        """n-th power (n at least 1) of each row of an (N, d) batch, by repeated squaring.

        About log2(n) products where the left-to-right product takes n - 1:
        powers of one element commute, so neither a unit nor commutativity
        is needed.
        """
        power, square = None, vecs
        while True:
            if n & 1:
                power = square if power is None else self.mul_batch(power, square)
            n >>= 1
            if not n:
                return power
            square = self.mul_batch(square, square)

    def all_powers(self, n: int) -> np.ndarray:
        """n-th powers of every element in index order, cached in at most ELEMENT_CAP cells in all.

        A table that would pass that empties the cache first, but for an element table that fits
        beside the new one; one table over it is refused.
        """
        cells = self.size * self.dim
        if cells > ELEMENT_CAP:
            raise GuardError(f"{self.size} elements exceed the materialization cap: {cells} cells over {ELEMENT_CAP}")
        if n not in self._tables:
            elements = self._tables.get(1)
            if cells * (len(self._tables) + 1) > ELEMENT_CAP:
                self._tables = {1: elements} if elements is not None and 2 * cells <= ELEMENT_CAP else {}
            if elements is None:
                elements = _digits(np.arange(self.size, dtype=np.int64), self.modulus, self.dim)
            self._tables[n] = self.power_batch(elements, n)
        return self._tables[n]

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, m={self.modulus}, d={self.dim})"


def nilpotency_index(ring: FiniteRing) -> int | None:
    """Smallest k with every k-fold product zero, via the ranks of A^k over GF(p); None if none."""
    p, d = ring.modulus, ring.dim
    if prime_factors(p) != {p}:
        raise GuardError("nilpotency index needs a prime modulus")
    eye = np.eye(d, dtype=np.int64)
    span = eye  # independent rows spanning A^(k-1)
    for k in count(2):  # the rank of A^k falls at every step, so this ends by k = d + 1
        # A^k is spanned by e_i s for every basis vector e_i and row s, all in one batch
        r = span.shape[0]
        prods = ring.mul_batch(np.tile(eye, (r, 1)), np.repeat(span, d, axis=0))
        independent, _, _ = eliminate(({int(i): int(row[i]) for i in np.flatnonzero(row)} for row in prods), {}, p)
        if not independent:
            return k
        if len(independent) == r:
            return None  # A^k = A^(k-1), since A^k lies inside A^(k-1)
        span = prods[independent]


# --- constructors ------------------------------------------------------------


def _guard_modulus(m: int, override: bool) -> None:
    if m not in CONSTRUCTOR_MODULI and not override:
        raise GuardError(f"modulus {m} outside {CONSTRUCTOR_MODULI}; pass override to lift")


def _monomial(name: str, m: int, basis: Iterable, product: Callable) -> FiniteRing:
    """The ring on the given basis keys with e_a e_b = e_product(a, b), or 0 for a key outside the basis."""
    pos = {key: n for n, key in enumerate(basis)}
    struct = np.zeros((len(pos),) * 3, dtype=np.int64)
    for a, i in pos.items():
        for b, j in pos.items():
            k = pos.get(product(a, b))
            if k is not None:
                struct[i, j, k] = 1
    return FiniteRing(name, m, struct)


def _matrix_unit(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    """E_ij E_pq = E_iq when j = p, else zero."""
    return (a[0], b[1]) if a[1] == b[0] else None


def make_zm(m: int, override: bool = False) -> FiniteRing:
    """The ring Z_m."""
    return _zm_power(m, 1, override)


def _zm_power(m: int, k: int, override: bool = False) -> FiniteRing:
    """The ring (Z_m)^k with componentwise product: k orthogonal idempotents."""
    if k < 1:
        raise ValueError("power must be positive")
    _guard_modulus(m, override)
    _check_dim(k)
    return _monomial(f"zm:{m}^{k}" if k > 1 else f"zm:{m}", m, range(k), lambda i, j: i if i == j else None)


def _direct_sum(name: str, modulus: int, blocks: list[np.ndarray]) -> FiniteRing:
    """The ring whose structure table has the given tables as diagonal blocks."""
    d = sum(block.shape[0] for block in blocks)
    _check_dim(d)
    struct = np.zeros((d, d, d), dtype=np.int64)
    start = 0
    for block in blocks:
        end = start + block.shape[0]
        struct[start:end, start:end, start:end] = block
        start = end
    return FiniteRing(name, modulus, struct)


def product(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Direct product with componentwise operations."""
    if a.modulus != b.modulus:
        raise ValueError("factors must share a modulus")
    return _direct_sum(f"product({a.name},{b.name})", a.modulus, [a.struct, b.struct])


def matrix_ring(k: int, m: int, override: bool = False) -> FiniteRing:
    """Full k x k matrices over Z_m; basis e_{ij} in row-major order."""
    if k > MAX_MATRIX_SIZE and not override:
        raise GuardError(f"matrix size {k} exceeds {MAX_MATRIX_SIZE}; pass override to lift")
    _guard_modulus(m, override)
    _check_dim(k * k)
    units = [(i, j) for i in range(k) for j in range(k)]
    return _monomial(f"mat:{k}x{k}@{m}", m, units, _matrix_unit)


def strict_upper(k: int, m: int, override: bool = False) -> FiniteRing:
    """Strictly upper triangular k x k matrices over Z_m (nilpotent)."""
    if k > MAX_MATRIX_SIZE and not override:
        raise GuardError(f"matrix size {k} exceeds {MAX_MATRIX_SIZE}; pass override to lift")
    _guard_modulus(m, override)
    _check_dim(k * (k - 1) // 2)
    units = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return _monomial(f"upper:{k}@{m}", m, units, _matrix_unit)


def function_ring(base: FiniteRing, npoints: int, override: bool = False) -> FiniteRing:
    """Ring of functions from npoints points into base, with pointwise product."""
    if npoints > MAX_POINTS and not override:
        raise GuardError(f"{npoints} points exceed {MAX_POINTS}; pass override to lift")
    if npoints < 1:
        raise ValueError("need at least one point")
    _check_dim(base.dim * npoints)
    return _direct_sum(f"fun:{base.name},pts:{npoints}", base.modulus, [base.struct] * npoints)


def truncated_free(letters: int, maxdeg: int, m: int, override: bool = False) -> FiniteRing:
    """Non-unital free algebra on ``letters`` generators, truncated past maxdeg.

    Basis: all words of length 1..maxdeg in graded lexicographic order, with
    concatenation as product and anything longer than maxdeg set to zero.
    """
    _guard_modulus(m, override)
    if letters < 1 or maxdeg < 1:
        raise ValueError("need at least one letter and degree 1")
    # words of length 1..maxdeg; with two or more letters, lengths past MAX_DIM
    # only add to a count already far over the bound
    _check_dim(maxdeg if letters == 1 else sum(letters ** k for k in range(1, min(maxdeg, MAX_DIM) + 1)))
    words = [w for n in range(1, maxdeg + 1) for w in cartesian_product(range(letters), repeat=n)]
    return _monomial(f"freetrunc:{letters}d{maxdeg}@{m}", m, words, lambda w1, w2: w1 + w2)


def truncated_poly(m: int, maxdeg: int, override: bool = False) -> FiniteRing:
    """Unital commutative ring Z_m[e] with e^(maxdeg+1) = 0; basis 1, e, ..., e^maxdeg."""
    _guard_modulus(m, override)
    _check_dim(maxdeg + 1)
    return _monomial(f"nilpoly:{maxdeg}@{m}", m, range(maxdeg + 1), lambda i, j: i + j)


def gap_witness_model() -> tuple[FiniteRing, FiniteRing, AdditiveMap]:
    """A cubes-preserving additive map that is not triple-product-preserving.

    Domain: the free algebra on two letters u, v truncated past degree 3,
    over Z_5.  Codomain: Z_5[e] with e^3 = 0.  The map sends a to f(a) * e
    where the functional f reads off the uvu coefficient minus the uuv
    coefficient.  Because f kills every symmetrized word (all orderings of
    a multiset summed), h(a^3) = 0 for every a, and h(a)^3 = f(a)^3 e^3 = 0,
    so h preserves cubes; yet h(u*v*u) = e differs from h(u)h(v)h(u) = 0.
    """
    dom = truncated_free(2, 3, 5)
    cod = truncated_poly(5, 2)
    # basis words of length 3 in graded-lex order start at index 6:
    # uuu=6, uuv=7, uvu=8, uvv=9, vuu=10, vuv=11, vvu=12, vvv=13
    mat = np.zeros((cod.dim, dom.dim), dtype=np.int64)
    mat[1, 8] = 1   # coefficient of uvu
    mat[1, 7] = 4   # minus the coefficient of uuv
    return dom, cod, AdditiveMap(dom, cod, mat)


def _square_matrix_ring(r: int, c: int, m: int, override: bool = False) -> FiniteRing:
    """matrix_ring for the spec mat:<r>x<c>@<m>, whose two sizes must agree."""
    if r != c:
        raise ValueError("matrix rings must be square")
    return matrix_ring(r, m, override)


_INT = "(-?[0-9]+)"
# The ring-spec grammar: each family's whole-spec pattern, and the constructor
# that takes its integers, each read by read_int, then override.
_RING_SPECS = (
    (f"zm:{_INT}", make_zm),
    (rf"zm:{_INT}\^{_INT}", _zm_power),
    (f"mat:{_INT}x{_INT}@{_INT}", _square_matrix_ring),
    (f"upper:{_INT}@{_INT}", strict_upper),
    (f"freetrunc:{_INT}d{_INT}@{_INT}", truncated_free),
    (f"nilpoly:{_INT}@{_INT}", lambda d, m, override: truncated_poly(m, d, override)),
)


def ring_from_spec(spec: str, override: bool = False) -> FiniteRing:
    """A ring from a spec of _RING_SPECS, or fun:<spec>,pts:<n> around one, e.g. fun:upper:4@2,pts:3.

    The grammar decides syntax and the constructors decide range.  More than
    MAX_DEPTH fun: wrappers, each one level of recursion, are refused first.
    """
    if spec.count("fun:") > MAX_DEPTH:
        raise GuardError(f"ring spec nests fun: deeper than {MAX_DEPTH}")
    if fun := re.fullmatch(f"fun:(.+),pts:{_INT}", spec, re.S):
        return function_ring(ring_from_spec(fun[1], override), read_int(fun[2]), override)
    for pattern, build in _RING_SPECS:
        if match := re.fullmatch(pattern, spec):
            return build(*map(read_int, match.groups()), override)
    raise ValueError(f"unrecognized ring spec {quote(spec)}")


# --- additive maps -----------------------------------------------------------


class AdditiveMap:
    """Additive (hence Z_m-linear) map between rings with one modulus."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FiniteRing, codomain: FiniteRing, matrix: np.ndarray):
        if domain.modulus != codomain.modulus:
            raise ValueError("domain and codomain must share a modulus")
        matrix = np.asarray(matrix, dtype=np.int64) % domain.modulus
        if matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(f"matrix must be {(codomain.dim, domain.dim)}, got {matrix.shape}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    @staticmethod
    def from_index(domain: FiniteRing, codomain: FiniteRing, index: int) -> AdditiveMap:
        width = codomain.dim * domain.dim
        if not 0 <= index < domain.modulus ** width:
            raise ValueError(f"map index {index} outside [0, {domain.modulus}^{width})")
        digits = _digits([index], domain.modulus, width)
        return AdditiveMap(domain, codomain, digits.reshape(codomain.dim, domain.dim))

    @property
    def index(self) -> int:
        return _index(self.matrix.reshape(-1), self.domain.modulus)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.apply_batch(np.asarray(vec)[None, :])[0]

    def apply_batch(self, vecs: np.ndarray) -> np.ndarray:
        # residues in, so the sums are nonnegative, where fmod agrees with %
        out = _residues(vecs, self.domain.modulus) @ self.matrix.T
        return np.fmod(out, self.domain.modulus, out=out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdditiveMap):
            return NotImplemented
        return (self.domain is other.domain and self.codomain is other.codomain
                and (self.matrix == other.matrix).all())

    def __hash__(self) -> int:
        return hash((id(self.domain), id(self.codomain), self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"AdditiveMap({self.domain.name}->{self.codomain.name}, index={self.index})"


def negation_map(ring: FiniteRing) -> AdditiveMap:
    return AdditiveMap(ring, ring, (-np.eye(ring.dim, dtype=np.int64)) % ring.modulus)


def transpose_map(k: int, m: int) -> tuple[FiniteRing, AdditiveMap]:
    """The matrix ring together with its transposition map."""
    ring = matrix_ring(k, m)
    mat = np.zeros((ring.dim, ring.dim), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mat[j * k + i, i * k + j] = 1
    return ring, AdditiveMap(ring, ring, mat)


def _candidates(
    domain: FiniteRing, codomain: FiniteRing, block: int, each: int, sample_count: int | None, seed: int,
    override: bool = False,
) -> Iterator[np.ndarray]:
    """Candidate map matrices in blocks of shape (at most block, d_codomain, d_domain).

    Every matrix in index order, or ``sample_count`` seeded uniform draws
    when a count is given, from _blocks.  Refused first past WORK_CAP: one
    map's work ``each``, or all of theirs unless override is set.
    """
    rows, cols, m = codomain.dim, domain.dim, domain.modulus
    total = m ** (rows * cols) if sample_count is None else sample_count
    check_work("one candidate map", each)
    check_work(f"a scan of {total} candidate maps", total * each, override)
    return (mats.reshape(-1, rows, cols) for mats in _blocks(m, rows * cols, block, sample_count, seed))


def additive_maps(
    domain: FiniteRing, codomain: FiniteRing, sample_count: int | None = None, seed: int = 0
) -> Iterator[AdditiveMap]:
    """Every additive map in index order or a seeded sample, in blocks of BLOCK_ROWS entries, at CALL_WORK more each."""
    entries = codomain.dim * domain.dim
    for mats in _candidates(domain, codomain, max(1, BLOCK_ROWS // entries), entries + CALL_WORK, sample_count, seed):
        for mat in mats:
            yield AdditiveMap(domain, codomain, mat)


@dataclass(frozen=True, slots=True)
class PredicateResult:
    """Outcome of one predicate check, with a witness when it fails."""

    ok: bool
    checked: int
    witness: tuple[list[int], ...] | None = None
    # neither predicate samples
    exhaustive: ClassVar[bool] = True

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
            "witness": None if self.witness is None else [list(w) for w in self.witness],
        }


def check_blocks(
    blocks: Iterable[list[np.ndarray]], mismatch: Callable[[list[np.ndarray], int], np.ndarray]
) -> tuple[int, tuple[list[int], ...] | None]:
    """How many assignments every block of columns holds, and the first that mismatches (None if none).

    ``mismatch`` gets a block's columns and the number of rows before it and
    returns its mismatch mask; the witness holds one element per column.
    """
    checked, witness = 0, None
    for cols in blocks:
        bad = mismatch(cols, checked)
        if witness is None and bad.any():
            first = int(np.flatnonzero(bad)[0])
            witness = tuple(c[first].tolist() for c in cols)
        checked += len(bad)
    return checked, witness


def _block_reports(mats: np.ndarray, checked: int, blocks: Iterable, mismatch: Callable) -> list[PredicateResult]:
    """Each map matrix's report: ``checked`` and its first mismatching row, one element per column, if any.

    ``blocks`` yields each block of at most BLOCK_ROWS rows as its columns and data formed once for all
    maps; ``mismatch(sub, cols, data)`` is the mask on it of up to BLOCK_ROWS // rows maps not failed yet.
    Maps that fail at one row share one report, and passing maps share another.
    """
    reports, live = [PredicateResult(True, checked)] * len(mats), np.arange(len(mats))
    for cols, data in blocks:
        step, kept, made = max(1, BLOCK_ROWS // len(cols[0])), [], {}
        for maps in (live[s:s + step] for s in range(0, len(live), step)):
            bad = mismatch(mats[maps], cols, data)
            failed = bad.any(axis=1)
            for i, row in zip(maps[failed].tolist(), bad[failed].argmax(axis=1).tolist()):
                if row not in made:
                    made[row] = PredicateResult(False, checked, tuple(c[row].tolist() for c in cols))
                reports[i] = made[row]
            kept.append(maps[~failed])
        if not (live := np.concatenate(kept)).size:
            break
    return reports


def _power_mismatch(
    mats: np.ndarray, elems: np.ndarray, powers: np.ndarray, codomain: FiniteRing, n: int
) -> np.ndarray:
    """(C, N) mask of h(a^n) != h(a)^n for C map matrices h and N elements a.

    ``powers`` holds the n-th powers of ``elems`` in the domain.  This is the
    one computation of the power condition, for a search's filter and for
    is_n_jordan's blocks of maps alike.
    """
    m = codomain.modulus
    transposed = _residues(mats, m).transpose(0, 2, 1)
    # (C, N, d): every element, and then its power, under every map; for these
    # small dimensions matmul costs a tenth of the same einsum
    images = _residues(elems, m) @ transposed
    shape = images.shape
    rhs = codomain.power_batch(np.fmod(images, m, out=images).reshape(-1, codomain.dim), n).reshape(shape)
    del images  # so that the powers' images below do not sit beside them
    lhs = _residues(powers, m) @ transposed
    return (np.fmod(lhs, m, out=lhs) != rhs).any(axis=2)


def _work(domain: FiniteRing, codomain: FiniteRing, n: int, ring: bool) -> int:
    """Predicted multiply-adds of is_n_ring(h, n) if ring, else of is_n_jordan(h, n), for h from domain to codomain.

    is_n_ring: n - 1 products a side and n + 1 applications per basis tuple.
    is_n_jordan: per element, an n-th power a side (power_batch's products:
    one per squaring, one per further set bit) and two applications.
    """
    terms, apply = len(domain._terms) + len(codomain._terms), domain.dim * codomain.dim
    if ring:
        return domain.dim ** n * ((n - 1) * terms + (n + 1) * apply)
    return domain.size * ((n.bit_length() + n.bit_count() - 2) * terms + 2 * apply)


def _jordan_checks(domain: FiniteRing, codomain: FiniteRing, mats: np.ndarray, n: int) -> list[PredicateResult]:
    """is_n_jordan's report for each of a block of map matrices, the witness its first failing element."""
    elems, powers = domain.element_vectors(), domain.all_powers(n)
    blocks = (([elems[s:s + BLOCK_ROWS]], powers[s:s + BLOCK_ROWS]) for s in range(0, domain.size, BLOCK_ROWS))
    return _block_reports(mats, domain.size, blocks,
                          lambda sub, cols, pows: _power_mismatch(sub, cols[0], pows, codomain, n))


def _ring_checks(domain: FiniteRing, codomain: FiniteRing, mats: np.ndarray, n: int) -> list[PredicateResult]:
    """is_n_ring's report for each of a block of map matrices, the witness its first failing basis tuple.

    The domain products of each block of basis tuples are formed once for all maps.
    """
    m, width, basis = codomain.modulus, codomain.dim, np.eye(domain.dim, dtype=np.int64)[::-1]
    tuples = ([basis[col] for col in idx.T] for idx in _blocks(domain.dim, n, BLOCK_ROWS))

    def mismatch(sub: np.ndarray, cols: list[np.ndarray], products: np.ndarray) -> np.ndarray:
        # (maps, rows, width); a basis vector's image is a column of the matrix, already reduced
        lhs = products @ (images := _residues(sub, m).transpose(0, 2, 1))
        rhs = reduce(codomain.mul_batch, ((col @ images).reshape(-1, width) for col in cols))
        return (np.fmod(lhs, m, out=lhs) != rhs.reshape(lhs.shape)).any(axis=2)

    blocks = ((cols, reduce(domain.mul_batch, cols)) for cols in tuples)
    return _block_reports(mats, domain.size ** n, blocks, mismatch)


def is_n_jordan(h: AdditiveMap, n: int) -> PredicateResult:
    """Does h(a^n) = h(a)^n hold for every element a, checked in index order: _jordan_checks on one map.

    Refused past ELEMENT_CAP cells of element table, or past WORK_CAP.
    """
    _check_power(n, 1)
    check_work(f"is_n_jordan on {h.domain.size} elements", _work(h.domain, h.codomain, n, False))
    return _jordan_checks(h.domain, h.codomain, h.matrix[None], n)[0]


def is_n_ring(h: AdditiveMap, n: int) -> PredicateResult:
    """Does h(a_1 ... a_n) = h(a_1) ... h(a_n) hold for all tuples: _ring_checks on one map.

    The defect h(a_1 ... a_n) - h(a_1) ... h(a_n) is additive in each
    argument, so the d^n tuples of basis vectors decide it, and the first
    failing tuple in index order is a basis tuple: each entry is the first
    element, given the entries before it, on which the defect is not
    identically 0, and an element that is not a basis vector is a
    combination of basis vectors of smaller index.  With the basis in index order (e_(d-1) is element 1),
    the first failing basis tuple is the witness; ``checked`` counts the
    size^n tuples the verdict covers.  A check whose predicted work passes
    WORK_CAP is refused, override or not.
    """
    _check_power(n, 2)
    check_work(f"is_n_ring on {h.domain.dim}^{n} basis tuples", _work(h.domain, h.codomain, n, True))
    return _ring_checks(h.domain, h.codomain, h.matrix[None], n)[0]


@dataclass(frozen=True, slots=True)
class SearchHit:
    """A map that passed a named predicate's power filter and failed its second check.

    The map is kept as its index alone, with the (rows, columns) of its
    matrix and its modulus; ``matrix`` decodes it when read.  The hits of one
    search share equal second reports.
    """

    index: int
    shape: tuple[int, int]
    modulus: int
    predicate: str
    second: PredicateResult

    @property
    def matrix(self) -> list[list[int]]:
        rows, cols = self.shape
        return _digits([self.index], self.modulus, rows * cols).reshape(rows, cols).tolist()

    @property
    def details(self) -> dict:
        """Both checks' reports under the predicate's detail keys; the filter passed on every domain element."""
        _, first_key, second_key, *_ = _PREDICATES[self.predicate]
        first = PredicateResult(True, self.modulus ** self.shape[1])
        return {first_key: first.to_json(), second_key: self.second.to_json()}

    def to_json(self) -> dict:
        return {"index": self.index, "matrix": self.matrix, "details": self.details}


# name: (filter power, None meaning n; detail key of the filter's condition;
# detail key of the second check; the second check's power, None meaning n;
# whether it is is_n_ring rather than is_n_jordan).  A map is a hit when it
# passes the filter and fails the second check, which search runs through
# _predicate, looked up at call time, so that a wrapper on it sees every block.
_PREDICATES: dict[str, tuple[int | None, str, str, int | None, bool]] = {
    "jordan_not_ring": (2, "jordan", "ring", 2, True),
    "njordan_not_jordan": (None, "njordan", "jordan", 2, False),
    "njordan_not_nring": (None, "njordan", "nring", None, True),
}
PREDICATES = tuple(_PREDICATES)


def _predicate(name: str, domain: FiniteRing, codomain: FiniteRing, mats: np.ndarray, n: int) -> list[PredicateResult]:
    """The second check of a named predicate, for a block of map matrices that passed search's filter."""
    *_, power, ring = _PREDICATES[name]
    return (_ring_checks if ring else _jordan_checks)(domain, codomain, mats, power or n)


def _scan(
    domain: FiniteRing, codomain: FiniteRing, power: int, sample_count: int | None = None, seed: int = 0,
    override: bool = False, second: int = 0,
) -> Iterator[np.ndarray]:
    """The matrices with h(a^power) = h(a)^power of each block of candidates in scan order, nonempty blocks only.

    The power condition is checked on every domain element at once for a
    block of as many candidate matrices as keep the (map, element) pairs
    under BLOCK_ROWS.  Refused past MAX_SEARCH_DOMAIN elements, or past
    WORK_CAP with every candidate counted as a survivor: is_n_jordan(h,
    power), ``second``, the caller's check of each survivor, and CALL_WORK,
    a floor that keeps refusals where they were when survivors left one by one.
    """
    if domain.size > MAX_SEARCH_DOMAIN:
        raise GuardError("search domain too large to precompute element powers")
    _check_power(power, 1)
    each = _work(domain, codomain, power, False) + CALL_WORK + second
    candidates = _candidates(domain, codomain, max(1, BLOCK_ROWS // domain.size), each, sample_count, seed, override)
    elems = domain.element_vectors()
    powers = domain.all_powers(power)
    survivors = (mats[~_power_mismatch(mats, elems, powers, codomain, power).any(axis=1)] for mats in candidates)
    yield from filter(len, survivors)


def search(
    domain: FiniteRing,
    codomain: FiniteRing,
    n: int,
    predicate: str = "jordan_not_ring",
    limit: int = 10,
    sample_count: int | None = None,
    seed: int = 0,
    override: bool = False,
) -> list[SearchHit]:
    """Scan additive maps in deterministic order and collect the first ``limit`` (at least 1) hits.

    Exhaustive enumeration, or a seeded sample of ``sample_count`` maps;
    refused past WORK_CAP, each candidate counted with the second check,
    unless override is set and one candidate fits.  n past MAX_POWER is
    refused.  Each block of candidates is first filtered by the named
    predicate's power condition; the block's survivors then get only its
    second check, all at once, and the scan stops at the block of the last hit.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}; choose from {PREDICATES}")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    power, _, _, second_power, ring = _PREDICATES[predicate]
    # is_n_ring(h, n) takes n from 2, so that refusal too comes from the arguments
    _check_power(n, 2 if ring and second_power is None else 1)
    # A search's second reports take a few distinct values over hundreds of
    # hits: each hit keeps the first equal report made.
    seconds: dict[tuple, PredicateResult] = {}
    shape, m = (codomain.dim, domain.dim), domain.modulus
    hits: list[SearchHit] = []
    second_work = _work(domain, codomain, second_power or n, ring)
    for mats in _scan(domain, codomain, power or n, sample_count, seed, override, second_work):
        for mat, second in zip(mats, _predicate(predicate, domain, codomain, mats, n)):
            if not second.ok:
                second = seconds.setdefault((second.checked, tuple(map(tuple, second.witness))), second)
                hits.append(SearchHit(_index(mat.reshape(-1), m), shape, m, predicate, second))
                if len(hits) == limit:
                    return hits
    return hits


def find_njordan_maps(domain: FiniteRing, codomain: FiniteRing, n: int, limit: int = 64) -> list[AdditiveMap]:
    """All (or the first ``limit``) n-Jordan additive maps, exhaustively.

    Runs on search's blocked scan, refused past MAX_SEARCH_DOMAIN elements or WORK_CAP.
    """
    maps = (AdditiveMap(domain, codomain, mat) for mats in _scan(domain, codomain, n) for mat in mats)
    return list(islice(maps, limit))


def paper_examples() -> dict:
    """Reproduce the motivating example computations on finite surrogates.

    Every ring here is a finite surrogate: Z_m stand-ins for the real or
    complex algebras of the original constructions.  ``report["ok"]`` is the
    verdict: every computed fact is the one the constructions predict.
    """
    report: dict = {
        "note": "finite surrogate models over Z_m stand in for real or complex algebras",
    }

    z5 = make_zm(5)
    neg = negation_map(z5)
    report["negation_on_z5"] = {
        "ring": z5.name,
        "is_3_jordan": is_n_jordan(neg, 3).to_json(),
        "is_2_jordan": is_n_jordan(neg, 2).to_json(),
        "is_4_jordan": is_n_jordan(neg, 4).to_json(),
        "is_2_ring": is_n_ring(neg, 2).to_json(),
    }

    jordan_maps = find_njordan_maps(z5, z5, 2)
    report["jordan_functionals_on_z5"] = {
        "jordan_map_count": len(jordan_maps),
        "all_multiplicative": all(is_n_ring(h, 2).ok for h in jordan_maps),
        "indices": [h.index for h in jordan_maps],
    }

    u42 = strict_upper(4, 2)
    basis = np.eye(u42.dim, dtype=np.int64)
    # basis order: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3), so these are E12, E23, E34
    triple = u42.mul(u42.mul(basis[0], basis[3]), basis[5])
    # every seeded map passes the scan's power filter on all 64 elements
    sampled_all_4jordan = sum(map(len, _scan(u42, u42, 4, sample_count=10 ** 4, seed=0))) == 10 ** 4
    report["strict_upper_4_2"] = {
        "ring": u42.name,
        "nilpotency_index": nilpotency_index(u42),
        "triple_product_witness": {
            "factors": ["E12", "E23", "E34"],
            "product": triple.tolist(),
            "nonzero": bool(triple.any()),
        },
        "sampled_maps": 10 ** 4,
        "sample_seed": 0,
        "all_sampled_maps_4_jordan": sampled_all_4jordan,
    }

    fun = function_ring(u42, 3)
    fun_index = nilpotency_index(fun)
    report["function_ring_on_3_points"] = {
        "ring": fun.name,
        "dim": fun.dim,
        "nilpotency_index": fun_index,
        "all_4_fold_products_zero": fun_index == 4,
    }

    mat22 = matrix_ring(2, 2)
    _, transp = transpose_map(2, 2)
    report["transpose_on_mat2_z2"] = {
        "ring": mat22.name,
        "is_2_jordan": is_n_jordan(transp, 2).to_json(),
        "is_2_ring": is_n_ring(transp, 2).to_json(),
        "n_jordan_up_to_6": {str(n): is_n_jordan(transp, n).ok for n in range(2, 7)},
    }
    neg, upper, tr = (report[k] for k in ("negation_on_z5", "strict_upper_4_2", "transpose_on_mat2_z2"))
    report["ok"] = (
        neg["is_3_jordan"]["ok"] and not neg["is_2_jordan"]["ok"] and not neg["is_4_jordan"]["ok"]
        and report["jordan_functionals_on_z5"]["all_multiplicative"]
        and upper["nilpotency_index"] == 4 and upper["triple_product_witness"]["nonzero"]
        and upper["all_sampled_maps_4_jordan"] and report["function_ring_on_3_points"]["all_4_fold_products_zero"]
        and tr["is_2_jordan"]["ok"] and not tr["is_2_ring"]["ok"]
    )
    return report
