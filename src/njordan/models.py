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

from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice, product as cartesian_product
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import GuardError
from .exact import eliminate, prime_factors
from .freealg import MAX_DEPTH

# Most candidate maps one scan enumerates or draws, with no override.
ENUM_CAP = 10 ** 7
# Most products one n-ring check forms: d^n basis tuples at n - 1 products each.
TUPLE_CAP = 10 ** 7
# Most rows one vectorized check holds at a time: a block of exhaustive
# assignments, or of (candidate map, element) pairs in a scan.
BLOCK_ROWS = 2 ** 15
ELEMENT_CAP = 2 ** 22
CONSTRUCTOR_MODULI = (2, 3, 5, 7)
MAX_MATRIX_SIZE = 4
# Most basis elements of any ring, with no override: every ring materializes
# its d x d x d structure table.
MAX_DIM = 64
# Most products the associativity join may form, with no override; the
# largest constructor ring, nilpoly:63, needs 91,520.
MAX_JOIN = 2 * 10 ** 5
# Largest power n a predicate or search takes, with no override: each n-th
# power or n-fold product costs n - 1 ring products per row.
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


def _eliminate_rows(rows: np.ndarray, target: np.ndarray, p: int):
    """exact.eliminate over GF(p) on the rows of an integer array.

    Coordinates are column positions, so pivots follow column order.
    """

    def sparse(vec: np.ndarray) -> dict[int, int]:
        return {int(i): int(vec[i]) for i in np.flatnonzero(vec)}

    return eliminate([sparse(r) for r in rows], sparse(target), p)


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
        self._elements: np.ndarray | None = None
        self._powers: dict[int, np.ndarray] = {}

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
        """Componentwise ring product of two (N, d) batches.

        One pass over the nonzero structure constants, out[k] += c * u[i] * v[j],
        on (d, N) copies so that each coordinate is one contiguous row.
        """
        m = self.modulus
        u = np.remainder(np.asarray(u).T, m, order="C")
        v = np.remainder(np.asarray(v).T, m, order="C")
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
        if self.size > ELEMENT_CAP:
            raise GuardError(f"{self.size} elements exceed the materialization cap {ELEMENT_CAP}")
        if self._elements is None:
            self._elements = _digits(np.arange(self.size, dtype=np.int64), self.modulus, self.dim)
        return self._elements

    def index_of(self, vec: np.ndarray) -> int:
        return _index(vec, self.modulus)

    def element(self, idx: int) -> np.ndarray:
        return _digits([idx], self.modulus, self.dim)[0]

    def assignments(self, k: int, cap: int, sample_seed: int | None) -> tuple[Iterator[list[np.ndarray]], bool]:
        """Blocks of columns of elements to assign to k variables, and whether they are exhaustive.

        Every k-tuple in index order when the size**k tuples fit under cap
        (tuple i is the k*d base-m digits of i); otherwise cap seeded uniform
        draws, which needs sample_seed.  Either way in blocks of at most
        BLOCK_ROWS rows, each split into k columns of d.  Identity
        evaluation draws its assignments here.
        """
        space, d = self.size ** k, self.dim
        exhaustive = space <= cap
        if not exhaustive and sample_seed is None:
            raise GuardError(f"{space} assignments exceed cap {cap}; pass sample_seed to sample")
        points = _blocks(self.modulus, k * d, BLOCK_ROWS, None if exhaustive else cap, sample_seed or 0)
        return ([pts[:, v * d:(v + 1) * d] for v in range(k)] for pts in points), exhaustive

    def product_batch(self, factors: Iterable[np.ndarray]) -> np.ndarray:
        """Left-to-right ring product of a nonempty sequence of (N, d) batches.

        Factors from a generator are made one at a time, as the product needs them.
        """
        factors = iter(factors)
        out = next(factors)
        for f in factors:
            out = self.mul_batch(out, f)
        return out

    def power_batch(self, vecs: np.ndarray, n: int) -> np.ndarray:
        return self.product_batch([vecs] * n)

    def all_powers(self, n: int) -> np.ndarray:
        """n-th powers of every element, cached."""
        if n not in self._powers:
            self._powers[n] = self.power_batch(self.element_vectors(), n)
        return self._powers[n]

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, m={self.modulus}, d={self.dim})"


def nilpotency_index(ring: FiniteRing) -> int | None:
    """Smallest k with every k-fold product zero, via the ranks of A^k; None if none."""
    p = ring.modulus
    if prime_factors(p) != {p}:
        raise GuardError("nilpotency index needs a prime modulus")
    basis = np.eye(ring.dim, dtype=np.int64)
    span = basis  # independent rows spanning A^(k-1)
    for k in count(2):  # the rank of A^k falls at every step, so this ends by k = d + 1
        prods = np.concatenate([ring.mul_batch(np.tile(e, (span.shape[0], 1)), span) for e in basis])
        independent, _, _ = _eliminate_rows(prods, np.zeros(ring.dim, dtype=np.int64), p)
        if not independent:
            return k
        if len(independent) == span.shape[0]:
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
    _guard_modulus(m, override)
    return _monomial(f"zm:{m}", m, [0], lambda a, b: 0)


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
    if npoints > 4 and not override:
        raise GuardError(f"{npoints} points exceed 4; pass override to lift")
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


def ring_from_spec(spec: str, override: bool = False) -> FiniteRing:
    """Parse catalog strings like zm:5, zm:5^2, mat:2x2@2, upper:4@2, fun:upper:4@2,pts:3.

    A spec with more than MAX_DEPTH fun: wrappers is refused before any ring
    is built, since each wrapper is one level of recursion.
    """
    if spec.count("fun:") > MAX_DEPTH:
        raise GuardError(f"ring spec nests fun: deeper than {MAX_DEPTH}")
    s = spec.strip()
    if s.startswith("fun:"):
        body = s[4:]
        if ",pts:" not in body:
            raise ValueError(f"function ring spec needs ,pts:<n>: {spec!r}")
        inner, pts = body.rsplit(",pts:", 1)
        return function_ring(ring_from_spec(inner, override), int(pts), override)
    if s.startswith("zm:"):
        mstr, power, kstr = s[3:].partition("^")
        m, k = int(mstr), int(kstr) if power else 1
        if k < 1:
            raise ValueError("power must be positive")
        _guard_modulus(m, override)
        _check_dim(k)
        name = f"zm:{m}^{k}" if k > 1 else f"zm:{m}"
        return _monomial(name, m, range(k), lambda i, j: i if i == j else None)
    if s.startswith("mat:"):
        body = s[4:]
        shape, mstr = body.split("@", 1)
        r, c = shape.split("x", 1)
        if r != c:
            raise ValueError("matrix rings must be square")
        return matrix_ring(int(r), int(mstr), override)
    if s.startswith("upper:"):
        body = s[6:]
        kstr, mstr = body.split("@", 1)
        return strict_upper(int(kstr), int(mstr), override)
    if s.startswith("freetrunc:"):
        body, mstr = s[10:].split("@", 1)
        lstr, dstr = body.split("d", 1)
        return truncated_free(int(lstr), int(dstr), int(mstr), override)
    if s.startswith("nilpoly:"):
        dstr, mstr = s[8:].split("@", 1)
        return truncated_poly(int(mstr), int(dstr), override)
    raise ValueError(f"unrecognized ring spec {spec!r}")


# --- additive maps -----------------------------------------------------------


class AdditiveMap:
    """Additive (hence Z_m-linear) map between rings with one modulus."""

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
        return (self.matrix @ (np.asarray(vec, dtype=np.int64) % self.domain.modulus)) % self.domain.modulus

    def apply_batch(self, vecs: np.ndarray) -> np.ndarray:
        return (vecs % self.domain.modulus) @ self.matrix.T % self.domain.modulus

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


def transpose_map(k: int, m: int, override: bool = False) -> tuple[FiniteRing, AdditiveMap]:
    """The matrix ring together with its transposition map."""
    ring = matrix_ring(k, m, override)
    mat = np.zeros((ring.dim, ring.dim), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mat[j * k + i, i * k + j] = 1
    return ring, AdditiveMap(ring, ring, mat)


def _candidates(
    domain: FiniteRing,
    codomain: FiniteRing,
    block: int,
    sample_count: int | None = None,
    seed: int = 0,
    override: bool = False,
) -> Iterator[np.ndarray]:
    """Candidate map matrices in blocks of shape (at most block, d_codomain, d_domain).

    Every matrix in index order, or ``sample_count`` seeded uniform draws
    when a count is given, from _blocks; either number of maps is refused
    past the enumeration cap unless override is set.
    """
    rows, cols, m = codomain.dim, domain.dim, domain.modulus
    total = m ** (rows * cols) if sample_count is None else sample_count
    if total > ENUM_CAP and not override:
        raise GuardError(
            f"{total} candidate maps exceed the enumeration cap {ENUM_CAP}; sample at most that many or pass override"
        )
    for mats in _blocks(m, rows * cols, block, sample_count, seed):
        yield mats.reshape(-1, rows, cols)


def additive_maps(
    domain: FiniteRing,
    codomain: FiniteRing,
    sample_count: int | None = None,
    seed: int = 0,
    override: bool = False,
) -> Iterator[AdditiveMap]:
    """Every additive map in row-major index order, guarded by their count, or a seeded sample of them.

    Drawn in blocks of at most BLOCK_ROWS matrix entries.
    """
    block = max(1, BLOCK_ROWS // (codomain.dim * domain.dim))
    for mats in _candidates(domain, codomain, block, sample_count, seed, override):
        for mat in mats:
            yield AdditiveMap(domain, codomain, mat)


@dataclass(frozen=True)
class PredicateResult:
    """Outcome of one predicate check, with a witness when it fails."""

    ok: bool
    checked: int
    exhaustive: bool
    witness: tuple[list[int], ...] | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "exhaustive": self.exhaustive,
            "witness": None if self.witness is None else [list(w) for w in self.witness],
        }


def check_blocks(
    blocks: Iterable[list[np.ndarray]], mismatch: Callable[[list[np.ndarray], int], np.ndarray], exhaustive: bool
) -> PredicateResult:
    """One result from a mismatch mask over every block of assignment columns.

    ``mismatch`` gets a block's columns and the number of rows before it.
    Every block is checked, so ``checked`` counts every assignment; the
    witness is the first mismatching assignment, one element per column.
    """
    checked, witness = 0, None
    for cols in blocks:
        bad = mismatch(cols, checked)
        if witness is None and bad.any():
            first = int(np.flatnonzero(bad)[0])
            witness = tuple(c[first].tolist() for c in cols)
        checked += len(bad)
    return PredicateResult(witness is None, checked, exhaustive, witness)


def _power_mismatch(
    mats: np.ndarray, elems: np.ndarray, powers: np.ndarray, codomain: FiniteRing, n: int
) -> np.ndarray:
    """(C, N) mask of h(a^n) != h(a)^n for C map matrices h and N elements a.

    ``powers`` holds the n-th powers of ``elems`` in the domain.  This is the
    one computation of the power condition, for a single map and for a
    block of search candidates alike.
    """
    m = codomain.modulus
    images = np.einsum("cij,ej->cei", mats, elems) % m
    lhs = np.einsum("cij,ej->cei", mats, powers) % m
    rhs = codomain.power_batch(images.reshape(-1, codomain.dim), n).reshape(images.shape)
    return (lhs != rhs).any(axis=2)


def is_n_jordan(h: AdditiveMap, n: int) -> PredicateResult:
    """Does h(a^n) = h(a)^n hold for every element a, checked in index order.

    Domains past ELEMENT_CAP elements are refused.
    """
    _check_power(n, 1)
    ring_a = h.domain
    elems, powers = ring_a.element_vectors(), ring_a.all_powers(n)

    def mismatch(cols: list[np.ndarray], start: int) -> np.ndarray:
        (block,) = cols
        return _power_mismatch(h.matrix[None], block, powers[start:start + len(block)], h.codomain, n)[0]

    return check_blocks(([elems[s:s + BLOCK_ROWS]] for s in range(0, ring_a.size, BLOCK_ROWS)), mismatch, True)


def is_n_ring(h: AdditiveMap, n: int) -> PredicateResult:
    """Does h(a_1 ... a_n) = h(a_1) ... h(a_n) hold for all tuples.

    The defect h(a_1 ... a_n) - h(a_1) ... h(a_n) is additive in each
    argument, so the d^n tuples of basis vectors decide it, and the first
    failing tuple in index order is a basis tuple: each entry is the first
    element, given the entries before it, on which the defect is not
    identically 0, and an element that is not a basis vector is a
    combination of basis vectors of smaller index.  With the basis in index order (e_(d-1) is element 1),
    the first failing basis tuple is the witness; ``checked`` counts the
    size^n tuples the verdict covers.  A check of more than TUPLE_CAP
    products is refused.
    """
    _check_power(n, 2)
    d = h.domain.dim
    if d ** n * (n - 1) > TUPLE_CAP:
        raise GuardError(f"{d}^{n} basis tuples exceed cap {TUPLE_CAP} at {n - 1} products each")

    def mismatch(cols: list[np.ndarray], _start: int) -> np.ndarray:
        lhs = h.apply_batch(h.domain.product_batch(cols))
        rhs = h.codomain.product_batch(h.apply_batch(c) for c in cols)
        return (lhs != rhs).any(axis=1)

    basis = np.eye(d, dtype=np.int64)[::-1]
    found = check_blocks(([basis[col] for col in idx.T] for idx in _blocks(d, n, BLOCK_ROWS)), mismatch, True)
    return PredicateResult(found.ok, h.domain.size ** n, True, found.witness)


@dataclass(frozen=True)
class SearchHit:
    index: int
    matrix: list[list[int]]
    details: dict

    def to_json(self) -> dict:
        return {"index": self.index, "matrix": self.matrix, "details": self.details}


# name: (filter power, None meaning n; detail key of the filter's condition;
# detail key of the second check; the second check).  A map is a hit when it
# passes the filter and fails the second check.  The checks look up
# is_n_jordan and is_n_ring at call time, so a wrapper installed on the
# module attribute sees every call.
_PREDICATES: dict[str, tuple[int | None, str, str, Callable[[AdditiveMap, int], PredicateResult]]] = {
    "jordan_not_ring": (2, "jordan", "ring", lambda h, n: is_n_ring(h, 2)),
    "njordan_not_jordan": (None, "njordan", "jordan", lambda h, n: is_n_jordan(h, 2)),
    "njordan_not_nring": (None, "njordan", "nring", lambda h, n: is_n_ring(h, n)),
}
PREDICATES = tuple(_PREDICATES)


def _predicate(name: str, h: AdditiveMap, n: int) -> tuple[bool, dict]:
    """The second check of a named predicate, for a map that passed search's filter.

    The filter has already checked the first condition, h(a^p) = h(a)^p, on
    every element of a domain of at most 4096 elements.  is_n_jordan would
    check exactly the same thing, so its report is PredicateResult(True,
    domain.size, True) and is not computed again.
    """
    _, first_key, second_key, second = _PREDICATES[name]
    result = second(h, n)
    first = PredicateResult(True, h.domain.size, True)
    return not result.ok, {first_key: first.to_json(), second_key: result.to_json()}


def _scan(
    domain: FiniteRing,
    codomain: FiniteRing,
    power: int,
    sample_count: int | None = None,
    seed: int = 0,
    override: bool = False,
) -> Iterator[AdditiveMap]:
    """Candidate maps in scan order, keeping those with h(a^power) = h(a)^power.

    The power condition is checked on every domain element at once for a
    block of as many candidate matrices as keep the (map, element) pairs
    under BLOCK_ROWS.  Domains over 4096 elements are refused.
    """
    if domain.size > 4096:
        raise GuardError("search domain too large to precompute element powers")
    _check_power(power, 1)
    elems = domain.element_vectors()
    powers = domain.all_powers(power)
    block = max(1, BLOCK_ROWS // domain.size)
    for mats in _candidates(domain, codomain, block, sample_count, seed, override):
        for c in np.flatnonzero(~_power_mismatch(mats, elems, powers, codomain, power).any(axis=1)):
            yield AdditiveMap(domain, codomain, mats[c])


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
    either is refused past the enumeration cap unless override is set, and
    n past MAX_POWER is refused.  Each block of candidates is first filtered by
    the named predicate's power condition; the survivors get only its
    second check.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}; choose from {PREDICATES}")
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    _check_power(n, 1)
    hits: list[SearchHit] = []
    for hmap in _scan(domain, codomain, _PREDICATES[predicate][0] or n, sample_count, seed, override):
        found, details = _predicate(predicate, hmap, n)
        if found:
            hits.append(SearchHit(hmap.index, hmap.matrix.tolist(), details))
            if len(hits) == limit:
                break
    return hits


def find_njordan_maps(
    domain: FiniteRing,
    codomain: FiniteRing,
    n: int,
    limit: int = 64,
    override: bool = False,
) -> list[AdditiveMap]:
    """All (or the first ``limit``) n-Jordan additive maps, exhaustively.

    Runs on search's blocked scan, so domains over 4096 elements are refused.
    """
    return list(islice(_scan(domain, codomain, n, override=override), limit))


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
    sampled_all_4jordan = sum(1 for _ in _scan(u42, u42, 4, sample_count=10 ** 4, seed=0)) == 10 ** 4
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
