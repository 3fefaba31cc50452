"""Identities satisfied by an additive map that preserves n-th powers.

An HIdentity pairs a left side and a right side.  The left side is a
FreePoly over domain variables and is read through additivity: the term
c*w stands for c*h(w), so the whole side is a finite combination of h
values.  The right side is a commutative FreePoly whose variable ids stand
for the image symbols H(v) = h(v).  The statement "lhs = rhs" is then a
universally quantified equation about any additive map h.

Three operations produce new identities from old ones:

  seed        the defining equation h(a^n) = H(a)^n,
  substitute  replace variables by integer-linear forms on both sides,
  combine     take an exact rational linear combination.

Substitution images must be integer-linear with no constant term because
additivity justifies exactly those replacements.  Every prime that appears
in the denominator of a combination coefficient is recorded in the
``denominators`` badge, so a finished identity carries the set of primes
that must be invertible in a codomain for its derivation to be valid
there.  The badge is provenance metadata and does not take part in
equality: two HIdentity values are equal when both sides agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .freealg import (
    COMMUTATIVE,
    FreePoly,
    abelianize,
    parse_expr,
    substitute_linear,
    to_string,
    var_id,
    var_name,
)
from .exact import prime_factors, residue
from .models import AdditiveMap, FiniteRing, check_blocks

SEED_VAR = var_id("a")


@dataclass(frozen=True)
class HIdentity:
    """One derived equation about an additive n-th-power-preserving map."""

    lhs: FreePoly
    rhs: FreePoly
    denominators: frozenset[int] = field(default=frozenset(), compare=False)

    def __post_init__(self):
        if self.rhs.mode != COMMUTATIVE:
            raise ValueError("rhs must be commutative")
        for word, _ in self.lhs.terms:
            if len(word) == 0:
                raise ValueError("lhs words must be nonempty")
        for word, _ in self.rhs.terms:
            if len(word) == 0:
                raise ValueError("rhs monomials must be nonempty")

    @property
    def mode(self) -> str:
        return self.lhs.mode

    def __str__(self) -> str:
        return identity_to_string(self)


def seed(n: int, mode: str) -> HIdentity:
    """The defining identity h(a^n) = H(a)^n."""
    if n < 2:
        raise ValueError("power must be at least 2")
    # powers of one variable: an n past the expansion cap raises GuardError
    return HIdentity(FreePoly.variable(SEED_VAR, mode) ** n, FreePoly.variable(SEED_VAR, COMMUTATIVE) ** n)


def substitute(ident: HIdentity, subst: Mapping[int, FreePoly]) -> HIdentity:
    """Apply a variable-to-linear-form substitution to both sides."""
    lhs_map = {v: FreePoly.from_terms(img.terms, ident.mode) for v, img in subst.items()}
    rhs_map = {v: abelianize(img) for v, img in subst.items()}
    return HIdentity(
        substitute_linear(ident.lhs, lhs_map),
        substitute_linear(ident.rhs, rhs_map),
        ident.denominators,
    )


def combine(terms: Sequence[tuple[Fraction | int, HIdentity]]) -> HIdentity:
    """Exact linear combination; records denominator primes of the weights."""
    if not terms:
        raise ValueError("combine needs at least one term")
    mode = terms[0][1].mode
    if any(ident.mode != mode for _, ident in terms):
        raise ValueError("cannot combine identities of different modes")
    weighted = [(Fraction(coeff), ident) for coeff, ident in terms]
    primes = frozenset().union(*(ident.denominators | prime_factors(c.denominator) for c, ident in weighted))

    def side(name: str, side_mode: str) -> FreePoly:
        return FreePoly.from_terms(
            ((word, c * coeff) for c, ident in weighted for word, coeff in getattr(ident, name).terms), side_mode
        )

    return HIdentity(side("lhs", mode), side("rhs", COMMUTATIVE), primes)


def is_homogeneous(ident: HIdentity, n: int) -> bool:
    """True when every lhs word and rhs monomial has total degree n."""
    return ident.lhs.word_lengths() <= {n} and ident.rhs.word_lengths() <= {n}


def identity_to_string(ident: HIdentity) -> str:
    """Canonical textual form, h(<expr>) = <expr in H symbols>."""
    return f"h({to_string(ident.lhs)}) = {to_string(ident.rhs, h_heads=True)}"


def parse_identity(text: str, mode: str) -> HIdentity:
    """Inverse of identity_to_string for the given lhs mode.

    The denominator badge of a parsed identity is the set of primes in the
    coefficient denominators actually present, the minimal sound badge for
    a standalone statement.
    """
    if text.count("=") != 1:
        raise ValueError("identity must contain exactly one '='")
    lhs_text, rhs_text = text.split("=")
    s = lhs_text.strip()
    if not (s.startswith("h") and s[1:].lstrip().startswith("(") and s.endswith(")")):
        raise ValueError("left side must have the form h(<expr>)")
    inner = s[1:].lstrip()[1:-1]
    lhs = parse_expr(inner, mode)
    rhs = parse_expr(rhs_text, COMMUTATIVE, h_heads=True)
    primes = frozenset().union(*(prime_factors(c.denominator) for _, c in lhs.terms + rhs.terms))
    return HIdentity(lhs, rhs, primes)


def _prefix_tree(side: FreePoly, m: int) -> dict:
    """A side's words as a prefix tree: letter -> [coefficient mod m of the word ending there, subtree of longer words].

    A letter's subtree is empty when no word runs past it.
    """
    tree: dict = {}
    for word, coeff in side.terms:
        node = tree
        for v in word[:-1]:
            node = node.setdefault(v, [0, {}])[1]
        node.setdefault(word[-1], [0, {}])[0] = residue(coeff, m)
    return tree


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Outcome of checking one identity against a concrete model."""

    ok: bool
    checked: int
    space: int
    exhaustive: bool
    witness: dict[str, list[int]] | None = None


def evaluate(
    ident: HIdentity,
    ring_a: FiniteRing,
    ring_b: FiniteRing,
    h: AdditiveMap,
    max_assignments: int = 1_000_000,
    sample_seed: int | None = None,
) -> EvalReport:
    """Check an identity for one additive map between finite rings.

    Assignments of ring_a elements to the identity's variables are
    enumerated exhaustively when the assignment space fits under
    ``max_assignments``.  A larger space requires ``sample_seed``; then
    exactly ``max_assignments`` assignments are drawn reproducibly.
    Requires a commutative codomain in which every recorded denominator
    prime is invertible.
    """
    if not ring_b.commutative:
        raise ValueError("codomain must be commutative")
    if ident.mode == COMMUTATIVE and not ring_a.commutative:
        raise ValueError("commutative-mode identity needs a commutative domain")
    if h.domain is not ring_a or h.codomain is not ring_b:
        raise ValueError("map endpoints do not match the given rings")
    m = ring_b.modulus
    if ring_a.modulus != m:
        raise ValueError("domain and codomain must share a modulus")
    for p in sorted(ident.denominators):
        if np.gcd(p, m) != 1:
            raise ValueError(f"denominator prime {p} is not invertible modulo {m}")

    variables = sorted(set(ident.lhs.variables()) | set(ident.rhs.variables()))
    space = ring_a.size ** len(variables)
    blocks, exhaustive = ring_a.assignments(len(variables), max_assignments, sample_seed)
    lhs_tree, rhs_tree = _prefix_tree(ident.lhs, m), _prefix_tree(ident.rhs, m)
    # Each summand is a residue times a residue, at most (m - 1)^2, or a
    # product, at most m - 1, and a reduced sum is at most m - 1: this many
    # summands stay under 2^63 between two reductions.  The ring's int64
    # guard makes it at least 1.
    per_reduction = (2 ** 63 - m) // (m - 1) ** 2

    def combination(ring: FiniteRing, tree: dict, values: dict, count: int) -> np.ndarray:
        """sum of c_x * x + x * (its subtree's combination) over the letters x of a tree, reduced mod m."""

        def summands():
            for v, (coeff, below) in tree.items():
                if coeff:
                    yield coeff * values[v]
                if below:
                    yield ring.mul_batch(values[v], combination(ring, below, values, count))

        total = np.zeros((count, ring.dim), dtype=np.int64, order="F")
        for t, summand in enumerate(summands(), 1):
            total += summand
            if t % per_reduction == 0:
                np.fmod(total, m, out=total)
        # the sum is nonnegative, where fmod agrees with %
        return np.fmod(total, m, out=total)

    def mismatch(cols: list[np.ndarray], _start: int) -> np.ndarray:
        assign = dict(zip(variables, cols))
        count = cols[0].shape[0] if cols else 1
        himg = {v: h.apply_batch(vecs) for v, vecs in assign.items()}
        rhs = combination(ring_b, rhs_tree, himg, count)
        del himg  # so that the images do not sit beside the left side's products
        # h is Z_m-linear: sum the left side in the domain and apply h once
        return (h.apply_batch(combination(ring_a, lhs_tree, assign, count)) != rhs).any(axis=1)

    checked, witness = check_blocks(blocks, mismatch)
    named = None if witness is None else dict(zip(map(var_name, variables), witness))
    return EvalReport(witness is None, checked, space, exhaustive, named)
