"""Exact arithmetic shared by the identity calculus and the finite models.

prime_factors is the one primality routine: n is prime exactly when
prime_factors(n) == {n}.  residue is the one map from the rationals into
Z_m.  eliminate is the one exact row reduction, over the rationals or over
GF(p), used for span membership of seed instances and for the nilpotency
index of a finite ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Hashable, Iterable, Mapping


def prime_factors(n: int) -> frozenset[int]:
    """Set of prime factors of |n|; empty for 0 and 1."""
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def residue(c: Fraction | int, m: int) -> int:
    """The image of the rational c in Z_m; ValueError when its denominator is not a unit mod m."""
    if gcd(c.denominator, m) != 1:
        raise ValueError(f"coefficient {c} is not defined modulo {m}")
    return c.numerator * pow(c.denominator, -1, m) % m


def eliminate(
    vectors: Iterable[Mapping[Hashable, Fraction | int]],
    target: Mapping[Hashable, Fraction | int],
    p: int | None,
) -> tuple[list[int], dict[int, Fraction | int] | None, dict]:
    """Row reduction with combination tracking over Q (p=None) or GF(p).

    Vectors are sparse maps from coordinates to rational coefficients; over
    GF(p) they are reduced mod p first.  Coordinates must be mutually
    comparable, and each pivot is the smallest coordinate of its row.
    Returns (independent, combo or None, residual).  ``independent`` lists
    the indices of the vectors that are not combinations of earlier ones,
    so its length is the rank.  combo maps vector index to coefficient when
    the target lies in the span; residual is the reduced remainder
    otherwise.
    """
    if p is None:
        zero = Fraction(0)
        field = dict

        def reduce(c):
            return c

        def inverse(c):
            return Fraction(1) / c
    else:
        zero = 0

        def field(vec):
            return {k: r for k, c in vec.items() if (r := residue(c, p))}

        def reduce(c):
            return c % p

        def inverse(c):
            return pow(c, -1, p)

    def axpy(vec, factor, basis):
        """vec -= factor * basis in place, dropping the coordinates that vanish."""
        for k, val in basis.items():
            nv = reduce(vec.get(k, zero) - factor * val)
            if nv:
                vec[k] = nv
            elif k in vec:
                del vec[k]

    rows: list[tuple[Hashable, dict, dict]] = []

    def sweep(vec, combo):
        for pivot, basis, bc in rows:
            if pivot in vec:
                f = vec[pivot]
                axpy(vec, f, basis)
                axpy(combo, f, bc)

    t = field(target)
    independent: list[int] = []
    for idx, vec in enumerate(vectors):
        v = field(vec)
        combo = {idx: 1}
        sweep(v, combo)
        if v:
            pivot = min(v)
            f_inv = inverse(v[pivot])
            rows.append((pivot, {k: reduce(c * f_inv) for k, c in v.items()},
                         {k: reduce(c * f_inv) for k, c in combo.items()}))
            independent.append(idx)
    # t = target - sum(f * row), so the target's combination is -tc
    tc: dict[int, Fraction | int] = {}
    sweep(t, tc)
    if t:
        return independent, None, t
    return independent, {k: reduce(-c) for k, c in tc.items()}, {}
