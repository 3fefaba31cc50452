"""Exact arithmetic shared by the identity calculus and the finite models.

prime_factors is the one primality routine: n is prime exactly when
prime_factors(n) == {n}.  eliminate is the one exact row reduction, over the
rationals or over GF(p), used for span membership of seed instances and for
the unit and the nilpotency index of a finite ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence


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


def eliminate(
    vectors: Sequence[Mapping[Hashable, Fraction | int]],
    target: Mapping[Hashable, Fraction | int],
    col_pos: Mapping[Hashable, int] | Sequence[int],
    p: int | None,
) -> tuple[list[int], dict[int, Fraction | int] | None, dict]:
    """Row reduction with combination tracking over Q (p=None) or GF(p).

    Vectors are sparse maps from coordinates to coefficients (reduced mod p
    over GF(p)); each pivot is the coordinate with the lowest
    ``col_pos[coordinate]`` (a range serves for integer coordinates).
    Returns (independent, combo or None, residual).  ``independent`` lists
    the indices of the vectors that are not combinations of earlier ones,
    so its length is the rank.  combo maps vector index to coefficient when
    the target lies in the span; residual is the reduced remainder
    otherwise.
    """
    zero = 0 if p else Fraction(0)
    one = 1 if p else Fraction(1)

    def sub_scaled(vec, factor, basis):
        for k, val in basis.items():
            nv = vec.get(k, zero) - factor * val
            if p:
                nv %= p
            if nv:
                vec[k] = nv
            elif k in vec:
                del vec[k]

    def inv(x):
        return pow(x, -1, p) if p else 1 / x

    rows: list[tuple[Hashable, dict, dict]] = []
    independent: list[int] = []
    for idx, vec in enumerate(vectors):
        v = dict(vec)
        combo = {idx: one}
        for pivot_coord, basis, bc in rows:
            if pivot_coord in v:
                f = v[pivot_coord]
                sub_scaled(v, f, basis)
                sub_scaled(combo, f, bc)
        if v:
            pivot_coord = min(v, key=col_pos.__getitem__)
            f_inv = inv(v[pivot_coord])
            v = {k: (val * f_inv % p if p else val * f_inv) for k, val in v.items()}
            combo = {k: (val * f_inv % p if p else val * f_inv) for k, val in combo.items()}
            rows.append((pivot_coord, v, combo))
            independent.append(idx)

    t = dict(target)
    tc: dict[int, Fraction | int] = {}
    for pivot_coord, basis, bc in rows:
        if pivot_coord in t:
            f = t[pivot_coord]
            sub_scaled(t, f, basis)
            for k, val in bc.items():
                nv = tc.get(k, zero) + f * val
                if p:
                    nv %= p
                if nv:
                    tc[k] = nv
                elif k in tc:
                    del tc[k]
    if t:
        return independent, None, t
    return independent, tc, {}
