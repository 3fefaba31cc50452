"""Exact polynomials over a free set of noncommuting or commuting variables.

A word is a tuple of variable ids.  In noncommutative mode ("nc") words
multiply by concatenation; in commutative mode ("c") every word is kept
sorted, so a word doubles as an exponent multiset.  Coefficients are exact
Fractions and zero coefficients are never stored, which makes the term tuple
a canonical form: two polynomials are equal iff their representations are
equal, and terms always sit in graded lexicographic order (shorter words
first, then id-by-id comparison).

The variable alphabet is fixed.  Ids 0..7 display as x, y, z, w, t, a, b, c
and every later id displays as v0, v1, ...  Expressions round-trip through
``parse_expr`` / ``to_string``; the same grammar with ``H(<var>)`` heads is
used for polynomials in the image symbols of an additive map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from operator import mul
from typing import Iterable, Iterator, Mapping

from .errors import GuardError

NONCOMMUTATIVE = "nc"
COMMUTATIVE = "c"
MODES = (NONCOMMUTATIVE, COMMUTATIVE)

ALPHABET = ("x", "y", "z", "w", "t", "a", "b", "c")

Word = tuple[int, ...]

# Most letters (words times word length, a constant counting as one letter)
# that one polynomial may hold, sums included (enforced in FreePoly.from_terms).
EXPANSION_CAP = 10 ** 6
# Deepest parenthesis nesting parse_expr accepts: each level is a few Python
# frames, so untrusted text nested past it would exhaust the interpreter's stack.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or name error, with the character offset that triggered it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def var_name(vid: int) -> str:
    """Display name for a variable id."""
    if vid < 0:
        raise ValueError(f"negative variable id {vid}")
    if vid < len(ALPHABET):
        return ALPHABET[vid]
    return f"v{vid - len(ALPHABET)}"


def var_id(name: str) -> int:
    """Id for a display name; raises KeyError for unknown names."""
    if name in ALPHABET:
        return ALPHABET.index(name)
    if len(name) > 1 and name[0] == "v" and name[1:].isdigit():
        return len(ALPHABET) + int(name[1:])
    raise KeyError(name)


def _check_expansion(letters: int) -> None:
    if letters > EXPANSION_CAP:
        raise GuardError(f"expansion exceeds the cap of {EXPANSION_CAP} letters")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def grlex_key(word: Word) -> tuple[int, Word]:
    """Sort key implementing graded lexicographic order."""
    return (len(word), word)


@dataclass(frozen=True)
class FreePoly:
    """Canonical sparse polynomial: sorted tuple of (word, coefficient)."""

    mode: str
    terms: tuple[tuple[Word, Fraction], ...]

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Word, Fraction | int]], mode: str) -> FreePoly:
        """Build the canonical polynomial from any iterable of term pairs.

        This is the one place where terms merge.  Pairs are consumed one at a
        time, and GuardError is raised as soon as the terms kept so far hold
        more than EXPANSION_CAP letters.
        """
        _check_mode(mode)
        acc: dict[Word, Fraction] = {}
        letters = 0
        for word, coeff in pairs:
            w = tuple(word)
            if w and min(w) < 0:
                raise ValueError(f"bad word {w}")
            if mode == COMMUTATIVE:
                w = tuple(sorted(w))
            old = acc.pop(w, None)
            if old is not None:
                letters -= max(len(w), 1)
                coeff += old
            if coeff:
                letters += max(len(w), 1)
                _check_expansion(letters)
                acc[w] = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        ordered = tuple(sorted(acc.items(), key=lambda t: grlex_key(t[0])))
        return FreePoly(mode, ordered)

    @staticmethod
    def zero(mode: str) -> FreePoly:
        _check_mode(mode)
        return FreePoly(mode, ())

    @staticmethod
    def one(mode: str) -> FreePoly:
        return FreePoly.from_terms([((), 1)], mode)

    @staticmethod
    def variable(vid: int, mode: str) -> FreePoly:
        return FreePoly.from_terms([((vid,), 1)], mode)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word: Word) -> Fraction:
        w = tuple(sorted(word)) if self.mode == COMMUTATIVE else tuple(word)
        for tw, tc in self.terms:
            if tw == w:
                return tc
        return Fraction(0)

    def variables(self) -> tuple[int, ...]:
        """Sorted ids occurring in any word."""
        seen: set[int] = set()
        for w, _ in self.terms:
            seen.update(w)
        return tuple(sorted(seen))

    def degree(self) -> int:
        """Largest word length; 0 for the zero polynomial."""
        return max((len(w) for w, _ in self.terms), default=0)

    def word_lengths(self) -> set[int]:
        return {len(w) for w, _ in self.terms}

    def _require_same_mode(self, other: FreePoly) -> None:
        if self.mode != other.mode:
            raise ValueError(f"mode mismatch: {self.mode} vs {other.mode}")

    def __add__(self, other: FreePoly) -> FreePoly:
        self._require_same_mode(other)
        return FreePoly.from_terms(list(self.terms) + list(other.terms), self.mode)

    def __sub__(self, other: FreePoly) -> FreePoly:
        return self + (-other)

    def __neg__(self) -> FreePoly:
        return FreePoly(self.mode, tuple((w, -c) for w, c in self.terms))

    def scale(self, factor: Fraction | int) -> FreePoly:
        f = Fraction(factor)
        if f == 0:
            return FreePoly.zero(self.mode)
        return FreePoly(self.mode, tuple((w, c * f) for w, c in self.terms))

    def __mul__(self, other: FreePoly | Fraction | int) -> FreePoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_mode(other)
        _check_expansion(len(self.terms) * len(other.terms) * max(self.degree() + other.degree(), 1))
        return FreePoly.from_terms(
            ((wa + wb, ca * cb) for wa, ca in self.terms for wb, cb in other.terms), self.mode
        )

    def __rmul__(self, other: Fraction | int) -> FreePoly:
        return self.scale(other)

    def __pow__(self, n: int) -> FreePoly:
        if n < 0:
            raise ValueError("negative power")
        # each word of the result has n * degree letters; bounding that first
        # keeps len(terms) ** n small enough to compute
        _check_expansion(n * max(self.degree(), 1))
        _check_expansion(len(self.terms) ** n * max(n * self.degree(), 1))
        out, base = FreePoly.one(self.mode), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self) -> str:
        return to_string(self)


def abelianize(p: FreePoly) -> FreePoly:
    """Image of p in the commutative algebra (words become multisets)."""
    return FreePoly.from_terms(p.terms, COMMUTATIVE)


def linear_form(coeffs: Mapping[int, int], mode: str) -> FreePoly:
    """Integer combination of variables, e.g. {0: 1, 2: -1} for x - z."""
    return FreePoly.from_terms([((v,), c) for v, c in coeffs.items()], mode)


def substitute_linear(p: FreePoly, subst: Mapping[int, FreePoly]) -> FreePoly:
    """Replace variables by integer-linear forms and expand exactly.

    Only substitutions of this shape are meaningful for arguments of an
    additive map, so anything with a constant term, a longer word, or a
    fractional coefficient is rejected.  Variables absent from ``subst``
    are left alone.  A word whose expansion could exceed EXPANSION_CAP
    letters raises GuardError before it is built.
    """
    for vid, img in subst.items():
        if img.mode != p.mode:
            raise ValueError(f"substitution image for {var_name(vid)} has mode {img.mode}, expected {p.mode}")
        if not all(len(w) == 1 and c.denominator == 1 for w, c in img.terms):
            raise ValueError(f"substitution image for {var_name(vid)} is not integer-linear: {img}")

    def expanded(word: Word, coeff: Fraction) -> tuple[tuple[Word, Fraction], ...]:
        factors = [subst[vid] if vid in subst else FreePoly.variable(vid, p.mode) for vid in word]
        _check_expansion(prod(len(f.terms) for f in factors) * len(word))
        return reduce(mul, factors, FreePoly.from_terms([((), coeff)], p.mode)).terms

    return FreePoly.from_terms((t for word, coeff in p.terms for t in expanded(word, coeff)), p.mode)


# --- expression grammar -----------------------------------------------------
#
#   expr    := ['+'|'-'] term (('+'|'-') term)*
#   term    := coeff ['*' factors] | factors
#   coeff   := integer ['/' integer]
#   factors := factor ('*' factor)*
#   factor  := primary ['^' integer]
#   primary := var | 'H' '(' var ')' | '(' expr ')'
#
# '*' is mandatory between factors; juxtaposed names do not parse.

_TOKEN_OPS = set("+-*/^()=")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in _TOKEN_OPS:
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], mode: str, h_heads: bool):
        self.tokens = tokens
        self.pos = 0
        self.mode = mode
        self.h_heads = h_heads
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        kind, val, at = self.take()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse_expr(self) -> FreePoly:
        return FreePoly.from_terms(self._signed_terms(), self.mode)

    def _signed_terms(self) -> Iterator[tuple[Word, Fraction]]:
        """The terms of each summand in turn, each summand parsed only when needed."""
        kind, val, _ = self.peek()
        negate = kind == "OP" and val == "-"
        if kind == "OP" and val in "+-":
            self.take()
        while True:
            term = self.parse_term()
            yield from (-term if negate else term).terms
            kind, val, _ = self.peek()
            if not (kind == "OP" and val in "+-"):
                return
            self.take()
            negate = val == "-"

    def parse_term(self) -> FreePoly:
        kind, val, at = self.peek()
        coeff = Fraction(1)
        have_coeff = False
        if kind == "INT":
            self.take()
            num = int(val)
            den = 1
            k2, v2, _ = self.peek()
            if k2 == "OP" and v2 == "/":
                self.take()
                k3, v3, a3 = self.take()
                if k3 != "INT":
                    raise ParseError("expected integer denominator", a3)
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator", a3)
            coeff = Fraction(num, den)
            have_coeff = True
            kind, val, at = self.peek()
            if kind == "OP" and val == "*":
                self.take()
                kind, val, at = self.peek()
            elif kind == "NAME" or (kind == "OP" and val == "("):
                raise ParseError("missing '*' after coefficient", at)
            else:
                return FreePoly.from_terms([((), coeff)], self.mode)
        poly = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                self.take()
                poly = poly * self.parse_factor()
            else:
                break
        return poly.scale(coeff) if have_coeff else poly

    def parse_factor(self) -> FreePoly:
        base = self.parse_primary()
        kind, val, _ = self.peek()
        if kind == "OP" and val == "^":
            self.take()
            k2, v2, a2 = self.take()
            if k2 != "INT":
                raise ParseError("expected integer exponent", a2)
            return base ** int(v2)
        return base

    def parse_primary(self) -> FreePoly:
        kind, val, at = self.take()
        if kind == "OP" and val == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise GuardError(f"parentheses nest deeper than {MAX_DEPTH}")
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind != "NAME":
            raise ParseError("expected a variable, number, or parenthesized expression", at)
        if self.h_heads:
            if val != "H":
                raise ParseError(f"expected H(<var>), got {val!r}", at)
            self.expect("(")
            kind, val, at = self.take()
            if kind != "NAME":
                raise ParseError("expected variable name", at)
        try:
            vid = var_id(val)
        except KeyError:
            raise ParseError(f"unknown variable name {val!r}", at) from None
        if self.h_heads:
            self.expect(")")
        return FreePoly.variable(vid, self.mode)


def parse_expr(text: str, mode: str, h_heads: bool = False) -> FreePoly:
    """Parse an expression in the fixed grammar into a canonical FreePoly."""
    _check_mode(mode)
    parser = _Parser(_tokenize(text), mode, h_heads)
    poly = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "END":
        raise ParseError("trailing input", at)
    return poly


def _word_str(word: Word, h_heads: bool) -> str:
    if not word:
        return "1"
    runs: list[tuple[int, int]] = []
    for vid in word:
        if runs and runs[-1][0] == vid:
            runs[-1] = (vid, runs[-1][1] + 1)
        else:
            runs.append((vid, 1))
    parts = []
    for vid, count in runs:
        name = f"H({var_name(vid)})" if h_heads else var_name(vid)
        parts.append(name if count == 1 else f"{name}^{count}")
    return "*".join(parts)


def _coeff_str(mag: Fraction) -> str:
    if mag.denominator == 1:
        return str(mag.numerator)
    return f"{mag.numerator}/{mag.denominator}"


def to_string(p: FreePoly, h_heads: bool = False) -> str:
    """Canonical rendering; parse_expr inverts it exactly."""
    if p.is_zero():
        return "0"
    chunks = []
    for idx, (word, coeff) in enumerate(p.terms):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        ws = _word_str(word, h_heads)
        if not word:
            body = _coeff_str(mag)
        elif mag == 1:
            body = ws
        else:
            body = f"{_coeff_str(mag)}*{ws}"
        if idx == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(chunks)
