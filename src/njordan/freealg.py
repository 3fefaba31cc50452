"""Exact polynomials over a free set of noncommuting or commuting variables.

A word is a tuple of variable ids.  In noncommutative mode ("nc") words
multiply by concatenation; in commutative mode ("c") every word is kept
sorted, so a word doubles as an exponent multiset.  Coefficients are exact
rationals, stored as int when integral and as Fraction otherwise, and zero
coefficients are never stored, which makes the term tuple a canonical form:
two polynomials are equal iff their representations are equal, and terms
always sit in graded lexicographic order (shorter words first, then id-by-id
comparison).

The variable alphabet is fixed.  Ids 0..7 display as x, y, z, w, t, a, b, c
and every later id displays as v0, v1, ...  Expressions round-trip through
``parse_expr`` / ``to_string``; the same grammar with ``H(<var>)`` heads is
used for polynomials in the image symbols of an additive map.

``read_int`` is the one reader of an integer in any other outside text:
ring specs, options, ``GF(p)``, ``v<digits>`` names and certificate JSON.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from math import prod
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
    """Id for a display name; ValueError for any name the grammar does not accept."""
    if name in ALPHABET:
        return ALPHABET.index(name)
    if re.fullmatch("v[0-9]+", name):
        return len(ALPHABET) + read_int(name[1:])
    raise ValueError(f"unknown variable name {quote(name)}")


def check_expansion(letters: int) -> None:
    if letters > EXPANSION_CAP:
        raise GuardError(f"expansion exceeds the cap of {EXPANSION_CAP} letters")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _canonical(c) -> int | Fraction:
    """c as an int when integral, else as a Fraction; other numbers convert through Fraction."""
    f = c if type(c) in (int, Fraction) else Fraction(c)
    return f.numerator if f.denominator == 1 else f


def grlex_key(word: Word) -> tuple[int, Word]:
    """Sort key implementing graded lexicographic order."""
    return (len(word), word)


@dataclass(frozen=True)
class FreePoly:
    """Canonical sparse polynomial: sorted tuple of (word, coefficient)."""

    mode: str
    terms: tuple[tuple[Word, int | Fraction], ...]  # exact rationals, stored as int when integral

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Word, int | Fraction]], mode: str) -> FreePoly:
        """Build the canonical polynomial from any iterable of term pairs.

        This is the one place where terms merge.  Pairs are consumed one at a
        time, and GuardError is raised as soon as the terms kept so far hold
        more than EXPANSION_CAP letters.
        """
        _check_mode(mode)
        acc: dict[Word, int | Fraction] = {}
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
                check_expansion(letters)
                acc[w] = _canonical(coeff)
        ordered = tuple(sorted(acc.items(), key=lambda t: grlex_key(t[0])))
        return FreePoly(mode, ordered)

    @staticmethod
    def zero(mode: str) -> FreePoly:
        return FreePoly.from_terms((), mode)

    @staticmethod
    def one(mode: str) -> FreePoly:
        return FreePoly.from_terms([((), 1)], mode)

    @staticmethod
    def variable(vid: int, mode: str) -> FreePoly:
        return FreePoly.from_terms([((vid,), 1)], mode)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word: Word) -> int | Fraction:
        w = tuple(sorted(word)) if self.mode == COMMUTATIVE else tuple(word)
        for tw, tc in self.terms:
            if tw == w:
                return tc
        return 0

    def variables(self) -> tuple[int, ...]:
        """Sorted ids occurring in any word."""
        return tuple(sorted({vid for w, _ in self.terms for vid in w}))

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

    def scale(self, factor: int | Fraction) -> FreePoly:
        f = _canonical(factor)
        return FreePoly.from_terms(((w, c * f) for w, c in self.terms), self.mode)

    def __mul__(self, other: FreePoly | int | Fraction) -> FreePoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_mode(other)
        check_expansion(len(self.terms) * len(other.terms) * max(self.degree() + other.degree(), 1))
        return FreePoly.from_terms(
            ((wa + wb, ca * cb) for wa, ca in self.terms for wb, cb in other.terms), self.mode
        )

    def __rmul__(self, other: int | Fraction) -> FreePoly:
        return self.scale(other)

    def __pow__(self, n: int) -> FreePoly:
        if n < 0:
            raise ValueError("negative power")
        # each word of the result has n * degree letters; bounding that first
        # keeps len(terms) ** n small enough to compute
        check_expansion(n * max(self.degree(), 1))
        check_expansion(len(self.terms) ** n * max(n * self.degree(), 1))
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

    def expanded(word: Word, coeff: int | Fraction) -> Iterator[tuple[Word, int | Fraction]]:
        factors = [subst[vid].terms if vid in subst else (((vid,), 1),) for vid in word]
        check_expansion(prod(map(len, factors)) * len(word))
        for picks in product(*factors):
            yield tuple(v for (v,), _ in picks), prod((c for _, c in picks), start=coeff)

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
# '*' is mandatory between factors; juxtaposed names do not parse.  Integers,
# names and blanks are ASCII; any other character is a ParseError, and so is an
# integer or name longer than digit_limit(): INT tokens are what read_int accepts.

_TOKEN = re.compile(r"(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)|(?P<OP>[-+*/^()=])|[ \t\n]+|(?P<BAD>.)", re.S)


def digit_limit() -> int | None:
    """Most characters of an integer or name in outside text: int()'s digit limit, 4,300 by default; None when off."""
    return sys.get_int_max_str_digits() or None


def quote(text: str) -> str:
    """repr of untrusted text for an error message, cut to its first 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def read_int(text: str) -> int:
    """The integer spelled by untrusted text: exactly an optional '-' and ASCII digits, within digit_limit().

    Anything else is a ValueError that quotes the text through quote().
    """
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"expected an integer (an optional '-' and ASCII digits), got {quote(text)}")
    if (limit := digit_limit()) and len(text.lstrip("-")) > limit:
        raise ValueError(f"integer longer than {limit} digits: {quote(text)}")
    return int(text)


class _Parser:
    def __init__(self, text: str, mode: str, h_heads: bool):
        self.tokens = []
        limit = digit_limit() or len(text)
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "BAD":
                raise ParseError(f"unexpected character {m[0]!r}", m.start())
            if m.lastgroup in ("INT", "NAME") and len(m[0]) > limit:
                what = "integer" if m.lastgroup == "INT" else "name"
                raise ParseError(f"{what} longer than {limit} characters", m.start())
            if m.lastgroup:
                self.tokens.append((m.lastgroup, m[0], m.start()))
        self.tokens.append(("END", "", len(text)))
        self.pos = 0
        self.mode = mode
        self.h_heads = h_heads
        self.depth = 0

    def accept(self, ops: str) -> str | None:
        """Take the next token and return it if it is one of the operators ops."""
        kind, val, _ = self.tokens[self.pos]
        if kind == "OP" and val in ops:
            self.pos += 1
            return val
        return None

    def take(self, kind: str, what: str, value: str | None = None) -> tuple[str, int]:
        """The next token's text and offset, or ParseError("expected " + what)."""
        k, val, at = self.tokens[self.pos]
        if k != kind or (value is not None and val != value):
            raise ParseError(f"expected {what}", at)
        self.pos += 1
        return val, at

    def parse_expr(self) -> FreePoly:
        return FreePoly.from_terms(self._signed_terms(), self.mode)

    def _signed_terms(self) -> Iterator[tuple[Word, int | Fraction]]:
        """The terms of each summand in turn, each summand parsed only when needed."""
        sign = self.accept("+-") or "+"
        while sign:
            term = self.parse_term()
            yield from (-term if sign == "-" else term).terms
            sign = self.accept("+-")

    def parse_term(self) -> FreePoly:
        if self.tokens[self.pos][0] != "INT":
            return self.parse_factors()
        num = int(self.take("INT", "integer")[0])
        den = 1
        if self.accept("/"):
            text, at = self.take("INT", "integer denominator")
            den = int(text)
            if den == 0:
                raise ParseError("zero denominator", at)
        coeff = Fraction(num, den)
        if self.accept("*"):
            return self.parse_factors().scale(coeff)
        kind, val, at = self.tokens[self.pos]
        if kind == "NAME" or val == "(":
            raise ParseError("missing '*' after coefficient", at)
        return FreePoly.from_terms([((), coeff)], self.mode)

    def parse_factors(self) -> FreePoly:
        poly = self.parse_factor()
        while self.accept("*"):
            poly = poly * self.parse_factor()
        return poly

    def parse_factor(self) -> FreePoly:
        base = self.parse_primary()
        return base ** int(self.take("INT", "integer exponent")[0]) if self.accept("^") else base

    def parse_primary(self) -> FreePoly:
        if self.accept("("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise GuardError(f"parentheses nest deeper than {MAX_DEPTH}")
            inner = self.parse_expr()
            self.take("OP", "')'", ")")
            self.depth -= 1
            return inner
        name, at = self.take("NAME", "a variable or parenthesized expression")
        if self.h_heads:
            if name != "H":
                raise ParseError(f"expected H(<var>), got {name!r}", at)
            self.take("OP", "'('", "(")
            name, at = self.take("NAME", "variable name")
        try:
            vid = var_id(name)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None
        if self.h_heads:
            self.take("OP", "')'", ")")
        return FreePoly.variable(vid, self.mode)


def parse_expr(text: str, mode: str, h_heads: bool = False) -> FreePoly:
    """Parse an expression in the fixed grammar into a canonical FreePoly."""
    _check_mode(mode)
    parser = _Parser(text, mode, h_heads)
    poly = parser.parse_expr()
    kind, _, at = parser.tokens[parser.pos]
    if kind != "END":
        raise ParseError("trailing input", at)
    return poly


def _word_str(word: Word, h_heads: bool) -> str:
    if not word:
        return "1"
    parts = []
    for vid, run in groupby(word):
        name = f"H({var_name(vid)})" if h_heads else var_name(vid)
        count = len(list(run))
        parts.append(name if count == 1 else f"{name}^{count}")
    return "*".join(parts)


def to_string(p: FreePoly, h_heads: bool = False) -> str:
    """Canonical rendering; parse_expr inverts it exactly."""
    if p.is_zero():
        return "0"
    chunks = []
    for idx, (word, coeff) in enumerate(p.terms):
        neg, mag = coeff < 0, abs(coeff)
        ws = _word_str(word, h_heads)
        if not word:
            body = str(mag)
        elif mag == 1:
            body = ws
        else:
            body = f"{mag}*{ws}"
        if idx == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(chunks)
