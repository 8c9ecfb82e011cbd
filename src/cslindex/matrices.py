"""Exact dense matrices over arbitrary-precision integers and rationals.

Everything here is pure and immutable; no floating point is ever used.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction


def _exact_int(x) -> int:
    """x as an int, as operator.index reads it; a float, Fraction or str is a
    ValueError that names it, where int() would truncate or parse it."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"expected an integer, got {x!r}") from None


@dataclass(frozen=True)
class IntMatrix:
    """Row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(map(_exact_int, [x for r in rows for x in r])))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns(self) -> list[tuple[int, ...]]:
        return [self.entries[j :: self.cols] for j in range(self.cols)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    cols = b.columns()
    out = []
    for i in range(a.rows):
        ra = a.row(i)
        out.extend(sum(map(operator.mul, ra, cb)) for cb in cols)
    return IntMatrix(a.rows, b.cols, tuple(out))


def _lowest_terms(numerator: IntMatrix, denominator: int) -> tuple[IntMatrix, int]:
    """numerator / denominator in lowest terms, with a positive denominator.

    Both are divided by g = gcd(denominator, entries), negated when the
    denominator is negative; a zero numerator gets denominator 1.
    """
    if denominator == 0:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(denominator, *numerator.entries)
    if denominator < 0:
        g = -g
    if g != 1:
        numerator = IntMatrix(
            numerator.rows, numerator.cols, tuple(e // g for e in numerator.entries)
        )
        denominator //= g
    return numerator, denominator


@dataclass(frozen=True)
class RatMatrix:
    """(1/denominator) * numerator with denominator > 0, in lowest terms."""

    numerator: IntMatrix
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.denominator, *self.numerator.entries) != 1:
            raise ValueError("RatMatrix not in canonical form; use RatMatrix.make")

    @classmethod
    def make(cls, numerator: IntMatrix, denominator: int) -> "RatMatrix":
        return cls(*_lowest_terms(numerator, denominator))

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.numerator.at(i, j), self.denominator)


# --- text format -----------------------------------------------------------
#
# First line: "rows cols".  Then one line per row of whitespace-separated
# tokens; integer tokens for IntMatrix.  A RatMatrix token is read as Fraction
# reads a string on Python 3.13, on every Python: an optional sign, digits with
# single underscores between them, then "/q", or an optional ".digits" (the
# digits on one side of the point may be left out) and an optional exponent
# "e±digits" or "E±digits".  \d matches the Unicode digits int() reads.
_RUN = r"\d+(?:_\d+)*"
# groups: p with its sign (no digits only before ".digits"), q, digits after the point, exponent
_ENTRY = re.compile(rf"([-+]?(?:{_RUN}|(?=\.\d)))(?:/({_RUN})|(?:\.({_RUN})?)?(?:[eE]([-+]?{_RUN}))?)")
# an exponent past Python's default limit on digits for int to str is an input error ("1e1000000")
_MAX_EXPONENT = 4300
# the longest token an error text echoes
_MAX_ECHOED_TOKEN = 64
_INTEGER = re.compile(rf"[-+]?{_RUN}")


def format_int_matrix(a: IntMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    lines.extend(" ".join(str(x) for x in a.row(i)) for i in range(a.rows))
    return "\n".join(lines) + "\n"


def _parse_header_and_tokens(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("first line must be 'rows cols'")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError("first line must be 'rows cols'") from exc
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows of entries, got {len(lines) - 1}")
    body = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise ValueError(f"expected {cols} entries per row, got {len(toks)}")
        body.append(toks)
    return body


def _past_digit_limit(token: str) -> ValueError:
    """The error for a well-formed entry that int() rejects, which it does only for
    a digit run past its limit on digits for int from str; int() words that limit
    differently across Pythons, this text does not."""
    digits = max(len(run) - run.count("_") for run in re.findall(_RUN, token))
    limit = sys.get_int_max_str_digits()
    return ValueError(f"an entry of {digits} digits is past the limit of {limit} digits for int from str")


def _int_entry(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        if _INTEGER.fullmatch(token):
            raise _past_digit_limit(token) from None
        raise


def parse_int_matrix(text: str) -> IntMatrix:
    body = _parse_header_and_tokens(text)
    try:
        try:
            entries = [[int(t) for t in row] for row in body]
        except ValueError:  # again through _int_entry, for the parser's own text past the limit on digits
            entries = [[_int_entry(t) for t in row] for row in body]
        return IntMatrix.from_rows(entries)
    except ValueError as exc:
        raise ValueError(f"bad integer matrix: {exc}") from exc


def _ratio(token: str) -> tuple[int, int]:
    """(p, d) with token = p/d and d > 0, not necessarily in lowest terms.

    _ENTRY alone decides which tokens parse.  An exponent beyond _MAX_EXPONENT
    in absolute value is rejected before its power is made; every other
    rejection, p/0 too, is an invalid token, quoted up to _MAX_ECHOED_TOKEN characters.
    """
    m = _ENTRY.fullmatch(token)
    if m:
        p, q, point, exp = m.groups()
        try:
            if point is None and exp is None:
                if d := int(q or 1):
                    return int(p), d
            else:
                p, d = int(p.lstrip("+-") or 0), 1
                if point:
                    d = 10 ** len(point.replace("_", ""))
                    p = p * d + int(point)
        except ValueError:  # the token matched _ENTRY, so a digit run is past int()'s limit
            raise _past_digit_limit(token) from None
        if exp:
            digits = exp.lstrip("+-").replace("_", "")
            # a nonzero digit before the last four (of any script, so not lstrip("0")) is >= 10^4
            if any(map(int, digits[:-4])) or int(digits[-4:]) > _MAX_EXPONENT:
                raise ValueError(f"exponent beyond {_MAX_EXPONENT} in absolute value")
            scale = 10 ** int(digits[-4:])
            p, d = (p, d * scale) if exp[0] == "-" else (p * scale, d)
        if d:  # 0 only for p/0
            return (-p if token[0] == "-" else p), d
    if len(token) > _MAX_ECHOED_TOKEN:
        raise ValueError(f"invalid token of {len(token)} characters")
    raise ValueError(f"invalid token {token!r}")


def parse_rat_matrix(text: str) -> RatMatrix:
    body = _parse_header_and_tokens(text)
    try:
        ratios = [[_ratio(t) for t in row] for row in body]
        den = math.lcm(*(d for row in ratios for _, d in row))
        num = IntMatrix.from_rows([[p * (den // d) for p, d in row] for row in ratios])
        return RatMatrix.make(num, den)
    except ValueError as exc:
        raise ValueError(f"bad rational matrix: {exc}") from exc


def format_rat_matrix(m: RatMatrix) -> str:
    lines = [f"{m.numerator.rows} {m.numerator.cols}"]
    for i in range(m.numerator.rows):
        toks = []
        for j in range(m.numerator.cols):
            f = m.entry(i, j)
            toks.append(str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"
