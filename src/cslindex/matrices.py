"""Exact dense matrices over arbitrary-precision integers and rationals.

Everything here is pure and immutable; no floating point is ever used.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction


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
        return cls(len(rows), ncols, tuple(int(x) for r in rows for x in r))

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
# tokens; integer tokens for IntMatrix.  A RatMatrix token is an integer or
# "p/q", or any other string that Fraction accepts (decimals, exponents,
# and on Python 3.11+ underscores between digits).

# integer or p/q with unsigned q; \d matches the Unicode digits int() reads
_RATIO_TOKEN = re.compile(r"([-+]?\d+)(?:/(\d+))?")
# Fraction reads exponents, so the 9 characters "1e1000000" stand for a million digits;
# an exponent past Python's default limit on digits for int to str is an input error
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\Z")
# the longest token an error text echoes
_MAX_ECHOED_TOKEN = 64


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


def parse_int_matrix(text: str) -> IntMatrix:
    body = _parse_header_and_tokens(text)
    try:
        return IntMatrix.from_rows([[int(t) for t in row] for row in body])
    except ValueError as exc:
        raise ValueError(f"bad integer matrix: {exc}") from exc


def _ratio(token: str) -> tuple[int, int]:
    """(p, d) with token = p/d and d > 0, not necessarily in lowest terms.

    Integers and p/q go straight to int(); every other token, and p/0, goes
    through Fraction, which accepts the same p and q and gives every error
    but one: an exponent beyond _MAX_EXPONENT in absolute value is rejected
    first, without converting its digits.  Fraction's error texts echo the
    token, so for a token longer than _MAX_ECHOED_TOKEN characters the error
    names its length instead.
    """
    m = _RATIO_TOKEN.fullmatch(token)
    if m:
        p, d = m.groups()
        p = int(p)
        d = 1 if d is None else int(d)
        if d:
            return p, d
    exp = _EXPONENT.search(token)
    if exp:
        digits = exp[1].replace("_", "")
        # a nonzero digit before the last four (of any script, so not lstrip("0")) is >= 10^4
        if any(map(int, digits[:-4])) or int(digits[-4:]) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in absolute value")
    try:
        f = Fraction(token)
    except (ValueError, ZeroDivisionError):
        if len(token) <= _MAX_ECHOED_TOKEN:
            raise
        raise ValueError(f"invalid token of {len(token)} characters") from None
    return f.numerator, f.denominator


def parse_rat_matrix(text: str) -> RatMatrix:
    body = _parse_header_and_tokens(text)
    try:
        ratios = [[_ratio(t) for t in row] for row in body]
        den = math.lcm(*(d for row in ratios for _, d in row))
        num = IntMatrix.from_rows([[p * (den // d) for p, d in row] for row in ratios])
        return RatMatrix.make(num, den)
    except (ValueError, ZeroDivisionError) as exc:
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
