"""Rational orthogonal matrices as coincidence isometries of Z^n.

A coincidence isometry of the hypercubic lattice is exactly a rational
orthogonal matrix Y, stored in the canonical form Y = (1/q) Z with Z
integral, gcd of the entries of Z equal to 1 and q > 0.

Every RationalIsometry decides Z^T Z = q^2 I exactly, by one of two routes.
A reflection has Z = qI - r v v^T with v primitive; that shape is found and
confirmed in O(n^2), and then Z^T Z = q^2 I is equivalent to r v^T v = 2q.
Every other matrix gets a Gram check with one packed integer per row
(Kronecker substitution).  `compose` multiplies any number of factors, each
reflection in O(n^2), and checks only the product: one check per product.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .matrices import IntMatrix, RatMatrix, _lowest_terms, mat_mul
from .normalform import _smith_diagonal_mod
from .rng import Lcg


# error texts print numbers up to this size (about 1,233 digits) in full and only their bit
# length above it: the library keeps Python's limit on digits for int to str, and printing
# an int takes time quadratic in its digits
_TEXT_BITS = 4096


def _text(x: int) -> str:
    """x in full up to _TEXT_BITS bits, else its bit length."""
    return str(x) if x.bit_length() <= _TEXT_BITS else f"an integer of {x.bit_length()} bits"


class NotOrthogonal(ValueError):
    """Raised when a matrix fails the exact orthogonality check Y^T Y = I."""


class CrossCheckFailed(RuntimeError):
    """Two internal computations of the same quantity disagree: a defect, not bad input."""


@dataclass(frozen=True)
class RationalIsometry:
    """Y = (1/q) z with z^T z == q^2 I and gcd of entries of z equal to 1."""

    q: int
    z: IntMatrix

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("q must be positive")
        if not self.z.is_square:
            raise ValueError("isometries must be square")
        rank_one = self._rank_one
        if rank_one is None or rank_one[1] * sum(x * x for x in rank_one[0]) != 2 * self.q:
            self._check_gram()
        # after the orthogonality check, so a matrix that is not orthogonal is reported as such
        if math.gcd(*self.z.entries) != 1:
            raise ValueError("entries of z must have gcd 1")

    @property
    def n(self) -> int:
        return self.z.rows

    @cached_property
    def _rank_one(self) -> tuple[tuple[int, ...], int] | None:
        """(v, r) with v primitive and qI - z == r v v^T, or None when z has no such shape.

        Then z^T z = q^2 I + (r v^T v - 2q)(qI - z), so z is orthogonal exactly
        when r v^T v == 2q, and z / q is the reflection along v.  With u the
        row k of qI - z that has p = u_k != 0, the shape means p (qI - z) = u u^T;
        then p divides gcd(u)^2 = c^2, v = u / c and r = c^2 / p = c / (p / c),
        since c divides p.
        """
        q, z = self.q, self.z
        k = next((i for i in range(self.n) if z.at(i, i) != q), None)
        if k is None:
            return None
        u = [-x for x in z.row(k)]
        u[k] += q
        c = math.gcd(*u)
        r, rem = divmod(c, u[k] // c)
        if rem:
            return None
        v = tuple(x // c for x in u)
        if _scaled_identity_minus_rank_one(q, r, v) != z.entries:
            return None
        return v, r

    def _check_gram(self) -> None:
        """Decide z^T z == q^2 I with one packed integer per row of z.

        Row k packs to P_k = sum_j z_kj 2^(js); column i of z then gives
        sum_k z_ki P_k = sum_j (z^T z)_ij 2^(js), which must equal q^2 2^(is).
        Every digit is below n max|z|^2 or q^2 in size, so with s two bits
        wider than both the balanced base-2^s digits are unique and the
        comparison is exact.  Z^T Z is symmetric and columns j < i passed, so
        a mismatch in column i lies at some j >= i: that pair is the first
        failure in row-major order over i <= j, and it is the one reported.
        The text gives the inner product g / q^2 in full while g and q^2 have
        at most _TEXT_BITS bits, and their bit lengths above that, since
        printing an int takes time quadratic in its digits.
        """
        n, z = self.n, self.z
        qsq = self.q * self.q
        s = max(n * max(map(abs, z.entries)) ** 2, qsq).bit_length() + 2
        shifts = range(0, n * s, s)
        packed = [sum(map(operator.lshift, z.row(k), shifts)) for k in range(n)]
        cols = z.columns()
        for i, ci in enumerate(cols):
            if sum(map(operator.mul, ci, packed)) == qsq << (i * s):
                continue
            for j in range(i, n):
                expected = qsq if i == j else 0
                got = sum(map(operator.mul, ci, cols[j]))
                if got != expected:
                    if max(got.bit_length(), qsq.bit_length()) <= _TEXT_BITS:
                        value = Fraction(got, qsq)
                    else:
                        value = f"g/q^2 (g has {got.bit_length()} bits, q has {self.q.bit_length()} bits)"
                    raise NotOrthogonal(
                        f"columns {i} and {j} have inner product {value}, expected {0 if i != j else 1}"
                    )

    def as_rational(self) -> RatMatrix:
        return RatMatrix(self.z, self.q)

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        """Smith diagonal of z, computed once and shared by the index formulas.

        d_i * d_{n+1-i} = q^2 with d_i | q for i <= m = floor(n/2) and q | d_i
        above.  Elimination mod q, without transforms, gives gcd(d_i, q): that
        is d_i for i <= m and q for every later i, which is checked.  The rest
        of the diagonal is q in the middle when n is odd, then q^2 / d_i for
        i = m, ..., 1.
        """
        q, m = self.q, self.n // 2
        d = _smith_diagonal_mod(self.z, q)
        for i in range(m, self.n):
            if d[i] != q:
                raise CrossCheckFailed(
                    f"Smith diagonal mod q = {_text(q)} has {_text(d[i])} at position {i + 1}, "
                    f"expected q past the middle"
                )
        head = d[:m]
        return head + (q,) * (self.n % 2) + tuple(q * q // x for x in reversed(head))


def _scaled_identity_minus_rank_one(q: int, r: int, v: Sequence[int]) -> tuple[int, ...]:
    """Entries of q I - r v v^T, row by row."""
    n = len(v)
    entries = [a * b for a in [-r * x for x in v] for b in v]
    entries[:: n + 1] = [e + q for e in entries[:: n + 1]]
    return tuple(entries)


def identity_isometry(n: int) -> RationalIsometry:
    return RationalIsometry(1, IntMatrix.identity(n))


def from_rational_matrix(m: RatMatrix) -> RationalIsometry:
    """Validate an exact rational matrix, already in lowest terms, as an isometry."""
    return RationalIsometry(m.denominator, m.numerator)


@dataclass(frozen=True)
class ReflectionAxis:
    """Primitive integer axis vector, first nonzero coordinate positive."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        # a zero vector has gcd 0, so this also rejects it
        if math.gcd(*self.coords) != 1:
            raise ValueError("axis must be primitive; use ReflectionAxis.from_coords")
        if next(c for c in self.coords if c) < 0:
            raise ValueError("first nonzero coordinate must be positive; use ReflectionAxis.from_coords")

    @classmethod
    def from_coords(cls, coords: "ReflectionAxis | Sequence[int]") -> "ReflectionAxis":
        """Normalize coords to a primitive axis; an axis is returned unchanged."""
        if isinstance(coords, ReflectionAxis):
            return coords
        coords = tuple(int(c) for c in coords)
        if not any(coords):
            raise ValueError("reflection axis must be nonzero")
        g = math.gcd(*coords)
        coords = tuple(c // g for c in coords)
        first = next(c for c in coords if c)
        if first < 0:
            coords = tuple(-c for c in coords)
        return cls(coords)

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    @property
    def coincidence_index(self) -> int:
        """Index of the reflection: v^T v when odd, v^T v / 2 when even."""
        w = self.norm_sq
        return w // 2 if w % 2 == 0 else w


def reflection(v) -> RationalIsometry:
    """Reflection through the hyperplane orthogonal to v.

    The matrix is (1/w)(w I - 2 v v^T) with w = v^T v; the gcd of the
    entries of w I - 2 v v^T is 1 or 2 as w is odd or even, so its canonical
    denominator is the axis's coincidence index, w or w/2.
    """
    axis = ReflectionAxis.from_coords(v)
    a = axis.coords
    q = axis.coincidence_index  # the numerator is q I - h v v^T, with h = 2q / w = 2 or 1
    h = 2 * q // axis.norm_sq
    n = len(a)
    return RationalIsometry(q, IntMatrix(n, n, _scaled_identity_minus_rank_one(q, h, a)))


def compose(a: RationalIsometry, *factors: RationalIsometry) -> RationalIsometry:
    """a * f_1 * ... * f_k in lowest terms, checked once: no partial product reaches a caller."""
    for b in factors:
        if b.n != a.n:
            raise ValueError(f"dimension mismatch: {a.n}x{a.n} and {b.n}x{b.n}")
    q, z = a.q, a.z
    for b in factors:
        rank_one = b._rank_one
        if rank_one is None:
            z = mat_mul(z, b.z)
        else:
            # z (q_b I - r v v^T) = q_b z - r (z v) v^T, exact and O(n^2)
            v, r = rank_one
            product = []
            for i in range(a.n):
                row = z.row(i)
                t = r * sum(map(operator.mul, row, v))
                product.extend(map(operator.sub, map(b.q.__mul__, row), map(t.__mul__, v)))
            z = IntMatrix(a.n, a.n, tuple(product))
        z, q = _lowest_terms(z, q * b.q)
    return RationalIsometry(q, z)


def random_axis(n: int, coordinate_bound: int, rng: Lcg) -> ReflectionAxis:
    while True:
        coords = [rng.integer(-coordinate_bound, coordinate_bound) for _ in range(n)]
        if any(coords):
            return ReflectionAxis.from_coords(coords)


def _require_dimension(n: int) -> None:
    if n < 2:
        raise ValueError("dimension must be at least 2")


def _check_random_params(n: int, k: int, coordinate_bound: int) -> None:
    _require_dimension(n)
    if k < 0:
        raise ValueError(f"reflection count must be >= 0, got {k}")
    if coordinate_bound < 1:
        raise ValueError(f"coordinate bound must be >= 1, got {coordinate_bound}")


def random_isometry(
    n: int, k: int, coordinate_bound: int, seed: int
) -> RationalIsometry:
    """Product of k seeded random reflections with primitive axes."""
    _check_random_params(n, k, coordinate_bound)
    rng = Lcg(seed)
    return compose(
        identity_isometry(n), *(reflection(random_axis(n, coordinate_bound, rng)) for _ in range(k))
    )


def random_corpus(
    n: int,
    count: int,
    seed: int,
    max_reflections: int = 3,
    coordinate_bound: int = 4,
) -> list[RationalIsometry]:
    """Deterministic corpus of products of at most max_reflections reflections."""
    # checked here too, so that an empty corpus rejects what a nonempty one would
    _check_random_params(n, max_reflections, coordinate_bound)
    rng = Lcg(seed)
    out = []
    for _ in range(count):
        k = rng.integer(0, max_reflections)
        out.append(random_isometry(n, k, coordinate_bound, rng.next_bits()))
    return out
