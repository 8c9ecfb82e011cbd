"""Which positive integers occur as coincidence indices, with witnesses.

Constructive machinery: sums of three and four squares produce primitive
reflection axes; reflections and coprime products of reflections then
realize target indices.  Every witness is oracle-verified before it is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .indices import CrossCheckFailed, _require_pairwise_coprime
from .isometry import ReflectionAxis, compose, identity_isometry, reflection
from .oracle import intersection_hnf


class WitnessNotFound(ValueError):
    """No reflection axis realizes the requested index within the search shells."""


@dataclass(frozen=True)
class SquareWitness:
    """target == sum of the squares of `squares`; content is their gcd."""

    target: int
    squares: tuple[int, ...]
    content: int


def is_three_square_excluded(m: int) -> bool:
    """True iff m has the form 4^a (8k + 7), i.e. is not a sum of three squares."""
    if m < 1:
        raise ValueError("expected a positive integer")
    while m % 4 == 0:
        m //= 4
    return m % 8 == 7


def three_square_decompose(m: int) -> SquareWitness | None:
    """Write m = a^2 + b^2 + c^2 by bounded search, or None when impossible.

    The search and the 4^a(8k+7) predicate must agree; a disagreement is an
    internal error.
    """
    if m < 1:
        raise ValueError("expected a positive integer")
    for a in range(math.isqrt(m), -1, -1):
        r1 = m - a * a
        for b in range(min(a, math.isqrt(r1)), -1, -1):
            c2 = r1 - b * b
            c = math.isqrt(c2)
            if c * c == c2 and c <= b:
                squares = (a, b, c)
                return SquareWitness(m, squares, math.gcd(*squares))
    if not is_three_square_excluded(m):
        raise CrossCheckFailed(f"search found no representation of {m} but the form test allows one")
    return None


def four_square_odd_decompose(m: int) -> SquareWitness:
    """Write odd m as a sum of four squares with gcd 1.

    2m - 1 is congruent to 1 mod 4, hence a sum of three squares with
    exactly one odd term; writing the even ones as 2u, 2v and the odd one
    as 2t + 1 gives m = (u+v)^2 + (u-v)^2 + t^2 + (t+1)^2, and t, t+1 are
    coprime.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("expected an odd positive integer")
    three = three_square_decompose(2 * m - 1)
    if three is None:  # 2m-1 is 1 or 5 mod 8, never excluded
        raise CrossCheckFailed(f"no three-square decomposition of {2 * m - 1}")
    odd = [x for x in three.squares if x % 2]
    even = [x for x in three.squares if x % 2 == 0]
    if len(odd) != 1:
        raise CrossCheckFailed(f"{2 * m - 1} = sum of squares of {three.squares}, expected one odd term")
    u, v = even[0] // 2, even[1] // 2
    t = (odd[0] - 1) // 2
    squares = (u + v, u - v, t, t + 1)
    content = math.gcd(*squares)
    if sum(x * x for x in squares) != m or content != 1:
        raise CrossCheckFailed(f"four-square construction failed for {m}")
    return SquareWitness(m, squares, content)


@dataclass(frozen=True)
class IndexWitness:
    """Axes whose composed reflection product has coincidence index sigma."""

    sigma: int
    dimension: int
    axes: tuple[ReflectionAxis, ...]


def primitive_axes_with_norm(n: int, norm: int) -> Iterator[tuple[int, ...]]:
    """Canonical (non-increasing, nonnegative) primitive vectors of a given norm.

    Depth-first in descending lexicographic order.  The stack is explicit, so
    the dimension is not bounded by the recursion limit.
    """
    if n < 1:
        return
    prefix: list[int] = []
    stack = [(norm, iter(range(math.isqrt(norm), -1, -1)))]  # per slot: norm left, values to try
    while stack:
        left, values = stack[-1]
        a = next(values, None)
        if a is None:
            stack.pop()
            continue
        del prefix[len(stack) - 1 :]
        prefix.append(a)
        remaining = left - a * a
        slots = n - len(stack)
        if slots == 0:
            if remaining == 0 and math.gcd(*prefix) == 1:
                yield tuple(prefix)
        elif remaining <= slots * a * a:  # later coordinates are at most a
            stack.append((remaining, iter(range(min(a, math.isqrt(remaining)), -1, -1))))


def reflection_witness_axis(n: int, sigma: int) -> ReflectionAxis | None:
    """A primitive axis with reflection index sigma, searching norms {sigma, 2*sigma}.

    The two shells are exhausted, so None is conclusive: no single
    reflection in dimension n has index sigma.
    """
    for norm in (sigma, 2 * sigma):
        expected = norm // 2 if norm % 2 == 0 else norm
        if expected != sigma:
            continue
        for coords in primitive_axes_with_norm(n, norm):
            return ReflectionAxis(coords)
    return None


def _verified_witness(
    n: int, sigma: int, axes: tuple[ReflectionAxis, ...]
) -> IndexWitness:
    iso = reflection(axes[0]) if axes else identity_isometry(n)
    for axis in axes[1:]:
        iso = compose(iso, reflection(axis))
    got = intersection_hnf(iso).index
    if got != sigma:
        raise CrossCheckFailed(f"witness verification failed: oracle says {got}, wanted {sigma}")
    return IndexWitness(sigma, n, axes)


def reflection_spectrum(n: int, sigma_bound: int) -> dict[int, IndexWitness]:
    """One oracle-verified reflection witness per attainable index <= sigma_bound.

    Absent keys mean no single reflection in dimension n attains that
    index (both norm shells exhausted); nothing is claimed about general
    isometries.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if sigma_bound < 1:
        raise ValueError("sigma bound must be positive")
    out: dict[int, IndexWitness] = {}
    for sigma in range(1, sigma_bound + 1):
        axis = reflection_witness_axis(n, sigma)
        if axis is not None:
            out[sigma] = _verified_witness(n, sigma, (axis,))
    return out


def coprime_witness(targets, n: int) -> IndexWitness:
    """Axes realizing a product of pairwise coprime target indices.

    Raises CoprimalityViolated when the targets share a factor and
    WitnessNotFound when some target has no reflection witness in
    dimension n.
    """
    targets = [int(t) for t in targets]
    if any(t < 1 for t in targets):
        raise ValueError("targets must be positive")
    _require_pairwise_coprime(targets)
    axes = []
    for t in targets:
        if t == 1:
            continue
        axis = reflection_witness_axis(n, t)
        if axis is None:
            raise WitnessNotFound(f"no reflection in dimension {n} has index {t}")
        axes.append(axis)
    return _verified_witness(n, math.prod(targets), tuple(axes))
