"""Which positive integers occur as coincidence indices, with witnesses.

Constructive machinery: one walk over the vectors of a given norm yields the
primitive reflection axes and the three-square decompositions; reflections
and coprime products of reflections then realize target indices.  Every
witness is oracle-verified, on the coordinates its axes use, when returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .indices import CrossCheckFailed, _require_pairwise_coprime
from .isometry import ReflectionAxis, _require_dimension, compose, identity_isometry, reflection
from .matrices import _exact_int
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
    """Write m = a^2 + b^2 + c^2 with a >= b >= c >= 0 largest, or None when impossible.

    The search decides, and the 4^a(8k+7) predicate is read only when it
    finds nothing: the two must agree, and a disagreement is an internal
    error.  The walk skips a first coordinate a when m - a^2 is 3, 6 or 7
    mod 8, since squares are 0, 1 or 4 mod 8 and no two sum to those; it
    never reads the predicate, so a None rests on that argument and the
    exhausted shell, not on the predicate it is checked against.  An odd
    m = 8k + 7 has every a skipped and ends in about 0.42 sqrt(m) steps.
    """
    if m < 1:
        raise ValueError("expected a positive integer")
    squares = next(vectors_with_norm(3, m), None)
    if squares is not None:
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


def vectors_with_norm(n: int, norm: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing nonnegative vectors with n coordinates and a given norm.

    Depth-first in descending lexicographic order, with an explicit stack, so
    n is not bounded by the recursion limit.  A slot ends at the first value
    too small for the later coordinates, each at most that value, to make up
    the rest, and the last coordinate is one isqrt of what is left.  With two
    coordinates left, a value is skipped when the norm left for them is 3, 6
    or 7 mod 8: squares are 0, 1 or 4 mod 8, so no two squares sum to that.
    A skipped prefix has no completion, so the walk stays exhaustive and in
    the same order, and it reads no test for sums of three squares.
    """
    last = n - 1
    if last < 1:
        c = math.isqrt(norm)
        if last == 0 and c * c == norm:
            yield (c,)
        return
    vec, two = [0] * n, last - 2
    left, top = [norm] * last, [math.isqrt(norm)] * last  # per slot: norm left, next value to try
    k = 0
    while k >= 0:
        a = top[k]
        rest = left[k] - a * a
        if a < 0 or rest > (last - k) * a * a:  # then so is every smaller value
            k -= 1
            continue
        top[k] = a - 1
        if k == two and rest % 8 in (3, 6, 7):  # two coordinates left, and no two squares sum to rest
            continue
        vec[k] = a
        if k + 1 < last:
            k += 1
            left[k], top[k] = rest, min(a, math.isqrt(rest))
        elif (c := math.isqrt(rest)) * c == rest:  # the last coordinate, at most a by the slot bound
            vec[last] = c
            yield tuple(vec)


def reflection_witness_axis(n: int, sigma: int) -> ReflectionAxis | None:
    """A primitive axis with reflection index sigma, searching norms {sigma, 2*sigma}.

    The two shells are exhausted, so None is conclusive: no single
    reflection in dimension n has index sigma.
    """
    _require_dimension(n)
    if sigma < 1:
        raise ValueError("sigma must be positive")
    for norm in (sigma, 2 * sigma) if sigma % 2 else (2 * sigma,):  # index w if w is odd, w/2 if even
        for coords in vectors_with_norm(n, norm):
            if math.gcd(*coords) == 1:
                return ReflectionAxis(coords)
    return None


def _verified_witness(
    n: int, sigma: int, axes: tuple[ReflectionAxis, ...]
) -> IndexWitness:
    # on the coordinates S the axes use; outside S the product is I, so Sigma(Y) = Sigma(Y_S)
    support = sorted({i for axis in axes for i, c in enumerate(axis.coords) if c})
    on_support = [ReflectionAxis(tuple(axis.coords[i] for i in support)) for axis in axes]
    iso = compose(*map(reflection, on_support)) if axes else identity_isometry(1)
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
    _require_dimension(n)
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
    _require_dimension(n)
    targets = list(map(_exact_int, targets))
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
