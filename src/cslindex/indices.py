"""Coincidence index formulas.

Four routes to Sigma(Y) = [Z^n : Z^n ∩ Y Z^n]:

* the general invariant-factor product (Fortes),
* the closed form q^m / delta_m with m = floor(n/2),
* the reflection formula v^T v (odd) or v^T v / 2 (even),
* the multiplicative rule for products of reflections with pairwise
  coprime individual indices.

Every operation returns an IndexReport so callers can see which formula
produced the value and from what data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .isometry import CrossCheckFailed, RationalIsometry, ReflectionAxis
from .normalform import _row_blocks_minors_gcd

# delta_m is cross-checked up to this dimension: at n = 8, C(7,3) = 35 Hermite
# forms of 4 x 8 row blocks, 2.8-3.3 ms per isometry against 78-116 ms for all 4900
# determinants (Python 3.11, 2-vCPU Xeon)
_MINOR_CROSSCHECK_MAX_DIM = 8


@dataclass(frozen=True)
class IndexReport:
    """Sigma with provenance.

    factors holds the data the method used: the invariant factors for
    `fortes`, (q, delta_m) for `closed_form`, (v^T v,) for `reflection`,
    the individual reflection indices for `coprime_product`, (q, residue
    solution count) for `oracle_count` and the HNF diagonal for
    `oracle_hnf`.
    """

    sigma: int
    method: str
    factors: tuple[int, ...]


class CoprimalityViolated(ValueError):
    """The product rule was applied to reflections whose indices share a factor."""

    def __init__(self, i: int, j: int, ri: int, rj: int):
        super().__init__(
            f"reflection indices r_{i}={ri} and r_{j}={rj} share the factor "
            f"{math.gcd(ri, rj)}; the product formula does not apply"
        )
        self.pair = (i, j)
        self.indices = (ri, rj)


def index_fortes(y: RationalIsometry) -> IndexReport:
    """Sigma as the product of q / gcd(q, q_i) over the invariant factors q_i of Z."""
    d = y.invariant_factors
    sigma = math.prod(y.q // math.gcd(y.q, di) for di in d)
    return IndexReport(sigma, "fortes", d)


def index_closed_form(y: RationalIsometry) -> IndexReport:
    """Sigma = q^m / delta_m with m = floor(n/2).

    delta_m (the gcd of the m x m minors of Z) is taken as the product of
    the first m invariant factors.  For n <= 8 the value is cross-checked
    against the gcd taken from Hermite forms of blocks of m rows of Z, which
    never reads the Smith diagonal: over all C(n, m) blocks for odd n, over
    the C(n - 1, m - 1) blocks that hold row 0 for even n, in one call
    (no check of `minors_gcd` can fire on an isometry).  For n = 1, m = 0
    and delta_0 = 1, the empty product, so there is nothing to cross-check.
    """
    m = y.n // 2
    delta_m = math.prod(y.invariant_factors[:m])
    if 0 < m and y.n <= _MINOR_CROSSCHECK_MAX_DIM:
        # for even n = 2m: Z / q is orthogonal, checked when y was built, so by
        # Jacobi's complementary-minor identity |det Z[R,S]| = |det Z[R',S']| for
        # the complements R', S': blocks R and R' have the same gcd
        by_blocks = _row_blocks_minors_gcd(y.z, m, holding_row_0=y.n % 2 == 0)
        if by_blocks != delta_m:
            raise CrossCheckFailed(
                f"invariant-factor product disagrees with the gcd of the {m}x{m} minors "
                f"from Hermite forms of row blocks: {delta_m} against {by_blocks}"
            )
    sigma = y.q**m // delta_m
    return IndexReport(sigma, "closed_form", (y.q, delta_m))


def index_reflection(v) -> IndexReport:
    """Index of the reflection along v, straight from the axis."""
    axis = ReflectionAxis.from_coords(v)
    return IndexReport(axis.coincidence_index, "reflection", (axis.norm_sq,))


def _require_pairwise_coprime(rs) -> None:
    """Raise CoprimalityViolated for the first pair of indices sharing a factor."""
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if math.gcd(rs[i], rs[j]) != 1:
                raise CoprimalityViolated(i, j, rs[i], rs[j])


def index_coprime_product(vs) -> IndexReport:
    """Index of a product of reflections with pairwise coprime indices.

    The precondition is verified, not assumed: the rule is known to fail
    without it (a reflection squared is the identity).
    """
    rs = [ReflectionAxis.from_coords(v).coincidence_index for v in vs]
    _require_pairwise_coprime(rs)
    return IndexReport(math.prod(rs), "coprime_product", tuple(rs))

