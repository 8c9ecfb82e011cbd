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

from .isometry import CrossCheckFailed, RationalIsometry, ReflectionAxis, _text
from .matrices import IntMatrix
from .normalform import _xgcd

# delta_m is cross-checked up to this dimension: at n = 8, the walk over the
# C(7,3) = 35 row sets that hold row 0 takes 0.5-0.9 ms per product of 8
# reflections with coordinates up to 4, against 94-143 ms for all 4900
# determinants, and 3.4-4.8 ms at a q of 327 bits (Python 3.11, 2-vCPU Xeon)
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


def _fold(cols: list[list[int]], i: int) -> tuple[int, list[list[int]]]:
    """Fold the columns at entry i into one column: its entry p, and the others from entry i + 1 on.

    A column is folded into the pivot column by subtracting a multiple of
    the pivot when the pivot divides its entry, else by one extended-gcd
    step, which lowers the pivot to the gcd of the two.  p is 0 when every
    column is zero at i.
    """
    pivot: list[int] = []
    rest = []
    for c in cols:
        y = c[i]
        if not y:
            rest.append(c[i + 1 :])
        elif not pivot:
            pivot = c[i:]
        elif y % pivot[0] == 0:
            k = y // pivot[0]
            rest.append([b - k * a for a, b in zip(pivot[1:], c[i + 1 :])])
        else:
            g, s, t = _xgcd(pivot[0], y)
            x, y = pivot[0] // g, y // g
            pairs = list(zip(pivot, c[i:]))
            pivot = [s * a + t * b for a, b in pairs]
            rest.append([y * a - x * b for a, b in pairs[1:]])
    return (pivot[0] if pivot else 0), rest


def _row_blocks_minors_gcd(z: IntMatrix, m: int, holding_row_0: bool) -> int:
    """gcd over sets R of m rows of the gcd of the m x m minors of z[R, :]; 0 when all vanish.

    For each R that gcd is the determinant of the lattice in Z^m spanned by
    the columns of z[R, :], 0 when their rank is below m.  Over every set of
    m rows it is the gcd of all m x m minors of z.  The sets are walked depth
    first in lexicographic order.  At each chosen row r, unimodular column
    steps (`_fold`) leave one column with entry p at r and the others zero
    there.  Column steps keep the lattice L_R of every block, which is now
    triangular at r: for each R whose first row is r,
    det L_R = p * det L'_{R - r}, with L' spanned by the other columns.  So
    the blocks that share leading rows share their column steps, and since
    gcd(p a, p b) = p gcd(a, b), each prefix passes up one gcd; for the last
    row it is the gcd of the entries left.  With holding_row_0, R runs over
    the sets that contain row 0 only, which is enough when z / q is
    orthogonal and n = 2m: by Jacobi's complementary-minor identity
    |det z[R,S]| = |det z[R',S']| for the complements R', S', so blocks R
    and R' have the same gcd.  Each prefix stops once its gcd is 1.
    """

    def walk(cols: list[list[int]], width: int, depth: int, choices: int) -> int:
        # cols hold the entries of the width rows after the prefix; the next of the
        # depth rows still to choose is one of the first `choices`
        if depth == 1:
            return math.gcd(*(math.gcd(*c[:choices]) for c in cols))
        g = 0
        for i in range(choices):
            p, rest = _fold(cols, i)
            if p:
                left = width - i - 1
                g = math.gcd(g, p * walk(rest, left, depth - 1, left - depth + 2))
                if g == 1:
                    break
        return g

    n = z.rows
    return walk([list(c) for c in z.columns()], n, m, 1 if holding_row_0 else n - m + 1)


def index_closed_form(y: RationalIsometry) -> IndexReport:
    """Sigma = q^m / delta_m with m = floor(n/2).

    delta_m (the gcd of the m x m minors of Z) is taken as the product of
    the first m invariant factors.  For n <= 8 the value is cross-checked
    against the gcd over blocks of m rows of Z, from column steps that blocks
    with the same leading rows share, which never reads the Smith diagonal:
    over all C(n, m) blocks for odd n, over the C(n - 1, m - 1) blocks that
    hold row 0 for even n, in one call.
    For n = 1, m = 0 and delta_0 = 1, the empty product, so there is
    nothing to cross-check.
    """
    m = y.n // 2
    delta_m = math.prod(y.invariant_factors[:m])
    if 0 < m and y.n <= _MINOR_CROSSCHECK_MAX_DIM:
        # Z / q is orthogonal, checked when y was built, so for even n the blocks
        # that hold row 0 suffice
        by_blocks = _row_blocks_minors_gcd(y.z, m, holding_row_0=y.n % 2 == 0)
        if by_blocks != delta_m:
            raise CrossCheckFailed(
                f"invariant-factor product disagrees with the gcd of the {m}x{m} minors "
                f"from column steps shared across row blocks: "
                f"{_text(delta_m)} against {_text(by_blocks)}"
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

