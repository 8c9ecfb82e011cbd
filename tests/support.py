"""Helpers that only the tests need."""

import math
import operator
from fractions import Fraction
from itertools import combinations

from cslindex.isometry import NotOrthogonal, RationalIsometry
from cslindex.matrices import IntMatrix, RatMatrix, _parse_header_and_tokens, det


def check_gram_reference(q: int, z: IntMatrix) -> None:
    """Reference orthogonality check: every inner product of columns of z, one by one.

    Raises NotOrthogonal naming the first pair (i, j), i <= j in row-major
    order, whose inner product is not q^2 [i == j].
    """
    qsq = q * q
    cols = z.columns()
    for i, ci in enumerate(cols):
        for j in range(i, z.cols):
            expected = qsq if i == j else 0
            got = sum(map(operator.mul, ci, cols[j]))
            if got != expected:
                raise NotOrthogonal(
                    f"columns {i} and {j} have inner product "
                    f"{Fraction(got, qsq)}, expected {0 if i != j else 1}"
                )


def transpose_inverse(a: RationalIsometry) -> RationalIsometry:
    """The inverse, which for an isometry is the transpose."""
    return RationalIsometry(a.q, a.z.transpose())


def diagonal_matrix(d, rows: int, cols: int) -> IntMatrix:
    """rows x cols matrix with d on its main diagonal and zeros elsewhere."""
    return IntMatrix(
        rows,
        cols,
        tuple(d[i] if i == j and i < len(d) else 0 for i in range(rows) for j in range(cols)),
    )


def hnf_lattice_contains(h: IntMatrix, vec) -> bool:
    """Membership test for the row lattice of an HNF basis h (square, upper triangular)."""
    if not h.is_square:
        raise ValueError("expected a square HNF basis")
    n = h.cols
    vec = [int(x) for x in vec]
    if len(vec) != n:
        raise ValueError("vector dimension mismatch")
    residue = list(vec)
    for i in range(n):
        pivot = h.at(i, i)
        if residue[i] % pivot:
            return False
        c = residue[i] // pivot
        for j in range(i, n):
            residue[j] -= c * h.at(i, j)
    return all(x == 0 for x in residue)


def minors_gcd_reference(a: IntMatrix, i: int) -> int:
    """Reference for minors_gcd: the gcd of the determinants of all i x i minors, one by one.

    Raises ValueError when i is out of range or every i x i minor is 0.
    """
    if i < 1 or i > min(a.rows, a.cols):
        raise ValueError(f"minor order {i} out of range for {a.rows}x{a.cols}")
    g = 0
    for ri in combinations(range(a.rows), i):
        for ci in combinations(range(a.cols), i):
            g = math.gcd(g, det(IntMatrix.from_rows([[a.at(r, c) for c in ci] for r in ri])))
    if g == 0:
        raise ValueError(f"all {i}x{i} minors vanish")
    return g


def parse_rat_matrix_reference(text: str) -> RatMatrix:
    """Reference for parse_rat_matrix: every token through Fraction's string parser."""
    body = _parse_header_and_tokens(text)
    try:
        rows = [[Fraction(t) for t in row] for row in body]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        num = IntMatrix.from_rows([[x.numerator * (den // x.denominator) for x in row] for row in rows])
        return RatMatrix.make(num, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational matrix: {exc}") from exc
