"""Helpers that only the tests need."""

from cslindex.matrices import IntMatrix


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
