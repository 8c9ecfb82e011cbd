"""Smith and Hermite normal forms over the integers.

Both algorithms use elementary (unimodular) row/column operations only.
Only `smith_normal_form` records its transforms P and Q, as exact witnesses
of the reduction; the Hermite form returns the canonical basis alone.  When
only the Smith diagonal is needed and a multiple of the last invariant factor
is known, `_smith_diagonal_mod` finds it mod that multiple, without transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrices import IntMatrix


@dataclass(frozen=True)
class SmithDecomposition:
    """p * A * q_right == diag(d) with p, q_right unimodular and d a divisibility chain."""

    p: IntMatrix
    q_right: IntMatrix
    d: tuple[int, ...]

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        return IntMatrix(
            rows,
            cols,
            tuple(
                self.d[i] if i == j and i < len(self.d) else 0
                for i in range(rows)
                for j in range(cols)
            ),
        )


def _swap_rows(m: list[list[int]], i: int, k: int) -> None:
    m[i], m[k] = m[k], m[i]


def _add_row(m: list[list[int]], i: int, k: int, c: int) -> None:
    """row_i += c * row_k"""
    ri, rk = m[i], m[k]
    for j in range(len(ri)):
        ri[j] += c * rk[j]


def _negate_row(m: list[list[int]], i: int) -> None:
    m[i] = [-x for x in m[i]]


def _swap_cols(m: list[list[int]], j: int, k: int) -> None:
    for row in m:
        row[j], row[k] = row[k], row[j]


def _add_col(m: list[list[int]], j: int, k: int, c: int) -> None:
    """col_j += c * col_k"""
    for row in m:
        row[j] += c * row[k]


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Pivots are chosen as the smallest nonzero absolute value of the
    remaining submatrix to keep coefficient growth in check.  Invariant
    factors are normalized nonnegative, so the result is canonical.
    """
    m, n = a.rows, a.cols
    A = a.to_rows()
    P = IntMatrix.identity(m).to_rows()
    Q = IntMatrix.identity(n).to_rows()
    limit = min(m, n)

    for t in range(limit):
        # smallest nonzero |entry| of the remaining submatrix becomes the pivot
        piv = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                e = row[j]
                if e and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
        if piv is None:
            break  # remaining submatrix is zero; trailing factors stay 0
        if piv[0] != t:
            _swap_rows(A, t, piv[0])
            _swap_rows(P, t, piv[0])
        if piv[1] != t:
            _swap_cols(A, t, piv[1])
            _swap_cols(Q, t, piv[1])

        while True:
            # clear column t by row operations
            for i in range(t + 1, m):
                while A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        _add_row(A, i, t, -q)
                        _add_row(P, i, t, -q)
                    if A[i][t]:
                        _swap_rows(A, t, i)
                        _swap_rows(P, t, i)
            # clear row t by column operations (may re-dirty column t via swaps)
            for j in range(t + 1, n):
                while A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        _add_col(A, j, t, -q)
                        _add_col(Q, j, t, -q)
                    if A[t][j]:
                        _swap_cols(A, t, j)
                        _swap_cols(Q, t, j)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            if any(A[t][j] for j in range(t + 1, n)):
                continue
            # enforce the divisibility chain before advancing
            pivot = A[t][t]
            offender = None
            for i in range(t + 1, m):
                row = A[i]
                for j in range(t + 1, n):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(A, t, offender, 1)
            _add_row(P, t, offender, 1)

        if A[t][t] < 0:
            _negate_row(A, t)
            _negate_row(P, t)

    d = tuple(A[i][i] for i in range(limit))
    return SmithDecomposition(IntMatrix.from_rows(P), IntMatrix.from_rows(Q), d)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    return smith_normal_form(a).d


def _smith_diagonal_mod(a: IntMatrix, modulus: int) -> tuple[int, ...]:
    """Smith diagonal of a square full-rank a whose last invariant factor divides modulus.

    Then modulus * Z^n lies in the column lattice of a, so the cokernel is
    that of a mod modulus (Domich, Kannan & Trotter 1987): elimination runs
    without transforms on entries reduced symmetrically mod N = modulus,
    and leaves the cokernel as the sum of Z/gcd(pivot, N), with N for each
    pivot of a zero remaining block.
    """
    N = modulus
    half = N // 2
    n = a.rows
    # (x + half) % N - half is the symmetric residue of x, in [-half, N - half)
    A = [[(x + half) % N - half for x in a.row(i)] for i in range(n)]
    d = []
    for t in range(n):
        nonzero = [(abs(e), i, j) for i in range(t, n) for j, e in enumerate(A[i][t:], t) if e]
        if not nonzero:
            d.extend([N] * (n - t))
            break
        _, i, j = min(nonzero)
        _swap_rows(A, t, i)
        _swap_cols(A, t, j)
        rt = A[t]
        while any(A[i][t] for i in range(t + 1, n)) or any(rt[t + 1 :]):
            # clear column t by row operations; rows and columns before t are already clear
            for i in range(t + 1, n):
                while A[i][t]:
                    c = A[i][t] // A[t][t]
                    ri, rt = A[i], A[t]
                    for j in range(t, n):
                        ri[j] = (ri[j] - c * rt[j] + half) % N - half
                    if ri[t]:
                        _swap_rows(A, t, i)
            # clear row t by column operations; a swap may refill column t
            rt = A[t]
            for j in range(t + 1, n):
                while rt[j]:
                    c = rt[j] // rt[t]
                    for i in range(t, n):
                        r = A[i]
                        r[j] = (r[j] - c * r[t] + half) % N - half
                    if rt[j]:
                        _swap_cols(A, t, j)
        d.append(math.gcd(A[t][t], N))
    # order into a divisibility chain: per prime, (gcd, lcm) puts the smaller power first
    for i in range(n):
        for j in range(i + 1, n):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


def _row_echelon(a: IntMatrix):
    """Integer row echelon form via unimodular row ops.

    Returns (reduced rows, rank).  Pivots are positive and entries above
    each pivot are reduced into [0, pivot).
    """
    m, n = a.rows, a.cols
    A = a.to_rows()
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][j]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][j]))
            if i0 != r:
                _swap_rows(A, r, i0)
            done = True
            for i in range(r + 1, m):
                if A[i][j]:
                    q = A[i][j] // A[r][j]
                    _add_row(A, i, r, -q)
                    if A[i][j]:
                        done = False
            if done:
                break
        if r < m and A[r][j]:
            if A[r][j] < 0:
                _negate_row(A, r)
            for i in range(r):
                q = A[i][j] // A[r][j]
                if q:
                    _add_row(A, i, r, -q)
            r += 1
    return A, r


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Canonical row-style Hermite normal form of a full-column-rank matrix.

    The result keeps only the nonzero rows: the canonical basis of the row
    lattice of a.
    """
    if a.rows < a.cols:
        raise ValueError("hermite_normal_form expects rows >= cols")
    A, rank = _row_echelon(a)
    if rank < a.cols:
        raise ValueError(f"rank-deficient input: rank {rank} < {a.cols} columns")
    return IntMatrix.from_rows(A[:rank])


def hnf_lattice_contains(h: IntMatrix, vec) -> bool:
    """Membership test for the row lattice of an HNF basis h (square, upper triangular)."""
    if not h.is_square:
        raise ValueError("expected a square HNF basis")
    n = h.cols
    vec = [int(x) for x in vec]
    if len(vec) != n:
        raise ValueError("vector dimension mismatch")
    coeffs = [0] * n
    residue = list(vec)
    for i in range(n):
        pivot = h.at(i, i)
        if residue[i] % pivot:
            return False
        c = residue[i] // pivot
        coeffs[i] = c
        for j in range(i, n):
            residue[j] -= c * h.at(i, j)
    return all(x == 0 for x in residue)
