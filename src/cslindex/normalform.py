"""Smith and Hermite normal forms over the integers.

Both public algorithms use elementary (unimodular) row/column operations
only.  Only `smith_normal_form` records its transforms P and Q, as exact
witnesses of the reduction; `hermite_normal_form` returns the canonical basis
alone.  Two private routines serve lattices that contain a known multiple N
of Z^n: `_smith_diagonal_mod` (the Smith diagonal, when N is a multiple of the
last invariant factor) and `_hermite_tail_mod` (the tail of a Hermite form of
rows plus N Z^cols).  Both keep every entry mod N and clear an entry with one
extended-gcd step (`_xgcd`), or by subtracting a multiple of the pivot's row
when the pivot divides it, so no coefficient outgrows N.
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s * a + t * b."""
    g = math.gcd(a, b)
    if b == 0:
        return g, (1 if a >= 0 else -1), 0
    a, b = a // g, b // g
    # a and b are now coprime, so s = a^-1 mod |b| exists (0 when |b| = 1)
    s = pow(a, -1, abs(b))
    return g, s, (1 - s * a) // b


def _smith_diagonal_mod(a: IntMatrix, modulus: int) -> tuple[int, ...]:
    """Smith diagonal of a square full-rank a whose last invariant factor divides modulus.

    Then modulus * Z^n lies in the column lattice of a, so the cokernel is
    that of a mod modulus (Domich, Kannan & Trotter 1987): elimination runs
    without transforms on entries reduced symmetrically mod N = modulus,
    and leaves the cokernel as the sum of Z/gcd(pivot, N), with N for each
    pivot of a zero remaining block.  An entry below the pivot is cleared by
    subtracting a multiple of the pivot row when the pivot divides it, and
    otherwise by one extended-gcd step, which lowers the pivot to the gcd of
    the two.  Column steps run as row steps on the transpose, which has the
    same diagonal.
    """
    N = modulus
    half = N // 2
    # (x + half) % N - half is the symmetric residue of x, in [-half, N - half);
    # B is the block still to be reduced
    B = [[(x + half) % N - half for x in a.row(i)] for i in range(a.rows)]
    d = []
    while B:
        # the pivot is the least nonzero entry of the first nonzero column
        j = next((j for j in range(len(B)) if any(row[j] for row in B)), None)
        if j is None:
            d.extend([N] * len(B))
            break
        _, i = min((abs(row[j]), i) for i, row in enumerate(B) if row[j])
        B[0], B[i] = B[i], B[0]
        for row in B:
            row[0], row[j] = row[j], row[0]
        while True:
            top = B[0]
            for i in range(1, len(B)):
                row = B[i]
                x, y = top[0], row[0]
                if not y:
                    continue
                if y % x == 0:
                    c = y // x
                    B[i] = [(e - c * f + half) % N - half for f, e in zip(top, row)]
                    continue
                g, s, u = _xgcd(x, y)
                x, y = x // g, y // g
                top, B[i] = (
                    [(s * f + u * e + half) % N - half for f, e in zip(top, row)],
                    [(y * f - x * e + half) % N - half for f, e in zip(top, row)],
                )
            B[0] = top
            # the first column is clear; if the pivot divides the first row, column
            # steps would clear it without touching another row
            if all(e % top[0] == 0 for e in top):
                break
            B = [list(col) for col in zip(*B)]
        d.append(math.gcd(top[0], N))
        B = [row[1:] for row in B[1:]]
    # order into a divisibility chain: per prime, (gcd, lcm) puts the smaller power first
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


def _hermite_tail_mod(a: IntMatrix, modulus: int, lead: int) -> IntMatrix:
    """Last cols - lead rows of the row Hermite form of the rows of a plus modulus * Z^cols.

    Those rows start with lead zeros, which are dropped.  The lattice holds
    N * Z^cols (N = modulus), so every entry is kept mod N (Domich, Kannan &
    Trotter 1987).  Column by column, one extended-gcd step per nonzero row
    folds the rows into one row r and leaves the others zero there.  With
    p = gcd(r_j, N) = u r_j + v N, the pivot row is u r + v N e_j, and
    (N / p) r, which is zero at j mod N, rejoins the rows; a column with no
    nonzero row has the pivot row N e_j.  Entries above each pivot of the
    kept rows are reduced into [0, pivot) at the end.
    """
    N = modulus
    rows = [[x % N for x in a.row(i)] for i in range(a.rows)]
    kept = []  # pivot rows of the columns from lead on
    for j in range(a.cols):
        # every row is zero before column j, so row steps start at j
        r = None
        rest = []
        for row in rows:
            y = row[j]
            if y and r is None:
                r = row
                continue
            if y:
                x = r[j]
                if y % x == 0:
                    c = y // x
                    row[j:] = [(e - c * f) % N for f, e in zip(r[j:], row[j:])]
                else:
                    g, s, u = _xgcd(x, y)
                    x, y = x // g, y // g
                    pairs = list(zip(r[j:], row[j:]))
                    r[j:] = [(s * f + u * e) % N for f, e in pairs]
                    row[j:] = [(y * f - x * e) % N for f, e in pairs]
                if not any(row[j:]):
                    continue
            rest.append(row)
        if r is None:
            if j >= lead:
                kept.append([N if i == j else 0 for i in range(lead, a.cols)])
        else:
            p, u, _ = _xgcd(r[j], N)
            if j >= lead:
                kept.append([u * e % N for e in r[lead:]])  # u r_j = p mod N, and p < N
            if p > 1:
                r[j:] = [N // p * e % N for e in r[j:]]
                if any(r[j:]):
                    rest.append(r)
        rows = rest
    k = len(kept)
    for i in range(k - 2, -1, -1):
        bi = kept[i]
        for j in range(i + 1, k):
            bj = kept[j]
            c = bi[j] // bj[j]
            if c:
                bi[j] -= c * bj[j]
                bi[j + 1 :] = [(e - c * f) % N for e, f in zip(bi[j + 1 :], bj[j + 1 :])]
    return IntMatrix(k, k, tuple(x for row in kept for x in row))


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
