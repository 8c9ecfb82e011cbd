"""Smith and Hermite normal forms over the integers.

`smith_normal_form` uses elementary (unimodular) row operations only, on A
or on its transpose, through one routine, `_echelon`: it inserts rows one
at a time into a row echelon form that it keeps reduced (Kannan & Bachem
1979), and applies every step to a companion block after the matrix.  It
alternates Hermite forms of A and of its transpose, with P and Q as
companions, until A is diagonal; since every form is reduced, P and Q stay
small.  Its P and Q are one valid pair among many; d is canonical.

`_smith_diagonal_mod` reduces the rows of a matrix plus N Z^n, every entry
mod N, to gcd(d_i, N) for each invariant factor d_i.  Each routine clears
an entry with one extended-gcd step (`_xgcd`), or by subtracting a multiple
of the pivot's row when the pivot divides it.  The HNF oracle in `oracle`
and the closed form's row-block cross-check in `indices` take only `_xgcd`
from here.
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


def _reduce(row: list[int], by: list[int], j: int) -> None:
    """Bring row[j] into [0, by[j]) by subtracting a multiple of by, which is zero before j."""
    c = row[j] // by[j]
    if c:
        row[j:] = [e - c * f for e, f in zip(row[j:], by[j:])]


def _echelon(rows: list[list[int]], width: int) -> list[list[int]]:
    """Row echelon form of rows, pivots in the first width entries, zero rows last.

    Every step is unimodular and acts on whole rows, so entries after width
    (a companion block, such as an identity) record the transform.  Rows are
    inserted one at a time into an echelon with positive pivots (Kannan &
    Bachem 1979).  A new row is folded into each pivot row it meets: by
    subtracting a multiple of that row when its pivot divides the entry,
    else by one extended-gcd step, which lowers the pivot to the gcd of the
    two.  A new or changed pivot row is reduced by the rows below it, and
    the rows above are reduced by it, so entries stay near the size of the
    pivots; without these reductions they grow with every fold.  The form
    is canonical once each row is also reduced by every row below it.
    The rows are modified in place.
    """
    basis: list[list[int]] = []  # nonzero rows, by pivot column
    pivots: list[int] = []
    zero = []
    for r in rows:
        j = k = 0
        while True:
            while j < width and not r[j]:
                j += 1
            if j == width:
                zero.append(r)
                break
            while k < len(pivots) and pivots[k] < j:
                k += 1
            if k == len(pivots) or pivots[k] > j:
                if r[j] < 0:
                    r[j:] = [-e for e in r[j:]]
                basis.insert(k, r)
                pivots.insert(k, j)
            else:
                e = basis[k]
                x, y = e[j], r[j]
                if y % x == 0:
                    c = y // x
                    r[j:] = [b - c * a for a, b in zip(e[j:], r[j:])]
                    continue
                g, s, t = _xgcd(x, y)
                x, y = x // g, y // g
                pairs = list(zip(e[j:], r[j:]))
                e[j:] = [s * a + t * b for a, b in pairs]
                r[j:] = [y * a - x * b for a, b in pairs]
            # basis[k] is new or changed: reduce it by the rows below, and the rows above by it
            row = basis[k]
            for i in range(k + 1, len(basis)):
                _reduce(row, basis[i], pivots[i])
            for i in range(k):
                _reduce(basis[i], row, j)
            if row is r:
                break
    return basis + zero


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(a))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Alternates a row Hermite form of A, with its steps applied to P, and a
    row Hermite form of the transpose, with its steps applied to the
    transpose of Q, until A is diagonal (Kannan & Bachem 1979).  Each form is
    kept reduced as it is built, so the entries of A stay near the size of
    its pivots, and P and Q stay small.  Then one 2x2 extended-gcd step per pair i < j whose d_i does not
    divide d_j turns (d_i, d_j) into (gcd, lcm), which leaves a divisibility
    chain.  Invariant factors are nonnegative, so d is canonical; P and Q
    are not.
    """
    m, n = a.rows, a.cols
    A = a.to_rows()
    left = IntMatrix.identity(m).to_rows()  # P
    right = IntMatrix.identity(n).to_rows()  # Q transposed
    transposed = False  # A holds the transpose, and left and right are swapped
    while True:
        width = len(A[0])
        rows = _echelon([x + c for x, c in zip(A, left)], width)
        A = [r[:width] for r in rows]
        left = [r[width:] for r in rows]
        if _is_diagonal(A):
            break
        A = [list(col) for col in zip(*A)]
        left, right = right, left
        transposed = not transposed
    if transposed:
        left, right = right, left
    d = [A[i][i] for i in range(min(m, n))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            x, y = d[i], d[j]
            if y % x == 0 if x else not y:
                continue
            g, s, t = _xgcd(x, y)
            x, y = x // g, y // g
            # [[s, t], [-y, x]] diag(d_i, d_j) [[1, -t y], [1, s x]] = diag(g, g x y)
            pi, pj = left[i], left[j]
            left[i] = [s * e + t * f for e, f in zip(pi, pj)]
            left[j] = [x * f - y * e for e, f in zip(pi, pj)]
            qi, qj = right[i], right[j]
            right[i] = [e + f for e, f in zip(qi, qj)]
            right[j] = [s * x * f - t * y * e for e, f in zip(qi, qj)]
            d[i], d[j] = g, g * x * y
    p = IntMatrix(m, m, tuple(x for row in left for x in row))
    q_right = IntMatrix(n, n, tuple(x for col in zip(*right) for x in col))
    return SmithDecomposition(p, q_right, tuple(d))


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
    """gcd(d_i, N) for each invariant factor d_i of a square a, for any N = modulus >= 1.

    Elimination runs without transforms on entries reduced symmetrically
    mod N, so it reduces the rows of a plus N Z^n (Domich, Kannan & Trotter
    1987), whose cokernel is the sum of Z/gcd(d_i, N), with gcd(0, N) = N.
    It leaves gcd(pivot, N) for each pivot, and N for each pivot of a zero
    remaining block.  When N is a multiple of the last invariant factor, the
    result is d itself.  An entry below the pivot is cleared by subtracting
    a multiple of the pivot row when the pivot divides it, and otherwise by
    one extended-gcd step, which lowers the pivot to the gcd of the two.
    Column steps run as row steps on the transpose, which has the same
    diagonal.
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

