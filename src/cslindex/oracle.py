"""Formula-independent oracles for the coincidence index, and `ROUTES`, every route to it.

Two oracles that never look at the invariant factors of Z:

* subgroup closure: Z^n ∩ Y Z^n = Y M with M = {x : Z x ≡ 0 (mod q)};
  M contains q Z^n, so Sigma(Y) = [Z^n : M] = q^n / #ker(Z mod q), which
  is |im(Z mod q)|, the order of the subgroup of (Z/q)^n spanned by the
  columns of Z.  The closure runs once per coprime part q_j of q and
  multiplies the orders (Chinese remainder theorem), so it visits
  Sigma_j elements per part, not their product Sigma.
* lattice basis: Z^n ∩ Y Z^n = {w : w Z ≡ 0 (mod q)} is q Λ*, q times
  the dual of the lattice Λ spanned by the columns of Z and q Z^n, since
  w·x ∈ q Z for every x in Λ says exactly that w is integral (x = q e_i)
  and that w Z ≡ 0 (mod q).  One n-wide Hermite elimination gives a
  triangular basis B of Λ, keeping every entry mod q with one extended-gcd
  step per pair of entries (`_xgcd`, all it shares with the Smith
  routines); forward substitution gives q B^-T, and a reduction its
  Hermite form.  No kernel and no transform is computed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .indices import IndexReport, index_closed_form, index_fortes
from .isometry import CrossCheckFailed, RationalIsometry
from .matrices import IntMatrix
from .normalform import _xgcd

DEFAULT_RESIDUE_CAP = 10**7


class CapExceeded(ValueError):
    """q^n residues exceed the enumeration cap; use the HNF oracle instead."""


def _coprime_parts(q: int) -> list[int]:
    """Prime-power parts of q > 0, in increasing order of their primes; none for q = 1.

    Trial division runs while d^2 is at most the cofactor that is left, and
    that cofactor, when it exceeds 1, is one more part.  Through
    index_by_counting, q^n <= cap, so that is at most sqrt(cap^(1/n)) steps:
    about 3,163 at the default cap with n = 1.
    """
    parts = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            part = 1
            while q % d == 0:
                q //= d
                part *= d
            parts.append(part)
        d += 1
    if q > 1:
        parts.append(q)
    return parts


def _closure_size(z: IntMatrix, m: int) -> int:
    """Order of the subgroup of (Z/m)^rows spanned by the columns of Z mod m.

    Closure one generator at a time: for a column g outside the group H
    built so far, H grows by the cosets H + g, H + 2g, ... up to the first
    multiple of g that lies in H.  A residue vector is one int with a field
    of w = m.bit_length() + 2 bits per row, row i at bits w*i up, so h + s
    is one addition.  Fields of h and s lie in [0, m), so each field of
    x = h + s is below 2m < 2^(w-1) and no field carries into the next.
    Adding c, which holds 2^(w-1) - m in every field, leaves each field
    below 2^(w-1) + m < 2^w, still without a carry, and sets its top bit
    exactly when the field of x is at least m.  So
    x - (((x + c) & top) >> (w - 1)) * m, with top the top bit of every
    field, takes m from exactly those fields and brings each into [0, m).
    """
    w = m.bit_length() + 2
    shift = w - 1
    ones = sum(1 << (w * i) for i in range(z.rows))
    c = ((1 << shift) - m) * ones
    top = ones << shift
    group = {0}
    for col in z.columns():
        g = sum((x % m) << (w * i) for i, x in enumerate(col))
        base = tuple(group)
        step = g
        while step not in group:
            step_c = step + c
            group.update([h + step - (((h + step_c) & top) >> shift) * m for h in base])
            x = step + g
            step = x - (((x + c) & top) >> shift) * m
    return len(group)


def residue_image_size(z: IntMatrix, q: int) -> int:
    """Order of the subgroup of (Z/q)^rows spanned by the columns of Z mod q.

    By the Chinese remainder theorem it is the product, over the coprime
    parts q_j of q, of the orders of the images mod q_j, so the closure
    visits the elements of one part's image at a time.
    """
    return math.prod(_closure_size(z, m) for m in _coprime_parts(q))


def index_by_counting(
    y: RationalIsometry, cap: int = DEFAULT_RESIDUE_CAP
) -> IndexReport:
    """Sigma as |im(Z mod q)| by subgroup closure; independent of normal forms.

    The report keeps the kernel count q^n / Sigma as its second factor.
    """
    q_n = y.q**y.n
    if q_n > cap:
        # q^n may be too long for str(), so the text names its parts
        raise CapExceeded(f"q^n exceeds the cap {cap} (n = {y.n}, q has {y.q.bit_length()} bits)")
    sigma = residue_image_size(y.z, y.q)
    return IndexReport(sigma, "oracle_count", (y.q, q_n // sigma))


@dataclass(frozen=True)
class IntersectionBasis:
    """Rows of basis generate Z^n ∩ Y Z^n; index is |det basis|."""

    basis: IntMatrix

    @property
    def index(self) -> int:
        """Product of the diagonal of the triangular basis."""
        return math.prod(self.basis.entries[:: self.basis.cols + 1])


def _dual_hermite_mod(z: IntMatrix, q: int) -> IntMatrix:
    """Row Hermite basis of {w : w Z ≡ 0 (mod q)} = q Λ*, Λ spanned by the columns of Z and q Z^n.

    w ∈ q Λ* iff w·x ∈ q Z for every x in Λ: x = q e_i makes w integral,
    and the columns of Z give w Z ≡ 0 (mod q).  The rows of B^-T are the
    dual basis of the rows of any basis B of Λ, so the rows of q B^-T span
    q Λ*.  No orthogonality of Y is used.

    1. A lower-triangular basis B of Λ, row b_j with pivot b_jj at j.  The
       columns of Z enter as rows reduced mod q, and Λ holds q Z^n, so
       every entry is kept mod q (Domich, Kannan & Trotter 1987).  From
       column n - 1 down to 0, one extended-gcd step per nonzero row folds
       the rows into one row r and leaves the others zero there.  With
       p = gcd(r_j, q) = u r_j + v q, b_j is u r mod q, and (q / p) r, which
       is zero at j mod q, rejoins the rows; a column with no nonzero row
       gets b_j = q e_j.
    2. The rows w_i of q B^-T, upper triangular, by forward substitution on
       w_i·b_j = q [i = j]: w_ii = q / b_ii, and w_ij for j > i is
       -sum_{i <= k < j} w_ik b_jk divided by b_jj, then kept mod q.  That
       moves w_i·b_j by a multiple of q, so w_i stays in q Λ*, and as q e_j
       lies in Λ every later division is still exact.  A remainder in
       either division means B is not a basis of such a Λ: CrossCheckFailed.
    3. Entries above each pivot are reduced into [0, pivot), bottom up.
    """
    n = z.rows
    rows = [row for row in ([x % q for x in col] for col in z.columns()) if any(row)]
    lower = [None] * n
    for j in range(n - 1, -1, -1):
        # every row has length j + 1: the entries after j are zero and dropped
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
                    row = [(e - c * f) % q for f, e in zip(r, row)]
                else:
                    g, s, u = _xgcd(x, y)
                    x, y = x // g, y // g
                    r, row = (
                        [(s * f + u * e) % q for f, e in zip(r, row)],
                        [(y * f - x * e) % q for f, e in zip(r, row)],
                    )
                if not any(row):
                    continue
            rest.append(row)
        if r is None:
            lower[j] = [0] * j + [q]
        else:
            p, u, _ = _xgcd(r[j], q)
            lower[j] = [u * e % q for e in r]  # u r_j = p mod q, and p < q
            if p > 1:
                r = [q // p * e % q for e in r]
                if any(r):
                    rest.append(r)
        for row in rest:
            row.pop()
        rows = rest
    for j, b in enumerate(lower):
        if not b[j] or q % b[j]:
            raise CrossCheckFailed(f"HNF oracle: the pivot of column {j} does not divide q")
    basis = []
    for i in range(n):
        w = [0] * i + [q // lower[i][i]]
        for j in range(i + 1, n):
            bj = lower[j]
            c, rem = divmod(-sum(map(operator.mul, w[i:], bj[i:j])), bj[j])
            if rem:
                raise CrossCheckFailed(f"HNF oracle: forward substitution leaves a remainder in column {j}")
            w.append(c % q)
        basis.append(w)
    for i in range(n - 2, -1, -1):
        bi = basis[i]
        for j in range(i + 1, n):
            bj = basis[j]
            c = bi[j] // bj[j]
            if c:
                bi[j] -= c * bj[j]
                bi[j + 1 :] = [(e - c * f) % q for e, f in zip(bi[j + 1 :], bj[j + 1 :])]
    return IntMatrix(n, n, tuple(x for row in basis for x in row))


def intersection_hnf(y: RationalIsometry) -> IntersectionBasis:
    """Canonical basis of the coincidence sublattice via Hermite reduction mod q.

    Z^n ∩ Y Z^n = {w : w Z ≡ 0 (mod q)}, which is q times the dual of the
    lattice spanned by the columns of Z and q Z^n, so its Hermite basis
    comes from one n-wide elimination of that lattice.
    """
    return IntersectionBasis(_dual_hermite_mod(y.z, y.q))


def index_by_hnf(y: RationalIsometry) -> IndexReport:
    basis = intersection_hnf(y)
    return IndexReport(basis.index, "oracle_hnf", basis.basis.entries[:: y.n + 1])


# Every route to Sigma(Y), keyed by the method on its report, in the order verify
# prints them, as (reads the Smith diagonal, run(y, cap)).  Each entry looks its
# route up when it runs, so a patched module attribute is seen.
ROUTES = {
    "fortes": (True, lambda y, cap: index_fortes(y)),
    "closed_form": (True, lambda y, cap: index_closed_form(y)),
    "oracle_hnf": (False, lambda y, cap: index_by_hnf(y)),
    "oracle_count": (False, lambda y, cap: index_by_counting(y, cap)),
}


def run_routes(y: RationalIsometry, cap: int = DEFAULT_RESIDUE_CAP, methods=ROUTES):
    """Reports of the routes in methods, in that order, and "<method> skipped: <why>" per capped one."""
    reports, skipped = [], []
    for method in methods:
        try:
            reports.append(ROUTES[method][1](y, cap))
        except CapExceeded as exc:
            skipped.append(f"{method} skipped: {exc}")
    return reports, skipped
