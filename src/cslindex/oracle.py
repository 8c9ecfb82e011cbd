"""Formula-independent computation of the coincidence index.

Two oracles that never look at the invariant factors of Z:

* subgroup closure: Z^n ∩ Y Z^n = Y M with M = {x : Z x ≡ 0 (mod q)};
  M contains q Z^n, so Sigma(Y) = [Z^n : M] = q^n / #ker(Z mod q), which
  is |im(Z mod q)|, the order of the subgroup of (Z/q)^n spanned by the
  columns of Z.  The closure visits those Sigma elements only.
* lattice basis: one Hermite form of the lattice spanned by the rows of
  [Z | I] and q Z^2n, which is {(w Z + q k, w + q l)}.  Its last n rows
  span the vectors with first half zero, (0, w) with w Z ≡ 0 (mod q), and
  those w make up Z^n ∩ Y Z^n.  The lattice holds q Z^2n, so the
  elimination keeps every entry mod q, with one extended-gcd step per pair
  of entries; no kernel and no transform is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .indices import IndexReport
from .isometry import RationalIsometry
from .matrices import IntMatrix
from .normalform import _hermite_tail_mod

DEFAULT_RESIDUE_CAP = 10**7


class CapExceeded(ValueError):
    """q^n residues exceed the enumeration cap; use the HNF oracle instead."""


def residue_image_size(z: IntMatrix, q: int) -> int:
    """Order of the subgroup of (Z/q)^rows spanned by the columns of Z mod q.

    Closure one generator at a time: for a column g outside the group H
    built so far, H grows by the cosets H + g, H + 2g, ... up to the first
    multiple of g that lies in H.
    """
    group = {(0,) * z.rows}
    for j in range(z.cols):
        g = tuple(z.at(i, j) % q for i in range(z.rows))
        base = tuple(group)
        step = g
        while step not in group:
            group.update(tuple((a + b) % q for a, b in zip(h, step)) for h in base)
            step = tuple((a + b) % q for a, b in zip(step, g))
    return len(group)


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


def intersection_hnf(y: RationalIsometry) -> IntersectionBasis:
    """Canonical basis of the coincidence sublattice via Hermite reduction mod q.

    In the echelon basis of [Z | I] + q Z^2n the rows with n leading zeros
    span the lattice vectors that start with n zeros (Cohen 1993, §2.4), so
    the right n x n block of the last n rows is the Hermite basis of
    {w : w Z ≡ 0 (mod q)} = Z^n ∩ Y Z^n.
    """
    n, q, z = y.n, y.q, y.z
    unit = IntMatrix.identity(n)
    stacked = tuple(x for i in range(n) for x in z.row(i) + unit.row(i))
    return IntersectionBasis(_hermite_tail_mod(IntMatrix(n, 2 * n, stacked), q, n))


def index_by_hnf(y: RationalIsometry) -> IndexReport:
    basis = intersection_hnf(y)
    return IndexReport(basis.index, "oracle_hnf", basis.basis.entries[:: y.n + 1])
