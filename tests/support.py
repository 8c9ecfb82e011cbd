"""Helpers that only the tests need."""

import math
import operator
import re
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from cslindex.isometry import NotOrthogonal, RationalIsometry
from cslindex.matrices import IntMatrix, RatMatrix, _parse_header_and_tokens
from cslindex.normalform import _echelon, _reduce, _xgcd


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


def transpose(a: IntMatrix) -> IntMatrix:
    """The transpose of a."""
    return IntMatrix(a.cols, a.rows, tuple(x for col in a.columns() for x in col))


def transpose_inverse(a: RationalIsometry) -> RationalIsometry:
    """The inverse, which for an isometry is the transpose."""
    return RationalIsometry(a.q, transpose(a.z))


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


def matrices(max_dim=4, lo=-9, hi=9, dims=None):
    """Hypothesis strategy for integer matrices with entries in [lo, hi]: dims draws (rows, cols)."""

    def build(dims):
        m, n = dims
        return st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(IntMatrix.from_rows)

    if dims is None:
        dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(build)


def minors_gcd_reference(a: IntMatrix, i: int) -> int:
    """Reference for delta_i: the gcd of the determinants of all i x i minors, one by one.

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


def residue_image_size_reference(z: IntMatrix, q: int) -> int:
    """Reference for residue_image_size: subgroup closure over tuples mod the whole of q.

    Column by column, the group H grows by the cosets H + g, H + 2g, ... up
    to the first multiple of g that lies in H; q is not split into parts.
    """
    group = {(0,) * z.rows}
    for col in z.columns():
        g = tuple(x % q for x in col)
        base = list(group)
        step = g
        while step not in group:
            group.update(tuple((a + b) % q for a, b in zip(h, step)) for h in base)
            step = tuple((a + b) % q for a, b in zip(step, g))
    return len(group)


# ASCII, Arabic-Indic, Devanagari and fullwidth digits: int() and Fraction read all four
DIGITS = "0123456789" + "٠١٢٣٤٥٦٧٨٩" + "०१२३४५६७८९" + "０１２３４５６７８９"


def matrix_tokens():
    """Matrix entries: integers and p/q with signs, leading zeros, zero denominators,
    decimals, exponents, underscores, non-ASCII digits, and malformed strings."""
    sign = st.sampled_from(["", "-", "+"])
    ascii_digits = st.text("0123456789", min_size=1, max_size=5)
    any_digits = st.one_of(ascii_digits, st.text(DIGITS, min_size=1, max_size=4))
    integer = st.tuples(sign, any_digits).map("".join)
    ratio = st.tuples(integer, any_digits).map("/".join)
    decimal = st.tuples(sign, st.text("0123456789", max_size=3), st.text("0123456789", max_size=3)).map(
        lambda t: f"{t[0]}{t[1]}.{t[2]}"
    )
    exponent = st.tuples(st.one_of(integer, decimal), st.sampled_from("eE"), sign, st.integers(0, 3)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}"
    )
    underscored = st.lists(ascii_digits, min_size=1, max_size=3).map("_".join).flatmap(
        lambda t: st.sampled_from([t, f"_{t}", f"{t}_", t.replace("_", "__"), f"{t}/1_0"])
    )
    malformed = st.one_of(
        st.sampled_from(["x", "1/", "/2", "1//2", "--1", "+-1", "3/-5", "1/2/3", "nan", "inf", "0x10", "1.2.3", "e5", "/"]),
        st.text("0123456789-+/._eE", min_size=1, max_size=6),
    )
    return st.one_of(integer, ratio, decimal, exponent, underscored, malformed)


_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def _token_error(token: str) -> str:
    """The parser's text for a rejected token: quoted up to 64 characters, its length beyond."""
    return f"invalid token {token!r}" if len(token) <= 64 else f"invalid token of {len(token)} characters"


def _fraction_reference(token: str) -> Fraction:
    """Fraction(token) with the underscores taken out of each digit run, so that
    Python 3.10 reads the grammar of 3.11+, and with the parser's error texts.

    An exponent beyond 4300 in absolute value is an error; the token is first
    read with that exponent set to 0, so one malformed elsewhere is an invalid
    token.  Every rejection by Fraction but int()'s limit on digits, which the
    parser meets too, becomes the invalid-token text.
    """
    plain = _DIGIT_RUN.sub(lambda run: run[0].replace("_", ""), token)
    exponent = re.fullmatch(r"(.*[eE][-+]?)(\d+)", plain)
    large = exponent is not None and int(exponent[2]) > 4300
    try:
        value = Fraction(exponent[1] + "0" if large else plain)
    except (ValueError, ZeroDivisionError) as exc:
        if str(exc).startswith("Exceeds the limit"):
            raise
        raise ValueError(_token_error(token)) from None
    if large:
        raise ValueError("exponent beyond 4300 in absolute value")
    return value


def parse_rat_matrix_reference(text: str) -> RatMatrix:
    """Reference for parse_rat_matrix: every token through Fraction's string parser,
    with exponents bounded and the parser's error texts."""
    body = _parse_header_and_tokens(text)
    try:
        rows = [[_fraction_reference(t) for t in row] for row in body]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        num = IntMatrix.from_rows([[x.numerator * (den // x.denominator) for x in row] for row in rows])
        return RatMatrix.make(num, den)
    except ValueError as exc:
        raise ValueError(f"bad rational matrix: {exc}") from exc


def det(a: IntMatrix) -> int:
    """Reference determinant by fraction-free (Bareiss) elimination."""
    if not a.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by the Bareiss identity
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Reference Hermite normal form, row style, of a full-column-rank matrix.

    The result keeps only the nonzero rows: the canonical basis of the row
    lattice of a.
    """
    if a.rows < a.cols:
        raise ValueError("hermite_normal_form expects rows >= cols")
    rows = _echelon(a.to_rows(), a.cols)
    rank = sum(1 for r in rows if any(r))
    if rank < a.cols:
        raise ValueError(f"rank-deficient input: rank {rank} < {a.cols} columns")
    # each row ends reduced by every row below it, taken in increasing order
    for i in range(rank):
        for k in range(i + 1, rank):
            _reduce(rows[i], rows[k], k)
    return IntMatrix.from_rows(rows[:rank])


def rotation_direct_sum(copies: int) -> tuple[str, int]:
    """Text of the direct sum of `copies` equal 2 x 2 rotations, and the hypotenuse c.

    The rotation is (1/c) [[a, -b], [b, a]] for the primitive triple
    (m^2 - 1, 2m, m^2 + 1) with m = 10^150, so c has 301 digits.  A 2 x 2
    rotation has index c, and indices of a direct sum multiply, so
    Sigma = c^copies: 4,501 digits at 15 copies, past the 4,300 that
    Python converts between int and str by default.
    """
    m = 10**150
    a, b, c = m * m - 1, 2 * m, m * m + 1
    n = 2 * copies
    rows = [["0"] * n for _ in range(n)]
    for k in range(0, n, 2):
        rows[k][k] = rows[k + 1][k + 1] = f"{a}/{c}"
        rows[k][k + 1], rows[k + 1][k] = f"{-b}/{c}", f"{b}/{c}"
    return f"{n} {n}\n" + "".join(" ".join(row) + "\n" for row in rows), c


def wrong_xgcd(g_off: int = 0, s_factor: int = 1):
    """normalform._xgcd with its gcd moved by g_off and its first Bezout coefficient scaled by s_factor."""

    def xgcd(a: int, b: int) -> tuple[int, int, int]:
        g, s, t = _xgcd(a, b)
        return g + g_off, s * s_factor, t

    return xgcd
