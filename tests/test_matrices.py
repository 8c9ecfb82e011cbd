import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslindex.matrices import (
    IntMatrix,
    RatMatrix,
    format_int_matrix,
    format_rat_matrix,
    mat_mul,
    parse_int_matrix,
    parse_rat_matrix,
)
from cslindex.indices import _row_blocks_minors_gcd
from support import det, diagonal_matrix, matrix_tokens, parse_rat_matrix_reference, transpose

Z_ROT = IntMatrix.from_rows([[3, -4], [4, 3]])

def assert_parses_like_reference(text):
    """parse_rat_matrix gives the reference's RatMatrix, or a ValueError with the same text."""
    try:
        want = parse_rat_matrix_reference(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_rat_matrix(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_rat_matrix(text) == want


def square_matrices(n, lo=-9, hi=9):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(IntMatrix.from_rows)


class TestMatMul:
    def test_identity(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert mat_mul(IntMatrix.identity(3), a) == a

    def test_hand_product(self):
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [1, 1]])
        assert mat_mul(a, b) == IntMatrix.from_rows([[2, 1], [1, 1]])

    def test_orthogonality_fixture(self):
        assert mat_mul(Z_ROT, transpose(Z_ROT)) == diagonal_matrix((25, 25), 2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(IntMatrix.identity(2), IntMatrix.identity(3))

    @settings(max_examples=50)
    @given(square_matrices(3), square_matrices(3), square_matrices(3))
    def test_associative(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(4)) == 1

    def test_cofactor_fixture(self):
        assert det(Z_ROT) == 25

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_non_square(self):
        with pytest.raises(ValueError):
            det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=60)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
    def test_multiplicative(self, pair):
        a, b = pair
        assert det(mat_mul(a, b)) == det(a) * det(b)

    def test_big_entries_exact(self):
        a = IntMatrix.from_rows([[10**20, 1], [1, 10**20]])
        assert det(a) == 10**40 - 1


class TestMinorsGcd:
    """delta_i over every block of i rows, as index_closed_form takes it for odd n."""

    def test_full_minor(self):
        assert _row_blocks_minors_gcd(Z_ROT, 2, holding_row_0=False) == 25

    def test_block_diag(self):
        block = IntMatrix.from_rows(
            [[3, -4, 0, 0], [4, 3, 0, 0], [0, 0, 3, -4], [0, 0, 4, 3]]
        )
        # mixed-block 2x2 minors include 9, -12 and 16, whose gcd is 1
        assert _row_blocks_minors_gcd(block, 2, holding_row_0=False) == 1

    def test_all_minors_zero(self):
        assert _row_blocks_minors_gcd(IntMatrix.from_rows([[1, 2], [2, 4]]), 2, holding_row_0=False) == 0

    @settings(max_examples=50)
    @given(square_matrices(3))
    def test_order_one_is_entry_gcd(self, a):
        assert _row_blocks_minors_gcd(a, 1, holding_row_0=False) == math.gcd(*a.entries)


class TestTextFormat:
    def test_int_round_trip(self):
        a = IntMatrix.from_rows([[1, -2], [30, 4], [0, 7]])
        assert parse_int_matrix(format_int_matrix(a)) == a

    def test_rat_round_trip(self):
        m = RatMatrix.make(Z_ROT, 5)
        assert parse_rat_matrix(format_rat_matrix(m)) == m

    def test_rat_canonicalization(self):
        scaled = parse_rat_matrix("2 2\n6/10 -8/10\n8/10 6/10")
        assert scaled == RatMatrix.make(Z_ROT, 5)

    @pytest.mark.parametrize(
        "text",
        ["", "2\n1 2", "2 2\n1 2\n3", "2 2\n1 2\n3 x", "1 1\n1/0"],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rat_matrix(text)

    @settings(max_examples=200)
    @given(
        st.integers(1, 3).flatmap(
            lambda cols: st.lists(st.lists(matrix_tokens(), min_size=cols, max_size=cols), min_size=1, max_size=3)
        )
    )
    def test_rat_matches_fraction_parser(self, grid):
        assert_parses_like_reference(
            f"{len(grid)} {len(grid[0])}\n" + "".join(" ".join(row) + "\n" for row in grid)
        )

    @pytest.mark.parametrize(
        "token",
        ["3/-5", "3/0", "0/0", "1/00", "1.5", "1e3", "1_000", "٣/٥", "0005/0010", "-0/7", "+12/08"]
        + ["6e-1", "-.25", "1e4300", "-2.5E-0_4_3_0_0", "1e٠٠٠٠٠٠٥"]
        # past int()'s default limit of 4300 digits
        + [pytest.param("1" * 5000, id="5000-digit"), pytest.param("1/" + "2" * 5000, id="5000-digit-q")],
    )
    def test_rat_edge_token_matches_fraction_parser(self, token):
        assert_parses_like_reference(f"1 2\n{token} 1/3\n")

    @pytest.mark.parametrize(
        "token", ["1e1000000", "1e-1000000", "1e1_000_000", "1e4301", "-2.5E-0_4_3_0_1", "1e٠٠٠٠٤٣٠١"]
    )
    def test_exponent_bound(self, token):
        # Fraction would make 10^|exponent|; the parser rejects the token first
        with pytest.raises(ValueError, match="^bad rational matrix: exponent beyond 4300 in absolute value$"):
            parse_rat_matrix(f"1 2\n{token} 1/3\n")

    @pytest.mark.parametrize(
        "token, text",
        [
            ("x" * 64, "Invalid literal for Fraction: '" + "x" * 64 + "'"),
            ("x" * 65, "invalid token of 65 characters"),
            ("x" * 10**6, "invalid token of 1000000 characters"),
            ("1" * 62 + "/0", "Fraction(" + "1" * 62 + ", 0)"),
            ("1" * 63 + "/0", "invalid token of 65 characters"),
        ],
        ids=["64-echoed", "65", "million", "p/0-echoed", "p/0-long"],
    )
    def test_fraction_error_text_bounded(self, token, text):
        # Fraction's texts echo the token; past 64 characters the token is named by its length
        with pytest.raises(ValueError) as exc:
            parse_rat_matrix(f"1 2\n{token} 1/3\n")
        assert str(exc.value) == f"bad rational matrix: {text}"


class TestRatMatrix:
    def test_make_reduces(self):
        m = RatMatrix.make(IntMatrix.from_rows([[2, 4], [6, 8]]), 10)
        assert m.denominator == 5
        assert m.numerator == IntMatrix.from_rows([[1, 2], [3, 4]])

    def test_negative_denominator(self):
        m = RatMatrix.make(IntMatrix.from_rows([[1, -2]]), -3)
        assert m.denominator == 3
        assert m.numerator == IntMatrix.from_rows([[-1, 2]])

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix(IntMatrix.from_rows([[2, 4]]), 6)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatMatrix.make(IntMatrix.from_rows([[1, 2]]), 0)

    @settings(max_examples=200)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.one_of(
                square_matrices(n, -30, 30),
                st.just(IntMatrix(n, n, (0,) * (n * n))),
                square_matrices(n).map(lambda a: IntMatrix(n, n, tuple(6 * e for e in a.entries))),
            )
        ),
        st.integers(1, 60),
        st.sampled_from((1, -1)),
    )
    def test_make_is_lowest_terms(self, numerator, size, sign):
        d = sign * size
        m = RatMatrix.make(numerator, d)
        assert m.denominator > 0
        assert math.gcd(m.denominator, *m.numerator.entries) == 1
        for i in range(numerator.rows):
            for j in range(numerator.cols):
                assert m.entry(i, j) == Fraction(numerator.at(i, j), d)
