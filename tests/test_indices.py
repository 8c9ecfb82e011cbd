import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslindex.indices import (
    CoprimalityViolated,
    index_closed_form,
    index_coprime_product,
    index_fortes,
    index_reflection,
    palindrome_factors,
)
from cslindex.isometry import (
    RationalIsometry,
    compose,
    from_rational_matrix,
    identity_isometry,
    random_corpus,
    random_isometry,
    reflection,
    transpose_inverse,
)
from cslindex.matrices import IntMatrix, RatMatrix
from cslindex.normalform import smith_normal_form
from cslindex.oracle import index_by_hnf

ROT_2D = from_rational_matrix(
    RatMatrix.make(IntMatrix.from_rows([[3, -4], [4, 3]]), 5)
)
ROT_4D = from_rational_matrix(
    RatMatrix.make(
        IntMatrix.from_rows([[3, -4, 0, 0], [4, 3, 0, 0], [0, 0, 3, -4], [0, 0, 4, 3]]),
        5,
    )
)


class TestFortes:
    def test_identity(self):
        assert index_fortes(identity_isometry(3)).sigma == 1

    def test_planar_rotation(self):
        report = index_fortes(ROT_2D)
        assert report.sigma == 5
        assert report.factors == (1, 25)

    def test_double_rotation(self):
        assert index_fortes(ROT_4D).sigma == 25


class TestClosedForm:
    def test_three_dimensional_is_q(self):
        for y in random_corpus(3, 30, 11):
            assert index_closed_form(y).sigma == y.q

    def test_double_rotation(self):
        report = index_closed_form(ROT_4D)
        assert report.sigma == 25
        assert report.factors == (5, 1)  # q and delta_2

    def test_reflection_cross_check(self):
        assert index_closed_form(reflection((1, 1, 1))).sigma == 3

    def test_agrees_with_fortes(self):
        for n in (2, 3, 4, 5):
            for y in random_corpus(n, 15, 300 + n):
                assert index_fortes(y).sigma == index_closed_form(y).sigma


class TestReflectionFormula:
    def test_coordinate_axis(self):
        assert index_reflection((1, 0, 0)).sigma == 1

    def test_odd_branch(self):
        assert index_reflection((1, 1, 1)).sigma == 3

    def test_even_branch(self):
        assert index_reflection((1, 1, 1, 1)).sigma == 2

    def test_matches_machinery(self):
        for v in [(3, 2, 1), (1, 2, 0), (4, 1, 1, 1), (2, 2, 1, 1, 1)]:
            assert index_reflection(v).sigma == index_fortes(reflection(v)).sigma

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            index_reflection((0, 0))


class TestCoprimeProduct:
    def test_single_factor(self):
        assert index_coprime_product([(1, 1, 1)]).sigma == 3

    def test_coprime_pair(self):
        report = index_coprime_product([(1, 1, 1), (1, 2, 0)])
        assert report.sigma == 15
        assert report.factors == (3, 5)

    def test_repeated_reflection_rejected(self):
        with pytest.raises(CoprimalityViolated) as exc:
            index_coprime_product([(1, 1, 1), (1, 1, 1)])
        assert exc.value.pair == (0, 1)

    def test_shared_factor_rejected(self):
        with pytest.raises(CoprimalityViolated):
            index_coprime_product([(1, 1, 1), (2, 1, 1)])  # r = 3 and 6


class TestPalindromeFactors:
    def test_identity(self):
        assert palindrome_factors(identity_isometry(3)) == ((1, 1), (1, 1))

    def test_planar_rotation(self):
        assert palindrome_factors(ROT_2D) == ((1, 25),)

    def test_reflection(self):
        assert palindrome_factors(reflection((1, 1, 1))) == ((1, 9), (3, 3))

    def test_products_equal_q_squared(self):
        for n in (2, 3, 4, 5):
            for y in random_corpus(n, 10, 500 + n):
                for a, b in palindrome_factors(y):
                    assert a * b == y.q * y.q


class TestInvariantFactorStructure:
    def test_reflection_factors_above_two_dimensions(self):
        # (1, q, ..., q, q^2) for n > 2
        for v in [(1, 1, 1), (3, 2, 1), (1, 1, 1, 1), (2, 2, 1, 1, 1)]:
            r = reflection(v)
            d = smith_normal_form(r.z).d
            assert d == (1,) + (r.q,) * (r.n - 2) + (r.q * r.q,)

    def test_two_dimensional_exception(self):
        # for n = 2 the middle run is empty and d = (1, q^2)
        r = reflection((2, 1))
        assert smith_normal_form(r.z).d == (1, r.q * r.q)

    def test_factor_divisibility_split(self):
        # d_i | q below the middle, q | d_i above it
        for y in random_corpus(4, 10, 600) + random_corpus(5, 10, 601):
            d = smith_normal_form(y.z).d
            m = y.n // 2
            for i, di in enumerate(d, start=1):
                if i <= m:
                    assert y.q % di == 0
                else:
                    assert di % y.q == 0

    def test_sigma_invariant_under_transpose(self):
        for n in (2, 3, 4):
            for y in random_corpus(n, 10, 700 + n):
                assert index_fortes(y).sigma == index_fortes(transpose_inverse(y)).sigma


@st.composite
def isometries(draw, dims=st.integers(2, 12)):
    n = draw(dims)
    k = draw(st.integers(0, n))
    bound = draw(st.integers(1, 8))
    return random_isometry(n, k, bound, draw(st.integers(0, 2**32 - 1)))


class TestIsometryProperties:
    @settings(max_examples=40, deadline=None)
    @given(isometries())
    def test_diagonal_mod_q_squared_is_smith_diagonal(self, y):
        assert y.invariant_factors == smith_normal_form(y.z).d

    @settings(max_examples=40, deadline=None)
    @given(isometries())
    def test_palindromic_products(self, y):
        d = y.invariant_factors
        assert all(d[i] * d[y.n - 1 - i] == y.q * y.q for i in range(y.n))

    @settings(max_examples=40, deadline=None)
    @given(isometries())
    def test_sigma_invariant_under_transpose(self, y):
        yt = transpose_inverse(y)
        sigma = index_fortes(y).sigma
        assert index_fortes(yt).sigma == sigma
        assert index_by_hnf(y).sigma == index_by_hnf(yt).sigma == sigma

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_sigma_invariant_under_signed_permutation(self, data):
        y = data.draw(isometries(st.integers(2, 7)))
        n = y.n
        perm = data.draw(st.permutations(range(n)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        p = RationalIsometry(
            n,
            1,
            IntMatrix.from_rows(
                [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            ),
        )
        conjugate = compose(transpose_inverse(p), compose(y, p))  # P^T Y P
        sigma = index_fortes(y).sigma
        assert index_fortes(conjugate).sigma == sigma
        assert index_by_hnf(conjugate).sigma == index_by_hnf(y).sigma == sigma

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(isometries(st.just(n)), isometries(st.just(n)))
        )
    )
    def test_sigma_of_product_divides_product_of_sigmas(self, pair):
        # Baake 1997: Sigma(Y1 Y2) | Sigma(Y1) Sigma(Y2), with equality for coprime indices
        y1, y2 = pair
        s1, s2 = index_fortes(y1).sigma, index_fortes(y2).sigma
        product = compose(y1, y2)
        s12 = index_fortes(product).sigma
        assert index_by_hnf(product).sigma == s12
        assert (s1 * s2) % s12 == 0
        if math.gcd(s1, s2) == 1:
            assert s12 == s1 * s2
