import contextlib
import math
from collections import defaultdict
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslindex import indices, isometry
from cslindex.indices import (
    CoprimalityViolated,
    _row_blocks_minors_gcd,
    index_closed_form,
    index_coprime_product,
    index_fortes,
    index_reflection,
)
from cslindex.isometry import (
    CrossCheckFailed,
    RationalIsometry,
    compose,
    from_rational_matrix,
    identity_isometry,
    random_corpus,
    random_isometry,
    reflection,
)
from cslindex.matrices import IntMatrix, RatMatrix
from cslindex.normalform import smith_normal_form
from cslindex.oracle import CapExceeded, index_by_counting, index_by_hnf
from support import det, matrices, minors_gcd_reference, transpose, transpose_inverse

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

    @staticmethod
    def even_route(y):
        """delta_m as the closed form's cross-check takes it for even n."""
        return _row_blocks_minors_gcd(y.z, y.n // 2, holding_row_0=True)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_route_on_identity_and_reflections(self, n):
        for y in [
            identity_isometry(n),
            reflection((1,) * n),
            reflection((1, 2) + (0,) * (n - 2)),
            reflection((3,) + (1,) * (n - 1)),
        ]:
            assert self.even_route(y) == minors_gcd_reference(y.z, n // 2)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 5), st.integers(1, 5), st.integers(0, 10**6))
    def test_even_route_matches_enumeration(self, n, k, bound, seed):
        # over the row blocks that hold row 0 only: Jacobi's identity pairs each
        # block with its complement
        y = random_isometry(n, k, bound, seed)
        assert self.even_route(y) == minors_gcd_reference(y.z, n // 2)


class TestCrossCheckTextsBounded:
    # the library keeps Python's limit of 4,300 digits for int to str, so a text
    # that printed q in full would raise ValueError in place of CrossCheckFailed
    @staticmethod
    def big_rotation():
        """The rotation of the triple (u^2 - v^2, 2uv, u^2 + v^2): q has 15,281 bits, or 4,601 digits."""
        u, v = 10**2300 + 1, 2
        a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
        return RationalIsometry(c, IntMatrix(2, 2, (a, -b, b, a)))

    def test_smith_diagonal_tail(self, monkeypatch):
        y = self.big_rotation()
        monkeypatch.setattr(isometry, "_smith_diagonal_mod", lambda z, modulus: (1,) * z.rows)
        with pytest.raises(CrossCheckFailed) as failed:
            y.invariant_factors
        assert str(failed.value) == (
            "Smith diagonal mod q = an integer of 15281 bits has 1 at position 2, expected q past the middle"
        )

    def test_closed_form_blocks(self, monkeypatch):
        y = self.big_rotation()
        monkeypatch.setattr(indices, "_row_blocks_minors_gcd", lambda z, m, holding_row_0: y.q)
        with pytest.raises(CrossCheckFailed) as failed:
            index_closed_form(y)
        assert str(failed.value).endswith("row blocks: 1 against an integer of 15281 bits")


def minors_gcd_holding_row_0(a: IntMatrix, i: int) -> int:
    """Reference: the gcd of the i x i minors of a on sets of rows that hold row 0, one by one."""
    return math.gcd(
        *(
            det(IntMatrix.from_rows([[a.at(r, c) for c in cols] for r in (0, *rest)]))
            for rest in combinations(range(1, a.rows), i - 1)
            for cols in combinations(range(a.cols), i)
        )
    )


def unit_rows(n: int, block) -> IntMatrix:
    """n x n, zero outside the rows of block, which hold the unit rows e_{n-1}, e_{n-2}, ...

    Its one nonzero minor of order len(block) lies on the rows of block, and is 1 or -1.
    """
    rows = [[0] * n for _ in range(n)]
    for k, r in enumerate(block):
        rows[r][n - 1 - k] = 1
    return IntMatrix.from_rows(rows)


class TestClosedFormRoute:
    """delta_m for the cross-check comes from one call over row blocks of Z."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_call_up_to_dimension_8(self, monkeypatch, n):
        calls = []
        blocks = indices._row_blocks_minors_gcd

        def counted(z, m, holding_row_0):
            calls.append(holding_row_0)
            return blocks(z, m, holding_row_0=holding_row_0)

        monkeypatch.setattr(indices, "_row_blocks_minors_gcd", counted)
        index_closed_form(random_isometry(n, n, 3, n) if n > 1 else identity_isometry(1))
        assert calls == ([n % 2 == 0] if 2 <= n <= 8 else [])

    def test_even_n_takes_half_the_blocks(self):
        # on matrices that are not orthogonal, the blocks that hold row 0 miss what
        # the others carry
        for block in combinations(range(6), 3):
            z = unit_rows(6, block)
            assert minors_gcd_reference(z, 3) == 1
            assert _row_blocks_minors_gcd(z, 3, holding_row_0=True) == (1 if 0 in block else 0)
        # doubling row 0 of an isometry doubles the gcd of the blocks that hold it only
        rows = random_isometry(6, 6, 3, 0).z.to_rows()
        z = IntMatrix.from_rows([[2 * x for x in rows[0]]] + rows[1:])
        got = _row_blocks_minors_gcd(z, 3, holding_row_0=True)
        assert got == minors_gcd_holding_row_0(z, 3) == 2 * minors_gcd_reference(z, 3)

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_n_takes_every_block(self, n):
        # each block alone carries the one nonzero minor, and the walk reaches it
        m = n // 2
        for block in combinations(range(n), m):
            assert _row_blocks_minors_gcd(unit_rows(n, block), m, holding_row_0=False) == 1
        y = random_isometry(n, n, 3, 0)
        assert index_closed_form(y).factors[1] == minors_gcd_reference(y.z, m) > 1

    def test_odd_n_blocks_holding_row_0_are_not_enough(self):
        # Jacobi's identity pairs complementary blocks only when n is even
        y = random_isometry(5, 5, 3, 5)
        assert _row_blocks_minors_gcd(y.z, 2, holding_row_0=True) == 197505
        assert index_closed_form(y).factors == (197505, 65835)


class TestMinorsGcdAgainstEnumeration:
    """The closed form's row-block route to delta_i, over every block of i rows."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            matrices(max_dim=5),  # square, wide and tall
            matrices(dims=st.tuples(st.integers(1, 3), st.integers(4, 7))),  # wide
            matrices(dims=st.tuples(st.integers(4, 7), st.integers(1, 3))),  # tall
        ),
        st.integers(0, 4),
        st.integers(-2, 2),
    )
    def test_matches_enumeration_at_every_order(self, a, repeats, c):
        # c times the first row in place of the last `repeats` rows lowers the rank;
        # for c = 0 they are zero rows
        repeats = min(repeats, a.rows - 1)
        rows = a.to_rows()
        a = IntMatrix.from_rows(rows[: a.rows - repeats] + [[c * x for x in rows[0]]] * repeats)
        for i in range(1, min(a.rows, a.cols) + 1):
            try:
                want = minors_gcd_reference(a, i)
            except ValueError as exc:
                assert "vanish" in str(exc)
                want = 0
            assert _row_blocks_minors_gcd(a, i, holding_row_0=False) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 6), st.integers(1, 6), st.integers(0, 10**6))
    def test_isometry_numerators_match_enumeration(self, n, k, bound, seed):
        z = random_isometry(n, min(k, n), bound, seed).z
        for i in range(1, n + 1):
            assert _row_blocks_minors_gcd(z, i, holding_row_0=False) == minors_gcd_reference(z, i)

    @staticmethod
    def fixed_cases():
        """Numerators at n = 7 and 8, each also with row 1 set to 3 times row 0."""
        for n in (7, 8):
            rows = random_isometry(n, n, 3, 0).z.to_rows()
            yield IntMatrix.from_rows(rows)
            yield IntMatrix.from_rows([rows[0], [3 * x for x in rows[0]]] + rows[2:])

    def test_fixed_cases_at_dimensions_7_and_8(self, monkeypatch):
        # every case takes extended-gcd steps; with row 1 a multiple of row 0, the
        # prefix (0, 1) leaves no column nonzero at row 1, so p = 0 there and the
        # rank is n - 1
        xgcd_steps, pivots = [], []
        xgcd, fold = indices._xgcd, indices._fold

        def counted_xgcd(a, b):
            xgcd_steps.append((a, b))
            return xgcd(a, b)

        def recorded_fold(cols, i):
            p, rest = fold(cols, i)
            pivots.append(p)
            return p, rest

        monkeypatch.setattr(indices, "_xgcd", counted_xgcd)
        monkeypatch.setattr(indices, "_fold", recorded_fold)
        for z in self.fixed_cases():
            for i in range(1, z.rows):
                assert _row_blocks_minors_gcd(z, i, holding_row_0=False) == minors_gcd_reference(z, i)
        assert xgcd_steps
        assert 0 in pivots


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
    """d_i d_{n+1-i} = q^2 for the invariant factors d of Z."""

    def test_identity(self):
        assert identity_isometry(3).invariant_factors == (1, 1, 1)

    def test_planar_rotation(self):
        assert ROT_2D.invariant_factors == (1, 25)

    def test_reflection(self):
        assert reflection((1, 1, 1)).invariant_factors == (1, 3, 9)

    def test_products_equal_q_squared(self):
        for n in (2, 3, 4, 5):
            for y in random_corpus(n, 10, 500 + n):
                d = y.invariant_factors
                assert all(d[i] * d[n - 1 - i] == y.q * y.q for i in range(n))
                d = smith_normal_form(y.z).d
                assert all(d[i] * d[n - 1 - i] == y.q * y.q for i in range(n))


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
        snf = smith_normal_form(y.z).d
        assert all(snf[i] * snf[y.n - 1 - i] == y.q * y.q for i in range(y.n))

    @settings(max_examples=40, deadline=None)
    @given(isometries())
    def test_denominator_divides_sigma_divides_its_power(self, y):
        # the CSL bound q | Sigma | q^m, m = floor(n/2), by the routes that never read d
        sigmas = {index_by_hnf(y).sigma}
        with contextlib.suppress(CapExceeded):
            sigmas.add(index_by_counting(y).sigma)
        for sigma in sigmas:
            assert sigma % y.q == 0
            assert y.q ** (y.n // 2) % sigma == 0

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


def oracle_sigmas(y):
    """Sigma by index_fortes and both oracles.

    Subgroup closure visits Sigma residues, so the counting oracle runs with
    its cap lifted to q^n whenever Sigma is small, even where q^n is large.
    """
    sigma = index_fortes(y).sigma
    sigmas = {sigma, index_by_hnf(y).sigma}
    if sigma <= 4096:
        sigmas.add(index_by_counting(y, y.q**y.n).sigma)
    return sigmas


def all_sigmas(y):
    return oracle_sigmas(y) | {index_closed_form(y).sigma}


def odd_part(m):
    while m % 2 == 0:
        m //= 2
    return m


def quaternion_product(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def quaternion_norm(p):
    return sum(x * x for x in p)


def primitive_quaternions(bound):
    return [p for p in product(range(-bound, bound + 1), repeat=4) if math.gcd(*p) == 1]


def squarefree_part(m):
    f = 2
    while f * f <= m:
        while m % (f * f) == 0:
            m //= f * f
        f += 1
    return m


# |p|^2 |q|^2 is a square exactly when both norms have the same squarefree part
_SAME_SQUARE_CLASS = defaultdict(list)
for _q in primitive_quaternions(2):
    _SAME_SQUARE_CLASS[squarefree_part(quaternion_norm(_q))].append(_q)


def rotation_3d(p):
    """x -> p x conj(p) / |p|^2 on the pure quaternions."""
    conj = (p[0], -p[1], -p[2], -p[3])
    basis = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    images = [quaternion_product(quaternion_product(p, e), conj)[1:] for e in basis]
    columns = transpose(IntMatrix.from_rows(images))
    return from_rational_matrix(RatMatrix.make(columns, quaternion_norm(p)))


def rotation_4d(p, q):
    """x -> p x q / (|p| |q|) on all quaternions."""
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    images = [quaternion_product(quaternion_product(p, e), q) for e in basis]
    columns = transpose(IntMatrix.from_rows(images))
    return from_rational_matrix(
        RatMatrix.make(columns, math.isqrt(quaternion_norm(p) * quaternion_norm(q)))
    )


class TestQuaternionAnchors:
    """The general formulas against the known results for n = 3 and n = 4.

    Grimmer 1974; Baake 1997, "Solution of the coincidence problem in
    dimensions d <= 4".  Composing with the coordinate sign flip, a
    reflection of index 1, must leave Sigma unchanged.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(primitive_quaternions(3)))
    def test_three_dimensions_odd_part_of_norm(self, p):
        y = rotation_3d(p)
        expected = {odd_part(quaternion_norm(p))}
        assert all_sigmas(y) == expected
        assert all_sigmas(compose(y, reflection((1, 0, 0)))) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(primitive_quaternions(2)).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.sampled_from(_SAME_SQUARE_CLASS[squarefree_part(quaternion_norm(p))]),
            )
        )
    )
    def test_four_dimensions_odd_part_is_lcm(self, pq):
        # Baake 1997: the odd part of Sigma is lcm(odd(|p|^2), odd(|q|^2)); the
        # 2-part is that of the denominator of Y, which is 1 or 2
        p, q = pq
        y = rotation_4d(p, q)
        sigmas = all_sigmas(y)
        assert len(sigmas) == 1
        sigma = sigmas.pop()
        odd_lcm = math.lcm(odd_part(quaternion_norm(p)), odd_part(quaternion_norm(q)))
        assert odd_part(sigma) == odd_lcm
        two_part = y.q // odd_part(y.q)
        assert two_part <= 2
        assert sigma == odd_lcm * two_part
        assert all_sigmas(compose(y, reflection((1, 0, 0, 0)))) == {sigma}


def direct_sum(y1, y2):
    """Y1 on the first y1.n coordinates, Y2 on the rest."""
    rows = [[y2.q * x for x in y1.z.row(i)] + [0] * y2.n for i in range(y1.n)]
    rows += [[0] * y1.n + [y1.q * x for x in y2.z.row(i)] for i in range(y2.n)]
    return from_rational_matrix(RatMatrix.make(IntMatrix.from_rows(rows), y1.q * y2.q))


@st.composite
def summands(draw, n):
    """A reflection or a short product of reflections in dimension n, small q."""
    if n == 1 or draw(st.booleans()):
        return reflection(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)))
    return random_isometry(n, draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


def nontrivial_summands(n):
    return summands(n).filter(lambda y: index_fortes(y).sigma > 1)


class TestDirectSums:
    """Sigma(Y1 + Y2) = Sigma(Y1) Sigma(Y2) for orthogonal direct sums, n <= 8.

    Z^n meets (Y1 + Y2) Z^n in the direct sum of the two coincidence lattices.
    A reflection plus the identity is a reflection again.
    """

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(summands(n), st.integers(1, 8 - n))))
    def test_identity_summand(self, yk):
        y, k = yk
        assert oracle_sigmas(direct_sum(y, identity_isometry(k))) == {index_fortes(y).sigma}

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                nontrivial_summands(n), st.integers(2, 8 - n).flatmap(nontrivial_summands)
            )
        )
    )
    def test_product_of_sigmas(self, pair):
        y1, y2 = pair
        sigma = index_fortes(y1).sigma * index_fortes(y2).sigma
        assert oracle_sigmas(direct_sum(y1, y2)) == {sigma}
