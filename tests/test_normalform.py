import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslindex.isometry import random_isometry
from cslindex.matrices import IntMatrix, mat_mul
from cslindex.normalform import _smith_diagonal_mod, _xgcd, smith_normal_form
from cslindex.rng import Lcg
from support import (
    det,
    diagonal_matrix,
    hermite_normal_form,
    hnf_lattice_contains,
    matrices,
    minors_gcd_reference,
)


def check_decomposition(a):
    dec = smith_normal_form(a)
    assert abs(det(dec.p)) == 1
    assert abs(det(dec.q_right)) == 1
    assert mat_mul(mat_mul(dec.p, a), dec.q_right) == diagonal_matrix(dec.d, a.rows, a.cols)
    for x, y in zip(dec.d, dec.d[1:]):
        assert x >= 0
        assert y % x == 0 if x else y == 0
    return dec


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "a, d",
        [
            (IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]), (0, 0)),
            (IntMatrix.from_rows([[6, -4, 10]]), (2,)),
            (IntMatrix.from_rows([[6], [-4], [10]]), (2,)),
            (IntMatrix.from_rows([[0], [0], [-3]]), (3,)),
        ],
    )
    def test_degenerate_shapes(self, a, d):
        assert check_decomposition(a).d == d

    def test_already_diagonal(self):
        assert check_decomposition(diagonal_matrix((2, 6), 2, 2)).d == (2, 6)

    def test_rotation_numerator(self):
        assert smith_normal_form(IntMatrix.from_rows([[3, -4], [4, 3]])).d == (1, 25)

    def test_reflection_numerator(self):
        # 3I - 2vv^T for v = (1,1,1)
        t = IntMatrix.from_rows([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
        assert smith_normal_form(t).d == (1, 3, 9)

    def test_identity(self):
        assert smith_normal_form(IntMatrix.identity(5)).d == (1, 1, 1, 1, 1)

    def test_reorders_to_divisibility_chain(self):
        assert check_decomposition(diagonal_matrix((4, 2), 2, 2)).d == (2, 4)

    def test_double_rotation_fixture(self):
        z = IntMatrix.from_rows(
            [[3, -4, 0, 0], [4, 3, 0, 0], [0, 0, 3, -4], [0, 0, 4, 3]]
        )
        d = smith_normal_form(z).d
        assert d == (1, 1, 25, 25)
        # cross-check each partial product against direct minor enumeration
        for i in range(1, 5):
            assert math.prod(d[:i]) == minors_gcd_reference(z, i)

    def test_zero_matrix(self):
        assert check_decomposition(IntMatrix.from_rows([[0, 0], [0, 0]])).d == (0, 0)

    def test_first_factor_is_entry_gcd(self):
        a = IntMatrix.from_rows([[6, 12], [18, 30]])
        assert smith_normal_form(a).d[0] == math.gcd(*a.entries)

    def test_repeated_runs_agree(self):
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(a) == smith_normal_form(a)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_soundness(self, a):
        dec = check_decomposition(a)
        if a.is_square:
            assert math.prod(dec.d) == abs(det(a))
        # Artin: product of the first i factors equals the gcd of the i x i minors
        for i in range(1, min(a.rows, a.cols) + 1):
            prod = math.prod(dec.d[:i])
            if prod == 0:
                with pytest.raises(ValueError):
                    minors_gcd_reference(a, i)
            else:
                assert prod == minors_gcd_reference(a, i)


    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.one_of(
                matrices(dims=st.tuples(st.just(n), st.integers(n, 8))),  # square or wide
                matrices(dims=st.tuples(st.integers(n, 8), st.just(n))),  # tall
            )
        ),
        st.integers(0, 7),
    )
    def test_transforms_of_wide_tall_and_deficient_matrices(self, a, repeats):
        # the first row in place of the last `repeats` rows lowers the rank
        repeats = min(repeats, a.rows - 1)
        rows = a.to_rows()
        check_decomposition(IntMatrix.from_rows(rows[: a.rows - repeats] + [rows[0]] * repeats))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 14), st.integers(0, 14), st.integers(1, 6), st.integers(0, 10**6))
    def test_transforms_of_isometry_numerators(self, n, k, bound, seed):
        y = random_isometry(n, min(k, n), bound, seed)
        assert check_decomposition(y.z).d == y.invariant_factors

    def test_transforms_stay_small(self):
        # pivot elimination without reduction gave P and Q entries of 82,095 bits here
        dec = check_decomposition(random_isometry(13, 6, 4, 47).z)
        assert max(abs(x).bit_length() for m in (dec.p, dec.q_right) for x in m.entries) < 1000

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5)
        .flatmap(lambda n: matrices(dims=st.just((n, n))))
        .filter(lambda a: det(a) != 0),
        st.integers(1, 3),
    )
    def test_diagonal_mod_a_multiple_of_the_determinant(self, a, c):
        # the last invariant factor divides |det a|, so any multiple of it is a valid modulus
        assert _smith_diagonal_mod(a, c * abs(det(a))) == smith_normal_form(a).d

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(lambda n: matrices(dims=st.just((n, n)))),
        st.integers(0, 4),
        st.integers(1, 500),
    )
    def test_diagonal_mod_any_modulus_is_gcd_with_smith_diagonal(self, a, repeats, modulus):
        # the first row in place of the last `repeats` rows makes it singular
        repeats = min(repeats, a.rows - 1)
        rows = a.to_rows()
        a = IntMatrix.from_rows(rows[: a.rows - repeats] + [rows[0]] * repeats)
        want = tuple(math.gcd(d, modulus) for d in smith_normal_form(a).d)
        assert _smith_diagonal_mod(a, modulus) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_isometry_diagonal_mod_q(self, n, k, bound, seed):
        # d_i | q up to the middle and q | d_i past it, so mod q the tail is all q
        y = random_isometry(n, min(k, n), bound, seed)
        d = _smith_diagonal_mod(y.z, y.q)
        assert d == tuple(math.gcd(x, y.q) for x in smith_normal_form(y.z).d)
        assert d[n // 2 :] == (y.q,) * (n - n // 2)


class TestExternalReference:
    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = Lcg(2024)
        inputs = [random_isometry(n, n // 2, 4, 500 + n).z for n in range(2, 11)]
        for _ in range(60):
            m, n = rng.integer(1, 8), rng.integer(1, 8)
            a = IntMatrix.from_rows([[rng.integer(-9, 9) for _ in range(n)] for _ in range(m)])
            if rng.integer(0, 1) and min(m, n) > 1:
                # a product through k < min(m, n) dimensions has rank at most k
                k = rng.integer(1, min(m, n) - 1)
                rows = a.to_rows()
                a = mat_mul(IntMatrix.from_rows([r[:k] for r in rows]), IntMatrix.from_rows(rows[:k]))
            inputs.append(a)
        for a in inputs:
            want = invariant_factors(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
            assert smith_normal_form(a).d == tuple(int(x) for x in want)


class TestEliminationSteps:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40))
    def test_xgcd_is_a_bezout_identity(self, a, b):
        g, s, t = _xgcd(a, b)
        assert g == math.gcd(a, b) == s * a + t * b

    def test_diagonal_ends_when_the_pivot_divides_an_entry(self):
        # q = 2: every pivot divides the entries beside it.  An extended-gcd step
        # on such a pair, like xgcd(2, 2) = (2, 0, 1), swaps the two rows, and an
        # elimination that repeats such steps never ends here
        y = random_isometry(5, 2, 1, 80)
        assert y.q == 2
        assert _smith_diagonal_mod(y.z, y.q * y.q) == smith_normal_form(y.z).d


class TestHermiteNormalForm:
    def test_identity(self):
        assert hermite_normal_form(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_hand_reduction(self):
        h = hermite_normal_form(IntMatrix.from_rows([[2, 0], [0, 2], [1, 1]]))
        assert h == IntMatrix.from_rows([[1, 1], [0, 2]])

    def test_scaled_identity(self):
        h = hermite_normal_form(IntMatrix.from_rows([[5, 0], [0, 5], [5, 5]]))
        assert h == diagonal_matrix((5, 5), 2, 2)

    def test_idempotent(self):
        a = IntMatrix.from_rows([[4, 7, 2], [0, 3, 1], [0, 0, 8], [12, 5, 9]])
        h = hermite_normal_form(a)
        assert hermite_normal_form(h) == h

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            hermite_normal_form(IntMatrix.from_rows([[1, 2], [2, 4], [3, 6]]))

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            hermite_normal_form(IntMatrix.from_rows([[1, 2, 3]]))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=2, max_size=2),
            min_size=3,
            max_size=5,
        ).map(IntMatrix.from_rows)
    )
    def test_canonical_shape(self, a):
        try:
            h = hermite_normal_form(a)
        except ValueError:
            return
        for i in range(h.rows):
            assert h.at(i, i) > 0
            for j in range(i):
                assert h.at(i, j) == 0
            for k in range(i):
                assert 0 <= h.at(k, i) < h.at(i, i)


class TestLatticeMembership:
    def test_contains(self):
        h = IntMatrix.from_rows([[1, 1], [0, 2]])
        assert hnf_lattice_contains(h, (1, 3))
        assert hnf_lattice_contains(h, (0, 2))
        assert not hnf_lattice_contains(h, (0, 1))
