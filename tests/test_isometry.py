import math
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cslindex import isometry
from cslindex.isometry import (
    NotOrthogonal,
    RationalIsometry,
    ReflectionAxis,
    compose,
    from_rational_matrix,
    identity_isometry,
    random_corpus,
    random_isometry,
    reflection,
)
from cslindex.matrices import IntMatrix, RatMatrix, mat_mul, parse_rat_matrix
from support import check_gram_reference, transpose_inverse


def canonical_primitive_axes(n, max_norm):
    """Non-increasing nonnegative primitive tuples with norm <= max_norm."""

    def rec(remaining, slots, cap, prefix):
        if slots == 0:
            yield prefix
            return
        for a in range(min(cap, math.isqrt(remaining)), -1, -1):
            yield from rec(remaining - a * a, slots - 1, a, prefix + (a,))

    for tup in rec(max_norm, n, math.isqrt(max_norm), ()):
        if any(tup) and math.gcd(*tup) == 1:
            yield tup


def verdict(check):
    """None when check() passes, the NotOrthogonal message when it raises."""
    try:
        check()
    except NotOrthogonal as exc:
        return str(exc)
    return None


def lowest_terms(q, entries, n):
    """(q, z) with the common factor of q and the entries removed; z must have gcd 1."""
    assume(any(entries))
    g = math.gcd(q, *entries)
    z = IntMatrix(n, n, tuple(x // g for x in entries))
    assume(math.gcd(*z.entries) == 1)
    return q // g, z


def perturbed(draw, q, z):
    """z with one entry moved by 0, +-1 or +-q."""
    entries = list(z.entries)
    entries[draw(st.integers(0, len(entries) - 1))] += draw(st.sampled_from((0, 1, -1, q, -q)))
    return lowest_terms(q, entries, z.rows)


@st.composite
def rank_one_matrices(draw):
    """q I - u u^T / p, integral, with u^T u = 2 q p (a reflection) or with q drawn freely."""
    n = draw(st.integers(1, 8))
    u = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(any))
    c = math.gcd(*u)
    w = sum(x * x for x in u)
    # p (q I - z) = u u^T is integral exactly when p divides gcd(u)^2
    divisors = [d for d in range(1, c * c + 1) if c * c % d == 0]
    orthogonal = [d for d in divisors if w % (2 * d) == 0]
    if orthogonal and draw(st.booleans()):
        p = draw(st.sampled_from(orthogonal))
        q = w // (2 * p)
    else:
        p = draw(st.sampled_from(divisors)) * draw(st.sampled_from((1, -1)))
        q = draw(st.integers(1, 200))
    entries = [(q if i == j else 0) - u[i] * u[j] // p for i in range(n) for j in range(n)]
    return lowest_terms(q, entries, n)


@st.composite
def perturbed_reflections(draw):
    n = draw(st.integers(2, 10))
    r = reflection(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any)))
    return perturbed(draw, r.q, r.z)


@st.composite
def perturbed_products(draw):
    """Dense products of n reflections in dimension n <= 32; q reaches hundreds of bits."""
    n = draw(st.sampled_from(range(2, 33)))  # uniform, so that n > 20 is common
    y = random_isometry(n, n, 8, draw(st.integers(0, 2**32 - 1)))
    return perturbed(draw, y.q, y.z)


class TestOrthogonalityCheck:
    """The exact check agrees with the column-by-column reference, message included."""

    @settings(max_examples=120, deadline=None)
    @given(rank_one_matrices())
    def test_rank_one(self, qz):
        q, z = qz
        assert verdict(lambda: RationalIsometry(q, z)) == verdict(
            lambda: check_gram_reference(q, z)
        )

    @settings(max_examples=100, deadline=None)
    @given(perturbed_reflections())
    def test_perturbed_reflection(self, qz):
        q, z = qz
        assert verdict(lambda: RationalIsometry(q, z)) == verdict(
            lambda: check_gram_reference(q, z)
        )

    @settings(max_examples=15, deadline=None)
    @given(perturbed_products())
    def test_perturbed_dense_product(self, qz):
        q, z = qz
        assert verdict(lambda: RationalIsometry(q, z)) == verdict(
            lambda: check_gram_reference(q, z)
        )

    def test_reflections_take_the_rank_one_route(self):
        # q I - z = r v v^T with v the primitive axis: r = 2 for odd norms, 1 for even
        assert reflection((1, 1, 1))._rank_one == ((1, 1, 1), 2)
        assert reflection((1, 1, 1, 1))._rank_one == ((1, 1, 1, 1), 1)
        assert reflection((0, -3, 0))._rank_one == ((0, 1, 0), 2)
        assert reflection((2, -1))._rank_one == ((2, -1), 2)
        assert identity_isometry(3)._rank_one is None
        assert random_isometry(5, 5, 4, 7)._rank_one is None


@st.composite
def right_factors(draw, n):
    """A reflection, the identity, or a product of two reflections, in dimension n."""
    axes = st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any)
    kind = draw(st.sampled_from(("reflection", "identity", "two reflections")))
    if kind == "identity":
        return identity_isometry(n)
    if kind == "reflection":
        return reflection(draw(axes))
    return compose(reflection(draw(axes)), reflection(draw(axes)))


class TestComposeMatchesProduct:
    @staticmethod
    def product(a, b):
        return from_rational_matrix(RatMatrix.make(mat_mul(a.z, b.z), a.q * b.q))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.builds(random_isometry, st.just(n), st.integers(0, 4), st.integers(1, 8), st.integers(0, 2**32 - 1)),
                right_factors(n),
            )
        )
    )
    def test_canonical_product(self, pair):
        a, b = pair
        assert compose(a, b) == self.product(a, b)

    @pytest.mark.parametrize("left", [1, -1])
    def test_one_by_one(self, left):
        a = RationalIsometry(1, IntMatrix.from_rows([[left]]))
        minus_one = RationalIsometry(1, IntMatrix.from_rows([[-1]]))
        assert compose(a, minus_one) == self.product(a, minus_one)
        assert compose(a, minus_one).z == IntMatrix.from_rows([[-left]])


# linearly independent axes: a product of k of them fixes only a space of dimension 4 - k,
# so for k >= 2 it is not a reflection and takes the packed Gram check
CHAIN_AXES = ((1, 2, 0, 1), (0, 1, 3, 1), (2, 0, 1, 1), (1, 1, 1, 2))


class TestComposeChain:
    """compose(a, f_1, ..., f_k) multiplies left to right and checks the product once."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 16).flatmap(
            lambda n: st.tuples(right_factors(n), st.lists(right_factors(n), max_size=4))
        )
    )
    def test_equals_fold_of_pairs(self, chain):
        a, factors = chain
        product = compose(a, *factors)
        assert product == reduce(compose, factors, a)
        assert product == reduce(TestComposeMatchesProduct.product, factors, a)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_product_of_reflections_checked_once(self, monkeypatch, k):
        factors = [reflection(v) for v in CHAIN_AXES[:k]]
        checked = []
        check_gram = RationalIsometry._check_gram
        monkeypatch.setattr(RationalIsometry, "_check_gram", lambda y: checked.append(y) or check_gram(y))
        product = compose(*factors)
        assert checked == [product]

    @pytest.mark.parametrize("last", ["reflection", "dense"])
    def test_corrupted_product_rejected(self, monkeypatch, last):
        factors = [reflection(v) for v in CHAIN_AXES[:3]]
        factors.append(reflection(CHAIN_AXES[3]) if last == "reflection" else random_isometry(4, 3, 4, 11))
        lowest_terms = isometry._lowest_terms
        calls = []

        def corrupt_last(z, q):
            z, q = lowest_terms(z, q)
            calls.append(z)
            if len(calls) == len(factors) - 1:  # the step that makes the final product
                z = IntMatrix(z.rows, z.cols, (z.entries[0] + 1,) + z.entries[1:])
            return z, q

        monkeypatch.setattr(isometry, "_lowest_terms", corrupt_last)
        with pytest.raises(NotOrthogonal):
            compose(*factors)
        assert len(calls) == len(factors) - 1

    @pytest.mark.parametrize("position", range(4))
    def test_dimension_mismatch_in_any_position(self, position):
        chain = [reflection(v) for v in CHAIN_AXES]
        chain[position] = identity_isometry(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(*chain)

    def test_dimension_mismatch_names_both_sizes(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 3x3 and 2x2$"):
            compose(reflection((1, 1, 1)), reflection((1, 2, 2)), identity_isometry(2))

    @pytest.mark.parametrize(
        "a", [identity_isometry(3), reflection((1, 2, 2)), random_isometry(4, 3, 4, 5)], ids=["identity", "reflection", "dense"]
    )
    def test_single_factor_is_itself(self, a):
        assert compose(a) == a


class TestFromRationalMatrix:
    def test_identity(self):
        y = from_rational_matrix(RatMatrix.make(IntMatrix.identity(3), 1))
        assert y.q == 1 and y.z == IntMatrix.identity(3)

    def test_block_rotation(self):
        z = IntMatrix.from_rows([[3, -4, 0], [4, 3, 0], [0, 0, 5]])
        y = from_rational_matrix(RatMatrix.make(z, 5))
        assert y.q == 5 and y.z == z

    def test_canonicalizes_scaled_input(self):
        scaled = parse_rat_matrix("2 2\n6/10 -8/10\n8/10 6/10\n")
        y = from_rational_matrix(scaled)
        assert y.q == 5
        assert y.z == IntMatrix.from_rows([[3, -4], [4, 3]])

    def test_not_orthogonal(self):
        with pytest.raises(NotOrthogonal) as exc:
            from_rational_matrix(RatMatrix.make(IntMatrix.from_rows([[1, 1], [0, 1]]), 1))
        assert "inner product" in str(exc.value)

    @pytest.mark.parametrize(
        "columns, message",
        [
            # only columns 1 and 2 clash
            ([(5, 0, 0), (0, 3, 4), (0, 4, 3)], "columns 1 and 2 have inner product 24/25, expected 0"),
            # (0, 2) clashes and column 2 has the wrong norm; the first pair is reported
            ([(5, 0, 0), (0, 5, 0), (1, 0, 5)], "columns 0 and 2 have inner product 1/5, expected 0"),
            ([(5, 0, 0), (0, 5, 0), (0, 0, 4)], "columns 2 and 2 have inner product 16/25, expected 1"),
        ],
    )
    def test_first_failing_pair_named(self, columns, message):
        z = IntMatrix.from_rows(list(zip(*columns)))
        with pytest.raises(NotOrthogonal) as exc:
            from_rational_matrix(RatMatrix.make(z, 5))
        assert str(exc.value) == message

    def test_first_pair_named_when_q_squared_is_wide(self):
        # 63^2 = 1 - 2 * 64 + 64^2: packed in base 64, the width that fits every
        # inner product (here at most 3 * 2^2), column 0 would look right
        z = IntMatrix.from_rows(list(zip((1, 0, 0), (-2, 0, 0), (1, 0, 0))))
        with pytest.raises(NotOrthogonal) as exc:
            from_rational_matrix(RatMatrix.make(z, 63))
        assert str(exc.value) == "columns 0 and 0 have inner product 1/3969, expected 1"

    @pytest.mark.parametrize(
        "q, top, message",
        [
            # g = 2^4094 and q^2 = 1 fit in _TEXT_BITS = 4096 bits: the value is printed
            (1, 2**2047, None),
            (1, 2**2048, "columns 0 and 0 have inner product g/q^2 (g has 4097 bits, q has 1 bits), expected 1"),
            (2**2048, 1, "columns 0 and 0 have inner product g/q^2 (g has 1 bits, q has 2049 bits), expected 1"),
        ],
        ids=["in-full", "long-g", "long-q"],
    )
    def test_long_inner_product_named_by_size(self, q, top, message):
        z = IntMatrix.from_rows([[top, 0], [0, 1]])
        expected = message or verdict(lambda: check_gram_reference(q, z))
        assert verdict(lambda: RationalIsometry(q, z)) == expected

    def test_non_square(self):
        with pytest.raises(ValueError):
            from_rational_matrix(RatMatrix.make(IntMatrix.from_rows([[1, 0]]), 1))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[2, 0], [0, 2]], "columns 0 and 0 have inner product 4, expected 1"),
            ([[5]], "columns 0 and 0 have inner product 25, expected 1"),
            ([[0, 0], [0, 0]], "columns 0 and 0 have inner product 0, expected 1"),
        ],
    )
    def test_orthogonality_checked_before_entry_gcd(self, rows, message):
        with pytest.raises(NotOrthogonal) as exc:
            RationalIsometry(1, IntMatrix.from_rows(rows))
        assert str(exc.value) == message

    def test_orthogonal_but_not_in_lowest_terms(self):
        with pytest.raises(ValueError, match="entries of z must have gcd 1") as exc:
            RationalIsometry(2, IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert not isinstance(exc.value, NotOrthogonal)


class TestReflection:
    def test_signed_permutation_case(self):
        r = reflection((1, 1, 0))
        assert r.q == 1
        assert r.z == IntMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 1]])

    def test_odd_norm(self):
        r = reflection((1, 1, 1))
        assert r.q == 3
        assert r.z == IntMatrix.from_rows([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])

    def test_even_norm_halved(self):
        r = reflection((1, 1, 1, 1))
        assert r.q == 2
        assert r.z == IntMatrix.from_rows(
            [[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, -1], [-1, -1, -1, 1]]
        )

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            reflection((0, 0, 0))

    def test_scale_invariance(self):
        for c in (2, -3, 7):
            assert reflection((3 * c, 2 * c, c)) == reflection((3, 2, 1))

    def test_involution(self):
        for v in [(1, 1, 1), (3, 2, 1), (1, 2, 0, 4)]:
            r = reflection(v)
            assert compose(r, r) == identity_isometry(r.n)

    def test_fixes_orthogonal_hyperplane(self):
        v = (1, 2, 3)
        r = reflection(v)
        for w in [(2, -1, 0), (3, 0, -1), (0, 3, -2)]:
            assert sum(a * b for a, b in zip(v, w)) == 0
            img = mat_mul(r.z, IntMatrix.from_rows([[x] for x in w]))
            assert img == IntMatrix.from_rows([[r.q * x] for x in w])

    def test_entry_gcd_dichotomy_exhaustive(self):
        # gcd(v^T v I - 2 v v^T) is 1 for odd norms, 2 for even norms;
        # canonical axes up to signed permutation cover all primitive v
        for n in range(2, 6):
            for coords in canonical_primitive_axes(n, 50):
                w = sum(c * c for c in coords)
                t = IntMatrix.from_rows(
                    [
                        [(w if i == j else 0) - 2 * coords[i] * coords[j] for j in range(n)]
                        for i in range(n)
                    ]
                )
                assert math.gcd(*t.entries) == (2 if w % 2 == 0 else 1)

    def test_signed_permutations_give_same_q(self):
        base = (3, 2, 1)
        r0 = reflection(base)
        for signs in product([1, -1], repeat=3):
            for perm in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
                v = tuple(signs[i] * base[perm[i]] for i in range(3))
                assert reflection(v).q == r0.q


class TestReflectionAxis:
    def test_normalization(self):
        axis = ReflectionAxis.from_coords((-2, 4, -6))
        assert axis.coords == (1, -2, 3)

    def test_parity(self):
        assert ReflectionAxis.from_coords((1, 1, 1)).norm_sq % 2 == 1
        assert ReflectionAxis.from_coords((1, 1, 1, 1)).norm_sq % 2 == 0

    def test_axis_passes_through_unchanged(self):
        axis = ReflectionAxis.from_coords((-2, 4, -6))
        assert ReflectionAxis.from_coords(axis) is axis
        assert reflection(axis) == reflection((-2, 4, -6))

    def test_non_primitive_direct_construction_rejected(self):
        with pytest.raises(ValueError):
            ReflectionAxis((2, 4))

    @pytest.mark.parametrize("coords", [(-1, 2, 0), (0, -3, 1)])
    def test_negative_first_coordinate_rejected(self, coords):
        hint = "first nonzero coordinate must be positive; use ReflectionAxis.from_coords"
        with pytest.raises(ValueError, match=hint):
            ReflectionAxis(coords)
        assert ReflectionAxis.from_coords(coords).coords == tuple(-c for c in coords)

    @pytest.mark.parametrize("coords", [(0, 0, 0), ()])
    def test_zero_direct_construction_rejected(self, coords):
        # gcd of a zero or empty vector is 0, so the primitive test rejects it
        with pytest.raises(ValueError, match="axis must be primitive"):
            ReflectionAxis(coords)


class TestCompose:
    def test_coprime_pair_denominator(self):
        c = compose(reflection((1, 1, 1)), reflection((1, 2, 0)))
        assert c.q == 15

    def test_inverse(self):
        y = random_isometry(4, 3, 4, 99)
        assert compose(y, transpose_inverse(y)) == identity_isometry(4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_isometry(2), identity_isometry(3))

    def test_associative_on_samples(self):
        a, b, c = (random_isometry(3, 2, 4, s) for s in (1, 2, 3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_denominator_divides_product(self):
        for s in range(10):
            a = random_isometry(3, 2, 4, 100 + s)
            b = random_isometry(3, 2, 4, 200 + s)
            assert (a.q * b.q) % compose(a, b).q == 0


class TestTransposeInverse:
    def test_identity(self):
        assert transpose_inverse(identity_isometry(3)) == identity_isometry(3)

    def test_transpose(self):
        z = IntMatrix.from_rows([[3, -4], [4, 3]])
        y = from_rational_matrix(RatMatrix.make(z, 5))
        assert transpose_inverse(y).z == IntMatrix.from_rows([[3, 4], [-4, 3]])

    def test_involution_and_antihomomorphism(self):
        a = random_isometry(4, 2, 3, 5)
        b = random_isometry(4, 3, 3, 6)
        assert transpose_inverse(transpose_inverse(a)) == a
        assert transpose_inverse(compose(a, b)) == compose(
            transpose_inverse(b), transpose_inverse(a)
        )


class TestRandomIsometry:
    def test_zero_reflections_is_identity(self):
        assert random_isometry(4, 0, 4, 42) == identity_isometry(4)

    def test_deterministic(self):
        assert random_isometry(5, 3, 4, 1234) == random_isometry(5, 3, 4, 1234)
        assert random_corpus(3, 20, 7) == random_corpus(3, 20, 7)

    def test_every_output_validates(self):
        # construction re-validates; round-trip through the rational form too
        for s in range(25):
            y = random_isometry(4, 3, 4, s)
            assert from_rational_matrix(y.as_rational()) == y

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_isometry(1, 2, 4, 0)
        with pytest.raises(ValueError):
            random_isometry(3, -1, 4, 0)

    @pytest.mark.parametrize(
        "k, bound, message",
        [
            (-1, 4, "reflection count must be >= 0, got -1"),
            (2, 0, "coordinate bound must be >= 1, got 0"),
        ],
    )
    def test_each_bad_argument_named(self, k, bound, message):
        with pytest.raises(ValueError) as exc:
            random_isometry(3, k, bound, 0)
        assert str(exc.value) == message
