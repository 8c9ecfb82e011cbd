import math
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from cslindex import spectrum
from cslindex.indices import CoprimalityViolated, CrossCheckFailed
from cslindex.oracle import index_by_counting, intersection_hnf
from cslindex.isometry import ReflectionAxis, compose, reflection
from cslindex.spectrum import (
    SquareWitness,
    WitnessNotFound,
    coprime_witness,
    four_square_odd_decompose,
    is_three_square_excluded,
    reflection_spectrum,
    reflection_witness_axis,
    three_square_decompose,
    vectors_with_norm,
)


def nonincreasing_with_norm(n, norm):
    """Brute force: every non-increasing nonnegative n-tuple of the norm, descending."""
    return sorted(
        (
            tup[::-1]
            for tup in combinations_with_replacement(range(math.isqrt(norm) + 1), n)
            if sum(x * x for x in tup) == norm
        ),
        reverse=True,
    )


def primitive_with_norm(n, norm):
    return [v for v in vectors_with_norm(n, norm) if math.gcd(*v) == 1]


class TestThreeSquares:
    def test_example(self):
        w = three_square_decompose(13)
        assert w.squares == (3, 2, 0)

    def test_excluded(self):
        assert three_square_decompose(7) is None
        assert is_three_square_excluded(7)

    def test_one(self):
        assert three_square_decompose(1).squares == (1, 0, 0)

    def test_search_matches_predicate(self):
        for m in range(1, 2000):
            w = three_square_decompose(m)
            if w is None:
                assert is_three_square_excluded(m)
            else:
                assert not is_three_square_excluded(m)
                assert sum(x * x for x in w.squares) == m

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            three_square_decompose(0)

    def test_largest_nonincreasing_triple(self):
        # the CLI prints the first triple found, so it must be the largest one
        bound = 3000
        largest = {}
        for triple in combinations_with_replacement(range(math.isqrt(bound) + 1), 3):
            m = sum(x * x for x in triple)
            if 0 < m <= bound:
                largest[m] = max(largest.get(m, triple[::-1]), triple[::-1])
        for m in range(1, bound + 1):
            w = three_square_decompose(m)
            assert (w and w.squares) == largest.get(m)

    def test_power_of_four(self):
        w = three_square_decompose(3 * 4**11)
        assert w.squares == (2048, 2048, 2048)
        assert w.content == 2048

    def test_excluded_times_sixteen(self):
        m = 16 * (8 * 1000 + 7)
        assert is_three_square_excluded(m)
        assert three_square_decompose(m) is None

    @pytest.mark.parametrize("m", [7_000_000_007, 999_999_999_999])
    def test_odd_excluded_target_is_quick(self, m):
        # m - a^2 is 3, 6 or 7 mod 8 for every a, so the walk skips every first coordinate
        start = time.perf_counter()
        assert three_square_decompose(m) is None
        assert time.perf_counter() - start < 1.0

    def test_search_disagreeing_with_the_form_test_raises(self, monkeypatch):
        # the search decides first; the 4^a(8k+7) test only confirms a None
        monkeypatch.setattr(spectrum, "vectors_with_norm", lambda n, norm: iter(()))
        with pytest.raises(CrossCheckFailed, match="^search found no representation of 13 but the form test allows one$"):
            three_square_decompose(13)


class TestFourSquaresOdd:
    def test_seven(self):
        w = four_square_odd_decompose(7)
        assert w.squares == (1, 1, 1, 2)
        assert w.content == 1

    def test_one(self):
        w = four_square_odd_decompose(1)
        assert w.squares == (0, 0, 0, 1)

    def test_exhaustive_small(self):
        for k in range(500):
            m = 2 * k + 1
            w = four_square_odd_decompose(m)
            assert sum(x * x for x in w.squares) == m
            assert math.gcd(*w.squares) == 1

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            four_square_odd_decompose(4)

    @pytest.mark.parametrize("three", [None, SquareWitness(3, (1, 1, 1), 1)])
    def test_broken_three_square_step_raises(self, monkeypatch, three):
        # explicit raises, not asserts: these checks must survive python -O
        monkeypatch.setattr(spectrum, "three_square_decompose", lambda m: three)
        with pytest.raises(CrossCheckFailed):
            four_square_odd_decompose(7)


class TestShellEnumeration:
    def test_canonical_and_primitive(self):
        axes = primitive_with_norm(3, 14)
        assert (3, 2, 1) in axes
        for tup in axes:
            assert sum(x * x for x in tup) == 14
            assert math.gcd(*tup) == 1
            assert list(tup) == sorted(tup, reverse=True)

    def test_no_primitive_norm_8_in_4d(self):
        assert primitive_with_norm(4, 8) == []

    def test_descending_lexicographic_order(self):
        # witnesses are the first axis found, so the order is part of the CLI output
        for n in range(1, 6):
            for norm in range(40):
                expected = [tup for tup in nonincreasing_with_norm(n, norm) if math.gcd(*tup) == 1]
                assert primitive_with_norm(n, norm) == expected

    def test_every_vector_in_order(self):
        # primitive or not; n = 1 and norm 0 included
        # n = 3 and 4 go further, where two coordinates are left after many prefixes
        for n, norms in ((1, 60), (2, 60), (3, 300), (4, 150), (5, 60)):
            for norm in range(norms):
                assert list(vectors_with_norm(n, norm)) == nonincreasing_with_norm(n, norm)

    def test_dimension_beyond_recursion_limit(self):
        n = 1500
        assert primitive_with_norm(n, 3) == [(1, 1, 1) + (0,) * (n - 3)]
        assert reflection_witness_axis(n, 2).coords == (1, 1, 1, 1) + (0,) * (n - 4)


class TestReflectionSpectrum:
    def test_three_dimensions_odd_only(self):
        table = reflection_spectrum(3, 9)
        assert sorted(table) == [1, 3, 5, 7, 9]
        assert table[7].axes[0].norm_sq == 14  # even-norm branch, e.g. (3,2,1)

    def test_four_dimensions_misses_four(self):
        table = reflection_spectrum(4, 8)
        assert 4 not in table
        assert 2 in table  # (1,1,1,1) with norm 4

    def test_five_dimensions_covers_eight(self):
        axis = reflection_witness_axis(5, 8)
        assert axis is not None
        assert axis.norm_sq == 16
        assert index_by_counting(reflection(axis)).sigma == 8

    def test_witnesses_are_verified_reflections(self):
        table = reflection_spectrum(4, 12)
        for sigma, witness in table.items():
            assert witness.sigma == sigma
            assert witness.dimension == 4
            assert len(witness.axes) == 1

    def test_large_dimension(self):
        # large enough that an O(n^3) orthogonality check per witness takes seconds
        n = 400
        table = reflection_spectrum(n, 2)
        assert {s: w.axes for s, w in table.items()} == {
            1: (ReflectionAxis((1,) + (0,) * (n - 1)),),
            2: (ReflectionAxis((1, 1, 1, 1) + (0,) * (n - 4)),),
        }

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            reflection_spectrum(1, 5)
        with pytest.raises(ValueError):
            reflection_spectrum(3, 0)

    @pytest.mark.parametrize(
        "n, sigma, message",
        [(n, 3, "dimension must be at least 2") for n in (-5, 0, 1)]
        + [(3, sigma, "sigma must be positive") for sigma in (0, -3)]
        + [(0, -3, "dimension must be at least 2")],
    )
    def test_witness_axis_rejects_what_the_spectrum_rejects(self, n, sigma, message):
        # None would claim that no reflection in dimension n has index sigma
        with pytest.raises(ValueError, match=message):
            reflection_witness_axis(n, sigma)


nonzero_axes = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any), min_size=1, max_size=3
    )
)


class TestWitnessOnSupport:
    @settings(max_examples=150, deadline=None)
    @given(nonzero_axes)
    def test_matches_full_product(self, coords):
        axes = tuple(ReflectionAxis.from_coords(c) for c in coords)
        n = len(axes[0].coords)
        full = reflection(axes[0])
        for axis in axes[1:]:
            full = compose(full, reflection(axis))
        sigma = intersection_hnf(full).index
        assert spectrum._verified_witness(n, sigma, axes) == spectrum.IndexWitness(sigma, n, axes)
        with pytest.raises(CrossCheckFailed):
            spectrum._verified_witness(n, sigma + 1, axes)


class TestCoprimeWitness:
    def test_three_times_five(self):
        w = coprime_witness((3, 5), 3)
        assert w.sigma == 15
        assert len(w.axes) == 2

    def test_trivial_target(self):
        w = coprime_witness((1,), 4)
        assert w.sigma == 1
        assert w.axes == ()

    def test_three_times_four_in_five_dimensions(self):
        w = coprime_witness((3, 4), 5)
        assert w.sigma == 12

    def test_not_coprime_rejected(self):
        with pytest.raises(CoprimalityViolated):
            coprime_witness((3, 6), 5)

    def test_first_shared_pair_named(self):
        with pytest.raises(CoprimalityViolated) as exc:
            coprime_witness((5, 3, 7, 6), 5)
        assert exc.value.pair == (1, 3)
        assert exc.value.indices == (3, 6)
        assert "r_1=3 and r_3=6 share the factor 3" in str(exc.value)

    def test_unreachable_target(self):
        # 4 is not a reflection index in dimension 3: norm 8 has no primitive vector
        with pytest.raises(WitnessNotFound):
            coprime_witness((4,), 3)

    @pytest.mark.parametrize(
        "targets, text", [((3.0, 5), "3.0"), ((3, Fraction(10, 2)), "Fraction(5, 1)"), (("3",), "'3'")]
    )
    def test_targets_must_be_integers(self, targets, text):
        # int() would read 3.0 and 5/1 as 3 and 5, and "3" as 3
        with pytest.raises(ValueError) as exc:
            coprime_witness(targets, 3)
        assert str(exc.value) == f"expected an integer, got {text}"

    @pytest.mark.parametrize("targets, n", [((1,), -5), ((3,), 0), ((1,), 1)])
    def test_dimension_below_two_rejected(self, targets, n):
        # the same check as reflection_spectrum, before any target is looked at
        with pytest.raises(ValueError, match="^dimension must be at least 2$"):
            coprime_witness(targets, n)
