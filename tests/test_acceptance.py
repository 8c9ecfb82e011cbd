"""Acceptance suite.

Each test prints one PASS line when its criterion holds; tolerances are
exact (integer equality) throughout.  The reflection sweeps run over
canonical axis classes (coordinates sorted by absolute value): a signed
permutation W of the coordinates is a unimodular isometry, conjugation by
it turns the reflection along v into the reflection along Wv, and the
coincidence index is invariant under unimodular conjugation, so one class
representative covers its whole orbit.  A seeded sample of non-canonical
orbit members is checked end to end as well.
"""

import math
import time

import pytest

from cslindex.indices import (
    CoprimalityViolated,
    index_closed_form,
    index_coprime_product,
    index_fortes,
    index_reflection,
)
from cslindex.isometry import (
    ReflectionAxis,
    compose,
    identity_isometry,
    random_axis,
    random_corpus,
    reflection,
)
from cslindex.matrices import IntMatrix, mat_mul
from cslindex.normalform import smith_normal_form
from cslindex.oracle import index_by_counting, index_by_hnf
from cslindex.rng import Lcg
from cslindex.spectrum import (
    four_square_odd_decompose,
    is_three_square_excluded,
    reflection_spectrum,
    three_square_decompose,
)
from support import det, diagonal_matrix, minors_gcd_reference

RESIDUE_CAP = 10**7
CORPUS_SEED = 20240901


def canonical_primitive_axes(n, max_norm):
    def rec(remaining, slots, cap, prefix):
        if slots == 0:
            yield prefix
            return
        for a in range(min(cap, math.isqrt(remaining)), -1, -1):
            yield from rec(remaining - a * a, slots - 1, a, prefix + (a,))

    for tup in rec(max_norm, n, math.isqrt(max_norm), ()):
        if any(tup) and math.gcd(*tup) == 1:
            yield tup


@pytest.fixture(scope="module")
def corpus():
    return {
        n: random_corpus(n, 200, CORPUS_SEED + n, max_reflections=3, coordinate_bound=4)
        for n in (2, 3, 4, 5, 6)
    }


def test_criterion_01_formula_oracle_agreement(corpus):
    start = time.monotonic()
    counted = 0
    for n, isometries in corpus.items():
        for y in isometries:
            fortes = index_fortes(y).sigma
            closed = index_closed_form(y).sigma
            assert fortes == closed
            assert index_by_hnf(y).sigma == fortes
            if y.q**y.n <= RESIDUE_CAP:
                counted += 1
                assert index_by_counting(y, RESIDUE_CAP).sigma == fortes
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"\nPASS criterion 1: formulas and oracles agree on 1000 corpus isometries "
        f"({counted} counting-feasible) in {elapsed:.1f}s"
    )


def test_criterion_02_palindromic_invariant_factors(corpus):
    for n, isometries in corpus.items():
        for y in isometries:
            qsq = y.q * y.q
            d = y.invariant_factors
            assert all(d[i] * d[n - 1 - i] == qsq for i in range(n))
            d = smith_normal_form(y.z).d
            assert all(d[i] * d[n - 1 - i] == qsq for i in range(n))
    print("\nPASS criterion 2: d_i * d_{n+1-i} == q^2 on the whole corpus")


@pytest.fixture(scope="module")
def reflection_sweep():
    """Canonical primitive axis classes with norm <= 100 for n in 2..5."""
    return {n: list(canonical_primitive_axes(n, 100)) for n in (2, 3, 4, 5)}


def test_criterion_03_reflection_index_vs_oracles(reflection_sweep):
    start = time.monotonic()
    checked = counted = 0
    for n, classes in reflection_sweep.items():
        for coords in classes:
            sigma = index_reflection(coords).sigma
            r = reflection(coords)
            assert index_by_hnf(r).sigma == sigma
            if r.q**n <= RESIDUE_CAP:
                counted += 1
                assert index_by_counting(r, RESIDUE_CAP).sigma == sigma
            checked += 1
    # seeded spot-check that orbit members behave identically end to end
    rng = Lcg(CORPUS_SEED)
    for _ in range(50):
        n = rng.integer(2, 5)
        axis = random_axis(n, 5, rng)
        assert index_by_hnf(reflection(axis)).sigma == index_reflection(axis).sigma
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"\nPASS criterion 3: reflection formula matches oracles on {checked} axis "
        f"classes ({counted} counting-feasible) in {elapsed:.1f}s"
    )


def test_criterion_04_reflection_normal_form_structure(reflection_sweep):
    for n, classes in reflection_sweep.items():
        for coords in classes:
            w = sum(c * c for c in coords)
            t = IntMatrix.from_rows(
                [
                    [(w if i == j else 0) - 2 * coords[i] * coords[j] for j in range(n)]
                    for i in range(n)
                ]
            )
            if n >= 3:
                assert math.gcd(*t.entries) == (2 if w % 2 == 0 else 1)
            r = reflection(coords)
            d = smith_normal_form(r.z).d
            if n == 2:
                assert d == (1, r.q * r.q)
            else:
                assert d == (1,) + (r.q,) * (n - 2) + (r.q * r.q,)
    print("\nPASS criterion 4: entry-gcd parity and (1, q, ..., q, q^2) factor structure hold")


def _seeded_axis_tuples(rng, n, count):
    while count:
        yield random_axis(n, 4, rng)
        count -= 1


def test_criterion_05_coprime_product_rule():
    rng = Lcg(CORPUS_SEED + 50)
    accepted = 0
    while accepted < 100:
        n = rng.integer(3, 5)
        k = rng.integer(2, 3)
        axes = [random_axis(n, 4, rng) for _ in range(k)]
        rs = [a.coincidence_index for a in axes]
        if any(
            math.gcd(rs[i], rs[j]) != 1
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        report = index_coprime_product(axes)
        iso = identity_isometry(n)
        for a in axes:
            iso = compose(iso, reflection(a))
        assert index_by_hnf(iso).sigma == report.sigma == math.prod(rs)
        accepted += 1

    # non-coprime pairs: the formula must refuse, and it must actually be
    # wrong somewhere (a reflection squared has index 1, not r^2)
    square_axis = ReflectionAxis.from_coords((1, 1, 1))
    pairs = [(square_axis, square_axis)]
    while len(pairs) < 50:
        n = rng.integer(3, 5)
        a, b = random_axis(n, 4, rng), random_axis(n, 4, rng)
        if math.gcd(a.coincidence_index, b.coincidence_index) != 1:
            pairs.append((a, b))
    oracle_differs = False
    for a, b in pairs:
        with pytest.raises(CoprimalityViolated):
            index_coprime_product([a, b])
        naive = a.coincidence_index * b.coincidence_index
        actual = index_by_hnf(compose(reflection(a), reflection(b))).sigma
        oracle_differs = oracle_differs or actual != naive
    assert oracle_differs
    print(
        "\nPASS criterion 5: product rule matches the oracle on 100 coprime tuples; "
        "50 non-coprime pairs rejected with at least one true counterexample"
    )


def test_criterion_06_spectrum_three_dimensions():
    table = reflection_spectrum(3, 99)
    assert sorted(table) == list(range(1, 100, 2))
    print("\nPASS criterion 6: n=3 reflection spectrum is exactly the odd integers <= 99")


def test_criterion_07_spectrum_four_dimensions():
    assert 4 not in reflection_spectrum(4, 4)
    for sigma in range(1, 100, 2):
        witness = four_square_odd_decompose(sigma)
        axis = ReflectionAxis.from_coords(witness.squares)
        assert axis.norm_sq == sigma
        assert index_reflection(axis).sigma == sigma
        assert index_by_hnf(reflection(axis)).sigma == sigma
    print(
        "\nPASS criterion 7: no n=4 reflection has index 4; every odd index <= 99 "
        "witnessed via the four-square construction"
    )


def test_criterion_08_spectrum_five_dimensions():
    start = time.monotonic()
    table = reflection_spectrum(5, 64)
    assert sorted(table) == list(range(1, 65))
    for k in (1, 2, 4, 8, 16, 32, 64):
        assert table[k].sigma == k
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nPASS criterion 8: n=5 covers every index <= 64 (powers of two included) in {elapsed:.1f}s")


def test_criterion_09_square_decompositions():
    for m in range(1, 1000, 2):
        w = four_square_odd_decompose(m)
        assert sum(x * x for x in w.squares) == m
        assert w.content == 1
    for m in range(1, 10**4 + 1):
        w = three_square_decompose(m)
        assert (w is None) == is_three_square_excluded(m)
        if w is not None:
            assert sum(x * x for x in w.squares) == m
    print("\nPASS criterion 9: four-square construction (odd m <= 999) and three-square predicate (m <= 10^4)")


def test_criterion_10_snf_soundness():
    rng = Lcg(CORPUS_SEED + 99)
    for _ in range(1000):
        n = rng.integer(1, 5)
        m = rng.integer(1, 5)
        a = IntMatrix.from_rows(
            [[rng.integer(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        dec = smith_normal_form(a)
        assert abs(det(dec.p)) == 1
        assert abs(det(dec.q_right)) == 1
        assert mat_mul(mat_mul(dec.p, a), dec.q_right) == diagonal_matrix(dec.d, n, m)
        for x, y in zip(dec.d, dec.d[1:]):
            assert x >= 0
            assert y % x == 0 if x else y == 0
        if n == m:
            assert math.prod(dec.d) == abs(det(a))
        if max(n, m) <= 4:
            for i in range(1, min(n, m) + 1):
                prod = math.prod(dec.d[:i])
                if prod:
                    assert prod == minors_gcd_reference(a, i)
    print("\nPASS criterion 10: SNF reconstruction, unimodularity, chain, determinant and Artin checks on 1000 matrices")
