import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cslindex
from cslindex import normalform, oracle
from cslindex.indices import index_fortes
from cslindex.isometry import (
    CrossCheckFailed,
    RationalIsometry,
    from_rational_matrix,
    identity_isometry,
    random_corpus,
    random_isometry,
    reflection,
)
from cslindex.matrices import IntMatrix, RatMatrix, mat_mul, parse_rat_matrix
from cslindex.oracle import (
    DEFAULT_RESIDUE_CAP,
    ROUTES,
    CapExceeded,
    _closure_size,
    _coprime_parts,
    _dual_hermite_mod,
    index_by_counting,
    index_by_hnf,
    intersection_hnf,
    residue_image_size,
    run_routes,
)
from support import (
    hermite_normal_form,
    hnf_lattice_contains,
    matrices,
    residue_image_size_reference,
    rotation_direct_sum,
    wrong_xgcd,
)

ROT_2D = from_rational_matrix(
    RatMatrix.make(IntMatrix.from_rows([[3, -4], [4, 3]]), 5)
)
ROT_4D = from_rational_matrix(
    RatMatrix.make(
        IntMatrix.from_rows([[3, -4, 0, 0], [4, 3, 0, 0], [0, 0, 3, -4], [0, 0, 4, 3]]),
        5,
    )
)


class TestCounting:
    def test_identity(self):
        report = index_by_counting(identity_isometry(3))
        assert report.sigma == 1
        assert report.factors == (1, 1)

    def test_planar_rotation(self):
        report = index_by_counting(ROT_2D)
        assert report.sigma == 5
        assert report.factors == (5, 5)  # 5 solutions among 25 residues

    def test_double_rotation(self):
        report = index_by_counting(ROT_4D)
        assert report.sigma == 25
        assert report.factors == (5, 25)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            index_by_counting(ROT_4D, cap=100)

    def test_cap_when_q_n_is_too_long_for_str(self):
        # q^30 has about 9,000 digits, past Python's default int-to-str limit
        y = from_rational_matrix(parse_rat_matrix(rotation_direct_sum(15)[0]))
        with pytest.raises(CapExceeded) as exc:
            index_by_counting(y)
        assert str(exc.value) == "q^n exceeds the cap 10000000 (n = 30, q has 997 bits)"

    def test_solution_count_direct(self):
        # brute force over all 25 residue pairs, written out independently
        z = [[3, -4], [4, 3]]
        expected = sum(
            1
            for x in range(5)
            for y in range(5)
            if (3 * x - 4 * y) % 5 == 0 and (4 * x + 3 * y) % 5 == 0
        )
        assert 25 // residue_image_size(IntMatrix.from_rows(z), 5) == expected == 5

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 4),
        k=st.integers(1, 2),
        bound=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closure_matches_brute_force_kernel(self, n, k, bound, seed):
        y = random_isometry(n, k, bound, seed)
        assume(y.q**n <= 10**4)
        z = y.z.to_rows()
        kernel = sum(
            1
            for x in itertools.product(range(y.q), repeat=n)
            if all(sum(z[i][j] * x[j] for j in range(n)) % y.q == 0 for i in range(n))
        )
        assert residue_image_size(y.z, y.q) * kernel == y.q**n
        assert index_by_counting(y).factors == (y.q, kernel)


def prime_power_parts(q):
    """The p-part of q for every prime p dividing q, in increasing order of p, testing every p <= q."""
    parts = []
    for p in range(2, q + 1):
        if q % p == 0 and all(p % d for d in range(2, p)):
            part = p
            while q % (part * p) == 0:
                part *= p
            parts.append(part)
    return parts


@st.composite
def isometries_with_coprime_parts(draw):
    """random_isometry(n, k, bound, s) with q^n <= 10^5 and at least two primes in q:
    the first such s among 64 seeds from a drawn one."""
    n, k, bound = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    for s in range(seed, seed + 64):
        y = random_isometry(n, k, bound, s)
        if y.q**n <= 10**5 and len(prime_power_parts(y.q)) >= 2:
            return y
    assume(False)


class TestCoprimeSplit:
    @pytest.mark.parametrize(
        "q, parts",
        [
            (1, []),
            (2, [2]),
            (97, [97]),
            (10007, [10007]),
            (2**10, [2**10]),
            (3**2 * 5 * 7, [9, 5, 7]),
            (2 * 10007, [2, 10007]),
            (10007**2, [10007**2]),
            (2**3 * 3 * 101 * 9973, [8, 3, 101, 9973]),
        ],
    )
    def test_parts(self, q, parts):
        assert _coprime_parts(q) == parts

    @settings(max_examples=200)
    @given(st.integers(1, 10**5))
    def test_parts_are_the_prime_powers(self, q):
        parts = _coprime_parts(q)
        assert math.prod(parts) == q
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(parts, 2))
        assert parts == prime_power_parts(q)

    def test_q_one(self):
        z = IntMatrix.from_rows([[3, -4], [4, 3]])
        assert residue_image_size(z, 1) == 1

    @settings(max_examples=60, deadline=None)
    @given(isometries_with_coprime_parts())
    def test_one_closure_per_part_matches_whole_q(self, y):
        with mock.patch.object(oracle, "_closure_size", wraps=oracle._closure_size) as closure:
            size = residue_image_size(y.z, y.q)
        assert [c.args[1] for c in closure.call_args_list] == prime_power_parts(y.q)
        assert size == residue_image_size_reference(y.z, y.q) == index_by_hnf(y).sigma

    @pytest.mark.parametrize("m", [2**5 - 1, 2**5, 2**8 - 1, 2**8])
    def test_fields_at_the_bit_boundary(self, m):
        # six rows; entries m - 1 and m - 2 make sums of two fields reach 2m - 2.
        # 255 = 3 * 5 * 17 splits, so the closure also runs on the whole of it
        z = IntMatrix.from_rows(
            [[-1, 1], [-1, -1], [-2, m // 2], [-1, 0], [m - 1, -2], [2 * m - 1, m + 1]]
        )
        want = residue_image_size_reference(z, m)
        assert residue_image_size(z, m) == _closure_size(z, m) == want == m * m


def test_import_leaves_numpy_out():
    src = str(Path(cslindex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cslindex; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "False"


class TestIntersectionHnf:
    def test_identity(self):
        basis = intersection_hnf(identity_isometry(4))
        assert basis.basis == IntMatrix.identity(4)
        assert basis.index == 1

    def test_reflection(self):
        assert intersection_hnf(reflection((1, 1, 1))).index == 3

    def test_planar_rotation_membership(self):
        y = ROT_2D
        basis = intersection_hnf(y)
        assert basis.index == 5
        for i in range(basis.basis.rows):
            row = IntMatrix.from_rows([list(basis.basis.row(i))])
            # Y^{-1} b integral: q divides every coordinate of Z^T b, i.e. of b Z
            image = mat_mul(row, y.z)
            assert all(x % y.q == 0 for x in image.entries)

    def test_sublattice_saturation(self):
        for y in [ROT_2D, ROT_4D, reflection((3, 2, 1))]:
            basis = intersection_hnf(y)
            for i in range(y.n):
                unit = [y.q if j == i else 0 for j in range(y.n)]
                assert hnf_lattice_contains(basis.basis, unit)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        k=st.integers(0, 2),
        bound=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_basis_against_brute_force_congruence(self, n, k, bound, seed):
        y = random_isometry(n, k, bound, seed)
        assume(y.q**n <= 10**4)
        z = y.z.to_rows()

        def solves(w):  # w Z ≡ 0 (mod q), i.e. w Y is integral
            return all(sum(w[i] * z[i][j] for i in range(n)) % y.q == 0 for j in range(n))

        result = intersection_hnf(y)
        assert all(solves(result.basis.row(i)) for i in range(n))
        assert hermite_normal_form(result.basis) == result.basis
        solutions = sum(1 for w in itertools.product(range(y.q), repeat=n) if solves(w))
        assert result.index * solutions == y.q**n


def unreduced_intersection_basis(z, q):
    """Right block of the last n rows of the Hermite form of [[Z, I], [q I, 0]], with no reduction mod q."""
    n = z.rows
    stacked = [list(z.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    stacked += [[q * int(i == j) for j in range(2 * n)] for i in range(n)]
    h = hermite_normal_form(IntMatrix.from_rows(stacked))
    return IntMatrix.from_rows(h.row(i)[n:] for i in range(n, 2 * n))


@st.composite
def isometries(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(0, n))
    bound = draw(st.integers(1, 8))
    return random_isometry(n, k, bound, draw(st.integers(0, 2**32 - 1)))


class TestHermiteModQ:
    def check(self, y):
        result = intersection_hnf(y)
        assert result.basis == unreduced_intersection_basis(y.z, y.q)
        assert result.index == math.prod(result.basis.at(i, i) for i in range(y.n))

    @settings(max_examples=80, deadline=None)
    @given(isometries())
    def test_matches_unreduced_hermite_form(self, y):
        self.check(y)

    @pytest.mark.parametrize(
        "args",
        [(20, 20, 8, 2020), (32, 32, 8, 3232), (8, 200, 8, 5), (3, 1000, 8, 5)],
        ids=["20-2020", "32-3232", "8-200-5", "3-1000-5"],
    )
    def test_matches_unreduced_hermite_form_large(self, args):
        # the long products have q of 1,246 and 4,094 bits
        self.check(random_isometry(*args))

    @settings(max_examples=100, deadline=None)
    @given(z=matrices(lo=-60, hi=60, dims=st.integers(1, 6).map(lambda n: (n, n))), q=st.integers(1, 500))
    @example(z=IntMatrix.from_rows([[3, 4], [4, 0]]), q=6)
    def test_any_square_matrix(self, z, q):
        # the construction uses no orthogonality, so it holds for any square Z and q >= 1
        assert _dual_hermite_mod(z, q) == unreduced_intersection_basis(z, q)

    @pytest.mark.parametrize("args, q", [((8, 2, 4, 83), 1210), ((4, 1, 3, 6), 15)])
    def test_rejoined_row_is_the_folded_row(self, args, q):
        # rejoining (q / p) times the pivot row instead of (q / p) r gave a wrong
        # basis on both draws when the oracle eliminated [Z | I]; on the column
        # lattice of Z it shows on the example of test_any_square_matrix
        y = random_isometry(*args)
        assert y.q == q
        self.check(y)


class TestDualDivisionChecks:
    # a corrupted lower basis B of the column lattice is caught by a division of the dual step
    def test_pivot_not_dividing_q(self, monkeypatch):
        # a doubled Bezout coefficient makes the pivot 2 gcd(r_j, q) mod q
        monkeypatch.setattr(oracle, "_xgcd", wrong_xgcd(s_factor=2))
        with pytest.raises(CrossCheckFailed) as failed:
            intersection_hnf(ROT_2D)
        assert str(failed.value) == "HNF oracle: the pivot of column 1 does not divide q"

    def test_forward_substitution_remainder(self, monkeypatch):
        # a wrong gcd leaves pivots that divide q = 95, but not a basis of the lattice
        y = random_isometry(3, 2, 3, 39)
        assert y.q == 95
        monkeypatch.setattr(oracle, "_xgcd", wrong_xgcd(g_off=1))
        with pytest.raises(CrossCheckFailed) as failed:
            intersection_hnf(y)
        assert str(failed.value) == "HNF oracle: forward substitution leaves a remainder in column 1"


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracles_and_formula_agree(self, n):
        for y in random_corpus(n, 15, 900 + n):
            hnf_sigma = index_by_hnf(y).sigma
            assert hnf_sigma == index_fortes(y).sigma
            if y.q**y.n <= 10**6:
                assert index_by_counting(y).sigma == hnf_sigma


# the Smith routines, and the cached property that runs one, by code object
SMITH_CODE = {
    normalform._smith_diagonal_mod.__code__: "_smith_diagonal_mod",
    normalform.smith_normal_form.__code__: "smith_normal_form",
    normalform._echelon.__code__: "_echelon",
    RationalIsometry.invariant_factors.func.__code__: "RationalIsometry.invariant_factors",
}


def codes_called(call, y):
    """Code objects of every Python function that call(y) enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(y)
    finally:
        sys.setprofile(before)
    return seen


def fresh_draws():
    """New isometries, n = 2..8, so no invariant_factors is cached yet."""
    return [random_isometry(n, k, 3, 100 * n + k) for n in range(2, 9) for k in range(4)]


class TestOraclesNeverReadSmith:
    @pytest.mark.parametrize("method", [m for m, (reads_smith, _) in ROUTES.items() if not reads_smith])
    def test_no_smith_routine_runs(self, method):
        reports = []
        for y in fresh_draws():
            seen = codes_called(lambda y: reports.extend(run_routes(y, methods=[method])[0]), y)
            assert not [SMITH_CODE[c] for c in seen if c in SMITH_CODE], (y.n, y.q)
        assert len(reports) >= 10

    @pytest.mark.parametrize("method", [m for m, (reads_smith, _) in ROUTES.items() if reads_smith])
    def test_formulas_read_smith(self, method):
        for y in fresh_draws():
            seen = codes_called(lambda y: run_routes(y, methods=[method]), y)
            assert RationalIsometry.invariant_factors.func.__code__ in seen, (y.n, y.q)

    def test_profile_sees_the_routines(self):
        # the probe itself works: the HNF oracle's elimination and a formula's Smith diagonal show
        y = random_isometry(4, 3, 3, 7)
        assert _dual_hermite_mod.__code__ in codes_called(intersection_hnf, y)
        seen = codes_called(index_fortes, y)
        assert RationalIsometry.invariant_factors.func.__code__ in seen
        assert normalform._smith_diagonal_mod.__code__ in seen


class TestRunRoutes:
    @pytest.mark.parametrize("cap", [1, 30, DEFAULT_RESIDUE_CAP])
    def test_each_route_reports_or_names_its_skip(self, cap):
        for y in fresh_draws():
            reports, skipped = run_routes(y, cap)
            ran = [r.method for r in reports]
            not_ran = [m for m in ROUTES if m not in ran]
            assert ran == [m for m in ROUTES if m in ran]
            assert len(skipped) == len(not_ran)
            assert all(reason.startswith(f"{m} skipped: ") for m, reason in zip(not_ran, skipped))
            assert len({r.sigma for r in reports}) == 1, (y.n, y.q)
