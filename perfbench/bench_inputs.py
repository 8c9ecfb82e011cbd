"""Seeded inputs for the benchmark workloads, and exact helpers for its checks.

Nothing here imports cslindex: the package only ever sees the generated
text, axis tuples and integers, and the exact helpers the checks use do not
rely on the code they check.

Every workload is a sequence of slots.  What a slot asks for (its kind,
dimension and size class) depends only on the slot's position, so every
seed runs the same mix; --seed draws the concrete instance for each slot.
This keeps the run-to-run spread of the timings small without leaving the
expensive cases out: they occur in every run, in fixed proportions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Residue cap of the counting oracle; the same value as the package default.
RESIDUE_CAP = 10**7

# Golden-ratio sequence: spreads the size classes of successive slots evenly.
_PHI = (math.sqrt(5) - 1) / 2


def _spread(i: int) -> float:
    return (i * _PHI) % 1.0


# --- exact integer helpers --------------------------------------------------


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def det(a: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def three_square_excluded(m: int) -> bool:
    """m = 4^a (8k + 7), the integers that are not sums of three squares."""
    while m % 4 == 0:
        m //= 4
    return m % 8 == 7


def reflection_product(n: int, axes) -> tuple[int, list[list[int]]]:
    """(q, Z) in lowest terms with Z / q the product of the reflections along axes."""
    z = [[int(i == j) for j in range(n)] for i in range(n)]
    q = 1
    for v in axes:
        # z (w I - 2 v v^T) = w z - 2 (z v) v^T
        w = sum(c * c for c in v)
        zv = [sum(x * c for x, c in zip(row, v)) for row in z]
        z = [[w * x - 2 * s * c for x, c in zip(row, v)] for row, s in zip(z, zv)]
        q *= w
        g = math.gcd(q, *(x for row in z for x in row))
        q //= g
        z = [[x // g for x in row] for row in z]
    return q, z


def rational_matrix_text(q: int, z: list[list[int]]) -> str:
    """The README matrix text format, with p/q tokens."""
    lines = [f"{len(z)} {len(z[0])}"]
    for row in z:
        toks = []
        for x in row:
            f = Fraction(x, q)
            toks.append(str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def int_matrix_text(rows: list[list[int]]) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _axis(rng: random.Random, n: int, bound: int) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v):
            return v


def _seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- corpus-lowdim ----------------------------------------------------------

LOWDIM_DIMS = (2, 3, 4, 5, 6)


def _lowdim_element(rng: random.Random, n: int) -> dict:
    """A criterion-1 corpus element: at most 3 reflections, axis bound 4."""
    axes = [_axis(rng, n, 4) for _ in range(rng.randint(0, 3))]
    q, z = reflection_product(n, axes)
    return {"n": n, "q": q, "z": z}


def _lowdim_stratum(e: dict) -> tuple[int, int]:
    """Dimension and half-decade of q^n, the counting oracle's work; -1 means capped."""
    work = e["q"] ** e["n"]
    return e["n"], (-1 if work > RESIDUE_CAP else int(2 * math.log10(work)))


def lowdim_inputs(seed: int):
    """Matrix texts whose stratum sequence follows a fixed draw of the corpus."""
    mix, rng = random.Random("corpus-lowdim:mix"), _seeded("corpus-lowdim", seed)
    spare: dict[tuple[int, int], list[dict]] = {}
    i = 0
    while True:
        n = LOWDIM_DIMS[i % len(LOWDIM_DIMS)]
        i += 1
        want = _lowdim_stratum(_lowdim_element(mix, n))
        while not spare.get(want):
            e = _lowdim_element(rng, n)
            spare.setdefault(_lowdim_stratum(e), []).append(e)
        e = spare[want].pop()
        yield {"n": n, "q": e["q"], "text": rational_matrix_text(e["q"], e["z"])}


# --- corpus-highdim ---------------------------------------------------------

# The Smith form's transform growth gives a heavy tail that rises fast with n:
# single ops of 2.6 s at n = 14, 8.5 s at n = 15 and 22 s at n = 18 were
# seen among a few hundred draws, next to medians of 0.05-0.1 s.  Up to
# n = 13 no single op decides a run, and the Smith forms still take about
# half of the op time.
HIGHDIM_DIMS = (11, 12, 13)


def highdim_inputs(seed: int):
    """n axes with coordinates in [-8, 8] per element, n cycling over HIGHDIM_DIMS."""
    rng = _seeded("corpus-highdim", seed)
    i = 0
    while True:
        n = HIGHDIM_DIMS[i % len(HIGHDIM_DIMS)]
        i += 1
        axes = tuple(_axis(rng, n, 8) for _ in range(n))
        yield {"n": n, "axes": axes, "q": reflection_product(n, axes)[0]}


# --- spectrum-witness -------------------------------------------------------

# Slot kinds: a witness construction, a representable three-square target,
# an excluded one (4^a(8k+7)), and an odd four-square target.
SPECTRUM_SLOTS = ("witness", "three", "witness", "odd", "witness", "excluded", "witness", "witness")
WITNESS_DIMS = (3, 4, 5, 6, 7, 8)
SQUARE_LOG10_RANGE = (3.0, 6.0)  # targets from 10^3 to 10^6


def _coprime_targets(rng: random.Random) -> tuple[int, ...]:
    targets: list[int] = []
    for _ in range(rng.randint(1, 3)):
        for _ in range(100):
            t = rng.randint(2, 40)
            if all(math.gcd(t, u) == 1 for u in targets):
                targets.append(t)
                break
    return tuple(targets)


def spectrum_inputs(seed: int):
    """Witness targets and square-decomposition targets, in SPECTRUM_SLOTS order."""
    rng = _seeded("spectrum-witness", seed)
    lo, hi = SQUARE_LOG10_RANGE
    i = witnesses = 0
    while True:
        kind = SPECTRUM_SLOTS[i % len(SPECTRUM_SLOTS)]
        size = 10 ** (lo + (hi - lo) * _spread(i))
        i += 1
        if kind == "witness":
            n = WITNESS_DIMS[witnesses % len(WITNESS_DIMS)]
            witnesses += 1
            yield {"kind": kind, "n": n, "targets": _coprime_targets(rng)}
            continue
        m = max(1, int(size * rng.uniform(0.95, 1.05)))
        if kind == "excluded":
            a = rng.randint(0, 2)
            m = 4**a * (8 * max(0, (m // 4**a - 7) // 8) + 7)
        elif kind == "odd":
            m |= 1
        else:
            while three_square_excluded(m):
                m += 1
        yield {"kind": kind, "m": m}


# --- snf-transforms ---------------------------------------------------------

SNF_SLOTS = ("isometry", "square", "isometry", "wide", "isometry", "tall", "isometry", "deficient")
SNF_DIMS = (8, 9, 10, 11, 12, 13, 14)


def _int_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def snf_inputs(seed: int):
    """Integer matrix texts: isometry numerators and random dense matrices."""
    rng = _seeded("snf-transforms", seed)
    i = 0
    while True:
        kind = SNF_SLOTS[i % len(SNF_SLOTS)]
        n = SNF_DIMS[i % len(SNF_DIMS)]
        i += 1
        rank = None
        if kind == "isometry":
            rows = reflection_product(n, [_axis(rng, n, 4) for _ in range(n // 2)])[1]
        elif kind == "square":
            rows = _int_matrix(rng, n, n, 9)
        elif kind == "wide":
            rows = _int_matrix(rng, n, n + 3, 9)
        elif kind == "tall":
            rows = _int_matrix(rng, n + 3, n, 9)
        else:
            rank = n // 2
            rows = matmul(_int_matrix(rng, n, rank, 5), _int_matrix(rng, rank, n, 5))
        yield {"kind": kind, "rows": rows, "rank_bound": rank, "text": int_matrix_text(rows)}


INPUTS = {
    "corpus-lowdim": lowdim_inputs,
    "corpus-highdim": highdim_inputs,
    "spectrum-witness": spectrum_inputs,
    "snf-transforms": snf_inputs,
}
