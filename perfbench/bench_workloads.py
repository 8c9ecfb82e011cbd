"""What one op of each workload calls, and how its outputs are checked.

An op is a fixed sequence of calls into the public functions of cslindex,
reached through the package module `C` so that the traced run can swap in
timed wrappers.  `check` runs with the clock stopped; it returns a list of
problems (empty when the op is correct) and adds to the op-level counters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import bench_inputs as bi


class Counts(dict):
    """Op-level counters: sums and maxima of input properties."""

    def add(self, key: str, value: int = 1) -> None:
        self[key] = self.get(key, 0) + value

    def dimension(self, n: int) -> None:
        self.add("n_ops")
        self.add("n_sum", n)
        self["n_max"] = max(self.get("n_max", n), n)


# --- corpus-lowdim and corpus-highdim: the verify cross-check ---------------


def _cross_check(C, y):
    """The routes `cslindex verify` runs: counting only under the residue cap."""
    reports = [C.index_fortes(y), C.index_closed_form(y), C.index_by_hnf(y)]
    if y.q**y.n <= bi.RESIDUE_CAP:
        reports.append(C.index_by_counting(y, bi.RESIDUE_CAP))
    return y, reports


def lowdim_run(C, item):
    return _cross_check(C, C.from_rational_matrix(C.parse_rat_matrix(item["text"])))


def highdim_run(C, item):
    axes = item["axes"]
    y = C.reflection(axes[0])
    for v in axes[1:]:
        y = C.compose(y, C.reflection(v))
    return _cross_check(C, y)


def cross_check_ok(item, result, counts: Counts) -> list[str]:
    y, reports = result
    n, q = item["n"], item["q"]
    counts.dimension(n)
    feasible = q**n <= bi.RESIDUE_CAP
    counts.add("counting_feasible" if feasible else "counting_skipped")
    problems = []
    if (y.n, y.q) != (n, q):
        problems.append(f"isometry has n={y.n} q={y.q}, expected n={n} q={q}")
    sigmas = {r.method: r.sigma for r in reports}
    if len(set(sigmas.values())) != 1:
        problems.append(f"routes disagree: {sigmas}")
    if ("oracle_count" in sigmas) != feasible:
        problems.append(f"counting ran={'oracle_count' in sigmas} but q^n <= cap is {feasible}")
    return problems


# --- spectrum-witness -------------------------------------------------------


def spectrum_run(C, item):
    kind = item["kind"]
    if kind == "odd":
        return C.four_square_odd_decompose(item["m"])
    if kind != "witness":
        return C.three_square_decompose(item["m"])
    axes = [C.spectrum.reflection_witness_axis(item["n"], t) for t in item["targets"]]
    if None in axes:
        return axes, None, None
    y = C.reflection(axes[0])
    for axis in axes[1:]:
        y = C.compose(y, C.reflection(axis))
    return axes, C.intersection_hnf(y).index, C.index_coprime_product(axes).sigma


def _witness_problems(item, result) -> list[str]:
    n, targets = item["n"], item["targets"]
    axes, index, product = result
    problems = []
    for t, axis in zip(targets, axes):
        if axis is None:
            if n >= 5 or (n == 3 and t % 2):
                problems.append(f"no witness for sigma={t} in dimension {n}")
            continue
        v = axis.coords
        w = sum(c * c for c in v)
        if len(v) != n or math.gcd(*v) != 1 or (w // 2 if w % 2 == 0 else w) != t:
            problems.append(f"axis {v} does not realize sigma={t} in dimension {n}")
        elif n == 3 and t % 2 == 0:
            problems.append(f"even sigma={t} realized in dimension 3")
    if None not in axes and not index == product == math.prod(targets):
        problems.append(f"witness index {index}, coprime product {product}, targets {targets}")
    return problems


def spectrum_ok(item, result, counts: Counts) -> list[str]:
    kind = item["kind"]
    if kind == "witness":
        counts.dimension(item["n"])
        return _witness_problems(item, result)
    m, w = item["m"], result
    if kind == "odd":
        if w is None or len(w.squares) != 4 or sum(x * x for x in w.squares) != m or math.gcd(*w.squares) != 1:
            return [f"bad four-square witness {w} for odd m={m}"]
        return []
    excluded = bi.three_square_excluded(m)
    if excluded != (w is None):
        return [f"m={m}: excluded={excluded} but decomposition {w}"]
    if w is not None and (len(w.squares) != 3 or sum(x * x for x in w.squares) != m):
        return [f"bad three-square witness {w} for m={m}"]
    return []


# --- snf-transforms ---------------------------------------------------------


def snf_run(C, item):
    return C.smith_normal_form(C.parse_int_matrix(item["text"]))


def snf_ok(item, result, counts: Counts) -> list[str]:
    a = item["rows"]
    rows, cols = len(a), len(a[0])
    p, q, d = result.p.to_rows(), result.q_right.to_rows(), result.d
    counts.dimension(max(rows, cols))
    problems = []
    diag = [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    if len(d) != min(rows, cols) or bi.matmul(bi.matmul(p, a), q) != diag:
        problems.append("P A Q != diag(d)")
    det_a = bi.det(a) if rows == cols else 0
    if det_a:
        # det P * det A * det Q = prod(d), so |det A| = |prod(d)| makes the
        # integers det P and det Q +-1 without expanding the large P and Q.
        unimodular = abs(det_a) == abs(math.prod(d))
    else:
        unimodular = abs(bi.det(p)) == abs(bi.det(q)) == 1
    if not unimodular:
        problems.append("P or Q is not unimodular")
    for x, y in zip(d, d[1:]):
        if x < 0 or (y % x if x else y):
            problems.append(f"d is not a divisibility chain: {d}")
            break
    if item["rank_bound"] is not None and sum(1 for x in d if x) > item["rank_bound"]:
        problems.append(f"rank of {d} exceeds {item['rank_bound']}")
    return problems


# --- CLI samples ------------------------------------------------------------
#
# Each call runs `cslindex.cli.main` twice in process.  `expect` gets the
# package and the captured stdout and returns problems; it compares against
# the library results.


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    expect: Callable


ROT = "2 2\n3/5 -4/5\n4/5 3/5\n"
_M3 = bi.rational_matrix_text(*bi.reflection_product(3, [(1, 2, 2), (1, 1, 0), (0, 1, 3)]))
_INT = bi.int_matrix_text([[4, 6, -2, 8, 1, 0], [2, -3, 5, 1, 7, 2], [6, 3, 3, 9, 8, 2], [0, 12, -12, 6, -6, -2], [1, 1, 1, 1, 1, 1]])
CLI_FILES = {"rot.txt": ROT, "m3.txt": _M3, "int.txt": _INT}


def _verify_expect(text, as_json):
    def expect(C, out):
        _, reports = _cross_check(C, C.from_rational_matrix(C.parse_rat_matrix(text)))
        if as_json:
            want = json.dumps({"methods": {r.method: r.sigma for r in reports}, "agree": True}, sort_keys=True) + "\n"
        else:
            want = "".join(f"{r.method} {r.sigma}\n" for r in reports) + "verdict agree\n"
        return [] if out == want else [f"verify printed {out!r}, library gives {want!r}"]

    return expect


def _corpus_expect(dim, count, seed, reflections, bound):
    def expect(C, out):
        want = []
        for y in C.random_corpus(dim, count, seed, reflections, bound):
            _, reports = _cross_check(C, y)
            want.append({"q": y.q, "sigma": reports[0].sigma, "agree": len({r.sigma for r in reports}) == 1})
        return [] if json.loads(out) == want else [f"corpus printed {out!r}, library gives {want}"]

    return expect


def _corpus_call(dim, count, seed, reflections, bound):
    argv = ("corpus", "--dim", str(dim), "--count", str(count), "--seed", str(seed),
            "--reflections", str(reflections), "--bound", str(bound), "--json")
    return CliCall(argv, _corpus_expect(dim, count, seed, reflections, bound))


def _spectrum_expect(C, out):
    want = {str(s): list(w.axes[0].coords) for s, w in C.reflection_spectrum(3, 25).items()}
    return [] if json.loads(out) == want else [f"spectrum printed {out!r}, library gives {want}"]


def _decompose_expect(flag, m):
    def expect(C, out):
        w = C.four_square_odd_decompose(m) if flag == "--odd" else C.three_square_decompose(m)
        want = {"target": m, "squares": None} if w is None else {
            "target": w.target, "squares": list(w.squares), "content": w.content}
        return [] if json.loads(out) == want else [f"decompose printed {out!r}, library gives {want}"]

    return expect


def _snf_expect(C, out):
    dec = C.smith_normal_form(C.parse_int_matrix(_INT))
    want = {"d": list(dec.d), "p": dec.p.to_rows(), "q": dec.q_right.to_rows()}
    return [] if json.loads(out) == want else [f"snf printed {out!r}, library gives {want}"]


CLI_SAMPLES = {
    "corpus-lowdim": (
        CliCall(("verify", "--matrix", "rot.txt", "--json"), _verify_expect(ROT, True)),
        CliCall(("verify", "--matrix", "m3.txt"), _verify_expect(_M3, False)),
        _corpus_call(4, 6, 7, 3, 4),
    ),
    "corpus-highdim": (_corpus_call(10, 2, 7, 10, 8),),
    "spectrum-witness": (
        CliCall(("spectrum", "--dim", "3", "--max", "25", "--json"), _spectrum_expect),
        CliCall(("decompose", "--three", "28", "--json"), _decompose_expect("--three", 28)),
        CliCall(("decompose", "--three", "100003", "--json"), _decompose_expect("--three", 100003)),
        CliCall(("decompose", "--odd", "4711", "--json"), _decompose_expect("--odd", 4711)),
    ),
    "snf-transforms": (CliCall(("snf", "int.txt", "--json"), _snf_expect),),
}


@dataclass(frozen=True)
class Workload:
    run: Callable
    check: Callable


WORKLOADS = {
    "corpus-lowdim": Workload(lowdim_run, cross_check_ok),
    "corpus-highdim": Workload(highdim_run, cross_check_ok),
    "spectrum-witness": Workload(spectrum_run, spectrum_ok),
    "snf-transforms": Workload(snf_run, snf_ok),
}
