"""Quick checks of the benchmark itself: python3 -m pytest -q perfbench

They run a few ops per workload and two short subprocess runs, in about
ten seconds; they do not measure anything.
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_inputs as bi
import bench_workloads as bw
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
C = run.import_package()
import cslindex.cli  # noqa: E402,F401

OPS_PER_WORKLOAD = {"corpus-lowdim": 40, "corpus-highdim": 5, "spectrum-witness": 40, "snf-transforms": 40}


def first(name, seed, count):
    return list(itertools.islice(bi.INPUTS[name](seed), count))


def shape(name, item):
    """What the slot asks for, which must not depend on the seed."""
    if name == "corpus-lowdim":
        return bi._lowdim_stratum(item)
    if name == "corpus-highdim":
        return item["n"]
    if name == "spectrum-witness":
        return item["kind"], item.get("n")
    return item["kind"], len(item["rows"]), len(item["rows"][0])


@pytest.mark.parametrize("name", list(bi.INPUTS))
def test_inputs_follow_the_seed_and_the_mix_does_not(name):
    a, again, b = first(name, 1, 30), first(name, 1, 30), first(name, 2, 30)
    assert a == again
    assert a != b
    assert [shape(name, x) for x in a] == [shape(name, x) for x in b]


@pytest.mark.parametrize("name", list(bi.INPUTS))
def test_ops_pass_their_checks(name):
    workload = bw.WORKLOADS[name]
    phase = run.Phase(workload, C).run(first(name, 3, OPS_PER_WORKLOAD[name]))
    assert phase.failed == 0, phase.problems


def test_spectrum_mix_has_negatives_and_exclusions():
    items = first("spectrum-witness", 1, 400)
    assert any(x["kind"] == "excluded" and bi.three_square_excluded(x["m"]) for x in items)
    assert any(x["kind"] == "witness" and x["n"] == 3 and any(t % 2 == 0 for t in x["targets"]) for x in items)
    assert all(not bi.three_square_excluded(x["m"]) for x in items if x["kind"] == "three")


def test_checks_reject_wrong_results():
    counts = bw.Counts()
    item = first("corpus-lowdim", 1, 7)[-1]
    y, reports = bw.lowdim_run(C, item)
    wrong = [reports[0], dataclasses.replace(reports[1], sigma=reports[1].sigma + 1)] + reports[2:]
    assert bw.cross_check_ok(item, (y, wrong), counts)

    excluded = {"kind": "excluded", "m": 7}
    assert bw.spectrum_ok(excluded, C.SquareWitness(7, (2, 1, 1), 1), counts)
    assert bw.spectrum_ok({"kind": "three", "m": 6}, None, counts)
    witness = {"kind": "witness", "n": 5, "targets": (6,)}
    assert bw.spectrum_ok(witness, ([None], None, None), counts)

    snf_item = next(x for x in first("snf-transforms", 1, 8) if x["kind"] == "square")
    dec = bw.snf_run(C, snf_item)
    p = dec.p.to_rows()
    p[0] = [2 * x for x in p[0]]
    assert bw.snf_ok(snf_item, dataclasses.replace(dec, p=C.IntMatrix.from_rows(p)), counts)


@pytest.mark.parametrize("name", list(bi.INPUTS))
def test_cli_sample_matches_library(name):
    problems, _ = run.run_cli_sample(C, name)
    assert problems == []


def bench_metrics(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, kind):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "spectrum-witness",
           "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == bench_metrics(kind)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corpus-lowdim",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
