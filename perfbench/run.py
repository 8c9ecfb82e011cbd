"""Benchmark of cslindex: seeded closed-loop workloads, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-lowdim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20      # every workload, one table

With --trace 0 the ops run untraced for --seconds of op time and the last
stdout line holds the end-to-end metrics.  With --trace 1 the ops run
untraced for half of --seconds, then the same ops run again with a span
around every public call, and the last line holds the per-layer metrics.
Correctness checks and input generation run with the op clock stopped.
See perfbench/README.md for the workloads, metrics and their expected
interactions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_inputs
import bench_trace
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PHASE_WALL_LIMIT_S = 60  # two phases and set-up stay well inside three minutes


class PackageMissing(RuntimeError):
    pass


def import_package():
    """Import cslindex from this checkout's src/, never from elsewhere."""
    if not (SRC / "cslindex" / "__init__.py").is_file():
        raise PackageMissing(f"no cslindex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cslindex

    if Path(cslindex.__file__).resolve().parent != SRC / "cslindex":
        raise PackageMissing(f"imported cslindex from {cslindex.__file__}, not from {SRC}")
    return cslindex


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-process set-up: import the package and generate the first op's input."""
    start = time.perf_counter()
    import_package()
    next(bench_inputs.INPUTS[workload](seed))
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES fresh processes, after one that warms the bytecode cache."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


def environment(args) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Phase:
    """Closed loop over items: one op at a time, each checked after its clock stops."""

    def __init__(self, workload, C) -> None:
        self.workload, self.C = workload, C
        self.items: list = []  # kept only when asked, so they do not count in peak_rss_mb
        self.latencies: list[float] = []
        self.op_time = 0.0
        self.failed = 0
        self.problems: list[str] = []
        self.counts = bench_workloads.Counts()

    def run(self, items, op_seconds: float | None = None, tracer=None, keep_items=False) -> "Phase":
        wall_start = time.perf_counter()
        for op_id, item in enumerate(items):
            if tracer is not None:
                tracer.op = op_id
            start = time.perf_counter()
            try:
                result = self.workload.run(self.C, item)
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - start
            self.latencies.append(elapsed)
            self.op_time += elapsed
            if keep_items:
                self.items.append(item)
            issues = [f"raised {error!r}"] if error else self.workload.check(item, result, self.counts)
            if issues:
                self.failed += 1
                self.problems.append(f"op {op_id}: {'; '.join(issues)}")
            if op_seconds is not None and (
                (self.op_time >= op_seconds and len(self.latencies) >= MIN_OPS)
                or time.perf_counter() - wall_start > PHASE_WALL_LIMIT_S
            ):
                break
        return self


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def run_cli_sample(C, name: str, tracer=None) -> tuple[list[str], float]:
    """Each sample command twice through cli.main; outputs must match and agree with the library."""
    cli = sys.modules["cslindex.cli"]
    outputs = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for fname, text in bench_workloads.CLI_FILES.items():
            Path(tmp, fname).write_text(text)
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for call in bench_workloads.CLI_SAMPLES[name]:
                argv = [str(Path(tmp, a)) if a in bench_workloads.CLI_FILES else a for a in call.argv]
                runs = []
                for _ in range(2):
                    if tracer is not None:
                        tracer.op = "cli"
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(argv)
                        except Exception as exc:  # a traceback out of the CLI is a failure
                            code = f"raised {exc!r}"
                    runs.append((code, out.getvalue(), err.getvalue()))
                outputs.append((call, runs))
            elapsed = time.perf_counter() - start
    problems = []
    for call, runs in outputs:
        (code, out, err), again = runs
        label = " ".join(call.argv)
        if runs[0] != again:
            problems.append(f"cli {label}: two calls printed different output")
        if code != 0:
            problems.append(f"cli {label}: exit {code}, stderr {err.strip()!r}")
        else:
            problems.extend(f"cli {label}: {p}" for p in call.expect(C, out))
    return problems, elapsed


def end_to_end(phase: Phase, setup_s: float) -> dict:
    attempted = len(phase.latencies)
    return {
        "ops_per_s": {"value": attempted / phase.op_time, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(phase.latencies), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * percentile(phase.latencies, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "ok_frac": {"value": (attempted - phase.failed) / attempted, "unit": "ratio"},
    }


def op_counters(counts: dict) -> dict:
    n_ops = counts.get("n_ops", 0)
    return {
        "input.n_mean": counts.get("n_sum", 0) / n_ops if n_ops else 0.0,
        "input.n_max": counts.get("n_max", 0),
        "oracle.index_by_counting.feasible": counts.get("counting_feasible", 0),
        "oracle.index_by_counting.skipped": counts.get("counting_skipped", 0),
    }


def per_layer(untraced: Phase, traced: Phase, tracer) -> dict:
    values = bench_trace.summarize(tracer.spans, traced.op_time)
    values.update(op_counters(traced.counts))
    values.update({key: tracer.counters.get(key, 0) for key in bench_trace.COUNTERS})
    values["trace.ops"] = len(traced.latencies)
    values["trace.overhead_frac"] = traced.op_time / untraced.op_time - 1.0
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}


def per_layer_unit(key: str) -> str:
    for suffix, unit in ((".calls", "count"), (".total_s", "s"), (".share", "ratio"),
                         ("_frac", "ratio"), ("bits_max", "bits"), (".n_mean", "dim"), (".n_max", "dim")):
        if key.endswith(suffix):
            return unit
    return "count"


def run_one(args) -> int:
    try:
        C = import_package()
        setup_s = measure_setup(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # PackageMissing is a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import cslindex.cli  # noqa: F401  (cli.main is part of the traced layers)

    workload = bench_workloads.WORKLOADS[args.workload]
    stream = bench_inputs.INPUTS[args.workload](args.seed)
    first = next(stream)
    try:
        workload.run(C, first)  # warm-up, untimed; op 0 runs the same input again
    except Exception:
        pass
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    untraced = Phase(workload, C).run(
        itertools.chain([first], stream), op_seconds=untraced_s, keep_items=bool(args.trace)
    )
    phases = [untraced]
    tracer = bench_trace.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            phases.append(Phase(workload, C).run(untraced.items, tracer=tracer))
    cli_problems, cli_s = run_cli_sample(C, args.workload, tracer)

    env = environment(args)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    e2e = end_to_end(untraced, setup_s)
    print("# env " + json.dumps(env, sort_keys=True))
    for key, m in e2e.items():
        print(f"# {key} {m['value']:.6g} {m['unit']}")
    print(f"# samples {len(untraced.latencies)} ops, failed {untraced.failed}, "
          f"failed_frac {untraced.failed / len(untraced.latencies):.6g}, cli sample {cli_s:.3f} s")
    print("# counters " + json.dumps(op_counters(untraced.counts), sort_keys=True))
    for problem in [p for ph in phases for p in ph.problems][:10] + cli_problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    if tracer is None:
        metrics = e2e
    else:
        metrics = per_layer(untraced, phases[1], tracer)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "metrics": metrics, "spans": tracer.spans}))
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not cli_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    print(f"{'workload':18} {'metric':12} {'value':>14}  unit")
    for name in bench_inputs.INPUTS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(f"{name:18} error: {done.stderr.strip()}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows["samples"] = {"value": result["attempted"], "unit": "ops"}
        for key, m in rows.items():
            print(f"{name:18} {key:12} {m['value']:>14.6g}  {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(bench_inputs.INPUTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.setup_probe:
        try:
            print(setup_probe(args.workload, args.seed))
        except PackageMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
