"""Benchmark of rainbow_greedy's Monte Carlo sweep and theory entry points.

Run from the repository root:

    python3 perfbench/run.py --workload mc_dense_half --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run imports the package from ./src, repeats passes of the workload
(see workloads.py) until --seconds have gone by, then checks every
output. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count
passes, and a pass that raises counts as failed. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
run alternates untraced and traced passes of the same inputs and prints
the per-layer ones. The line before it holds provenance and the check
results, and perfbench/results/ keeps the same data plus the spans.

--smoke runs every workload at a tiny size in both modes and fails
unless each metric of BENCHMARK.json is printed with its unit and the
checks ran.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS pools would otherwise start
# threads at import, before anything is measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

SETUP_LAUNCHES = 11
READY = "import time, numpy, rainbow_greedy; print(repr(time.monotonic()))"


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def measure_setup() -> list[float]:
    """Seconds from launching a fresh interpreter until numpy and
    rainbow_greedy are imported, once per launch after one warm-up launch
    that writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", READY], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        if launch:
            times.append(float(out.stdout.split()[-1]) - start)
    return times


def provenance(args, numpy_version: str) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=60).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        check=True, capture_output=True, text=True,
                                        timeout=60).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha, "git_dirty": dirty, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
    }


def timed_passes(workload, tracer, args):
    """Run passes until --seconds are used up. With a tracer, each pass
    seed is run once untraced and once traced, in alternating order.

    Returns the untraced pass times, (time, first span, end span) of each
    traced pass, the pass outputs, work items per pass, and the number of
    passes attempted and failed.
    """
    pass_seeds = random.Random(f"{args.workload}:{args.seed}")
    plain: list[float] = []
    traced: list[tuple[float, int, int]] = []
    outputs = []
    items = attempted = failed = 0
    begin = time.perf_counter()
    while True:
        pass_seed = pass_seeds.getrandbits(62)
        modes = [None] if tracer is None else [None, tracer]
        if len(plain) % 2:
            modes.reverse()
        for mode in modes:
            workload.prepare()
            lo = len(tracer.spans) if tracer else 0
            attempted += 1
            if mode is not None:
                mode.install()
            tic = time.perf_counter()
            try:
                output, items = workload.run_pass(pass_seed)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                wall = time.perf_counter() - tic
                if mode is not None:
                    mode.uninstall()
            outputs.append(output)
            if mode is None:
                plain.append(wall)
            else:
                traced.append((wall, lo, len(tracer.spans)))
        elapsed = time.perf_counter() - begin
        if not plain or (tracer is not None and not traced):
            if elapsed >= args.seconds:
                break
            continue
        # Start another pass, or pair, only if it should end within --seconds.
        expected = statistics.median(plain)
        if traced:
            expected += statistics.median(w for w, _, _ in traced)
        if elapsed + expected > args.seconds:
            break
    return plain, traced, outputs, items, attempted, failed


def run_workload(args) -> int:
    if not (SRC / "rainbow_greedy" / "__init__.py").is_file():
        print(f"error: no rainbow_greedy package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = measure_setup() if args.trace == 0 else []

    sys.path.insert(0, str(SRC))
    import numpy
    import rainbow_greedy
    if Path(rainbow_greedy.__file__).resolve().parent != SRC / "rainbow_greedy":
        print(f"error: rainbow_greedy imported from {rainbow_greedy.__file__}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = (workloads.SMOKE_WORKLOADS if args.smoke
                else workloads.WORKLOADS)[args.workload]
    tracer = spans.Tracer() if args.trace else None

    plain, traced, outputs, items, attempted, failed = timed_passes(
        workload, tracer, args)
    if not plain or (tracer is not None and not traced):
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1

    check_lo = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        checks = workload.check(outputs, random.Random(f"check:{args.workload}:{args.seed}"))
    finally:
        if tracer:
            tracer.uninstall()

    metrics: dict[str, float] = {}
    wall = statistics.median(plain)
    if tracer is None:
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = wall
        metrics["items_per_s"] = items / wall
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        per_pass = [spans.layer_metrics(tracer.spans, lo, hi) for _, lo, hi in traced]
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        in_checks = spans.layer_metrics(tracer.spans, check_lo, len(tracer.spans))
        for key, value in in_checks.items():
            if key.startswith("greedy_engines.verify_result."):
                metrics[key] = value
        traced_wall = statistics.median(w for w, _, _ in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        gaps = [w - sum(spans.self_times(tracer.spans, lo, hi)) for w, lo, hi in traced]
        metrics["trace.unattributed_s"] = statistics.median(gaps)
        limit = max(metrics["trace.overhead_s"], 1e-3)
        worst = max(abs(g) for g in gaps)
        checks.append(workloads.Check(
            "trace.self_times_sum", worst <= limit,
            f"max |traced wall - sum of self times| {worst:.2e} s vs "
            f"max(trace.overhead_s, 1 ms) = {limit:.2e} s"))

    failures = [c for c in checks if not c.ok]
    unexpected = [c for c in failures if c.name not in workloads.KNOWN_REDS]
    if tracer is None:
        metrics["pass_rate"] = (len(checks) - len(failures)) / len(checks)
    correct = failed == 0 and not unexpected

    kind = "end_to_end" if tracer is None else "per_layer"
    printed = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in metrics or unit_of(name) != entry["unit"]:
            print(f"error: metric {name} [{entry['unit']}] is not produced "
                  f"by this benchmark", file=sys.stderr)
            return 1
        printed[name] = {"value": metrics[name], "unit": entry["unit"]}

    summary = {
        "provenance": provenance(args, numpy.__version__),
        "passes": {"plain_wall_s": plain, "traced_wall_s": [w for w, _, _ in traced],
                   "items_per_pass": items, "setup_s": setup},
        "checks": {
            "attempted": len(checks), "failed": len(failures),
            "fail_rate": len(failures) / len(checks),
            "failures": [{"name": c.name, "detail": c.detail,
                          "known_red": workloads.KNOWN_REDS.get(c.name)}
                         for c in failures],
            "known_reds_now_passing": sorted(
                c.name for c in checks if c.ok and c.name in workloads.KNOWN_REDS),
        },
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(summary, spans=[s.as_row() for s in tracer.spans] if tracer else [])
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    for c in failures:
        tag = "known red" if c.name in workloads.KNOWN_REDS else "FAIL"
        print(f"check {tag}: {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": printed}))
    return 0


def smoke() -> int:
    """Run every workload tiny, in both modes, and check the printed result."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--smoke",
                   "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            checks = json.loads(lines[-2])["summary"]["checks"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["attempted"] >= 1:
                problems.append(f"{where}: attempted {result['attempted']}")
            if not checks["attempted"] >= 1:
                problems.append(f"{where}: no checks ran")
            expected = spec["end_to_end" if trace == 0 else "per_layer"]
            if set(result["metrics"]) != {m["name"] for m in expected}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in expected:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
            print(f"smoke {where}: {len(result['metrics'])} metrics, "
                  f"{checks['attempted']} checks, {checks['failed']} failed, "
                  f"correct={result['correct']}")
    for p in problems:
        print("smoke FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, self-test every workload")
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
