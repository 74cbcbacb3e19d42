"""Benchmark of the mmjoint package: one workload per run, or all of them.

    python3 perfbench/run.py --workload pareto-dense --seed 1 --seconds 60 \
        --trace 0

Runs the workload as one closed-loop caller against the package under
``src/`` of this checkout for about ``--seconds`` seconds, checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` list.  ``--workload all`` (the
default) runs all four workloads, each in a fresh child process.  Per-run
files (results, environment, spans) go to ``.perfbench/`` at the root of the
checkout.
"""

import os

# Pin BLAS threads before numpy loads, here and in every child process, so
# both sides of a comparison run with the same count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7
# at least two operations per run: the Monte Carlo check compares their
# reports byte for byte
MIN_OPERATIONS = 2
# traced names that set-up calls; their per-layer time is one traced set-up
SETUP_LAYERS = ("scenario.place_users", "scenario.from_geometry",
                "cli.load_config")
# measured where a workload outside BENCHMARK.json (solve-point) exercises
# them; printed, but not part of the result line
EXTRA_UNITS = {"query_p50_us": "us", "query_p99_us": "us",
               "closed_form.evaluate.calls": "count",
               "closed_form.evaluate.s": "s",
               "closed_form.PowerAllocation.s": "s"}

# Set-up as a user pays it: a fresh interpreter imports the package and
# resolves the workload's configs.  Prints the seconds it took.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mmjoint import cli
for path in sys.argv[2:]:
    cli.load_config_file(path)
print(time.perf_counter() - start)
"""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def environment(seed: int) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(),
    }


def measure_setup(workload) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC),
         *map(str, workload.configs)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def keep_going(start: float, walls: list, seconds: float, min_ops: int):
    """Start another operation only if it should end within the budget."""
    if len(walls) < min_ops:
        return True
    return time.perf_counter() - start + median(walls) <= seconds


def run_untraced(workload, seconds: float) -> tuple[dict, list]:
    # set-up is timed before, between and after the operations, so that its
    # median samples the machine over the whole run
    setups = [measure_setup(workload)]
    workload.setup()
    workload.warmup()
    ops, start = [], time.perf_counter()
    while keep_going(start, [op.wall for op in ops], seconds,
                     MIN_OPERATIONS):
        ops.append(workload.op(len(ops)))
        setups.append(measure_setup(workload))
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload))
    values = {
        "setup_s": median(setups),
        "work_per_s": sum(op.work for op in ops) / sum(op.busy for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    latencies_us = [t * 1e6 for op in ops for t in op.latencies]
    if latencies_us:
        values["query_p50_us"] = median(latencies_us)
        values["query_p99_us"] = percentile(latencies_us, 99)
    return values, ops


def run_traced(workload, seconds: float, workdir: Path) -> tuple[dict, list]:
    from tracer import TARGETS, Tracer

    setup_tracer = Tracer()
    with setup_tracer:
        workload.setup()
    workload.warmup()
    tracer = Tracer()
    plain, traced, cpu = [], [], []
    start = time.perf_counter()
    while keep_going(start, [a.wall + b.wall for a, b in zip(plain, traced)],
                     seconds, 1):
        cpu_before = cpu_seconds()
        plain.append(workload.op(len(plain) + len(traced)))
        cpu.append(cpu_seconds() - cpu_before)
        with tracer:
            traced.append(workload.op(len(plain) + len(traced)))
    tracer.write(workdir / "spans.csv")
    setup_tracer.write(workdir / "setup_spans.csv")
    for name in tracer.absent:
        print(f"absent: {name} no longer exists; its metrics are left out",
              file=sys.stderr)

    # per traced operation, except the set-up names, which are reported
    # for one traced set-up
    values = {}
    ops_summary, setup_summary = tracer.summary(), setup_tracer.summary()
    for metric, _, _ in TARGETS:
        if metric in tracer.absent:
            continue
        if metric in SETUP_LAYERS:
            summary, per = setup_summary, 1
        else:
            summary, per = ops_summary, len(traced)
        stats = summary.get(metric, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in stats.items():
            values[f"{metric}.{key}"] = value / per
    try:
        values["montecarlo.draw_estimate_share"] = (
            values["montecarlo.draw_channels.s"]
            + values["montecarlo.estimate_channels.s"]
        ) / values["montecarlo.empirical_sinr.s"]
    except KeyError:
        pass
    except ZeroDivisionError:  # the workload runs no Monte Carlo
        values["montecarlo.draw_estimate_share"] = 0.0
    sizes = workload.computed_sizes()
    values["montecarlo.normals_drawn"] = sizes["normals"]
    values["montecarlo.matmul_gflop"] = sizes["gflop"]
    wall = [op.wall for op in plain]
    values["process.cpu_s"] = median(cpu)
    values["process.cpu_per_wall"] = median(c / w for c, w in zip(cpu, wall))
    values["trace.overhead_s"] = (median(op.wall for op in traced)
                                  - median(wall))
    return values, plain + traced


def import_workloads() -> dict | None:
    """The workloads, run against the package under ``src/`` only."""
    if not (SRC / "mmjoint" / "__init__.py").is_file():
        print(f"no mmjoint package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import mmjoint
    from workloads import WORKLOADS

    if Path(mmjoint.__file__).resolve().parent != SRC / "mmjoint":
        print(f"imported mmjoint from {mmjoint.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return WORKLOADS


def run_one(args) -> int:
    workloads = import_workloads()
    if workloads is None:
        return 2
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads[args.workload](workdir, args.seed)
    if args.trace:
        values, ops = run_traced(workload, args.seconds, workdir)
        wanted = BENCH["per_layer"]
    else:
        values, ops = run_untraced(workload, args.seconds)
        wanted = BENCH["end_to_end"]

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    problems = [p for op in ops for p in op.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment(args.seed)
    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "work_unit": workload.work_unit,
        "environment": env, "operations": len(ops),
        "operation_wall_s": [op.wall for op in ops],
        "problems": problems, "result": result}, indent=1) + "\n")

    print(f"workload {args.workload}: {len(ops)} operations, work unit "
          f"{workload.work_unit}, failed_frac {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, unit in EXTRA_UNITS.items():
        if name in values:
            print(f"  {name} = {values[name]:.6g} {unit} "
                  "(not in BENCHMARK.json)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, those outside BENCHMARK.json too, each in a fresh
    process so that peak memory does not carry over."""
    workloads = import_workloads()
    if workloads is None:
        return 2
    attempted = failed = 0
    correct, metrics = True, {}
    for name in workloads:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
