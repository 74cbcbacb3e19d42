"""Run-to-run spread of the benchmark, as the acceptance rule computes it.

    python3 perfbench/steadiness.py --workloads mc-small --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
reports for every metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread, the distance between the quartiles as a share
of the median.  The runs are untraced (``--trace 0``), so the metrics are the
``end_to_end`` list of ``BENCHMARK.json``.  Each is shown with its bound and
whether its spread stays below a third of that bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    report, steady = {}, True
    for workload in args.workloads:
        values, failed = {}, 0
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(args.seeds)} runs, seeds "
              f"{args.seeds[0]}..{args.seeds[-1]}, {failed} failed")
        print("| metric | median | q1 | q3 | spread | bound | steady |")
        print("|---|---|---|---|---|---|---|")
        rows = {}
        for name, vals in values.items():
            q1, mid, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median(vals)) if median(vals) else 0.0
            bound = bounds[name]
            ok = spread < bound / 3
            steady = steady and ok
            rows[name] = {"median": median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            print(f"| {name} | {median(vals):.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bound} | "
                  f"{'yes' if ok else 'NO'} |")
        report[workload] = rows
    print("\n" + json.dumps(report))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
