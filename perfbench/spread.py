#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's quartiles.

    python3 perfbench/spread.py --workload train-cached --seeds 1-10 [--trace 0] [--out spread.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. --out adds the
figures, with each run's environment, RMSE curve, crossing epoch and
capacity-ladder probes, to a JSON file keyed by workload and mode, so a
later change can see which metrics are tight and which are loose.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Per-run details kept beside the quartiles: what the RMSE targets, serving
# rates and ladders were derived from.
DETAILS = ("jobs", "rmse_curve", "cross_epoch", "peak_rss_mb", "serve_samples", "serve_p50_us", "serve_chunk_p50_us",
           "ladder_probes")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, runs = {}, []
    for seed in seeds(args.seeds):
        cmd = ["python3"] + bench["command"][1:] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        mode = "trace" if args.trace else "e2e"
        full = json.loads((ROOT / ".bench_build" / "perfbench" / "work" / "results" /
                           f"{args.workload}-{seed}-{mode}.json").read_text())
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "env": full["env"],
                     "details": {k: full["details"].get(k) for k in DETAILS if k in full["details"]}})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    table = {}
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in sorted(values):
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        table[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share, "values": xs}
        bound = bounds.get(name)
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound if bound else '':>6}")

    if args.out:
        path = pathlib.Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[f"{args.workload}/{'trace' if args.trace else 'e2e'}"] = {"runs": runs, "metrics": table}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
