"""Run-to-run spread of every end-to-end metric, as the driver takes it.

    python benchmarks/e2e/steadiness.py --runs 10 --first-seed 100 --out out/setA.json

Runs each workload ``--runs`` times in the driver's form (one child per
run, another seed each time, tracing off) and prints, per workload and
metric (the reported-only tails too), the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound in BENCHMARK.json.  The set is written as a result
document ``compare.py`` reads, so two sets of the same commit can be
compared in both directions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import probe

sys.path.insert(0, str(probe.SRC))


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", help="only these (repeatable)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((probe.REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    document = {"schema": "repro-e2e/1", "set_of_runs": args.runs,
                "seconds": seconds, "workloads": {}}
    steady = True
    probe.OUT.mkdir(parents=True, exist_ok=True)
    detail_path = probe.OUT / "steadiness-run.json"
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        per_run: list[dict] = []  # every run made, round by round
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [*benchmark["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0", "--detail", str(detail_path)]
            began = time.perf_counter()
            done = subprocess.run(command, cwd=probe.REPO, capture_output=True,
                                  text=True, timeout=180)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            detail = json.loads(detail_path.read_text())["metrics"]
            detail_path.unlink()
            for metric, entry in detail.items():  # the bounded metrics and the reported-only
                if metric != "failed_share":
                    values.setdefault(metric, []).append(entry["value"])
                    units[metric] = entry["unit"]
            per_run.append({metric: entry["values"] for metric, entry in detail.items()})
            print(f"{name} seed {seed}: {time.perf_counter() - began:.1f} s wall", flush=True)
        metrics = {}
        print(f"[{name}] {args.runs} runs, {seconds:g} s each")
        for metric, series in values.items():
            share = spread(series)
            if metric not in bounds:
                verdict = "  reported only"
            elif metric != "setup_s" and share > bounds[metric]:
                verdict = f"  bound {bounds[metric]:.0%}  UNSTEADY (spread above the bound)"
                steady = False
            elif metric != "setup_s" and share > bounds[metric] / 3:
                verdict = f"  bound {bounds[metric]:.0%}  (above a third of the bound)"
            else:
                verdict = f"  bound {bounds[metric]:.0%}"
            print(f"  {metric:<14} median {statistics.median(series):>12.6g} {units[metric]:<6}"
                  f" spread {share:6.1%}{verdict}")
            metrics[metric] = {"value": statistics.median(series), "unit": units[metric],
                               "samples": len(series), "values": series}
        metrics["failed_share"] = {"value": failed / attempted, "unit": "ratio",
                                   "samples": attempted, "values": []}
        document["workloads"][name] = {"end_to_end": {
            "metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "runs": per_run,
        }}
    op_counts = {"seeds": [args.first_seed, args.first_seed + args.runs - 1]}
    document["provenance"] = probe.provenance(args.first_seed, op_counts)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"set document: {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
