"""The end-to-end benchmark: one command, six workloads.

    python benchmarks/e2e/run.py --seed 0
        every workload in a child of its own: the end-to-end metrics with
        tracing off, then the per-layer metrics from a plain and a traced
        pass; prints both tables and writes one result document.

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload, one pass (the form BENCHMARK.json's driver calls);
        the last line of output is the result as one JSON object.

Every answer is checked against a dense numpy oracle; any mismatch,
failed op or /dev/shm residue makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

import probe

if not (probe.SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program is not here ({probe.SRC / 'repro'} is missing)")
sys.path.insert(0, str(probe.SRC))

import numpy as np  # noqa: E402

from oracle import Tally  # noqa: E402
from spec import BY_NAME, END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS, smoke  # noqa: E402

#: A workload child that runs longer than this is killed with its group.
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.2


def _median_metric(values: list) -> dict:
    return {"value": float(np.median(values)), "samples": len(values), "values": values}


def _percentile_metric(rounds: list, q: float) -> dict:
    """A latency percentile: taken per round, median over rounds (one
    stalled round then cannot move it); ``pooled`` is over all samples."""
    per_round = [float(np.percentile(r, q)) for r in rounds if r.size]
    pooled = np.concatenate(rounds)
    return {
        "value": float(np.median(per_round)),
        "samples": int(pooled.size),
        "values": per_round,
        "pooled": float(np.percentile(pooled, q)),
    }


def summarize(raw: dict, tally: Tally) -> dict:
    """Raw timings of one tracing-off pass -> the bounded metrics and
    the reported-only ones (tails, ``failed_share``)."""
    metrics = {
        "setup_s": _median_metric(raw["setups"]),
        "ops_per_s": _median_metric(raw["rounds"]),
        "read_p50_us": _percentile_metric(raw["read_us"], 50),
        "read_p95_us": _percentile_metric(raw["read_us"], 95),
        "write_p50_us": _percentile_metric(raw["write_us"], 50),
        "write_p95_us": _percentile_metric(raw["write_us"], 95),
        "peak_rss_mb": _median_metric([raw["peak_rss_mb"]]),
        "failed_share": {
            "value": tally.failed / max(1, tally.attempted),
            "samples": tally.attempted,
            "values": [],
        },
        "read_p99_us": _percentile_metric(raw["read_us"], 99),
        "write_p99_us": _percentile_metric(raw["write_us"], 99),
    }
    for name in ("read_p99_us", "write_p99_us"):  # few per round: report the pooled one
        metrics[name]["value"] = metrics[name]["pooled"]
    for name, unit, _ in END_TO_END + REPORTED_ONLY:
        metrics[name]["unit"] = unit
    return metrics


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, entry in metrics.items():
        line = f"  {name:<38}{entry['value']:>16.6g} {entry['unit']:<6}"
        if "samples" in entry:
            line += f" n={entry['samples']}"
        values = entry.get("values")
        if values and len(values) > 1:
            line += f"  min {min(values):.6g} max {max(values):.6g}"
        print(line)


def run_one(args) -> int:
    """One workload, one pass, in this process."""
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = smoke(workload)
    tally = Tally(corrupt_one=args.corrupt_one)
    shm_before = probe.shm_listing()
    os.sched_setaffinity(0, probe.BENCHMARK_CPUS)
    # Imported late: both pull in the program under test.
    if workload.kind == "serve":
        import served as harness
    else:
        import inproc as harness
    notes: dict = {}
    probe.adopt_orphans()
    try:
        if args.trace:
            trace_path = probe.OUT / f"{workload.name}.trace.json"
            values = harness.measure_layers(workload, args.seed, tally, trace_path)
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
            title = f"[{workload.name}] per-layer metrics (seed {args.seed}; spans in {trace_path.name})"
        else:
            raw = harness.measure_end_to_end(workload, args.seed, args.seconds, tally)
            metrics = summarize(raw, tally)
            notes = raw["notes"]
            title = f"[{workload.name}] end-to-end metrics, tracing off (seed {args.seed})"
            late = notes.get("lateness_p99_us", 0.0)
            if late > 0.1 * metrics["read_p50_us"]["value"]:
                notes["invalid"] = (
                    f"generator lateness p99 {late:.0f} us exceeds 10% of read_p50_us"
                )
        residue = sorted(probe.shm_listing() - shm_before)
        if residue:
            tally.fail(1, f"/dev/shm residue: {residue}")
    finally:
        # Every path out: no process the run started outlives it.
        stragglers = probe.stop_children()
    if stragglers:
        tally.fail(1, f"processes left running and killed: {stragglers}")
    _print_table(title, metrics)
    for key, value in notes.items():
        print(f"  note: {key} = {value}")
    print(
        f"  ops attempted {tally.attempted}, failed {tally.failed}, "
        f"checked against the oracle {tally.checked}"
    )
    if tally.first_failure:
        print(f"  FIRST FAILURE: {tally.first_failure}")
    if args.detail:
        detail = {
            "metrics": metrics, "notes": notes, "attempted": tally.attempted,
            "failed": tally.failed, "checked": tally.checked, "correct": tally.correct,
        }
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    declared = {name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items() if name in declared
        },
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


def setup_sample(args) -> int:
    """One set-up of an in-process workload and nothing else: the child
    ``inproc.fresh_setup`` starts for each sample of ``setup_s``."""
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = smoke(workload)
    tally = Tally()
    os.sched_setaffinity(0, probe.BENCHMARK_CPUS)
    import inproc

    probe.adopt_orphans()
    try:
        seconds = inproc.sample_setup(workload, args.seed, tally)
    finally:
        probe.stop_children()
    print(json.dumps({
        "setup_s": seconds, "attempted": tally.attempted, "failed": tally.failed,
        "checked": tally.checked, "first_failure": tally.first_failure,
    }))
    return 0


def _child(workload: str, trace: int, args) -> dict:
    """Run one pass in a child with a hard timeout; returns its detail
    document (``{"error": ...}`` if it did not finish cleanly)."""
    detail_path = probe.OUT / f"{workload}.{'layers' if trace else 'e2e'}.json"
    detail_path.unlink(missing_ok=True)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", str(detail_path),
    ]
    for flag in ("smoke", "corrupt_one", "allow_env"):
        if getattr(args, flag):
            command.append("--" + flag.replace("_", "-"))
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the child and whatever it spawned
        child.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "correct": False}
    lines = output.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))  # the last line is the driver's JSON
    if not detail_path.is_file():
        return {"error": f"exit code {child.returncode}: {lines[-1]}", "correct": False}
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    detail["exit_code"] = child.returncode
    return detail


def run_suite(args) -> int:
    probe.OUT.mkdir(parents=True, exist_ok=True)
    shm_before = probe.shm_listing()
    document = {"schema": "repro-e2e/1", "seed": args.seed, "smoke": args.smoke,
                "seconds": args.seconds, "workloads": {}}
    op_counts = {}
    ok = True
    for workload in WORKLOADS:
        sized = smoke(workload) if args.smoke else workload
        op_counts[workload.name] = {
            "round_ops": sized.round_calls * sized.batch,
            "warm_ops": sized.warm_calls * sized.batch,
            "trace_ops": sized.trace_calls * sized.batch,
        }
        end_to_end = _child(workload.name, 0, args)
        per_layer = _child(workload.name, 1, args)
        passes = {"end_to_end": end_to_end, "per_layer": per_layer}
        document["workloads"][workload.name] = passes
        for name, detail in passes.items():
            if not detail.get("correct") or detail.get("exit_code"):
                ok = False
                print(f"FAILED: {workload.name} {name}: {detail.get('error', 'incorrect')}")
    residue = sorted(probe.shm_listing() - shm_before)
    if residue:
        ok = False
        print(f"FAILED: /dev/shm residue after the suite: {residue}")
    document["shm_residue"] = residue
    document["provenance"] = probe.provenance(args.seed, op_counts)
    out = args.out or probe.OUT / f"result-seed{args.seed}.json"
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"result document: {out}")
    print("all workloads verified" if ok else "BENCHMARK FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: BENCHMARK.json's run_seconds; "
                        "0.2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, whole suite < 30 s")
    parser.add_argument("--corrupt-one", action="store_true",
                        help="self-check: perturb one expected value; must fail")
    parser.add_argument("--allow-env", action="store_true",
                        help="run although REPRO_* switches that change the measurement are set")
    parser.add_argument("--detail", help="also write this pass's full document here")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="suite mode: where the result document goes")
    args = parser.parse_args(argv)
    if args.seconds is None:
        declared = json.loads((probe.REPO / "BENCHMARK.json").read_text())
        args.seconds = SMOKE_SECONDS if args.smoke else declared["run_seconds"]
    refused = probe.refused_env()
    if refused and not args.allow_env:
        print(f"run.py: refusing to measure with {', '.join(refused)} set "
              "(pass --allow-env to override)", file=sys.stderr)
        return 2
    if args.setup_sample:
        return setup_sample(args)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
