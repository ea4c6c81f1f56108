"""Self-test of the benchmark harness (smoke sizes, about a minute).

    python benchmarks/e2e/selftest.py

Checks that BENCHMARK.json and the harness agree: every workload and
metric it names appears in the output under that name and unit; count
metrics are identical across two smoke runs of one seed and differ for
another seed; ``--corrupt-one`` drives a non-zero exit; the refused
environment switches are refused; a pass leaves no process behind; and
no file here matches the names pytest collects (``test_*.py`` /
``bench_*.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import probe
from spec import COUNT_METRICS, END_TO_END, PER_LAYER, WORKLOADS

RUN = [sys.executable, str(probe.HERE / "run.py")]
_failures: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        _failures.append(what)


def suite(seed: int, *flags: str) -> tuple[int, dict]:
    out = probe.OUT / f"selftest-seed{seed}.json"
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [*RUN, "--smoke", "--seed", str(seed), "--out", str(out), *flags],
        capture_output=True, text=True, timeout=600,
    )
    document = json.loads(out.read_text()) if out.is_file() else {}
    out.unlink(missing_ok=True)
    return done.returncode, document


def left_running(workload: str, trace: int) -> list[str]:
    """Run one smoke pass in a session of its own; the processes of that
    session still there once it has exited (``multiprocessing``'s
    resource tracker outlives a parent that does not stop it)."""
    done = subprocess.Popen(
        [*RUN, "--smoke", "--workload", workload, "--trace", str(trace)],
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    done.wait(timeout=120)
    left = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                name, fields = stat.read().rsplit(")", 1)
        except OSError:  # not a process, or gone meanwhile
            continue
        if int(fields.split()[3]) == done.pid:  # its session id
            left.append(name)
    return left


def counts(document: dict) -> dict:
    return {
        (name, metric): passes["per_layer"]["metrics"][metric]["value"]
        for name, passes in document["workloads"].items()
        for metric in COUNT_METRICS
    }


def main() -> int:
    benchmark = json.loads((probe.REPO / "BENCHMARK.json").read_text())
    check([w["name"] for w in benchmark["workloads"]] == [w.name for w in WORKLOADS],
          "BENCHMARK.json names the harness's workloads")
    check([(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]]
          == list(END_TO_END), "BENCHMARK.json names the end-to-end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
          == list(PER_LAYER), "BENCHMARK.json names the per-layer metrics")
    check(any(m["name"] == "setup_s" for m in benchmark["end_to_end"]), "setup_s is declared")
    collected = [p.name for p in probe.HERE.glob("*.py")
                 if p.name.startswith(("test_", "bench_"))]
    check(not collected, f"no file pytest would collect ({collected})")

    code, first = suite(0)
    check(code == 0, "smoke suite, seed 0: exit 0")
    for workload in benchmark["workloads"]:
        passes = first.get("workloads", {}).get(workload["name"], {})
        for block in ("end_to_end", "per_layer"):
            got = passes.get(block, {}).get("metrics", {})
            missing = [m["name"] for m in benchmark[block]
                       if got.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{workload['name']}: every {block} metric present ({missing})")
        check(passes.get("end_to_end", {}).get("failed") == 0,
              f"{workload['name']}: failed_share is 0")
    for key in ("git_sha", "python", "numpy", "nproc", "kernel_backend", "numba",
                "msgpack", "seed", "op_counts", "env"):
        check(key in first.get("provenance", {}), f"provenance has {key}")

    _, again = suite(0)
    check(counts(first) == counts(again), "count metrics identical for the same seed")
    check(first["provenance"]["op_counts"] == again["provenance"]["op_counts"],
          "op counts identical for the same seed")
    _, other = suite(1)
    check(counts(first) != counts(other), "count metrics differ for another seed")

    corrupt = subprocess.run(
        [*RUN, "--smoke", "--workload", "engine_hot_reads", "--corrupt-one"],
        capture_output=True, text=True, timeout=120,
    )
    result = json.loads(corrupt.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    check(corrupt.returncode != 0 and result["failed"] > 0 and not result["correct"],
          "--corrupt-one: failed > 0 and a non-zero exit")
    refused = subprocess.run(
        [*RUN, "--smoke", "--workload", "ddc_mixed_2d"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, REPRO_BATCH_CROSSOVER="4"),
    )
    check(refused.returncode != 0 and not refused.stdout,
          "REPRO_BATCH_CROSSOVER set: refused without a result")

    for workload in ("process_mixed", "serve_closed"):  # the two that start processes
        for trace in (0, 1):
            left = left_running(workload, trace)
            check(not left, f"{workload} --trace {trace}: no process left running ({left})")

    print(f"{len(_failures)} failure(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
