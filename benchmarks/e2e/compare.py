"""Compare two result documents of the benchmark, metric by metric.

    python benchmarks/e2e/compare.py A.json B.json

A is the parent (or first set), B the change (or second set); either may
be a ``run.py`` result document or a ``steadiness.py`` set.  Per
workload and end-to-end metric the table gives each side's median and
spread (interquartile distance over its rounds or runs, as a share of
the median) and a verdict from the bounds in BENCHMARK.json:

    ok          B is no worse than A by more than the bound
    regressed   B is worse than A by more than the bound
    unresolved  a side's spread is wider than the bound, and B's values
                are not all on one side of A's

``failed_share`` has bound 0: any increase is a regression.  The tails
(p95, p99) are not bounded in BENCHMARK.json; they get a verdict against
25% for the reader, marked ``info``, that does not count.  Count metrics
are compared for exact equality (``--expect-equal-counts``, for
two runs of one commit and seed, makes any difference fatal; otherwise
only a count that got worse is).  Exit code 1 on any regression.
"""

from __future__ import annotations

import argparse
import json
import sys

import probe
from spec import COUNT_METRICS, REPORTED_ONLY
from steadiness import spread


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, share by which B is worse than A)``."""
    base = a["value"]
    if base == 0:
        worse = 0.0 if b["value"] == 0 else float("inf")
    else:
        worse = (b["value"] - base) / abs(base)
    if better == "higher":
        worse = -worse
    a_values, b_values = a.get("values") or [], b.get("values") or []
    if max(spread(a_values), spread(b_values)) > bound:
        # Too noisy for the medians alone: only values that all lie on
        # one side of the other document's decide.
        sign = 1 if better == "lower" else -1
        a_costs = [sign * v for v in a_values]
        b_costs = [sign * v for v in b_values]
        if max(b_costs) <= min(a_costs):
            return "ok", worse
        if not (worse > bound and min(b_costs) > max(a_costs)):
            return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def _metrics(document: dict, workload: str, block: str) -> dict:
    return document["workloads"][workload].get(block, {}).get("metrics", {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--expect-equal-counts", action="store_true")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        doc_a = json.load(handle)
    with open(args.b) as handle:
        doc_b = json.load(handle)
    benchmark = json.loads((probe.REPO / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    counted = set(declared) | {"failed_share"}
    for name, _, better in REPORTED_ONLY:
        declared[name] = (better, 0.0 if name == "failed_share" else 0.25)
    regressions = 0
    for workload in doc_a["workloads"]:
        if workload not in doc_b["workloads"]:
            print(f"[{workload}] only in {args.a}")
            continue
        print(f"[{workload}]")
        print(f"  {'metric':<28}{'A median':>12} {'spread':>7}{'B median':>13} {'spread':>7}"
              f"{'worse by':>10} {'bound':>6}  verdict")
        a_metrics = _metrics(doc_a, workload, "end_to_end")
        b_metrics = _metrics(doc_b, workload, "end_to_end")
        for name, (better, bound) in declared.items():
            if name not in a_metrics or name not in b_metrics:
                continue
            a, b = a_metrics[name], b_metrics[name]
            word, worse = verdict(a, b, better, bound)
            if name in counted:
                regressions += word == "regressed"
            else:
                word += " (info)"
            print(f"  {name:<28}{a['value']:>12.6g} {spread(a.get('values') or []):>7.1%}"
                  f"{b['value']:>13.6g} {spread(b.get('values') or []):>7.1%}"
                  f"{worse:>+10.1%} {bound:>6.0%}  {word}")
        a_layers = _metrics(doc_a, workload, "per_layer")
        b_layers = _metrics(doc_b, workload, "per_layer")
        for name in COUNT_METRICS:
            if name not in a_layers or name not in b_layers:
                continue
            a_value, b_value = a_layers[name]["value"], b_layers[name]["value"]
            if a_value == b_value:
                word = "equal"
            elif args.expect_equal_counts or b_value > a_value:
                word = "regressed" if b_value > a_value else "differs"
                regressions += 1
            else:
                word = "improved"
            print(f"  {name:<28}{a_value:>12.6g} {'':>7}{b_value:>13.6g} {'':>7}{'':>10} {'exact':>6}  {word}")
    counts_a = doc_a.get("provenance", {}).get("op_counts")
    counts_b = doc_b.get("provenance", {}).get("op_counts")
    same = counts_a == counts_b
    print(f"op counts: {'equal' if same else 'differ'}")
    if args.expect_equal_counts and not same:
        regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
