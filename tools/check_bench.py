#!/usr/bin/env python3
"""Benchmark regression gate: BENCH_*.json vs the committed baselines.

``benchmarks/bench_core.py`` measures *ratios* (the numpy kernels'
cold-route speedup over the python oracle, and a cold route over a
cache hit's decode + verify) with both arms on the same machine, so the
ratios — unlike absolute seconds — are comparable across machines.
This tool compares a freshly produced
``BENCH_core.json`` against the committed snapshot in
``benchmarks/baselines/`` and fails when any gated ratio regressed by
more than ``--tolerance`` (default 25%).

Refreshing a baseline is deliberate and explicit: run the benchmark
with the same flags CI uses and copy the artifact over the file in
``benchmarks/baselines/``, in its own commit, with the reason in the
message.

Usage::

    python tools/check_bench.py BENCH_core.json
    python tools/check_bench.py --tolerance 0.5 BENCH_core.json

Exit status 0 when every metric holds, 1 on any regression, missing
metric, or violated invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _core_metrics(doc: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for run in doc.get("runs", []):
        out[f"cold_route/{run['router']}/{run['size']}"] = run["speedup"]
    for row in doc.get("hit_vs_route", []):
        out[f"hit_vs_route/{row['size']}"] = row["ratio"]
    return out


def _core_invariants(doc: dict) -> list[str]:
    failures = []
    if not doc.get("runs"):
        failures.append("no cold-route runs recorded")
    if not doc.get("hit_vs_route"):
        failures.append("no hit-vs-route row recorded")
    return failures


#: Artifact basename -> (ratio extractor, invariant checker).
EXTRACTORS = {
    "BENCH_core.json": (_core_metrics, _core_invariants),
}


def check_artifact(
    path: str, baseline_dir: str, tolerance: float
) -> list[str]:
    """All failures for one artifact (empty list = pass)."""
    name = os.path.basename(path)
    if name not in EXTRACTORS:
        return [f"{name}: no baseline schema registered for this artifact"]
    extract, invariants = EXTRACTORS[name]

    with open(path, encoding="utf-8") as fh:
        current_doc = json.load(fh)
    baseline_path = os.path.join(baseline_dir, name)
    if not os.path.exists(baseline_path):
        return [f"{name}: no committed baseline at {baseline_path}"]
    with open(baseline_path, encoding="utf-8") as fh:
        baseline_doc = json.load(fh)

    failures = [f"{name}: {msg}" for msg in invariants(current_doc)]
    current = extract(current_doc)
    baseline = extract(baseline_doc)
    for key, base_value in sorted(baseline.items()):
        floor = base_value * (1.0 - tolerance)
        got = current.get(key)
        if got is None:
            failures.append(
                f"{name}: metric {key} missing (baseline {base_value:.2f}x)"
            )
            continue
        status = "ok" if got >= floor else "REGRESSED"
        print(
            f"  {name} {key:28s} {got:6.2f}x "
            f"(baseline {base_value:.2f}x, floor {floor:.2f}x) {status}"
        )
        if got < floor:
            failures.append(
                f"{name}: {key} regressed to {got:.2f}x "
                f"(baseline {base_value:.2f}x, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts", nargs="+",
        help="benchmark JSON artifacts (basename selects the schema)",
    )
    parser.add_argument(
        "--baseline-dir", default="benchmarks/baselines",
        help="directory holding the committed baseline artifacts",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression of each gated ratio "
        "(default 0.25 = fail when a ratio drops more than 25%%)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    for path in args.artifacts:
        failures += check_artifact(path, args.baseline_dir, args.tolerance)
    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
