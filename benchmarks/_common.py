"""Shared scaffolding for the standalone benchmark scripts.

Both ``bench_service.py`` and ``bench_async.py`` are CLI-runnable
reports with the same contract: ``--ci`` shrinks the workload and gates
on crash rather than timing, ``--out PATH`` writes the numbers as JSON
for CI artifact upload. The argparse definition, the report formatter
and the JSON writer live here so the two scripts cannot drift.
"""

from __future__ import annotations

import argparse
import json
import random


def make_parser(description: str) -> argparse.ArgumentParser:
    """The common ``--ci`` / ``--out`` benchmark argument parser."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--ci",
        action="store_true",
        help="small workload; fail only on crash, not on timing",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the collected numbers as JSON to this path",
    )
    return parser


def poisson_arrivals(rate_hz: float, n: int, seed: int = 0) -> list[float]:
    """Arrival offsets (seconds from start) of an open-loop Poisson stream.

    Exponential inter-arrival gaps at ``rate_hz``, deterministic per
    ``seed`` so a benchmark's arrival schedule is reproducible run to
    run. *Open loop* means the schedule is fixed before the run begins:
    a slow server does not slow the arrival process down, so queueing
    collapse shows up as latency growth — the failure mode that
    closed-loop (request-after-response) load generation structurally
    cannot observe, because its arrival rate degrades in lockstep with
    the server.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    rng = random.Random(seed)
    t = 0.0
    arrivals = []
    for _ in range(n):
        t += rng.expovariate(rate_hz)
        arrivals.append(t)
    return arrivals


def report(title: str, stats: dict) -> None:
    """Print one measurement block, floats at fixed precision."""
    print(f"\n== {title} ==")
    for k, v in stats.items():
        print(f"  {k:22s} {v:.4f}" if isinstance(v, float) else f"  {k:22s} {v}")


def gate(requirement: str, ok: bool, ci: bool) -> str:
    """The verdict suffix for one standalone gate, e.g. ``(>=2x required): PASS``.

    ``--ci`` does not enforce timing gates, so under ``ci`` the ratio is
    reported without a PASS/FAIL verdict.
    """
    if ci:
        return "(CI: reported, not asserted)"
    return f"({requirement} required): {'PASS' if ok else 'FAIL'}"


def write_json(doc: dict, path: str | None) -> None:
    """Dump the collected numbers to ``path`` (no-op when ``None``)."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"\nwrote {path}")
