"""Daemon front-end benchmark: a warm daemon vs cold CLI invocations.

``daemon_vs_cold`` splits a mixed workload into K client invocations
and serves them two ways: **cold** spawns a fresh ``repro batch``
subprocess per invocation (each pays interpreter start-up, the scipy
import, pool spawn and a cold cache), **daemon** starts one ``repro
serve --socket`` process and sends the same K chunks, each as one
``POST /v1/route_batch`` over HTTP on the socket. The warm pool and
schedule cache must make the daemon >= 2x faster end to end on the
default 200-request workload.

Run standalone (``python benchmarks/bench_async.py``) for a report and
the 2x assertion; ``--ci`` shrinks the workload and only fails on
crash (CI gates on the benchmark *running*, not on shared-runner
timing); ``--out BENCH_async.json`` writes the numbers for artifact
upload. Under pytest, a smoke-sized variant runs with a lenient
threshold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import gate, make_parser, report, write_json
from repro.service import http_request, wait_for_http

#: Workload mix: grid sizes x workload families, seeds cycled so later
#: chunks repeat earlier instances (the cache-hit traffic a long-lived
#: daemon exists to serve).
SIZES = (4, 5, 6)
WORKLOADS = ("random", "block_local")
UNIQUE_SEEDS = 8


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def mixed_docs(n: int) -> list[dict]:
    """``n`` request documents cycling sizes, workloads and seeds."""
    docs = []
    for i in range(n):
        size = SIZES[i % len(SIZES)]
        docs.append({
            "rows": size,
            "cols": size,
            "workload": WORKLOADS[(i // len(SIZES)) % len(WORKLOADS)],
            "seed": i % UNIQUE_SEEDS,
        })
    return docs


def _chunks(docs: list[dict], k: int) -> list[list[dict]]:
    size = -(-len(docs) // k)  # ceil
    return [docs[i : i + size] for i in range(0, len(docs), size)]


# ----------------------------------------------------------------------
# daemon vs cold per-invocation CLI
# ----------------------------------------------------------------------
def bench_daemon_vs_cold(
    n_requests: int = 200, n_chunks: int = 8, workers: int = 1
) -> dict:
    """K client invocations: fresh ``repro batch`` processes vs one daemon."""
    docs = mixed_docs(n_requests)
    chunks = _chunks(docs, n_chunks)
    env = _env_with_src()

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        chunk_paths = []
        for i, chunk in enumerate(chunks):
            path = os.path.join(tmp, f"chunk{i}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for doc in chunk:
                    fh.write(json.dumps(doc) + "\n")
            chunk_paths.append(path)

        # Cold: one fresh CLI process per chunk, each with a cold cache
        # and a cold interpreter.
        t0 = time.perf_counter()
        for path in chunk_paths:
            subprocess.run(
                [sys.executable, "-m", "repro", "batch", path,
                 "--out", os.devnull, "--workers", str(workers)],
                env=env, check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        cold_seconds = time.perf_counter() - t0

        # Daemon: one long-lived server; the same chunks arrive as
        # successive client connections against the warm pool + cache.
        sock = os.path.join(tmp, "repro.sock")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--workers", str(workers)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for_http(sock, timeout=60.0)
            t0 = time.perf_counter()
            n_err = 0
            for path in chunk_paths:
                with open(path, encoding="utf-8") as fh:
                    chunk_docs = [json.loads(line) for line in fh]
                status, body = http_request(
                    sock, "/v1/route_batch", {"requests": chunk_docs}
                )
                assert status == 200 and body["ok"], body
                for resp in body["results"]:
                    n_err += 0 if resp.get("ok") else 1
            daemon_seconds = time.perf_counter() - t0
            http_request(sock, "/v1/shutdown", {})
            server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    assert n_err == 0
    return {
        "n_requests": n_requests,
        "n_chunks": len(chunk_paths),
        "workers": workers,
        "cold_seconds": cold_seconds,
        "daemon_seconds": daemon_seconds,
        "speedup": cold_seconds / daemon_seconds
        if daemon_seconds > 0 else float("inf"),
        "daemon_req_per_s": n_requests / daemon_seconds
        if daemon_seconds > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# pytest entry point (smoke-sized)
# ----------------------------------------------------------------------
def test_daemon_beats_cold_invocations():
    stats = bench_daemon_vs_cold(n_requests=40, n_chunks=4)
    assert stats["speedup"] > 1.0, stats


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args(argv)

    n_daemon, n_chunks = (40, 4) if args.ci else (200, 8)
    doc: dict = {"ci": args.ci}

    dvc = bench_daemon_vs_cold(n_requests=n_daemon, n_chunks=n_chunks)
    report("warm daemon vs cold per-invocation `repro batch`", dvc)
    doc["daemon_vs_cold"] = dvc

    write_json(doc, args.out)

    ok = dvc["speedup"] >= 2.0
    print(
        f"\ndaemon speedup {dvc['speedup']:.1f}x over cold invocations "
        f"{gate('>=2x', ok, args.ci)}"
    )
    if args.ci:
        # The CI gate is "the benchmark runs and produces numbers";
        # shared-runner timing is reported, not asserted.
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
