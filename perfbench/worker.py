"""One benchmark process: import fiberwave from the checkout, warm up, then
send the request stream through fiberwave.cli.main in a closed loop.

    python3 worker.py SPEC RESULT [--setup-only] [--seconds S | --count K]
                      [--threads N] [--trace SPANS]

SPEC is the JSON request list written by run.py; RESULT receives timings,
failures and (traced) layer metrics.  Each phase of a benchmark run is its
own process, so every phase starts from the same cold process-global
caches (graph_solver's oracle cache, cross_section's lru caches).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import checks


def _argv(req: dict, threads: int) -> list[str]:
    return [str(threads) if a == "{threads}" else a for a in req["argv"]]


def _check(req: dict, references: dict) -> str | None:
    c = req["check"]
    if c["kind"] == "sweep":
        return checks.check_sweep(c["out"], c["lo"], c["hi"], c["steps"], c["m"], c["eigenvalues"])
    if c["kind"] == "lattice":
        return checks.check_lattice(c["out"], c["m"])
    return checks.check_validate(c["out"], references[c["key"]])


def run_one(main, req: dict, threads: int, references: dict) -> tuple[float, str | None]:
    """Latency of one request and its failure reason (None when correct)."""
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            rc = main(_argv(req, threads))
    except Exception:  # a crash is a failed request, not a failed benchmark
        return perf_counter() - t0, traceback.format_exc(limit=3).strip().splitlines()[-1]
    latency = perf_counter() - t0
    if rc != 0:
        return latency, f"exit code {rc}: {sink.getvalue().strip()[-200:]}"
    try:
        return latency, _check(req, references)
    except (OSError, ValueError, KeyError) as exc:
        return latency, f"unreadable output: {exc!r}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", help="write spans here and report layer metrics")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)

    t0 = perf_counter()
    sys.path.insert(0, spec["src"])
    import fiberwave.cli as cli

    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"fiberwave imported from {cli.__file__}, not from {spec['src']}")
    references = spec.get("references", {})
    _, failure = run_one(cli.main, spec["warmup"], args.threads, references)
    setup_s = perf_counter() - t0
    result: dict = {"setup_s": setup_s, "warmup_failure": failure}
    if args.setup_only or failure:
        with open(args.result, "w") as f:
            json.dump(result, f)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(tracing.Tracer())

    requests = spec["requests"]
    rnd = spec["round"]
    latencies: list[float] = []
    failures: list[str] = []
    grid_points = 0
    start = perf_counter()
    i = 0
    while True:
        if args.count and i >= args.count:
            break
        if not args.count and i % rnd == 0 and i and perf_counter() - start >= args.seconds:
            break
        req = requests[i % len(requests)]
        if tracer is not None:
            tracer.request = i
        latency, failure = run_one(cli.main, req, args.threads, references)
        latencies.append(latency)
        grid_points += req["check"].get("steps", 0)
        if failure:
            failures.append(f"request {i}: {failure}")
        i += 1
    result.update(
        latencies=latencies,
        failures=failures,
        wall_s=perf_counter() - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
        result["layers"] = tracing.layer_metrics(tracer, len(latencies), grid_points)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
