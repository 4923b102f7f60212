"""fiberwave benchmark.

    python3 perfbench/run.py --workload sweep|lattice|validate --seed N
                             --seconds S --trace 0|1

Writes seeded graph files under .bench_work/, then drives fiberwave's
command-line entry point in-process (fiberwave.cli.main) from one client in
a closed loop: the next request is sent when the previous one has returned
and its output has been checked.  The last line of stdout is the JSON
result; the lines before it print every metric with its unit and sample
count.

--trace 0 reports the end-to-end metrics.  --trace 1 reruns a fixed prefix
of the stream three ways, each in a fresh process: untraced, traced (spans
around the calls into each module, see tracing.py), and for sweep untraced
with one thread; it reports per-layer metrics per request, the tracing
overhead (traced minus untraced time) and the thread speed-up.

Workloads, their traffic dimensions and the prediction of which layer
metric moves which end-to-end metric are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402

WORKLOADS = ("sweep", "lattice", "validate")
#: Every run, with all its processes, ends within this many seconds.
DEADLINE_S = 170.0
#: Setup is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 3
#: Requests rerun by each phase of a traced run.
TRACE_REQUESTS = {"sweep": 6, "lattice": 4, "validate": 7}

SWEEP_EPS = 0.1
SWEEP_STEPS = 60
SWEEP_EIGENVALUES = 2
#: Propagating modes of the networks in one round.  Two of three requests
#: share a mode count, so the median latency sits inside one cost class.
SWEEP_ROUND = (2, 3, 3)
LATTICE_SIDE = 10
LATTICE_EPS = 0.1
#: Requests of one validate round: (network, grid spacing pi/den).  Three of
#: seven are two-cross networks at pi/32, so the median latency sits inside
#: that cost class; 2 of 7 requests run at pi/64.
VALIDATE_TYPES = (("two_cross", 32), ("two_cross", 32), ("two_cross", 32), ("elbow_pair", 32), ("duct", 32),
                  ("elbow_pair", 64), ("duct", 64))
VALIDATE_LAMBDAS = (1.3, 1.6, 1.9, 2.2, 2.5, 2.8, 3.1, 3.4)
VALIDATE_LADDER = "1,0.5"
VALIDATE_WARMUP = ("duct", 16, 2.05)
REFERENCE = HERE / "validate_reference.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def validate_key(kind: str, den: int, lam: float) -> str:
    return f"{kind}/{den}/{lam!r}"


# ---------------------------------------------------------------------------
# request streams


def _sweep_request(work: Path, name: str, rng, modes: int, steps: int, n_eig: int) -> dict:
    g, lo, hi, eig = gen.sweep_network(rng, modes, SWEEP_EPS, steps, n_eig)
    path = gen.write_json(str(work / f"{name}.json"), g)
    out = str(work / f"{name}.csv")
    argv = ["sweep", "--graph", path, "--lo", repr(lo), "--hi", repr(hi), "--steps", str(steps),
            "--eps", repr(SWEEP_EPS), "--allow-flagged", "--threads", "{threads}", "--out", out]
    check = {"kind": "sweep", "out": out, "lo": lo, "hi": hi, "steps": steps, "m": 6 * modes, "eigenvalues": eig}
    return {"argv": argv, "check": check, "dims": {"channels": len(g["channels"]), "modes": modes}}


def _lattice_request(work: Path, name: str, rng, side: int) -> dict:
    g, lam, m, unknowns = gen.lattice_network(rng, side)
    path = gen.write_json(str(work / f"{name}.json"), g)
    out = str(work / f"{name}.out.json")
    argv = ["solve", "--graph", path, "--lambda", repr(lam), "--eps", repr(LATTICE_EPS), "--out", out]
    return {"argv": argv, "check": {"kind": "lattice", "out": out, "m": m},
            "dims": {"channels": len(g["channels"]), "unknowns": unknowns}}


def _validate_request(work: Path, name: str, kind: str, den: int, lam: float, ladder: str) -> dict:
    path = work / f"{kind}-{den}.json"
    if not path.exists():
        gen.write_json(str(path), gen.oracle_network(kind, math.pi / den))
    out = str(work / f"{name}.csv")
    argv = ["network-validate", "--graph", str(path), "--lambda", repr(lam), "--eps", ladder, "--out", out]
    return {"argv": argv, "check": {"kind": "validate", "out": out, "key": validate_key(kind, den, lam)},
            "dims": {"kind": kind, "h": f"pi/{den}", "lambda": lam}}


def build_spec(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Requests of one run.  The stream is made of rounds of a fixed
    composition (sweep: one 2-mode and one 3-mode network; validate: one of
    each network type and grid spacing) and a run always ends on a round
    boundary, so every run measures the same mix."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    warm_rng = np.random.default_rng(0xF1BE)  # same warm-up input for every seed
    spec: dict = {"src": str(ROOT / "src"), "workload": workload}
    if workload == "sweep":
        rounds = max(3, math.ceil(seconds / 3))
        reqs = []
        for r in range(rounds):
            for modes in rng.permutation(SWEEP_ROUND):
                reqs.append(_sweep_request(work, f"s{len(reqs)}", rng, int(modes), SWEEP_STEPS, SWEEP_EIGENVALUES))
        # two grid points: no dip refinement, so set-up stays small
        spec.update(round=len(SWEEP_ROUND), requests=reqs, warmup=_sweep_request(work, "warm", warm_rng, 2, 2, 0))
    elif workload == "lattice":
        reqs = [_lattice_request(work, f"l{i}", rng, LATTICE_SIDE) for i in range(max(3, math.ceil(seconds)))]
        spec.update(round=1, requests=reqs, warmup=_lattice_request(work, "warm", warm_rng, 3))
    else:
        rounds = max(3, math.ceil(seconds / 3))
        # One lambda per round, walking a seeded permutation of the set.
        # Within a round the three two-cross requests share their junctions,
        # and every request reuses its junctions for the second eps; a
        # round repeats no lambda of an earlier one until the set is used
        # up, so the cost of a round does not depend on how many came first.
        lams = rng.permutation(VALIDATE_LAMBDAS)
        reqs = []
        for r in range(rounds):
            lam = float(lams[r % len(lams)])
            for t in rng.permutation(len(VALIDATE_TYPES)):
                kind, den = VALIDATE_TYPES[t]
                reqs.append(_validate_request(work, f"v{len(reqs)}", kind, den, lam, VALIDATE_LADDER))
        kind, den, lam = VALIDATE_WARMUP
        with open(REFERENCE) as f:
            spec["references"] = json.load(f)["mismatch"]
        spec.update(round=len(VALIDATE_TYPES), requests=reqs,
                    warmup=_validate_request(work, "warm", kind, den, lam, "1"))
    return spec


def repeated_share(requests: list[dict]) -> float:
    """Share of oracle-vertex resolutions in a validate stream whose
    (geometry, lambda) pair was resolved before in the same process: what
    an ideal junction cache would hit."""
    seen, hits, total = set(), 0, 0
    eps_count = len(VALIDATE_LADDER.split(","))
    for req in requests:
        d = req["dims"]
        geoms = ("cross", "cross") if d["kind"] == "two_cross" else (("up", "down") if d["kind"] == "elbow_pair" else ("duct", "duct"))
        for g in geoms:
            for _ in range(eps_count):
                key = (g, d["h"], d["lambda"])
                total += 1
                hits += key in seen
                seen.add(key)
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# processes


class BenchError(Exception):
    pass


def run_worker(spec_path: Path, tag: str, deadline: float, env: dict, *extra: str) -> dict:
    result = spec_path.parent / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: worker exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag}: worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    with open(result) as f:
        out = json.load(f)
    if out.get("warmup_failure"):
        raise BenchError(f"{tag}: warm-up request failed: {out['warmup_failure']}")
    return out


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env.pop("FIBERWAVE_THREADS", None)
    return env


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(spec_path: Path, spec: dict, threads: int, seconds: float, env: dict, deadline: float) -> dict:
    setup = [run_worker(spec_path, f"setup{i}", deadline, env, "--setup-only")["setup_s"] for i in range(SETUP_SAMPLES - 1)]
    res = run_worker(spec_path, "run", deadline, env, "--seconds", repr(seconds), "--threads", str(threads))
    setup.append(res["setup_s"])
    lat = res["latencies"]
    n, failed = len(lat), len(res["failures"])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "requests_per_s": metric(n / sum(lat), "1/s"),
        "latency_ms.p50": metric(1000.0 * statistics.median(lat), "ms"),
        "ok_frac": metric((n - failed) / n, "frac"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    samples = {"setup_s": len(setup), "requests_per_s": n, "latency_ms.p50": n, "ok_frac": n, "peak_rss_mb": 1}
    notes = [f"latency: p50 only, {n} samples (p90 needs at least 100)" if n < 100
             else f"latency p90 {1000.0 * statistics.quantiles(lat, n=10)[8]:.1f} ms over {n} samples",
             f"failed_frac {failed / n:.4f} ({failed} of {n})",
             f"measured wall {res['wall_s']:.2f} s, busy {sum(lat):.2f} s",
             "latency ms min/q1/q2/q3/max: " + " ".join(
                 f"{1000 * v:.0f}" for v in (min(lat), *statistics.quantiles(lat, n=4), max(lat))) if n > 1 else "",
             "setup s samples: " + " ".join(f"{v:.3f}" for v in setup)]
    if spec["workload"] == "validate":
        notes.append(f"repeated-input share (junction resolutions seen before): {repeated_share(spec['requests'][:n]):.3f}")
    return {"metrics": metrics, "samples": samples, "attempted": n, "failed": failed,
            "failures": res["failures"], "notes": notes}


def traced(spec_path: Path, spec: dict, threads: int, env: dict, deadline: float) -> dict:
    k = TRACE_REQUESTS[spec["workload"]]
    count = ("--count", str(k))
    base = run_worker(spec_path, "untraced", deadline, env, *count, "--threads", str(threads))
    # Kept after the run (overwritten by the next traced run of this workload).
    spans = ROOT / ".bench_work" / f"spans-{spec['workload']}.jsonl"
    tr = run_worker(spec_path, "traced", deadline, env, *count, "--threads", str(threads), "--trace", str(spans))
    layers = tr["layers"]
    t_base, t_traced = sum(base["latencies"]), sum(tr["latencies"])
    layers["trace.overhead_s"] = (t_traced - t_base) / k
    layers["trace.overhead_frac"] = (t_traced - t_base) / t_base
    notes = [f"per-layer values are per request over {k} requests (traced phase)",
             f"tracing overhead: traced {t_traced:.3f} s - untraced {t_base:.3f} s = {t_traced - t_base:.3f} s",
             f"spans written to {spans.relative_to(ROOT)}"]
    runs = [base, tr]
    if spec["workload"] == "sweep":
        one = run_worker(spec_path, "untraced1", deadline, env, *count, "--threads", "1")
        runs.append(one)
        layers["spectrum_tools.thread_speedup"] = sum(one["latencies"]) / t_base
        notes.append(f"thread speed-up: {threads} threads {t_base:.3f} s vs 1 thread {sum(one['latencies']):.3f} s")
    else:
        layers["spectrum_tools.thread_speedup"] = 0.0
        notes.append("spectrum_tools.thread_speedup absent (0): this workload runs no sweep")
    for name, why in (
        ("spectrum_tools.solves_per_point", "no sweep grid points"),
        ("helmholtz_oracle.distinct_factor_ratio", "no sparse factorizations"),
        ("helmholtz_oracle.junction_cache_hit_ratio", "no oracle junctions"),
        ("graph_solver.unknowns", "no dense factorizations"),
    ):
        if layers[name] == 0.0:
            notes.append(f"{name} absent (0): {why}")
    metrics = {name: metric(v, unit_of(name)) for name, v in layers.items()}
    failures = [f for r in runs for f in r["failures"]]
    return {"metrics": metrics, "samples": {name: k for name in metrics},
            "attempted": sum(len(r["latencies"]) for r in runs), "failed": len(failures),
            "failures": failures, "notes": notes}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/req"
    if name.endswith(("_ratio", "_frac", "_speedup", "per_point")):
        return "ratio"
    if name.endswith("flops_computed"):
        return "flop/req"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("unknowns", "lu_nnz")):
        return "count"
    return "count/req"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fiberwave" / "cli.py").is_file():
        sys.stderr.write(f"no fiberwave sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2

    threads = nproc()
    # The sweep parallelizes over grid points with `threads` Python threads,
    # so BLAS gets one thread there; the other workloads are single-threaded
    # Python and give BLAS every core.  Either way no more than nproc.
    blas = 1 if args.workload == "sweep" else threads
    env = child_env(blas)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = build_spec(args.workload, args.seed, args.seconds, work)
        spec_path = work / "spec.json"
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        if args.trace:
            out = traced(spec_path, spec, threads, env, deadline)
        else:
            out = end_to_end(spec_path, spec, threads, args.seconds, env, deadline)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={threads} sweep_threads={threads if args.workload == 'sweep' else 1} blas_threads={blas}")
    for name, m in out["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:10s} n={out['samples'][name]}")
    for note in filter(None, out["notes"]):
        print(f"  # {note}")
    for failure in out["failures"][:10]:
        print(f"  ! {failure}")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
