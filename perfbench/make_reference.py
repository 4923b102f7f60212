"""Record the validate workload's reference mismatches.

    python3 perfbench/make_reference.py

Runs `fiberwave network-validate` once for every (network, grid spacing,
lambda) the validate workload can draw, plus its warm-up input, and writes
the largest per-eps |t_graph - t_oracle| to validate_reference.json.  The
benchmark's correctness gate compares each request against these values,
so rerun this only when a change is meant to alter the numerics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from fiberwave.cli import main  # noqa: E402


def mismatch(work: Path, kind: str, den: int, lam: float, ladder: str) -> dict[str, float]:
    graph = gen.write_json(str(work / "g.json"), gen.oracle_network(kind, math.pi / den))
    out = str(work / "out.csv")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["network-validate", "--graph", graph, "--lambda", repr(lam), "--eps", ladder, "--out", out])
    if rc != 0:
        raise SystemExit(f"{kind} h=pi/{den} lambda={lam}: exit code {rc}")
    return checks.validate_mismatch(out)


def build() -> dict:
    types = sorted(set(run.VALIDATE_TYPES))
    cases = [(kind, den, lam, run.VALIDATE_LADDER) for kind, den in types for lam in run.VALIDATE_LAMBDAS]
    cases.append((*run.VALIDATE_WARMUP, "1"))
    table = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for kind, den, lam, ladder in cases:
            table[run.validate_key(kind, den, lam)] = mismatch(Path(tmp), kind, den, lam, ladder)
    return {"ladder": run.VALIDATE_LADDER, "mismatch": table}


if __name__ == "__main__":
    payload = build()
    with open(run.REFERENCE, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(payload['mismatch'])} entries to {run.REFERENCE}")
