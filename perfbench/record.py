"""Measure the baseline of every workload and write `baseline.json`.

    python3 perfbench/record.py [--out PATH]

For each workload: one untraced run per seed of `SEEDS` (median,
quartiles and spread of every end-to-end metric, and of the raw figures
`run.py` prints beside them), one run on `HELD_OUT_SEED`, and
`OVERHEAD_PAIRS` back-to-back pairs of a traced and an untraced run on
the first seed.  The first traced run gives the per-layer table; the
tracing overhead is the median over the pairs of untraced `ops_per_s`
over traced `trace.ops_per_s`.  Also records the Python version, `nproc`,
the platform and the commit.  Takes about 30 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402

SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 9001
OVERHEAD_PAIRS = 2

# Figures `run.py` prints but does not put in its result object.
PRINTED_ONLY = {
    "vertices_per_s": "1/s", "fail_ratio": "ratio", "host_slowdown": "x",
    "raw.setup_s": "s", "raw.ops_per_s": "1/s", "raw.op_p50_ms": "ms", "raw.op_p90_ms": "ms",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in its own process: its result object, the seed,
    and under "printed" the figures of `PRINTED_ONLY` that it printed."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        )
    printed = {}
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name in PRINTED_ONLY:
            printed[name] = {"value": float(rest.split()[0]), "unit": PRINTED_ONLY[name]}
    return {"seed": seed, **json.loads(lines[-1]), "printed": printed}


def summary(results: list[dict], key: str = "metrics") -> dict[str, dict[str, float]]:
    """Per figure under `key`: median, quartiles and spread over the runs,
    the spread being the interquartile distance over the median."""
    out = {}
    for name in results[0][key]:
        values = [r[key][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": results[0][key][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def flat(result: dict) -> dict:
    """One run as a flat record: seed, counts and every figure."""
    return {
        "seed": result["seed"], "attempted": result["attempted"], "failed": result["failed"],
        **{k: m["value"] for k, m in result["metrics"].items()},
        **{k: m["value"] for k, m in result["printed"].items()},
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "default_seed": SEEDS[0],
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()),
                  flush=True)
        held_out = run_once(name, HELD_OUT_SEED, seconds, 0)
        pairs = [
            (run_once(name, SEEDS[0], seconds, 1), run_once(name, SEEDS[0], seconds, 0))
            for _ in range(OVERHEAD_PAIRS)
        ]
        overhead = [
            untraced["metrics"]["ops_per_s"]["value"]
            / traced["metrics"]["trace.ops_per_s"]["value"]
            for traced, untraced in pairs
        ]
        per_layer = {k: m["value"] for k, m in pairs[0][0]["metrics"].items()}
        e2e = summary(runs)
        printed = summary(runs, key="printed")
        record["workloads"][name] = {
            "end_to_end": e2e,
            "printed_only": printed,
            "within_third_of_bound": {
                k: s["spread"] < bounds[k] / 3 for k, s in e2e.items() if k != "setup_s"
            },
            # would the unscaled times have met the bounds?
            "raw_within_bound": {
                k: s["spread"] <= bounds[k.removeprefix("raw.")]
                for k, s in printed.items() if k.startswith("raw.")
            },
            "runs": [flat(r) for r in runs],
            "held_out": flat(held_out),
            "tracing_overhead": statistics.median(overhead),
            "tracing_overhead_pairs": overhead,
            "traced_per_layer": per_layer,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
