"""Run one corrpoly benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: vertex-ladder, capacity-stream, mi-certificate, scenario-cli
(see `workloads.py`).  The library is imported from `src/` of the
checkout that holds this file; the vertex oracle from `tests/bruteforce.py`.

A run sets up at least `SETUP_MIN_REPEATS` times, and more while less
than `SETUP_MIN_SECONDS` have been spent (fresh import of corrpoly,
seeded inputs, the workload's untimed prerequisites), and reports the
median as `setup_s`.  It then runs whole rounds of ops as a closed loop
with one client until `--seconds` have passed, at least `MIN_OPS` ops are
done and every input has been timed `MIN_REPEATS` times, and afterwards
checks every output.

A shared host can run the same code at half speed for minutes, so every
timed interval is scaled to a reference host speed by `speed.SpeedProbe`,
and each op counts with the median scaled latency of its input's repeats
(`typical_latencies`): `ops_per_s` is ops over the sum of those
latencies, `op_p50_ms` and `op_p90_ms` are their quantiles, and `setup_s`
is the median scaled set-up time.  The raw figures (`raw.setup_s`,
`raw.ops_per_s` as ops over elapsed time, `raw.op_p50_ms`, `raw.op_p90_ms`)
and the host's slowdown are printed beside them, as are `fail_ratio` and
`vertices_per_s` (vertices of each distinct enumeration over its best raw
time).

Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
sets up once more with every public corrpoly function wrapped (see
`tracer.py`), runs the loop on that set-up, and writes the spans to
`.perfbench-out/` when the run ends.  Its per-layer figures cover the
traced set-up and the ops of the shortest loop the stop rule allows
(`MIN_OPS` ops, `MIN_REPEATS` timings of each input): the same work on
every commit, however fast it runs.

Exit codes: 0 when every output checks, 1 when an output check fails,
2 when the checkout lacks the library or the oracle.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE_PATH = ROOT / "tests" / "bruteforce.py"
SPANS_DIR = ROOT / ".perfbench-out"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
MIN_OPS = 100  # so that the p90 has at least ten samples beyond it
MIN_REPEATS = 2  # timings of each input, taken in different rounds

sys.path.insert(0, str(BENCH_DIR))
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def typical_latencies(input_ids, latencies) -> list[float]:
    """Each sample replaced by the median latency of the samples of the
    same input.  With `MIN_REPEATS` = 2 that median is the mean of two, so
    one badly scaled sample moves its input's figure by half its error;
    a third repeat would drop it, but lengthens every run by a round."""
    samples: dict[object, list[float]] = {}
    for i, t in zip(input_ids, latencies):
        samples.setdefault(i, []).append(t)
    median = {i: statistics.median(ts) for i, ts in samples.items()}
    return [median[i] for i in input_ids]


class EnumerationMeter:
    """Best time and vertex count of each distinct `enumerate_extreme_points`
    input, for `vertices_per_s`.  One wrapper on one function, installed in
    every run."""

    def __init__(self):
        self.best: dict[object, tuple[float, int]] = {}
        self.calls = 0

    def vertices_per_s(self) -> float:
        return sum(n for _, n in self.best.values()) / sum(t for t, _ in self.best.values())

    def install(self, cp) -> None:
        original = cp.polytope.enumerate_extreme_points

        def metered(cs, *args, **kwargs):
            t0 = perf_counter()
            vertices = original(cs, *args, **kwargs)
            seconds = perf_counter() - t0
            key = (cs.space.subspace_sizes, tuple(m.weights for m in cs.marginals))
            self.best[key] = (min(seconds, self.best.get(key, (seconds,))[0]), len(vertices))
            self.calls += 1
            return vertices

        metered.__module__ = original.__module__
        metered.__wrapped__ = original
        cp.polytope.enumerate_extreme_points = metered
        cp.enumerate_extreme_points = metered


def import_corrpoly():
    """A fresh import of corrpoly and all its modules (`cli` included) from
    this checkout's `src/`."""
    for name in [m for m in sys.modules if m == "corrpoly" or m.startswith("corrpoly.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cp = importlib.import_module("corrpoly")
    for layer in LAYERS:
        importlib.import_module(f"corrpoly.{layer}")
    if Path(cp.__file__).resolve().parent != SRC / "corrpoly":
        raise ImportError(f"corrpoly was imported from {cp.__file__}, not from {SRC}")
    return cp


def load_oracle():
    """The test suite's brute-force vertex oracle, memoized per input."""
    spec = importlib.util.spec_from_file_location("bruteforce", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cache: dict[tuple, set] = {}

    def oracle(sizes, marginal_weights):
        key = (tuple(sizes), tuple(tuple(w) for w in marginal_weights))
        if key not in cache:
            cache[key] = module.oracle_vertices(sizes, marginal_weights)
        return cache[key]

    return oracle


def p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def set_up(workload_name: str, seed: int, meter: EnumerationMeter, tracer: Tracer | None):
    """Import corrpoly afresh, wrap it, and build the workload's inputs."""
    cp = import_corrpoly()
    meter.install(cp)
    if tracer is not None:
        tracer.install(cp)
    workload = WORKLOADS[workload_name]()
    workload.setup(cp, seed)
    return workload


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, run the timed loop and check outputs.  Returns the result
    object and the human-readable lines."""
    meter = EnumerationMeter()
    tracer = Tracer() if trace else None
    setups: list[tuple[float, float]] = []
    spans: list[tuple[float, float]] = []
    input_ids, keys, outputs, failed = [], [], [], []
    repeats: dict[object, int] = {}
    r = 0
    fixed_ops = None  # ops of the shortest loop the stop rule allows
    with SpeedProbe() as probe:
        while len(setups) < SETUP_MIN_REPEATS or (
            sum(b - a for a, b in setups) < SETUP_MIN_SECONDS
            and len(setups) < SETUP_MAX_REPEATS
        ):
            t0 = perf_counter()
            workload = set_up(workload_name, seed, meter, None)
            setups.append((t0, perf_counter()))
            gc.collect()  # drop the previous import, so that peak RSS holds one
        if tracer is not None:  # traced from its own set-up on
            workload = set_up(workload_name, seed, meter, tracer)

        t_start = perf_counter()
        while True:
            for op in workload.round(r):
                if tracer is not None:
                    tracer.begin_op()
                t0 = perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # an unexpected exception fails the op
                    output = exc
                    failed.append(len(spans))
                spans.append((t0, perf_counter()))
                input_ids.append(op.input_id)
                repeats[op.input_id] = repeats.get(op.input_id, 0) + 1
                keys.append(op.key)
                outputs.append(output)
                if not isinstance(output, Exception) and not workload.check_inline(op.key, output):
                    failed.append(len(spans) - 1)
            r += 1
            elapsed = perf_counter() - t_start
            if fixed_ops is None and (
                len(spans) >= MIN_OPS and min(repeats.values()) >= MIN_REPEATS
            ):
                fixed_ops = len(spans)
            if fixed_ops is not None and elapsed >= seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    latencies = [b - a for a, b in spans]

    good = [i for i, o in enumerate(outputs) if not isinstance(o, Exception)]
    late = workload.check_after([keys[i] for i in good], [outputs[i] for i in good], load_oracle())
    failed = sorted(set(failed) | {good[i] for i in late})

    attempted = len(latencies)
    typical = typical_latencies(input_ids, [probe.scaled(a, b) for a, b in spans])
    ops_per_s = attempted / sum(typical)
    lines = [
        f"workload {workload_name} seed {seed} rounds {r} ops {attempted} "
        f"inputs {len(repeats)} loop_s {elapsed:.3f} trace {int(trace)}",
        f"raw.setup_s {statistics.median(b - a for a, b in setups):.6g} s",
        f"raw.ops_per_s {attempted / elapsed:.6g} 1/s",
        f"raw.op_p50_ms {1e3 * statistics.median(latencies):.6g} ms",
        f"raw.op_p90_ms {1e3 * p90(latencies):.6g} ms",
        f"host_slowdown {probe.slowdown():.4f} x",
    ]
    if trace:
        per_layer = tracer.per_layer_metrics(ops_per_s, ops=fixed_ops)
        spans_path = SPANS_DIR / f"spans-{workload_name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        lines.append(f"per-layer figures over the first {fixed_ops} ops; "
                     f"all {len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
        units = per_layer_units()
        metrics = {name: {"value": v, "unit": units[name][0]} for name, v in per_layer.items()}
    else:
        p90_ms = 1e3 * p90(typical)
        beyond = sum(1 for x in typical if 1e3 * x > p90_ms)
        setup_s = statistics.median(probe.scaled(a, b) for a, b in setups)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
            "op_p90_ms": {"value": p90_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        # Printed, not in the result object: fail_ratio is 0 on a correct
        # program (the result carries attempted and failed), and the spread
        # of vertices_per_s across seeds is set by how many vertices the
        # seeded sets have, not by how fast they are enumerated.
        lines.append(f"op_p90_ms samples {attempted} beyond_p90 {beyond}")
        lines.append(f"fail_ratio {len(failed) / attempted:.6f} ratio ({len(failed)}/{attempted})")
        lines.append(f"vertices_per_s {meter.vertices_per_s():.6g} 1/s")
        lines.append(
            f"set-ups {' '.join(f'{b - a:.4f}' for a, b in setups)} s raw; "
            f"{meter.calls} enumerations of {len(meter.best)} distinct sets"
        )
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    if failed:
        shown = ", ".join(f"{keys[i]!r}: {outputs[i]!r}"[:300] for i in failed[:5])
        lines.append(f"FAILED {len(failed)} ops, first: {shown}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrpoly" / "__init__.py").is_file() or not ORACLE_PATH.is_file():
        print(f"error: {ROOT} has no src/corrpoly or tests/bruteforce.py", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the scenario-cli commands name scenarios/ relative to the root
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
