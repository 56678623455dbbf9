"""Time vertex enumeration, a capacity sweep and MI certificates on a ladder of shapes.

    python scripts/bench_ladder.py [--rungs K]

For each shape of the ladder, smallest first, the set is the one that
`tests/conftest.py`'s `random_correlation_set` draws with `random.Random(SEED)`,
SEED = 1 (denominator 12, full support).  Three measurements run, each `RUNS` = 3
times, every run in a fresh Python process that imports corrpoly from this
checkout's `src/`.  A measurement reports its run with the median `seconds`,
each rate (`events_per_s`, `certificates_per_s`) as the median of the three
runs' rates, and all three times as `runs_s`, so that two commits' ladders
can be ordered by more than one sample each.  The rate is a median of its
own because the `mi` runs all last about 0.5 s, so the run with the median
seconds is an arbitrary one of them:

* `vertices`: one `cs.vertices()`, the enumeration of the extreme points,
  and, after the timing, `bytes_per_vertex`: the bytes of the set and its
  vertices (`sys.getsizeof` summed over each object reachable from the set
  once, classes, modules and functions not counted) over the vertex count;
* `exactness`: one `check_exactness(cs)` after an untimed enumeration,
  then a sweep of capacity values through the set's `Capacity`: every
  event up to 2^16 of them, beyond that the cylinders of each subspace
  plus 10 000 events drawn from `random.Random(0)`.  The process reports
  the events whose capacity is memoized, `events_per_s` (those events
  over the timed seconds: nearly all of them are misses on the capacity's
  one phase-1 start, so this is the rate of the warm capacity query) and
  the bases in the capacity's phase-2 cache;
* `mi`: after an untimed enumeration, `certify_local_max_mi(cs, p,
  probes=8, seed=7)` (the benchmark's `mi-certificate` settings) at every
  vertex, the independent product and the midpoint of the first and last
  vertex, in whole passes over these points until at least 0.5 s have
  passed, reported as certificates per second.

A run that takes longer than `TIMEOUT_S` = 60 s is stopped and recorded as
"did not finish"; a run that fails or does not finish ends its measurement
and is not repeated.  `--rungs K` runs the K smallest shapes.

The `import` key times the package's import as a CLI call pays it: `RUNS`
fresh processes each time `import corrpoly.cli` with `time.perf_counter`,
reported like the measurements above (`status`, the median `seconds`,
`runs_s`) with the child's `sys.dont_write_bytecode`.  When it is true (as
under `PYTHONDONTWRITEBYTECODE=1`) and no bytecode is cached, every import
compiles `src/`; otherwise the first run writes the bytecode the others
read, so the two kinds of figure must not be compared with each other.

The `cli` key times whole CLI calls as a user makes them: `RUNS` fresh
processes each of `python -m corrpoly.cli dim scenarios/climate.scn` and
of `vertices` on the same file, every process timed from start to exit
by this script with `time.perf_counter`.  `cli.dim` and `cli.vertices`
are reported like the `import` key; `dont_write_bytecode` says whether
the environment sets `PYTHONDONTWRITEBYTECODE`, which the calls inherit,
and `cli.status` is "ok" when both calls are, else the first other status.

The `acceptance` key holds each acceptance criterion's time as a share of
its budget: `tests/test_acceptance.py` runs once under pytest in a child
with `PYTHONPATH=src` and a timeout of `ACCEPTANCE_TIMEOUT_S` = 300 s, and
each `ACCEPTANCE n: PASS (x s < y s)` line it prints gives criterion n's
seconds x, budget y and share x / y.  Without pytest it reads "not run".

The result is one JSON object on stdout.  The ladder needs only the
standard library.  Exit code 1 when a measurement or an acceptance
criterion fails, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"
CLI_SCENARIO = "scenarios/climate.scn"  # relative to ROOT, where every child runs
TIMEOUT_S = 60.0
RUNS = 3  # fresh processes per measurement; a constant, not a flag
ACCEPTANCE_TIMEOUT_S = 300.0
SEED = 1
# the lines that `tests/test_acceptance.py`'s `criterion` prints
PASS_LINE = re.compile(r"ACCEPTANCE (\d+): PASS \(([\d.]+)s < ([\d.e+]+)s\)")
FAIL_LINE = re.compile(r"ACCEPTANCE (\d+): FAIL")

TASKS = ("vertices", "exactness", "mi")
LADDER = (
    (2, 2),
    (2, 2, 2),
    (3, 3),
    (3, 4),
    (2, 2, 3),
    (4, 4),
    (2, 2, 2, 2),
    (4, 5),
    (5, 5),
    (3, 3, 3),
)

# Runs in the child: argv[1] is a JSON [task, sizes, seed]; prints JSON.
CHILD = """
import gc, itertools, json, random, sys, time, types
from fractions import Fraction
from corrpoly import (
    CorrelationSet, Marginal, ProductSpace, capacity_of, certify_local_max_mi, check_exactness,
    cylinder, mix,
)

task, sizes, seed = json.loads(sys.argv[1])
rng = random.Random(seed)
marginals = []
for i, size in enumerate(sizes):
    while True:
        cuts = sorted(rng.randint(0, 12) for _ in range(size - 1))
        parts = [a - b for a, b in zip(cuts + [12], [0] + cuts)]
        if all(p > 0 for p in parts):
            break
    marginals.append(Marginal(i, tuple(Fraction(p, 12) for p in parts)))


def held_bytes(root):
    # each object reachable from root once; classes, modules and functions
    # are neither counted nor walked
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


cs = CorrelationSet(ProductSpace(tuple(sizes)), marginals)
if task == "vertices":
    t0 = time.perf_counter()
    vertices = cs.vertices()
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": seconds,
        "vertices": len(vertices),
        "bytes_per_vertex": round(held_bytes(cs) / len(vertices), 1),
    }))
elif task == "mi":
    vertices = cs.vertices()
    points = [*vertices, cs.independent_product, mix(vertices[0], vertices[-1], Fraction(1, 2))]
    done, t0 = 0, time.perf_counter()
    while done == 0 or seconds < 0.5:  # whole passes over the points, for at least 0.5 s
        for p in points:
            certify_local_max_mi(cs, p, probes=8, seed=7)
        done += len(points)
        seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": seconds,
        "certificates": done,
        "certificates_per_s": round(done / seconds, 1),
    }))
else:
    cs.vertices()
    t0 = time.perf_counter()
    exact = check_exactness(cs)
    cap = capacity_of(cs)
    n = cs.space.total_size
    if n <= 16:
        masks = range(2 ** n)
    else:
        events = random.Random(0)
        masks = [
            sum(cylinder(cs.space, {i: c}).mask for c in coords)
            for i, size in enumerate(sizes)
            for r in range(1, size + 1)
            for coords in itertools.combinations(range(size), r)
        ] + [events.getrandbits(n) for _ in range(10000)]
    for mask in masks:
        cap._mask_value(mask)
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "seconds": seconds,
        "exact": exact,
        "events": len(cap._memo),
        "events_per_s": round(len(cap._memo) / seconds, 1),
        "cached_bases": len(cap._start._bases),
    }))
"""

# Runs in the child: prints JSON.
IMPORT_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import corrpoly.cli
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "dont_write_bytecode": sys.dont_write_bytecode}))
"""


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """``python args`` with this checkout's `src/` first on the path, from
    the checkout's root; None when it runs past ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    try:
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None


def measure(args: list[str], whole_process: bool = False) -> dict:
    """``python args`` in `RUNS` fresh processes, each printing one JSON
    object with its ``seconds`` (or, with ``whole_process``, each timed
    from start to exit here): the run with the median seconds, each
    ``*_per_s`` rate as the median of the runs' rates, and every run's
    seconds as ``runs_s``.  A run that fails or does not finish is reported
    as it is and not repeated."""
    runs = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        done = child(args, TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if done is None:
            return {"status": "did not finish", "timeout_s": TIMEOUT_S}
        if done.returncode != 0:
            return {"status": "failed", "stderr": done.stderr.strip().splitlines()[-1:]}
        runs.append({"seconds": seconds} if whole_process else json.loads(done.stdout))
    median = sorted(runs, key=lambda run: run["seconds"])[len(runs) // 2]
    rates = {
        key: statistics.median(run[key] for run in runs) for key in median if key.endswith("_per_s")
    }
    return {"status": "ok", **median, **rates, "runs_s": [run["seconds"] for run in runs]}


def cli_calls() -> dict:
    """The process times of the CLI's `dim` and `vertices` on the climate
    scenario (see the `cli` key in the module docstring)."""
    calls = {
        command: measure(["-m", "corrpoly.cli", command, CLI_SCENARIO], whole_process=True)
        for command in ("dim", "vertices")
    }
    statuses = [call["status"] for call in calls.values() if call["status"] != "ok"]
    return {
        "status": statuses[0] if statuses else "ok",
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        **calls,
    }


def acceptance() -> dict:
    """Each acceptance criterion's seconds, budget and share of its budget,
    from one pytest run of `tests/test_acceptance.py`."""
    if importlib.util.find_spec("pytest") is None:
        return {"status": "not run", "reason": "pytest is not installed"}
    done = child(
        ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", str(ACCEPTANCE_TESTS)],
        ACCEPTANCE_TIMEOUT_S,
    )
    if done is None:
        return {"status": "did not finish", "timeout_s": ACCEPTANCE_TIMEOUT_S}
    criteria = []
    for line in done.stdout.splitlines():
        if m := PASS_LINE.search(line):
            seconds, budget = float(m[2]), float(m[3])
            criteria.append({
                "criterion": int(m[1]),
                "status": "ok",
                "seconds": seconds,
                "budget_s": budget,
                "share": round(seconds / budget, 4),
            })
        elif m := FAIL_LINE.search(line):
            criteria.append({"criterion": int(m[1]), "status": "failed", "line": line[m.start():]})
    ok = done.returncode == 0 and all(c["status"] == "ok" for c in criteria)
    result = {"status": "ok" if ok else "failed", "criteria": criteria}
    if done.returncode != 0:
        result["pytest"] = done.stdout.strip().splitlines()[-1:]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rungs", type=int, default=len(LADDER), help="run the K smallest shapes")
    args = parser.parse_args(argv)
    if not 1 <= args.rungs <= len(LADDER):
        parser.error(f"--rungs must lie in 1..{len(LADDER)}")

    rungs = []
    for sizes in LADDER[: args.rungs]:
        rung = {"shape": list(sizes)}
        for task in TASKS:
            rung[task] = measure(["-c", CHILD, json.dumps([task, sizes, SEED])])
        rungs.append(rung)
    result = {
        "python": platform.python_version(),
        "seed": SEED,
        "timeout_s": TIMEOUT_S,
        "rungs": rungs,
        "import": measure(["-c", IMPORT_CHILD]),
        "cli": cli_calls(),
        "acceptance": acceptance(),
    }
    print(json.dumps(result, indent=1))
    failed = any(r[task]["status"] == "failed" for r in rungs for task in TASKS)
    failed = failed or "failed" in (result["import"]["status"], result["cli"]["status"])
    return 1 if failed or result["acceptance"]["status"] == "failed" else 0


if __name__ == "__main__":
    sys.exit(main())
