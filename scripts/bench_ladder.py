"""Time vertex enumeration, a capacity sweep and MI certificates on a ladder of shapes.

    python scripts/bench_ladder.py [--rungs K]

For each shape of the ladder, smallest first, the set is the one that
`tests/conftest.py`'s `random_correlation_set` draws with `random.Random(SEED)`,
SEED = 1 (denominator 12, full support).  Three measurements run, each in a fresh
Python process that imports corrpoly from this checkout's `src/`:

* `vertices`: one `cs.vertices()`, the enumeration of the extreme points,
  and, after the timing, `bytes_per_vertex`: the bytes of the set and its
  vertices (`sys.getsizeof` summed over each object reachable from the set
  once, classes, modules and functions not counted) over the vertex count;
* `exactness`: one `check_exactness(cs)` after an untimed enumeration,
  then a sweep of capacity values through the set's `Capacity`: every
  event up to 2^16 of them, beyond that the cylinders of each subspace
  plus 10 000 events drawn from `random.Random(0)`.  The process reports
  the events whose capacity is memoized and the bases in the capacity's
  phase-2 cache;
* `mi`: after an untimed enumeration, `certify_local_max_mi(cs, p,
  probes=8, seed=7)` (the benchmark's `mi-certificate` settings) at every
  vertex, the independent product and the midpoint of the first and last
  vertex, in whole passes over these points until at least 0.5 s have
  passed, reported as certificates per second.

A measurement that takes longer than `TIMEOUT_S` = 60 s is stopped and
recorded as "did not finish".  `--rungs K` runs the K smallest shapes.

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
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ACCEPTANCE_TESTS = ROOT / "tests" / "test_acceptance.py"
TIMEOUT_S = 60.0
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
        "cached_bases": len(cap._start._bases),
    }))
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


def measure(task: str, sizes: tuple[int, ...]) -> dict:
    done = child(["-c", CHILD, json.dumps([task, sizes, SEED])], TIMEOUT_S)
    if done is None:
        return {"status": "did not finish", "timeout_s": TIMEOUT_S}
    if done.returncode != 0:
        return {"status": "failed", "stderr": done.stderr.strip().splitlines()[-1:]}
    return {"status": "ok", **json.loads(done.stdout)}


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
            rung[task] = measure(task, sizes)
        rungs.append(rung)
    result = {
        "python": platform.python_version(),
        "seed": SEED,
        "timeout_s": TIMEOUT_S,
        "rungs": rungs,
        "acceptance": acceptance(),
    }
    print(json.dumps(result, indent=1))
    failed = any(r[task]["status"] == "failed" for r in rungs for task in TASKS)
    return 1 if failed or result["acceptance"]["status"] == "failed" else 0


if __name__ == "__main__":
    sys.exit(main())
