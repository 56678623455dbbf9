"""Time vertex enumeration and a capacity sweep on a ladder of shapes.

    python scripts/bench_ladder.py [--rungs K]

For each shape of the ladder, smallest first, the set is the one that
`tests/conftest.py`'s `random_correlation_set` draws with `random.Random(SEED)`,
SEED = 1 (denominator 12, full support).  Two measurements run, each in a fresh
Python process that imports corrpoly from this checkout's `src/`:

* `vertices`: one `cs.vertices()`, the enumeration of the extreme points;
* `exactness`: one `check_exactness(cs)` after an untimed enumeration,
  then a sweep of capacity values through the set's `Capacity`: every
  event up to 2^16 of them, beyond that the cylinders of each subspace
  plus 10 000 events drawn from `random.Random(0)`.  The process reports
  the events whose capacity is memoized and the bases in the capacity's
  phase-2 cache.

A measurement that takes longer than `TIMEOUT_S` = 60 s is stopped and
recorded as "did not finish".  `--rungs K` runs the K smallest shapes.
The result is one JSON object on stdout.  Only the standard library is
needed.  Exit code 1 when a measurement fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 60.0
SEED = 1

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
import itertools, json, random, sys, time
from fractions import Fraction
from corrpoly import CorrelationSet, Marginal, ProductSpace, capacity_of, check_exactness, cylinder

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
cs = CorrelationSet(ProductSpace(tuple(sizes)), marginals)
if task == "vertices":
    t0 = time.perf_counter()
    vertices = cs.vertices()
    print(json.dumps({"seconds": time.perf_counter() - t0, "vertices": len(vertices)}))
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


def measure(task: str, sizes: tuple[int, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps([task, sizes, SEED])],
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {"status": "did not finish", "timeout_s": TIMEOUT_S}
    if done.returncode != 0:
        return {"status": "failed", "stderr": done.stderr.strip().splitlines()[-1:]}
    return {"status": "ok", **json.loads(done.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rungs", type=int, default=len(LADDER), help="run the K smallest shapes")
    args = parser.parse_args(argv)
    if not 1 <= args.rungs <= len(LADDER):
        parser.error(f"--rungs must lie in 1..{len(LADDER)}")

    rungs = []
    for sizes in LADDER[: args.rungs]:
        rung = {"shape": list(sizes)}
        for task in ("vertices", "exactness"):
            rung[task] = measure(task, sizes)
        rungs.append(rung)
    result = {
        "python": platform.python_version(),
        "seed": SEED,
        "timeout_s": TIMEOUT_S,
        "rungs": rungs,
    }
    print(json.dumps(result, indent=1))
    failed = any(r[task]["status"] == "failed" for r in rungs for task in ("vertices", "exactness"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
