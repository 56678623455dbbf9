"""The four benchmark workloads: seeded inputs, the op, and output checks.

Each workload drives corrpoly's public API from one process as a closed
loop with one client: the next op starts when the previous one returned.
Inputs come from a `random.Random(seed)` owned here; corrpoly only ever
receives the generated objects.  A workload's `round(r)` returns the ops
of round r.  Rounds cycle over the run's fixed set of inputs, so that each
input is timed several times and at different moments; the loop runs
whole rounds, so every run sees the same mix.

`check_inline` judges an op's output right after it is timed;
`check_after` runs the costlier oracle comparisons once the timed loop is
over and returns the indices of the failed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden" / "scenario_cli.json"

DENOMINATOR = 12


def random_marginal(cp, index: int, size: int, rng: random.Random) -> object:
    """A full-support marginal with denominator 12, drawn as the test
    suite's `conftest.random_marginal` draws it."""
    while True:
        cuts = sorted(rng.randint(0, DENOMINATOR) for _ in range(size - 1))
        parts = [a - b for a, b in zip(cuts + [DENOMINATOR], [0] + cuts)]
        if all(p > 0 for p in parts):
            return cp.Marginal(index, tuple(Fraction(p, DENOMINATOR) for p in parts))


def random_marginals(cp, sizes, rng):
    return [random_marginal(cp, i, s, rng) for i, s in enumerate(sizes)]


@dataclass
class Op:
    run: Callable[[], object]
    key: object  # what the checks need to judge the output
    input_id: object  # equal for ops that repeat the same work on the same input


class Workload:
    """Defaults for the checks: every output passes."""

    def check_inline(self, key, output) -> bool:
        return True

    def check_after(self, keys, outputs, oracle) -> list[int]:
        return []


class VertexLadder(Workload):
    """Op: `enumerate_extreme_points` on a freshly built `CorrelationSet`.

    One round walks the scale ladder, `RUNGS[shape]` seeded sets per rung;
    every round repeats the same inputs on fresh sets.  The counts put the
    p90 in the middle of the ten (2,2,3) sets, whose latency varies little
    from set to set, with five inputs above it, and the median among the
    sixteen (2,2,2) and (3,3) sets.  (4,4) alone takes about 40 % of a round.
    """

    name = "vertex-ladder"
    RUNGS = {
        (2, 2): 9, (2, 3): 9, (2, 4): 9, (2, 2, 2): 8, (3, 3): 8,
        (2, 6): 3, (3, 4): 3, (2, 2, 3): 10, (4, 4): 1,
    }
    ORACLE_STATES = 12  # rungs up to this size are compared with the oracle

    def setup(self, cp, seed: int) -> None:
        self.cp = cp
        rng = random.Random(seed)
        self.inputs = [
            (sizes, random_marginals(cp, sizes, rng))
            for sizes, count in self.RUNGS.items()
            for _ in range(count)
        ]

    def round(self, r: int) -> list[Op]:
        cp = self.cp

        def op(sizes, marginals):
            cs = cp.CorrelationSet(cp.ProductSpace(sizes), marginals)
            return cs, cp.polytope.enumerate_extreme_points(cs)

        return [
            Op(lambda s=sizes, m=ms: op(s, m), (sizes, ms), i)
            for i, (sizes, ms) in enumerate(self.inputs)
        ]

    def check_after(self, keys, outputs, oracle) -> list[int]:
        """Vertices come sorted and distinct, and equal for every repeat of
        an input.  On rungs of at most `ORACLE_STATES` states they must be
        the oracle's vertex set; on larger rungs every vertex must be a
        member that is maximally zero."""
        cp = self.cp
        failed = []
        first: dict[object, list] = {}
        for i, ((sizes, marginals), (cs, vertices)) in enumerate(zip(keys, outputs)):
            weights = [v.weights for v in vertices]
            input_key = (sizes, tuple(m.weights for m in marginals))
            seen = first.setdefault(input_key, weights)
            if weights != sorted(set(weights)) or weights != seen:
                ok = False
            elif math.prod(sizes) <= self.ORACLE_STATES:
                ok = set(weights) == oracle(sizes, input_key[1])
            else:
                ok = all(cs.contains(v) and cp.is_maximally_zero(cs, v) for v in vertices)
            if not ok:
                failed.append(i)
        return failed


class CapacityStream(Workload):
    """Op: one `capacity_value` query on `event_from_mask`.

    A round builds one fresh set per shape and sends each its seeded mask
    stream; rounds cycle over `INPUT_ROUNDS` seeded sets per shape.
    Exactly `REPEATS` of the `QUERIES` queries per set repeat an earlier
    event (memo hits); the rest are distinct non-empty events, so the
    median op is a miss.  The first query on each set pays the vertex
    enumeration that the capacity's cross-check needs.
    """

    name = "capacity-stream"
    SHAPES = ((2, 2, 2), (3, 3), (2, 4), (3, 4))
    QUERIES = 40
    REPEATS = 10
    INPUT_ROUNDS = 8

    def setup(self, cp, seed: int) -> None:
        self.cp = cp
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.INPUT_ROUNDS):
            round_inputs = []
            for sizes in self.SHAPES:
                marginals = random_marginals(cp, sizes, rng)
                fresh = rng.sample(range(1, 2 ** math.prod(sizes)), self.QUERIES - self.REPEATS)
                repeat_at = set(rng.sample(range(1, self.QUERIES), self.REPEATS))
                stream = []
                for q in range(self.QUERIES):
                    if q in repeat_at:
                        stream.append((rng.choice(stream)[0], True))
                    else:
                        stream.append((fresh.pop(), False))
                round_inputs.append((sizes, marginals, stream))
            self.inputs.append(round_inputs)

    def round(self, r: int) -> list[Op]:
        cp = self.cp
        ops = []
        cycle_round = r % self.INPUT_ROUNDS
        for set_id, (sizes, marginals, stream) in enumerate(self.inputs[cycle_round]):
            space = cp.ProductSpace(sizes)
            cs = cp.CorrelationSet(space, marginals)
            for q, (mask, repeat) in enumerate(stream):
                ops.append(Op(
                    lambda cs=cs, space=space, mask=mask:
                        cp.capacity_value(cs, cp.event_from_mask(space, mask)),
                    ((r, set_id), sizes, marginals, mask, repeat),
                    (cycle_round, set_id, q),
                ))
        return ops

    def check_after(self, keys, outputs, oracle) -> list[int]:
        """Cold values equal the minimum of p(E) over the oracle's vertices;
        repeats equal the first answer."""
        failed = []
        first: dict[tuple, Fraction] = {}
        for i, ((set_key, sizes, marginals, mask, repeat), value) in enumerate(zip(keys, outputs)):
            if repeat:
                ok = value == first[set_key, mask]
            else:
                first[set_key, mask] = value
                vertices = oracle(sizes, [m.weights for m in marginals])
                expected = min(
                    sum((w for k, w in enumerate(v) if mask >> k & 1), Fraction(0))
                    for v in vertices
                )
                ok = value == expected
            if not ok:
                failed.append(i)
        return failed


class MiCertificate(Workload):
    """Op: one `certify_local_max_mi(cs, p, probes=8, seed=7)`.

    A pass certifies every vertex, the independent product and one
    midpoint of two vertices of `SETS[shape]` seeded sets per shape.  The
    larger shapes get more sets, because their vertex counts vary most
    from set to set.  Vertex enumeration happens in set-up.
    """

    name = "mi-certificate"
    SETS = {(2, 2): 8, (2, 3): 6, (3, 3): 4, (2, 2, 2): 4, (2, 4): 4, (3, 4): 6}
    PROBES = 8
    CERT_SEED = 7

    def setup(self, cp, seed: int) -> None:
        self.cp = cp
        rng = random.Random(seed)
        self.items = []
        for sizes, n_sets in self.SETS.items():
            for _ in range(n_sets):
                cs = cp.CorrelationSet(cp.ProductSpace(sizes), random_marginals(cp, sizes, rng))
                vertices = cs.vertices()
                interior = cp.dimension(cs) >= 1
                a, b = rng.sample(range(len(vertices)), 2)
                self.items += [(cs, v, True) for v in vertices]
                self.items.append((cs, cs.independent_product, not interior))
                midpoint = cp.mix(vertices[a], vertices[b], Fraction(1, 2))
                self.items.append((cs, midpoint, not interior))

    def round(self, r: int) -> list[Op]:
        certify = self.cp.certify_local_max_mi
        return [
            Op(lambda cs=cs, p=p: certify(cs, p, probes=self.PROBES, seed=self.CERT_SEED),
               expected, i)
            for i, (cs, p, expected) in enumerate(self.items)
        ]

    def check_inline(self, key, output) -> bool:
        """Vertices certify; the product and the midpoint do not, unless
        the set is a single point."""
        return output.is_local_max is key


def scenario_commands() -> list[list[str]]:
    """The fixed `scenario-cli` command list, paths relative to the repo root.

    It covers all nine subcommands on the four shipped scenarios, with
    negative verdicts (exit 2) and malformed requests (exit 1).
    """
    c, f, i, n = (
        f"scenarios/{s}.scn" for s in ("climate", "finance", "insurance", "insurance_neglect")
    )
    return [
        ["dim", c],
        ["dim", f, "--collection", "{1},{2}", "--collection", "{1},{3}"],
        ["dim", i, "--format", "csv"],
        ["vertices", c],
        ["vertices", f, "--format", "csv"],
        ["vertices", i, "--format", "prior"],
        ["vertices", n],
        ["capacity", c, "--event", "catastrophe"],
        ["capacity", c, "--event", "climate_sensitivity=Hcs", "--format", "csv"],
        ["capacity", f, "--event", "both_high"],
        ["capacity", i, "--event", "double_damage"],
        ["mi", c, "--vertex", "0", "--probes", "16"],
        ["mi", c, "--weights", "1/12 1/4 1/6 1/2"],
        ["mi", f, "--at", "1/4"],
        ["mi", i, "--at", "10"],
        ["independence", f, "--collection", "{1},{2}", "--at", "1/6"],
        ["independence", f, "--collection", "{1},{2}", "--at", "1/4"],
        ["independence", f, "--collection", "{1,2},{3}", "--at", "1/12"],
        ["evaluate", c, "--format", "csv"],
        ["evaluate", f, "--at", "1/4"],
        ["evaluate", i, "--at", "20"],
        ["evaluate", n, "--at", "75/4", "--format", "csv"],
        ["check-axiom", c, "--axiom", "subspace-consistency"],
        ["check-axiom", f, "--axiom", "subspace-independence", "--at", "1/6", "--trials", "200"],
        ["check-axiom", f, "--axiom", "subspace-independence", "--at", "1/4", "--trials", "0"],
        # 2000 trials, not the default 10 000 (2.3 s), so that a round stays short
        ["check-axiom", n, "--axiom", "subspace-independence", "--at", "20", "--trials", "2000"],
        ["check-axiom", f, "--axiom", "collection-independence", "--collection", "{1,2},{3}",
         "--at", "1/4"],
        ["check-axiom", f, "--axiom", "collection-independence", "--collection", "{1},{2}",
         "--at", "1/4"],
        ["compare", i, n, "--at", "0", "--at-second", "0", "--family", "1:[B];2:[F]",
         "--format", "csv"],
        ["compare", i, n, "--at", "0", "--at-second", "0"],
        ["sweep", f],
        ["sweep", i],
        ["sweep", n],
        ["capacity", c, "--event", "nonsense=Hcs"],
        ["evaluate", f],
        # more finance (2,2,2) commands, so that the p90 falls inside a
        # plateau of like latencies rather than between two far-apart ones
        ["mi", f, "--at", "1/12"],
        ["mi", f, "--at", "1/6", "--format", "csv"],
        ["mi", n, "--at", "20"],
        ["capacity", f, "--event", "inflation=H_infl"],
        ["capacity", f, "--event", "[H_infl,H_unc,G]|[L_infl,L_unc,NG]"],
        ["evaluate", f, "--at", "1/12"],
        ["evaluate", f, "--at", "0", "--format", "csv"],
        ["evaluate", n, "--at", "10"],
        ["vertices", f],
        ["dim", f],
        ["independence", f, "--collection", "{1},{3}", "--at", "1/4"],
        ["check-axiom", f, "--axiom", "subspace-consistency", "--at", "1/4"],
        ["check-axiom", i, "--axiom", "collection-independence", "--collection", "{1},{2}",
         "--at", "10"],
        ["compare", f, f, "--at", "1/4", "--at-second", "1/6"],
        ["sweep", f, "--param", "a"],
    ]


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process `corrpoly.cli.main(argv)`: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class ScenarioCli(Workload):
    """Op: one in-process `corrpoly.cli.main(argv)`, stdout and stderr captured.

    A round runs the whole command list in a seeded order; stdout bytes
    and exit code must equal the stored golden outputs.
    """

    name = "scenario-cli"
    ORDERS = 16

    def setup(self, cp, seed: int) -> None:
        self.cp = cp
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.golden = {tuple(g["argv"]): (g["exit"], g["stdout"]) for g in golden}
        commands = scenario_commands()
        missing = [c for c in commands if tuple(c) not in self.golden]
        if missing:
            raise RuntimeError(f"no golden output for {missing}")
        rng = random.Random(seed)
        self.orders = [rng.sample(commands, len(commands)) for _ in range(self.ORDERS)]

    def round(self, r: int) -> list[Op]:
        cli = self.cp.cli
        return [
            Op(lambda argv=argv: run_cli(cli, argv), tuple(argv), tuple(argv))
            for argv in self.orders[r % len(self.orders)]
        ]

    def check_inline(self, key, output) -> bool:
        return output == self.golden[key]


WORKLOADS = {w.name: w for w in (VertexLadder, CapacityStream, MiCertificate, ScenarioCli)}
