"""Tests of the benchmark itself, at a small size.

    python3 -m pytest perfbench -q

The traced run must see exactly the outputs of the untraced run, the
seeded generator must repeat itself, and the metric names must match
`BENCHMARK.json`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from run import ROOT, import_corrpoly, run
from tracer import Tracer, per_layer_units
from workloads import WORKLOADS, run_cli

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_ops(name: str, cp, seed: int = 3):
    """A few ops of each kind of the workload, built on `cp`."""
    workload = WORKLOADS[name]()
    workload.setup(cp, seed)
    ops = workload.round(0)
    if name == "vertex-ladder":
        ops = [op for op in ops if op.key[0] in ((2, 2), (2, 3), (3, 3), (2, 2, 2))][::3]
    elif name == "capacity-stream":
        ops = [op for op in ops if op.key[1] in ((2, 2, 2), (2, 4))]
    elif name == "mi-certificate":
        ops = ops[:12] + ops[-6:]
    return workload, ops


def comparable(name: str, output):
    """The part of an op's output that tracing must not change."""
    if name == "vertex-ladder":
        return [v.weights for v in output[1]]
    if name == "mi-certificate":
        return output.is_local_max, output.value, output.probe_count
    return output


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    cp = import_corrpoly()
    workload, ops = small_ops(name, cp)
    outputs = [op.run() for op in ops]
    assert all(workload.check_inline(op.key, out) for op, out in zip(ops, outputs))
    plain = [comparable(name, out) for out in outputs]

    cp = import_corrpoly()
    tracer = Tracer()
    tracer.install(cp)
    try:
        workload, ops = small_ops(name, cp)
        traced = []
        for op in ops:
            tracer.begin_op()
            traced.append(comparable(name, op.run()))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert set(range(len(ops))) <= set(tracer.op)


def test_uninstall_restores_every_binding():
    cp = import_corrpoly()
    modules = [cp] + [sys.modules[m] for m in sorted(sys.modules) if m.startswith("corrpoly.")]
    before = [dict(vars(m)) for m in modules]
    methods = dict(vars(cp.CorrelationSet))
    tracer = Tracer()
    tracer.install(cp)
    assert cp.polytope.mix is cp.info.mix is cp.mix
    assert cp.polytope.mix.__wrapped__ is before[0]["mix"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert dict(vars(cp.CorrelationSet)) == methods


def test_wrapping_counts_calls_made_inside_the_package():
    cp = import_corrpoly()
    tracer = Tracer()
    tracer.install(cp)
    try:
        tracer.begin_op()
        run_cli(cp.cli, ["mi", "scenarios/climate.scn", "--vertex", "0", "--probes", "4"])
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer_metrics(ops_per_s=1.0)
    assert metrics["polytope.mix.calls"] > 0  # called as info.mix
    assert metrics["polytope.contains.calls"] == metrics["info.mutual_information.calls"]
    assert metrics["info.mi_evals_per_probe"] > 1
    assert metrics["cli.main.self_s"] > 0


def test_per_layer_figures_cover_only_the_first_ops():
    cp = import_corrpoly()
    tracer = Tracer()
    tracer.install(cp)
    try:
        bad = ["capacity", "scenarios/climate.scn", "--event", "nonsense=Hcs"]
        for argv in (["dim", "scenarios/climate.scn"], bad) * 2:
            tracer.begin_op()
            run_cli(cp.cli, argv)
    finally:
        tracer.uninstall()
    first = tracer.per_layer_metrics(ops_per_s=1.0, ops=1)
    assert first["linalg.rank.calls"] > 0
    assert first["cli.errors"] == 0
    assert tracer.per_layer_metrics(ops_per_s=1.0, ops=2)["cli.errors"] == 1
    everything = tracer.per_layer_metrics(ops_per_s=1.0)
    assert everything["linalg.rank.calls"] == 2 * first["linalg.rank.calls"]
    assert everything["cli.errors"] == 2
    assert everything["trace.spans"] == len(tracer.start)


def test_errors_are_counted_once_per_layer():
    cp = import_corrpoly()
    tracer = Tracer()
    tracer.install(cp)
    try:
        tracer.begin_op()
        code, _ = run_cli(cp.cli, ["capacity", "scenarios/climate.scn", "--event", "nonsense=Hcs"])
    finally:
        tracer.uninstall()
    assert code == 1
    metrics = tracer.per_layer_metrics(ops_per_s=1.0)
    assert metrics["scenario.errors"] == 1
    assert metrics["cli.errors"] == 1
    assert metrics["polytope.errors"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_repeats_for_a_seed(name):
    def keys(seed):
        workload = WORKLOADS[name]()
        workload.setup(import_corrpoly(), seed)
        return [repr(op.key) for op in workload.round(0)]

    assert keys(5) == keys(5)
    if name != "scenario-cli":
        assert keys(5) != keys(6)


def test_metric_names_match_benchmark_json():
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(per_layer_units())
    for m in BENCHMARK["per_layer"]:
        assert (m["unit"], m["better"]) == per_layer_units()[m["name"]]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_run_reports_every_end_to_end_metric(monkeypatch):
    import run as run_module
    import workloads

    monkeypatch.setattr(run_module, "MIN_OPS", 1)
    monkeypatch.setattr(workloads.CapacityStream, "SHAPES", ((2, 2, 2),))
    monkeypatch.setattr(workloads.CapacityStream, "INPUT_ROUNDS", 1)
    result, lines = run("capacity-stream", seed=2, seconds=0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.CapacityStream.QUERIES * run_module.MIN_REPEATS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    command = BENCHMARK["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "vertex-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_check_is_reported(monkeypatch):
    import run as run_module
    import workloads

    monkeypatch.setattr(run_module, "MIN_OPS", 1)
    monkeypatch.setattr(workloads.CapacityStream, "SHAPES", ((2, 4),))
    monkeypatch.setattr(workloads.CapacityStream, "INPUT_ROUNDS", 1)
    original = workloads.CapacityStream.round

    def wrong_values(self, r):
        ops = original(self, r)
        for op in ops[:3]:
            op.run = lambda: Fraction(-1)
        return ops

    monkeypatch.setattr(workloads.CapacityStream, "round", wrong_values)
    result, lines = run("capacity-stream", seed=2, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
