"""Write the golden outputs of the `scenario-cli` workload.

    python3 perfbench/make_golden.py

Runs every command of `workloads.scenario_commands()` once, in-process,
and stores its exit code and stdout in `golden/scenario_cli.json`.  The
golden file pins the library's user-facing output (exact rationals,
vertex order, CSV bytes, exit codes): regenerate it only for a change
that is meant to alter that output, never to make a benchmark run pass.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, import_corrpoly
from workloads import GOLDEN_PATH, run_cli, scenario_commands


def main() -> int:
    os.chdir(ROOT)
    cli = import_corrpoly().cli
    golden = []
    for argv in scenario_commands():
        code, stdout = run_cli(cli, argv)
        golden.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} commands to {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
