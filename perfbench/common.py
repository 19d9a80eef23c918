"""Paths and the environment shared by the benchmark's processes."""

from __future__ import annotations

import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working files of one run (span dumps, the shm lock file); emptied at
#: the start and removed at the end of every run.
RUN_DIR = ROOT / ".perfbench_run"

#: The metric contract: workload names, metric names and units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The workloads BENCHMARK.json lists.
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
#: Every workload the benchmark can run: the listed ones, then those
#: described in workloads.json but left out of BENCHMARK.json.
ALL_WORKLOADS = WORKLOADS + tuple(
    name for name in json.loads(
        (ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    if name not in WORKLOADS)
#: End-to-end metric -> unit; every workload reports all of them (see
#: workloads.json for what each means there).
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metric -> unit, reported by every traced run.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    own ``src`` on the path, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(RUN_DIR)
    return env


def say(workload: str, text: str) -> None:
    """One human-readable output line (the last line is the JSON result)."""
    print(f"[{workload}] {text}", flush=True)
