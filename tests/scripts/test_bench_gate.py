"""The smoke-bench regression gate (scripts/check_bench_regression.py).

The gate is stdlib-only and runs as a subprocess here, exactly as CI
invokes it.  Two families of checks:

* timing ratios, normalized by the median ratio so a uniformly slower
  runner cancels out;
* throughput floors from ``extra_info`` (decisions/domains/lookups per
  second) — a rate can erode while a fixed-duration timed section keeps
  its median, and deleting the floor key must itself be a failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = str(
    Path(__file__).resolve().parents[2] / "scripts" / "check_bench_regression.py"
)


def snapshot(path, benches):
    """Write a minimal pytest-benchmark JSON snapshot.

    ``benches`` maps fullname -> (min_seconds, extra_info dict).
    """
    payload = {
        "benchmarks": [
            {
                "fullname": name,
                "stats": {"min": seconds},
                "extra_info": extra,
            }
            for name, (seconds, extra) in benches.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


def run_gate(baseline, current, env=None):
    full_env = dict(os.environ)
    full_env.pop("ALLOW_BENCH_REGRESSION", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, SCRIPT, baseline, current],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=60,
    )


# A baseline of three benches; the median ratio needs >= 2 healthy ones
# to absorb a single regression.
BASE = {
    "a.py::test_a": (0.100, {}),
    "b.py::test_b": (0.200, {}),
    "c.py::test_serve": (1.000, {"decisions_per_sec": 20_000}),
}


class TestTimingGate:
    def test_identical_snapshots_pass(self, tmp_path):
        baseline = snapshot(tmp_path / "base.json", BASE)
        current = snapshot(tmp_path / "cur.json", BASE)
        result = run_gate(baseline, current)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_single_bench_regression_fails(self, tmp_path):
        slow = dict(BASE)
        slow["b.py::test_b"] = (0.200 * 2.0, {})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", slow),
        )
        assert result.returncode == 1
        assert "b.py::test_b" in result.stderr

    def test_uniform_slowdown_cancels_out(self, tmp_path):
        # A 3x slower machine shifts every ratio equally; the median
        # normalization must keep the gate green.
        slower = {
            name: (seconds * 3.0, extra)
            for name, (seconds, extra) in BASE.items()
        }
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", slower),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_new_bench_is_skipped_with_notice(self, tmp_path):
        grown = dict(BASE)
        grown["d.py::test_new"] = (0.5, {})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", grown),
        )
        assert result.returncode == 0
        assert "no reference time" in result.stdout

    def test_missing_bench_is_reported_but_passes(self, tmp_path):
        # A baseline bench absent from the current snapshot (skipped on a
        # small runner, or removed) is named, not failed.  Its throughput
        # floor goes with it.
        shrunk = dict(BASE)
        del shrunk["c.py::test_serve"]
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", shrunk),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "c.py::test_serve: in baseline" in result.stdout
        assert "not run" in result.stdout
        assert "REGRESSION" not in result.stdout

    def test_allow_override_reports_but_passes(self, tmp_path):
        slow = dict(BASE)
        slow["b.py::test_b"] = (0.200 * 2.0, {})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", slow),
            env={"ALLOW_BENCH_REGRESSION": "1"},
        )
        assert result.returncode == 0
        assert "FAIL" in result.stderr


class TestThroughputFloors:
    def test_eroded_rate_fails_despite_stable_timing(self, tmp_path):
        # The scenario the floors exist for: a fixed-duration timed
        # section keeps its min forever while the reported rate halves.
        eroded = dict(BASE)
        eroded["c.py::test_serve"] = (1.000, {"decisions_per_sec": 10_000})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", eroded),
        )
        assert result.returncode == 1
        assert "c.py::test_serve[decisions_per_sec]" in result.stderr

    def test_dropped_floor_key_fails(self, tmp_path):
        dropped = dict(BASE)
        dropped["c.py::test_serve"] = (1.000, {})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", dropped),
        )
        assert result.returncode == 1
        assert "dropped" in result.stdout

    def test_rate_within_margin_passes(self, tmp_path):
        wobble = dict(BASE)
        wobble["c.py::test_serve"] = (1.000, {"decisions_per_sec": 17_000})
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", wobble),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_uniformly_slower_machine_scales_floors_too(self, tmp_path):
        # 3x slower machine: every timing 3x, every rate 1/3.  The
        # machine-speed scale must rescue the floor comparison exactly
        # as it rescues the timing one.
        slower = {
            name: (
                seconds * 3.0,
                {key: value / 3.0 for key, value in extra.items()},
            )
            for name, (seconds, extra) in BASE.items()
        }
        result = run_gate(
            snapshot(tmp_path / "base.json", BASE),
            snapshot(tmp_path / "cur.json", slower),
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_non_floor_extra_info_is_ignored(self, tmp_path):
        # p99_ms, connections, workers... ride along in extra_info and
        # must not be treated as floors.
        noisy = dict(BASE)
        noisy["c.py::test_serve"] = (
            1.000,
            {"decisions_per_sec": 20_000, "p99_ms": 99_999.0},
        )
        result = run_gate(
            snapshot(tmp_path / "base.json", noisy),
            snapshot(tmp_path / "cur.json", BASE),
        )
        assert result.returncode == 0, result.stdout + result.stderr
