"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-known --seed 1 --trace 0

Workloads: ``serve-known``, ``adoption-scan`` and ``internet-wave``,
listed in ``BENCHMARK.json``, and ``serve-fresh``, which is not listed
there (see ``perfbench/workloads.json``); ``--workload all`` runs the
four in turn.  With ``--trace 0`` the last stdout line is a JSON object
carrying the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run, and the ledger is printed
above it.  Every run checks the program's outputs; the exit status is
non-zero when a check fails.  Metric names and units are listed in ``BENCHMARK.json``;
``perfbench/workloads.json`` records each workload's seed use, offered
rate and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import ALL_WORKLOADS, END_TO_END, PER_LAYER, RUN_DIR, SRC


def _check_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        sys.exit(2)


def _result_line(outcome: dict, trace: bool) -> str:
    expected = PER_LAYER if trace else END_TO_END
    units = {name: unit for name, (_, unit) in outcome["metrics"].items()}
    if units != expected:
        raise RuntimeError(f"metrics {units} differ from BENCHMARK.json")
    return json.dumps(
        {
            "correct": outcome["correct"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome["metrics"].items()
            },
        }
    )


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if workload.startswith("serve-"):
        import serve_run

        return serve_run.run(workload, seed, seconds, trace)
    import engine_run

    return engine_run.run(workload, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    _check_program()
    sys.path.insert(0, str(SRC))

    names = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        RUN_DIR.mkdir()
        try:
            outcome = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BaseException:
            # The run directory goes away below; keep the children's stderr.
            for log in sorted(RUN_DIR.glob("*.log")):
                sys.stderr.write(f"--- {log.name} (last 4 KiB)\n")
                sys.stderr.write(log.read_bytes()[-4096:].decode(
                    errors="replace"))
            raise
        finally:
            shutil.rmtree(RUN_DIR, ignore_errors=True)
        for problem in outcome["problems"]:
            print(f"[{name}] CHECK FAILED: {problem}")
        if not outcome["correct"]:
            status = 1
        print(_result_line(outcome, bool(args.trace)), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
