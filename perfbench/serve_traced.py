"""Traced policy daemon: wrap the serving layers, then run ``repro serve``.

Usage: ``serve_traced.py SPAN_DIR <repro CLI arguments>``.  The wrappers
are installed before the CLI builds its plugin chain, so every call into
the layers below is recorded; the span log and the counters are written
to ``SPAN_DIR`` after the daemon has drained and printed its exit line.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, List

import tracing


def install(recorder: tracing.Recorder, seen: dict) -> None:
    from repro.greylist import backends, keying, policy, shm, store
    from repro.serve import plugins, protocol, server

    recorder.wrap(protocol.StanzaParser, "feed", "protocol.feed")
    recorder.wrap(server, "format_response", "protocol.render")
    recorder.wrap(plugins.PluginChain, "decide", "plugins.decide",
                  new_request=True)
    recorder.wrap(policy.GreylistPolicy, "on_rcpt_to", "policy.rcpt")
    recorder.wrap(keying, "Triplet", "policy.triplet")
    recorder.wrap(store.TripletStore, "observe", "store.observe")
    recorder.wrap(store.TripletStore, "mark_passed", "store.mark_passed")
    for cls in (backends.TripletBackend, shm.SharedMemoryBackend):
        recorder.wrap(cls, "record_attempt", "backend.record_attempt")
    for cls in (backends.MemoryBackend, shm.SharedMemoryBackend):
        recorder.wrap(cls, "get", "backend.get")
    recorder.watch_gc()
    for key, cls in (("policies", policy.GreylistPolicy),
                     ("caches", plugins.DecisionCache),
                     ("shm", shm.SharedMemoryBackend)):
        tracing.capture_instances(recorder, cls, seen[key])

    # The shm gauges live in the segment, which closes with the chain.
    def close_and_count(self) -> None:
        for table in seen["shm"]:
            recorder.values["shm.spills"] = table.spill_count
            recorder.values["shm.tombstones"] = table.tombstone_count
        close(self)

    close = recorder.patch(plugins.PluginChain, "close", close_and_count)


def main(argv: List[str]) -> int:
    span_dir = Path(argv[0])
    recorder = tracing.Recorder()
    seen: dict = {"policies": [], "caches": [], "shm": []}
    install(recorder, seen)
    from repro.cli import main as cli_main

    status = cli_main(argv[1:])
    values = recorder.values
    values["decisions"] = recorder.request_id + 1
    values["policy.events"] = sum(len(p.events) for p in seen["policies"])
    caches: List[Any] = seen["caches"]
    values["plugins.cache_hits"] = sum(c.hits for c in caches)
    values["plugins.cache_misses"] = sum(c.misses for c in caches)
    recorder.dump(span_dir)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
