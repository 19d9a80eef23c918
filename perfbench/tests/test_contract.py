"""workloads.json explains every metric BENCHMARK.json names."""

import json

from common import END_TO_END, PER_LAYER, ROOT


def test_workload_notes_cover_every_metric():
    notes = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert set(notes["per_layer_moves"]) == set(PER_LAYER)
    assert set(END_TO_END) <= set(notes["end_to_end_names"])
