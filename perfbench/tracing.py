"""Spans recorded around calls into the package's public functions.

Tracing lives entirely in the benchmark: :class:`Recorder` replaces a
function or method with a wrapper that records one span (name, start,
end, parent span, request id) per call and then calls the original.
Spans are kept in flat arrays and written out once, when the traced
process ends.  ``gc`` pauses are recorded the same way through
``gc.callbacks``, as children of whatever span was running.
"""

from __future__ import annotations

import gc
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import stats


class Recorder:
    """In-memory span log plus named counters and gauges."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        self.request_id = -1
        self.values: Dict[str, float] = {}
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._gc_callback: Optional[Callable] = None

    # -- spans ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def cancel(self, index: int) -> None:
        """Drop the most recent span, which must have no children."""
        self._stack.pop()
        if index != len(self.start) - 1:
            raise RuntimeError("only the most recent span can be dropped")
        for column in (self.name, self.start, self.end, self.parent,
                       self.request):
            column.pop()

    def patch(self, owner: Any, attr: str, replacement: Any) -> Any:
        """Set ``owner.attr`` until :meth:`unwrap`; returns the value it
        replaces.

        :meth:`unwrap` puts back the owner's own entry, or removes the
        patch when the owner had inherited the attribute, so wrapping an
        inherited method leaves the base class untouched.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner}.{attr}")
        self._restore.append((owner, attr, own))
        setattr(owner, attr, replacement)
        return original

    def wrap(self, owner: Any, attr: str, name: str,
             new_request: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            if new_request:
                self.request_id += 1
            index = begin(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                finish(index)

        self.patch(owner, attr, wrapper)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Time a generator function one item at a time.

        Each span covers producing one item; the consumer's work between
        items is outside it, and so is the final call that finds the
        generator exhausted.
        """
        original = getattr(owner, attr)
        name_id = self.name_id(name)

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                index = self.begin(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.cancel(index)
                    return
                self.finish(index)
                yield item

        self.patch(owner, attr, wrapper)

    def watch_gc(self) -> None:
        gc_id = self.name_id("gc")
        self.values.setdefault("gc.gen2_collections", 0)
        open_spans: List[int] = []

        def callback(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                if info.get("generation") == 2:
                    self.values["gc.gen2_collections"] += 1
                open_spans.append(self.begin(gc_id))
            elif open_spans:
                self.finish(open_spans.pop())

        gc.callbacks.append(callback)
        self._gc_callback = callback

    def unwrap(self) -> None:
        """Undo every patch and stop watching ``gc``."""
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        if self._gc_callback is not None:
            gc.callbacks.remove(self._gc_callback)
            self._gc_callback = None

    # -- persistence ---------------------------------------------------
    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name", "start", "end", "parent", "request"):
            with open(directory / f"{field}.bin", "wb") as handle:
                getattr(self, field).tofile(handle)
        (directory / "meta.json").write_text(
            json.dumps({"names": self.names, "values": self.values})
        )


class Spans:
    """A loaded span log with per-span self times."""

    def __init__(self, names: List[str], name, start, end, parent,
                 values: Dict[str, float]) -> None:
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.values = values
        self.self_time = stats.self_times(start, end, parent)

    @classmethod
    def from_recorder(cls, recorder: Recorder) -> "Spans":
        return cls(recorder.names, recorder.name, recorder.start,
                   recorder.end, recorder.parent, dict(recorder.values))

    @classmethod
    def load(cls, directory: Path) -> "Spans":
        meta = json.loads((directory / "meta.json").read_text())
        columns = {}
        for field, code in (("name", "i"), ("start", "d"), ("end", "d"),
                            ("parent", "i")):
            column = array(code)
            data = (directory / f"{field}.bin").read_bytes()
            column.frombytes(data)
            columns[field] = column
        return cls(meta["names"], columns["name"], columns["start"],
                   columns["end"], columns["parent"], meta["values"])

    def inside(self, lo: float, hi: float) -> List[bool]:
        """Which spans belong to a top-level span lying within [lo, hi]."""
        keep: List[bool] = []
        for start, end, parent in zip(self.start, self.end, self.parent):
            keep.append(lo <= start and end <= hi if parent < 0
                        else keep[parent])
        return keep

    def totals(
        self, keep: Optional[List[bool]] = None
    ) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, max duration seconds),
        over the spans ``keep`` selects (all by default)."""
        result: Dict[str, List[float]] = {}
        for index, (name_id, start, end, own) in enumerate(zip(
                self.name, self.start, self.end, self.self_time)):
            if keep is not None and not keep[index]:
                continue
            entry = result.setdefault(self.names[name_id], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += own
            if end - start > entry[2]:
                entry[2] = end - start
        return {k: (int(v[0]), v[1], v[2]) for k, v in result.items()}


def capture_instances(recorder: Recorder, cls: type, store: List[Any]) -> None:
    """Remember every instance of ``cls`` built while tracing."""
    original: Callable = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        store.append(self)

    recorder.patch(cls, "__init__", init)
