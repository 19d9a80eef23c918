"""The span recorder the traced runs are built on."""

import types

import tracing


def _module():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    def numbers(n):
        yield from range(n)

    module.inner, module.outer, module.numbers = inner, outer, numbers
    return module


def test_nested_calls_become_parent_and_child_spans():
    module = _module()
    recorder = tracing.Recorder()
    recorder.wrap(module, "inner", "inner")
    recorder.wrap(module, "outer", "outer", new_request=True)
    assert module.outer(1) == 4
    assert module.outer(2) == 6
    spans = tracing.Spans.from_recorder(recorder)
    names = [spans.names[i] for i in spans.name]
    assert names == ["outer", "inner", "outer", "inner"]
    assert list(spans.parent) == [-1, 0, -1, 2]
    assert list(recorder.request) == [0, 0, 1, 1]
    totals = spans.totals()
    assert totals["outer"][0] == totals["inner"][0] == 2
    # self times add up to the outer spans' durations
    outer_total = sum(spans.end[i] - spans.start[i] for i in (0, 2))
    assert abs(totals["outer"][1] + totals["inner"][1] - outer_total) < 1e-9


def test_generator_spans_count_items_not_the_exhausting_call():
    module = _module()
    recorder = tracing.Recorder()
    recorder.wrap_generator(module, "numbers", "item")
    assert list(module.numbers(3)) == [0, 1, 2]
    assert tracing.Spans.from_recorder(recorder).totals()["item"][0] == 3


def test_unwrap_restores_the_originals():
    module = _module()
    original = module.inner
    recorder = tracing.Recorder()
    recorder.wrap(module, "inner", "inner")
    recorder.watch_gc()
    recorder.unwrap()
    assert module.inner is original
    assert recorder._gc_callback is None


def test_inherited_methods_are_wrapped_on_the_subclass_only():
    class Base:
        def get(self):
            return 1

    class Child(Base):
        pass

    recorder = tracing.Recorder()
    recorder.wrap(Child, "get", "get")
    assert Child().get() == Base().get() == 1
    assert len(recorder.start) == 1
    recorder.unwrap()
    assert "get" not in vars(Child)


def test_spans_survive_a_dump_and_load(tmp_path):
    module = _module()
    recorder = tracing.Recorder()
    recorder.wrap(module, "outer", "outer")
    recorder.wrap(module, "inner", "inner")
    module.outer(1)
    recorder.values["x"] = 3
    recorder.dump(tmp_path)
    loaded = tracing.Spans.load(tmp_path)
    assert loaded.totals() == tracing.Spans.from_recorder(recorder).totals()
    assert loaded.values == {"x": 3}
    window = loaded.inside(loaded.start[0], loaded.end[0])
    assert window == [True, True]
    assert loaded.inside(0.0, loaded.start[0]) == [False, False]
