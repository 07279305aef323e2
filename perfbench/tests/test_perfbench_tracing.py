import pytest

import stodep
from stodep import cli, dp, properties
from pb.tracing import Instrumentation, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.begin("outer")              # t = 0
    clock.now = 1.0
    a = tracer.begin("a")
    clock.now = 4.0
    tracer.end(a)                               # a: 3 s
    clock.now = 5.0
    b = tracer.begin("b")
    clock.now = 6.0
    inner = tracer.begin("inner", record=False)
    clock.now = 7.5
    tracer.end(inner)                           # inner: 1.5 s, aggregated only
    clock.now = 9.0
    tracer.end(b)                               # b: 4 s, 2.5 s of it its own
    clock.now = 10.0
    tracer.end(outer)                           # outer: 10 s, 3 s of it its own
    assert tracer.busy["outer"] == 10.0
    assert tracer.self_time["outer"] == 10.0 - 3.0 - 4.0
    assert tracer.self_time["b"] == 4.0 - 1.5
    assert tracer.self_time["inner"] == 1.5
    # Only recorded spans are kept, and each names its recorded parent.
    spans = {name: (sid, parent) for sid, name, _, _, parent, _ in tracer.spans}
    assert set(spans) == {"outer", "a", "b"}
    assert spans["a"][1] == spans["outer"][0]
    assert spans["b"][1] == spans["outer"][0]
    assert spans["outer"][1] is None


def test_reentrant_span_counts_busy_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    first = tracer.begin("f")
    clock.now = 1.0
    second = tracer.begin("f")
    clock.now = 3.0
    tracer.end(second)
    clock.now = 4.0
    tracer.end(first)
    assert tracer.calls["f"] == 2
    assert tracer.busy["f"] == 4.0
    assert tracer.self_time["f"] == 4.0  # 2 s in the inner call, 2 s outside it


def test_op_labels_rows_by_row_span():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.op("batch:x", row_span="build"):
        for _ in range(2):
            tracer.end(tracer.begin("build"))
            tracer.end(tracer.begin("solve"))
    labels = [(name, op) for _, name, _, _, _, op in tracer.spans]
    assert labels == [
        ("build", "batch:x/row1"), ("solve", "batch:x/row1"),
        ("build", "batch:x/row2"), ("solve", "batch:x/row2"),
    ]


def test_out_of_order_close_is_an_error():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_instrumentation_wraps_every_namespace_and_restores_them():
    original = dp.solve_clairvoyant
    tracer = Tracer()
    with Instrumentation(tracer):
        for namespace in (stodep, cli, dp, properties):
            assert namespace.solve_clairvoyant is not original
        instance = stodep.apps.random_linear_decaying_instance(3)
        table = properties.solve_clairvoyant(instance)
        properties.check_vfm(instance, table)
    for namespace in (stodep, cli, dp, properties):
        assert namespace.solve_clairvoyant is original
    assert tracer.calls["dp.solve"] == 1
    assert tracer.calls["properties.vfm"] == 1
    # solve binds its table to the instance, check_vfm verifies it: two fingerprints.
    assert tracer.calls["serialize.fingerprint"] == 2
    assert tracer.counts["dp.solve.entries"] == table.values.size
