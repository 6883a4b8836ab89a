"""The tracer's self times, and that tracing leaves results unchanged."""
import numpy as np
import pytest

import layers
import workloads
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    # root(10) -> a(1 + b(2) + 3) and c(4); b is a leaf, c calls a leaf d(0.5)
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    b = tracer.wrap("t.b", leaf)
    d = tracer.wrap("t.d", leaf)

    def a_body():
        clock.advance(1.0)
        b(2.0)
        clock.advance(3.0)

    def c_body():
        d(0.5)
        clock.advance(4.0)

    a = tracer.wrap("t.a", a_body)
    c = tracer.wrap("t.c", c_body)

    def root_body():
        a()
        clock.advance(10.0)
        c()

    tracer.op = 7
    tracer.wrap("t.root", root_body)()
    summary = tracer.table().summary()
    assert summary["t.root"] == {"calls": 1, "total_s": 20.5, "self_s": 10.0}
    assert summary["t.a"] == {"calls": 1, "total_s": 6.0, "self_s": 4.0}
    assert summary["t.b"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert summary["t.c"] == {"calls": 1, "total_s": 4.5, "self_s": 4.0}
    assert summary["t.d"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}
    table = tracer.table()
    assert set(table.op.tolist()) == {7}
    names = [table.names[i] for i in table.name]
    under_a = table.under("t.a")
    assert [n for n, u in zip(names, under_a) if u] == ["t.b"]
    assert sorted(n for n, u in zip(names, table.under("t.root")) if u) == ["t.a", "t.b", "t.c", "t.d"]


def test_wrapper_passes_results_and_exceptions_through():
    tracer = Tracer()
    value = np.arange(3.0)
    assert tracer.wrap("t.f", lambda x: x)(value) is value

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("t.boom", boom)()
    summary = tracer.table().summary()
    assert summary["t.f"]["calls"] == 1 and summary["t.boom"]["calls"] == 1
    assert not tracer._stack


def test_patch_and_restore_every_binding():
    from lorentzbilliards import billiard, metric

    original = metric.as_vector
    tracer = Tracer()
    tracer.patch_everywhere(original, "metric.as_vector", ("lorentzbilliards",))
    assert metric.as_vector is not original and billiard.as_vector is metric.as_vector
    tracer.restore()
    assert metric.as_vector is original and billiard.as_vector is original


@pytest.mark.parametrize("phase", ["quadric", "implicit", "circle", "points", "lines", "levels", "geodesic"])
def test_traced_and_untraced_ops_give_identical_outputs(phase):
    geo = workloads.build_geometry(5)
    rng = np.random.default_rng([5, workloads.PHASES.index(phase)])
    rounds = workloads.BUILDERS[phase](rng, geo, 2, False)
    ops = [op for r in rounds for op in r]
    plain = [op() for op in ops]
    tracer = Tracer()
    originals = layers.install(tracer, geo)
    try:
        traced = [op() for op in ops]
    finally:
        layers.uninstall(tracer, geo, originals)
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert [o.counts for o in plain] == [o.counts for o in traced]
    assert tracer.table().summary(), "the traced pass recorded no spans"
