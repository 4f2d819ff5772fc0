import threading

import pytest

import layers
from tracer import Tracer, self_times


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children a [1, 4] and b [3, 6] that overlap (two
    # threads), and a grandchild c [2, 3] under a
    spans = [
        (1, 0, 0, 0.0, 10.0),
        (2, 1, 1, 1.0, 4.0),
        (3, 1, 1, 3.0, 6.0),
        (4, 2, 2, 2.0, 3.0),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(5.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_self_time_clips_children_to_parent():
    st = self_times([(1, 0, 0, 0.0, 2.0), (2, 1, 0, 1.0, 5.0)])
    assert st[1] == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_nested_wraps_record_parents_and_fold_same_layer():
    tr = Tracer(clock=FakeClock())
    inner = tr.wrap("inner", lambda x: x + 1)
    outer_fn = None

    def outer(x, depth=0):
        # re-entering the same layer folds into the open span
        return outer_fn(x, depth + 1) if depth == 0 else inner(x)

    outer_fn = tr.wrap("outer", outer)
    with tr.span("item"):
        assert outer_fn(1) == 2
    names = {sid: tr.names[nid] for sid, _, nid, _, _ in tr.spans}
    parents = {names[sid]: names.get(parent) for sid, parent, _, _, _ in tr.spans}
    assert sorted(names.values()) == ["inner", "item", "outer"]
    assert parents == {"inner": "outer", "outer": "item", "item": None}


def test_worker_thread_spans_hang_under_the_open_span():
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: None)
    with tr.span("pool"):
        t = threading.Thread(target=leaf)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    ids = {tr.names[nid]: sid for sid, _, nid, _, _ in tr.spans}
    parent_of_leaf = [p for sid, p, nid, _, _ in tr.spans if tr.names[nid] == "leaf"]
    assert parent_of_leaf == [ids["pool"]]


def test_observe_counts_are_kept_per_span():
    tr = Tracer()
    f = tr.wrap("f", lambda n: list(range(n)), observe=lambda a, k, r, e: {"len": len(r)})
    f(3)
    f(5)
    assert sorted(c["len"] for c in tr.counts.values()) == [3, 5]


def test_install_then_uninstall_leaves_no_wrappers():
    from anisolab import capacity, descent, young1d

    original = descent.minimize_projected
    original_log_value = young1d.PowerFn.__dict__["log_value"]
    tr = Tracer()
    layers.install(tr)
    try:
        assert capacity.minimize_projected is not original
        assert layers.leftovers()
    finally:
        tr.uninstall()
    assert layers.leftovers() == []
    assert capacity.minimize_projected is original
    assert descent.minimize_projected is original
    assert young1d.PowerFn.__dict__["log_value"] is original_log_value


def test_layer_metrics_from_traced_calls():
    from anisolab import aniso2d
    from anisolab.aniso2d import GridSpec2D, quadratic_fn

    tr = Tracer()
    layers.install(tr)
    try:
        # looked up at call time, so the installed wrapper is the one called
        aniso2d.conjugate2d(quadratic_fn(), GridSpec2D.square(4.0, 17),
                            primal_spec=GridSpec2D.square(1.0, 17))
    finally:
        tr.uninstall()
    m = layers.layer_metrics(tr)
    assert m["aniso2d.legendre.calls"] == 4
    assert m["aniso2d.conjugate2d.box_doublings"] == 3
    assert m["aniso2d.legendre.ops"] == 4 * (17 * 17 * 17 * 2)
    assert m["aniso2d.value.calls"] == 4
    run_level = {"pass.wall_s", "process.cpu_s", "reference.cpu_s", "trace.overhead_ratio"}
    assert set(m) | run_level == set(layers.UNITS)
