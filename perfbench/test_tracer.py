"""Tests for the span recorder and the wrapper installer.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import SPAN_NAMES, Patcher, SpanRecorder  # noqa: E402


class ScriptedClock:
    """Returns the given instants in order."""

    def __init__(self, *ticks: float) -> None:
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6].
    recorder = SpanRecorder(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 6, 10))
    parent = recorder.open("parent")
    a = recorder.open("a")
    g = recorder.open("g")
    recorder.close(g)
    recorder.close(a)
    b = recorder.open("b")
    recorder.close(b)
    recorder.close(parent)
    assert recorder.self_times() == [6, 2, 1, 1]
    assert recorder.parents == [-1, 0, 1, 0]
    # Self times of a tree add up to the root's duration.
    assert sum(recorder.self_times()) == 10


def test_totals_aggregate_calls_self_time_and_weight_per_name():
    recorder = SpanRecorder(clock=ScriptedClock(0, 1, 2, 4, 5, 8))
    with recorder.span("outer"):
        for weight in (3, 4):
            index = recorder.open("leaf", weight)
            recorder.close(index)
    assert recorder.totals(None) == {"outer": (1, 6, 1), "leaf": (2, 2, 7)}


def test_roots_separate_client_work_from_broker_work():
    recorder = SpanRecorder(clock=ScriptedClock(*range(12)))
    with recorder.root("client"):
        with recorder.span("crypto.group_sign"):
            pass
    with recorder.root("broker"):
        with recorder.span("core.broker_handle"):
            with recorder.span("messages.decode"):
                pass
    with recorder.span("unrooted"):
        pass
    assert recorder.roots == ["client", "broker", "broker", None]
    assert set(recorder.totals("client")) == {"crypto.group_sign"}
    assert set(recorder.totals("broker")) == {"core.broker_handle", "messages.decode"}
    assert set(recorder.totals(None)) == {"unrooted"}


def test_root_restores_the_enclosing_root():
    recorder = SpanRecorder(clock=ScriptedClock(*range(4)))
    with recorder.root("broker"):
        with recorder.root("client"):
            with recorder.span("inner"):
                pass
        with recorder.span("after"):
            pass
    assert recorder.roots == ["client", "broker"]


def test_count_within_follows_ancestors_at_any_depth():
    recorder = SpanRecorder(clock=ScriptedClock(*range(20)))
    with recorder.root("broker"):
        with recorder.span("messages.decode"):  # not under a broker span
            pass
        with recorder.span("core.broker_handle"):
            with recorder.span("crypto.group_verify"):
                with recorder.span("messages.decode"):
                    pass
            with recorder.span("messages.decode"):
                pass
    within = recorder.count_within(
        "messages.decode", frozenset({"core.broker_handle"}), "broker"
    )
    assert within == 2


def test_close_out_of_order_is_an_error():
    recorder = SpanRecorder(clock=ScriptedClock(*range(4)))
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_wrapper_closes_its_span_when_the_call_raises():
    recorder = SpanRecorder(clock=ScriptedClock(0, 1))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert recorder.ends == [1]
    assert recorder._stack == []


def test_dump_writes_one_json_line_per_span(tmp_path):
    import gzip

    recorder = SpanRecorder(clock=ScriptedClock(0, 1, 2, 3))
    with recorder.root("loop"):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
    path = tmp_path / "spans.jsonl.gz"
    recorder.dump(path)
    with gzip.open(path, "rt") as lines:
        rows = [json.loads(line) for line in lines]
    assert rows == [
        {"id": 0, "name": "a", "start": 0, "end": 3, "parent": -1, "root": "loop"},
        {"id": 1, "name": "b", "start": 1, "end": 2, "parent": 0, "root": "loop"},
    ]


@pytest.fixture()
def fake_package():
    """``fakepkg.lib`` defines ``helper`` and ``Thing``; ``fakepkg.user`` imports ``helper``."""
    lib = types.ModuleType("fakepkg.lib")

    def helper(x):
        return x + 1

    class Thing:
        def method(self, x):
            # A module-global lookup, as in real code (``helper`` here
            # would be a closure variable the patcher cannot see).
            return sys.modules["fakepkg.lib"].helper(x) * 2

        @classmethod
        def make(cls):
            return cls()

    helper.__module__ = Thing.__module__ = "fakepkg.lib"
    lib.helper, lib.Thing = helper, Thing
    user = types.ModuleType("fakepkg.user")
    user.helper = helper  # what ``from fakepkg.lib import helper`` leaves behind
    user.call = lambda x: user.helper(x)
    package = types.ModuleType("fakepkg")
    package.lib, package.user = lib, user
    modules = {"fakepkg": package, "fakepkg.lib": lib, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield lib, user
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_free_function_is_rebound_in_every_importer_and_restored(fake_package):
    lib, user = fake_package
    original = lib.helper
    recorder = SpanRecorder()
    with Patcher(recorder, package="fakepkg") as patcher:
        assert patcher.function("x.helper", "fakepkg.lib", "helper") == 2
        assert user.call(1) == 2
        assert lib.helper(1) == 2
        assert recorder.names == ["x.helper", "x.helper"]
        assert patcher.leftovers() != []
    assert lib.helper is original and user.helper is original
    assert patcher.leftovers() == []
    user.call(1)
    assert len(recorder) == 2  # unpatched code records nothing


def test_methods_and_classmethods_are_wrapped_on_their_class(fake_package):
    lib, _user = fake_package
    method, make = vars(lib.Thing)["method"], vars(lib.Thing)["make"]
    recorder = SpanRecorder()
    with Patcher(recorder, package="fakepkg") as patcher:
        patcher.function("x.helper", "fakepkg.lib", "helper")
        patcher.method("x.method", lib.Thing, "method")
        patcher.method("x.make", lib.Thing, "make")
        thing = lib.Thing.make()
        assert isinstance(thing, lib.Thing)
        assert thing.method(1) == 4
    assert recorder.names == ["x.make", "x.method", "x.helper"]
    assert recorder.parents == [-1, -1, 1]
    assert vars(lib.Thing)["method"] is method
    assert vars(lib.Thing)["make"] is make
    assert patcher.leftovers() == []


def test_restore_runs_when_the_traced_block_raises(fake_package):
    lib, _user = fake_package
    original = lib.helper
    with pytest.raises(KeyError):
        with Patcher(SpanRecorder(), package="fakepkg") as patcher:
            patcher.function("x.helper", "fakepkg.lib", "helper")
            raise KeyError("boom")
    assert lib.helper is original


def test_program_layers_install_record_and_unpatch_cleanly(tmp_path):
    import repro.core.broker
    import repro.messages.codec as codec
    import repro.pipeline.engine  # noqa: F401  (loads every layer's importers)
    import repro.sim.engine  # noqa: F401

    decode = codec.decode
    fsync = os.fsync
    handle = vars(repro.core.broker.Broker)["handle"]
    recorder = SpanRecorder()
    with Patcher(recorder) as patcher:
        patcher.install_layers()
        assert "Broker.handle" in patcher.leftovers()
        assert repro.core.broker.Broker.handle is not handle
        assert os.fsync is not fsync
        codec.decode(codec.encode({"k": 1}))
        with open(tmp_path / "f", "wb") as fh:
            os.fsync(fh.fileno())
    assert recorder.names == ["messages.encode", "messages.decode", "store.fsync"]
    assert set(recorder.names) <= set(SPAN_NAMES)
    assert codec.decode is decode and os.fsync is fsync
    assert vars(repro.core.broker.Broker)["handle"] is handle
    assert patcher.leftovers() == []


def test_benchmark_json_lists_exactly_the_metrics_the_code_reports():
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert spec["paths"] == ["perfbench"]
