"""Outside-in span recording for the benchmark's traced runs.

The program has no tracing of its own, so a traced run wraps the public
functions and methods of each layer from the outside and records one span
per call: name, start, end, parent span and root.  Spans live in memory
(parallel lists, cheap to append) and are written out once, at the end.

* :class:`SpanRecorder` owns the spans, the current root and the stack of
  open spans.  A *root* names the part of a run a span belongs to; the
  broker batch workload records its untimed client work under ``client``
  and the timed broker work under ``broker``, so neither's shares leak
  into the other's.
* :class:`Patcher` installs the wrappers and takes every one of them away
  again.  A free function is rebound in every loaded module of the package
  that holds it under its name (``from x import f`` copies the reference,
  so patching only the defining module would miss those callers).  A
  method is replaced on the class that defines it.
* :data:`FUNCTIONS`, :data:`METHODS` and :data:`ATTRIBUTES` list what a
  traced run wraps, as ``<layer>.<name>`` span names.

A span's *self time* is its duration minus the durations of its direct
children.  The program is single-threaded, so children of one span never
overlap and that difference is exactly the part of the interval no child
covers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Marker attribute set on every wrapper, so leftovers can be found.
WRAPPER_MARK = "__perfbench_span__"


def _append_many_records(args: tuple[Any, ...], _kwargs: dict[str, Any]) -> int:
    # ``DurableStore.append_many`` hands a one-record batch to ``append``,
    # whose own span already counts that record.
    count = len(args[1])
    return 0 if count == 1 else count


#: Free functions: (span name, defining module, attribute).
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("crypto.group_sign", "repro.crypto.group_signature", "group_sign"),
    ("crypto.group_verify", "repro.crypto.group_signature", "group_verify"),
    ("crypto.group_batch_verify", "repro.crypto.group_signature", "group_batch_verify"),
    ("crypto.dsa_sign", "repro.crypto.dsa", "dsa_sign"),
    ("crypto.dsa_verify", "repro.crypto.dsa", "dsa_verify"),
    ("crypto.dsa_batch_verify", "repro.crypto.dsa", "dsa_batch_verify"),
    ("crypto.schnorr_verify", "repro.crypto.schnorr", "schnorr_verify"),
    ("crypto.is_member", "repro.crypto.fastexp", "is_member"),
    ("messages.encode", "repro.messages.codec", "encode"),
    ("messages.decode", "repro.messages.codec", "decode"),
    ("sim.build", "repro.sim.engine", "build_simulation"),
)

#: Methods: (span name, defining module, class, attribute, weigher or None).
#: A weigher maps the call's arguments to how many work items it covers.
METHODS: tuple[tuple[str, str, str, str, Callable[..., int] | None], ...] = (
    ("crypto.keygen", "repro.crypto.keys", "KeyPair", "generate", None),
    ("net.transport_request", "repro.net.transport", "Transport", "request", None),
    ("net.rpc_call", "repro.net.rpc", "RpcClient", "call", None),
    ("core.broker_handle", "repro.core.broker", "Broker", "handle", None),
    ("core.peer_pay", "repro.core.peer", "Peer", "pay", None),
    ("store.append", "repro.store.journal", "DurableStore", "append", None),
    ("store.append_many", "repro.store.journal", "DurableStore", "append_many", _append_many_records),
    ("store.group_flush", "repro.store.groupcommit", "GroupCommitter", "flush", None),
    ("pipeline.pool_verify", "repro.pipeline.verify", "VerificationPool", "verify", None),
    ("sim.run", "repro.sim.engine", "FastSimulation", "run", None),
)

#: Attributes of the standard library wrapped for traced runs only.
ATTRIBUTES: tuple[tuple[str, Any, str], ...] = (("store.fsync", os, "fsync"),)

#: Every span name a traced run records, in report order.
SPAN_NAMES: tuple[str, ...] = tuple(
    sorted(
        [name for name, *_ in FUNCTIONS]
        + [name for name, *_ in METHODS]
        + [name for name, *_ in ATTRIBUTES]
    )
)


class SpanRecorder:
    """Spans in memory: parallel lists indexed by span id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[str | None] = []
        self.weights: list[int] = []
        self._stack: list[int] = []
        self._root: str | None = None

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, weight: int = 1) -> int:
        """Start a span under the innermost open one; returns its id."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._root)
        self.weights.append(weight)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End span ``index``, which must be the innermost open span."""
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Attribute every span opened inside the block to root ``name``."""
        previous, self._root = self._root, name
        try:
            yield
        finally:
            self._root = previous

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        weigh: Callable[[tuple[Any, ...], dict[str, Any]], int] | None = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so each call records one span ``name``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name, 1 if weigh is None else weigh(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        setattr(traced, WRAPPER_MARK, name)
        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, root: str | None) -> dict[str, tuple[int, float, int]]:
        """Per span name under ``root``: (calls, self seconds, weight)."""
        out: dict[str, tuple[int, float, int]] = {}
        for name, span_root, own, weight in zip(
            self.names, self.roots, self.self_times(), self.weights
        ):
            if span_root != root:
                continue
            calls, seconds, items = out.get(name, (0, 0.0, 0))
            out[name] = (calls + 1, seconds + own, items + weight)
        return out

    def count_within(self, name: str, ancestors: frozenset[str], root: str | None) -> int:
        """Spans called ``name`` under ``root`` with an ancestor in ``ancestors``."""
        inside = [False] * len(self.names)
        count = 0
        # Parents always precede their children, so one forward pass works.
        for index, (span_name, parent) in enumerate(zip(self.names, self.parents)):
            inherited = parent >= 0 and (inside[parent] or self.names[parent] in ancestors)
            inside[index] = inherited
            if inherited and span_name == name and self.roots[index] == root:
                count += 1
        return count

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                row = {
                    "id": index,
                    "name": name,
                    "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index],
                    "root": self.roots[index],
                }
                out.write(json.dumps(row) + "\n")


class Patcher:
    """Installs span wrappers and restores every original afterwards.

    Use as a context manager; :meth:`restore` runs on exit even if the
    traced code raised.  Each replaced binding is remembered exactly, so
    restoring puts back the very object that was there before.
    """

    def __init__(self, recorder: SpanRecorder, package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def _modules(self) -> list[Any]:
        prefix = self.package + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(prefix))
        ]

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, span: str, module_name: str, attr: str) -> int:
        """Wrap a free function everywhere the package holds it; returns sites."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.recorder.wrap(span, original)
        sites = 0
        for module in self._modules():
            if vars(module).get(attr) is original:
                self._set(module, attr, wrapper)
                sites += 1
        return sites

    def method(
        self,
        span: str,
        cls: type,
        attr: str,
        weigh: Callable[[tuple[Any, ...], dict[str, Any]], int] | None = None,
    ) -> None:
        """Wrap a method on the class that defines it."""
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.recorder.wrap(span, raw.__func__, weigh))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.recorder.wrap(span, raw.__func__, weigh))
        else:
            wrapped = self.recorder.wrap(span, raw, weigh)
        self._set(cls, attr, wrapped)

    def attribute(self, span: str, owner: Any, attr: str) -> None:
        """Wrap a plain callable attribute, such as ``os.fsync``."""
        self._set(owner, attr, self.recorder.wrap(span, getattr(owner, attr)))

    def install_layers(self) -> None:
        """Wrap everything in :data:`FUNCTIONS`, :data:`METHODS`, :data:`ATTRIBUTES`."""
        for span, module_name, attr in FUNCTIONS:
            self.function(span, module_name, attr)
        for span, module_name, class_name, attr, weigh in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self.method(span, cls, attr, weigh)
        for span, owner, attr in ATTRIBUTES:
            self.attribute(span, owner, attr)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Bindings in the package, its classes or ``os`` that still hold a wrapper."""
        owners: list[Any] = [owner for _span, owner, _attr in ATTRIBUTES]
        for module in self._modules():
            owners.append(module)
            owners.extend(
                value
                for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module.__name__
            )
        found = []
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                target = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if getattr(target, WRAPPER_MARK, None) is not None:
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.restore()
