# simlint: disable-file=SL102 -- host time is what this benchmark measures
"""Span recording around calls into the simulator's layers.

The benchmark never edits the program.  For a traced run it wraps the
public functions and methods listed in :data:`LAYER_SPANS` with a thin
recorder, runs the workload, and unwraps them again.  Every call becomes
a span with a name, a start, an end and a parent (the span that was open
when it began).  Spans stay in memory in flat arrays until the run ends;
a span's *self time* is its duration minus the durations of its direct
children, so self times add up to the traced wall time with nothing
counted twice.

Pool workers forked while tracing is installed inherit the wrappers.
Each forked process starts an empty span table and, whenever its
outermost span closes, writes its per-name totals to a ``worker-*.json``
in the recorder's worker directory; :meth:`SpanRecorder.totals` adds them
to the parent's own.  Processes started fresh (the ``repro serve``
daemon) are not traced; their share shows up as waiting in the
benchmark's own spans.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: (span name, module, attribute path).  ``Class.method`` also wraps
#: every override of ``method`` in a subclass of ``Class``; a plain
#: function is rebound in every ``repro`` module that imported it by name.
LAYER_SPANS: tuple[tuple[str, str, str], ...] = (
    ("workloads.generate", "repro.workloads.spec", "WorkloadProfile.generate"),
    ("sim.make_system", "repro.sim.runner", "make_system"),
    ("sim.run_stream", "repro.sim.system", "SecureNVMSystem.run_stream"),
    ("mem.access", "repro.mem.hierarchy", "CacheHierarchy.access"),
    ("mem.clwb", "repro.mem.hierarchy", "CacheHierarchy.clwb"),
    ("ctrl.read_data", "repro.baselines.base",
     "SecureMemoryController.read_data"),
    ("ctrl.write_data", "repro.baselines.base",
     "SecureMemoryController.write_data"),
    ("metacache.lookup", "repro.integrity.metacache", "MetadataCache.lookup"),
    ("metacache.insert", "repro.integrity.metacache", "MetadataCache.insert"),
    ("crypto.digest64", "repro.crypto.engine", "FastEngine.digest64"),
    ("crypto.digest64", "repro.crypto.engine", "Blake2Engine.digest64"),
    ("crypto.otp", "repro.crypto.engine", "FastEngine.otp"),
    ("crypto.otp", "repro.crypto.engine", "Blake2Engine.otp"),
    ("nvm.read", "repro.sim.clock", "MemClock.nvm_read"),
    ("nvm.read", "repro.sim.clock", "MemClock.nvm_read_overlapped"),
    ("nvm.write", "repro.sim.clock", "MemClock.nvm_write"),
    ("faults.fire", "repro.faults.registry", "fire"),
    ("recovery.recover", "repro.baselines.base",
     "SecureMemoryController.recover"),
    ("recovery.validate", "repro.sim.crash", "check_recovered"),
    ("explore.probe", "repro.explore.runner", "run_probe"),
    ("explore.case", "repro.explore.runner", "run_case"),
    ("explore.case", "repro.explore.runner", "run_clean"),
    ("explore.digest", "repro.explore.digest", "durable_digest"),
    ("exec.cell_key", "repro.exec.spec", "cell_key"),
    ("exec.execute_cell", "repro.exec.pool", "execute_cell"),
    ("exec.decode_payload", "repro.exec.pool", "decode_payload"),
    ("exec.cache_get", "repro.exec.cache", "LocalDirBackend.get"),
    ("exec.cache_put", "repro.exec.cache", "LocalDirBackend.put"),
    ("serve.submit", "repro.serve.client", "ServiceClient.submit"),
)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class SpanRecorder:
    """Flat in-memory span table plus the wrappers that fill it."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span, in start order; ``end`` is filled on close
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        # in a forked worker: [its file name tag, its folded totals]
        self._child: list[Any] = [None, {}]
        self._undo: list[Callable[[], None]] = []
        # wrapper -> wrapped, for the wrappers currently installed
        self._wrapped: dict[Callable[..., Any], Callable[..., Any]] = {}
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _enter_child(ref))

    # ------------------------------------------------------------ record
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        names, parents, starts, ends = (self._name, self._parent,
                                        self._start, self._end)
        stack, child, clock = self._stack, self._child, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if child[0] is not None and len(stack) == 1:
                    self._flush_child()

        self._wrapped[traced] = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = len(self._name)
        self._name.append(self._id(name))
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            self._stack.pop()

    # ----------------------------------------------------- install/remove
    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every :data:`LAYER_SPANS` target for the block's duration."""
        try:
            for name, module, attr in LAYER_SPANS:
                self._install(name, importlib.import_module(module), attr)
            yield self
        finally:
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()
            self._unbind_stragglers()
            self._wrapped.clear()

    def _install(self, name: str, module: Any, attr: str) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            for cls in _subclasses(getattr(module, cls_name)):
                if meth in cls.__dict__:
                    self._swap(cls, meth, self.wrap(name, cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapper = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._swap(mod, attr, wrapper)

    def _swap(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _unbind_stragglers(self) -> None:
        """Undo wrappers copied by modules imported while installed."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in self._wrapped:
                    setattr(mod, attr, self._wrapped[value])

    # ----------------------------------------------------------- results
    def span_count(self) -> int:
        return len(self._name)

    def _own_totals(self) -> dict[str, tuple[float, int]]:
        n = len(self._name)
        if n == 0:
            return {}
        if len(self._stack) > 1:
            raise RuntimeError("span totals requested with spans open")
        name = np.frombuffer(self._name, dtype=np.uint16)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = np.bincount(name, weights=dur - child,
                                minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {nm: (float(self_time[i]), int(calls[i]))
                for i, nm in enumerate(self.names) if calls[i]}

    def totals(self) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}``, forked workers included."""
        out = dict(self._own_totals())
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            for nm, (self_s, calls) in json.loads(path.read_text()).items():
                s0, c0 = out.get(nm, (0.0, 0))
                out[nm] = (s0 + self_s, c0 + calls)
        return out

    def write(self, path: Path) -> None:
        """Write the span table: one ``name,parent,start,end`` array set."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start), end=np.frombuffer(self._end))

    # ------------------------------------------------------ forked workers
    def _flush_child(self) -> None:
        folded = self._child[1]
        for nm, (self_s, calls) in self._own_totals().items():
            s0, c0 = folded.get(nm, (0.0, 0))
            folded[nm] = (s0 + self_s, c0 + calls)
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        path = self.worker_dir / f"worker-{self._child[0]}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(folded))
        os.replace(tmp, path)


def _enter_child(ref: "weakref.ref[SpanRecorder]") -> None:
    rec = ref()
    if rec is None:
        return
    for arr in (rec._name, rec._parent, rec._start, rec._end):
        del arr[:]
    del rec._stack[1:]
    # pid plus fork time: a later worker may reuse a pid
    rec._child[0] = f"{os.getpid()}-{time.monotonic_ns()}"
    rec._child[1] = {}
