"""Span recorder and layer wrappers for the benchmark.

The benchmark measures the program from outside: :func:`install`
replaces public functions of the ``repro`` packages with thin wrappers
that time each call. It must run before any pool or daemon forks, so
forked workers inherit the wrappers. Every process keeps its spans in
memory and writes them to a spool directory at the end of each cell
(:meth:`Recorder.flush`), which is how pool workers ship their spans
back to the parent. All stamps come from ``time.monotonic``, so spans
of a parent and its forked workers share one clock.

A span is ``(id, name, start, end, parent)``; ``parent`` is the id of
the enclosing span of the same thread and process, or -1. Counters
(rows trained, bytes written, rng streams built) are recorded at the
same call boundaries.

Two levels:

* the *probe*, always on: a wrapper around ``run_cell`` that stamps
  cell start, every completed round (through the ``progress`` callback
  ``run_cell`` already accepts), cell end, and the process's peak RSS;
* *tracing* (``trace=True``): spans and counters around the layers
  listed in :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = ["Recorder", "install", "read_spool", "vm_hwm_mib"]


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Recorder:
    """In-memory spans, counters and cell records of one process.

    A forked child starts with empty buffers (``os.register_at_fork``),
    so it never re-ships what its parent recorded.
    """

    def __init__(self, spool: str | os.PathLike) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.events: list[tuple] = []
        self.cells: list[dict] = []
        self._ids = itertools.count()
        self._seq = itertools.count()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around every call;
        ``count(counts, args, kwargs, result)`` adds counters."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append((sid, nid, start, end, parent))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def flush(self) -> None:
        """Write everything recorded since the last flush to one spool
        chunk (``<pid>-<seq>.json`` plus a ``.npy`` span array)."""
        pid = os.getpid()
        stem = self.spool / f"{pid}-{next(self._seq)}"
        spans = self.spans
        self.spans = []
        chunk = {
            "pid": pid,
            "names": list(self.names),
            "cells": self.cells,
            "counts": dict(self.counts),
            "events": self.events,
            "spans": len(spans),
        }
        self.cells, self.events = [], []
        self.counts = defaultdict(float)
        if spans:
            np.save(stem.with_suffix(".npy"), np.asarray(spans, dtype=np.float64))
        stem.with_suffix(".json").write_text(json.dumps(chunk))


def read_spool(spool: str | os.PathLike) -> list[dict]:
    """Every chunk in a spool directory, with its span array (columns
    id, name id, start, end, parent) under ``"span_array"``."""
    chunks = []
    for path in sorted(Path(spool).glob("*.json")):
        chunk = json.loads(path.read_text())
        npy = path.with_suffix(".npy")
        chunk["span_array"] = (
            np.load(npy) if npy.is_file() else np.empty((0, 5))
        )
        chunks.append(chunk)
    return chunks


def _replace_everywhere(old, new) -> None:
    """Rebind every ``repro`` module attribute that is ``old`` — the
    defining module and each ``from ... import`` site."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _probe_run_cell(rec: Recorder, run_cell):
    """Always-on ``run_cell`` wrapper: cell timing, per-round stamps of
    synchronous cells, and the executing process's peak RSS."""

    @functools.wraps(run_cell)
    def probe(preset, cell, results_dir, **kwargs):
        stamps: list[float] = []
        sync = cell.kind == "sync"
        downstream = kwargs.get("progress")

        def progress(done: int, total: int) -> None:
            if sync or not stamps:
                stamps.append(time.monotonic())
            if downstream is not None:
                downstream(done, total)

        kwargs["progress"] = progress
        start = time.monotonic()
        result = run_cell(preset, cell, results_dir, **kwargs)
        end = time.monotonic()
        rec.cells.append({
            "cell_id": cell.cell_id,
            "kind": cell.kind,
            "n_nodes": preset.n_nodes,
            "total_rounds": cell.total_rounds,
            "start": start,
            "end": end,
            "stamps": stamps,
            "hwm_mib": vm_hwm_mib(),
        })
        rec.flush()
        return result

    return probe


#: (layer name, module, attribute path) of each traced callable; two
#: callables may share a layer name (the sync and async variants)
LAYERS = (
    ("data.prepare", "repro.experiments.runner", "prepare_data"),
    ("topology.bind", "repro.experiments.runner", "prepared_from_data"),
    ("experiments.pool.publish", "repro.experiments.pool",
     "SharedDatasetCache.publish"),
    ("simulation.build", "repro.experiments.runner", "build_run"),
    ("simulation.build", "repro.experiments.runner", "build_async_run"),
    ("simulation.run", "repro.simulation.engine", "SimulationEngine.run"),
    ("simulation.async_run", "repro.simulation.async_engine",
     "AsyncGossipEngine.run"),
    ("data.sample_batch", "repro.simulation.node", "Node.sample_batch"),
    ("nn.train_rows", "repro.nn.batched", "BatchedTrainer.train_rows"),
    ("nn.evaluate", "repro.simulation.metrics", "evaluate_state"),
    ("energy.record_round", "repro.energy.accounting",
     "EnergyMeter.record_round"),
    ("simulation.checkpoint.save", "repro.simulation.checkpoint",
     "save_run_checkpoint"),
    ("simulation.checkpoint.save", "repro.simulation.checkpoint",
     "save_async_run_checkpoint"),
    ("experiments.artifacts.write", "repro.experiments.artifacts",
     "write_cell_artifact"),
    ("experiments.artifacts.write", "repro.experiments.artifacts",
     "write_async_cell_artifact"),
)


def _file_bytes(key: str, path_of):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(path_of(args, kwargs, result))
    return count


def _counters() -> dict:
    """Counters recorded at the boundary of each traced layer."""

    def train_rows(counts, args, kwargs, result):
        counts["nn.train_rows.rows"] += len(args[2])

    def record_round(counts, args, kwargs, result):
        meter, trained = args[0], args[1]
        communicated = kwargs.get("communicated")
        counts["core.trained_node_rounds"] += int(np.count_nonzero(trained))
        counts["core.eligible_node_rounds"] += (
            meter.n_nodes if communicated is None
            else int(np.count_nonzero(communicated))
        )

    def publish(counts, args, kwargs, result):
        counts["experiments.pool.shm_bytes"] += sum(
            int(np.prod(shape)) * np.dtype(dtype).itemsize
            for _, shape, dtype, _ in result.arrays
        )

    return {
        "nn.train_rows": train_rows,
        "energy.record_round": record_round,
        "experiments.pool.publish": publish,
        "simulation.checkpoint.save": _file_bytes(
            "simulation.checkpoint.bytes", lambda a, k, r: a[4]),
        "experiments.artifacts.write": _file_bytes(
            "experiments.artifacts.bytes", lambda a, k, r: r),
    }


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _install_tracing(rec: Recorder) -> None:
    from repro.experiments.pool import PersistentPool, SharedDatasetCache
    from repro.simulation.rng import RngFactory

    counters = _counters()
    for name, module, path in LAYERS:
        owner, attr = _resolve(module, path)
        old = getattr(owner, attr)
        new = rec.wrap(name, old, counters.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, new)
        else:
            _replace_everywhere(old, new)

    node_stream = RngFactory.node_stream

    def counted_node_stream(self, label, node_id):
        rec.counts["simulation.rng_streams"] += 1
        return node_stream(self, label, node_id)

    RngFactory.node_stream = counted_node_stream

    get = SharedDatasetCache.get

    def counted_get(self, key):
        meta = get(self, key)
        rec.counts["experiments.pool.lookups"] += 1
        rec.counts["experiments.pool.hits"] += meta is not None
        return meta

    SharedDatasetCache.get = counted_get

    submit, enter, exit_ = (
        PersistentPool.submit, PersistentPool.__enter__, PersistentPool.__exit__
    )

    def stamped_submit(self, task):
        rec.events.append(("submit", task[0].cell_id, time.monotonic()))
        return submit(self, task)

    def stamped_enter(self):
        rec.events.append(("pool_open", self._jobs, time.monotonic()))
        return enter(self)

    def stamped_exit(self, *exc):
        try:
            return exit_(self, *exc)
        finally:
            rec.events.append(("pool_close", self._jobs, time.monotonic()))

    PersistentPool.submit = stamped_submit
    PersistentPool.__enter__ = stamped_enter
    PersistentPool.__exit__ = stamped_exit


def install(spool: str | os.PathLike, trace: bool) -> Recorder:
    """Import the ``repro`` layers, wrap them, and return the process's
    recorder. Call before anything forks."""
    import repro.experiments.serve.server  # noqa: F401 - binds imported names
    import repro.experiments.sweep as sweep
    import repro.scenarios.compile  # noqa: F401
    import repro.simulation.async_engine  # noqa: F401

    rec = Recorder(spool)
    if trace:
        _install_tracing(rec)
    old = sweep.run_cell
    _replace_everywhere(old, _probe_run_cell(rec, old))
    return rec
