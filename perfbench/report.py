"""Metrics from spool chunks (see :mod:`spans`).

Per-layer times, calls, rows and bytes are divided by the number of
cells the run completed, so runs that fit a different number of cells
into their window still compare; ratios and percentiles are reported
as they are.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

#: per-layer metrics reported by every traced run, in BENCHMARK.json order
LAYER_METRICS = (
    "data.sample_batch.calls",
    "data.sample_batch.s",
    "simulation.build.s",
    "simulation.rng_streams",
    "nn.train_rows.calls",
    "nn.train_rows.s",
    "nn.train_rows.rows",
    "nn.evaluate.calls",
    "nn.evaluate.s",
    "simulation.run.self_s",
    "simulation.async_run.self_s",
    "simulation.checkpoint.save.calls",
    "simulation.checkpoint.save.s",
    "simulation.checkpoint.bytes",
    "experiments.artifacts.write.s",
    "experiments.artifacts.bytes",
    "data.prepare.s",
    "topology.bind.s",
    "experiments.pool.publish.s",
    "experiments.pool.shm_bytes",
    "experiments.pool.publish.hit_frac",
    "experiments.pool.queue_wait_s_p50",
    "experiments.pool.busy_frac",
    "experiments.serve.submit_rtt_s_p50",
    "experiments.serve.queue_wait_s_p50",
    "experiments.serve.queue_wait_s_p90",
    "experiments.serve.run_s_p50",
    "energy.record_round.s",
    "core.trained_frac",
    "trace.overhead_frac",
)

#: measured by the serve load generator, not from spans
SERVE_LAYERS = tuple(m for m in LAYER_METRICS if m.startswith("experiments.serve."))

#: spans whose total time is reported (``<layer>.s``) and their calls
TIMED = ("data.sample_batch", "simulation.build", "nn.train_rows",
         "nn.evaluate", "simulation.checkpoint.save",
         "experiments.artifacts.write", "data.prepare", "topology.bind",
         "experiments.pool.publish", "energy.record_round")

#: spans whose self time is reported (``<layer>.self_s``)
SELF_TIMED = ("simulation.run", "simulation.async_run")

#: counters reported per cell under their own names
COUNTED = ("simulation.rng_streams", "nn.train_rows.rows",
           "simulation.checkpoint.bytes", "experiments.artifacts.bytes",
           "experiments.pool.shm_bytes")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def probe_records(chunks) -> list[dict]:
    """Every cell record of the run, with the pid that ran it."""
    return [dict(cell, pid=c["pid"]) for c in chunks for cell in c["cells"]]


def span_times(chunks) -> tuple[dict, dict, dict]:
    """``(total seconds, calls, self seconds)`` per span name. Self
    time is a span's duration minus its children's; children of one
    span run on its thread one after another, so they never overlap."""
    total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    by_pid: dict[int, list] = defaultdict(list)
    for c in chunks:
        if len(c["span_array"]):
            by_pid[c["pid"]].append((c["names"], c["span_array"]))
    for parts in by_pid.values():
        names = parts[-1][0]  # names only grow; the last list has them all
        arr = np.concatenate([a for _, a in parts])
        ids, nid, dur, parent = (arr[:, 0], arr[:, 1].astype(np.int64),
                                 arr[:, 3] - arr[:, 2], arr[:, 4])
        order = np.argsort(ids)
        slot = np.searchsorted(ids, parent, sorter=order).clip(0, len(ids) - 1)
        pos = order[slot]
        found = ids[pos] == parent  # parent -1 and unflushed parents drop out
        child = np.bincount(pos[found], weights=dur[found], minlength=len(ids))
        for k, name in enumerate(names):
            mine = nid == k
            total[name] += float(dur[mine].sum())
            calls[name] += int(mine.sum())
            self_s[name] += float((dur[mine] - child[mine]).sum())
    return total, calls, self_s


def layer_metrics(chunks) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics other than the serve and overhead ones,
    and each timed layer's share of the cells' wall time (for the
    human-readable report)."""
    cells = probe_records(chunks)
    n_cells = max(1, len(cells))
    wall = sum(c["end"] - c["start"] for c in cells)
    total, calls, self_s = span_times(chunks)
    counts: dict[str, float] = defaultdict(float)
    events = []
    for c in chunks:
        for key, value in c["counts"].items():
            counts[key] += value
        events += [(c["pid"], *e) for e in c["events"]]
    out = {}
    for name in TIMED:
        out[f"{name}.s"] = total[name] / n_cells
    for name in ("data.sample_batch", "nn.train_rows", "nn.evaluate",
                 "simulation.checkpoint.save"):
        out[f"{name}.calls"] = calls[name] / n_cells
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s[name] / n_cells
    for name in COUNTED:
        out[name] = counts[name] / n_cells
    lookups = counts["experiments.pool.lookups"]
    out["experiments.pool.publish.hit_frac"] = (
        counts["experiments.pool.hits"] / lookups if lookups else 0.0)
    eligible = counts["core.eligible_node_rounds"]
    out["core.trained_frac"] = (
        counts["core.trained_node_rounds"] / eligible if eligible else 0.0)
    out.update(pool_metrics(cells, events))
    shares = {f"{n}.s": total[n] / wall for n in TIMED if wall}
    shares.update({f"{n}.self_s": self_s[n] / wall for n in SELF_TIMED if wall})
    return {name: out[name] for name in LAYER_METRICS if name in out}, shares


def pool_metrics(cells, events) -> dict[str, float]:
    """Queue wait (pool submit to ``run_cell`` entry in a worker) and
    busy fraction (worker time in ``run_cell`` over workers × pool
    lifetime) of the persistent pool."""
    submitted = {e[2]: e[3] for e in events if e[1] == "submit"}
    owners = {e[0] for e in events if e[1] == "pool_open"}
    opened = [e for e in events if e[1] == "pool_open"]
    closed = [e for e in events if e[1] == "pool_close"]
    capacity = sum(o[2] * (c[3] - o[3]) for o, c in zip(opened, closed))
    worked = [c for c in cells if c["pid"] not in owners]
    waits = [c["start"] - submitted[c["cell_id"]]
             for c in worked if c["cell_id"] in submitted]
    return {
        "experiments.pool.queue_wait_s_p50": percentile(waits, 50),
        "experiments.pool.busy_frac": (
            sum(c["end"] - c["start"] for c in worked) / capacity
            if capacity else 0.0),
    }
