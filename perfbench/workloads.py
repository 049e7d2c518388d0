"""The benchmark's three workloads. :mod:`run` starts this file in a
fresh process per workload, so each workload's memory is its own:

    python3 perfbench/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --work DIR

It writes ``DIR/result.json``: the end-to-end metrics, the per-layer
metrics (with ``--trace 1``), the correctness checks, and the attempted
and failed counts. Inputs derive from ``--seed`` alone.

    python3 perfbench/workloads.py --record-digests

re-runs the default seed's cells through ``run_cell`` and rewrites
``digests.json``, the artifact digests every run checks against.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

FLEET_PRESET = "n16384-fleet"
FLEET_ROUNDS = 32
FLEET_CHECKPOINT_EVERY = 8

SWEEP_PRESET = "cifar10-bench"
SWEEP_ALGORITHMS = ("skiptrain", "d-psgd")
SWEEP_DEGREES = (3, 6)
SWEEP_SEEDS = 4
SWEEP_JOBS = 2

SERVE_SCENARIOS = ("cifar10-bench", "churn-crash", "churn-async")
#: short jobs, so the window holds 100+ of them (p90 with 10+ beyond it)
#: at about 30% pool utilisation
SERVE_ROUNDS = 12
#: jobs/s
SERVE_RATE = 4.0
#: ``k`` of the one warm-up job per scenario sent before the window
SERVE_WARMUP_K = 999
SERVE_SETUPS = 3
SERVE_SCHEDULE_SEED = 20241017
#: a run whose generator sent any job later than this is not scored
SERVE_MAX_LATENESS_S = 0.25
SERVE_DRAIN_TIMEOUT_S = 60.0
#: how many default-seed cells per workload --record-digests covers
DIGEST_CELLS = {"fleet-16k": 6, "sweep-bench": 6, "serve-poisson": 60}


def mono() -> float:
    return time.monotonic()


# -- cells of each workload ---------------------------------------------------


def fleet_cell(seed: int, k: int):
    from repro.experiments.artifacts import PlanCell

    return PlanCell(preset=FLEET_PRESET, algorithm="skiptrain", degree=4,
                    seed=seed * 1000 + k, total_rounds=FLEET_ROUNDS)


def sweep_cells(seed: int, rep: int):
    from repro.experiments import build_plan, get_preset

    first = seed * 1000 + rep * SWEEP_SEEDS
    return build_plan(
        get_preset(SWEEP_PRESET), SWEEP_ALGORITHMS, degrees=SWEEP_DEGREES,
        seeds=tuple(range(first, first + SWEEP_SEEDS)),
    )


def serve_cell(scenario: str, seed: int, k: int):
    """The cell of the ``k``-th job of ``scenario``: it gets seed
    ``1000·seed + k``, so scenarios built on one preset share a
    published dataset."""
    from repro.experiments import get_preset
    from repro.scenarios.compile import build_scenario_plan
    from repro.scenarios.registry import get_scenario

    spec = get_scenario(scenario)
    (cell,) = build_scenario_plan(
        spec, seeds=(seed * 1000 + k,), total_rounds=SERVE_ROUNDS,
        preset=get_preset(spec.preset))
    return cell


def serve_schedule(seconds: float) -> list[tuple[float, str]]:
    """``(offset_s, scenario)`` per job: one fixed draw of a Poisson
    stream conditioned on its job count (uniform arrival times over the
    window), replayed like a recorded trace, with the scenarios in equal
    shares in a fixed shuffled order. Its bursts are the same in every
    run, so tail latency compares across runs; ``--seed`` changes the
    jobs' data seeds."""
    n_jobs = max(len(SERVE_SCENARIOS), round(SERVE_RATE * seconds))
    rng = random.Random(SERVE_SCHEDULE_SEED)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(n_jobs))
    mix = [SERVE_SCENARIOS[i % len(SERVE_SCENARIOS)] for i in range(n_jobs)]
    rng.shuffle(mix)
    return list(zip(offsets, mix))


# -- correctness --------------------------------------------------------------


class Checks:
    """Per-cell correctness verdicts; a unit (cell or job) fails if any
    of its checks fails."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}
        self.passed = 0

    def check(self, unit: str, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.setdefault(unit, []).append(what)


def cell_json(cell) -> dict:
    return {"preset": cell.preset, "algorithm": cell.algorithm,
            "degree": cell.degree, "seed": cell.seed,
            "total_rounds": cell.total_rounds, "kind": cell.kind,
            "scenario": cell.scenario}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_artifacts(checks: Checks, results: Path, cells, units=None) -> dict:
    """Schema, cell coordinates and round count of each cell's
    artifact, plus its digest where ``digests.json`` has one. Returns
    the loaded artifacts by cell id."""
    from repro.experiments import get_preset
    from repro.experiments.artifacts import (
        ARTIFACT_SCHEMA, ASYNC_ARTIFACT_SCHEMA, artifact_path,
    )

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    loaded = {}
    for cell in cells:
        unit = units[cell.cell_id] if units else cell.cell_id
        path = artifact_path(results, cell)
        if not path.is_file():
            checks.check(unit, False, f"{cell.cell_id}: no artifact")
            continue
        art = json.loads(path.read_text())
        loaded[cell.cell_id] = art
        records = art.get("history", {}).get("records", [])
        if cell.kind == "sync":
            # evaluations land on the schedule's fair rounds, so the last
            # one may precede the final round by part of an eval cadence
            rounds = [r["round"] for r in records]
            done = (bool(rounds) and rounds == sorted(set(rounds))
                    and 0.75 * cell.total_rounds <= rounds[-1]
                    <= cell.total_rounds)
            schema = ARTIFACT_SCHEMA
        else:
            n = get_preset(cell.preset).n_nodes
            done = (bool(records) and art.get("engine", {}).get("events")
                    == cell.total_rounds * n)
            schema = ASYNC_ARTIFACT_SCHEMA
        checks.check(unit, art.get("schema") == schema
                     and art.get("cell") == cell_json(cell) and done,
                     f"{cell.cell_id}: wrong schema, cell or round count")
        want = digests.get(cell.cell_id)
        if want is not None:
            checks.check(unit, sha256(path) == want,
                         f"{cell.cell_id}: artifact differs from digests.json")
    return loaded


# -- workloads ----------------------------------------------------------------


def run_fleet(rec, seed: int, seconds: float, work: Path) -> dict:
    """fleet-16k: whole ``n16384-fleet`` SkipTrain cells, one after
    another, on the vectorized engine with checkpoints every 8 rounds.
    A new cell starts while half the last cell's duration still fits
    into the window."""
    import repro.experiments.sweep as sweep
    from repro.experiments import get_preset

    preset = get_preset(FLEET_PRESET)
    results = work / "results"
    cells = []
    begin = mono()
    last = 0.0
    while not cells or mono() - begin + last / 2 <= seconds:
        cell = fleet_cell(seed, len(cells))
        t0 = mono()
        sweep.run_cell(preset, cell, results,
                       checkpoint_every=FLEET_CHECKPOINT_EVERY, vectorized=True)
        last = mono() - t0
        cells.append(cell)
    hwm = spans.vm_hwm_mib()
    probes = report.probe_records(spans.read_spool(rec.spool))
    setups, node_rounds, busy, lat = [], 0, 0.0, []
    for p in probes:
        stamps = p["stamps"]
        setups.append(stamps[0] - p["start"])
        node_rounds += p["n_nodes"] * (len(stamps) - 1)
        busy += p["end"] - stamps[0]
        lat += [t - p["start"] for t in stamps]
    checks = Checks()
    check_artifacts(checks, results, cells)
    return {
        "units": len(cells), "checks": checks,
        "e2e": {
            "setup_s": report.median(setups),
            "node_rounds_per_s": node_rounds / busy,
            "latency_p50_s": report.percentile(lat, 50),
            "latency_p90_s": report.percentile(lat, 90),
            "peak_rss_mib": hwm,
            "worker_peak_rss_mib": hwm,
        },
        "samples": {"setup_s": len(setups), "latency": len(lat),
                    "latency_unit": "round"},
    }


def run_sweep_bench(rec, seed: int, seconds: float, work: Path) -> dict:
    """sweep-bench: the Table-3 grid at bench scale through
    ``run_sweep(jobs=2, vectorized=True)``, repeated with fresh seeds
    while half the last sweep's duration still fits into the window."""
    import repro.experiments.sweep as sweep
    from repro.experiments import get_preset

    results = work / "results"
    reps = []
    begin = mono()
    last = 0.0
    while not reps or mono() - begin + last / 2 <= seconds:
        cells = sweep_cells(seed, len(reps))
        t0 = mono()
        sweep.run_sweep(cells, results, jobs=SWEEP_JOBS, vectorized=True)
        t1 = mono()
        last = t1 - t0
        reps.append((cells, t0, t1))
    hwm = spans.vm_hwm_mib()
    probes = {p["cell_id"]: p for p in report.probe_records(
        spans.read_spool(rec.spool))}
    setups, node_rounds, busy, lat, worker_hwm = [], 0, 0.0, [], 0.0
    for cells, t0, t1 in reps:
        mine = [probes[c.cell_id] for c in cells]
        first = min(p["stamps"][0] for p in mine)
        setups.append(first - t0)
        n = mine[0]["n_nodes"]
        node_rounds += sum(p["n_nodes"] * p["total_rounds"] for p in mine) - n
        busy += t1 - first
        lat += [p["end"] - t0 for p in mine]
        worker_hwm = max([worker_hwm] + [p["hwm_mib"] for p in mine])
    checks = Checks()
    all_cells = [c for cells, _, _ in reps for c in cells]
    arts = check_artifacts(checks, results, all_cells)
    preset = get_preset(SWEEP_PRESET)
    for cell in all_cells:
        if cell.algorithm != "skiptrain":
            continue
        twin = cell.cell_id.replace("__skiptrain__", "__d-psgd__")
        if cell.cell_id not in arts or twin not in arts:
            continue
        schedule = preset.schedule_for_degree(cell.degree)
        rounds = range(1, cell.total_rounds + 1)
        want = sum(map(schedule.is_training_round, rounds)) / len(rounds)
        got = (arts[cell.cell_id]["results"]["total_train_wh"]
               / arts[twin]["results"]["total_train_wh"])
        checks.check(cell.cell_id, abs(got - want) < 1e-9,
                     f"{cell.cell_id}: SkipTrain/D-PSGD training energy "
                     f"{got:.4f}, schedule says {want:.4f}")
    return {
        "units": len(all_cells), "checks": checks,
        "e2e": {
            "setup_s": report.median(setups),
            "node_rounds_per_s": node_rounds / busy,
            "latency_p50_s": report.percentile(lat, 50),
            "latency_p90_s": report.percentile(lat, 90),
            "peak_rss_mib": hwm,
            "worker_peak_rss_mib": worker_hwm,
        },
        "samples": {"setup_s": len(setups), "latency": len(lat),
                    "latency_unit": "cell"},
    }


class GeneratorBehind(RuntimeError):
    """The serve load generator fell behind its schedule."""


class Daemon:
    """One serve daemon subprocess, started and stopped from here."""

    def __init__(self, work: Path, name: str, trace: bool) -> None:
        self.spool = work / f"{name}-spool"
        self.results = work / f"{name}-results"
        self.log = open(work / f"{name}.log", "w")
        self.started = mono()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_daemon.py"),
             "--src", str(SRC), "--spool", str(self.spool),
             "--results-dir", str(self.results), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split("//")[1].strip().split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=30)
        while True:
            try:
                status, body = self.request("GET", "/healthz")
            except (ConnectionError, http.client.HTTPException):
                self.conn.close()
                status, body = 0, {}
            if status == 200 and body.get("status") == "ok":
                break
            if self.proc.poll() is not None or mono() - self.started > 60:
                self.stop()
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.005)
        self.healthy = mono()

    def request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, data, headers)
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if getattr(self, "conn", None) is not None:
            self.conn.close()


def run_serve(seed: int, seconds: float, work: Path, trace: bool) -> dict:
    """serve-poisson: an open-loop Poisson job stream against a
    ``repro serve --jobs 2 --vectorized`` daemon. One thread and one
    connection send every job at its scheduled time, then poll the jobs
    to completion; latency runs from each job's scheduled arrival to
    the server's ``finished_at``."""
    setups = []
    for i in range(SERVE_SETUPS - 1):
        d = Daemon(work, f"setup{i}", False)
        setups.append(d.healthy - d.started)
        d.stop()
    daemon = Daemon(work, "daemon", trace)
    setups.append(daemon.healthy - daemon.started)
    schedule = serve_schedule(seconds)
    counters = dict.fromkeys(SERVE_SCENARIOS, 0)

    def submit(scenario: str, k: int) -> str | None:
        status, body = daemon.request(
            "POST", "/jobs",
            {"scenario": scenario, "seeds": [seed * 1000 + k],
             "rounds": SERVE_ROUNDS},
        )
        return body["job_id"] if status == 202 else None

    def wait_for(job_ids, timeout: float, poll: float) -> dict[str, dict]:
        done: dict[str, dict] = {}
        deadline = mono() + timeout
        pending = [j for j in job_ids if j is not None]
        while pending and mono() < deadline:
            for job_id in pending:
                _, body = daemon.request("GET", f"/jobs/{job_id}")
                if body.get("state") in ("done", "failed"):
                    done[job_id] = body
            pending = [j for j in pending if j not in done]
            if pending:
                time.sleep(poll)
        return done

    warmup = []  # (job_id or None, scenario, k)
    jobs = []  # (job_id or None, scenario, k, due_wall, lateness, rtt)
    try:
        # one untimed job per scenario first, so first-use costs in the
        # daemon and its workers stay out of the measured tail
        warmup = [(submit(s, SERVE_WARMUP_K), s, SERVE_WARMUP_K)
                  for s in SERVE_SCENARIOS]
        done = wait_for([j[0] for j in warmup], SERVE_DRAIN_TIMEOUT_S, 0.02)
        mono0, wall0 = mono(), time.time()
        for offset, scenario in schedule:
            k = counters[scenario]
            counters[scenario] += 1
            delay = mono0 + offset - mono()
            if delay > 0:
                time.sleep(delay)
            sent = mono()
            job_id = submit(scenario, k)
            rtt = mono() - sent
            jobs.append((job_id, scenario, k, wall0 + offset,
                         sent - mono0 - offset, rtt))
        done.update(wait_for([j[0] for j in jobs], SERVE_DRAIN_TIMEOUT_S,
                             0.25))
    finally:
        daemon.stop()
    lateness = [j[4] for j in jobs]
    if max(lateness) > SERVE_MAX_LATENESS_S:
        raise GeneratorBehind(
            f"the load generator sent a job {max(lateness):.3f} s late "
            f"(limit {SERVE_MAX_LATENESS_S} s); run not scored"
        )
    checks = Checks()
    cells, units, finished = [], {}, []
    untimed = [(job_id, s, k, None) for job_id, s, k in warmup]
    for job_id, scenario, k, due in untimed + [j[:4] for j in jobs]:
        unit = f"job {job_id or '(rejected)'} {scenario} k={k}"
        body = done.get(job_id)
        ok = body is not None and body["state"] == "done"
        checks.check(unit, ok, f"{unit}: rejected, failed or timed out")
        if ok:
            cell = serve_cell(scenario, seed, k)
            cells.append(cell)
            units[cell.cell_id] = unit
            if due is not None:
                finished.append((due, body))
    arts = check_artifacts(checks, daemon.results, cells, units)
    twin_checked = _check_batch_twins(checks, daemon.results, work, cells,
                                      units, arts)
    chunks = spans.read_spool(daemon.spool)
    probes = report.probe_records(chunks)
    warm_ids = {serve_cell(s, seed, SERVE_WARMUP_K).cell_id
                for _, s, _ in warmup}
    node_rounds = sum(p["n_nodes"] * p["total_rounds"] for p in probes
                      if p["cell_id"] not in warm_ids)
    lat = [body["finished_at"] - due for due, body in finished]
    last_finish = max(body["finished_at"] for _, body in finished)
    daemon_hwm = [e[1] for c in chunks for e in c["events"]
                  if e[0] == "daemon_hwm"]
    serve_layers = {
        "experiments.serve.submit_rtt_s_p50":
            report.percentile([j[5] for j in jobs], 50),
        "experiments.serve.queue_wait_s_p50": report.percentile(
            [b["started_at"] - b["submitted_at"] for _, b in finished], 50),
        "experiments.serve.queue_wait_s_p90": report.percentile(
            [b["started_at"] - b["submitted_at"] for _, b in finished], 90),
        "experiments.serve.run_s_p50": report.percentile(
            [b["finished_at"] - b["started_at"] for _, b in finished], 50),
    }
    return {
        "units": len(warmup) + len(jobs), "checks": checks,
        "spool": daemon.spool,
        "e2e": {
            "setup_s": report.median(setups),
            "node_rounds_per_s": node_rounds / (last_finish - wall0),
            "latency_p50_s": report.percentile(lat, 50),
            "latency_p90_s": report.percentile(lat, 90),
            "peak_rss_mib": daemon_hwm[0],
            "worker_peak_rss_mib": max(p["hwm_mib"] for p in probes),
        },
        "serve_layers": serve_layers,
        "samples": {"setup_s": len(setups), "latency": len(lat),
                    "latency_unit": "job",
                    "lateness_s_max": max(lateness),
                    "lateness_s_p50": report.percentile(lateness, 50),
                    "batch_twins": twin_checked},
    }


def _check_batch_twins(checks, results, work, cells, units, arts) -> int:
    """Re-run the first served cell of each scenario through
    ``run_cell`` and require byte-identical artifacts."""
    from repro.experiments import get_preset
    from repro.experiments.artifacts import artifact_path
    from repro.experiments.sweep import run_cell

    twins = work / "twins"
    seen: set[str] = set()
    for cell in cells:
        if cell.cell_id not in arts or cell.scenario in seen:
            continue
        seen.add(cell.scenario)
        run_cell(get_preset(cell.preset), cell, twins, vectorized=True)
        same = (artifact_path(twins, cell).read_bytes()
                == artifact_path(results, cell).read_bytes())
        checks.check(units[cell.cell_id], same,
                     f"{cell.cell_id}: served artifact differs from run_cell")
    return len(seen)


# -- entry points -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    if workload == "serve-poisson":
        # the daemon process installs its own recorder
        out = run_serve(seed, seconds, work, trace)
    else:
        rec = spans.install(work / "spool", trace)
        run = run_fleet if workload == "fleet-16k" else run_sweep_bench
        out = run(rec, seed, seconds, work)
        rec.flush()
        out["spool"] = rec.spool
    checks = out.pop("checks")
    result = {
        "attempted": out["units"],
        "failed": len(checks.failures),
        "checks_passed": checks.passed,
        "failures": [m for ms in checks.failures.values() for m in ms],
        "e2e": out["e2e"],
        "samples": out["samples"],
    }
    if trace:
        chunks = spans.read_spool(out["spool"])
        layers, result["shares"] = report.layer_metrics(chunks)
        layers.update(out.get("serve_layers", dict.fromkeys(
            report.SERVE_LAYERS, 0.0)))
        result["layers"] = layers
    return result


def record_digests() -> None:
    """Rewrite digests.json from the default seed's cells."""
    from repro.experiments import get_preset
    from repro.experiments.artifacts import artifact_path
    from repro.experiments.sweep import run_cell

    work = ROOT / ".perfbench-work" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    cells = [(fleet_cell(DEFAULT_SEED, k), FLEET_CHECKPOINT_EVERY)
             for k in range(DIGEST_CELLS["fleet-16k"])]
    for rep in range(DIGEST_CELLS["sweep-bench"]):
        cells += [(c, 0) for c in sweep_cells(DEFAULT_SEED, rep)]
    cells += [(serve_cell(s, DEFAULT_SEED, k), 0) for s in SERVE_SCENARIOS
              for k in range(DIGEST_CELLS["serve-poisson"])]
    digests = {}
    for cell, every in cells:
        run_cell(get_preset(cell.preset), cell, work,
                 checkpoint_every=every, vectorized=True)
        digests[cell.cell_id] = sha256(artifact_path(work, cell))
    shutil.rmtree(work)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("fleet-16k", "sweep-bench", "serve-poisson"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None or args.work is None:
        parser.error("--workload and --work are required")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.work)
    except GeneratorBehind as exc:
        print(str(exc), file=sys.stderr)
        return 3
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import report
    import spans

    sys.exit(main())
