"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload (see ``BENCHMARK.json`` and ``README.md`` beside this
file) in a fresh process, checks its outputs, prints a human-readable
report, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the workload runs twice, untraced
and then traced, and the metrics are the per-layer ones, including the
tracing overhead.

Exit codes: 0 when every check passed, 1 when a correctness check
failed (the JSON line still prints), 2 when the run could not be
measured (no ``src/repro`` in this checkout, a crash or a timeout), 3
when the serve load generator fell behind its schedule.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-16k", "sweep-bench", "serve-poisson")
#: the whole invocation must end within this many seconds
BUDGET_S = 170.0


def fail(code: int, message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def stop_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of ``proc``'s process group and wait
    until it is gone."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    finally:
        proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(workload: str, seed: int, seconds: int, trace: bool,
            work: Path, timeout: float) -> dict:
    """One pass of the workload in a fresh process group."""
    work.mkdir(parents=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--work", str(work)],
        stdout=sys.stderr, start_new_session=True,
        env=dict(os.environ, TMPDIR=str(work)),
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc)
    if code is None:
        fail(2, f"{workload} did not finish within {timeout:.0f} s")
    if code == 3:
        fail(3, f"{workload}: the load generator fell behind; not scored")
    if code != 0:
        fail(2, f"{workload} exited with code {code}")
    return json.loads((work / "result.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(2, f"no src/repro under {ROOT}: nothing to benchmark")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    passes = (False, True) if args.trace else (False,)
    try:
        results = [
            measure(args.workload, args.seed, args.seconds, trace,
                    work / ("traced" if trace else "plain"),
                    BUDGET_S / len(passes))
            for trace in passes
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = results[0]
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds}")
    for name, value in plain["e2e"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in plain["samples"].items()))
    metrics = {name: plain["e2e"][name] for name in units if name in plain["e2e"]}
    if args.trace:
        traced = results[1]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            traced["e2e"]["latency_p50_s"] / plain["e2e"]["latency_p50_s"] - 1.0)
        print("  traced end-to-end: " + ", ".join(
            f"{k}={v:.6g}" for k, v in traced["e2e"].items()))
        print("  per layer (share of cell wall time):")
        for name in (m["name"] for m in spec["per_layer"]):
            share = traced["shares"].get(name)
            tail = f"  {share:6.1%}" if share is not None else ""
            print(f"    {name:<36} {layers[name]:>14.6g} {units[name]}{tail}")
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    failures = [f for r in results for f in r["failures"]]
    for message in failures:
        print(f"  FAILED: {message}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["checks_passed"] > 0 for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
