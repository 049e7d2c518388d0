"""The serve-poisson daemon: ``repro serve --jobs 2 --vectorized`` with the
benchmark's probe (and, under ``--trace 1``, its layer wrappers)
installed before the daemon forks its pool.

Run by :mod:`workloads`; prints ``serving on <url>`` once listening,
drains on SIGTERM, and writes its recorder chunk, including its own
peak RSS, to the spool before exiting.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(HERE))
    from spans import install, vm_hwm_mib

    rec = install(args.spool, bool(args.trace))
    from repro.experiments.serve import ScenarioServer, ServeConfig

    server = ScenarioServer(ServeConfig(
        results_dir=args.results_dir, port=0, jobs=2, vectorized=True,
        log=None,
    ))
    server.start()
    print(f"serving on {server.url}", flush=True)
    code = server.serve_forever()
    rec.events.append(("daemon_hwm", vm_hwm_mib(), time.monotonic()))
    rec.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
