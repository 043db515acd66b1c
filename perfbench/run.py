"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs every
unit twice, once with spans recorded around the program's layers, and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it are a table for people.  The program is
read from the checkout's ``src/``; without it the run fails at once.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _use_checkout() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'repro'}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _stop(signum: int, _frame: object) -> None:
    # turn a termination request into SystemExit, so the runner's
    # cleanup stops the daemon it started
    raise SystemExit(128 + signum)


def _default_sigterm() -> None:
    # forked pool workers must die on SIGTERM, as their pool expects
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "sweep", "crash"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _use_checkout()
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _stop)
    os.register_at_fork(after_in_child=_default_sigterm)
    from perfbench import suite

    report = suite.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), ROOT)
    print_report(report)
    return 0


def print_report(report: dict) -> None:
    """The table for people, then the one-line JSON result."""
    attempted, failed = report["attempted"], report["failed"]
    rows = [(name, value, unit)
            for name, (value, unit) in report["metrics"].items()]
    rows.append(("error_rate", failed / max(attempted, 1),
                 "failed/attempted"))
    width = max(len(name) for name, _, _ in rows)
    print(f"# {report['workload']} seed={report['seed']} "
          f"trace={int(report['trace'])} units={report['units']}")
    if "machine_speed" in report:
        print(f"# machine speed {report['machine_speed']:.4g} loops/s; "
              "host-time figures are scaled to the reference speed")
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>16.6g}  {unit}")
    print(f"simulated-statistics sha256  {report['digest']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a rate no unit could measure (every attempt failed) is null
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
