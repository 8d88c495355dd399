"""Run one workload of the stage benchmark and print its metrics.

    python3 stagebench/run.py --workload pretrain --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: dualprune is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.  A record
of everything measured goes to ``.stagebench/records/``.  ``--smoke`` runs
two rounds at tiny size with every check.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from stagebench import environment  # noqa: E402  (no numpy import; must precede numpy)

environment.pin_blas()
MALLOC_PINNED = environment.pin_malloc()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

EXIT_NO_PROGRAM = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "score", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two rounds at tiny size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program():
    """dualprune from this checkout's src/, or exit if the checkout has none."""
    try:
        import dualprune
    except ImportError as e:
        print(f"stagebench: cannot import dualprune from {ROOT / 'src'}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM) from None
    if not Path(dualprune.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stagebench: dualprune was imported from {dualprune.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    return dualprune


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    from stagebench.workloads import Run

    threads = environment.effective_threads()
    if threads != 1:
        print(f"stagebench: BLAS reports {threads} threads, not 1", file=sys.stderr)
    if not MALLOC_PINNED:
        print("stagebench: could not fix malloc thresholds; timings may not repeat", file=sys.stderr)
    state = ROOT / ".stagebench"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
              state / f"work-{args.workload}-{os.getpid()}", threads)
    try:
        result = run.execute()
    finally:
        run.cleanup()

    records = state / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = run.record(result)
    record.update(numpy_version=np.__version__, blas_threads=threads, malloc_pinned=MALLOC_PINNED,
                  python_version=platform.python_version(), smoke=args.smoke)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    (records / f"{name}-{os.getpid()}.json").write_text(json.dumps(record, indent=1) + "\n")

    for metric, m in result["metrics"].items():
        print(f"{metric:<40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'checks':<40s} {'passed' if result['correct'] else 'FAILED':>16s}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
