#!/usr/bin/env python3
"""CI perf-regression gate: compare a bench.json against the baseline.

Usage::

    python tools/check_bench_regression.py CURRENT BASELINE [--threshold 0.15]

Exit codes: ``0`` no gated metric regressed, ``1`` at least one rate
metric (unit ``*/s``) dropped more than ``threshold`` below the
baseline after calibration normalization, ``2`` unusable input — which
includes two documents with no gated metric in common, since such a
comparison checks nothing.

The comparison logic lives in :func:`repro.obs.export.diff_bench` (also
reachable as ``repro stats --diff``); this wrapper only adds the
``sys.path`` bootstrap so CI can call it without installing the package.

Refreshing the committed baseline after an intentional perf change::

    REPRO_BENCH_SCALE=quick PYTHONPATH=src \\
        python -m repro campaign EP --tests 40 --stats benchmarks/baseline/bench.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.export import diff_bench, load_bench, render_diff  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="bench.json measured by this run")
    parser.add_argument("baseline", help="committed baseline bench.json")
    parser.add_argument(
        "--threshold", type=float, default=0.15, metavar="FRAC",
        help="allowed fractional slowdown of gated rate metrics (default 0.15)",
    )
    args = parser.parse_args(argv)
    try:
        current = load_bench(args.current)
        baseline = load_bench(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"check_bench_regression: {exc}", file=sys.stderr)
        return 2
    diff = diff_bench(current, baseline, threshold=args.threshold)
    print(render_diff(diff))
    return diff.exit_code


if __name__ == "__main__":
    sys.exit(main())
