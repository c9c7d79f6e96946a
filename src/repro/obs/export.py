"""Machine-readable telemetry artifacts: bench.json, JSONL traces, diffs.

The exchange format is deliberately tiny — a ``bench.json`` file is a
JSON array of flat records::

    {"metric": "campaign.throughput", "value": 41.7, "unit": "tests/s",
     "scale": "quick", "git_sha": "d4b5b51"}

Every figure/table driver, the ``repro campaign --stats`` CLI path and
the benchmark session hook all emit this one schema, so a single checker
(:func:`diff_bench`, wrapped by ``tools/check_bench_regression.py`` and
``repro stats --diff``) gates them all.

Gating semantics: only *rate* metrics (unit ending in ``/s``) are
compared against the threshold — counters and gauges are informational
(they are either deterministic, where any drift is a correctness matter
for the test suite, or machine-dependent absolutes).  When both files
carry the :data:`CALIBRATION_METRIC` record (a fixed NumPy workload
timed at export), rates are normalized by the machines' calibration
ratio first, which keeps a committed baseline meaningful across runner
generations.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.obs.metrics import Histogram, MetricRegistry

__all__ = [
    "SCHEMA_FIELDS",
    "CALIBRATION_METRIC",
    "git_sha",
    "calibration_ops_per_s",
    "bench_records",
    "validate_bench",
    "load_bench",
    "write_bench",
    "write_text",
    "write_json",
    "write_jsonl",
    "read_jsonl",
    "render_bench",
    "BenchDiff",
    "diff_bench",
    "render_diff",
]

SCHEMA_FIELDS = ("metric", "value", "unit", "scale", "git_sha")

#: Machine-speed yardstick included in every bench.json (see module doc).
CALIBRATION_METRIC = "calibration.ops_per_s"

_CALIBRATION_ELEMS = 1 << 18  # ~2 MB of float64: larger than L1/L2, cache-stable


def git_sha(root: str | Path | None = None) -> str:
    """Short commit id of ``root`` (default: this package's repository);
    ``unknown`` outside a git checkout."""
    cwd = Path(root) if root is not None else Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def calibration_ops_per_s(repeats: int = 5) -> float:
    """Element-updates per second of a fixed vector workload (~20 ms).

    Deliberately simple and allocation-free in the timed region so the
    number tracks the machine, not the allocator or the BLAS build.
    """
    a = np.arange(_CALIBRATION_ELEMS, dtype=np.float64)
    b = np.ones(_CALIBRATION_ELEMS, dtype=np.float64)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(a, 1.0000001, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    return 2 * _CALIBRATION_ELEMS / best


# -- record assembly -----------------------------------------------------------


def _record(metric: str, value: float, unit: str, scale: str, sha: str) -> dict[str, object]:
    return {"metric": metric, "value": value, "unit": unit, "scale": scale, "git_sha": sha}


def bench_records(
    reg: MetricRegistry,
    scale: str = "default",
    sha: str | None = None,
    calibrate: bool = True,
) -> list[dict[str, object]]:
    """Flatten a registry (metrics + span aggregates) into bench records.

    Derived rate metrics are appended where their ingredients exist:
    ``campaign.throughput`` (crash tests per second of ``campaign`` span
    time) and ``sim.throughput`` (simulated blocks per second of
    ``instrumented_run`` span time) — the two rates the CI perf gate
    compares against the committed baseline.
    """
    sha = sha if sha is not None else git_sha()
    records: list[dict[str, object]] = []
    for name in reg.names():
        metric = reg.get(name)
        assert metric is not None
        if isinstance(metric, Histogram):
            records.append(_record(f"{name}.count", metric.count, "samples", scale, sha))
            if metric.count:
                records.append(_record(f"{name}.mean", metric.mean, metric.unit, scale, sha))
                records.append(_record(f"{name}.max", metric.max, metric.unit, scale, sha))
        else:
            records.append(_record(name, getattr(metric, "value"), metric.unit, scale, sha))
    for span_name in reg.tracer.names():
        safe = span_name.replace(" ", "_")
        records.append(
            _record(f"span.{safe}.total_s", reg.tracer.total(span_name), "s", scale, sha)
        )
        records.append(
            _record(f"span.{safe}.count", reg.tracer.count(span_name), "spans", scale, sha)
        )
    by_name = {r["metric"]: r["value"] for r in records}
    for rate, numerator, span in (
        ("campaign.throughput", "campaign.tests", "campaign"),
        ("sim.throughput", "runtime.accesses", "instrumented_run"),
    ):
        n = by_name.get(numerator)
        elapsed = reg.tracer.total(span)
        if n and elapsed > 0:
            unit = "tests/s" if rate.startswith("campaign") else "blocks/s"
            records.append(_record(rate, float(n) / elapsed, unit, scale, sha))
    if calibrate:
        records.append(_record(CALIBRATION_METRIC, calibration_ops_per_s(), "ops/s", scale, sha))
    return records


def validate_bench(records: object) -> list[dict[str, object]]:
    """Schema-check a loaded bench document; raises ``ValueError``."""
    if not isinstance(records, list):
        raise ValueError("bench.json must be a JSON array of records")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"record {i}: not an object")
        for key in SCHEMA_FIELDS:
            if key not in rec:
                raise ValueError(f"record {i}: missing field {key!r}")
        if not isinstance(rec["metric"], str) or not rec["metric"]:
            raise ValueError(f"record {i}: 'metric' must be a non-empty string")
        if not isinstance(rec["value"], (int, float)) or isinstance(rec["value"], bool):
            raise ValueError(f"record {i} ({rec['metric']}): 'value' must be a number")
    return records


def load_bench(path: str | Path) -> list[dict[str, object]]:
    """Load a bench document, verifying its integrity envelope.

    Enveloped documents (written by :func:`write_bench` since the store
    era) have their payload CRC checked — a mismatch raises the typed
    :class:`~repro.errors.SnapshotCorruptError`.  Pre-envelope (v0)
    documents — bare JSON arrays, like the committed CI baseline — pass
    through the legacy shim unverified.
    """
    from repro.harness.store import open_json_doc

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return validate_bench(open_json_doc(doc))


# -- the one writer ------------------------------------------------------------


def write_text(path: str | Path, text: str) -> Path:
    """The repository's artifact writer: parent dirs created, UTF-8,
    exactly one trailing newline, **atomic and durable**.  Text reports,
    JSON twins, bench files and saved campaigns all go through here so
    the guarantees cannot drift apart: it delegates to
    :func:`repro.harness.store.atomic_write_bytes` (fsync'd same-dir temp
    file + ``os.replace`` + directory fsync), so a crash mid-write leaves
    either the old artifact or the new one — never a torn file."""
    from repro.harness.store import atomic_write_bytes

    return atomic_write_bytes(path, (text.rstrip("\n") + "\n").encode("utf-8"))


def write_json(path: str | Path, obj: object) -> Path:
    return write_text(path, json.dumps(obj, indent=1, sort_keys=True))


def write_bench(path: str | Path, records: Sequence[dict[str, object]]) -> Path:
    """Write a bench document wrapped in the store's in-document envelope.

    The file stays a plain JSON document (external tooling can still
    parse it — the records live under ``"payload"``), but gains a header
    with a payload CRC that :func:`load_bench` verifies.
    """
    from repro.harness.store import seal_json_doc

    return write_json(path, seal_json_doc(validate_bench(list(records))))


def write_jsonl(path: str | Path, rows: Iterable[dict[str, object]]) -> Path:
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    return write_text(path, "\n".join(lines) if lines else "")


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out


def render_bench(records: Sequence[dict[str, object]]) -> str:
    """Aligned dump of a bench document (``repro stats FILE``)."""
    from repro.util.tables import render_table

    rows = [
        [str(r["metric"]), float(r["value"]), str(r["unit"]), str(r["scale"]), str(r["git_sha"])]
        for r in records
    ]
    return render_table(
        ["Metric", "Value", "Unit", "Scale", "Git"], rows, float_fmt="{:.6g}"
    )


# -- regression diffing --------------------------------------------------------


def _is_gated(metric: str, unit: str) -> bool:
    return unit.endswith("/s") and metric != CALIBRATION_METRIC


@dataclass
class BenchDiff:
    """Comparison of a current bench document against a baseline."""

    threshold: float
    calibration_ratio: float | None  # current speed / baseline speed, if known
    # (metric, current, baseline, normalized current/baseline ratio, gated)
    rows: list[tuple[str, float, float, float, bool]] = field(default_factory=list)
    regressions: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # baseline metrics absent now

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def n_gated(self) -> int:
        """Gated metrics the two documents have in common."""
        return sum(1 for row in self.rows if row[4])

    @property
    def exit_code(self) -> int:
        """1 on a regression, 2 when nothing was gated (the comparison
        checked nothing), else 0."""
        if not self.ok:
            return 1
        return 0 if self.n_gated else 2


def diff_bench(
    current: Sequence[dict[str, object]],
    baseline: Sequence[dict[str, object]],
    threshold: float = 0.15,
) -> BenchDiff:
    """Compare rate metrics (higher is better) against ``baseline``.

    A gated metric regresses when its calibration-normalized value drops
    more than ``threshold`` below the baseline.  Metrics present only on
    one side never fail the gate (they are listed as ``missing`` when the
    baseline had them), so adding instrumentation cannot break CI.

    The calibration correction is one-sided: a machine slower than the
    baseline's is fully forgiven (rates are scaled up by the speed
    deficit), but a machine that merely *benchmarks* faster is not asked
    for proportionally more throughput — the correction is capped at 1.0
    there.  Calibration is a ~20 ms micro-measurement with around 10 %
    jitter on shared runners; demanding extra throughput because it
    spiked high would fail healthy builds, while the capped direction
    only ever makes the gate more lenient than a raw comparison.
    """
    cur = {str(r["metric"]): (float(r["value"]), str(r["unit"])) for r in current}
    base = {str(r["metric"]): (float(r["value"]), str(r["unit"])) for r in baseline}
    cal = None
    if CALIBRATION_METRIC in cur and CALIBRATION_METRIC in base:
        base_cal = base[CALIBRATION_METRIC][0]
        if base_cal > 0 and cur[CALIBRATION_METRIC][0] > 0:
            cal = cur[CALIBRATION_METRIC][0] / base_cal
    diff = BenchDiff(threshold=threshold, calibration_ratio=cal)
    for metric in sorted(set(cur) & set(base)):
        value, unit = cur[metric]
        base_value = base[metric][0]
        gated = _is_gated(metric, unit)
        if base_value == 0:
            ratio = float("inf") if value else 1.0
        else:
            ratio = value / base_value
            if gated and cal:
                # Discount machine-speed differences, one-sided (see doc).
                ratio /= min(cal, 1.0)
        diff.rows.append((metric, value, base_value, ratio, gated))
        if gated and ratio < 1.0 - threshold:
            diff.regressions.append(
                f"{metric}: {value:.6g} vs baseline {base_value:.6g} "
                f"(normalized x{ratio:.3f} < {1.0 - threshold:.2f})"
            )
    diff.missing = sorted(set(base) - set(cur))
    return diff


def render_diff(diff: BenchDiff) -> str:
    from repro.util.tables import render_table

    rows = [
        [m, c, b, f"x{r:.3f}", "gate" if g else ""]
        for m, c, b, r, g in diff.rows
    ]
    out = render_table(
        ["Metric", "Current", "Baseline", "Ratio*", "Gated"],
        rows,
        title="bench diff (*rate ratios are calibration-normalized; gate fails below "
        f"x{1.0 - diff.threshold:.2f})",
        float_fmt="{:.6g}",
    )
    if diff.calibration_ratio is not None:
        out += f"\n(machine calibration: current is x{diff.calibration_ratio:.3f} of baseline)"
    if diff.missing:
        out += "\n(baseline metrics not measured here: " + ", ".join(diff.missing) + ")"
    if not diff.ok:
        out += "\nREGRESSION:\n  " + "\n  ".join(diff.regressions)
    elif not diff.n_gated:
        out += "\nNOTHING GATED: no gated rate metric in common with the baseline"
    else:
        out += f"\nOK ({diff.n_gated} gated)"
    return out
