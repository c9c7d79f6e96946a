"""bench.json schema, the shared artifact writer, and regression diffing."""

import json

import pytest

from repro.obs import metrics
from repro.obs.export import (
    CALIBRATION_METRIC,
    SCHEMA_FIELDS,
    BenchDiff,
    bench_records,
    diff_bench,
    load_bench,
    read_jsonl,
    render_bench,
    render_diff,
    validate_bench,
    write_bench,
    write_jsonl,
    write_text,
)


def rec(metric, value, unit="tests/s", scale="quick", git_sha="abc1234"):
    return {"metric": metric, "value": value, "unit": unit, "scale": scale, "git_sha": git_sha}


# -- record assembly -----------------------------------------------------------


def test_bench_records_cover_all_metric_kinds():
    reg = metrics.MetricRegistry()
    reg.counter("c", unit="blocks").inc(7)
    reg.gauge("g", unit="ratio").set(0.5)
    h = reg.histogram("h", unit="blocks")
    h.observe(2)
    h.observe(6)
    with reg.tracer.span("phase"):
        pass
    records = validate_bench(bench_records(reg, scale="quick", sha="abc", calibrate=False))
    by_name = {r["metric"]: r for r in records}
    assert by_name["c"]["value"] == 7
    assert by_name["g"]["value"] == 0.5
    assert by_name["h.count"]["value"] == 2
    assert by_name["h.mean"]["value"] == 4
    assert by_name["h.max"]["value"] == 6
    assert by_name["span.phase.count"]["value"] == 1
    assert by_name["span.phase.total_s"]["unit"] == "s"
    assert all(r["scale"] == "quick" and r["git_sha"] == "abc" for r in records)


def test_bench_records_derive_throughputs():
    reg = metrics.MetricRegistry()
    reg.counter("campaign.tests", unit="tests").inc(40)
    reg.counter("runtime.accesses", unit="blocks").inc(1000)
    reg.tracer.record("campaign", 0.0, 2.0)
    reg.tracer.record("instrumented_run", 0.0, 4.0)
    by_name = {r["metric"]: r for r in bench_records(reg, calibrate=False)}
    assert by_name["campaign.throughput"]["value"] == pytest.approx(20.0)
    assert by_name["campaign.throughput"]["unit"] == "tests/s"
    assert by_name["sim.throughput"]["value"] == pytest.approx(250.0)
    assert by_name["sim.throughput"]["unit"] == "blocks/s"


def test_bench_records_calibration_record():
    reg = metrics.MetricRegistry()
    records = bench_records(reg, calibrate=True)
    (cal,) = [r for r in records if r["metric"] == CALIBRATION_METRIC]
    assert cal["unit"] == "ops/s"
    assert cal["value"] > 0


# -- schema validation ---------------------------------------------------------


def test_validate_rejects_non_array():
    with pytest.raises(ValueError, match="array"):
        validate_bench({"metric": "x"})


def test_validate_rejects_missing_field():
    bad = rec("x", 1.0)
    del bad["unit"]
    with pytest.raises(ValueError, match="unit"):
        validate_bench([bad])


def test_validate_rejects_non_numeric_value():
    with pytest.raises(ValueError, match="number"):
        validate_bench([rec("x", "fast")])
    with pytest.raises(ValueError, match="number"):
        validate_bench([rec("x", True)])


def test_load_bench_round_trip(tmp_path):
    path = write_bench(tmp_path / "bench.json", [rec("x", 1.5)])
    assert load_bench(path) == [rec("x", 1.5)]


# -- the one writer ------------------------------------------------------------


def test_write_text_creates_parents_and_normalizes_newline(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_text(path, "hello\n\n\n")
    raw = path.read_bytes()
    assert raw == b"hello\n"  # utf-8, exactly one trailing newline


def test_write_text_utf8(tmp_path):
    path = write_text(tmp_path / "out.txt", "μs — ok")
    assert path.read_text(encoding="utf-8") == "μs — ok\n"


def test_jsonl_round_trip(tmp_path):
    rows = [{"a": 1}, {"b": [1, 2]}, {"c": "x"}]
    path = write_jsonl(tmp_path / "trace.jsonl", rows)
    assert read_jsonl(path) == rows
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_jsonl_empty(tmp_path):
    path = write_jsonl(tmp_path / "trace.jsonl", [])
    assert read_jsonl(path) == []


def test_render_bench_lists_every_metric():
    out = render_bench([rec("alpha", 1.0), rec("beta", 2.0)])
    assert "alpha" in out and "beta" in out


# -- regression diffing --------------------------------------------------------


def test_identical_documents_pass():
    doc = [rec("campaign.throughput", 40.0), rec("n", 7, unit="tests")]
    diff = diff_bench(doc, doc)
    assert diff.ok
    assert diff.regressions == []
    assert diff.missing == []


def test_rate_below_threshold_regresses():
    base = [rec("campaign.throughput", 100.0)]
    cur = [rec("campaign.throughput", 80.0)]
    diff = diff_bench(cur, base, threshold=0.15)
    assert not diff.ok
    assert "campaign.throughput" in diff.regressions[0]


def test_rate_within_threshold_passes():
    base = [rec("campaign.throughput", 100.0)]
    cur = [rec("campaign.throughput", 90.0)]
    assert diff_bench(cur, base, threshold=0.15).ok


def test_counters_are_not_gated():
    base = [rec("campaign.tests", 100, unit="tests")]
    cur = [rec("campaign.tests", 1, unit="tests")]
    diff = diff_bench(cur, base)
    assert diff.ok
    assert diff.rows[0][4] is False  # gated flag


def test_calibration_normalizes_rates():
    # Baseline machine was 2x faster; raw throughput halved — but so did
    # the calibration, so the normalized ratio is 1.0 and the gate passes.
    base = [rec("campaign.throughput", 100.0), rec(CALIBRATION_METRIC, 2e9, unit="ops/s")]
    cur = [rec("campaign.throughput", 50.0), rec(CALIBRATION_METRIC, 1e9, unit="ops/s")]
    diff = diff_bench(cur, base)
    assert diff.calibration_ratio == pytest.approx(0.5)
    assert diff.ok
    (row,) = [r for r in diff.rows if r[0] == "campaign.throughput"]
    assert row[3] == pytest.approx(1.0)


def test_calibration_correction_is_one_sided():
    # Current machine benchmarks 2x *faster*: the gate must not demand 2x
    # throughput (calibration jitter would fail healthy builds) — the
    # correction caps at 1.0 and the comparison falls back to raw ratios.
    base = [rec("campaign.throughput", 100.0), rec(CALIBRATION_METRIC, 1e9, unit="ops/s")]
    cur = [rec("campaign.throughput", 95.0), rec(CALIBRATION_METRIC, 2e9, unit="ops/s")]
    diff = diff_bench(cur, base)
    assert diff.calibration_ratio == pytest.approx(2.0)  # reported raw
    assert diff.ok
    (row,) = [r for r in diff.rows if r[0] == "campaign.throughput"]
    assert row[3] == pytest.approx(0.95)


def test_calibration_metric_itself_is_not_gated():
    base = [rec(CALIBRATION_METRIC, 2e9, unit="ops/s")]
    cur = [rec(CALIBRATION_METRIC, 1e9, unit="ops/s")]
    assert diff_bench(cur, base).ok


def test_baseline_metrics_absent_now_are_reported_not_failed():
    base = [rec("campaign.throughput", 100.0), rec("sim.throughput", 5.0, unit="blocks/s")]
    cur = [rec("campaign.throughput", 100.0)]
    diff = diff_bench(cur, base)
    assert diff.ok
    assert diff.missing == ["sim.throughput"]


def test_render_diff_states_the_verdict():
    ok = diff_bench([rec("x", 1.0)], [rec("x", 1.0)])
    assert "OK" in render_diff(ok)
    bad = diff_bench([rec("x", 1.0)], [rec("x", 100.0)])
    assert "REGRESSION" in render_diff(bad)


def test_benchdiff_ok_property():
    assert BenchDiff(threshold=0.15, calibration_ratio=None).ok
    assert not BenchDiff(threshold=0.15, calibration_ratio=None, regressions=["x"]).ok


def test_schema_fields_constant():
    assert SCHEMA_FIELDS == ("metric", "value", "unit", "scale", "git_sha")
    assert set(rec("x", 1.0)) == set(SCHEMA_FIELDS)


def test_bench_json_on_disk_is_pretty_and_newline_terminated(tmp_path):
    path = write_bench(tmp_path / "bench.json", [rec("x", 1.0)])
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and not text.endswith("\n\n")
    # still a plain JSON document: the records live under "payload",
    # beside the integrity header external tools can ignore
    doc = json.loads(text)
    assert doc["payload"] == [rec("x", 1.0)]
    assert "payload_crc32" in doc["__repro_store__"]


def test_diff_counts_gated_metrics_in_common():
    base = [rec("campaign.throughput", 100.0), rec("campaign.tests", 9, unit="tests")]
    assert diff_bench(base, base).n_gated == 1
    assert diff_bench(base, base).exit_code == 0
    nothing = diff_bench([rec("campaign.tests", 9, unit="tests")], base)
    assert nothing.ok and nothing.n_gated == 0
    assert nothing.exit_code == 2
    regressed = BenchDiff(threshold=0.15, calibration_ratio=None, regressions=["x"])
    assert regressed.exit_code == 1
    assert "NOTHING GATED" in render_diff(nothing)
