"""``repro campaign --stats``, ``repro stats``, and the CI regression gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import metrics
from repro.obs.export import SCHEMA_FIELDS, load_bench, read_jsonl, write_bench

REPO_ROOT = Path(__file__).resolve().parents[2]
CHECKER = REPO_ROOT / "tools" / "check_bench_regression.py"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rec(metric, value, unit="tests/s"):
    return {"metric": metric, "value": value, "unit": unit, "scale": "quick", "git_sha": "abc"}


@pytest.fixture()
def bench_file(tmp_path, capsys):
    """A real bench.json from a small campaign (the acceptance command)."""
    target = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "campaign", "kmeans", "--tests", "8", "--seed", "3",
        "--stats", str(target),
    )
    assert code == 0
    assert "bench metrics" in out
    return target


# -- campaign --stats ----------------------------------------------------------


def test_campaign_stats_emits_valid_bench_json(bench_file):
    records = load_bench(bench_file)  # validates the schema
    assert all(set(r) == set(SCHEMA_FIELDS) for r in records)
    by_name = {r["metric"]: r["value"] for r in records}
    # Nonzero cache-level metrics from the memsim hierarchy...
    assert any(
        name.startswith("memsim.") and value
        for name, value in by_name.items()
    )
    # ...and nonzero span totals from the campaign pipeline.
    for span in ("span.campaign.total_s", "span.instrumented_run.total_s"):
        assert by_name[span] > 0
    assert by_name["campaign.tests"] == 8
    assert by_name["campaign.throughput"] > 0


def test_campaign_stats_writes_trace_jsonl(bench_file):
    trace = bench_file.with_suffix(".trace.jsonl")
    rows = read_jsonl(trace)
    assert rows, "trace JSONL must not be empty"
    names = {row["name"] for row in rows}
    assert "campaign" in names
    assert any(name.startswith("region:") for name in names)
    assert all({"index", "name", "start", "duration", "parent"} <= set(row) for row in rows)


def test_campaign_stats_leaves_the_gate_off_afterwards(bench_file):
    assert metrics.registry() is None


def test_campaign_without_stats_allocates_nothing(capsys, monkeypatch):
    monkeypatch.delenv(metrics.ENV_VAR, raising=False)
    metrics.reset()
    before = (metrics.Metric.allocations, metrics.MetricRegistry.allocations)
    code, _ = run_cli(capsys, "campaign", "kmeans", "--tests", "4")
    assert code == 0
    assert (metrics.Metric.allocations, metrics.MetricRegistry.allocations) == before


# -- repro stats ---------------------------------------------------------------


def test_stats_dump(bench_file, capsys):
    code, out = run_cli(capsys, "stats", str(bench_file))
    assert code == 0
    assert "campaign.throughput" in out


def test_stats_diff_self_is_ok(bench_file, capsys):
    code, out = run_cli(capsys, "stats", str(bench_file), str(bench_file), "--diff")
    assert code == 0
    assert "OK" in out


def test_stats_diff_regression_exits_1(tmp_path, capsys):
    base = write_bench(tmp_path / "base.json", [rec("campaign.throughput", 100.0)])
    cur = write_bench(tmp_path / "cur.json", [rec("campaign.throughput", 10.0)])
    code, out = run_cli(capsys, "stats", str(cur), str(base), "--diff")
    assert code == 1
    assert "REGRESSION" in out


def test_stats_diff_threshold_flag(tmp_path, capsys):
    base = write_bench(tmp_path / "base.json", [rec("campaign.throughput", 100.0)])
    cur = write_bench(tmp_path / "cur.json", [rec("campaign.throughput", 80.0)])
    code, _ = run_cli(capsys, "stats", str(cur), str(base), "--diff")
    assert code == 1  # 20% drop fails the default 15% gate
    code, _ = run_cli(capsys, "stats", str(cur), str(base), "--diff", "--threshold", "0.25")
    assert code == 0


def test_stats_diff_needs_exactly_two_files(tmp_path, capsys):
    path = write_bench(tmp_path / "one.json", [rec("x", 1.0)])
    code, _ = run_cli(capsys, "stats", str(path), "--diff")
    assert code == 2


def test_stats_unreadable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _ = run_cli(capsys, "stats", str(bad))
    assert code == 2
    code, _ = run_cli(capsys, "stats", str(tmp_path / "absent.json"))
    assert code == 2


# -- tools/check_bench_regression.py -------------------------------------------


def run_checker(*argv):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )


def test_checker_ok_exit_0(tmp_path):
    doc = [rec("campaign.throughput", 100.0)]
    base = write_bench(tmp_path / "base.json", doc)
    cur = write_bench(tmp_path / "cur.json", doc)
    proc = run_checker(cur, base)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_checker_regression_exit_1(tmp_path):
    base = write_bench(tmp_path / "base.json", [rec("campaign.throughput", 100.0)])
    cur = write_bench(tmp_path / "cur.json", [rec("campaign.throughput", 10.0)])
    proc = run_checker(cur, base)
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stdout


def test_checker_bad_input_exit_2(tmp_path):
    base = write_bench(tmp_path / "base.json", [rec("x", 1.0)])
    proc = run_checker(tmp_path / "absent.json", base)
    assert proc.returncode == 2


def test_checker_threshold_flag(tmp_path):
    base = write_bench(tmp_path / "base.json", [rec("campaign.throughput", 100.0)])
    cur = write_bench(tmp_path / "cur.json", [rec("campaign.throughput", 80.0)])
    assert run_checker(cur, base).returncode == 1
    assert run_checker(cur, base, "--threshold", "0.25").returncode == 0


def test_committed_baseline_is_valid():
    baseline = REPO_ROOT / "benchmarks" / "baseline" / "bench.json"
    records = load_bench(baseline)
    by_name = {r["metric"] for r in records}
    assert "campaign.throughput" in by_name
    assert "calibration.ops_per_s" in by_name
    raw = baseline.read_text(encoding="utf-8")
    assert json.loads(raw)  # plain JSON, no trailing junk
    assert raw.endswith("\n") and not raw.endswith("\n\n")


def test_checker_nothing_gated_exit_2(tmp_path):
    """Documents that share no gated metric compare nothing: a failure,
    never an `OK`."""
    base = write_bench(tmp_path / "base.json", [rec("campaign.throughput", 100.0)])
    cur = write_bench(tmp_path / "cur.json", [rec("sim.throughput", 5.0, unit="blocks/s")])
    proc = run_checker(cur, base)
    assert proc.returncode == 2
    assert "NOTHING GATED" in proc.stdout and "OK" not in proc.stdout


def test_stats_diff_nothing_gated_exits_2(tmp_path, capsys):
    base = write_bench(tmp_path / "base.json", [rec("campaign.tests", 9, unit="tests")])
    code, out = run_cli(capsys, "stats", str(base), str(base), "--diff")
    assert code == 2
    assert "NOTHING GATED" in out
