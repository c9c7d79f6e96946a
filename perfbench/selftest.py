"""Fast self-test of the benchmark on a tiny EP campaign (about 15 s).

    python3 perfbench/selftest.py

Checks that:

* an untraced run emits every end-to-end metric of BENCHMARK.json with
  its unit, and a traced run every per-layer metric, for the inline and
  the service engine;
* a corrupted oracle digest fails the run;
* a layer whose function no longer resolves reports its metrics as
  missing (``None``), never as 0, while the other layers still measure.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from layers import PER_LAYER, LAYER_TARGETS, Tracer, span_metrics
from run import END_TO_END_UNITS, ROOT, RUN_DIR, Workload, measure, run_child

TINY = Workload("EP", 4, "inline")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def emitted(result: dict, declared: list[dict]) -> bool:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    return got == want and all(isinstance(v, (int, float)) for v in values)


def check_metrics_and_oracle() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
        and {m["name"]: m["unit"] for m in bench["per_layer"]}
        == {name: unit for name, (unit, _layer) in PER_LAYER.items()},
        "BENCHMARK.json declares exactly the metrics the benchmark computes",
    )
    ref = run_child(TINY, 0, RUN_DIR / "selftest-ref")
    shutil.rmtree(RUN_DIR / "selftest-ref", ignore_errors=True)
    oracle = {TINY.campaign: {"nvm_writes": ref["nvm_writes"], "digests": {"0": ref["digest"]}}}
    result, _samples, code = measure(TINY, 0, 0, False, oracle)
    expect(code == 0 and result["correct"] and emitted(result, bench["end_to_end"]),
           "untraced run emits every end-to-end metric with its unit")
    expect(all(m["value"] > 0 for m in result["metrics"].values()),
           "every end-to-end metric is non-zero")
    for engine in ("inline", "service"):
        wl = Workload(TINY.app, TINY.tests, engine)
        result, _samples, code = measure(wl, 0, 0, True, oracle)
        expect(code == 0 and emitted(result, bench["per_layer"]),
               f"traced {engine} run emits every per-layer metric with its unit")
        layer = "service.messages" if engine == "service" else "classify.trials"
        expect(result["metrics"][layer]["value"] > 0, f"traced {engine} run measures {layer}")

    corrupt = {TINY.campaign: dict(oracle[TINY.campaign], digests={"0": "0" * 64})}
    result, _samples, code = measure(TINY, 0, 0, False, corrupt)
    expect(code != 0 and not result["correct"], "a corrupted oracle digest fails the run")
    wrong_writes = {TINY.campaign: dict(oracle[TINY.campaign], nvm_writes=ref["nvm_writes"] + 1)}
    result, _samples, code = measure(TINY, 0, 0, False, wrong_writes)
    expect(code != 0 and not result["correct"], "a wrong memsim.nvm_writes fails the run")


def check_missing_layer() -> None:
    """In this process: rename one classify target, run a campaign."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.apps.registry import get_factory
    from repro.nvct import campaign

    targets = dict(LAYER_TARGETS, classify=("repro.nvct.campaign._classify_trial_renamed",))
    out_dir = RUN_DIR / "selftest-spans"
    tracer = Tracer("selftest", out_dir)
    tracer.install(targets)
    root = tracer.begin("campaign", "campaign")
    campaign.run_campaign(get_factory(TINY.app), campaign.CampaignConfig(n_tests=TINY.tests))
    tracer.end(root)
    metrics = span_metrics(tracer.collect(), root, tracer.missing)
    classify = [v for k, v in metrics.items() if k.startswith("classify.")]
    expect(bool(classify) and all(v is None for v in classify),
           "a layer whose function does not resolve reports missing, not 0")
    expect(metrics["instrumented.calls"] == 1 and metrics["golden.busy_s"] > 0,
           "the other layers still measure when one is missing")
    shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    start = time.perf_counter()
    os.chdir(ROOT)
    check_metrics_and_oracle()
    check_missing_layer()
    print(f"{len(failures)} failure(s) in {time.perf_counter() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
