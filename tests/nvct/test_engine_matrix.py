"""Differential matrix: every campaign engine yields the same records.

EP at 12 tests runs through three engines: ``run_campaign`` inline, the
process pool (``jobs=2``), and the orchestration service, driven here as
an in-process ``CampaignScheduler`` fed by the worker's own prepare and
chunk-execution path.  Each engine is crossed with the snapshot engine
{golden, legacy} and the crash plan {full, pruned}.  Every cell must
reproduce the inline golden full campaign record for record, except
that a pruned plan on the legacy engine must be refused by every engine
alike.
"""

import json

import pytest

from repro.analysis.equiv_pass import build_crash_plan
from repro.apps.registry import get_factory
from repro.errors import UsageError
from repro.nvct.campaign import CampaignConfig, run_campaign
from repro.nvct.serialize import record_to_dict
from repro.service import CampaignScheduler
from repro.service import worker
from repro.service.protocol import LineReader, encode

FACTORY = get_factory("EP")
# Seed 2 puts two of the 12 crash points in one equivalence class, so the
# tail-free pruned plan really broadcasts a record.
CFG = CampaignConfig(n_tests=12, seed=2)


class _InProcessConnection:
    """A worker connection whose other end is a scheduler's ``handle``:
    every message goes through the wire encoding, with no socket."""

    def __init__(self, scheduler: CampaignScheduler):
        self.scheduler = scheduler
        self.reader = LineReader()
        self.replies: list[dict] = []

    def send(self, doc: dict) -> None:
        for msg in self.reader.feed(encode(doc)):
            self.replies.extend(self.scheduler.handle(msg, now=0.0))

    def recv(self) -> dict:
        return self.replies.pop(0)


def _inline(plan, golden, tmp_path):
    return run_campaign(FACTORY, CFG, plan=plan, golden=golden)


def _pool(plan, golden, tmp_path):
    return run_campaign(FACTORY, CFG, jobs=2, plan=plan, golden=golden)


def _service(plan, golden, tmp_path):
    journal = tmp_path / "service.jsonl"
    sched = CampaignScheduler(
        FACTORY, CFG, journal=journal, chunk_size=5, crash_plan=plan, golden=golden
    )
    sched.prepare()
    conn = _InProcessConnection(sched)
    prepared: dict = {}
    try:
        while not sched.done():
            (grant,) = sched.handle({"op": "lease", "worker": "w0"}, now=0.0)
            assert grant["op"] == "grant"
            assert worker._execute_chunk(conn, grant, prepared, clock=lambda: 0.0)
    finally:
        sched.close()
    # The result is assembled as `repro serve` does: the ordinary engine
    # replaying the now-complete journal.
    return run_campaign(FACTORY, CFG, journal=journal, plan=plan, golden=golden)


ENGINES = {"inline": _inline, "pool": _pool, "service": _service}


def _records_json(result) -> str:
    return json.dumps([record_to_dict(r) for r in result.records])


@pytest.fixture(scope="module")
def reference():
    return run_campaign(FACTORY, CFG)


@pytest.fixture(scope="module")
def crash_plan():
    plan = build_crash_plan(FACTORY, CFG, tail=0)
    assert len(plan.executed_indices()) < CFG.n_tests
    return plan


@pytest.mark.parametrize("plan", ["full", "pruned"])
@pytest.mark.parametrize("snapshots", ["golden", "legacy"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_matrix_matches_inline_golden_full(
    engine, snapshots, plan, reference, crash_plan, tmp_path
):
    run = ENGINES[engine]
    golden = snapshots == "golden"
    pruned = crash_plan if plan == "pruned" else None
    if pruned is not None and not golden:
        with pytest.raises(UsageError, match="golden-pass engine"):
            run(pruned, golden, tmp_path)
        return
    result = run(pruned, golden, tmp_path)
    assert _records_json(result) == _records_json(reference)
    expected = len(crash_plan.executed_indices()) if pruned else reference.n_tests
    assert result.executed_trials == expected
