"""Parallel campaign engine: determinism, chunking, fallback paths."""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.apps.base import AppFactory, Application
from repro.apps.registry import get_factory
from repro.nvct.campaign import CampaignConfig, run_campaign, sample_campaign
from repro.nvct.parallel import (
    chunk_indices,
    classify_snapshots,
    resolve_jobs,
    run_campaigns,
)
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime
from repro.nvct.serialize import pack_snapshot, unpack_snapshot


@pytest.fixture
def no_chaos():
    """Exact byte-level round-trips can't run under REPRO_CHAOS truncation."""
    from repro.harness import chaos

    chaos.disable()
    yield
    chaos.reset()


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # all CPUs
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    assert resolve_jobs(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("REPRO_JOBS", "-4")
    assert resolve_jobs(None) == 1


def test_chunk_indices_cover_in_order():
    for n, jobs in [(0, 2), (1, 4), (7, 2), (100, 3), (5, 16)]:
        chunks = chunk_indices(n, jobs)
        flat = [i for lo, hi in chunks for i in range(lo, hi)]
        assert flat == list(range(n))
        assert chunks == chunk_indices(n, jobs)  # purely deterministic


@pytest.mark.parametrize("app", ["EP", "kmeans"])
def test_parallel_records_bit_identical(app):
    cfg = CampaignConfig(n_tests=10, seed=11)
    serial = run_campaign(get_factory(app), cfg, jobs=1)
    parallel = run_campaign(get_factory(app), cfg, jobs=2)
    assert serial.records == parallel.records
    assert serial.recomputability() == parallel.recomputability()


def test_parallel_engine_timeout_falls_back_serially():
    # A zero-ish timeout abandons the pool immediately; the fallback must
    # still produce the exact serial record sequence.
    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=3)
    serial = run_campaign(factory, cfg, jobs=1)
    degraded = run_campaign(factory, cfg, jobs=2, chunk_timeout=1e-9)
    assert serial.records == degraded.records


def _prepared(n_tests: int, golden: bool):
    cfg = CampaignConfig(n_tests=n_tests, seed=5, plan=PersistencePlan.none())
    return sample_campaign(get_factory("EP"), cfg, golden=golden).materialize()


def test_classify_snapshots_matches_inline_classification():
    from repro.nvct.campaign import _classify

    for golden in (True, False):
        prep = _prepared(6, golden)
        indices = list(range(prep.n_snaps))
        inline = [
            _classify(prep.factory, s, prep.golden_iterations, prep.cfg)
            for s in prep.snapshots(indices)
        ]
        assert inline == classify_snapshots(prep, indices, jobs=2)


def test_snapshot_pack_roundtrip(no_chaos):
    factory = get_factory("EP")
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    rt = Runtime(crash_points=[counting.window_begin + 5], capture_consistent=True)
    factory.make(runtime=rt).run()
    snap = rt.snapshots[0]
    back = unpack_snapshot(pack_snapshot(snap))
    assert back.counter == snap.counter and back.region == snap.region
    assert back.rates == snap.rates
    assert set(back.nvm_state) == set(snap.nvm_state)
    for k in snap.nvm_state:
        np.testing.assert_array_equal(back.nvm_state[k], snap.nvm_state[k])
        np.testing.assert_array_equal(back.consistent_state[k], snap.consistent_state[k])


def test_record_sink_sees_every_record_exactly_once():
    from repro.nvct.campaign import _classify

    prep = _prepared(8, golden=False)
    indices = [1, 2, 4, 5, 7]  # sink keys are trial indices, not positions
    sunk: dict[int, object] = {}

    def sink(index, record):
        assert index not in sunk  # exactly once per trial
        sunk[index] = record

    fanned = classify_snapshots(prep, indices, jobs=2, record_sink=sink)
    assert sorted(sunk) == indices
    assert [sunk[i] for i in indices] == fanned
    assert fanned == [
        _classify(prep.factory, s, prep.golden_iterations, prep.cfg)
        for s in prep.snapshots(indices)
    ]


def test_worker_death_chaos_never_changes_records():
    """Injected worker deaths (os._exit in the pool) are absorbed by chunk
    retries and the serial-fallback path without touching the results."""
    from repro.harness import chaos

    factory = get_factory("EP")
    cfg = CampaignConfig(n_tests=8, seed=7)
    chaos.disable()
    serial = run_campaign(factory, cfg, jobs=1)
    chaos.enable(13, 0.3, kinds=["worker_death"])
    try:
        # short chunk timeout: a killed worker never posts its result, so
        # the timeout is the death-detection latency
        survived = run_campaign(factory, cfg, jobs=2, chunk_timeout=2.0)
    finally:
        chaos.reset()
    assert survived.records == serial.records


def test_run_campaigns_matches_serial_order():
    specs = [
        (get_factory("EP"), CampaignConfig(n_tests=6, seed=1)),
        (get_factory("kmeans"), CampaignConfig(n_tests=6, seed=1)),
    ]
    parallel = run_campaigns(specs, jobs=2)
    serial = [run_campaign(f, c, jobs=1) for f, c in specs]
    assert [r.app for r in parallel] == ["EP", "kmeans"]
    for p, s in zip(parallel, serial):
        assert p.records == s.records


class _LocalApp(Application):
    """Defined at module scope but subclassed locally below to exercise the
    unpicklable-factory fallback of run_campaigns."""

    NAME = "local"
    REGIONS = ("R",)
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, nit: int = 4, **kw):
        super().__init__(runtime, nit=nit, **kw)
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.acc = self.ws.array("acc", (64,), candidate=True)

    def _initialize(self):
        self.acc.np[...] = 0.0

    def _iterate(self, it):
        with self.ws.region("R"):
            self.acc.update(slice(None), lambda a: np.add(a, 1.0, out=a))
        return False

    def reference_outcome(self):
        return {"sum": float(self.acc.np.sum())}

    def verify(self):
        return self.golden is None or self.reference_outcome()["sum"] == self.golden["sum"]


def test_run_campaigns_unpicklable_factory_falls_back():
    class Hidden(_LocalApp):  # not importable from a worker: forces fallback
        NAME = "hidden"

    factory = AppFactory(Hidden, nit=4)
    cfg = CampaignConfig(n_tests=5, seed=2)
    # two specs so the pool path (not the single-spec serial shortcut) runs
    results = run_campaigns([(factory, cfg), (factory, cfg)], jobs=2)
    expected = run_campaign(AppFactory(Hidden, nit=4), cfg, jobs=1)
    for r in results:
        assert r.records == expected.records


def _sigterm_probe_trial(factory, snap, golden_iterations, cfg, trial_timeout=None):
    """Stands in for a classification: reports the SIGTERM disposition of
    the process that ran it."""
    from repro.nvct.campaign import CrashTestRecord, Response

    default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    return CrashTestRecord(
        snap.counter, snap.iteration, snap.region, {}, Response.S1,
        error=f"{os.getpid()} {default}",
    )


def _sigterm_probe_campaign(factory, cfg, jobs=None):
    return os.getpid(), signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs POSIX signals and forked pools",
)
def test_forked_pool_workers_reset_the_cli_sigterm_handler(monkeypatch):
    """The CLI's SIGTERM handler raises KeyboardInterrupt.  Pool workers
    forked under it must not keep it: Pool.terminate stops them with
    SIGTERM, and an inherited handler prints a traceback per worker and
    can hang the shutdown."""
    from repro import cli
    from repro.nvct import campaign

    prep = _prepared(6, golden=True)
    previous = signal.getsignal(signal.SIGTERM)
    cli._install_sigterm_handler()
    try:
        assert signal.getsignal(signal.SIGTERM) != signal.SIG_DFL
        monkeypatch.setattr(campaign, "_classify_trial", _sigterm_probe_trial)
        records = classify_snapshots(prep, list(range(prep.n_snaps)), jobs=2)
        monkeypatch.setattr(campaign, "run_campaign", _sigterm_probe_campaign)
        specs = [
            (get_factory("EP"), CampaignConfig(n_tests=2)),
            (get_factory("kmeans"), CampaignConfig(n_tests=2)),
        ]
        campaigns = run_campaigns(specs, jobs=2)
    finally:
        signal.signal(signal.SIGTERM, previous)
    parent = os.getpid()
    probes = [r.error.split() for r in records]
    assert probes and all(int(pid) != parent for pid, _ in probes)
    assert all(default == "True" for _, default in probes)
    assert campaigns and all(pid != parent and default for pid, default in campaigns)
