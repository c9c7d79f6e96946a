"""Throughput of the campaign layer (regression guard).

Conventional pytest-benchmark timings for the crash-test campaign
pipeline, the analogue of ``test_simulator_throughput.py`` one layer up:
campaign-layer regressions (snapshotting, classification dispatch, the
parallel engine's chunking/IPC overhead) are tracked like cache-simulator
regressions.

``test_parallel_classification_speedup`` additionally asserts that
fanning classification out over workers beats serial wall-clock — only
on runners with enough CPUs to make that physically possible.
"""

import os
import time

import numpy as np
import pytest

from repro.apps.base import AppFactory, Application
from repro.apps.registry import get_factory
from repro.nvct.campaign import (
    CampaignConfig,
    _classify,
    run_campaign,
    sample_campaign,
)
from repro.nvct.parallel import classify_snapshots
from repro.nvct.plan import PersistencePlan
from repro.nvct.runtime import CountingRuntime, Runtime

APP = "MG"  # restarts re-run a real solve: classification dominates
N_TESTS = 16


@pytest.fixture(scope="module")
def prepared():
    """One instrumented execution providing every snapshot to classify."""
    cfg = CampaignConfig(n_tests=N_TESTS, plan=PersistencePlan.none())
    prep = sample_campaign(get_factory(APP), cfg, golden=False).materialize()
    return prep, list(range(prep.n_snaps))


def _serial(prep, indices):
    return [
        _classify(prep.factory, s, prep.golden_iterations, prep.cfg)
        for s in prep.snapshots(indices)
    ]


def test_serial_classification_throughput(benchmark, prepared):
    prep, indices = prepared
    records = benchmark.pedantic(lambda: _serial(prep, indices), rounds=3)
    assert len(records) == len(indices)


def test_parallel_classification_throughput(benchmark, prepared):
    prep, indices = prepared
    jobs = max(2, min(4, os.cpu_count() or 1))
    records = benchmark.pedantic(
        lambda: classify_snapshots(prep, indices, jobs=jobs), rounds=3
    )
    assert len(records) == len(indices)


def test_campaign_end_to_end_throughput(benchmark):
    def run():
        return run_campaign(
            get_factory("EP"), CampaignConfig(n_tests=10, seed=0), jobs=1
        )

    result = benchmark.pedantic(run, rounds=3)
    assert result.n_tests == 10


# -- golden-pass snapshot production ------------------------------------------
#
# The snapshot-production phase is the campaign's other scaling axis: the
# legacy path pays O(n_points x heap) in full-image copies and diffs during
# the instrumented run, the golden pass O(heap + writeback_traffic) via
# delta replay.  A streaming app whose per-iteration working set is a
# quarter of a 3 MB candidate array reproduces the regime the paper's
# mini-apps live in (heap larger than the per-point mutation set), where
# the asymptotic gap is visible at realistic point counts.

_STREAM_SIZE = 384 * 1024  # doubles: 3 MB candidate heap
_GOLDEN_SCALE = {"quick": (2, 160), "default": (2, 256), "paper": (3, 384)}


class _StreamApp(Application):
    """Sliding-window streaming update over a large persistent array."""

    NAME = "bench-golden-stream"
    REGIONS = ("sweep",)
    DEFAULT_MAX_FACTOR = 1.0

    def __init__(self, runtime=None, size: int = _STREAM_SIZE, nit: int = 2, **kw):
        super().__init__(runtime, size=size, nit=nit, **kw)
        self.size = size
        self.nit = nit

    def nominal_iterations(self):
        return self.nit

    def _allocate(self):
        self.field = self.ws.array("field", (self.size,), candidate=True)

    def _initialize(self):
        self.field.np[...] = 0.0

    def _iterate(self, it):
        q = self.size // 4
        lo = (it % 4) * q
        with self.ws.region("sweep"):
            self.field.update(slice(lo, lo + q), lambda a: np.add(a, 1.0, out=a))
        return False

    def reference_outcome(self):
        return {"sum": float(self.field.np.sum())}

    def verify(self):
        if self.golden is None:
            return True
        return self.reference_outcome()["sum"] == self.golden["sum"]


@pytest.fixture(scope="module")
def stream_setup():
    nit, n_points = _GOLDEN_SCALE.get(
        os.environ.get("REPRO_BENCH_SCALE", "default"), _GOLDEN_SCALE["default"]
    )
    factory = AppFactory(_StreamApp, nit=nit)
    counting = CountingRuntime()
    factory.make(runtime=counting).run()
    points = np.unique(
        np.linspace(
            (counting.window_begin or 0) + 1, counting.counter, n_points,
            dtype=np.int64,
        )
    )
    assert points.size >= 100  # the regime the golden pass is specified for
    return factory, points


def _produce_images(factory, points, golden: bool) -> int:
    """One instrumented run + materialization of every crash image."""
    rt = Runtime(plan=PersistencePlan.none(), crash_points=points, golden=golden)
    factory.make(runtime=rt).run()
    if golden:
        return sum(1 for _ in rt.golden_store().snapshots())
    return len(rt.snapshots)


def test_snapshot_production_legacy(benchmark, stream_setup):
    factory, points = stream_setup
    n = benchmark.pedantic(lambda: _produce_images(factory, points, False), rounds=3)
    assert n == points.size


def test_snapshot_production_golden(benchmark, stream_setup):
    factory, points = stream_setup
    n = benchmark.pedantic(lambda: _produce_images(factory, points, True), rounds=3)
    assert n == points.size


def test_golden_snapshot_speedup(stream_setup):
    """The golden pass must beat legacy snapshot production >= 5x at
    >= 100 crash points (measured margin is 10-18x across scales)."""
    factory, points = stream_setup
    _produce_images(factory, points, True)  # warm both paths
    _produce_images(factory, points, False)

    t0 = time.perf_counter()
    _produce_images(factory, points, False)
    t_legacy = time.perf_counter() - t0

    t0 = time.perf_counter()
    _produce_images(factory, points, True)
    t_golden = time.perf_counter() - t0

    assert t_golden * 5 < t_legacy, (
        f"golden pass {t_golden:.3f}s not >=5x faster than legacy "
        f"{t_legacy:.3f}s at {points.size} crash points"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup assertion needs >= 4 CPUs to be physically meaningful",
)
def test_parallel_classification_speedup(prepared):
    prep, indices = prepared

    t0 = time.perf_counter()
    serial = _serial(prep, indices)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = classify_snapshots(prep, indices, jobs=4)
    t_parallel = time.perf_counter() - t0

    assert serial == parallel  # the speedup is free: results are bit-identical
    # Loose bound (pool startup + IPC amortized over N_TESTS real solves):
    # jobs=4 must clearly beat serial, even if far from 4x.
    assert t_parallel < t_serial * 0.8, (
        f"parallel {t_parallel:.2f}s not faster than serial {t_serial:.2f}s"
    )
