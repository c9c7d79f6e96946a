"""Outside-in tracing of one campaign, layer by layer.

The campaign code is not changed to be measured.  Instead the traced run
replaces a few functions of each layer, found by dotted name, with
wrappers that record a span around every call: name, layer, start, end,
parent span and the campaign id shared by every span of one campaign.
Spans stay in memory; processes other than the campaign process (forked
pool workers, service workers) append theirs to a JSONL file per process
that the campaign process merges when the campaign ends.

A dotted name that no longer resolves (the code was moved or deleted)
marks its layer missing: every metric of that layer is reported as
``None`` with a warning, never as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import threading
import time
from pathlib import Path

#: layer -> the functions timed for it.  Layers are named after modules.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "apps": ("repro.apps.base.AppFactory.golden",),
    "profile": ("repro.nvct.campaign.campaign_points",),
    "instrumented": ("repro.nvct.campaign._instrumented_run",),
    "replay": ("repro.memsim.golden.GoldenStore.snapshots",),
    "classify": ("repro.nvct.campaign._classify_trial",),
    "journal": ("repro.nvct.journal.CampaignJournal.append",),
    "pool": (
        "repro.nvct.parallel.classify_snapshots",
        "repro.nvct.parallel._classify_chunk",
        "repro.nvct.serialize.pack_snapshot",
    ),
    "service": (
        "repro.service.scheduler.CampaignScheduler.prepare",
        "repro.service.scheduler.CampaignScheduler.handle",
        "repro.service.scheduler.serve_forever",
        "repro.service.worker._execute_chunk",
    ),
}

#: per-layer metric -> (unit, layers whose wrappers produce it; none when
#: it is read from the result, a sampler or captured stderr).
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "golden.busy_s": ("s", ("apps",)),
    "profile.busy_s": ("s", ("profile",)),
    "profile.calls": ("count", ("profile",)),
    "instrumented.busy_s": ("s", ("instrumented",)),
    "instrumented.calls": ("count", ("instrumented",)),
    "instrumented.accesses_per_s": ("1/s", ("instrumented",)),
    "memsim.nvm_writes": ("count", ()),
    "golden.delta_bytes": ("bytes", ("instrumented",)),
    "replay.busy_s": ("s", ("replay",)),
    "replay.images": ("count", ("replay",)),
    "classify.busy_s": ("s", ("classify",)),
    "classify.trials": ("count", ("classify",)),
    "classify.p50_ms": ("ms", ("classify",)),
    "classify.p90_ms": ("ms", ("classify",)),
    **{
        f"classify.{resp}.{stat}": (unit, ("classify",))
        for resp in ("S1", "S2", "S3", "S4", "FAILED")
        for stat, unit in (("trials", "count"), ("p50_ms", "ms"))
    },
    "journal.appends": ("count", ("journal",)),
    "journal.busy_s": ("s", ("journal",)),
    "journal.p50_ms": ("ms", ("journal",)),
    "pool.busy_s": ("s", ("pool",)),
    "pool.ipc_bytes": ("bytes", ("pool",)),
    "pool.stderr_tracebacks": ("count", ()),
    "proc.threads_max": ("count", ()),
    "service.prepare_s": ("s", ("service",)),
    "service.messages": ("count", ("service",)),
    "service.handle_busy_s": ("s", ("service",)),
    "service.chunk_p50_ms": ("ms", ("service",)),
    "service.worker_prep_s": ("s", ("service",)),
    "service.tail_s": ("s", ("service",)),
    "service.prep_runs": ("count", ("instrumented", "service")),
    "service.stderr_tracebacks": ("count", ()),
    "trace.overhead_frac": ("ratio", ()),
    "trace.unattributed_frac": ("ratio", ()),
}


def resolve(dotted: str):
    """``(owner, attribute name, current value)`` of a dotted name.

    The longest importable module prefix is imported; the rest is an
    attribute path inside it.  Raises ``LookupError`` when nothing
    resolves.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            value = getattr(owner, parts[-1])
        except AttributeError:
            break
        return owner, parts[-1], value
    raise LookupError(f"{dotted} does not resolve")


class Tracer:
    """Spans of one process, kept in memory until the campaign ends."""

    def __init__(self, campaign_id: str, out_dir: Path) -> None:
        self.campaign_id = campaign_id
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._seq = 0
        self.missing: dict[str, str] = {}
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker keeps only the span that was open at the fork
        # (the pool span) as the parent of everything it records.
        self.pid = os.getpid()
        self.spans = []
        self._stack = self._stack[-1:]

    def begin(self, name: str, layer: str) -> dict:
        self._seq += 1
        span = {
            "id": f"{self.pid}:{self._seq}",
            "parent": self._stack[-1] if self._stack else None,
            "campaign": self.campaign_id,
            "pid": self.pid,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(span["id"])
        return span

    def end(self, span: dict, **attrs: object) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span.update(attrs)
        if self._stack and self._stack[-1] == span["id"]:
            self._stack.pop()
        self.spans.append(span)

    def flush(self) -> None:
        """Append this process's spans to its file (worker processes)."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus every worker file of the campaign."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                span = json.loads(line)
                if span.get("campaign") == self.campaign_id:
                    spans.append(span)
        return spans

    # -- wrapping ----------------------------------------------------------

    def install(self, targets: dict[str, tuple[str, ...]] = LAYER_TARGETS) -> None:
        """Wrap every target; a layer with any unresolved name is missing."""
        for layer, names in targets.items():
            found = []
            for dotted in names:
                try:
                    found.append((dotted, *resolve(dotted)))
                except LookupError as exc:
                    self.missing[layer] = str(exc)
                    print(f"perfbench: warning: layer {layer!r} missing: {exc}", file=sys.stderr)
                    break
            if layer in self.missing:
                continue
            for dotted, owner, attr, value in found:
                setattr(owner, attr, self._wrap(dotted, layer, value))

    def _wrap(self, dotted: str, layer: str, value):
        short = dotted.rsplit(".", 1)[-1]
        if short == "snapshots":
            return self._wrap_generator(layer, value)
        if short == "pack_snapshot":
            return self._wrap_pack(layer, value)

        @functools.wraps(value)
        def wrapper(*args, **kwargs):
            span = self.begin(short, layer)
            attrs: dict[str, object] = {}
            try:
                result = value(*args, **kwargs)
                attrs = _result_attrs(short, args, result)
                return result
            finally:
                self.end(span, **attrs)
                if short == "_classify_chunk":
                    self.flush()  # a pool worker may be terminated at any time

        return wrapper

    def _wrap_generator(self, layer: str, gen_fn):
        tracer = self

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                span = tracer.begin("replay", layer)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.end(span, empty=True)
                    return
                tracer.end(span)
                yield item

        return wrapper

    def _wrap_pack(self, layer: str, pack_fn):
        @functools.wraps(pack_fn)
        def wrapper(snap):
            span = self.begin("pack_snapshot", layer)
            try:
                return pack_fn(snap)
            finally:
                shipped = sum(a.nbytes for a in snap.nvm_state.values())
                if snap.consistent_state is not None:
                    shipped += sum(a.nbytes for a in snap.consistent_state.values())
                self.end(span, bytes=int(shipped))

        return wrapper


def _result_attrs(short: str, args: tuple, result) -> dict[str, object]:
    if short == "_classify_trial":
        return {"response": result.response.name}
    if short == "handle" and len(args) > 1 and isinstance(args[1], dict):
        return {"op": str(args[1].get("op"))}
    if short == "_instrumented_run":
        from repro.obs import MetricRegistry

        reg = MetricRegistry()
        result[0].publish_metrics(reg)
        counts = {}
        for key, metric in (("accesses", "runtime.accesses"), ("delta_bytes", "golden.delta_bytes")):
            m = reg.get(metric)
            counts[key] = int(m.value) if m is not None else 0
        return counts
    return {}


# -- process sampling --------------------------------------------------------


def _threads_of(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(root: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(parents.get(pid, []))
    return out


class ThreadSampler:
    """Peak thread count summed over this process and its descendants."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            # The sampler's own thread is not part of the campaign.
            total = sum(_threads_of(pid) for pid in _descendants(me)) - 1
            self.peak = max(self.peak, total)
            self._stop.wait(self.period_s)

    def __enter__(self) -> "ThreadSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# -- metrics from spans --------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (the count says so)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_metrics(spans: list[dict], root: dict, missing: dict[str, str]) -> dict[str, float | None]:
    """Per-layer metrics of one campaign from its merged spans.

    ``root`` is the campaign process's campaign span.  A layer's busy time is the
    sum of its spans' self time (duration minus the part its same-process
    children cover) over every process of the campaign.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    busy: dict[str, float] = {}
    for s in spans:
        own = [(c["start"], c["end"]) for c in children.get(s["id"], []) if c["pid"] == s["pid"]]
        busy[s["layer"]] = busy.get(s["layer"], 0.0) + dur[s["id"]] - _union(own)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def ms(group: list[dict]) -> list[float]:
        return [dur[s["id"]] * 1000.0 for s in group]

    inst = named("_instrumented_run")
    trials = named("_classify_trial")
    appends = named("append")
    handles = named("handle")
    chunks = named("_execute_chunk")
    out: dict[str, float | None] = {
        "golden.busy_s": busy.get("apps", 0.0),
        "profile.busy_s": busy.get("profile", 0.0),
        "profile.calls": len(named("campaign_points")),
        "instrumented.busy_s": busy.get("instrumented", 0.0),
        "instrumented.calls": len(inst),
        "instrumented.accesses_per_s": (
            sum(s.get("accesses", 0) for s in inst) / sum(dur[s["id"]] for s in inst) if inst else 0.0
        ),
        "golden.delta_bytes": sum(s.get("delta_bytes", 0) for s in inst),
        "replay.busy_s": busy.get("replay", 0.0),
        "replay.images": sum(1 for s in named("replay") if not s.get("empty")),
        "classify.busy_s": busy.get("classify", 0.0),
        "classify.trials": len(trials),
        "classify.p50_ms": percentile(ms(trials), 0.5),
        "classify.p90_ms": percentile(ms(trials), 0.9),
        "journal.appends": len(appends),
        "journal.busy_s": busy.get("journal", 0.0),
        "journal.p50_ms": percentile(ms(appends), 0.5),
        "pool.busy_s": busy.get("pool", 0.0),
        "pool.ipc_bytes": sum(s["bytes"] for s in named("pack_snapshot")),
        "service.prepare_s": sum(dur[s["id"]] for s in named("prepare")),
        "service.messages": len(handles),
        "service.handle_busy_s": sum(dur[s["id"]] for s in handles),
        "service.chunk_p50_ms": percentile(ms(chunks), 0.5),
        "service.worker_prep_s": _worker_prep_s(chunks, trials),
        "service.tail_s": _tail_s(handles, root),
        "service.prep_runs": len(inst) if chunks else 0,
    }
    for resp in ("S1", "S2", "S3", "S4", "FAILED"):
        group = [s for s in trials if s.get("response") == resp]
        out[f"classify.{resp}.trials"] = len(group)
        out[f"classify.{resp}.p50_ms"] = percentile(ms(group), 0.5)
    mine = [
        (s["start"], s["end"])
        for s in spans
        if s["pid"] == root["pid"] and s is not root and s["start"] >= root["start"]
    ]
    out["trace.unattributed_frac"] = 1.0 - _union(mine) / dur[root["id"]]
    for name, (_unit, layers) in PER_LAYER.items():
        if any(layer in missing for layer in layers):
            out[name] = None
    return out


def _worker_prep_s(chunks: list[dict], trials: list[dict]) -> float:
    """Slowest worker's first lease to its first classified record."""
    worst = 0.0
    for pid in {c["pid"] for c in chunks}:
        first = min(c["start"] for c in chunks if c["pid"] == pid)
        done = [t["end"] for t in trials if t["pid"] == pid]
        if done:
            worst = max(worst, min(done) - first)
    return worst


def _tail_s(handles: list[dict], root: dict) -> float:
    """Last commit the scheduler handled to the assembled result."""
    commits = [h["end"] for h in handles if h.get("op") == "commit"]
    return root["end"] - max(commits) if commits else 0.0
