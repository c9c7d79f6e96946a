"""One cold campaign, run in a fresh process by ``perfbench/run.py``.

``campaign.py run`` runs one campaign through one engine and prints one
JSON line: set-up time, campaign wall time, CPU, peak RSS, the record
digest and the simulated NVM write count, plus per-layer metrics when
``--trace-dir`` is given.  ``campaign.py worker`` is the traced stand-in
for ``repro work``: it installs the same layer wrappers, then calls
``repro.service.run_worker``.

Engines:

* ``inline`` -- ``run_campaign`` in this process;
* ``pool``   -- ``run_campaign(jobs=2)`` with a trial journal;
* ``service`` -- ``CampaignScheduler`` + ``serve_forever`` in this
  process, two worker processes, and the result assembled by
  ``run_campaign`` replaying the journal, exactly as ``repro serve`` does.

The campaign process does not install the CLI's SIGTERM handler: with
it, forked pool workers print ``KeyboardInterrupt`` tracebacks when the
pool shuts down and now and then hang there, which would stall the
benchmark.  ``run.py`` counts that defect with a separate CLI probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKERS = 2
WORKER_TIMEOUT_S = 120.0


def records_digest(records) -> str:
    """sha256 over every record field, floats bit-exact."""
    h = hashlib.sha256()
    for r in records:
        rates = sorted((str(k), float(v).hex()) for k, v in r.rates.items())
        row = (
            int(r.counter), int(r.iteration), str(r.region), r.response.name,
            int(r.extra_iterations), int(r.weight), rates,
        )
        h.update(repr(row).encode())
    return h.hexdigest()


def _inline(factory, cfg, workdir: Path, trace: dict | None):
    from repro.nvct import campaign

    return campaign.run_campaign(factory, cfg)


def _pool(factory, cfg, workdir: Path, trace: dict | None):
    from repro.nvct import campaign

    return campaign.run_campaign(factory, cfg, jobs=WORKERS, journal=workdir / "campaign.jsonl")


def _service(factory, cfg, workdir: Path, trace: dict | None):
    from repro.nvct import campaign
    from repro.service import scheduler as sched

    journal = workdir / "campaign.jsonl"
    sock = os.path.relpath(workdir / "sched.sock")
    scheduler = sched.CampaignScheduler(factory, cfg, journal=journal)
    scheduler.prepare()
    procs = []
    try:
        for i in range(WORKERS):
            if trace is None:
                cmd = [sys.executable, "-m", "repro", "work", "--socket", sock, "--name", f"w{i}"]
            else:
                cmd = [
                    sys.executable, str(HERE / "campaign.py"), "worker", "--socket", sock,
                    "--name", f"w{i}", "--trace-dir", trace["dir"], "--campaign-id", trace["id"],
                ]
            procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL))
        sched.serve_forever(scheduler, sock)
        for p in procs:
            p.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(p.returncode != 0 for p in procs):
        raise RuntimeError(f"service worker exit codes {[p.returncode for p in procs]}")
    return campaign.run_campaign(factory, cfg, journal=journal)


ENGINES = {"inline": _inline, "pool": _pool, "service": _service}


def cmd_run(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_factory
    from repro.nvct.campaign import CampaignConfig

    factory = get_factory(args.app)
    cfg = CampaignConfig(n_tests=args.tests, seed=args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = trace = None
    if args.trace_dir:
        from layers import Tracer, ThreadSampler

        trace = {"dir": args.trace_dir, "id": f"{args.app}-{args.seed}-{os.getpid()}"}
        tracer = Tracer(trace["id"], Path(args.trace_dir))
        tracer.install()
    setup_s = time.perf_counter() - args.t0

    cpu0 = os.times()
    start = time.perf_counter()
    root = tracer.begin("campaign", "campaign") if tracer else None
    with ThreadSampler() if tracer else nullcontext() as sampler:
        result = ENGINES[args.engine](factory, cfg, workdir, trace)
    campaign_s = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    cpu1 = os.times()
    cpu_s = (cpu1.user + cpu1.system + cpu1.children_user + cpu1.children_system) - (
        cpu0.user + cpu0.system + cpu0.children_user + cpu0.children_system
    )
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    responses: dict[str, int] = {}
    for r in result.records:
        responses[r.response.name] = responses.get(r.response.name, 0) + 1
    out = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "cpu_s": cpu_s,
        "rss_kb": rss_kb,
        "tests": len(result.records),
        "failed": responses.get("FAILED", 0),
        "responses": responses,
        "digest": records_digest(result.records),
        "nvm_writes": int(result.run_stats.memory.nvm_writes),
        "layers": None,
    }
    if tracer:
        from layers import span_metrics

        layers = span_metrics(tracer.collect(), root, tracer.missing)
        layers["memsim.nvm_writes"] = out["nvm_writes"]
        layers["proc.threads_max"] = sampler.peak
        out["layers"] = layers
        out["missing"] = sorted(tracer.missing)
    print(json.dumps(out))
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from layers import Tracer

    tracer = Tracer(args.campaign_id, Path(args.trace_dir))
    tracer.install()
    from repro import service

    try:
        service.run_worker(args.socket, name=args.name)
    finally:
        tracer.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run one campaign and print its measurements")
    r.add_argument("--app", required=True)
    r.add_argument("--tests", type=int, required=True)
    r.add_argument("--engine", choices=sorted(ENGINES), required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--workdir", required=True, help="directory for journals and the socket")
    r.add_argument("--t0", type=float, required=True,
                   help="time.perf_counter() of the parent just before it started this process")
    r.add_argument("--trace-dir", default=None, help="trace the layers; worker spans go here")
    w = sub.add_parser("worker", help="traced service worker")
    w.add_argument("--socket", required=True)
    w.add_argument("--name", required=True)
    w.add_argument("--trace-dir", required=True)
    w.add_argument("--campaign-id", required=True)
    args = p.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_worker(args)


if __name__ == "__main__":
    sys.exit(main())
