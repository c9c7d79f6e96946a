"""Crash-test campaign benchmark: one workload, timed end to end.

    python3 perfbench/run.py --workload bt-inline --seed 0 --seconds 25 --trace 0

Runs cold campaigns of one workload back to back, each in a fresh
process, as long as another one should still end within ``--seconds``
(at least two), and reports the median of each end-to-end metric
(``--trace 0``).  ``--trace 1`` alternates untraced and
traced campaigns and reports the per-layer metrics of the traced ones
(see ``layers.py``).  Every run checks the campaign's records: the record
digest and the simulated NVM write count must match ``oracle.json`` (or,
for a seed the oracle does not hold, an untimed inline run of the same
campaign for the pool and service engines, and the other repetitions of
the run for the inline ones).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metric names, units and bounds are in ``BENCHMARK.json``; ``README.md``
in this directory explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "campaign.py"
ORACLE = HERE / "oracle.json"
RUN_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 100.0
PROBE_TIMEOUT_S = 30.0  # the probe's campaign takes about 5 s
TRACEBACK = "Traceback (most recent call last)"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    app: str
    tests: int
    engine: str  # inline | pool | service

    @property
    def campaign(self) -> str:
        """Oracle key: workloads running the same campaign share records."""
        return f"{self.app}/{self.tests}"


# Why each workload is here is in README.md ("Workloads").
WORKLOADS = {
    "bt-inline": Workload("BT", 60, "inline"),
    "kmeans-inline": Workload("kmeans", 120, "inline"),
    "mg-pool": Workload("MG", 40, "pool"),
    "mg-service": Workload("MG", 40, "service"),
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "cpu_ms_per_trial": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def child_env() -> dict[str, str]:
    """A cold campaign's environment: no ``REPRO_*`` knobs, this checkout's
    sources, BLAS thread variables as the caller left them."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_group(cmd: list[str], timeout: float) -> tuple[int | None, str, str]:
    """Run ``cmd`` in its own process group from the checkout root.

    Returns ``(exit code, stdout, stderr)``; the exit code is ``None``
    when the command outlived ``timeout`` and was killed together with
    every process it started.
    """
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        return None, stdout, stderr
    return proc.returncode, stdout, stderr


def run_child(wl: Workload, seed: int, workdir: Path, trace_dir: Path | None = None) -> dict:
    """One campaign in a fresh process; its JSON line plus stderr tracebacks."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(CHILD), "run", "--app", wl.app, "--tests", str(wl.tests),
        "--engine", wl.engine, "--seed", str(seed), "--workdir", str(workdir),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    code, stdout, stderr = _run_group(cmd + ["--t0", repr(time.perf_counter())], CHILD_TIMEOUT_S)
    if code is None:
        raise BenchError(f"{wl.app} {wl.engine} campaign exceeded {CHILD_TIMEOUT_S:.0f}s")
    if code != 0 or not stdout.strip():
        raise BenchError(f"{wl.app} {wl.engine} campaign failed (exit {code}):\n{stderr[-3000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["tracebacks"] = stderr.count(TRACEBACK)
    for line in stderr.splitlines():
        if line.startswith("perfbench: warning"):
            print(line, file=sys.stderr)
    return out


def cli_pool_tracebacks(wl: Workload, seed: int, workdir: Path) -> int:
    """Tracebacks printed by ``repro campaign --jobs 2`` for the campaign.

    The CLI's SIGTERM handler is inherited by forked pool workers, which
    then print a ``KeyboardInterrupt`` traceback when the pool is shut
    down, and can hang there; a hung probe is killed and reported.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, "-m", "repro", "campaign", wl.app, "--tests", str(wl.tests),
        "--seed", str(seed), "--jobs", "2", "--resume", str(workdir / "probe.jsonl"),
    ]
    code, _stdout, stderr = _run_group(cmd, PROBE_TIMEOUT_S)
    if code is None:
        print(f"perfbench: warning: `repro campaign --jobs 2` hung for {PROBE_TIMEOUT_S:.0f}s "
              "and was killed", file=sys.stderr)
    elif code != 0:
        raise BenchError(f"`repro campaign --jobs 2` failed (exit {code}):\n{stderr[-3000:]}")
    return stderr.count(TRACEBACK)


def load_oracle() -> dict:
    return json.loads(ORACLE.read_text()) if ORACLE.exists() else {}


def check(wl: Workload, seed: int, samples: list[dict], oracle: dict, workdir: Path) -> list[str]:
    """Problems with the records of ``samples`` (empty list: all correct)."""
    problems = []
    if any(s["tests"] == 0 for s in samples):
        problems.append("a campaign produced zero trials")
    entry = oracle.get(wl.campaign, {})
    want_writes = entry.get("nvm_writes")
    if want_writes is None:
        problems.append(f"oracle has no nvm_writes for {wl.campaign}")
    for s in samples:
        if s["nvm_writes"] != want_writes:
            problems.append(f"memsim.nvm_writes {s['nvm_writes']} != oracle {want_writes}")
    want = entry.get("digests", {}).get(str(seed))
    if want is None and wl.engine != "inline":
        ref = run_child(Workload(wl.app, wl.tests, "inline"), seed, workdir / "reference")
        want = ref["digest"]
    compared = 0
    for s in samples:
        expected = want if want is not None else samples[0]["digest"]
        if s is samples[0] and want is None:
            continue  # the first repetition is the reference of the others
        compared += s["tests"]
        if s["digest"] != expected:
            problems.append(f"record digest {s['digest'][:12]} != expected {expected[:12]}")
    if compared == 0:
        problems.append("no records were compared against a reference")
    return problems


def environment() -> dict:
    """What a result depends on besides the code: hardware, BLAS, Python."""
    env: dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["numpy"] = np.__version__
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the record must not fail a run
        env["blas"] = f"unknown ({type(exc).__name__})"
    env["git_sha"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        env["git_sha"] = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def median_of(samples: list[dict], key: str) -> float | None:
    values = [s[key] for s in samples]
    return None if any(v is None for v in values) else statistics.median(values)


def end_to_end(samples: list[dict]) -> dict[str, float]:
    per = [
        {
            "trials_per_s": s["tests"] / s["campaign_s"],
            "setup_s": s["setup_s"],
            "cpu_ms_per_trial": s["cpu_s"] * 1000.0 / s["tests"],
            "peak_rss_mb": s["rss_kb"] / 1024.0,
        }
        for s in samples
    ]
    return {name: statistics.median(p[name] for p in per) for name in END_TO_END_UNITS}


def per_layer(
    wl: Workload, untraced: list[dict], traced: list[dict], probe: int
) -> dict[str, float | None]:
    layers = [t["layers"] for t in traced]
    out = {name: median_of(layers, name) for name in layers[0]}
    out["trace.overhead_frac"] = (
        median_of(traced, "campaign_s") / median_of(untraced, "campaign_s") - 1.0
    )
    tracebacks = sum(s["tracebacks"] for s in untraced + traced)
    out["pool.stderr_tracebacks"] = tracebacks + probe if wl.engine == "pool" else 0
    out["service.stderr_tracebacks"] = tracebacks if wl.engine == "service" else 0
    return {name: out.get(name) for name in PER_LAYER}


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, oracle: dict
) -> tuple[dict, list[dict], int]:
    """Run the workload for ``seconds``: the result object, the campaigns'
    own measurements, and the exit code."""
    run_dir = RUN_DIR / f"run-{os.getpid()}"
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    probe = 0
    try:
        # Start another round only if it should end within the window;
        # at least two campaigns, so one can be checked against another.
        while True:
            k = len(untraced)
            untraced.append(run_child(wl, seed, run_dir / f"c{k}"))
            if trace:
                traced.append(run_child(wl, seed, run_dir / f"t{k}", trace_dir=run_dir / f"spans{k}"))
            elapsed = time.perf_counter() - start
            if len(untraced) + len(traced) >= 2 and elapsed * (k + 2) / (k + 1) > seconds:
                break
        problems = check(wl, seed, untraced + traced, oracle, run_dir)
        if trace and wl.engine == "pool":
            probe = cli_pool_tracebacks(wl, seed, run_dir / "probe")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"perfbench: INCORRECT: {p}", file=sys.stderr)
    if trace:
        values = per_layer(wl, untraced, traced, probe)
        units = {name: unit for name, (unit, _layer) in PER_LAYER.items()}
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    samples = untraced + traced
    result = {
        "correct": not problems,
        "attempted": sum(s["tests"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, samples, (0 if not problems else 1)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once so no campaign pays it in set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True,
                   stdout=subprocess.DEVNULL)
    wl = WORKLOADS[args.workload]
    env = environment()
    try:
        result, samples, code = measure(wl, args.seed, args.seconds, bool(args.trace), load_oracle())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result, "campaigns": samples}
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload:14s} {name:32s} {value:>14s} {m['unit']}")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
