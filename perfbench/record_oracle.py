"""Record the reference records of every benchmark campaign into oracle.json.

    python3 perfbench/record_oracle.py --seeds 0-31

For each distinct campaign of the workloads in ``run.py`` and each seed,
runs the campaign inline in a fresh process and stores its record digest
and its simulated NVM write count.  The write count does not depend on
the seed (crash points do not perturb the simulated caches), so one
value per campaign is stored and every seed is checked against it.
Re-record only when a change is meant to change the records.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ORACLE, RUN_DIR, Workload, WORKLOADS, run_child


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args(argv)
    oracle: dict[str, dict] = {}
    workdir = RUN_DIR / "oracle"
    try:
        for wl in {w.campaign: w for w in WORKLOADS.values()}.values():
            inline = Workload(wl.app, wl.tests, "inline")
            entry: dict = {"nvm_writes": None, "digests": {}}
            for seed in parse_seeds(args.seeds):
                out = run_child(inline, seed, workdir)
                if out["failed"] or out["tests"] == 0:
                    raise SystemExit(f"{wl.campaign} seed {seed}: {out['responses']}")
                if entry["nvm_writes"] not in (None, out["nvm_writes"]):
                    raise SystemExit(f"{wl.campaign}: nvm_writes depends on the seed")
                entry["nvm_writes"] = out["nvm_writes"]
                entry["digests"][str(seed)] = out["digest"]
                print(f"{wl.campaign} seed {seed}: {out['digest'][:16]} {out['responses']}",
                      flush=True)
            oracle[wl.campaign] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"wrote {ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
