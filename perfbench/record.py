"""Record the reference scores the benchmark checks its outputs against.

    python3 perfbench/record.py --workload fr_live --seeds 0-9 [--commit REV]

For each seed this generates the workload's inputs, runs every job once in
a fresh worker and writes ``refs/<workload>/seed-<n>.json`` with every
report's pooled and per-frame scores and the evaluation table.  By default
the checkout's ``src/`` is scored; ``--commit REV`` scores ``src/`` as of a
git revision instead (extracted with ``git archive`` under ``.bench_work``).
A seed whose run fails any job is not recorded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import time

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def source_at(commit: str) -> str:
    """Extract ``src/`` as of ``commit`` and return its path."""
    out = subprocess.run(["git", "-C", run.ROOT, "archive", "--format=tar", commit,
                          "src"], capture_output=True, check=True).stdout
    dest = os.path.join(run.WORK, f"src-{commit}")
    with tarfile.open(fileobj=io.BytesIO(out)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,12")
    ap.add_argument("--commit", help="score src/ as of this git revision")
    ap.add_argument("--size", help="WxH instead of the workload's geometry")
    ap.add_argument("--refs", default=run.REFS, help="reference score directory")
    opts = ap.parse_args(argv)

    src = source_at(opts.commit) if opts.commit else run.SRC
    commit = opts.commit or run._git_commit()
    geom = run.geometry(opts.workload, opts.size)
    out_dir = os.path.join(opts.refs, opts.workload)
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    for seed in parse_seeds(opts.seeds):
        work, _ = run.prepare(opts.workload, seed, geom, tag="-record")
        try:
            result, _ = run.run_batch(work, src, 0.0, 0,
                                      time.monotonic() + 10 * run.DEADLINE_S)
        except run.BenchError as exc:
            sys.stderr.write(f"seed {seed}: {exc}\n")
            status = 1
            continue
        failures = [(r["id"], run.check_run(r, None)) for r in result["runs"]]
        failures = [f for f in failures if f[1]]
        if failures:
            sys.stderr.write(f"seed {seed}: not recorded, failed jobs {failures}\n")
            status = 1
            continue
        record = {"workload": opts.workload, "seed": seed, "geometry": geom,
                  "commit": commit, "src_sha256": run.src_digest(src),
                  "scores": {r["id"]: r["scores"] for r in result["runs"]
                             if r["scores"] is not None}}
        path = os.path.join(out_dir, f"seed-{seed}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
