"""Benchmark entry point for the stereo scoring pipeline.

    python3 perfbench/run.py --workload fr_live|study --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is the
checkout's ``src/stereoqa``, imported by fresh worker processes.  Inputs are
generated from the seed under ``.bench_work/``.

``--trace 0`` samples set-up time (``SETUP_SAMPLES`` worker starts, median),
then runs the workload's jobs back to back in one worker for at least
``--seconds`` (always every job at least once) and reports the end-to-end
metrics.  ``--trace 1`` runs the job list exactly once untraced and once
with every stereoqa layer wrapped in spans, so its counts are per pass and
repeat exactly, and reports the per-layer metrics.  Either way every job's output is checked: exit code
0, a report that parses as strict JSON, finite scores, and scores equal to
the reference scores recorded in ``refs/`` (see ``record.py``) within 1e-12
relative.  A seed with no recorded references runs the scene of a recorded
seed (``seed mod`` the number recorded), so every run is checked.

The last line of standard output is the JSON result; the lines before it
give the provenance record and a readable summary.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFS = os.path.join(HERE, "refs")
SETUP_SAMPLES = 5  # worker starts timed per run, the batch worker included
DEADLINE_S = 170.0
SCORE_REL_TOL = 1e-12
PERF_ABS_TOL = 1.5e-4  # evaluate prints 4 decimals; allow one last-digit flip


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def geometry(workload: str, size=None):
    """[width, height, frames, pixel format]; ``size`` is "WxH"."""
    w, h, frames, fmt = workloads.GEOMETRY[workload]
    if size:
        w, _, h = size.partition("x")
        w, h = int(w), int(h)
    return [w, h, frames, fmt]


def load_refs(refs_dir: str, workload: str, geom) -> dict:
    """{seed: {job id: scores}} for the references recorded at ``geom``."""
    refs = {}
    for path in glob.glob(os.path.join(refs_dir, workload, "seed-*.json")):
        with open(path) as fh:
            data = json.load(fh)
        if data["geometry"] == geom:
            refs[int(data["seed"])] = data["scores"]
    return refs


def scene_seed(seed: int, refs: dict) -> int:
    if not refs or seed in refs:
        return seed
    return sorted(refs)[seed % len(refs)]


def prepare(workload: str, seed: int, geom, tag: str = "") -> tuple[str, list]:
    """Fresh work directory with the workload's inputs and job file."""
    work = os.path.join(WORK, workload + tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = workloads.WORKLOADS[workload](os.path.join(work, "inputs"), seed, *geom)
    with open(os.path.join(work, "jobs.json"), "w") as fh:
        json.dump(jobs, fh)
    return work, jobs


def _check_src(src: str) -> None:
    if not os.path.isfile(os.path.join(src, "stereoqa", "cli.py")):
        raise BenchError(f"no stereoqa sources under {src}")


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("benchmark deadline exceeded")
    return left


def start_worker(src: str, deadline: float, extra=(), log=None):
    """Launch a worker; return (process, seconds until it reported ready)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=log if log is not None else subprocess.DEVNULL,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker failed to start (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=_deadline_left(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline") from None


def run_batch(work: str, src: str, budget: float, trace: int, deadline: float):
    """One fresh worker runs the job file; returns (result, set-up seconds)."""
    result_path = os.path.join(work, f"result-trace{trace}.json")
    with open(os.path.join(work, f"worker-trace{trace}.log"), "w") as log:
        proc, ready = start_worker(
            src, deadline, ["--jobs", os.path.join(work, "jobs.json"),
                            "--result", result_path, "--budget", str(budget),
                            "--trace", str(trace)], log)
        finish(proc, deadline)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise BenchError(f"worker exited with {proc.returncode}; see {work}")
    with open(result_path) as fh:
        return json.load(fh), ready


def batch_wall(runs) -> float:
    """Seconds for one pass over the job list: the sum over jobs of each
    job's median wall time, so a partly repeated list weighs every job once."""
    by_id = {}
    for r in runs:
        by_id.setdefault(r["id"], []).append(r["seconds"])
    return sum(statistics.median(v) for v in by_id.values())


def _values(scores):
    if "rows" in scores:
        return [v for row in scores["rows"].values() for v in row]
    return [scores["score"], *scores["frame_scores"]]


def _compare(got, want) -> str | None:
    if "rows" in got:
        if set(got["rows"]) != set(want["rows"]):
            return "performance rows differ from the reference"
        for key, row in got["rows"].items():
            ref = want["rows"][key]
            if row[-1] != ref[-1] or any(abs(a - b) > PERF_ABS_TOL
                                         for a, b in zip(row[:-1], ref[:-1])):
                return f"{key}: {row} vs reference {ref}"
        return None
    a, b = _values(got), _values(want)
    if len(a) != len(b):
        return f"{len(a)} scores vs {len(b)} in the reference"
    for x, y in zip(a, b):
        if not math.isclose(x, y, rel_tol=SCORE_REL_TOL, abs_tol=0.0):
            return f"score {x!r} vs reference {y!r}"
    return None


def check_run(run, ref_scores) -> str | None:
    """Why a job execution failed, or None if its output is correct."""
    if run["error"]:
        return run["error"].strip().splitlines()[-1]
    if run["code"] != 0:
        return f"exit code {run['code']}"
    if run["scores"] is None:
        return None
    if not all(math.isfinite(v) for v in _values(run["scores"])):
        return "non-finite score"
    if ref_scores is None:
        return None
    if run["id"] not in ref_scores:
        return "no reference score recorded"
    return _compare(run["scores"], ref_scores[run["id"]])


def _cache_sizes() -> dict:
    """CPU 0's caches as reported by sysfs, e.g. {"L1d": "48K"}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        parts = []
        for name in ("level", "type", "size"):
            try:
                with open(os.path.join(index, name)) as fh:
                    parts.append(fh.read().strip())
            except OSError:
                break
        if len(parts) == 3:
            out[f"L{parts[0]}{parts[1][0].lower()}"] = parts[2]
    return out


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "stereoqa", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(opts, seed_used: int, geom, result) -> dict:
    return {
        "workload": opts.workload, "seed": opts.seed, "scene_seed": seed_used,
        "geometry": geom, "seconds": opts.seconds, "trace": opts.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(), "python": platform.python_version(),
        **result["versions"], "jobs_default": result["jobs_default"],
        "git_commit": _git_commit(), "src_sha256": src_digest(SRC),
        "machine": platform.machine(),
    }


def e2e_metrics(result, setups, jobs) -> dict:
    frames = sum(j["frames"] for j in jobs)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "frames_per_s": {"value": frames / batch_wall(result["runs"]),
                         "unit": "frames/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def layer_metrics(base, traced) -> dict:
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = {
        "value": batch_wall(traced["runs"]) / batch_wall(base["runs"]),
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", help="WxH instead of the workload's geometry")
    ap.add_argument("--refs", default=REFS, help="reference score directory")
    opts = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        _check_src(SRC)
        geom = geometry(opts.workload, opts.size)
        refs = load_refs(opts.refs, opts.workload, geom)
        seed_used = scene_seed(opts.seed, refs)
        work, jobs = prepare(opts.workload, seed_used, geom)
        if opts.trace == 0:
            setups = [start_worker(SRC, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
            result, ready = run_batch(work, SRC, opts.seconds, 0, deadline)
            results = [result]
            metrics = e2e_metrics(result, [*setups, ready], jobs)
        else:
            base, _ = run_batch(work, SRC, 0.0, 0, deadline)
            result, _ = run_batch(work, SRC, 0.0, 1, deadline)
            results = [base, result]
            metrics = layer_metrics(base, result)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2

    ref_scores = refs.get(seed_used)
    attempted = failed = 0
    for res in results:
        for run in res["runs"]:
            attempted += 1
            why = check_run(run, ref_scores)
            if why:
                failed += 1
                sys.stderr.write(f"FAILED {run['id']}: {why}\n")
    if ref_scores is None:
        sys.stderr.write("warning: no reference scores for this geometry; "
                         "checked exit codes and finiteness only\n")

    print("provenance " + json.dumps(provenance(opts, seed_used, geom, result),
                                     sort_keys=True))
    print(f"{opts.workload}: {attempted} jobs attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
