"""One benchmark worker process: import stereoqa, signal ready, run jobs.

Usage: worker.py --src DIR [--jobs FILE --result FILE --budget S --trace 0|1]

The worker prints ``ready`` on stdout once ``stereoqa.cli`` (and with it
numpy and scipy) is imported; without ``--jobs`` it then exits, which is how
set-up time is sampled.  With ``--jobs`` it runs the job list in order, back
to back, starting over until ``--budget`` seconds have passed and every job
has run at least once, then writes the timings, parsed outputs, peak RSS
and (with ``--trace 1``) the per-layer summary to ``--result``.
"""

import argparse
import csv
import json
import os
import resource
import sys
import threading
import time
import traceback


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _read_output(job):
    """Scores the job produced, or raise if its output is missing or bad."""
    if job["check"] == "report":
        rep = _strict_json(job["output"])
        return {"score": float(rep["score"]),
                "frame_scores": [float(v) for v in rep["frame_scores"]]}
    if job["check"] == "perf":
        with open(job["output"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError("empty performance table")
        return {"rows": {f"{r['metric']}/{r['saliency_mode']}":
                         [float(r[k]) for k in ("pcc", "scc", "rmse", "or", "n")]
                         for r in rows}}
    missing = [p for p in job["output"] if not os.path.isfile(p)]
    if missing:
        raise FileNotFoundError(f"missing outputs: {missing}")
    return None


def _jobs_default(cli):
    """The --jobs value score-fr runs with when the flag is not given."""
    args = cli.build_parser().parse_args(
        ["score-fr", "--metric", "psnr_s", "--ref", "r", "--dist", "d", "--out", "o"])
    return getattr(args, "jobs", None)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--jobs")
    ap.add_argument("--result")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    opts = ap.parse_args()

    sys.path.insert(0, opts.src)
    import stereoqa.cli as cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if opts.jobs is None:
        return 0

    with open(opts.jobs) as fh:
        jobs = json.load(fh)
    jobs_default = _jobs_default(cli)
    tracer = None
    if opts.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    runs = []
    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < opts.budget:
        job = jobs[i % len(jobs)]
        i += 1
        error = None
        t0 = time.perf_counter()
        rec = tracer.open(f"cli.{job['argv'][0]}") if tracer else None
        try:
            code = cli.main(job["argv"])
        except Exception:
            code, error = None, traceback.format_exc()
        if tracer:
            tracer.close(rec, failed=error is not None)
        elapsed = time.perf_counter() - t0
        scores = None
        if error is None and code == 0:
            try:
                scores = _read_output(job)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"bad output: {exc!r}"
        runs.append({"id": job["id"], "seconds": elapsed, "code": code,
                     "error": error, "scores": scores})

    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "jobs_default": jobs_default,
        "versions": {"numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer:
        from workloads import COMMANDS, FR_METRICS, NR_METRICS

        result["layers"] = spans.summarize(
            tracer.records, threading.main_thread().ident,
            sum(r["seconds"] for r in runs), FR_METRICS, NR_METRICS, COMMANDS)
    with open(opts.result, "w") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
