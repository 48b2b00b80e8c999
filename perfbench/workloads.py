"""The benchmark's workloads: seeded inputs and the CLI jobs run on them.

Each workload writes its inputs under a work directory and returns its job
list.  A job is one ``stereoqa`` command line run in-process through
``stereoqa.cli.main``; ``frames`` is the number of stereo frames in the
sequence it scores (0 for jobs that score nothing) and ``check`` names what
its output is.
"""

from __future__ import annotations

import json
import os

import scene

FR_METRICS = ("psnr_s", "ssim_s", "msssim_s", "vif_s", "ddl1_s", "oq_s", "ciq_s",
              "phvs3d_s", "phsd_s", "mj3d_s", "hv3d_s", "flosim3d_s")
NR_METRICS = ("gbim_s", "nrpbm_s", "blur_farias_s", "block_farias_s", "sadaka_s",
              "vqsm_s", "aqi_s", "qa3d_s", "nospdm_s")

# width, height, frames, pixel format
GEOMETRY = {
    "fr_live": (480, 270, 2, "yuv420p8"),
    "study": (320, 240, 2, "gray8"),
}

COMMANDS = ("score-fr", "score-nr", "saliency", "disparity", "distort", "evaluate")


def _report_job(job_id, argv, out, frames):
    return {"id": job_id, "argv": [*argv, "--out", out], "frames": frames,
            "check": "report", "output": out}


def fr_live(work: str, seed: int, width: int, height: int, frames: int,
            pix_fmt: str) -> list[dict]:
    """All 12 FR metrics, one invocation each, with live baseline saliency
    and estimated disparity, as a user scoring one pair would run them."""
    ref_scene = scene.make_scene(seed, width, height, frames)
    ref = scene.write_sequence(ref_scene, os.path.join(work, "ref"), pix_fmt)
    dist = scene.write_sequence(scene.degrade(ref_scene, seed),
                                os.path.join(work, "dist"), pix_fmt)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    return [_report_job(f"score-fr:{m}",
                        ["score-fr", "--metric", m, "--ref", ref, "--dist", dist,
                         "--saliency", "baseline"],
                        os.path.join(out, f"{m}.json"), frames)
            for m in FR_METRICS]


def _study_items(seed: int, width: int, height: int) -> dict:
    return {
        "awgn": {"kind": "awgn", "params": {"variance": 0.002}, "seed": seed},
        "blur": {"kind": "gaussian_blur", "params": {"sigma": 2.0, "size": 7},
                 "region": [height // 6, width // 5, height // 2, width // 2]},
        "quant": {"kind": "block_quantize", "params": {"step": 40.0},
                  "region": [0, 0, 2 * height // 3, 3 * width // 4]},
    }


def study(work: str, seed: int, width: int, height: int, frames: int,
          pix_fmt: str) -> list[dict]:
    """A subjective-study pipeline: distort the reference into items, write
    disparity and saliency maps once per sequence, score every item with all
    21 metrics through those maps, then correlate with the MOS table."""
    ref = scene.write_sequence(scene.make_scene(seed, width, height, frames),
                               os.path.join(work, "ref"), pix_fmt)
    items = _study_items(seed, width, height)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    nr_config = os.path.join(work, "nr_config.json")
    with open(nr_config, "w") as fh:
        json.dump({"qa3d_history": frames - 1}, fh)
    mos = os.path.join(work, "mos.csv")
    scene.write_mos_csv(mos, list(items), seed)

    jobs = []
    seqs = {"ref": ref}
    for name, spec in items.items():
        spec_path = os.path.join(work, f"{name}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        item_dir = os.path.join(work, name)
        seqs[name] = os.path.join(item_dir, "descriptor.json")
        jobs.append({"id": f"distort:{name}", "frames": 0, "check": "files",
                     "argv": ["distort", "--in", ref, "--spec", spec_path,
                              "--out", item_dir],
                     "output": [seqs[name]]})
    maps = {}
    for name, desc in seqs.items():
        for command in ("disparity", "saliency"):
            d = os.path.join(work, f"{name}.{command}")
            maps[name, command] = f"dir:{d}"
            jobs.append({"id": f"{command}:{name}", "frames": 0, "check": "files",
                         "argv": [command, "--in", desc, "--out", d],
                         "output": [os.path.join(d, f"{i:06d}.pgm")
                                    for i in range(frames)]})
    objective = []
    for name in items:
        for m in FR_METRICS:
            path = os.path.join(out, f"{name}.{m}.json")
            jobs.append(_report_job(
                f"score-fr:{name}:{m}",
                ["score-fr", "--metric", m, "--ref", ref, "--dist", seqs[name],
                 "--saliency", maps["ref", "saliency"],
                 "--disparity-ref", maps["ref", "disparity"],
                 "--disparity-dist", maps[name, "disparity"]], path, frames))
            objective.append(f"{name}={path}")
        for m in NR_METRICS:
            path = os.path.join(out, f"{name}.{m}.json")
            extra = ["--config", nr_config] if m == "qa3d_s" else []
            jobs.append(_report_job(
                f"score-nr:{name}:{m}",
                ["score-nr", "--metric", m, "--dist", seqs[name],
                 "--saliency", maps[name, "saliency"],
                 "--disparity", maps[name, "disparity"], *extra], path, frames))
            objective.append(f"{name}={path}")
    perf = os.path.join(out, "perf.csv")
    jobs.append({"id": "evaluate", "frames": 0, "check": "perf", "output": perf,
                 "argv": ["evaluate", "--scores", mos, "--objective", *objective,
                          "--logistic", "--out", perf]})
    return jobs


WORKLOADS = {"fr_live": fr_live, "study": study}
