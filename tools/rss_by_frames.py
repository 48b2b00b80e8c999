#!/usr/bin/env python3
"""Peak memory of one stereoqa command process by sequence length.

Usage: python3 tools/rss_by_frames.py SRC [--metric M ...] [--frames N ...]
                                      [--max-growth R]

SRC is the directory that holds the ``stereoqa`` package (``src`` of a
checkout).  For each frame count N (default 2 8 32) the script writes a
seeded 480x270 yuv420p8 reference pair and a noisy copy of it into a
temporary directory, through the package's own ``distort.apply`` and
``save_sequence``.  On that pair it runs, each in a fresh ``python -m
stereoqa.cli`` process: ``score-fr --metric M --saliency baseline`` for each
metric M (default ``ssim_s``; disparity is estimated), ``score-nr --metric
qa3d_s --saliency baseline`` with ``qa3d_history`` 1 on the distorted
sequence, ``disparity``, ``saliency --disparity estimate`` and ``distort``
with a list spec (awgn, then gaussian_blur) of the reference.  It prints one line per
command: its name, N and that process's peak resident memory in MB
(``ru_maxrss`` from ``wait4``).  With ``--max-growth R`` it exits 1 when, for
any command, the peak of the last count is above R times the peak of the
first.
"""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np

WIDTH, HEIGHT = 480, 270
DISPARITY = 4  # pixels between the views
SPEC = [{"kind": "awgn", "params": {"variance": 0.001}, "seed": 3}, {"kind": "gaussian_blur"}]
QA3D_CONFIG = {"qa3d_history": 1}  # scores every frame after the first


def write_pair(out_dir, frames, seed=0):
    """Write ``ref.json`` and ``dist.json``, a reference and a distorted
    yuv420p8 sequence, with their streams in ``out_dir``: a smooth noise
    texture that moves one row per frame, seen DISPARITY pixels apart by the
    two views, with chroma that follows the luma; the distorted copy adds
    Gaussian noise of sigma 6 to the luma.  Also write ``spec.json``, the
    list spec the ``distort`` command is measured with, and ``qa3d.json``,
    the config of the ``qa3d_s`` command."""
    from stereoqa.distort import DistortionSpec, apply
    from stereoqa.media import Frame, StereoFrame, StereoSequence, save_sequence

    rows, cols = HEIGHT + frames, WIDTH + DISPARITY
    noise = np.random.default_rng(seed).random((rows + 4, cols + 4))
    texture = sum(noise[i:i + rows, j:j + cols] for i in range(5) for j in range(5))
    texture = np.minimum(255.0 * (texture - texture.min()) / np.ptp(texture), 255.0)

    def view(t, x0):
        luma = texture[t:t + HEIGHT, x0:x0 + WIDTH]
        chroma = luma[::2, ::2]
        return Frame(luma, 0.5 * chroma + 64.0, 192.0 - 0.5 * chroma)

    ref = StereoSequence([StereoFrame(view(t, 0), view(t, DISPARITY)) for t in range(frames)],
                         fps=25.0)
    dist = apply(ref, DistortionSpec("awgn", {"variance": (6.0 / 255.0) ** 2}, seed=seed))
    for name, seq in (("ref", ref), ("dist", dist)):
        streams = (os.path.join(out_dir, f"{name}-{v}.raw") for v in ("left", "right"))
        save_sequence(seq, *streams, format="yuv420p8").to_json(
            os.path.join(out_dir, f"{name}.json"))
    for name, value in (("spec", SPEC), ("qa3d", QA3D_CONFIG)):
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            json.dump(value, fh)


def _commands(d, metrics):
    """The measured commands on the pair in ``d``, by name: their arguments
    after ``python -m stereoqa.cli``."""
    ref, dist = (os.path.join(d, f"{name}.json") for name in ("ref", "dist"))
    commands = {metric: ["score-fr", "--metric", metric, "--ref", ref, "--dist", dist,
                         "--saliency", "baseline", "--out", os.path.join(d, f"{metric}.json")]
                for metric in metrics}
    commands["qa3d_s"] = ["score-nr", "--metric", "qa3d_s", "--dist", dist,
                          "--saliency", "baseline", "--config", os.path.join(d, "qa3d.json"),
                          "--out", os.path.join(d, "qa3d_s.json")]
    commands["disparity"] = ["disparity", "--in", ref, "--out", os.path.join(d, "disparity")]
    commands["saliency"] = ["saliency", "--in", ref, "--disparity", "estimate",
                            "--out", os.path.join(d, "saliency")]
    commands["distort"] = ["distort", "--in", ref, "--spec", os.path.join(d, "spec.json"),
                           "--out", os.path.join(d, "distort")]
    return commands


def _peak_rss_mb(src, name, argv, frames, d):
    """Peak RSS in MB of one fresh ``python -m stereoqa.cli`` process."""
    env = dict(os.environ, PYTHONPATH=src)
    with open(os.path.join(d, "stderr.txt"), "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "stereoqa.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{name} on {frames} frames exited with "
                             f"{proc.returncode}:\n{err.read()}")
    return usage.ru_maxrss * 1024 / 1e6  # KiB on Linux, as perfbench's peak_rss_mb


def peaks_mb(src, metrics, frames):
    """Peak RSS in MB of each measured command, by name, on a new pair."""
    with tempfile.TemporaryDirectory() as d:
        # in a process of its own: a child's ru_maxrss also counts the memory
        # its parent held when it started, and the float64 pair is large
        writer = multiprocessing.get_context("spawn").Process(target=write_pair,
                                                              args=(d, frames))
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            raise SystemExit(f"writing the {frames}-frame pair failed")
        peaks = {}
        for name, argv in _commands(d, metrics).items():
            peaks[name] = _peak_rss_mb(src, name, argv, frames, d)
            print(f"{name} {WIDTH}x{HEIGHT} {frames} frames: {peaks[name]:.1f} MB", flush=True)
        return peaks


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src")
    parser.add_argument("--metric", nargs="+", default=["ssim_s"])
    parser.add_argument("--frames", type=int, nargs="+", default=[2, 8, 32])
    parser.add_argument("--max-growth", type=float, default=None)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)  # write_pair uses this stereoqa too
    peaks = [peaks_mb(src, args.metric, frames) for frames in args.frames]
    status = 0
    for name, first in peaks[0].items():
        growth = peaks[-1][name] / first
        if args.max_growth is not None and growth > args.max_growth:
            print(f"{name}: peak RSS grew {growth:.2f}x from {args.frames[0]} to "
                  f"{args.frames[-1]} frames, above {args.max_growth}x")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
