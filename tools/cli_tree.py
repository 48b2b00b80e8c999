#!/usr/bin/env python3
"""Run a fixed, seeded set of stereoqa commands and keep every output.

Usage: python3 tools/cli_tree.py SRC OUT

SRC is the directory that holds the ``stereoqa`` package (``src`` of a
checkout).  OUT must not exist; it is created.  The script writes seeded
input sequences under OUT and runs each command in-process through
``stereoqa.cli.main``, with OUT as the working directory and relative paths
only.  Every output lands under OUT, and ``log.jsonl`` gets one line per
command: its argv, exit code, stderr and stdout, with the absolute paths of
OUT and SRC replaced by ``<OUT>`` and ``<SRC>``.  Trees made from two
checkouts compare with ``diff -r``, so a refactor that keeps every output
leaves no difference.

The command set: ``info``; ``distort`` with each kind and a list spec;
``disparity``; ``saliency`` with no, estimated and ``dir:`` disparity, plus
config cases; every metric under no, baseline and ``dir:`` saliency with
frame CSVs, and one ``--config`` case each; ``evaluate`` as csv and json,
with and without ``--logistic``, and once with a group of constant scores;
and, with and without ``--config``, pairs whose frame counts or sizes
differ.  It runs at five awkward two-frame sizes, in each pixel format; at
one 12-frame size, on which ``flosim3d_s`` and ``qa3d_s`` score several
frames, also against the left-blurred item; and at one single-frame size,
on which ``info`` flags the undefined TI and the temporal metrics exit 1.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

import numpy as np

FR_METRICS = ("psnr_s", "ssim_s", "msssim_s", "vif_s", "ddl1_s", "oq_s", "ciq_s",
              "phvs3d_s", "phsd_s", "mj3d_s", "hv3d_s", "flosim3d_s")
NR_METRICS = ("gbim_s", "nrpbm_s", "blur_farias_s", "block_farias_s", "sadaka_s",
              "vqsm_s", "aqi_s", "qa3d_s", "nospdm_s")

# tag: (height, width, pixel format, frames)
SIZES = {"a": (64, 64, "gray8", 2), "b": (70, 90, "yuv444p8", 2), "c": (33, 97, "gray8", 2),
         "d": (8, 40, "gray8", 2), "e": (45, 74, "yuv420p8", 2), "f": (48, 64, "gray8", 12),
         "g": (40, 48, "gray8", 1)}
DISPARITY = 3  # pixels between the views of the generated scenes


def _specs(height, width):
    region = [1, 2, max(1, height // 2), max(1, width // 2)]
    return {
        "awgn": {"kind": "awgn", "params": {"variance": 0.003}, "seed": 11},
        "blur": {"kind": "gaussian_blur", "params": {"size": 5, "sigma": 1.5},
                 "target": "left_only"},
        "shift": {"kind": "intensity_shift", "params": {"delta": -12.5}, "region": region},
        "quant": {"kind": "block_quantize", "params": {"step": 30.0},
                  "target": "right_only"},
        "list": [{"kind": "awgn", "params": {"variance": 0.001}, "seed": 3},
                 {"kind": "block_quantize", "params": {"step": 20.0}},
                 {"kind": "intensity_shift", "region": region}],
    }


# one config per metric, scored against the "list" item at every size
CONFIGS = {
    "psnr_s": {"psnr_cap": 60.0},
    "ssim_s": {"ssim_window": 7, "ssim_sigma": 1.0},
    "msssim_s": {"ssim_window": 1},
    "vif_s": {"vif_scales": 3, "vif_sigma_n_sq": 1.0},
    "ddl1_s": {"ssim_c1": 1.0},
    "oq_s": {"oq_b": 0.5, "oq_c": 0.25},
    "ciq_s": {"ssim_c2": 10.0},
    "phvs3d_s": {"psnr_cap": 40.0, "csf_mask": [[1, 2, 3, 4]] * 4},
    "phsd_s": {"phsd_epsilon": 0.25, "phsd_alpha": 2.0},
    "mj3d_s": {"ssim_window": 1, "msssim_exponents": [0.2] * 5},
    "hv3d_s": {"hv3d_block": 4, "hv3d_beta2": 0.5},
    "flosim3d_s": {"ssim_window": 1, "flosim_patch": 4},
    "gbim_s": {"gbim_grid": 4, "gbim_masking": "luminance"},
    "nrpbm_s": {"nrpbm_probe": 5},
    "blur_farias_s": {"farias_edge_threshold": 0.2},
    "block_farias_s": {"gbim_grid": 4},
    "sadaka_s": {"sadaka_region": 16, "sadaka_beta": 2.0},
    "vqsm_s": {"vqsm_alphas": [0.5, 1.0, 0.0, -1.0, 0.25]},
    "aqi_s": {"aqi_directions": [0, 90], "aqi_bins": 16},
    "qa3d_s": {"qa3d_history": 1},
    "nospdm_s": {"nospdm_lambda": 0.25},
}
# values at the ends of the float range, scored on identical inputs at size "a"
EDGE_CONFIGS = [
    ("ssim_s", {"ssim_sigma": 1e200}), ("ssim_s", {"ssim_c1": 1e308}),
    ("oq_s", {"oq_a": 1e308}), ("phvs3d_s", {"psnr_cap": -1e308}),
    ("phsd_s", {"psnr_cap": -1e308}), ("msssim_s", {"ssim_window": 65}),
]
VAM_CONFIGS = {
    "pairs": {"w_color": 0.5, "center_surround_pairs": [[1, 3]], "smooth_sigma": 1.0},
    "huge-sigma": {"smooth_sigma": 1e308},
}


def _write_json(path, value):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")
    return path


def _u8(plane):
    return np.clip(np.floor(plane + 0.5), 0, 255).astype(np.uint8).tobytes()


def _write_sequence(out_dir, seed, height, width, fmt, frames):
    """A box-blurred noise texture that moves one row per frame, with a flat
    corner; the right view sees it DISPARITY pixels to the left."""
    rng = np.random.default_rng(seed)
    pad = 2 * DISPARITY
    rows, cols = height + frames, width + 2 * pad
    noise = rng.random((rows + 2, cols + 2))
    texture = sum(noise[i:i + rows, j:j + cols] for i in range(3) for j in range(3))
    texture = 255.0 * (texture - texture.min()) / (texture.max() - texture.min())
    texture[: rows // 4, : cols // 4] = 97.0
    os.makedirs(out_dir, exist_ok=True)
    for view, x0 in (("left", pad), ("right", pad + DISPARITY)):
        with open(os.path.join(out_dir, f"{view}.raw"), "wb") as fh:
            for t in range(frames):
                luma = texture[t:t + height, x0:x0 + width]
                fh.write(_u8(luma))
                if fmt != "gray8":
                    chroma = (luma if fmt == "yuv444p8"
                              else luma[:height // 2 * 2:2, :width // 2 * 2:2])
                    fh.write(_u8(0.5 * chroma + 64.0))
                    fh.write(_u8(192.0 - 0.5 * chroma))
    return _write_json(os.path.join(out_dir, "descriptor.json"), {
        "left": "left.raw", "right": "right.raw", "width": width, "height": height,
        "fps": 25.0, "frames": frames, "format": fmt})


def _write_mos(path, items, seed):
    rng = np.random.default_rng(seed)
    level = np.linspace(80.0, 30.0, len(items))
    with open(path, "w") as fh:
        fh.write("item_id,subject_id,score\n")
        for item, m in zip(items, level):
            for j in range(6):
                fh.write(f"{item},s{j},{m + j + rng.normal(0.0, 5.0):.3f}\n")
    return path


def _commands():
    """Write the inputs under the working directory and yield each argv."""
    for seed, (tag, (height, width, fmt, frames)) in enumerate(SIZES.items()):
        ref = _write_sequence(f"{tag}/ref", seed, height, width, fmt, frames)
        os.makedirs(f"{tag}/score")
        yield ["info", "--in", ref]
        items = {}
        for name, spec in _specs(height, width).items():
            spec_path = _write_json(f"{tag}/spec/{name}.json", spec)
            yield ["distort", "--in", ref, "--spec", spec_path, "--out", f"{tag}/{name}"]
            items[name] = f"{tag}/{name}/descriptor.json"
        dist = items["list"]
        for name, desc in (("ref", ref), ("list", dist)):
            yield ["disparity", "--in", desc, "--out", f"{tag}/disp/{name}"]
        for mode in ("none", "estimate", f"dir:{tag}/disp/ref"):
            yield ["saliency", "--in", ref, "--out", f"{tag}/sal/{mode.split(':')[0]}",
                   "--disparity", mode]
        for name, cfg in VAM_CONFIGS.items():
            yield ["saliency", "--in", ref, "--out", f"{tag}/sal/config-{name}",
                   "--config", _write_json(f"{tag}/config/vam-{name}.json", cfg)]

        def score(metric, desc, out, *extra):
            if metric in FR_METRICS:
                argv = ["score-fr", "--metric", metric, "--ref", ref, "--dist", desc]
            else:
                argv = ["score-nr", "--metric", metric, "--dist", desc]
            return [*argv, "--out", f"{out}.json", "--frame-csv", f"{out}.csv", *extra]

        maps = {"d_ref": f"dir:{tag}/disp/ref", "d_dist": f"dir:{tag}/disp/list"}
        for metric in FR_METRICS + NR_METRICS:
            yield score(metric, dist, f"{tag}/score/{metric}.none")
            yield score(metric, dist, f"{tag}/score/{metric}.baseline",
                        "--saliency", "baseline")
            disparity = (["--disparity-ref", maps["d_ref"], "--disparity-dist", maps["d_dist"]]
                         if metric in FR_METRICS else ["--disparity", maps["d_dist"]])
            yield score(metric, dist, f"{tag}/score/{metric}.dir",
                        "--saliency", f"dir:{tag}/sal/none", *disparity)
            cfg = _write_json(f"{tag}/config/{metric}.json", CONFIGS[metric])
            yield score(metric, dist, f"{tag}/score/{metric}.config", "--config", cfg)
        if frames > 2:
            # the left-only blur moves the estimated disparity, so flosim3d_s's depth
            # term is not 0 and its flow term shows in the scores
            for metric in ("flosim3d_s", "qa3d_s"):
                yield score(metric, items["blur"], f"{tag}/score/{metric}.blur")
        if tag == "a":
            os.makedirs("a/eval")
            for i, (metric, cfg) in enumerate(EDGE_CONFIGS):
                path = _write_json(f"a/config/edge{i}.json", cfg)
                yield score(metric, ref, f"a/score/{metric}.edge{i}", "--config", path)
            # inputs that disagree, whose error never names the config
            for name, (h, w, n) in {"three": (64, 64, 3), "narrow": (64, 48, 2)}.items():
                desc = _write_sequence(f"a/{name}", 90, h, w, fmt, n)
                yield score("ssim_s", desc, f"a/score/ssim_s.{name}")
                yield score("ssim_s", desc, f"a/score/ssim_s.{name}.config",
                            "--config", "a/config/ssim_s.json")
            for name, desc in items.items():
                if name != "list":
                    for metric in FR_METRICS + NR_METRICS:
                        yield score(metric, desc, f"a/eval/{name}.{metric}")
            # the reports that the runs above wrote
            reports = {(name, metric): f"a/score/{metric}.none.json" if name == "list"
                       else f"a/eval/{name}.{metric}.json"
                       for metric in FR_METRICS + NR_METRICS for name in items}
            objective = [f"{name}={path}" for (name, _), path in reports.items()
                         if os.path.exists(path)]
            mos = _write_mos("a/eval/mos.csv", list(items), 7)
            for fmt in ("csv", "json"):
                for logistic in ([], ["--logistic"]):
                    out = f"a/eval/perf{'-logistic' if logistic else ''}.{fmt}"
                    yield ["evaluate", "--scores", mos, "--objective", *objective,
                           "--format", fmt, *logistic, "--out", out]
            flat = [f"{name}=" + _write_json(f"a/eval/flat/{name}.json", {
                "metric": "flat_s", "saliency_mode": "none", "score": 1.0}) for name in items]
            yield ["evaluate", "--scores", mos, "--objective", *objective, *flat,
                   "--out", "a/eval/perf-flat.csv"]


def _relative(text, src, out):
    return text.replace(out, "<OUT>").replace(src, "<SRC>")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    os.makedirs(out)
    sys.path.insert(0, src)
    from stereoqa.cli import main as cli_main

    os.chdir(out)
    start = time.perf_counter()
    count = failed = 0
    with open("log.jsonl", "w") as log:
        for command in _commands():
            err, text = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(text):
                try:
                    code = cli_main(command)
                except Exception:  # noqa: BLE001 - logged, so one crash does not end the tree
                    code = "exception"
                    err.write(traceback.format_exc(limit=-1))
            count += 1
            failed += code != 0
            log.write(json.dumps({"argv": command, "code": code,
                                  "stderr": _relative(err.getvalue(), src, out),
                                  "stdout": _relative(text.getvalue(), src, out)}) + "\n")
    sys.stdout.write(f"{count} commands, {failed} with a non-zero exit, "
                     f"{time.perf_counter() - start:.1f} s\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
