import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import stereoqa
from stereoqa import fr, nr, stats
from stereoqa.cli import _DISPARITY_SCALE, main
from stereoqa.disparity import DisparityMap
from stereoqa.distort import DistortionSpec, apply
from stereoqa.fr import FR_METRICS
from stereoqa.media import Frame, SequenceDescriptor, StereoFrame, StereoSequence, decode, \
    load_map_series, load_sequence, \
    read_json, save_map_series, save_sequence
from stereoqa.nr import NR_METRICS
from stereoqa.rng import SeededRng
from stereoqa.saliency import baseline_vam

from conftest import make_seq


def _write_fixture(tmp_path, name, seq):
    d = tmp_path / name
    d.mkdir()
    desc = save_sequence(seq, str(d / "l.raw"), str(d / "r.raw"))
    path = d / "desc.json"
    desc.to_json(str(path))
    return str(path)


@pytest.fixture
def desc_path(tmp_path):
    return _write_fixture(tmp_path, "seq", make_seq(101, frames=2, size=64))


def test_info(desc_path, capsys):
    assert main(["info", "--in", desc_path]) == 0
    out = capsys.readouterr().out
    assert "size: 64x64" in out
    assert "frames: 2" in out
    assert "si:" in out and "ti:" in out


def test_score_fr_identical_inputs(desc_path, tmp_path):
    out = str(tmp_path / "rep.json")
    code = main(["score-fr", "--metric", "ssim_s", "--ref", desc_path,
                 "--dist", desc_path, "--out", out, "--saliency", "baseline"])
    assert code == 0
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["score"] == 1.0
    assert rep["saliency_mode"] == "baseline"
    assert os.path.exists(out + ".manifest.json")


def test_unknown_metric_usage_error(desc_path, tmp_path, capsys):
    code = main(["score-fr", "--metric", "nope", "--ref", desc_path,
                 "--dist", desc_path, "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_bad_arguments_exit_2(capsys):
    assert main(["score-fr"]) == 2
    assert main(["bogus-command"]) == 2


def test_jobs_option_removed(desc_path, tmp_path, capsys):
    code = main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                 "--dist", desc_path, "--out", str(tmp_path / "r.json"),
                 "--jobs", "2"])
    assert code == 2


def test_every_metric_through_cli(tmp_path):
    ref = make_seq(103, frames=3, size=64)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=4))
    ref_path = _write_fixture(tmp_path, "ref", ref)
    dist_path = _write_fixture(tmp_path, "dist", dist)
    cfg = tmp_path / "nr.json"
    cfg.write_text(json.dumps({"qa3d_history": 2}))
    for metric in FR_METRICS:
        assert main(["score-fr", "--metric", metric, "--ref", ref_path,
                     "--dist", dist_path, "--saliency", "uniform",
                     "--out", str(tmp_path / f"{metric}.json")]) == 0, metric
    for metric in NR_METRICS:
        extra = ["--config", str(cfg)] if metric == "qa3d_s" else []
        assert main(["score-nr", "--metric", metric, "--dist", dist_path,
                     "--saliency", "uniform", *extra,
                     "--out", str(tmp_path / f"{metric}.json")]) == 0, metric


def test_zero_saliency_on_every_edge_exit_1(tmp_path, capsys):
    desc = _write_fixture(tmp_path, "blocks", make_seq(5, frames=1, size=64, block=8))
    smap = np.zeros((64, 64))
    smap[0, 0] = 1.0  # inside the first flat 8x8 cell, so on no edge
    save_map_series([smap], str(tmp_path / "sal"))
    code = main(["score-nr", "--metric", "blur_farias_s", "--dist", desc,
                 "--saliency", f"dir:{tmp_path / 'sal'}",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "saliency weights sum to zero" in capsys.readouterr().err


def test_missing_input_exit_1(tmp_path, capsys):
    code = main(["info", "--in", str(tmp_path / "missing.json")])
    assert code == 1


def _assert_exit_1(code, capsys):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(fragment in err for fragment in fragments), err


def _with(key, value):
    return lambda text: json.dumps({**json.loads(text), key: value})


@pytest.mark.parametrize("mangle, field", [
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "left"}),
     "left"),
    (_with("colour", "blue"), "colour"),
    (lambda text: text[:-5], "not valid JSON"),
    (_with("width", "64"), "width"), (_with("height", 64.0), "height"),
    (_with("fps", "x"), "fps"), (_with("left", 5), "left"),
    (lambda text: json.dumps({**json.loads(text), "width": -64, "height": -64}), "width"),
    (_with("frames", 0), "frames"), (_with("frames", -2), "frames"),
    (_with("fps", 0), "fps"), (_with("fps", -1), "fps"),
], ids=["missing-field", "unknown-field", "malformed-json", "width-string",
        "height-float", "fps-string", "left-number", "size-negative", "frames-0",
        "frames-negative", "fps-0", "fps-negative"])
def test_bad_descriptor_exit_1(desc_path, tmp_path, capsys, mangle, field):
    with open(desc_path) as fh:
        bad = tmp_path / "bad.json"
        bad.write_text(mangle(fh.read()))
    assert main(["info", "--in", str(bad)]) == 1
    _assert_one_error_line(capsys, field, str(bad))


@pytest.mark.parametrize("command,metric,text,fragment", [
    pytest.param("score-fr", "psnr_s", "{psnr_cap: 60}", "not valid JSON", id="malformed-json"),
    pytest.param("score-fr", "psnr_s", '{"psnr_kap": 60.0}', "psnr_kap", id="unknown-key"),
    pytest.param("score-fr", "psnr_s", '{"psnr_cap": "x"}', "psnr_cap", id="psnr_cap-string"),
    pytest.param("score-fr", "oq_s", '{"oq_a": "x"}', "oq_a", id="oq_a-string"),
    pytest.param("score-fr", "hv3d_s", '{"hv3d_block": 7.5}', "hv3d_block",
                 id="hv3d_block-float"),
    pytest.param("score-nr", "blur_farias_s", '{"farias_edge_threshold": "x"}',
                 "farias_edge_threshold", id="farias_edge_threshold-string"),
    pytest.param("score-nr", "sadaka_s", '{"sadaka_region": 8.5}', "sadaka_region",
                 id="sadaka_region-float"),
    pytest.param("score-nr", "gbim_s", '{"gbim_grid": 8.5}', "gbim_grid", id="gbim_grid-float"),
    pytest.param("score-nr", "vqsm_s", '{"vqsm_alphas": [1, 2]}', "vqsm_alphas",
                 id="vqsm_alphas-short"),
    pytest.param("saliency", None, '{"motion_sigma": "2"}', "motion_sigma",
                 id="motion_sigma-string"),
    pytest.param("saliency", None, '{"center_surround_pairs": [[2]]}',
                 "center_surround_pairs", id="center_surround_pairs-single-level"),
    # a sigma whose 2 * sigma**2 overflows, and powers that leave the float range
    *(pytest.param("score-fr", metric, '{"ssim_sigma": 1e200}', "sigma 1e+200 too large",
                   id=f"{metric}-ssim_sigma-1e200")
      for metric in ("ssim_s", "ddl1_s", "oq_s", "ciq_s", "msssim_s", "mj3d_s", "flosim3d_s")),
    *(pytest.param("saliency", None, f'{{"{field}": 1e308}}', "sigma 1e+308 too large",
                   id=f"{field}-1e308") for field in ("smooth_sigma", "motion_sigma")),
    pytest.param("score-fr", "ssim_s", '{"ssim_c1": 1e308}', "ssim_s: overflow",
                 id="ssim_c1-1e308"),
    # the window check names the field it reads
    *(pytest.param("score-fr", metric, '{"ssim_window": 65}',
                   "ssim_window 65 is wider than the (64, 64) frame", id=f"{metric}-ssim_window-65")
      for metric in ("ssim_s", "msssim_s")),
    pytest.param("score-fr", "hv3d_s", '{"hv3d_beta3": -1e10}', "hv3d_beta3 -10000000000.0",
                 id="hv3d_beta3-negative"),
    pytest.param("score-nr", "nospdm_s", '{"nospdm_gamma1": 1e10}',
                 "nospdm_gamma1 10000000000.0", id="nospdm_gamma1-1e10"),
    pytest.param("score-nr", "sadaka_s", '{"sadaka_beta": 1e10}', "sadaka_beta 10000000000.0",
                 id="sadaka_beta-1e10"),
])
def test_bad_config_exit_1(desc_path, tmp_path, capsys, command, metric, text, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    inputs = {"score-fr": ["--metric", metric, "--ref", desc_path, "--dist", desc_path],
              "score-nr": ["--metric", metric, "--dist", desc_path],
              "saliency": ["--in", desc_path]}[command]
    assert main([command, *inputs, "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    # the line names the config file, whether decode or the run rejects the value
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
    assert fragment in err, err


@pytest.mark.parametrize("metric", ["oq_s", "ssim_s", "msssim_s"])
def test_default_window_error_names_its_field(tmp_path, capsys, metric):
    # the config never sets ssim_window; the error names that field, not a
    # "smoothing size"
    lumas = SeededRng(9).uniform(2 * 8 * 40).reshape(2, 8, 40) * 255.0
    seq = StereoSequence(frames=[StereoFrame(left=Frame(luma=lumas[0]),
                                             right=Frame(luma=lumas[1]))], fps=25.0)
    desc = _write_fixture(tmp_path, "thin", seq)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oq_b": 0.5}))
    assert main(["score-fr", "--metric", metric, "--ref", desc, "--dist", desc,
                 "--out", str(tmp_path / "r.json"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: ssim_window 11 is wider than the (8, 40) frame\n", err


def test_score_line_length_is_bounded(desc_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oq_a": 1e308}))
    out = tmp_path / "r.json"
    assert main(["score-fr", "--metric", "oq_s", "--ref", desc_path, "--dist", desc_path,
                 "--out", str(out), "--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    score = read_json(str(out))["score"]
    assert abs(score) > 1e300
    assert err == f"oq_s: {score:.6g} (composite)\n", err
    assert len(err) < 40


_SCORE_RUN = """
import os, sys
if sys.argv[1] == "one-cpu":  # before stereoqa reads the CPUs it may use
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from stereoqa import kernels
from stereoqa.cli import main
print(kernels._WORKERS)
for metric in ("hv3d_s", "flosim3d_s", "vif_s"):
    assert main(["score-fr", "--metric", metric, "--ref", sys.argv[2], "--dist", sys.argv[3],
                 "--saliency", "baseline", "--out",
                 os.path.join(sys.argv[4], metric + ".json")]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
def test_one_cpu_reports_equal_the_default_run(tmp_path):
    # 128 x 128 frames: the 2-D windows, the VIF windows and the VAM split by
    # rows in the default run, and run whole on one CPU
    ref = make_seq(107, frames=2, size=128)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=6))
    ref_path = _write_fixture(tmp_path, "ref", ref)
    dist_path = _write_fixture(tmp_path, "dist", dist)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stereoqa.__file__)))
    workers = {}
    for run in ("default", "one-cpu"):
        (tmp_path / run).mkdir()
        out = subprocess.run([sys.executable, "-c", _SCORE_RUN, run, ref_path, dist_path,
                              str(tmp_path / run)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        workers[run] = int(out.stdout)
    assert workers == {"default": len(os.sched_getaffinity(0)), "one-cpu": 1}
    for metric in ("hv3d_s", "flosim3d_s", "vif_s"):
        default = (tmp_path / "default" / f"{metric}.json").read_bytes()
        assert (tmp_path / "one-cpu" / f"{metric}.json").read_bytes() == default, metric


@pytest.mark.parametrize("spec, field", [
    ({"kind": "awgn", "params": {"variance": "0.1"}}, "variance"),
    ({"kind": "awgn", "params": [1]}, "params"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "seed": "x"}, "seed"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "region": 5}, "region"),
    (5, "JSON object"),
    ({"kind": "intensity_shift", "params": {"delta": "x"}}, "delta"),
    ({"kind": "gaussian_blur", "params": {"sigm": 1.0}}, "sigm"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "seed": 2**70}, "seed"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "seed": -1}, "seed"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "region": [0.5, 0, 10.9, 10]}, "region"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "region": [True, 0, 10, 10]}, "region"),
    ({"kind": "gaussian_blur", "params": {"size": 4.7}}, "size"),
    ({"kind": "gaussian_blur", "params": {"size": True}}, "size"),
    ({"kind": "gaussian_blur", "params": {"size": 7, "sigma": 1e200}}, "sigma 1e+200 too large"),
    # checks that need the frames: the input has 2 frames of 64 x 64
    ({"kind": "awgn", "params": {"variance": 0.1}, "seed": 2**64 - 1}, "seed"),
    ({"kind": "awgn", "params": {"variance": 0.1}, "region": [60, 0, 10, 10]}, "region"),
    ({"kind": "gaussian_blur", "params": {"size": 65}}, "blur size 65"),
    ([{"kind": "intensity_shift"}, {"kind": "gaussian_blur", "params": {"size": 65}}],
     "spec.json[1]: blur size 65"),
    ([{"kind": "intensity_shift"}, {"kind": "gaussian_blur", "params": {"size": 0}}],
     "spec.json[1]: gaussian_blur size"),
], ids=["variance-string", "params-list", "seed-string", "region-number", "bare-number",
        "delta-string", "blur-unknown-param", "seed-2**70", "seed-negative",
        "region-fractional", "region-bool", "blur-size-fractional", "blur-size-bool",
        "blur-sigma-1e200", "seed-last-stream-2**64", "region-outside-frame",
        "blur-wider-than-frame", "list-blur-wider-than-frame", "list-blur-size-0"])
def test_bad_spec_exit_1(desc_path, tmp_path, capsys, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["distort", "--in", desc_path, "--spec", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    _assert_one_error_line(capsys, field, f"error: {path}")
    assert not (tmp_path / "out").exists()


def test_bad_fr_config_value_exit_1(desc_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vif_scales": 1.5}))
    _assert_exit_1(main(["score-fr", "--metric", "vif_s", "--ref", desc_path,
                         "--dist", desc_path, "--out", str(tmp_path / "r.json"),
                         "--config", str(cfg)]), capsys)


@pytest.mark.parametrize("metric", ["vif_s", "hv3d_s"])
def test_vif_window_wider_than_frame_exit_1(desc_path, tmp_path, capsys, metric):
    # the first window, 2**1000000 + 1 pixels, is rejected before it is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vif_scales": 1000000}))
    code = main(["score-fr", "--metric", metric, "--ref", desc_path, "--dist", desc_path,
                 "--out", str(tmp_path / "r.json"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "vif_scales 1000000" in err
    assert "Traceback" not in err


def test_nrpbm_probe_wider_than_frame_exit_1(desc_path, tmp_path, capsys):
    # the 1000000 x 1000000 probe kernel is rejected before it is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nrpbm_probe": 1000000}))
    code = main(["score-nr", "--metric", "nrpbm_s", "--dist", desc_path,
                 "--out", str(tmp_path / "r.json"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "nrpbm_probe 1000000" in err
    assert "Traceback" not in err


def test_bad_nr_config_value_exit_1(desc_path, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sadaka_region": 0}))
    _assert_exit_1(main(["score-nr", "--metric", "sadaka_s", "--dist", desc_path,
                         "--out", str(tmp_path / "r.json"), "--config", str(cfg)]),
                   capsys)


def test_truncated_saliency_pgm_exit_1(desc_path, tmp_path, capsys):
    maps = str(tmp_path / "maps")
    paths = save_map_series([np.full((64, 64), 0.5)] * 2, maps)
    with open(paths[1], "r+b") as fh:
        fh.truncate(os.path.getsize(paths[1]) - 1)
    _assert_exit_1(main(["score-nr", "--metric", "gbim_s", "--dist", desc_path,
                         "--out", str(tmp_path / "r.json"), "--saliency", f"dir:{maps}"]),
                   capsys)


def test_none_and_uniform_saliency_agree(desc_path, tmp_path):
    a = str(tmp_path / "none.json")
    b = str(tmp_path / "uniform.json")
    other = _write_fixture(tmp_path, "other", make_seq(102, frames=2, size=64))
    for mode, out in (("none", a), ("uniform", b)):
        assert main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                     "--dist", other, "--out", out, "--saliency", mode]) == 0
    with open(a) as fh:
        sa = json.load(fh)["score"]
    with open(b) as fh:
        sb = json.load(fh)["score"]
    assert sa == pytest.approx(sb, rel=1e-9)


def test_score_nr(desc_path, tmp_path):
    out = str(tmp_path / "nr.json")
    csv_out = str(tmp_path / "nr.csv")
    code = main(["score-nr", "--metric", "gbim_s", "--dist", desc_path,
                 "--out", out, "--frame-csv", csv_out])
    assert code == 0
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["metric"] == "gbim_s"
    assert os.path.exists(csv_out)


def test_saliency_and_external_reuse(desc_path, tmp_path):
    maps_dir = str(tmp_path / "sal")
    assert main(["saliency", "--in", desc_path, "--out", maps_dir]) == 0
    assert os.path.exists(os.path.join(maps_dir, "000000.pgm"))
    out = str(tmp_path / "rep.json")
    code = main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                 "--dist", desc_path, "--out", out,
                 "--saliency", f"dir:{maps_dir}"])
    assert code == 0


def test_disparity_command(desc_path, tmp_path):
    out_dir = str(tmp_path / "disp")
    assert main(["disparity", "--in", desc_path, "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "000001.pgm"))


def test_disparity_maps_read_back_as_dir_sources(tmp_path):
    """Maps the disparity command writes feed ``dir:`` disparity sources,
    read back on the disparity scale, in scoring and in saliency."""
    ref = make_seq(106, frames=2, size=64)
    dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.005}, seed=2))
    paths = {"ref": _write_fixture(tmp_path, "ref", ref),
             "dist": _write_fixture(tmp_path, "dist", dist)}
    ref, dist = (load_sequence(SequenceDescriptor.from_json(p)) for p in paths.values())
    maps = {}
    for name, path in paths.items():
        out = str(tmp_path / f"d_{name}")
        assert main(["disparity", "--in", path, "--out", out]) == 0
        maps[name] = [DisparityMap(m * _DISPARITY_SCALE)
                      for m in load_map_series(out, {"width": 64, "height": 64, "count": 2})]
    assert main(["score-fr", "--metric", "hv3d_s", "--ref", paths["ref"],
                 "--dist", paths["dist"], "--disparity-ref", f"dir:{tmp_path / 'd_ref'}",
                 "--disparity-dist", f"dir:{tmp_path / 'd_dist'}",
                 "--out", str(tmp_path / "fr.json")]) == 0
    want = fr.hv3d_s(ref, dist, d_ref=maps["ref"], d_dist=maps["dist"]).score
    assert read_json(str(tmp_path / "fr.json"))["score"] == want
    cfg = tmp_path / "nr.json"
    cfg.write_text(json.dumps({"qa3d_history": 1}))
    assert main(["score-nr", "--metric", "qa3d_s", "--dist", paths["dist"],
                 "--disparity", f"dir:{tmp_path / 'd_dist'}", "--config", str(cfg),
                 "--out", str(tmp_path / "nr.json")]) == 0
    want = nr.qa3d_s(dist, d_dist=maps["dist"], cfg=nr.NrMetricConfig(qa3d_history=1)).score
    assert read_json(str(tmp_path / "nr.json"))["score"] == want
    saliency = {}
    for source in ("none", "estimate", f"dir:{tmp_path / 'd_ref'}"):
        out = str(tmp_path / f"sal{len(saliency)}")
        assert main(["saliency", "--in", paths["ref"], "--disparity", source,
                     "--out", out]) == 0
        saliency[source] = load_map_series(out, {"width": 64, "height": 64, "count": 2})
    save_map_series([m.values for m in baseline_vam(ref, disparity_series=maps["ref"])],
                    str(tmp_path / "want"))
    want = load_map_series(str(tmp_path / "want"), {"width": 64, "height": 64, "count": 2})
    assert np.array_equal(saliency[f"dir:{tmp_path / 'd_ref'}"], want)
    assert not np.array_equal(saliency["estimate"], saliency["none"])


def test_evaluate_objective_without_equals_exit_2(tmp_path, capsys):
    argv = _study(tmp_path, {"a": (80, 81), "b": (60, 62), "c": (40, 41)})
    argv[argv.index("--objective") + 1] = "a"
    assert main(argv) == 2
    assert "item_id=report.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["disparity", "distort"])
def test_config_option_removed(desc_path, tmp_path, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "awgn", "params": {"variance": 0.01}}))
    extra = ["--spec", str(spec)] if command == "distort" else []
    code = main([command, "--in", desc_path, *extra, "--out", str(tmp_path / "out"),
                 "--config", str(spec)])
    assert code == 2


def test_distort_keeps_pixel_format(tmp_path):
    ref = make_seq(104, frames=2, size=32)
    for t, frame in enumerate(ref.frames):
        for v, view in enumerate((frame.left, frame.right)):
            view.chroma_u = np.full((16, 16), 40.0 + 10 * t + v)
            view.chroma_v = np.arange(256.0).reshape(16, 16)
    d = tmp_path / "yuv"
    d.mkdir()
    save_sequence(ref, str(d / "l.raw"), str(d / "r.raw"), format="yuv420p8").to_json(
        str(d / "desc.json"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "awgn", "params": {"variance": 0.01}, "seed": 3}))
    out_dir = tmp_path / "distorted"
    assert main(["distort", "--in", str(d / "desc.json"), "--spec", str(spec),
                 "--out", str(out_dir)]) == 0
    desc = SequenceDescriptor.from_json(str(out_dir / "descriptor.json"))
    assert desc.format == "yuv420p8"
    before = load_sequence(SequenceDescriptor.from_json(str(d / "desc.json")))
    after = load_sequence(desc)
    for fa, fb in zip(before.frames, after.frames):
        for view in ("left", "right"):
            a, b = getattr(fa, view), getattr(fb, view)
            assert np.array_equal(a.chroma_u, b.chroma_u)
            assert np.array_equal(a.chroma_v, b.chroma_v)
            assert not np.array_equal(a.luma, b.luma)


def test_distort_command(desc_path, tmp_path):
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"kind": "awgn", "params": {"variance": 0.01}, "seed": 3}, fh)
    out_dir = str(tmp_path / "distorted")
    assert main(["distort", "--in", desc_path, "--spec", spec_path,
                 "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "descriptor.json"))
    rep = str(tmp_path / "rep.json")
    code = main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                 "--dist", os.path.join(out_dir, "descriptor.json"),
                 "--out", rep])
    assert code == 0
    with open(rep) as fh:
        assert json.load(fh)["score"] < 100.0


def test_distort_list_spec_applies_each_entry_in_order(desc_path, tmp_path):
    entries = [{"kind": "gaussian_blur"}, {"kind": "awgn", "params": {"variance": 0.01},
                                           "seed": 5, "target": "left_only"},
               {"kind": "intensity_shift", "params": {"delta": -7.0}, "region": [3, 5, 20, 30]}]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(entries))
    out_dir = tmp_path / "chained"
    assert main(["distort", "--in", desc_path, "--spec", str(spec_path),
                 "--out", str(out_dir)]) == 0
    want = load_sequence(SequenceDescriptor.from_json(desc_path))
    for i, entry in enumerate(entries):
        want = apply(want, decode(DistortionSpec, entry, f"entry {i}"))
    # both go through the same 8-bit writer
    save_sequence(want, str(tmp_path / "left.raw"), str(tmp_path / "right.raw"))
    for name in ("left.raw", "right.raw"):
        assert (out_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_evaluate_pipeline(tmp_path):
    scores_csv = tmp_path / "scores.csv"
    lines = ["item_id,subject_id,score"]
    mos = {"a": 80, "b": 60, "c": 40, "d": 20}
    for item, m in mos.items():
        for s in range(3):
            lines.append(f"{item},s{s},{m + s}")
    scores_csv.write_text("\n".join(lines) + "\n")
    pairs = []
    for i, (item, m) in enumerate(mos.items()):
        rep = {"metric": "psnr_s", "score": 20.0 + m / 2.0,
               "saliency_mode": "none", "orientation": "higher_better",
               "frame_scores": [], "config_fingerprint": "x" * 12, "flags": []}
        path = tmp_path / f"rep_{item}.json"
        path.write_text(json.dumps(rep))
        pairs.append(f"{item}={path}")
    out = str(tmp_path / "perf.csv")
    code = main(["evaluate", "--scores", str(scores_csv),
                 "--objective", *pairs, "--out", out])
    assert code == 0
    with open(out) as fh:
        text = fh.read()
    assert "psnr_s,none" in text
    assert "1.0000" in text  # perfectly linear objective


def _study(tmp_path, ratings):
    """``evaluate`` arguments for items a-d rated ``ratings[item]`` (one score
    per subject) and psnr_s reports linear in the first rating."""
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("item_id,subject_id,score\n" + "".join(
        f"{item},s{j},{r}\n" for item, row in ratings.items() for j, r in enumerate(row)))
    pairs = []
    for item, row in ratings.items():
        path = tmp_path / f"rep_{item}.json"
        path.write_text(json.dumps({"metric": "psnr_s", "saliency_mode": "none",
                                    "score": 20.0 + row[0] / 2.0}))
        pairs.append(f"{item}={path}")
    return ["evaluate", "--scores", str(scores_csv), "--objective", *pairs,
            "--out", str(tmp_path / "perf.csv")]


def test_evaluate_reports_skipped_screening(tmp_path, capsys):
    argv = _study(tmp_path, {"a": (80, 81), "b": (60, 62), "c": (40, 41), "d": (20, 24)})
    assert main(argv) == 0
    assert f"{tmp_path / 'scores.csv'}: screening_skipped\n" in capsys.readouterr().err


def test_evaluate_reports_rejected_subjects(tmp_path, capsys):
    # s7 rates 7 below, then 7 above, the others: one-sided extremes that cancel
    spread = (-3, -2, -1, 0, 0, 1, 2)
    ratings = {item: tuple(m + b for b in spread) + (m + (7 if k % 2 else -7),)
               for k, (item, m) in enumerate(zip("abcd", (40, 50, 60, 70)))}
    assert main(_study(tmp_path, ratings)) == 0
    err = capsys.readouterr().err
    assert err == f"{tmp_path / 'scores.csv'}: rejected subject s7\n"


def test_evaluate_reports_unconverged_fit(tmp_path, capsys, monkeypatch):
    descent = stats._nelder_mead
    monkeypatch.setattr(stats, "_nelder_mead", lambda cost, x0, maxfev, **kw:
                        descent(cost, x0, 5, **kw))
    ratings = {"a": (80, 81, 79), "b": (60, 62, 61), "c": (40, 41, 43), "d": (20, 24, 22)}
    argv = _study(tmp_path, ratings)
    assert main([*argv, "--logistic"]) == 0
    assert capsys.readouterr().err == "psnr_s (saliency none): fit_did_not_converge\n"
    with open(argv[-1]) as fh:
        table = fh.read()
    monkeypatch.undo()
    assert main([*argv, "--logistic"]) == 0
    assert capsys.readouterr().err == ""
    with open(argv[-1]) as fh:
        assert fh.read() != table  # the flag is on stderr only, the fit differs


@pytest.mark.parametrize("fmt", ["gray8", "yuv420p8"])
def test_every_json_output_reads_back(tmp_path, monkeypatch, fmt):
    """Every JSON file the commands write, manifests included, is the strict
    JSON that ``read_json`` loads, in ``write_json``'s layout; descriptors
    load from another working directory."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("ref")
    save_sequence(make_seq(105, frames=2, size=64), "ref/l.raw", "ref/r.raw",
                  format=fmt).to_json("ref/desc.json")
    runs = [["saliency", "--in", "ref/desc.json", "--out", "sal"],
            ["disparity", "--in", "ref/desc.json", "--out", "disp"]]
    for i, variance in enumerate((0.002, 0.01, 0.05)):
        spec = [{"kind": "awgn", "params": {"variance": variance}, "seed": i},
                {"kind": "intensity_shift"}]
        with open(f"spec{i}.json", "w") as fh:
            json.dump(spec, fh)
        runs += [["distort", "--in", "ref/desc.json", "--spec", f"spec{i}.json",
                  "--out", f"dist{i}"],
                 ["score-fr", "--metric", "ssim_s", "--ref", "ref/desc.json",
                  "--dist", f"dist{i}/descriptor.json", "--saliency", "dir:sal",
                  "--disparity-ref", "dir:disp", "--out", f"fr{i}.json",
                  "--frame-csv", f"fr{i}.csv"]]
    runs += [["score-nr", "--metric", "gbim_s", "--dist", "dist0/descriptor.json",
              "--out", "nr.json"]]
    with open("scores.csv", "w") as fh:
        fh.write("item_id,subject_id,score\n")
        fh.writelines(f"{item},s{j},{m + j}\n" for item, m in zip("abc", (70, 50, 30))
                      for j in range(3))
    runs += [["evaluate", "--scores", "scores.csv", "--objective",
              *(f"{item}=fr{i}.json" for i, item in enumerate("abc")),
              "--out", "perf.json", "--format", "json", "--logistic"]]
    for argv in runs:
        assert main(argv) == 0, argv
    outputs = ["ref/desc.json", "sal/saliency.manifest.json",
               "disp/disparity.manifest.json", "nr.json", "nr.json.manifest.json",
               "perf.json", "perf.json.manifest.json"]
    for i in range(3):
        outputs += [f"dist{i}/descriptor.json", f"dist{i}/descriptor.json.manifest.json",
                    f"fr{i}.json", f"fr{i}.json.manifest.json"]
    written = {str(p) for p in pathlib.Path(".").rglob("*.json")
               if not p.name.startswith("spec")}
    assert written == set(outputs)
    for path in outputs:
        with open(path) as fh:
            assert fh.read() == json.dumps(read_json(path), indent=2) + "\n", path
    assert read_json("dist0/descriptor.json")["left"] == "left.raw"
    os.mkdir("elsewhere")
    monkeypatch.chdir("elsewhere")
    for path in ["ref/desc.json"] + [f"dist{i}/descriptor.json" for i in range(3)]:
        seq = load_sequence(SequenceDescriptor.from_json(os.path.join("..", path)))
        assert (len(seq), seq.width, seq.height) == (2, 64, 64)


_REPORT = {"metric": "psnr_s", "saliency_mode": "none", "score": 30.0}
_COLUMNS = ("item_id", "subject_id", "score")


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("columns,first_row,report,items,fragment", [
    pytest.param(_COLUMNS, {}, _REPORT, ("zz",), "'zz'", id="unknown-item"),
    pytest.param(_COLUMNS[1:], {}, _REPORT, ("a",), "item_id", id="no-item-column"),
    pytest.param(_COLUMNS[::2], {}, _REPORT, ("a",), "subject_id", id="no-subject-column"),
    pytest.param(_COLUMNS[:2], {}, _REPORT, ("a",), "score", id="no-score-column"),
    pytest.param(_COLUMNS, {"score": "high"}, _REPORT, ("a",), "line 2",
                 id="non-numeric-score"),
    pytest.param(_COLUMNS, {"subject_id": "s1"}, _REPORT, ("a",), "line 3",
                 id="repeated-rating"),
    *(pytest.param(_COLUMNS, {"score": score}, _REPORT, ("a",), "line 2",
                   id=f"score-{score}") for score in ("inf", "-inf", "nan")),
    pytest.param(_COLUMNS, {}, _REPORT, ("a", "b", "a"), "'a'", id="repeated-item"),
    pytest.param(_COLUMNS, {}, _without(_REPORT, "saliency_mode"), ("a",), "rep.json",
                 id="report-without-mode"),
    pytest.param(_COLUMNS, {}, _without(_REPORT, "metric"), ("a",), "rep.json",
                 id="report-without-metric"),
    pytest.param(_COLUMNS, {}, _without(_REPORT, "score"), ("a",), "rep.json",
                 id="report-without-score"),
    pytest.param(_COLUMNS, {}, [_REPORT], ("a",), "rep.json", id="report-is-list"),
    pytest.param(_COLUMNS, {}, {**_REPORT, "metric": ["psnr_s"]}, ("a",), "rep.json",
                 id="report-metric-list"),
    pytest.param(_COLUMNS, {}, {**_REPORT, "saliency_mode": {}}, ("a",), "rep.json",
                 id="report-mode-object"),
    pytest.param(_COLUMNS, {}, {**_REPORT, "score": True}, ("a",), "rep.json",
                 id="report-score-true"),
    pytest.param(_COLUMNS, {}, {**_REPORT, "score": float("nan")}, ("a",), "rep.json",
                 id="report-score-nan"),
])
def test_bad_evaluate_input_exit_1(tmp_path, capsys, columns, first_row, report,
                                   items, fragment):
    rows = [{"item_id": it, "subject_id": f"s{s}", "score": str(m + s)}
            for it, m in (("a", 80), ("b", 40)) for s in range(3)]
    rows[0].update(first_row)
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("\n".join([",".join(columns)]
                                    + [",".join(r[c] for c in columns) for r in rows]) + "\n")
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(report))
    code = main(["evaluate", "--scores", str(scores_csv), "--objective",
                 *(f"{item}={rep}" for item in items), "--out", str(tmp_path / "perf.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_config_override(desc_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psnr_cap": 60.0}))
    out = str(tmp_path / "rep.json")
    assert main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                 "--dist", desc_path, "--out", out, "--config", str(cfg)]) == 0
    with open(out) as fh:
        assert json.load(fh)["score"] == 60.0
