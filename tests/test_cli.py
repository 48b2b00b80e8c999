import json
import os

import numpy as np
import pytest

from stereoqa.cli import main
from stereoqa.distort import DistortionSpec, apply
from stereoqa.fr import FR_METRICS
from stereoqa.media import save_map_series, save_sequence
from stereoqa.nr import NR_METRICS

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


@pytest.mark.parametrize("mangle", [
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "left"}),
    lambda text: json.dumps({**json.loads(text), "colour": "blue"}),
    lambda text: text[:-5],
], ids=["missing-field", "unknown-field", "malformed-json"])
def test_bad_descriptor_exit_1(desc_path, tmp_path, capsys, mangle):
    with open(desc_path) as fh:
        bad = tmp_path / "bad.json"
        bad.write_text(mangle(fh.read()))
    _assert_exit_1(main(["info", "--in", str(bad)]), capsys)


@pytest.mark.parametrize("text", ["{psnr_cap: 60}", '{"psnr_kap": 60.0}'],
                         ids=["malformed-json", "unknown-key"])
def test_bad_config_exit_1(desc_path, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    _assert_exit_1(main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                         "--dist", desc_path, "--out", str(tmp_path / "r.json"),
                         "--config", str(cfg)]), capsys)


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


_REPORT = {"metric": "psnr_s", "saliency_mode": "none", "score": 30.0}
_COLUMNS = ("item_id", "subject_id", "score")


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("columns,first_score,report,item,fragment", [
    pytest.param(_COLUMNS, "80", _REPORT, "zz", "'zz'", id="unknown-item"),
    pytest.param(_COLUMNS[1:], "80", _REPORT, "a", "item_id", id="no-item-column"),
    pytest.param(_COLUMNS[::2], "80", _REPORT, "a", "subject_id", id="no-subject-column"),
    pytest.param(_COLUMNS[:2], "80", _REPORT, "a", "score", id="no-score-column"),
    pytest.param(_COLUMNS, "high", _REPORT, "a", "line 2", id="non-numeric-score"),
    pytest.param(_COLUMNS, "80", _without(_REPORT, "saliency_mode"), "a", "rep.json",
                 id="report-without-mode"),
    pytest.param(_COLUMNS, "80", _without(_REPORT, "metric"), "a", "rep.json",
                 id="report-without-metric"),
    pytest.param(_COLUMNS, "80", _without(_REPORT, "score"), "a", "rep.json",
                 id="report-without-score"),
    pytest.param(_COLUMNS, "80", [_REPORT], "a", "rep.json", id="report-is-list"),
])
def test_bad_evaluate_input_exit_1(tmp_path, capsys, columns, first_score, report,
                                   item, fragment):
    rows = [{"item_id": it, "subject_id": f"s{s}", "score": str(m + s)}
            for it, m in (("a", 80), ("b", 40)) for s in range(3)]
    rows[0]["score"] = first_score
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("\n".join([",".join(columns)]
                                    + [",".join(r[c] for c in columns) for r in rows]) + "\n")
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(report))
    code = main(["evaluate", "--scores", str(scores_csv), "--objective",
                 f"{item}={rep}", "--out", str(tmp_path / "perf.csv")])
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
