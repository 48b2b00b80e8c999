"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS line when it
holds; any assertion failure marks the criterion failed.
"""

import json
import math
import os

import numpy as np
import pytest

import stereoqa.fr as fr
import stereoqa.nr as nr
from stereoqa.cli import main as cli_main
from stereoqa.disparity import DisparityMap, iter_disparity_series
from stereoqa.distort import DistortionSpec, apply
from stereoqa.fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig
from stereoqa.kernels import dct2_stack, dct3_stereo_stack, idct2_stack
from stereoqa.media import save_sequence
from stereoqa.nr import NR_METRICS, NrMetricConfig
from stereoqa.rng import SeededRng
from stereoqa.saliency import SaliencyMap, weighted_spatial_mean
from stereoqa.stats import outlier_ratio, pearson_cc, rmse, screen_and_mos, \
    spearman_cc
from stereoqa.stats import SubjectiveTable

from conftest import flat_seq, make_seq, seq_from_lumas

SIZE = 64
FRAMES = 4


def _const_saliency(seq, value=0.7):
    return [SaliencyMap(np.full((seq.height, seq.width), value), "external")
            for _ in range(len(seq))]


def _plane_disparity(seq):
    row = np.linspace(4.0, 28.0, seq.width)
    return [DisparityMap(np.tile(row, (seq.height, 1))) for _ in range(len(seq))]


def _wiggled_disparity(seq):
    base = _plane_disparity(seq)
    y, x = np.mgrid[0:seq.height, 0:seq.width]
    bump = 2.0 * ((x + y) % 2)
    return [DisparityMap(np.clip(d.values + bump, 0.0, 32.0)) for d in base]


def _fr_kwargs(metric, d_ref, d_dist):
    out = {}
    for slot in FR_NEEDS_DISPARITY.get(metric, ()):
        out[slot] = d_ref if slot == "d_ref" else d_dist
    return out


def _run_nr(metric, seq, s_series, d_dist, cfg):
    fn = NR_METRICS[metric]
    if metric == "qa3d_s":
        return fn(seq, d_dist=d_dist, s_series=s_series, cfg=cfg)
    return fn(seq, s_series=s_series, cfg=cfg)


def test_reduction_constant_saliency_matches_base():
    """Constant saliency must reproduce the unweighted metric for all 21
    metrics on three seeded fixtures, to 1e-9 relative."""
    nr_cfg = NrMetricConfig(qa3d_history=3)
    for seed in (201, 202, 203):
        ref = make_seq(seed, frames=FRAMES, size=SIZE, block=8)
        dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": 0.01},
                                         seed=seed))
        d_ref = list(iter_disparity_series(ref))
        d_dist = list(iter_disparity_series(dist))
        s_const = _const_saliency(ref)
        for metric, fn in FR_METRICS.items():
            kw = _fr_kwargs(metric, d_ref, d_dist)
            base = fn(ref, dist, **kw).score
            weighted = fn(ref, dist, s_series=s_const, **kw).score
            assert math.isclose(base, weighted, rel_tol=1e-9, abs_tol=1e-12), metric
        for metric in NR_METRICS:
            base = _run_nr(metric, dist, None, d_dist, nr_cfg).score
            weighted = _run_nr(metric, dist, s_const, d_dist, nr_cfg).score
            assert math.isclose(base, weighted, rel_tol=1e-9, abs_tol=1e-12), metric
    print("\n[ACCEPTANCE] reduction suite (21 metrics x 3 fixtures): PASS")


def test_perfection_identical_inputs():
    """dist = ref with matching disparity must hit the exact perfect score
    of every full-reference metric."""
    ref = make_seq(210, frames=FRAMES, size=SIZE, block=8)
    d = [DisparityMap(np.zeros((SIZE, SIZE))) for _ in range(FRAMES)]
    cap = FrMetricConfig().psnr_cap
    expected = {
        "psnr_s": cap, "ssim_s": 1.0, "msssim_s": 1.0, "vif_s": 1.0,
        "ddl1_s": 2.0, "oq_s": 1.0, "ciq_s": 1.0, "phvs3d_s": cap,
        "phsd_s": cap, "mj3d_s": 1.0, "hv3d_s": 1.0, "flosim3d_s": 0.0,
    }
    for metric, fn in FR_METRICS.items():
        rep = fn(ref, ref, **_fr_kwargs(metric, d, d))
        assert rep.score == expected[metric], (metric, rep.score)
    print("\n[ACCEPTANCE] perfection suite (12 FR metrics, exact): PASS")


def _worse(orientation, hot, cold):
    if orientation == "lower_better":
        return hot > cold
    return hot < cold  # higher_better and composite under neutral defaults


def test_localization_salient_damage_scores_worse():
    """The same distortion placed in the high-saliency region must score
    strictly worse than in the low-saliency region."""
    hot_region = (0, 0, 32, 32)
    cold_region = (32, 32, 32, 32)
    smap = np.full((SIZE, SIZE), 0.05)
    smap[0:32, 0:32] = 1.0
    s_series = [SaliencyMap(smap, "external") for _ in range(FRAMES)]

    ref = make_seq(220, frames=FRAMES, size=SIZE, block=8)
    noisy = {
        region: apply(ref, DistortionSpec(kind="awgn",
                                          params={"variance": 0.02},
                                          seed=7, region=region))
        for region in (hot_region, cold_region)
    }
    d_ref = _plane_disparity(ref)
    d_dist = _wiggled_disparity(ref)
    for metric, fn in FR_METRICS.items():
        kw = _fr_kwargs(metric, d_ref, d_dist)
        hot = fn(ref, noisy[hot_region], s_series=s_series, **kw)
        cold = fn(ref, noisy[cold_region], s_series=s_series, **kw)
        assert _worse(hot.orientation, hot.score, cold.score), metric

    smooth = apply(ref, DistortionSpec(kind="gaussian_blur",
                                       params={"size": 7, "sigma": 2.0}))
    for metric, spec_kind, params in (
        ("gbim_s", "block_quantize", {"step": 120.0}),
        ("block_farias_s", "block_quantize", {"step": 120.0}),
        ("nrpbm_s", "gaussian_blur", {"size": 9, "sigma": 3.0}),
    ):
        base = smooth if spec_kind == "block_quantize" else ref
        hot_seq = apply(base, DistortionSpec(kind=spec_kind, params=params,
                                             region=hot_region))
        cold_seq = apply(base, DistortionSpec(kind=spec_kind, params=params,
                                              region=cold_region))
        hot = NR_METRICS[metric](hot_seq, s_series=s_series)
        cold = NR_METRICS[metric](cold_seq, s_series=s_series)
        assert _worse(hot.orientation, hot.score, cold.score), metric
    print("\n[ACCEPTANCE] localization suite (12 FR + 3 NR): PASS")


def test_oracles_match_hand_computations():
    """Small fixtures against closed-form / brute-force recomputations."""
    # weighted pooling
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    s = np.array([[2.0, 0.0], [0.0, 6.0]])
    assert abs(weighted_spatial_mean(f, s) - (2.0 + 24.0) / 8.0) < 1e-12

    # psnr from a constant error: mse 50 on every pixel of both views
    ref = flat_seq(100.0, frames=2, size=16)
    dist = flat_seq(100.0 + math.sqrt(50.0), frames=2, size=16)
    expected = 10.0 * math.log10(255.0**2 / 50.0)
    assert abs(fr.psnr_s(ref, dist).score - expected) < 1e-6
    assert round(expected, 2) == 31.14

    # ssim single-window closed form on constant planes
    cfg = FrMetricConfig()
    a, b = 100.0, 110.0
    closed = (2 * a * b + cfg.ssim_c1) / (a * a + b * b + cfg.ssim_c1)
    got = fr.ssim_s(flat_seq(a, 1, 16), flat_seq(b, 1, 16)).score
    assert abs(got - closed) < 1e-9

    # transform round trips; the stereo DCT as a 32 x 32 matrix (row i is the
    # image of basis pair i) is orthonormal, so its transpose inverts it
    rng = SeededRng(42)
    block = rng.uniform(64).reshape(1, 8, 8) * 255.0
    assert np.abs(idct2_stack(dct2_stack(block)) - block).max() < 1e-9
    pair = rng.uniform(32).reshape(1, 4, 4, 2) * 255.0
    m = dct3_stereo_stack(np.eye(32).reshape(32, 4, 4, 2)).reshape(32, 32)
    assert np.abs(m.T @ m - np.eye(32)).max() < 1e-12
    assert np.abs(dct3_stereo_stack(pair).ravel() @ m.T - pair.ravel()).max() < 1e-9

    # gbim against a naive recomputation of its sums on one 16x16 frame
    luma = (rng.uniform(256).reshape(16, 16) * 255.0).round()
    sal = rng.uniform(256).reshape(16, 16) + 0.1
    seq = seq_from_lumas([luma])
    got = nr.gbim_s(seq, s_series=[SaliencyMap(sal, "external")]).score
    num_h = den_h = 0.0
    for y in range(16):
        for x in (8,):
            w = 0.5 * (sal[y, x] + sal[y, x - 1])
            num_h += abs(luma[y, x] - luma[y, x - 1]) * w
            den_h += w
    num_v = den_v = 0.0
    for x in range(16):
        for y in (8,):
            w = 0.5 * (sal[y, x] + sal[y - 1, x])
            num_v += abs(luma[y, x] - luma[y - 1, x]) * w
            den_v += w
    diffs = [abs(luma[y, x] - luma[y, x - 1]) for y in range(16) for x in range(1, 16)]
    diffs += [abs(luma[y, x] - luma[y - 1, x]) for y in range(1, 16) for x in range(16)]
    e = sum(diffs) / len(diffs)
    manual = (num_h / den_h + num_v / den_v) / (2.0 * e)
    assert abs(got - manual) < 1e-6

    # qa3d temporal consistency term on constant disparity planes
    c = [2.0, 3.0, 4.0, 5.0, 6.0]
    seq5 = flat_seq(50.0, frames=5, size=64)
    d_series = [DisparityMap(np.full((64, 64), v)) for v in c]
    rep = nr.qa3d_s(seq5, d_dist=d_series, cfg=NrMetricConfig(qa3d_history=3))
    expect = []
    for n in (3, 4):
        s_m = 0.1 * (sum(c[n - 3:n]) - c[n] * 3) * c[n]
        expect.append(1.0 - s_m / 2.0)
    assert np.allclose(rep.frame_scores, expect, atol=1e-9)

    # correlation / error statistics
    assert abs(pearson_cc([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) - 0.8) < 1e-12
    assert abs(spearman_cc([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    mos = np.linspace(0, 100, 10)
    assert outlier_ratio(mos + 5.0, mos, np.ones(10)) == 1.0
    print("\n[ACCEPTANCE] oracle suite (hand fixtures <= 1e-6): PASS")


def test_monotonicity_under_growing_distortion():
    """More noise strictly lowers the fidelity metrics; more blur strictly
    worsens the sharpness metrics."""
    ref = make_seq(230, frames=FRAMES, size=SIZE, block=8)
    noise_scores = {m: [] for m in ("psnr_s", "ssim_s", "msssim_s", "vif_s")}
    for var in (0.005, 0.01, 0.02, 0.05):
        dist = apply(ref, DistortionSpec(kind="awgn", params={"variance": var},
                                         seed=11))
        for metric in noise_scores:
            noise_scores[metric].append(FR_METRICS[metric](ref, dist).score)
    for metric, series in noise_scores.items():
        assert all(a > b for a, b in zip(series, series[1:])), (metric, series)

    blur_scores = {m: [] for m in ("blur_farias_s", "nrpbm_s", "sadaka_s")}
    for sigma in (1.0, 2.0, 4.0):
        size = int(6 * sigma) + 1  # keep the kernel support ahead of sigma
        dist = apply(ref, DistortionSpec(kind="gaussian_blur",
                                         params={"size": size, "sigma": sigma}))
        for metric in blur_scores:
            blur_scores[metric].append(NR_METRICS[metric](dist).score)
    for metric, series in blur_scores.items():
        orientation = NR_METRICS[metric](ref).orientation
        if orientation == "lower_better":
            assert all(a < b for a, b in zip(series, series[1:])), (metric, series)
        else:
            assert all(a > b for a, b in zip(series, series[1:])), (metric, series)
    print("\n[ACCEPTANCE] monotonicity suite (awgn + blur ladders): PASS")


def test_directional_saliency_weighting_improves_correlation():
    """24-condition synthetic study: weighting PSNR by the ground-truth
    saliency must raise the correlation with the MOS proxy."""
    hot_region = (0, 0, 32, 32)
    cold_region = (32, 32, 32, 32)
    smap = np.full((SIZE, SIZE), 0.1)
    smap[0:32, 0:32] = 1.0
    proxies, plain, weighted = [], [], []
    for content_seed in (301, 302, 303, 304):
        ref = make_seq(content_seed, frames=FRAMES, size=SIZE, block=8)
        s_series = [SaliencyMap(smap, "external") for _ in range(FRAMES)]
        for var in (0.004, 0.012, 0.035):
            for region, s_bar in ((hot_region, 1.0), (cold_region, 0.1)):
                dist = apply(ref, DistortionSpec(kind="awgn",
                                                 params={"variance": var},
                                                 seed=content_seed,
                                                 region=region))
                proxies.append(100.0 - 300.0 * math.sqrt(var) * s_bar)
                plain.append(fr.psnr_s(ref, dist).score)
                weighted.append(fr.psnr_s(ref, dist, s_series=s_series).score)
    pcc_plain = pearson_cc(plain, proxies)
    pcc_weighted = pearson_cc(weighted, proxies)
    assert pcc_weighted >= pcc_plain
    assert pcc_weighted - pcc_plain > 0.02
    print(f"\n[ACCEPTANCE] directional reproduction (PCC {pcc_plain:.4f} -> "
          f"{pcc_weighted:.4f}): PASS")


def test_determinism_byte_identical_replay(tmp_path):
    """Replaying the same distort + score commands must reproduce every
    output file byte for byte, AWGN included."""
    seq = make_seq(240, frames=3, size=SIZE)
    src = tmp_path / "src"
    src.mkdir()
    desc = save_sequence(seq, str(src / "l.raw"), str(src / "r.raw"))
    desc_path = str(src / "desc.json")
    desc.to_json(desc_path)
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"kind": "awgn", "params": {"variance": 0.01}, "seed": 77}, fh)

    out_dir = str(tmp_path / "distorted")
    report = str(tmp_path / "report.json")

    def run_once():
        assert cli_main(["distort", "--in", desc_path, "--spec", spec_path,
                         "--out", out_dir]) == 0
        assert cli_main(["score-fr", "--metric", "psnr_s", "--ref", desc_path,
                         "--dist", os.path.join(out_dir, "descriptor.json"),
                         "--out", report, "--saliency", "uniform"]) == 0
        paths = [os.path.join(out_dir, "left.raw"),
                 os.path.join(out_dir, "right.raw"),
                 report, report + ".manifest.json"]
        return {p: open(p, "rb").read() for p in paths}

    first = run_once()
    second = run_once()
    assert first == second
    print("\n[ACCEPTANCE] determinism (byte-identical replay): PASS")


def test_statistics_oracle():
    """Screening drops the erratic rogue subject and the outlier-ratio
    arithmetic reproduces the 1/120 granularity."""
    rng = np.random.RandomState(5)
    scores = 50.0 + rng.uniform(-2, 2, size=(12, 24))
    scores[0::2, 23] = 100.0
    scores[1::2, 23] = 0.0
    table = SubjectiveTable(items=[f"i{k}" for k in range(12)],
                            subjects=[f"s{k}" for k in range(24)],
                            scores=scores)
    mos = screen_and_mos(table)
    assert mos.rejected_subjects == ["s23"]

    series = np.linspace(10, 90, 120)
    objective = series.copy()
    objective[60] += 5.0
    ratio = outlier_ratio(objective, series, np.ones(120))
    assert ratio == pytest.approx(1.0 / 120.0, abs=1e-12)
    assert f"{ratio:.4f}" == "0.0083"
    print("\n[ACCEPTANCE] statistics oracle (screening + OR granularity): PASS")
