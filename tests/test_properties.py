"""Invariants of all 21 metrics at awkward sizes.

Frames from 8x8 to 65x64 (odd sides, sides that are not multiples of 8,
33x97 and 40x9 among them), 1 to 3 frames, flat and textured content and
saliency maps that are zero at about half the pixels.  Numpy warnings are
errors.  Every call ends in a finite score or a StereoQaError; a constant
saliency map reproduces the unweighted score; identical FR inputs score
exactly the perfect score.

Two metrics break one invariant each through round-off that a conditioning
fix removes, and that fix moves benchmark scores.  The sweep skips those two
checks; the strict xfail tests at the end pin one case of each.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoqa.disparity import DisparityMap
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import StereoQaError
from stereoqa.fr import FR_METRICS, FrMetricConfig
from stereoqa.media import Frame, StereoFrame, StereoSequence
from stereoqa.nr import NR_METRICS, NrMetricConfig
from stereoqa.rng import SeededRng
from stereoqa.saliency import SaliencyMap

_SHAPES = [(8, 8), (17, 23), (33, 97), (40, 9), (65, 64), (9, 40), (32, 32), (48, 56)]
_CAP = FrMetricConfig().psnr_cap
_PERFECT = {
    "psnr_s": _CAP, "ssim_s": 1.0, "msssim_s": 1.0, "vif_s": 1.0,
    "ddl1_s": 2.0, "oq_s": 1.0, "ciq_s": 1.0, "phvs3d_s": _CAP,
    "phsd_s": _CAP, "mj3d_s": 1.0, "hv3d_s": 1.0, "flosim3d_s": 0.0,
}
# (metric, invariant) pairs that the xfail tests below cover
_KNOWN_BREAKS = {("hv3d_s", "perfect"), ("nospdm_s", "reduction")}
_NR_CFG = NrMetricConfig(qa3d_history=1)  # qa3d_s scores from the second frame
_DISTORTIONS = [
    DistortionSpec(kind="awgn", params={"variance": 1e-3}, seed=3),
    DistortionSpec(kind="gaussian_blur"),
    DistortionSpec(kind="block_quantize", params={"step": 30.0}),
]


def _lumas(rng, shape, frames, content):
    h, w = shape
    if content == "flat":
        return [np.full(shape, 97.0) for _ in range(2 * frames)]
    if content == "blocks":
        cells = rng.uniform(2 * frames * (h // 4 + 1) * (w // 4 + 1)) * 255.0
        cells = cells.reshape(2 * frames, h // 4 + 1, w // 4 + 1)
        return [np.kron(c, np.ones((4, 4)))[:h, :w] for c in cells]
    return list(np.rint(rng.uniform(2 * frames * h * w) * 255.0).reshape(2 * frames, h, w))


def _seq(lumas):
    return StereoSequence(frames=[
        StereoFrame(left=Frame(luma=lumas[2 * t]), right=Frame(luma=lumas[2 * t + 1]))
        for t in range(len(lumas) // 2)], fps=25.0)


def _score(call):
    """The report's score, or the StereoQaError type the call raised; any
    other exception, or any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            score = call().score
        except StereoQaError as exc:
            return type(exc)
    assert math.isfinite(score)
    return score


@settings(max_examples=800, deadline=None, derandomize=True)
@given(metric=st.sampled_from(sorted(FR_METRICS) + sorted(NR_METRICS)),
       shape=st.one_of(st.sampled_from(_SHAPES),
                       st.tuples(st.integers(8, 65), st.integers(8, 64))),
       frames=st.integers(1, 3), content=st.sampled_from(["flat", "blocks", "noise"]),
       distortion=st.sampled_from(_DISTORTIONS), seed=st.integers(0, 2**32 - 1))
def test_metric_invariants_at_awkward_sizes(metric, shape, frames, content, distortion,
                                            seed):
    rng = SeededRng(seed)
    ref = _seq(_lumas(rng, shape, frames, content))
    dist = apply(ref, distortion)
    d_ref, d_dist = ([DisparityMap(np.rint(rng.uniform(shape[0] * shape[1]) * 6.0)
                                   .reshape(shape)) for _ in range(frames)] for _ in range(2))
    d_flat = [DisparityMap(np.full(shape, 2.0)) for _ in range(frames)]
    sparse = [SaliencyMap(np.where(rng.uniform(shape[0] * shape[1]) < 0.5, 0.0,
                                   rng.uniform(shape[0] * shape[1])).reshape(shape))
              for _ in range(frames)]
    constant = [SaliencyMap(np.full(shape, 0.7)) for _ in range(frames)]

    if metric in FR_METRICS:
        def run(s_series, pair=(ref, dist), d=(d_ref, d_dist)):
            return lambda: FR_METRICS[metric](*pair, d_ref=d[0], d_dist=d[1],
                                              s_series=s_series)
        perfect = _score(run(None, (ref, ref), (d_flat, d_flat)))
        if (metric, "perfect") not in _KNOWN_BREAKS:
            assert perfect == _PERFECT[metric] or isinstance(perfect, type), perfect
    else:
        def run(s_series):
            return lambda: NR_METRICS[metric](dist, d_dist=d_dist, s_series=s_series,
                                              cfg=_NR_CFG)

    _score(run(sparse))
    base, weighted = _score(run(None)), _score(run(constant))
    if isinstance(base, type):
        assert weighted is base
    elif (metric, "reduction") not in _KNOWN_BREAKS:
        assert math.isclose(base, weighted, rel_tol=1e-9, abs_tol=1e-12), (base, weighted)


@pytest.mark.parametrize("shape", [(8, 8), (40, 9)])
@pytest.mark.parametrize("metric", ["msssim_s", "mj3d_s", "flosim3d_s"])
def test_msssim_metrics_with_a_one_pixel_window(metric, shape):
    """Every level holds a 1-pixel window, so the pyramid's own end, a side of
    1, sets how many MS-SSIM scales there are."""
    cfg = FrMetricConfig(ssim_window=1)
    rng = SeededRng(17)
    ref = _seq(_lumas(rng, shape, 2, "noise"))
    dist = apply(ref, _DISTORTIONS[0])
    d = [DisparityMap(np.rint(rng.uniform(shape[0] * shape[1]) * 6.0).reshape(shape))
         for _ in range(2)]
    d_flat = [DisparityMap(np.full(shape, 2.0))] * 2
    sparse = [SaliencyMap(np.where(rng.uniform(shape[0] * shape[1]) < 0.5, 0.0, 1.0)
                          .reshape(shape)) for _ in range(2)]
    constant = [SaliencyMap(np.full(shape, 0.7))] * 2

    def run(s_series, pair=(ref, dist), maps=(d, d)):
        return _score(lambda: FR_METRICS[metric](*pair, d_ref=maps[0], d_dist=maps[1],
                                                 s_series=s_series, cfg=cfg))

    assert run(None, (ref, ref), (d_flat, d_flat)) == _PERFECT[metric]
    assert isinstance(run(sparse), float)
    base, weighted = run(None), run(constant)
    assert isinstance(base, float)
    assert math.isclose(base, weighted, rel_tol=1e-9, abs_tol=1e-12), (base, weighted)


@pytest.mark.xfail(strict=True, reason="the VIF gain cut-off, var_x > 1e-10, is absolute: "
                   "the 2-D window leaves round-off residue below it on a flat map, so the "
                   "disparity VIF of two identical flat maps is 0, not 1")
def test_hv3d_identical_inputs_flat_disparity_score_perfect():
    shape = (33, 97)
    seq = _seq([np.full(shape, 97.0)] * 2)
    d = [DisparityMap(np.full(shape, 2.0))]
    assert FR_METRICS["hv3d_s"](seq, seq, d_ref=d, d_dist=d).score == 1.0


@pytest.mark.xfail(strict=True, reason="the inter-map angle of a saliency map with itself "
                   "is zero, but arccos turns the 1-ulp round-off of dot / norm**2 into "
                   "about 1e-8")
def test_nospdm_constant_saliency_reproduces_unweighted_score():
    shape = (17, 23)
    dist = apply(_seq(_lumas(SeededRng(0), shape, 1, "blocks")), _DISTORTIONS[0])
    base = NR_METRICS["nospdm_s"](dist).score
    weighted = NR_METRICS["nospdm_s"](dist, s_series=[SaliencyMap(np.full(shape, 0.7))]).score
    assert math.isclose(base, weighted, rel_tol=1e-9, abs_tol=1e-12), (base, weighted)
