import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
import scipy.fft

from stereoqa import distort
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import MalformedJson, ParamError, RangeError
from stereoqa.media import decode

from conftest import flat_seq, make_seq, seq_from_lumas


def test_spec_validation():
    with pytest.raises(ParamError):
        DistortionSpec(kind="salt_pepper")
    with pytest.raises(ParamError):
        DistortionSpec(kind="awgn")  # missing variance
    with pytest.raises(ParamError):
        DistortionSpec(kind="awgn", params={"variance": 0.01}, target="middle")
    with pytest.raises(ParamError):
        DistortionSpec(kind="gaussian_blur", params={"sigma": -1.0})


@pytest.mark.parametrize("size", [4.7, 4.0, True, 0, -3])
def test_blur_size_must_be_a_positive_integer(size):
    # a fractional size used to be truncated silently
    with pytest.raises(ParamError, match="size"):
        DistortionSpec(kind="gaussian_blur", params={"size": size})


def test_awgn_last_stream_seed_below_2_64():
    spec = DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=2**64 - 1)
    # the error names the spec's seed and the frame count, not seed + 1
    with pytest.raises(ParamError, match=f"seed {2**64 - 1} .* 1 frames") as info:
        apply(flat_seq(frames=1, size=16), spec)
    assert str(2**64) not in str(info.value)
    # 2**64 - 4 + 2 * 2 - 1 = 2**64 - 1 is the last seed the generator takes
    spec = DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=2**64 - 4)
    out = apply(flat_seq(frames=2, size=16), spec)
    assert not np.array_equal(out.frames[1].right.luma, out.frames[1].left.luma)


def test_input_not_mutated():
    seq = make_seq(81, frames=2, size=32)
    before = seq.frames[0].left.luma.copy()
    apply(seq, DistortionSpec(kind="awgn", params={"variance": 0.02}, seed=1))
    assert np.array_equal(seq.frames[0].left.luma, before)


def test_awgn_deterministic():
    seq = make_seq(82, frames=3, size=32)
    spec = DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=9)
    a = apply(seq, spec)
    b = apply(seq, spec)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.left.luma, fb.left.luma)
        assert np.array_equal(fa.right.luma, fb.right.luma)


def test_awgn_streams_differ_per_frame_and_view():
    seq = flat_seq(128.0, frames=2, size=32)
    out = apply(seq, DistortionSpec(kind="awgn", params={"variance": 0.01}, seed=0))
    f0 = out.frames[0]
    f1 = out.frames[1]
    assert not np.array_equal(f0.left.luma, f0.right.luma)
    assert not np.array_equal(f0.left.luma, f1.left.luma)


def test_awgn_sigma_scale():
    seq = flat_seq(128.0, frames=1, size=64)
    var = 0.01
    out = apply(seq, DistortionSpec(kind="awgn", params={"variance": var}, seed=4))
    noise = out.frames[0].left.luma - 128.0
    assert noise.std() == pytest.approx(255.0 * math.sqrt(var), rel=0.05)


def test_target_left_only():
    seq = make_seq(83, frames=1, size=32)
    out = apply(seq, DistortionSpec(kind="intensity_shift", params={"delta": 20.0},
                                    target="left_only"))
    assert not np.array_equal(out.frames[0].left.luma, seq.frames[0].left.luma)
    assert np.array_equal(out.frames[0].right.luma, seq.frames[0].right.luma)


def test_region_restriction():
    seq = flat_seq(100.0, frames=1, size=32)
    out = apply(seq, DistortionSpec(kind="intensity_shift", params={"delta": 20.0},
                                    region=(0, 0, 16, 16)))
    luma = out.frames[0].left.luma
    assert np.all(luma[:16, :16] == 120.0)
    assert np.all(luma[16:, :] == 100.0)
    assert np.all(luma[:, 16:] == 100.0)


def test_region_out_of_bounds():
    seq = flat_seq(100.0, frames=1, size=32)
    with pytest.raises(RangeError):
        apply(seq, DistortionSpec(kind="intensity_shift", region=(20, 20, 16, 16)))


@pytest.mark.parametrize("region", [
    (0.5, 0, 10.9, 10), (True, 0, 10, 10), (0, 0, 10, 10.0), (-1, 0, 10, 10), (0, 0, 0, 10),
], ids=["fractional", "bool", "float", "negative-origin", "empty"])
def test_region_takes_only_integers_within_their_minimum(region):
    # int() used to turn (0.5, 0, 10.9, 10) into (0, 0, 10, 10) and True into 1
    with pytest.raises(ParamError, match="region"):
        DistortionSpec(kind="intensity_shift", region=region)


def test_region_takes_numpy_integers():
    seq = flat_seq(100.0, frames=1, size=32)
    want = apply(seq, DistortionSpec(kind="intensity_shift", region=(2, 3, 8, 9)))
    got = apply(seq, DistortionSpec(kind="intensity_shift", region=np.array([2, 3, 8, 9])))
    assert got.frames[0].left.luma.tobytes() == want.frames[0].left.luma.tobytes()


def test_intensity_shift_clamps():
    seq = flat_seq(250.0, frames=1, size=16)
    out = apply(seq, DistortionSpec(kind="intensity_shift", params={"delta": 20.0}))
    assert out.frames[0].left.luma.max() == 255.0


def test_blur_reduces_variance():
    seq = make_seq(84, frames=1, size=64)
    out = apply(seq, DistortionSpec(kind="gaussian_blur"))
    assert out.frames[0].left.luma.var() < seq.frames[0].left.luma.var()


def test_block_quantize_idempotent():
    seq = make_seq(85, frames=1, size=64)
    spec = DistortionSpec(kind="block_quantize", params={"step": 60.0})
    once = apply(seq, spec)
    twice = apply(once, spec)
    # re-quantizing an already quantized frame only moves values that the
    # clamp perturbed, so the images stay essentially identical
    assert np.abs(twice.frames[0].left.luma - once.frames[0].left.luma).max() < 1e-6


def test_block_quantize_rounds_half_away_from_zero(monkeypatch):
    # coefficients of exactly +-0.5, +-1.5 and +-2.5 steps, and an inverse
    # transform that only lifts the levels into [0, 255]
    halves = np.resize([0.5, -0.5, 1.5, -1.5, 2.5, -2.5], 64).reshape(8, 8)
    monkeypatch.setattr(distort, "dct2_stack", lambda blocks: np.broadcast_to(
        halves, blocks.shape) * 2.0)
    monkeypatch.setattr(distort, "idct2_stack", lambda coeffs: coeffs + 100.0)
    out = apply(flat_seq(0.0, frames=1, size=16),
                DistortionSpec(kind="block_quantize", params={"step": 2.0}))
    expected = 100.0 + 2.0 * np.resize([1, -1, 2, -2, 3, -3], 64).reshape(8, 8)
    assert np.array_equal(out.frames[0].left.luma, np.tile(expected, (2, 2)))


def _reference_block_quantize(luma, spec):
    """The per-block loop that distort._block_quantize replaced."""
    step = float(spec.params.get("step", 40.0))
    ys, xs = distort._region_slices(spec, luma.shape)
    out = luma.copy()
    patch = out[ys, xs]
    h, w = patch.shape
    for y0 in range(0, h - 7, 8):
        for x0 in range(0, w - 7, 8):
            coeffs = scipy.fft.dctn(patch[y0:y0 + 8, x0:x0 + 8], type=2, norm="ortho")
            levels = np.sign(coeffs) * np.floor(np.abs(coeffs) / step + 0.5)
            patch[y0:y0 + 8, x0:x0 + 8] = np.clip(
                scipy.fft.idctn(levels * step, type=2, norm="ortho"), 0.0, 255.0)
    return out


@pytest.mark.parametrize("shape,region,step", [
    ((8, 8), None, 40.0), ((9, 17), None, 40.0), ((64, 64), None, 13.7),
    ((99, 70), None, 60.0), ((37, 45), None, 5.0), ((10, 100), None, 40.0),
    ((48, 64), (3, 5, 20, 30), 40.0), ((48, 64), (0, 0, 7, 64), 40.0),
    ((40, 40), (8, 8, 24, 17), 25.0),
])
def test_block_quantize_matches_per_block_loop(shape, region, step):
    luma = np.random.RandomState(11).rand(*shape) * 255.0
    spec = DistortionSpec(kind="block_quantize", params={"step": step}, region=region)
    got = apply(seq_from_lumas([luma]), spec).frames[0].left.luma
    assert got.tobytes() == _reference_block_quantize(luma, spec).tobytes()


def test_spec_params_are_read_only():
    # an edit after construction skipped the checks: a size of 2.5 blurred
    spec = DistortionSpec(kind="gaussian_blur")
    for edit in (lambda p: p.__setitem__("size", 2.5), lambda p: p.__delitem__("size"),
                 lambda p: p.update(size=2.5), lambda p: p.setdefault("step", 1.0),
                 lambda p: p.pop("size"), lambda p: p.popitem(), lambda p: p.clear(),
                 lambda p: p.__ior__({"size": 2.5})):
        with pytest.raises(TypeError, match="read-only"):
            edit(spec.params)
    assert spec.params == {"size": 4, "sigma": 4.0}
    assert dataclasses.asdict(spec)["params"] == spec.params
    assert copy.deepcopy(spec) == spec == pickle.loads(pickle.dumps(spec))
    assert dataclasses.replace(spec, seed=3).params == spec.params


@pytest.mark.parametrize("params", [5, [1], "x", None])
def test_spec_params_must_be_a_dict(params):
    # each ended in a TypeError from merging the kind's defaults
    with pytest.raises(ParamError, match="awgn params must be a dict"):
        DistortionSpec(kind="awgn", params=params)


_PARAMS = [(kind, name) for kind, (_, defaults) in distort._DISTORTIONS.items()
           for name in defaults]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.nan), 10**400],
                         ids=["inf", "-inf", "nan", "numpy-nan", "10**400"])
@pytest.mark.parametrize("kind, name", _PARAMS, ids=[f"{k}-{n}" for k, n in _PARAMS])
def test_spec_params_must_be_finite(kind, name, value):
    # an infinite variance or delta saturated every pixel; a NaN passed the range checks
    with pytest.raises(ParamError, match=f"{kind} needs a finite number for {name!r}"):
        DistortionSpec(kind=kind, params={name: value})


def test_decode_spec_round_trip():
    spec = decode(DistortionSpec, {"kind": "awgn", "params": {"variance": 0.02},
                                   "seed": 7, "target": "right_only",
                                   "region": [0, 0, 8, 8]}, "spec")
    assert spec.kind == "awgn"
    assert spec.region == (0, 0, 8, 8)
    with pytest.raises(MalformedJson):
        decode(DistortionSpec, {"kind": "awgn", "params": {"variance": 0.1}, "extra": 1},
               "spec")
