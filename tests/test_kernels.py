import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

import stereoqa
from stereoqa import fr, kernels, nr
from stereoqa.distort import DistortionSpec, apply
from stereoqa.errors import KernelTooLarge, ParamError, TooSmall
from stereoqa.kernels import (
    Kernel2D,
    convolve2d,
    dct2_stack,
    dct3_stereo_stack,
    downsample2,
    gaussian_kernel,
    gaussian_smooth,
    idct2_stack,
    iter_pyramid,
    sobel_gradient,
)
from stereoqa.rng import SeededRng

from conftest import make_seq


def test_gaussian_kernel_normalized():
    for size, sigma in ((3, 0.8), (4, 4.0), (11, 1.5)):
        k = gaussian_kernel(size, sigma)
        assert k.taps.shape == (size, size)
        assert k.taps.sum() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_even_size_symmetric():
    k = gaussian_kernel(4, 4.0).taps
    assert np.allclose(k, k[::-1, ::-1])


def test_gaussian_kernel_bad_sigma():
    with pytest.raises(ParamError):
        gaussian_kernel(3, 0.0)


@pytest.mark.parametrize("size, sigma", [(3, 0.8), (4, 4.0), (11, 1.5), (7, 1.0 + 2**-27)])
def test_gaussian_windows_keep_their_formulas(size, sigma):
    # the 2-D taps are not the outer product of the 1-D ones; both stay as written
    offs = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g2 = np.exp(-(offs[:, None] ** 2 + offs[None, :] ** 2) / (2.0 * sigma**2))
    assert np.array_equal(gaussian_kernel(size, sigma).taps, g2 / g2.sum())
    g1 = np.exp(-offs**2 / (2.0 * sigma**2))
    g1 /= g1.sum()
    image = SeededRng(size).uniform(24 * 20).reshape(24, 20) * 255.0
    want = scipy.ndimage.convolve1d(image, g1, axis=0, mode="nearest")
    want = scipy.ndimage.convolve1d(want, g1, axis=1, mode="nearest")
    assert np.array_equal(gaussian_smooth(image, size, sigma), want)


def test_convolve_replicates_borders():
    image = np.zeros((8, 8))
    image[:, 0] = 10.0
    k = gaussian_kernel(3, 1.0)
    out = convolve2d(image, k)
    # the replicated left edge keeps contributing to column 0
    assert out[4, 0] > out[4, 1] > out[4, 2]


def test_downsample_dims_ceil():
    out = downsample2(np.zeros((7, 9)))
    assert out.shape == (4, 5)


def test_downsample_constant_preserved():
    out = downsample2(np.full((16, 16), 42.0))
    assert np.allclose(out, 42.0)


def _downsample_direct(x):
    # filters every row and column, then decimates
    taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    low = scipy.ndimage.correlate1d(x, taps, axis=0, mode="nearest")
    return scipy.ndimage.correlate1d(low, taps, axis=1, mode="nearest")[::2, ::2]


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (33, 97), (270, 480), (271, 481)])
def test_downsample_matches_full_passes(shape):
    image = np.random.RandomState(5).rand(*shape) * 255.0
    assert np.array_equal(downsample2(image), _downsample_direct(image))


def test_downsample_level_is_a_fresh_contiguous_array():
    # a strided view of the filtered rows would pin a (135, 480) buffer
    level = downsample2(np.random.RandomState(6).rand(270, 480))
    assert level.flags.c_contiguous and level.base is None


def test_downsample_too_small():
    with pytest.raises(TooSmall):
        downsample2(np.zeros((1, 8)))


def test_pyramid_levels():
    assert [p.shape for p in iter_pyramid(np.zeros((64, 64)), 3)] == [(64, 64), (32, 32),
                                                                     (16, 16)]
    assert [p.shape for p in iter_pyramid(np.zeros((7, 9)), 2)] == [(7, 9), (4, 5)]
    # a side of 1 ends the pyramid early instead of failing in downsample2
    assert [p.shape for p in iter_pyramid(np.zeros((8, 40)), 5)] == [(8, 40), (4, 20),
                                                                    (2, 10), (1, 5)]
    image = np.random.RandomState(3).rand(33, 97)
    levels = list(iter_pyramid(image, 4))
    assert levels[0] is image
    for big, small in zip(levels, levels[1:]):
        assert np.array_equal(small, downsample2(big))


@pytest.mark.parametrize("shape", [(64, 64), (7, 9), (8, 40), (1, 5), (33, 97), (270, 480)])
def test_pyramid_shapes_and_iter_pyramid_follow_pyramid(shape):
    image = np.random.RandomState(4).rand(*shape)
    levels = list(iter_pyramid(image, 6))
    assert kernels.pyramid_shapes(shape, 6) == [level.shape for level in levels]
    assert levels[0] is image
    for big, small in zip(levels, levels[1:]):
        assert np.array_equal(small, downsample2(big))


def test_dct2_round_trip():
    rng = SeededRng(1)
    block = rng.uniform(64).reshape(1, 8, 8) * 255
    assert np.abs(idct2_stack(dct2_stack(block)) - block).max() < 1e-9


def test_dct2_energy_preserved():
    rng = SeededRng(2)
    block = rng.uniform(16).reshape(1, 4, 4)
    assert (dct2_stack(block) ** 2).sum() == pytest.approx((block ** 2).sum())


def test_dct2_stack_matches_single():
    rng = SeededRng(3)
    blocks = rng.uniform(3 * 64).reshape(3, 8, 8)
    stacked = dct2_stack(blocks)
    for i in range(3):
        assert np.allclose(stacked[i], scipy.fft.dctn(blocks[i], type=2, norm="ortho"))


def test_dct3_round_trip():
    # the transform as a 32 x 32 matrix: row i is the image of basis pair i,
    # so orthonormality means its transpose is its inverse
    m = dct3_stereo_stack(np.eye(32).reshape(32, 4, 4, 2)).reshape(32, 32)
    assert np.abs(m.T @ m - np.eye(32)).max() < 1e-12


def test_dct3_view_axis_is_sum_difference():
    pair = np.zeros((1, 4, 4, 2))
    pair[..., 0] = 6.0
    pair[..., 1] = 2.0
    coeffs = dct3_stereo_stack(pair)[0]
    # dc across views: (a+b)/sqrt(2) then 2-d dc gain of 4
    assert coeffs[0, 0, 0] == pytest.approx(8.0 / math.sqrt(2) * 4)
    assert coeffs[0, 0, 1] == pytest.approx(4.0 / math.sqrt(2) * 4)


def _dct_stacks():
    rng = SeededRng(23)

    def uniform(*shape):
        return rng.uniform(math.prod(shape)).reshape(shape) * 255.0

    return [pytest.param(uniform(5, 4, 4), id="n-4-4"),
            pytest.param(uniform(3, 8, 8), id="n-8-8"),
            pytest.param(uniform(6, 4, 4, 2), id="n-4-4-2"),
            # every second column of wider blocks: a strided view
            pytest.param(uniform(4, 8, 16)[:, :, ::2], id="n-8-8-strided")]


@pytest.mark.parametrize("blocks", _dct_stacks())
def test_dcts_equal_scipy_fft(blocks):
    if blocks.ndim == 3:
        assert np.array_equal(dct2_stack(blocks),
                              scipy.fft.dctn(blocks, type=2, norm="ortho", axes=(-2, -1)))
        assert np.array_equal(idct2_stack(blocks),
                              scipy.fft.idctn(blocks, type=2, norm="ortho", axes=(-2, -1)))
    else:
        slabs = scipy.fft.dctn(blocks, type=2, norm="ortho", axes=(1, 2))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        want = np.stack([(slabs[..., 0] + slabs[..., 1]) * inv_sqrt2,
                         (slabs[..., 0] - slabs[..., 1]) * inv_sqrt2], axis=-1)
        assert np.array_equal(dct3_stereo_stack(blocks), want)


def test_sobel_on_ramp():
    image = np.tile(np.arange(8.0), (8, 1))
    grad = sobel_gradient(image)
    # interior of a unit ramp has gx = 8 with the standard 3x3 taps
    assert grad["gx"][4, 4] == pytest.approx(8.0)
    assert grad["gy"][4, 4] == pytest.approx(0.0)


class TestSeededRng:
    def test_vectorized_matches_sequential(self):
        a = SeededRng(99)
        b = SeededRng(99)
        chunk = a.next_u64(16)
        singles = np.array([b.next_u64(1)[0] for _ in range(16)])
        assert np.array_equal(chunk, singles)

    def test_stream_continues_across_calls(self):
        a = SeededRng(7)
        b = SeededRng(7)
        first = np.concatenate([a.next_u64(3), a.next_u64(5)])
        second = b.next_u64(8)
        assert np.array_equal(first, second)

    def test_uniform_in_half_open_unit(self):
        u = SeededRng(5).uniform(10000)
        assert u.min() > 0.0
        assert u.max() <= 1.0

    def test_normals_moments(self):
        z = SeededRng(13).normals(200000, 1.0, 2.0)
        assert z.mean() == pytest.approx(1.0, abs=0.02)
        assert z.std() == pytest.approx(2.0, abs=0.02)

    def test_normals_spare_preserves_stream(self):
        a = SeededRng(21)
        b = SeededRng(21)
        odd = np.concatenate([a.normals(3), a.normals(4)])
        whole = b.normals(7)
        assert np.array_equal(odd, whole)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParamError):
            SeededRng(1).normals(4, 0.0, -1.0)

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(SeededRng(1).next_u64(4), SeededRng(2).next_u64(4))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.0, True, "1"])
    def test_seed_outside_64_bits_rejected(self, seed):
        # reducing modulo 2**64 made 2**70 replay seed 0 and -1 replay 2**64 - 1
        with pytest.raises(ParamError, match="seed"):
            SeededRng(seed)

    def test_seed_range_ends_accepted(self):
        assert SeededRng(0).next_u64(1) != SeededRng(2**64 - 1).next_u64(1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(1, 64))
def test_rng_split_point_invariance(seed, split):
    a = SeededRng(seed)
    b = SeededRng(seed)
    left = np.concatenate([a.next_u64(split), a.next_u64(65 - split)])
    assert np.array_equal(left, b.next_u64(65))


@pytest.mark.parametrize("size, sigma, shape", [
    (3, 0.5, (10, 12)),
    (4, 4.0, (16, 9)),      # even: half-integer offsets, no one-pixel shift
    (10, 2.0, (10, 12)),
    (11, 1.5, (40, 33)),
    (53, 8.4375, (70, 90)),
])
def test_gaussian_smooth_matches_2d_convolution(size, sigma, shape):
    image = SeededRng(size).uniform(shape[0] * shape[1]).reshape(shape) * 255.0
    want = convolve2d(image, gaussian_kernel(size, sigma))
    got = gaussian_smooth(image, size, sigma)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_gaussian_smooth_checks_like_convolve2d():
    with pytest.raises(KernelTooLarge):
        gaussian_smooth(np.zeros((8, 12)), 9, 1.0)
    with pytest.raises(ParamError):
        gaussian_smooth(np.zeros((8, 8)), 3, 0.0)
    # every tap of an even window underflows
    with pytest.raises(ParamError):
        gaussian_smooth(np.zeros((8, 8)), 4, 0.01)
    with pytest.raises(ParamError):
        gaussian_kernel(4, 0.01)
    # 2 * sigma**2 overflows: a Python float raises there, a numpy float warns
    for sigma in (1e200, np.float64(1e200), np.inf):
        with pytest.raises(ParamError, match="too large for a size-7 window"):
            gaussian_smooth(np.zeros((8, 8)), 7, sigma)
        with pytest.raises(ParamError, match="too large for a size-7 window"):
            gaussian_kernel(7, sigma)


_SEQ = make_seq(88, frames=1, size=64)
_IMAGE = _SEQ.frames[0].left.luma


@pytest.mark.parametrize("call, field", [
    (lambda: convolve2d(_IMAGE, Kernel2D(np.ones((65, 65)))), "kernel (65, 65)"),
    (lambda: convolve2d(_IMAGE, Kernel2D(np.ones((1, 65)))), "kernel (1, 65)"),
    (lambda: gaussian_smooth(_IMAGE, 10**12, 1.0), "smoothing size 1000000000000"),
    (lambda: fr.vif_s(_SEQ, _SEQ, cfg=fr.FrMetricConfig(vif_scales=10**6)), "vif_scales 1000000"),
    (lambda: nr.nrpbm_s(_SEQ, cfg=nr.NrMetricConfig(nrpbm_probe=10**12)),
     "nrpbm_probe 1000000000000"),
    (lambda: apply(_SEQ, DistortionSpec(kind="gaussian_blur", params={"size": 10**12})),
     "blur size 1000000000000"),
], ids=["convolve2d", "convolve2d-line", "gaussian_smooth", "vif_s", "nrpbm_s",
        "gaussian_blur"])
def test_window_wider_than_the_frame_fails_before_its_taps_are_built(call, field):
    tracemalloc.start()
    try:
        with pytest.raises(KernelTooLarge, match=re.escape(field)):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Row strips (kernels._by_rows): a split call equals the one scipy.ndimage call.

def _convolve_case(name, kernel):
    return pytest.param(lambda x: convolve2d(x, kernel),
                        lambda x: scipy.ndimage.convolve(x, kernel.taps, mode="nearest"),
                        max(kernel.taps.shape), id=name)


def _smooth_case(size, sigma):
    g = kernels._gaussian_taps(size, sigma, 1, "sigma")

    def direct(x):
        low = scipy.ndimage.convolve1d(x, g, axis=0, mode="nearest")
        return scipy.ndimage.convolve1d(low, g, axis=1, mode="nearest")

    return pytest.param(lambda x: gaussian_smooth(x, size, sigma), direct, size,
                        id=f"smooth-{size}")


def _sobel_direct(x):
    sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    gx = scipy.ndimage.correlate(x, sobel_x, mode="nearest")
    gy = scipy.ndimage.correlate(x, sobel_x.T, mode="nearest")
    return gx, gy, np.sqrt(gx * gx + gy * gy)


_STRIP_CASES = [
    *(_convolve_case(f"gaussian-{n}", gaussian_kernel(n, n / 5.0)) for n in (3, 5, 9, 11, 17, 53)),
    *(_smooth_case(n, n / 5.0) for n in (3, 5, 9, 11, 17, 53)),
    _convolve_case("blur-4", gaussian_kernel(4, 4.0)),  # even: origin shifts by one
    _smooth_case(4, 4.0),
    _convolve_case("nr-box-5", Kernel2D(np.full((5, 5), 1.0 / 25.0))),
    *(_convolve_case(f"probe-axis{axis}", Kernel2D(np.full(shape, 1.0 / 7)))
      for axis, shape in ((0, (7, 1)), (1, (1, 7)))),
    *(_convolve_case(f"aqi-{d}", nr._aqi_kernel(d)) for d in (0, 45, 90, 135)),
    pytest.param(downsample2, _downsample_direct, 2, id="downsample2"),
    pytest.param(lambda x: tuple(sobel_gradient(x)[k] for k in ("gx", "gy", "magnitude")),
                 _sobel_direct, 3, id="sobel_gradient"),
]


def _strip_images():
    rng = SeededRng(17)
    images = [rng.uniform(h * w).reshape(h, w) * 255.0
              for h, w in ((33, 97), (40, 9), (7, 13), (55, 60), (61, 57), (2, 5))]
    # strided views, as VIF passes its halved levels
    images += [(rng.uniform(h * w).reshape(h, w) * 255.0)[::2, ::2]
               for h, w in ((66, 194), (111, 121))]
    return images


_STRIP_IMAGES = _strip_images()


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("call, direct, side", _STRIP_CASES)
def test_row_strips_equal_one_scipy_call(monkeypatch, workers, call, direct, side):
    # odd heights, and strips shorter than their halo (55 rows in 4 strips
    # under a 53-tap window, 7 rows in 4 strips under 3 to 7 taps)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    monkeypatch.setattr(kernels, "_SPLIT_PIXELS", 0)
    submitted = []
    executor = kernels._executor
    monkeypatch.setattr(kernels, "_executor", lambda: submitted.append(1) or executor())
    checked = 0
    for image in _STRIP_IMAGES:
        if min(image.shape) >= side:
            got, want = call(image), direct(image)
            assert np.array_equal(got, want), image.shape
            checked += 1
    assert checked and submitted


@pytest.mark.parametrize("workers, split_pixels", [(1, 0), (4, kernels._SPLIT_PIXELS)])
def test_one_worker_or_small_work_runs_whole(monkeypatch, workers, split_pixels):
    # one usable CPU (taskset -c 0), or a frame below the threshold: no strips,
    # however many taps (121 on 60 x 80 was split by a multiply-add count)
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    monkeypatch.setattr(kernels, "_SPLIT_PIXELS", split_pixels)
    monkeypatch.setattr(kernels, "_executor", lambda: pytest.fail("split a whole call"))
    image = _STRIP_IMAGES[0]
    assert np.array_equal(convolve2d(image, gaussian_kernel(3, 0.6)),
                          scipy.ndimage.convolve(image, gaussian_kernel(3, 0.6).taps,
                                                 mode="nearest"))
    downsample2(image)
    sobel_gradient(image)
    gaussian_smooth(image, 3, 0.6)
    wide = gaussian_kernel(11, 1.5)
    frame = SeededRng(60).uniform(60 * 80).reshape(60, 80) * 255.0
    assert np.array_equal(convolve2d(frame, wide),
                          scipy.ndimage.convolve(frame, wide.taps, mode="nearest"))


def test_large_frames_split_at_the_default_threshold(monkeypatch):
    # a frame this size splits whatever the taps; a multiply-add count of
    # 7 per pixel ran this downsample2 whole
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    submitted = []
    executor = kernels._executor
    monkeypatch.setattr(kernels, "_executor", lambda: submitted.append(1) or executor())
    image = SeededRng(135).uniform(135 * 240).reshape(135, 240) * 255.0
    assert np.array_equal(downsample2(image), _downsample_direct(image))
    assert submitted


def test_workers_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert kernels._usable_cpus() == (os.cpu_count() or 1)


_FORK_CHILD = """
import os, signal, sys, time, warnings
import numpy as np
from stereoqa import kernels

kernels._WORKERS, kernels._SPLIT_PIXELS = 2, 0
image = np.random.default_rng(0).random((64, 64))
want = kernels.gaussian_smooth(image, 5, 1.0)  # starts the pool's thread
assert kernels._pool is not None
warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
pid = os.fork()
if pid == 0:
    ok = np.array_equal(kernels.gaussian_smooth(image, 5, 1.0), want)
    os._exit(0 if ok else 1)
deadline = time.monotonic() + 20.0
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child did not finish its split call")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_splits_on_a_new_pool():
    # the inherited pool has no threads in the child; a split call there
    # would wait forever without the at-fork reset
    src = os.path.dirname(os.path.dirname(stereoqa.__file__))
    out = subprocess.run([sys.executable, "-c", _FORK_CHILD],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
