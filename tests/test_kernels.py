import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoqa.errors import KernelTooLarge, ParamError, TooSmall
from stereoqa.kernels import (
    convolve2d,
    dct2,
    dct2_stack,
    dct3_stereo,
    downsample2,
    gaussian_kernel,
    gaussian_smooth,
    halving_chain,
    idct2,
    idct3_stereo,
    sobel_gradient,
)
from stereoqa.rng import SeededRng


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


def test_convolve_replicates_borders():
    image = np.zeros((8, 8))
    image[:, 0] = 10.0
    k = gaussian_kernel(3, 1.0)
    out = convolve2d(image, k)
    # the replicated left edge keeps contributing to column 0
    assert out[4, 0] > out[4, 1] > out[4, 2]


def test_convolve_kernel_too_large():
    with pytest.raises(KernelTooLarge):
        convolve2d(np.zeros((8, 8)), gaussian_kernel(11, 2.0))


def test_downsample_dims_ceil():
    out = downsample2(np.zeros((7, 9)))
    assert out.shape == (4, 5)


def test_downsample_constant_preserved():
    out = downsample2(np.full((16, 16), 42.0))
    assert np.allclose(out, 42.0)


def test_downsample_too_small():
    with pytest.raises(TooSmall):
        downsample2(np.zeros((1, 8)))


def test_halving_chain():
    assert halving_chain(64, 64, 3) == [(64, 64), (32, 32), (16, 16)]
    assert halving_chain(7, 9, 2) == [(7, 9), (4, 5)]


def test_dct2_round_trip():
    rng = SeededRng(1)
    block = rng.uniform(64).reshape(8, 8) * 255
    assert np.abs(idct2(dct2(block)) - block).max() < 1e-9


def test_dct2_energy_preserved():
    rng = SeededRng(2)
    block = rng.uniform(16).reshape(4, 4)
    assert (dct2(block) ** 2).sum() == pytest.approx((block ** 2).sum())


def test_dct2_rejects_odd_sizes():
    with pytest.raises(ParamError):
        dct2(np.zeros((6, 6)))


def test_dct2_stack_matches_single():
    rng = SeededRng(3)
    blocks = rng.uniform(3 * 64).reshape(3, 8, 8)
    stacked = dct2_stack(blocks)
    for i in range(3):
        assert np.allclose(stacked[i], dct2(blocks[i]))


def test_dct3_round_trip():
    rng = SeededRng(4)
    pair = rng.uniform(32).reshape(4, 4, 2)
    coeffs = dct3_stereo(pair)
    assert coeffs.shape == (4, 4, 2)
    assert np.abs(idct3_stereo(coeffs) - pair).max() < 1e-9


def test_dct3_view_axis_is_sum_difference():
    pair = np.zeros((4, 4, 2))
    pair[..., 0] = 6.0
    pair[..., 1] = 2.0
    coeffs = dct3_stereo(pair)
    # dc across views: (a+b)/sqrt(2) then 2-d dc gain of 4
    assert coeffs[0, 0, 0] == pytest.approx(8.0 / math.sqrt(2) * 4)
    assert coeffs[0, 0, 1] == pytest.approx(4.0 / math.sqrt(2) * 4)


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
