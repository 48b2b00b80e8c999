import os

import numpy as np
import pytest
import scipy.ndimage

from stereoqa import SeededRng
from stereoqa.kernels import gaussian_kernel
from stereoqa.media import Frame, SequenceDescriptor, StereoFrame, StereoSequence


def make_seq(seed, frames=4, size=64, block=None):
    """Deterministic stereo texture.  With `block` set, lumas are piecewise
    constant on block x block cells so there are genuine step edges."""
    rng = SeededRng(seed)
    out = []
    for _ in range(frames):
        views = []
        for _ in range(2):
            if block:
                cells = size // block
                coarse = rng.uniform(cells * cells).reshape(cells, cells) * 255.0
                luma = np.kron(coarse, np.ones((block, block)))
            else:
                luma = rng.uniform(size * size).reshape(size, size) * 255.0
            views.append(Frame(luma=luma))
        out.append(StereoFrame(left=views[0], right=views[1]))
    return StereoSequence(frames=out, fps=25.0)


def flat_seq(value=128.0, frames=4, size=64):
    out = []
    for _ in range(frames):
        luma = np.full((size, size), float(value))
        out.append(StereoFrame(left=Frame(luma=luma.copy()),
                               right=Frame(luma=luma.copy())))
    return StereoSequence(frames=out, fps=25.0)


def seq_from_lumas(lumas_left, lumas_right=None):
    if lumas_right is None:
        lumas_right = lumas_left
    out = []
    for l, r in zip(lumas_left, lumas_right):
        out.append(StereoFrame(left=Frame(luma=np.asarray(l, dtype=np.float64)),
                               right=Frame(luma=np.asarray(r, dtype=np.float64))))
    return StereoSequence(frames=out, fps=25.0)


def write_yuv420(d, name, frames, height, width, seed):
    """A descriptor of random yuv420p8 streams of ``frames`` frames in ``d``."""
    desc = SequenceDescriptor(os.path.join(d, f"{name}-l.raw"), os.path.join(d, f"{name}-r.raw"),
                              width, height, 25.0, frames, "yuv420p8")
    rng = np.random.default_rng(seed)
    for path in (desc.left, desc.right):
        with open(path, "wb") as fh:
            fh.write(rng.integers(0, 256, frames * desc.frame_bytes(), np.uint8).tobytes())
    return desc


def smooth_2d(values, size, sigma, what="sigma"):
    """gaussian_smooth as the full 2-D Gaussian convolution: the reference
    for every window that runs as two 1-D passes."""
    return scipy.ndimage.convolve(values, gaussian_kernel(size, sigma, what).taps,
                                  mode="nearest")


@pytest.fixture
def tiny_seq():
    return make_seq(11, frames=2, size=16)


@pytest.fixture
def textured_seq():
    return make_seq(3, frames=4, size=64, block=8)
