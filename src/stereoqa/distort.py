"""Reproducible test distortions applied to stereo sequences.

Every operation is deterministic given its recipe: noise draws come from the
seeded generator with a per-frame, per-view stream seed, so re-running a
distortion yields byte-identical output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParamError, RangeError, numeric_errors
from .kernels import _check_window, convolve2d, dct2_stack, gaussian_kernel, idct2_stack
from .media import Frame, StereoFrame, StereoSequence, _check_int, _check_numbers, _Frames, _fits
from .rng import SeededRng, _check_seed

TARGETS = ("both_views", "left_only", "right_only")


class _Params(dict):
    """A spec's parameters: a dict that refuses every change once built, so
    no edit skips the spec's checks.  Equality, JSON, ``dataclasses.asdict``,
    copies and pickles work as for a dict."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("DistortionSpec.params is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class DistortionSpec:
    kind: str
    params: dict = field(default_factory=dict)  # filled from the kind's defaults, read-only
    seed: int = 0
    target: str = "both_views"
    region: tuple | None = None  # (y0, x0, height, width)

    def __post_init__(self):
        if self.kind not in _DISTORTIONS:
            raise ParamError(f"unknown distortion kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ParamError(f"unknown target {self.target!r}")
        _check_seed(self.seed)
        if self.region is not None:
            _check_numbers("region (y0, x0, height, width)", self.region, (4,))
            for name, value, minimum in zip(("y0", "x0", "height", "width"), self.region,
                                            (0, 0, 1, 1)):
                _check_int(f"region {name}", value, minimum)
            object.__setattr__(self, "region", tuple(self.region))
        if not _fits(self.params, "dict"):
            raise ParamError(f"{self.kind} params must be a dict, not {self.params!r:.40}")
        defaults = _DISTORTIONS[self.kind][1]
        object.__setattr__(self, "params", _Params({**defaults, **self.params}))
        for name, value in self.params.items():
            if name not in defaults:
                raise ParamError(f"unknown {self.kind} parameter {name!r}")
            if not (_fits(value, "float") and abs(value) <= sys.float_info.max):  # NaN fails
                raise ParamError(f"{self.kind} needs a finite number for {name!r}, "
                                 f"not {value!r:.40}")
        if "size" in self.params:
            _check_int(f"{self.kind} size", self.params["size"], 1)
        if self.params.get("variance", 0.0) < 0:
            raise ParamError("awgn needs a non-negative 'variance'")
        for name in ("sigma", "step"):
            if self.params.get(name, 1.0) <= 0:
                raise ParamError(f"{self.kind} {name} must be positive")


def _region_slices(spec: DistortionSpec, shape):
    if spec.region is None:
        return slice(None), slice(None)
    y0, x0, h, w = spec.region
    if y0 + h > shape[0] or x0 + w > shape[1]:
        raise RangeError("region falls outside the frame")
    return slice(y0, y0 + h), slice(x0, x0 + w)


def _awgn(luma: np.ndarray, region, params: dict, stream_seed: int) -> np.ndarray:
    patch = luma[region]
    # variance is quoted on the unit intensity scale; convert to 8-bit units
    sigma = 255.0 * math.sqrt(float(params["variance"]))
    return patch + SeededRng(stream_seed).normals(patch.size, 0.0, sigma).reshape(patch.shape)


def _gaussian_blur(luma: np.ndarray, region, params: dict, stream_seed: int) -> np.ndarray:
    size = params["size"]
    _check_window(size, luma.shape, f"blur size {size}")
    return convolve2d(luma, gaussian_kernel(size, float(params["sigma"])))[region]


def _intensity_shift(luma: np.ndarray, region, params: dict, stream_seed: int) -> np.ndarray:
    return luma[region] + float(params["delta"])


def _block_quantize(luma: np.ndarray, region, params: dict, stream_seed: int) -> np.ndarray:
    step = float(params["step"])
    patch = luma[region].copy()
    h, w = patch.shape[0] // 8 * 8, patch.shape[1] // 8 * 8
    # the whole 8x8 blocks as an (h/8, w/8, 8, 8) stack; the ragged border stays
    blocks = patch[:h, :w].reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2)
    coeffs = dct2_stack(blocks)
    # round half away from zero so the mapping has no even bias
    levels = np.sign(coeffs) * np.floor(np.abs(coeffs) / step + 0.5)
    patch[:h, :w] = idct2_stack(levels * step).swapaxes(1, 2).reshape(h, w)
    return patch


# kind: (function(luma, region, params, stream seed) -> the region's new
# values before clipping, parameter defaults, None where the recipe must
# give the value); only the noise draws from the stream seed
_DISTORTIONS = {
    "awgn": (_awgn, {"variance": None}),
    "gaussian_blur": (_gaussian_blur, {"size": 4, "sigma": 4.0}),
    "intensity_shift": (_intensity_shift, {"delta": 20.0}),
    "block_quantize": (_block_quantize, {"step": 40.0}),
}


def apply(seq: StereoSequence, spec: DistortionSpec) -> StereoSequence:
    """A new sequence with the distortion applied to the targeted views;
    the input is never modified.  Each frame is made from ``seq``'s when it
    is asked for (``media._Frames``), so an error the spec gives on a frame
    (a region outside it, a blur wider than it) comes when that frame is
    asked for.  The awgn seed range is checked here."""
    # awgn draws frame t, view v from stream seed + 2t + v; check the last
    # one here, so that the error names the seed the spec gave
    if spec.kind == "awgn" and spec.seed + 2 * len(seq) - 1 >= 2**64:
        raise ParamError(f"seed {spec.seed} is too large for {len(seq)} frames: awgn "
                         "draws from stream seeds up to seed + 2 * frames - 1, "
                         "which must be below 2**64")

    def make(t):
        sf, views = seq.frames[t], []
        for v, name in enumerate(("left", "right")):
            frame = getattr(sf, name)
            if spec.target not in ("both_views", f"{name}_only"):
                views.append(frame)
                continue
            region = _region_slices(spec, frame.shape)
            luma = frame.luma
            with numeric_errors(spec.kind):
                values = _DISTORTIONS[spec.kind][0](luma, region, spec.params,
                                                    spec.seed + 2 * t + v)
            luma = luma.copy()
            luma[region] = np.clip(values, 0.0, 255.0)
            views.append(Frame(luma, *frame.planes[1:]))
        return StereoFrame(*views)

    return StereoSequence(_Frames(len(seq), (seq.height, seq.width), make), fps=seq.fps)
