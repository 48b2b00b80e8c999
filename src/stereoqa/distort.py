"""Reproducible test distortions applied to stereo sequences.

Every operation is deterministic given its recipe: noise draws come from the
seeded generator with a per-frame, per-view stream seed, so re-running a
distortion yields byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParamError, RangeError
from .kernels import convolve2d, dct2_stack, gaussian_kernel, idct2_stack
from .media import Frame, StereoFrame, StereoSequence
from .rng import SeededRng

KINDS = ("awgn", "gaussian_blur", "intensity_shift", "block_quantize")
TARGETS = ("both_views", "left_only", "right_only")


@dataclass
class DistortionSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    target: str = "both_views"
    region: tuple | None = None  # (y0, x0, height, width)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParamError(f"unknown distortion kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ParamError(f"unknown target {self.target!r}")
        if self.region is not None:
            self.region = tuple(int(v) for v in self.region)
            if len(self.region) != 4 or self.region[2] <= 0 or self.region[3] <= 0:
                raise ParamError("region must be (y0, x0, height, width)")
        if self.kind == "awgn":
            var = self.params.get("variance")
            if var is None or var < 0:
                raise ParamError("awgn needs a non-negative 'variance'")
        if self.kind == "gaussian_blur":
            if self.params.get("sigma", 4.0) <= 0:
                raise ParamError("blur sigma must be positive")
        if self.kind == "block_quantize":
            if self.params.get("step", 40.0) <= 0:
                raise ParamError("quantizer step must be positive")


def _region_slices(spec: DistortionSpec, shape):
    if spec.region is None:
        return slice(None), slice(None)
    y0, x0, h, w = spec.region
    if y0 < 0 or x0 < 0 or y0 + h > shape[0] or x0 + w > shape[1]:
        raise RangeError("region falls outside the frame")
    return slice(y0, y0 + h), slice(x0, x0 + w)


def _awgn(luma: np.ndarray, spec: DistortionSpec, stream_seed: int) -> np.ndarray:
    ys, xs = _region_slices(spec, luma.shape)
    patch = luma[ys, xs]
    # variance is quoted on the unit intensity scale; convert to 8-bit units
    sigma = 255.0 * float(np.sqrt(spec.params["variance"]))
    rng = SeededRng(stream_seed)
    noise = rng.normals(patch.size, 0.0, sigma).reshape(patch.shape)
    out = luma.copy()
    out[ys, xs] = np.clip(patch + noise, 0.0, 255.0)
    return out


def _gaussian_blur(luma: np.ndarray, spec: DistortionSpec) -> np.ndarray:
    size = int(spec.params.get("size", 4))
    sigma = float(spec.params.get("sigma", 4.0))
    blurred = convolve2d(luma, gaussian_kernel(size, sigma))
    ys, xs = _region_slices(spec, luma.shape)
    out = luma.copy()
    out[ys, xs] = np.clip(blurred[ys, xs], 0.0, 255.0)
    return out


def _intensity_shift(luma: np.ndarray, spec: DistortionSpec) -> np.ndarray:
    delta = float(spec.params.get("delta", 20.0))
    ys, xs = _region_slices(spec, luma.shape)
    out = luma.copy()
    out[ys, xs] = np.clip(out[ys, xs] + delta, 0.0, 255.0)
    return out


def _block_quantize(luma: np.ndarray, spec: DistortionSpec) -> np.ndarray:
    step = float(spec.params.get("step", 40.0))
    ys, xs = _region_slices(spec, luma.shape)
    out = luma.copy()
    patch = out[ys, xs]
    h, w = patch.shape[0] // 8 * 8, patch.shape[1] // 8 * 8
    # the whole 8x8 blocks as an (h/8, w/8, 8, 8) stack; the ragged border stays
    blocks = patch[:h, :w].reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2)
    coeffs = dct2_stack(blocks)
    # round half away from zero so the mapping has no even bias
    levels = np.sign(coeffs) * np.floor(np.abs(coeffs) / step + 0.5)
    quantized = np.clip(idct2_stack(levels * step), 0.0, 255.0)
    patch[:h, :w] = quantized.swapaxes(1, 2).reshape(h, w)
    return out


def apply(seq: StereoSequence, spec: DistortionSpec) -> StereoSequence:
    """Return a new sequence with the distortion applied to the targeted
    views; the input is never modified."""
    frames = []
    for t, sf in enumerate(seq.frames):
        views = {}
        for v, name in enumerate(("left", "right")):
            frame = getattr(sf, name)
            wanted = (spec.target == "both_views"
                      or spec.target == f"{name}_only")
            if not wanted:
                views[name] = frame
                continue
            luma = frame.luma
            if spec.kind == "awgn":
                luma = _awgn(luma, spec, spec.seed + 2 * t + v)
            elif spec.kind == "gaussian_blur":
                luma = _gaussian_blur(luma, spec)
            elif spec.kind == "intensity_shift":
                luma = _intensity_shift(luma, spec)
            else:
                luma = _block_quantize(luma, spec)
            views[name] = Frame(luma=luma, chroma_u=frame.chroma_u,
                                chroma_v=frame.chroma_v)
        frames.append(StereoFrame(left=views["left"], right=views["right"],
                                  index=sf.index))
    return StereoSequence(frames=frames, fps=seq.fps)


def apply_all(seq: StereoSequence, specs) -> StereoSequence:
    for spec in specs:
        seq = apply(seq, spec)
    return seq


def spec_from_dict(d: dict) -> DistortionSpec:
    known = {"kind", "params", "seed", "target", "region"}
    extra = set(d) - known
    if extra:
        raise ParamError(f"unknown distortion fields: {sorted(extra)}")
    return DistortionSpec(
        kind=d.get("kind", ""),
        params=dict(d.get("params", {})),
        seed=int(d.get("seed", 0)),
        target=d.get("target", "both_views"),
        region=tuple(d["region"]) if d.get("region") is not None else None,
    )
