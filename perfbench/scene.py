"""Seeded synthetic stereo scenes written as raw planar streams.

The generator uses only numpy, so the program under test sees nothing but
the files it writes.  A scene is a smooth-noise textured background at a
small disparity with a few textured objects in front of it, each at its own
larger disparity and moving a few pixels per frame.  Disparity d puts a
left-view pixel at x in the right view at x - d.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

BACKGROUND_DISPARITY = 2


def _smooth_noise(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Sum of bilinearly upsampled noise octaves, scaled to [0, 1]."""
    out = np.zeros((h, w))
    for cell, amp in ((32, 1.0), (12, 0.6), (5, 0.35), (2, 0.2)):
        gh, gw = h // cell + 2, w // cell + 2
        grid = rng.random((gh, gw))
        ys = np.arange(h) / cell
        xs = np.arange(w) / cell
        y0, x0 = ys.astype(int), xs.astype(int)
        fy, fx = (ys - y0)[:, None], (xs - x0)[None, :]
        g00 = grid[y0][:, x0]
        g01 = grid[y0][:, x0 + 1]
        g10 = grid[y0 + 1][:, x0]
        g11 = grid[y0 + 1][:, x0 + 1]
        out += amp * ((1 - fy) * ((1 - fx) * g00 + fx * g01)
                      + fy * ((1 - fx) * g10 + fx * g11))
    lo, hi = out.min(), out.max()
    return (out - lo) / (hi - lo)


class _Layer:
    """A textured plane with its disparity, motion, and optional mask."""

    def __init__(self, rng, h, w, disparity, velocity, box, lo, hi, chroma):
        self.disparity = disparity
        self.velocity = velocity  # (dy, dx) pixels per frame
        self.box = box  # (y0, x0, height, width) at frame 0, or None
        pad_h, pad_w = h + 64, w + 64
        self.luma = lo + (hi - lo) * _smooth_noise(rng, pad_h, pad_w)
        self.u = chroma[0] + 20.0 * (_smooth_noise(rng, pad_h, pad_w) - 0.5)
        self.v = chroma[1] + 20.0 * (_smooth_noise(rng, pad_h, pad_w) - 0.5)

    def render(self, planes, t, view):
        """Paint this layer over ``planes`` for frame t of one view."""
        h, w = planes[0].shape
        dy, dx = self.velocity[0] * t, self.velocity[1] * t
        shift = -self.disparity if view == "right" else 0
        ys = np.arange(h)[:, None]
        xs = np.arange(w)[None, :]
        # texture coordinates follow the layer, so the texture moves with it
        ty = np.clip(ys - dy + 32, 0, self.luma.shape[0] - 1)
        tx = np.clip(xs - dx - shift + 32, 0, self.luma.shape[1] - 1)
        if self.box is None:
            mask = np.ones((h, w), bool)
        else:
            y0, x0, bh, bw = self.box
            cy, cx = y0 + dy + bh / 2.0, x0 + dx + shift + bw / 2.0
            mask = ((ys - cy) / (bh / 2.0)) ** 2 + ((xs - cx) / (bw / 2.0)) ** 2 <= 1.0
        for plane, tex in zip(planes, (self.luma, self.u, self.v)):
            plane[mask] = tex[ty, tx][mask]


def make_scene(seed: int, width: int, height: int, frames: int,
               objects: int = 3) -> dict:
    """Return {'left': [...], 'right': [...]} lists of (Y, U, V) float planes."""
    rng = np.random.default_rng([seed, width, height, frames])
    layers = [_Layer(rng, height, width, BACKGROUND_DISPARITY, (0, 1), None,
                     30.0, 200.0, (128.0, 128.0))]
    for k in range(objects):
        bh = int(height * rng.uniform(0.25, 0.4))
        bw = int(width * rng.uniform(0.2, 0.3))
        y0 = int(rng.uniform(0.05, 0.9) * (height - bh))
        x0 = int(width * (0.1 + 0.28 * k))
        velocity = (int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
        chroma = tuple(float(c) for c in rng.uniform(70.0, 190.0, 2))
        lo = float(rng.uniform(0.0, 60.0))
        layers.append(_Layer(rng, height, width, 8 + 6 * k, velocity,
                             (y0, x0, bh, bw), lo, lo + 190.0, chroma))
    out = {"left": [], "right": []}
    for t in range(frames):
        for view in ("left", "right"):
            planes = [np.zeros((height, width)) for _ in range(3)]
            for layer in layers:
                layer.render(planes, t, view)
            out[view].append(tuple(planes))
    return out


def degrade(scene: dict, seed: int) -> dict:
    """A distorted copy: mild noise everywhere plus a blurred patch."""
    rng = np.random.default_rng([seed, 7])
    out = {}
    for view, frames in scene.items():
        out[view] = []
        for y, u, v in frames:
            h, w = y.shape
            noisy = y + rng.normal(0.0, 6.0, y.shape)
            ys, xs = slice(h // 4, h // 2), slice(w // 3, 2 * w // 3)
            patch = noisy[ys, xs]
            blurred = patch.copy()
            for axis in (0, 1):
                blurred = (np.roll(blurred, 1, axis) + 2.0 * blurred
                           + np.roll(blurred, -1, axis)) / 4.0
            noisy[ys, xs] = blurred
            out[view].append((noisy, u, v))
    return out


def _to_u8(plane: np.ndarray) -> bytes:
    return np.clip(np.floor(plane + 0.5), 0, 255).astype(np.uint8).tobytes()


def _subsample(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    p = plane[: h // 2 * 2, : w // 2 * 2]
    return 0.25 * (p[0::2, 0::2] + p[1::2, 0::2] + p[0::2, 1::2] + p[1::2, 1::2])


def write_sequence(scene: dict, out_dir: str, pix_fmt: str, fps: float = 25.0) -> str:
    """Write both views as raw planar files plus a descriptor; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    height, width = scene["left"][0][0].shape
    for view in ("left", "right"):
        with open(os.path.join(out_dir, f"{view}.raw"), "wb") as fh:
            for y, u, v in scene[view]:
                fh.write(_to_u8(y))
                if pix_fmt == "yuv420p8":
                    fh.write(_to_u8(_subsample(u)))
                    fh.write(_to_u8(_subsample(v)))
                elif pix_fmt != "gray8":
                    raise ValueError(f"unsupported format {pix_fmt}")
    desc = {"left": "left.raw", "right": "right.raw", "width": width,
            "height": height, "fps": fps, "frames": len(scene["left"]),
            "format": pix_fmt}
    path = os.path.join(out_dir, "descriptor.json")
    with open(path, "w") as fh:
        json.dump(desc, fh, indent=2)
        fh.write("\n")
    return path


def write_mos_csv(path: str, items, seed: int, subjects: int = 15) -> None:
    """Synthetic subjective scores: a per-item quality level plus per-subject
    bias and noise, clipped to [0, 100]."""
    rng = np.random.default_rng([seed, 11])
    level = np.linspace(80.0, 30.0, len(items)) + rng.normal(0.0, 3.0, len(items))
    bias = rng.normal(0.0, 4.0, subjects)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "subject_id", "score"])
        for i, item in enumerate(items):
            for j in range(subjects):
                score = np.clip(level[i] + bias[j] + rng.normal(0.0, 6.0), 0.0, 100.0)
                writer.writerow([item, f"s{j:02d}", f"{score:.3f}"])
