"""Raw planar video and PGM map I/O.

Frames are held as float64 arrays with luma in [0, 255]; grayscale maps
(saliency, disparity) travel as PGM series scaled to [0, 1].  All formats
are uncompressed so loading is bit-exact and needs no external decoders.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DescriptorMismatch,
    DimensionMismatch,
    EmptySequence,
    IoError,
    MalformedJson,
    MapSeriesGap,
    MapShapeError,
    NumericError,
    ParamError,
    RangeError,
    SequenceLengthError,
    prefixed_errors,
)

PIXEL_FORMATS = ("yuv420p8", "yuv444p8", "gray8")


def _finite(text: str, kind=float):
    if not abs(value := kind(text)) <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{text[:24]} is not a finite number")
    return value


def read_json(path: str):
    """Parsed JSON file; a missing file is IoError, bad JSON or a number
    outside the float range (NaN and Infinity too) MalformedJson."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite,
                             parse_int=lambda text: _finite(text, int))
    except FileNotFoundError as exc:
        raise IoError(f"file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedJson(f"{path}: not valid JSON ({exc})") from exc


def write_json(path: str, value) -> None:
    """Write ``value`` to ``path`` as strict JSON, indented by 2, plus one newline; a
    NaN or infinity raises NumericError, naming ``path``, before the file is opened."""
    try:
        text = json.dumps(value, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


# the JSON values that fill a dataclass field, by its annotation
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
               "tuple": list, "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fills a field annotated ``annotation`` ("float",
    "tuple | None", ...); a bool is no number, and a tuple is an array of
    numbers or of arrays of numbers."""
    kinds = tuple(_JSON_TYPES[a] for a in annotation.split(" | "))
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    return not isinstance(value, list) or all(
        _fits(v, "float") or isinstance(v, list) and all(_fits(u, "float") for u in v)
        for v in value)


def decode(cls, data, where: str):
    """The dataclass ``cls`` built from the JSON value ``data``, arrays as
    tuples.  MalformedJson, naming ``where``, unless ``data`` is an object
    that holds every field without a default, no other key, and values that
    fit their fields' annotated types (``_fits``).  An error the dataclass
    raises on its values keeps its class and gains the ``where`` prefix."""
    if not isinstance(data, dict):
        raise MalformedJson(f"{where}: expected a JSON object, not {data!r:.40}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, f in fields.items():
        if name not in data and f.default is f.default_factory is dataclasses.MISSING:
            raise MalformedJson(f"{where}: missing field {name!r}")
    for name, value in data.items():
        if name not in fields:
            raise MalformedJson(f"{where}: unknown field {name!r}")
        if not _fits(value, fields[name].type):
            raise MalformedJson(f"{where}: {name} must be {fields[name].type}, not {value!r:.40}")
    with prefixed_errors(where):
        return cls(**{name: tuple(tuple(v) if isinstance(v, list) else v for v in value)
                      if isinstance(value, list) else value for name, value in data.items()})


def _check_numbers(name: str, value, shape) -> None:
    """ParamError unless ``value`` is an array of numbers of ``shape``."""
    try:
        if np.asarray(value, dtype=np.float64).shape == shape:
            return
    except (TypeError, ValueError):
        pass
    raise ParamError(f"{name} must be numbers of shape {shape}")


def _check_int(name: str, value, minimum: int) -> None:
    """ParamError unless ``value`` is an integer, not a bool, >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ParamError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_range(name: str, a: np.ndarray, lo: float = -np.inf, hi: float = np.inf) -> None:
    """RangeError, naming ``name``, unless ``a`` has values and every one is
    finite and in [lo, hi]; one min and one max decide, and a NaN fails both."""
    if not (a.size and max(lo, -sys.float_info.max) <= a.min()
            and a.max() <= min(hi, sys.float_info.max)):
        raise RangeError(f"{name} needs finite values in [{lo:g}, {hi:g}]")


@dataclass
class Frame:
    """Single-view frame: luma always, 8-bit-range chroma optional."""

    luma: np.ndarray
    chroma_u: np.ndarray | None = None
    chroma_v: np.ndarray | None = None

    def __post_init__(self):
        self.luma = np.asarray(self.luma, dtype=np.float64)
        if self.luma.ndim != 2:
            raise DimensionMismatch("luma must be a 2-D array")
        h, w = self.luma.shape
        if h < 8 or w < 8:
            raise DimensionMismatch(f"frame too small: {w}x{h} (minimum 8x8)")
        _check_range("luma", self.luma, 0.0, 255.0)
        for name in ("chroma_u", "chroma_v"):
            c = getattr(self, name)
            if c is not None:
                c = np.asarray(c, dtype=np.float64)
                _check_range(name, c, 0.0, 255.0)
                setattr(self, name, c)

    @property
    def height(self) -> int:
        return self.luma.shape[0]

    @property
    def width(self) -> int:
        return self.luma.shape[1]


@dataclass
class StereoFrame:
    left: Frame
    right: Frame

    def __post_init__(self):
        if self.left.luma.shape != self.right.luma.shape:
            raise DimensionMismatch("left/right dimensions differ")


def _check_fps(fps: float) -> None:
    if not 0 < fps <= sys.float_info.max:  # NaN fails too
        raise RangeError(f"fps must be finite and > 0, got {fps!r}")


@dataclass
class StereoSequence:
    frames: list[StereoFrame]
    fps: float = 30.0

    def __post_init__(self):
        if not self.frames:
            raise EmptySequence("sequence has no frames")
        _check_fps(self.fps)
        shape = self.frames[0].left.luma.shape
        if any(fr.left.luma.shape != shape for fr in self.frames):
            raise DimensionMismatch("all frames must share dimensions")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self.frames[0].left.height

    @property
    def width(self) -> int:
        return self.frames[0].left.width


@dataclass
class SequenceDescriptor:
    """Pointer to a pair of raw planar streams plus their geometry."""

    left: str
    right: str
    width: int
    height: int
    fps: float
    frames: int
    format: str = "gray8"

    def __post_init__(self):
        if self.format not in PIXEL_FORMATS:
            raise DescriptorMismatch(f"unknown pixel format {self.format!r}")
        for name in ("width", "height", "frames"):
            _check_int(name, getattr(self, name), 1)
        _check_fps(self.fps)

    def frame_bytes(self) -> int:
        return sum(h * w for h, w in _planes(self))

    @classmethod
    def from_json(cls, path: str) -> "SequenceDescriptor":
        """The descriptor at ``path``; stream paths are relative to its directory."""
        desc = decode(cls, read_json(path), path)
        base = os.path.dirname(os.path.abspath(path))
        desc.left, desc.right = os.path.join(base, desc.left), os.path.join(base, desc.right)
        return desc

    def to_json(self, path: str) -> None:
        """Write to ``path``, stream paths relative to its directory (as ``from_json``)."""
        base = os.path.dirname(os.path.abspath(path))
        write_json(path, dataclasses.asdict(self) | {
            view: os.path.relpath(getattr(self, view), base) for view in ("left", "right")})


def _planes(desc: SequenceDescriptor) -> list[tuple[int, int]]:
    """(height, width) of each plane of one frame, in file order: luma, then
    the u and v chroma planes of the yuv formats."""
    luma = (desc.height, desc.width)
    if desc.format == "gray8":
        return [luma]
    chroma = (desc.height // 2, desc.width // 2) if desc.format == "yuv420p8" else luma
    return [luma, chroma, chroma]


def _read_view(path: str, desc: SequenceDescriptor) -> bytes:
    if not os.path.exists(path):
        raise IoError(f"missing raw stream: {path}")
    size = os.path.getsize(path)
    expected = desc.frames * desc.frame_bytes()
    if size != expected:
        raise DescriptorMismatch(
            f"{path}: {size} bytes on disk, descriptor implies {expected}"
        )
    with open(path, "rb") as fh:
        return fh.read()


def _split_frame(buf: bytes, offset: int, desc: SequenceDescriptor) -> Frame:
    planes = []
    for h, w in _planes(desc):
        plane = np.frombuffer(buf, np.uint8, h * w, offset).reshape(h, w)
        planes.append(plane.astype(np.float64))
        offset += h * w
    return Frame(*planes)


def load_sequence(desc: SequenceDescriptor) -> StereoSequence:
    """Load a stereo pair of raw planar streams described by ``desc``."""
    left_buf = _read_view(desc.left, desc)
    right_buf = _read_view(desc.right, desc)
    step = desc.frame_bytes()
    return StereoSequence([StereoFrame(_split_frame(left_buf, i * step, desc),
                                       _split_frame(right_buf, i * step, desc))
                           for i in range(desc.frames)], fps=desc.fps)


def _samples8(plane: np.ndarray) -> np.ndarray:
    """The 8-bit samples stored for ``plane`` in streams and PGM maps:
    clipped to [0, 255] and rounded half up."""
    return np.floor(np.clip(plane, 0.0, 255.0) + 0.5).astype(np.uint8)


def _frame_planes(frame: Frame, desc: SequenceDescriptor) -> list[np.ndarray]:
    """The planes ``desc`` stores of ``frame``; missing chroma is a flat 128."""
    planes = []
    for plane, shape in zip((frame.luma, frame.chroma_u, frame.chroma_v), _planes(desc)):
        plane = np.full(shape, 128.0) if plane is None else plane
        if plane.shape != shape:
            raise DimensionMismatch(f"{desc.format} plane {plane.shape} does not match {shape}")
        planes.append(plane)
    return planes


def save_sequence(seq: StereoSequence, left_path: str, right_path: str,
                  format: str = "gray8") -> SequenceDescriptor:
    """Write both views as raw planar streams and return their descriptor."""
    desc = SequenceDescriptor(left=left_path, right=right_path,
                              width=seq.width, height=seq.height, fps=seq.fps,
                              frames=len(seq), format=format)
    # every plane is checked before the first byte is written
    views = [(path, [p for fr in seq.frames for p in _frame_planes(getattr(fr, view), desc)])
             for view, path in (("left", left_path), ("right", right_path))]
    for path, planes in views:
        with open(path, "wb") as fh:
            for plane in planes:
                fh.write(_samples8(plane).tobytes())
    return desc


_PGM_TOKEN = re.compile(rb"^\s*(?:#[^\n]*\n\s*)*(\S+)")


def _pgm_tokens(buf: bytes, n: int) -> tuple[list[bytes], int]:
    tokens, pos = [], 0
    for _ in range(n):
        m = _PGM_TOKEN.match(buf[pos:])
        if not m:
            raise IoError("truncated PGM header")
        tokens.append(m.group(1))
        pos += m.end(1)
    return tokens, pos


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM, returning values scaled to [0, 1]."""
    if not os.path.exists(path):
        raise IoError(f"missing PGM: {path}")
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens, pos = _pgm_tokens(buf, 4)
    if tokens[0] != b"P5":
        raise IoError(f"{path}: not a binary PGM (P5)")
    if not all(t.isdigit() and len(t) < 10 for t in tokens[1:]):
        raise IoError(f"{path}: PGM header fields must be decimal integers below 10**9")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise IoError(f"{path}: PGM size {width}x{height} or maxval {maxval} out of range")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    if len(buf) - pos < width * height * dtype.itemsize:
        raise IoError(f"{path}: truncated PGM payload")
    data = np.frombuffer(buf, dtype, width * height, pos)
    if data.max() > maxval:
        raise IoError(f"{path}: PGM sample above maxval {maxval}")
    return data.reshape(height, width).astype(np.float64) / maxval


def save_frame_pgm(values: np.ndarray, path: str) -> None:
    """Write a [0, 1] map as an 8-bit binary PGM (round, ties up)."""
    values = np.asarray(values, dtype=np.float64)
    _check_range("map", values, 0.0, 1.0)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(_samples8(values * 255.0).tobytes())


def map_name(index: int) -> str:
    return f"{index:06d}.pgm"


def load_map_series(dir_path: str, expected: dict) -> list[np.ndarray]:
    """Load ``expected['count']`` maps named 000000.pgm... from a directory."""
    width, height, count = expected["width"], expected["height"], expected["count"]
    maps = []
    for i in range(count):
        path = os.path.join(dir_path, map_name(i))
        if not os.path.exists(path):
            raise MapSeriesGap(f"missing map index {i} in {dir_path}")
        m = read_pgm(path)
        if m.shape != (height, width):
            raise MapShapeError(
                f"{path}: {m.shape[1]}x{m.shape[0]}, expected {width}x{height}"
            )
        maps.append(m)
    return maps


def _maps(series, kind, n: int, shape, name: str) -> list:
    """Float64 values of a per-frame map series, checked once for its count,
    element type and frame shape."""
    if len(series) != n:
        raise SequenceLengthError(f"{name} length does not match frames")
    for m in series:
        if not isinstance(m, kind):
            raise ParamError(f"{name} must hold {kind.__name__}, not {type(m).__name__}")
        if m.shape != shape:
            raise DimensionMismatch(f"{name} map shape {m.shape} does not match frame {shape}")
    return [m.values for m in series]


def save_map_series(maps, dir_path: str) -> list[str]:
    """Write maps as 000000.pgm... in ``dir_path``; returns the paths written."""
    os.makedirs(dir_path, exist_ok=True)
    paths = []
    for i, m in enumerate(maps):
        paths.append(os.path.join(dir_path, map_name(i)))
        save_frame_pgm(m, paths[-1])
    return paths
