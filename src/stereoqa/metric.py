"""The one driver behind every full- and no-reference metric.

A metric is a registered formula; it states its orientation, the disparity
slots it needs and what one call scores (``over``).  The driver owns the
default config, validation, the frame and view loops, the saliency mode,
flags and the report.

- ``"view"``: ``formula(x, y, s, cfg)`` (FR) or ``formula(luma, s, cfg)``
  (NR) scores one view; the frame score is ``0.5 * (left + right)``.
- ``"frame"``: ``formula(c, cfg)`` scores one stereo frame from a context
  with ``ref``/``dist`` (StereoFrame; ``ref`` is None for NR), ``s``,
  ``d_ref``, ``d_dist`` and the report's ``flags`` list.
- ``"sequence"``: ``formula(c, cfg)`` gets that context with whole
  sequences and per-frame lists and returns the frame scores.

``s`` is a float64 weight array for FR and NR alike, all ones without
saliency.  Disparity maps arrive as float arrays.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .disparity import DisparityMap
from .errors import DimensionMismatch, DisparityRequired, ParamError, SequenceLengthError
from .report import make_report
from .saliency import SaliencyMap

VIEWS = ("left", "right")


def _saliency(s_series, n: int, shape) -> list:
    if s_series is None:
        return [np.ones(shape)] * n
    if len(s_series) != n:
        raise SequenceLengthError("saliency series length does not match frames")
    for s in s_series:
        if not isinstance(s, SaliencyMap):
            raise ParamError(f"s_series must hold SaliencyMap, not {type(s).__name__}")
        if s.shape != shape:
            raise DimensionMismatch("saliency shape does not match frame")
    return [s.values for s in s_series]


def _disparity(series, slot: str, n: int) -> list:
    if series is None:
        raise DisparityRequired(f"this metric needs disparity maps ({slot})")
    if len(series) != n:
        raise SequenceLengthError(f"{slot} series length does not match frames")
    return [d.values if isinstance(d, DisparityMap) else np.asarray(d, dtype=np.float64)
            for d in series]


def _run(formula, orientation, needs, over, ref, dist, s_series, maps, cfg):
    if ref is not None:
        if len(ref) != len(dist):
            raise SequenceLengthError(f"{len(ref)} vs {len(dist)} frames")
        if (ref.height, ref.width) != (dist.height, dist.width):
            raise DimensionMismatch("reference and distorted dimensions differ")
    n = len(dist)
    s = _saliency(s_series, n, (dist.height, dist.width))
    d = {slot: _disparity(maps[slot], slot, n) if slot in needs else [None] * n
         for slot in maps}
    flags = []
    if over == "sequence":
        scores = formula(SimpleNamespace(ref=ref, dist=dist, s=s, flags=flags, **d), cfg)
    elif over == "frame":
        scores = [formula(SimpleNamespace(
            ref=None if ref is None else ref.frames[t], dist=dist.frames[t], s=s[t],
            flags=flags, d_ref=d["d_ref"][t], d_dist=d["d_dist"][t]), cfg)
            for t in range(n)]
    else:
        seqs = (dist,) if ref is None else (ref, dist)
        scores = []
        for t in range(n):
            vals = [formula(*(getattr(q.frames[t], view).luma for q in seqs), s[t], cfg)
                    for view in VIEWS]
            scores.append(0.5 * (vals[0] + vals[1]))
    mode = "none" if s_series is None else s_series[0].source
    return make_report(formula.__name__, scores, orientation, mode, cfg,
                       list(dict.fromkeys(flags)))


def registrar(registry: dict, needs_table: dict, config_cls, reference: bool):
    """Decorator ``(orientation, needs=(), over="view")`` that wraps a formula
    into a metric and registers it under the formula's name; metrics that
    need disparity also enter ``needs_table``."""

    def decorator(orientation: str, needs=(), over: str = "view"):
        def register(formula):
            spec = (formula, orientation, needs, over)
            if reference:
                def metric(ref, dist, *, d_ref=None, d_dist=None, s_series=None,
                           cfg=None):
                    maps = {"d_ref": d_ref, "d_dist": d_dist}
                    return _run(*spec, ref, dist, s_series, maps, cfg or config_cls())
            else:
                def metric(dist, *, d_dist=None, s_series=None, cfg=None):
                    maps = {"d_ref": None, "d_dist": d_dist}
                    return _run(*spec, None, dist, s_series, maps, cfg or config_cls())

            functools.update_wrapper(metric, formula)
            del metric.__wrapped__  # help() shows the metric's own signature
            registry[formula.__name__] = metric
            if needs:
                needs_table[formula.__name__] = tuple(needs)
            return metric

        return register

    return decorator
