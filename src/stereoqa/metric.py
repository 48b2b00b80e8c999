"""The one driver behind every full- and no-reference metric.

A metric is a registered formula; it states its orientation, the disparity
slots it needs and what one call scores (``over``).  The driver owns the
default config, validation, the frame and view loops, the saliency mode,
flags and the report.

- ``"view"``: ``formula(x, y, s, cfg)`` (FR) or ``formula(luma, s, cfg)``
  (NR) scores one view; the frame score is ``view_mean`` of it.
- ``"frame"``: ``formula(c, cfg)`` scores one stereo frame from its context:
  ``ref``/``dist`` (StereoFrame; ``ref`` is None for NR), ``s``, ``d_ref``,
  ``d_dist`` and the ``flags`` list that every context shares.
- ``"sequence"``: ``formula(frames, cfg)`` gets the list of contexts and
  returns the scores of the last frames; the frame CSV numbers them so.

``s`` is a float64 weight array for FR and NR alike, all ones without
saliency.  Disparity maps arrive as float64 arrays.  The driver checks every
map series once (count, ``SaliencyMap``/``DisparityMap`` elements, frame
shape) and rejects an all-zero saliency map, so formulas never re-check them.

``view_mean`` owns the view rule, frame score = ``0.5 * (left + right)``;
``"frame"`` and ``"sequence"`` formulas that score views call it too.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .disparity import DisparityMap
from .errors import DegenerateSaliency, DimensionMismatch, DisparityRequired, \
    SequenceLengthError, numeric_errors
from .media import _maps
from .report import make_report
from .saliency import SaliencyMap


def view_mean(f, *frames) -> float:
    """``0.5 * (f(*left lumas) + f(*right lumas))`` of the stereo frames
    ``frames``, left view first."""
    return 0.5 * (f(*(q.left.luma for q in frames)) + f(*(q.right.luma for q in frames)))


def _power(base: float, cfg, field: str) -> float:
    """``base ** cfg.<field>`` as a numpy float, so that a power outside the
    float range raises NumericError naming the field and its value."""
    exponent = getattr(cfg, field)
    with numeric_errors(f"{field} {exponent}"):
        return np.float64(base) ** exponent


def _run(formula, orientation, needs, over, ref, dist, s_series, maps, cfg):
    if ref is not None:
        if len(ref) != len(dist):
            raise SequenceLengthError(f"{len(ref)} vs {len(dist)} frames")
        if (ref.height, ref.width) != (dist.height, dist.width):
            raise DimensionMismatch("reference and distorted dimensions differ")
    n = len(dist)
    shape = (dist.height, dist.width)
    if s_series is None:
        ones = np.ones(shape)
        ones.flags.writeable = False  # as a map's values; a saliency pyramid keeps it
        s = [ones] * n
    else:
        s = _maps(s_series, SaliencyMap, n, shape, "s_series")
        for t, values in enumerate(s):
            if not values.any():
                raise DegenerateSaliency(f"saliency map of frame {t} is all zero")
    d = {slot: [None] * n for slot in maps}
    for slot in needs:
        if maps[slot] is None:
            raise DisparityRequired(f"this metric needs disparity maps ({slot})")
        d[slot] = _maps(maps[slot], DisparityMap, n, shape, slot)
    flags = []
    refs = [None] * n if ref is None else ref.frames
    frames = [SimpleNamespace(ref=r, dist=q, s=w, d_ref=dr, d_dist=dd, flags=flags)
              for r, q, w, dr, dd in zip(refs, dist.frames, s, d["d_ref"], d["d_dist"])]
    with numeric_errors(formula.__name__):
        if over == "sequence":
            scores = formula(frames, cfg)
        elif over == "frame":
            scores = [formula(c, cfg) for c in frames]
        else:
            scores = [view_mean(lambda *lumas: formula(*lumas, c.s, cfg),
                                *([c.dist] if c.ref is None else [c.ref, c.dist]))
                      for c in frames]
        mode = "none" if s_series is None else s_series[0].source
        return make_report(formula.__name__, scores, orientation, mode, cfg,
                           list(dict.fromkeys(flags)), first_frame=n - len(scores))


def registrar(registry: dict, needs_table: dict, config_cls, reference: bool):
    """Decorator ``(orientation, needs=(), over="view")`` that wraps a formula
    into a metric and registers it under the formula's name; metrics that
    need disparity also enter ``needs_table``."""

    def decorator(orientation: str, needs=(), over: str = "view"):
        def register(formula):
            spec = (formula, orientation, needs, over)
            if reference:
                def metric(ref, dist, *, d_ref=None, d_dist=None, s_series=None, cfg=None):
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
