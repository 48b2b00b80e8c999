"""The one driver behind every full- and no-reference metric.

A metric is a registered formula; it states its orientation, the disparity
slots it needs, what one call scores (``over``) and the earlier frames it
needs (``history``).  The driver owns the default config, validation, the
frame and view loops, the saliency mode, flags and the report.

- ``"view"``: ``formula(x, y, c, cfg)`` (FR) or ``formula(luma, c, cfg)``
  (NR) scores one view's lumas; the frame score is ``view_mean`` of it.
- ``"frame"``: ``formula(c, cfg)`` scores one stereo frame.  Both read the
  frame's context ``c``: ``ref``/``dist`` (StereoFrame; ``ref`` is None for
  NR), ``s``, ``d_ref``, ``d_dist`` and the ``flags`` list that every
  context shares.
- ``"sequence"``: ``formula(frames, cfg)`` gets an iterator over the
  contexts and returns the scores of the last frames; the frame CSV numbers
  them so.  ``history`` declares how many earlier frames a temporal formula
  needs before it scores one (an int, or a function of the config), and the
  driver raises NeedsTemporalContext on a sequence shorter than that plus
  one frame before any map is taken.

The driver goes through the frames once.  It makes each frame's context,
and takes that frame's maps from their series, when the frame is reached,
and drops the context's contents once the next one is asked for; so a
``"sequence"`` formula keeps what it needs of a frame (``flosim3d_s`` the
StereoFrames), never the context.  A map series is any iterable in frame
order, such as the lazy series of ``iter_baseline_vam``,
``iter_disparity_series`` or ``media.iter_map_series``, or a list.

``s`` is a float64 weight array for FR and NR alike.  Without saliency the
series is one all-ones map of source ``"none"``, repeated, so it goes
through the same checks, and the report's saliency mode is the first map's
source.  Disparity maps arrive as float64 arrays.  The driver checks every
map series as it goes (count, ``SaliencyMap``/``DisparityMap`` elements,
frame shape; ``media._maps``) and rejects an all-zero saliency map, so
formulas never re-check them.

``view_mean`` owns the view rule, frame score = ``0.5 * (left + right)``,
``f`` given one view's Frames; ``oq_s`` and ``flosim3d_s``, whose frame
scores are more than a mean of views, call it too.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace

import numpy as np

from .disparity import DisparityMap
from .errors import DegenerateSaliency, DimensionMismatch, DisparityRequired, \
    NeedsTemporalContext, SequenceLengthError, numeric_errors
from .media import _maps
from .report import make_report
from .saliency import SaliencyMap


def view_mean(f, *frames) -> float:
    """The view rule: ``0.5 * (f(*left views) + f(*right views))``, ``f``
    given one view's Frame of each stereo frame ``frames``; ``f`` reads the
    lumas itself, so it decides how long each float64 plane lives."""
    return 0.5 * (f(*(q.left for q in frames)) + f(*(q.right for q in frames)))


def _power(base: float, cfg, field: str) -> float:
    """``base ** cfg.<field>`` as a numpy float, so that a power outside the
    float range raises NumericError naming the field and its value."""
    exponent = getattr(cfg, field)
    with numeric_errors(f"{field} {exponent}"):
        return np.float64(base) ** exponent


def _run(formula, orientation, needs, over, history, ref, dist, s_series, maps, cfg):
    if ref is not None:
        if len(ref) != len(dist):
            raise SequenceLengthError(f"{len(ref)} vs {len(dist)} frames")
        if (ref.height, ref.width) != (dist.height, dist.width):
            raise DimensionMismatch("reference and distorted dimensions differ")
    n = len(dist)
    shape = (dist.height, dist.width)
    mode = None

    def nonzero(t, m):
        nonlocal mode
        if t == 0:
            mode = m.source
        if not m.values.any():
            raise DegenerateSaliency(f"saliency map of frame {t} is all zero")

    if s_series is None:
        s_series = itertools.repeat(SaliencyMap(np.ones(shape), "none"), n)
    s = _maps(s_series, SaliencyMap, n, shape, "s_series", nonzero)
    d = {slot: itertools.repeat(None) for slot in maps}
    for slot in needs:
        if maps[slot] is None:
            raise DisparityRequired(f"this metric needs disparity maps ({slot})")
        d[slot] = _maps(maps[slot], DisparityMap, n, shape, slot)
    k = history(cfg) if callable(history) else history
    if n < k + 1:
        raise NeedsTemporalContext(f"needs at least {k + 1} frames")
    refs = itertools.repeat(None) if ref is None else iter(ref.frames)
    dists = iter(dist.frames)
    flags = []
    outside = np.geterr()

    def contexts():
        for _ in range(n):
            with np.errstate(**outside):  # maps are made outside the formula's numeric_errors
                c = SimpleNamespace(ref=next(refs), dist=next(dists), s=next(s),
                                    d_ref=next(d["d_ref"]), d_dist=next(d["d_dist"]),
                                    flags=flags)
            yield c
            vars(c).clear()  # the frame is scored: its maps go before the next ones come

    with numeric_errors(formula.__name__):
        frames = contexts()
        if over == "sequence":
            scores = formula(frames, cfg)
        elif over == "frame":
            scores = [formula(c, cfg) for c in frames]
        else:
            scores = [view_mean(lambda *views: formula(*(v.luma for v in views), c, cfg),
                                *([c.dist] if c.ref is None else [c.ref, c.dist]))
                      for c in frames]
        return make_report(formula.__name__, scores, orientation, mode, cfg,
                           list(dict.fromkeys(flags)), first_frame=n - len(scores))


def registrar(registry: dict, needs_table: dict, config_cls, reference: bool):
    """Decorator ``(orientation, needs=(), over="view", history=0)`` that
    wraps a formula into a metric and registers it under the formula's name;
    metrics that need disparity also enter ``needs_table``."""

    def decorator(orientation: str, needs=(), over: str = "view", history=0):
        def register(formula):
            spec = (formula, orientation, needs, over, history)
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
