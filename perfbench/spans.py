"""Span tracing at the stereoqa module boundaries, from outside the package.

``install`` replaces every public stereoqa function, wherever a module holds
a reference to it (its own module, every module that imported it, the
package namespace and the FR/NR metric registries), and every public method
of the package's classes, with a wrapper that records a span: name, start,
end, parent and thread.  Parents are tracked per thread; a span opened on a
thread with no open span (the CLI's disparity thread pool) takes the main
thread's innermost open span as its parent.

``summarize`` turns the spans into per-layer figures.  Wall time is
attributed to the innermost open span: while pool threads run, the main
thread only waits, so each instant goes in equal shares to the pool threads'
innermost spans.  The per-layer self times then add up to the traced wall
time covered by spans; a layer's inclusive time is the time under its
outermost spans, callees included.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import threading
import time
import types

import numpy as np

LAYERS = ("cli", "media", "distort", "rng", "disparity", "saliency", "kernels",
          "fr", "nr", "report", "stats")

_DCT_NAMES = {"dct2", "idct2", "dct2_stack", "idct2_stack", "dct3_stereo",
              "idct3_stereo", "dct3_stereo_stack"}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(memoryview(np.ascontiguousarray(a)).cast("B"))
    return h.hexdigest()


def _seq_key(seq) -> str:
    return _digest(p for fr in seq.frames for p in (fr.left.luma, fr.right.luma))


def _convolve_info(args, kwargs):
    image = np.asarray(_arg(args, kwargs, 0, "image"))
    taps = _arg(args, kwargs, 1, "kernel").taps
    h, w = image.shape
    kh, kw = taps.shape
    return {"gmac": kh * kw * h * w / 1e9,
            # computed, not measured: image read, output written, taps read
            "bytes": (2 * h * w + kh * kw) * 8}


def _sad_candidates(h: int, w: int, block: int, search_range: int) -> int:
    """Block-matching SAD evaluations: sum over blocks of min(R, x0) + 1,
    on the same anchor grid as ``estimate_disparity``."""
    ys = {min(y0, h - block) for y0 in range(0, h, block)}
    xs = {min(x0, w - block) for x0 in range(0, w, block)}
    return len(ys) * sum(min(search_range, x0) + 1 for x0 in xs)


def _disparity_info(args, kwargs):
    pair = _arg(args, kwargs, 0, "pair")
    cfg = _arg(args, kwargs, 1, "cfg")
    block = cfg.block if cfg is not None else 8
    search_range = cfg.search_range if cfg is not None else 32
    h, w = pair.left.luma.shape
    return {"key": _digest((pair.left.luma, pair.right.luma)),
            "sad": _sad_candidates(h, w, block, search_range)}


def _vam_info(args, kwargs):
    seq = _arg(args, kwargs, 0, "seq")
    return {"key": _seq_key(seq), "frames": len(seq)}


def _frames_info(args, kwargs):
    return {"frames": len(args[0])}


def _file_bytes(paths) -> int:
    """Bytes on disk; a missing file counts 0 and is left for the program to
    report."""
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _map_paths(dir_path, count):
    return [os.path.join(dir_path, f"{i:06d}.pgm") for i in range(count)]


def _load_sequence_info(args, kwargs):
    desc = _arg(args, kwargs, 0, "desc")
    return {"read_bytes": _file_bytes((desc.left, desc.right))}


def _load_maps_info(args, kwargs):
    dir_path = _arg(args, kwargs, 0, "dir_path")
    count = _arg(args, kwargs, 1, "expected")["count"]
    return {"read_bytes": _file_bytes(_map_paths(dir_path, count))}


def _save_sequence_post(args, kwargs, result):
    return {"write_bytes": _file_bytes((result.left, result.right))}


def _save_maps_post(args, kwargs, result):
    maps = _arg(args, kwargs, 0, "maps")
    dir_path = _arg(args, kwargs, 1, "dir_path")
    count = len(maps) if hasattr(maps, "__len__") else 0
    return {"write_bytes": _file_bytes(_map_paths(dir_path, count))}


def _distort_name(args, kwargs):
    return f"distort.apply.{_arg(args, kwargs, 1, 'spec').kind}"


class Tracer:
    """Collects spans as mutable records: [name, start, end, parent, thread,
    failed, info].  ``parent`` is the parent record itself, not an index, so
    threads can append without a lock."""

    def __init__(self):
        self.records = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._wrappers = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, info=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        rec = [name, time.perf_counter(), None, parent, threading.get_ident(),
               False, info]
        self.records.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec, failed=False):
        rec[2] = time.perf_counter()
        rec[5] = failed
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        else:
            stack.remove(rec)

    def wrap(self, fn, name, namer=None, pre=None, post=None):
        """One wrapper per original function, so every reference to it
        (module globals, registries) shares the same span name."""
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self

        def wrapper(*args, **kwargs):
            info = pre(args, kwargs) if pre else None
            rec = tracer.open(namer(args, kwargs) if namer else name, info)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(rec, failed=True)
                raise
            tracer.close(rec)
            if post:
                extra = post(args, kwargs, result)
                rec[6] = {**(info or {}), **extra}
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        self._wrappers[fn] = wrapper
        return wrapper


def _hooks(layer: str, fn_name: str) -> dict:
    """Span name and counters for the functions the metrics single out."""
    qualname = f"{layer}.{fn_name}"
    if qualname == "kernels.convolve2d":
        return {"pre": _convolve_info}
    if layer == "kernels" and fn_name in _DCT_NAMES:
        return {"name": "kernels.dct"}
    if qualname == "disparity.estimate_disparity":
        return {"name": "disparity.estimate", "pre": _disparity_info}
    if qualname == "saliency.baseline_vam":
        return {"pre": _vam_info}
    if qualname == "distort.apply":
        return {"namer": _distort_name}
    if qualname == "media.load_sequence":
        return {"pre": _load_sequence_info}
    if qualname == "media.load_map_series":
        return {"pre": _load_maps_info}
    if qualname == "media.save_sequence":
        return {"post": _save_sequence_post}
    if qualname == "media.save_map_series":
        return {"post": _save_maps_post}
    return {}


def _traceable(value, modules) -> bool:
    return (isinstance(value, types.FunctionType)
            and not value.__name__.startswith("_")
            and value.__module__ in modules)


def install(tracer: Tracer, package: str = "stereoqa") -> None:
    """Wrap every public stereoqa function and method at module boundaries.

    ``cli.main`` and ``cli.build_parser`` stay unwrapped: the worker opens
    the ``cli.<command>`` span around each call itself, so argument parsing
    counts as that command's self time.
    """
    modules = {f"{package}.{m}": importlib.import_module(f"{package}.{m}")
               for m in LAYERS}
    pkg = importlib.import_module(package)
    cli = modules[f"{package}.cli"]
    skip = {cli.main, cli.build_parser}

    def wrapper_for(fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        hooks = _hooks(layer, fn.__name__)
        return tracer.wrap(fn, hooks.get("name", f"{layer}.{fn.__name__}"),
                           namer=hooks.get("namer"), pre=hooks.get("pre"),
                           post=hooks.get("post"))

    # registries first, so the metric functions' wrappers count frames
    for registry in (modules[f"{package}.fr"].FR_METRICS,
                     modules[f"{package}.nr"].NR_METRICS):
        for key, fn in list(registry.items()):
            registry[key] = tracer.wrap(fn, f"{fn.__module__.rsplit('.', 1)[1]}.{key}",
                                        pre=_frames_info)
    for mod in [*modules.values(), pkg]:
        for attr, value in list(vars(mod).items()):
            if _traceable(value, modules) and value not in skip:
                setattr(mod, attr, wrapper_for(value))
    for modname, mod in modules.items():
        for cls in list(vars(mod).values()):
            if not isinstance(cls, type) or cls.__module__ != modname:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, (classmethod, staticmethod)):
                    fn = value.__func__
                    if _traceable(fn, modules):
                        setattr(cls, attr, type(value)(wrapper_for(fn)))
                elif _traceable(value, modules):
                    setattr(cls, attr, wrapper_for(value))


def _leaf_segments(records):
    """(start, end, record index) intervals during which each record is the
    innermost open span of its thread.  Records must be one thread's spans."""
    events = []
    for i, (_, start, end, *_rest) in records:
        if end > start:
            events.append((start, 1, -end, i))
            events.append((end, 0, -start, i))
    events.sort()
    segments, stack, prev = [], [], None
    for t, kind, _, i in events:
        if stack and t > prev:
            segments.append((prev, t, stack[-1]))
        if kind == 1:
            stack.append(i)
        else:
            stack.remove(i)
        prev = t
    return segments


def attribute(records, main_thread: int) -> list[float]:
    """Wall seconds attributed to each record as its self time."""
    by_thread = {}
    for i, rec in enumerate(records):
        by_thread.setdefault(rec[4], []).append((i, rec))
    segs = {tid: _leaf_segments(recs) for tid, recs in by_thread.items()}
    bounds = sorted({t for ss in segs.values() for s in ss for t in s[:2]})
    pos = {tid: 0 for tid in segs}
    self_s = [0.0] * len(records)
    for t0, t1 in zip(bounds, bounds[1:]):
        active_main, active_pool = None, []
        for tid, ss in segs.items():
            k = pos[tid]
            while k < len(ss) and ss[k][1] <= t0:
                k += 1
            pos[tid] = k
            if k < len(ss) and ss[k][0] <= t0:
                if tid == main_thread:
                    active_main = ss[k][2]
                else:
                    active_pool.append(ss[k][2])
        dt = t1 - t0
        if active_pool:
            for i in active_pool:
                self_s[i] += dt / len(active_pool)
        elif active_main is not None:
            self_s[active_main] += dt
    return self_s


def summarize(records, main_thread: int, batch_wall_s: float,
              fr_names, nr_names, commands) -> dict:
    """Per-layer metrics from one traced batch (see BENCHMARK.json)."""
    self_s = attribute(records, main_thread)
    index = {id(rec): i for i, rec in enumerate(records)}
    inclusive = list(self_s)
    for i in range(len(records) - 1, -1, -1):
        parent = records[i][3]
        if parent is not None:
            inclusive[index[id(parent)]] += inclusive[i]

    calls, self_by_name, incl_by_name, info = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_incl = dict.fromkeys(LAYERS, 0.0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    for i, (name, _s, _e, parent, _t, failed, extra) in enumerate(records):
        layer = name.split(".", 1)[0]
        while parent is not None and not parent[0].startswith(layer + "."):
            parent = parent[3]
        if parent is None:  # outermost span of its layer
            layer_incl[layer] += inclusive[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s[i]
        incl_by_name[name] = incl_by_name.get(name, 0.0) + inclusive[i]
        layer_self[layer] += self_s[i]
        layer_errors[layer] += int(failed)
        if extra:
            bucket = info.setdefault(name, {"keys": set()})
            for k, v in extra.items():
                if k == "key":
                    bucket["keys"].add(v)
                else:
                    bucket[k] = bucket.get(k, 0) + v

    def count(name):
        return calls.get(name, 0)

    def total(name, key):
        return info.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    vam, est, conv = "saliency.baseline_vam", "disparity.estimate", "kernels.convolve2d"
    m[f"{vam}.calls"] = (count(vam), "count")
    m["saliency.vam_ms_per_frame"] = (
        1000.0 * ratio(incl_by_name.get(vam, 0.0), total(vam, "frames")), "ms")
    m["saliency.distinct_ratio"] = (
        ratio(len(info.get(vam, {}).get("keys", ())), count(vam)), "ratio")
    m["disparity.estimate.calls"] = (count(est), "count")
    m["disparity.ms_per_frame"] = (
        1000.0 * ratio(incl_by_name.get(est, 0.0), count(est)), "ms")
    m["disparity.distinct_ratio"] = (
        ratio(len(info.get(est, {}).get("keys", ())), count(est)), "ratio")
    m["disparity.sad_candidates"] = (total(est, "sad"), "count")
    gmac = total(conv, "gmac")
    m[f"{conv}.calls"] = (count(conv), "count")
    m[f"{conv}.self_s"] = (self_by_name.get(conv, 0.0), "s")
    m[f"{conv}.gmac"] = (gmac, "GMAC")
    m[f"{conv}.gmac_per_s"] = (ratio(gmac, self_by_name.get(conv, 0.0)), "GMAC/s")
    m[f"{conv}.mb_moved"] = (total(conv, "bytes") / 1e6, "MB-computed")
    for name in ("kernels.downsample2", "kernels.sobel_gradient", "kernels.dct"):
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_s"] = (self_by_name.get(name, 0.0), "s")
    for layer, names in (("fr", fr_names), ("nr", nr_names)):
        for metric in names:
            name = f"{layer}.{metric}"
            m[f"{name}.ms_per_frame"] = (
                1000.0 * ratio(self_by_name.get(name, 0.0), total(name, "frames")), "ms")
    for fn in ("load_sequence", "load_map_series", "save_sequence", "save_map_series"):
        name = f"media.{fn}"
        m[f"{name}.calls"] = (count(name), "count")
        m[f"{name}.self_s"] = (self_by_name.get(name, 0.0), "s")
    m["media.read_mb"] = (sum(total(f"media.{fn}", "read_bytes")
                              for fn in ("load_sequence", "load_map_series")) / 1e6,
                          "MB-computed")
    m["media.write_mb"] = (sum(total(f"media.{fn}", "write_bytes")
                               for fn in ("save_sequence", "save_map_series")) / 1e6,
                           "MB-computed")
    for kind in ("awgn", "gaussian_blur", "block_quantize"):
        name = f"distort.apply.{kind}"
        m[f"{name}.self_s"] = (self_by_name.get(name, 0.0), "s")
    m["rng.normals.calls"] = (count("rng.normals"), "count")
    m["rng.normals.self_s"] = (self_by_name.get("rng.normals", 0.0), "s")
    m["report.save_json.self_s"] = (self_by_name.get("report.save_json", 0.0), "s")
    for fn in ("screen_and_mos", "performance"):
        m[f"stats.{fn}.self_s"] = (self_by_name.get(f"stats.{fn}", 0.0), "s")
    for command in commands:
        m[f"cli.{command}.self_s"] = (self_by_name.get(f"cli.{command}", 0.0), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m[f"{layer}.incl_s"] = (layer_incl[layer], "s")
        m[f"{layer}.errors"] = (layer_errors[layer], "count")
    m["trace.batch_wall_s"] = (batch_wall_s, "s")
    m["trace.unattributed_s"] = (batch_wall_s - sum(layer_self.values()), "s")
    return m
