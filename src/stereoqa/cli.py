"""Command-line front end tying the pipeline together.

Exit codes: 0 success, 1 processing error, 2 usage error.  Every subcommand
that writes outputs also writes a JSON run manifest next to the primary
output, last, so the run can be replayed byte for byte; a run that fails
leaves no output (_save_outputs).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import os
import sys

import numpy as np

from . import __version__
from .disparity import DisparityConfig, DisparityMap, iter_disparity_series
from .distort import DistortionSpec, apply
from .errors import DescriptorMismatch, DimensionMismatch, MalformedJson, ParamError, \
    SequenceLengthError, StereoQaError, UndefinedCorrelation, prefixed_errors
from .fr import FR_METRICS, FrMetricConfig
from .media import SequenceDescriptor, StereoSequence, _fits, _Frames, _undone_on_failure, \
    decode, iter_map_series, load_sequence, read_json, save_map_series, save_sequence, \
    write_json
from .nr import NR_METRICS, NrMetricConfig
from .saliency import VamConfig, iter_baseline_vam, iter_external_saliency, uniform_series
from .stats import MosTable, SubjectiveTable, emit_report, performance, \
    screen_and_mos, si_ti


# disparity maps are stored on the unit scale: pgm value * scale = disparity
_DISPARITY_SCALE = DisparityConfig().search_range
# glibc mallopt parameters, and the largest mmap threshold it takes on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 * 2**20
_TRIM_THRESHOLD = 256 * 2**20


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc keep freed heap mapped, so that the frame-sized float64
    temporaries of the next filter or metric reuse pages that are already
    faulted in: arrays below 32 MiB come from the heap, and the heap is
    trimmed only when 256 MiB or more is free at its top.  Runs once per
    process, from main only, so importing stereoqa leaves the host's
    allocator alone; without glibc's mallopt it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _load_config(path, cls):
    return cls() if path is None else decode(cls, read_json(path), path)


@contextlib.contextmanager
def _save_outputs(args: argparse.Namespace, primary: str, dir_path: str = "."):
    """Make ``dir_path`` and its missing parents, and run the block; it lists
    each file it writes in the list it gets, before writing it (or, for a save
    that removes its own files if it fails, once that save returns).  Then
    write ``<primary>.manifest.json``, which names them.  If any step fails,
    every listed file, the manifest and every directory made here are removed
    (``media._undone_on_failure``): a failed run leaves no output."""
    written = []
    with _undone_on_failure(written, dir_path):
        yield written
        outputs = sorted(written)
        written.append(primary + ".manifest.json")
        write_json(written[-1], {  # every key in sorted order
            "command": args.command,
            "options": {k: v for k, v in sorted(vars(args).items())
                        if k not in ("command", "func")},
            "outputs": outputs,
            "tool": "stereoqa",
            "version": __version__,
        })


# Map sources are iterators that make or read a frame's map when it is taken;
# a dir: source looks for every file first.
def _resolve_saliency(mode: str, seq):
    if mode == "none":
        return None
    if mode == "uniform":
        return uniform_series(seq)
    if mode == "baseline":
        return iter_baseline_vam(seq)
    if mode.startswith("dir:"):
        return iter_external_saliency(mode[4:], seq)
    raise StereoQaError(f"unknown saliency source {mode!r}")


def _resolve_disparity(source: str, seq):
    if source.startswith("dir:"):
        expected = {"width": seq.width, "height": seq.height, "count": len(seq)}
        return map(lambda m: DisparityMap(m * _DISPARITY_SCALE),
                   iter_map_series(source[4:], expected))
    if source != "estimate":
        raise StereoQaError(f"unknown disparity source {source!r}")
    return iter_disparity_series(seq)


class _SourceError(Exception):
    """A StereoQaError that no config value causes, carried past the --config
    prefix."""


def _source(maps):
    """A map source for what runs under the config (the metric driver, the
    VAM): each map is made when its frame is reached, and a StereoQaError it
    raises leaves as _SourceError, so never with the config's prefix
    (_config_errors)."""
    try:
        yield from maps
    except StereoQaError as exc:
        raise _SourceError(exc) from None


@contextlib.contextmanager
def _config_errors(path):
    """``prefixed_errors(path)`` for the block, except that a map source's
    error (_SourceError, see _source) and an input's (inputs that disagree, a
    frame too small or cut short), which no config value causes, leave as raised."""
    try:
        with prefixed_errors(path):  # None without --config
            try:
                yield
            except (SequenceLengthError, DimensionMismatch, DescriptorMismatch) as exc:
                raise _SourceError(exc) from None
    except _SourceError as exc:
        raise exc.args[0] from None


_SCORERS = {
    "score-fr": (FR_METRICS, FrMetricConfig),
    "score-nr": (NR_METRICS, NrMetricConfig),
}


def _cmd_score(args) -> int:
    metrics, config_cls = _SCORERS[args.command]
    metric = args.metric
    if metric not in metrics:
        sys.stderr.write(f"unknown metric {metric!r}; available: "
                         f"{', '.join(sorted(metrics))}\n")
        return 2
    if args.command == "score-fr":
        paths = (args.ref, args.dist)
        sources = {"d_ref": args.disparity_ref, "d_dist": args.disparity_dist}
    else:
        paths = (args.dist,)
        sources = {"d_dist": args.disparity}
    seqs = [load_sequence(SequenceDescriptor.from_json(p)) for p in paths]
    cfg = _load_config(args.config, config_cls)
    # saliency comes from the first sequence: the reference for FR
    s_series = _resolve_saliency(args.saliency, seqs[0])
    if s_series is not None:
        s_series = _source(s_series)
    # every map option is checked; the driver starts only the sources the metric reads
    disparity = {slot: _source(_resolve_disparity(source, seqs[0 if slot == "d_ref" else -1]))
                 for slot, source in sources.items()}
    with _config_errors(args.config):
        report = metrics[metric](*seqs, s_series=s_series, cfg=cfg, **disparity)
    with _save_outputs(args, args.out) as written:
        for path, save in ((args.out, report.save_json),
                           (args.frame_csv, report.save_frame_csv)):
            if path:
                written.append(path)
                save(path)
    sys.stderr.write(f"{metric}: {report.score:.6g} ({report.orientation})\n")
    return 0


def _cmd_saliency(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    cfg = _load_config(args.config, VamConfig)
    d_series = None
    if args.disparity != "none":
        d_series = _source(_resolve_disparity(args.disparity, seq))
    with _save_outputs(args, os.path.join(args.out, "saliency"), args.out) as written, \
            _config_errors(args.config):
        written += save_map_series((m.values for m in iter_baseline_vam(seq, d_series, cfg)),
                                   args.out)
    return 0


def _cmd_disparity(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    maps = _resolve_disparity("estimate", seq)
    with _save_outputs(args, os.path.join(args.out, "disparity"), args.out) as written:
        written += save_map_series((m.values / _DISPARITY_SCALE for m in maps), args.out)
    return 0


def _apply_each(seq, specs):
    """``seq`` with each spec of ``specs``, (where, spec) pairs, applied in
    turn by ``apply``; an error of a spec, on any frame too, carries the prefix
    ``where`` of that spec, and an error of ``seq``'s own frame none."""
    stages = [(None, seq)]  # the input's frame t is read first, with no prefix
    for where, spec in specs:
        with prefixed_errors(where):  # apply checks the awgn seed range
            seq = apply(seq, spec)
        stages.append((where, seq))

    def make(t):
        for where, stage in stages:  # each from the previous stage's frame t, kept
            with prefixed_errors(where):
                stage.frames[t]
        return seq.frames[t]

    return StereoSequence(_Frames(len(seq), (seq.height, seq.width), make), fps=seq.fps)


def _cmd_distort(args) -> int:
    desc = SequenceDescriptor.from_json(args.input)
    seq = load_sequence(desc)
    raw = read_json(args.spec)
    entries = ([(f"{args.spec}[{i}]", d) for i, d in enumerate(raw)]
               if isinstance(raw, list) else [(args.spec, raw)])
    specs = [(where, decode(DistortionSpec, d, where)) for where, d in entries]
    seq = _apply_each(seq, specs)
    left, right = (os.path.join(args.out, f"{view}.raw") for view in ("left", "right"))
    desc_path = os.path.join(args.out, "descriptor.json")
    with _save_outputs(args, desc_path, args.out) as written:
        desc = save_sequence(seq, left, right, format=desc.format)
        written += [left, right, desc_path]
        desc.to_json(desc_path)
    return 0


def _cmd_evaluate(args) -> int:
    table = SubjectiveTable.from_csv(args.scores)
    mos_table: MosTable = screen_and_mos(table)
    for flag in mos_table.flags + [f"rejected subject {s}" for s in mos_table.rejected_subjects]:
        sys.stderr.write(f"{args.scores}: {flag}\n")
    item_pos = {item: i for i, item in enumerate(mos_table.items)}
    groups = {}
    for pair in args.objective:
        item_id, _, path = pair.partition("=")
        if not path:
            sys.stderr.write("objective entries must look like item_id=report.json\n")
            return 2
        if item_id not in item_pos:
            raise ParamError(f"item {item_id!r} is not in {args.scores}")
        rep = read_json(path)
        if not (isinstance(rep, dict) and _fits(rep.get("metric"), "str")
                and _fits(rep.get("saliency_mode"), "str") and _fits(rep.get("score"), "float")):
            raise MalformedJson(f"{path}: not a metric report (metric and saliency_mode "
                                "must be strings, score a number)")
        key, score = (rep["metric"], rep["saliency_mode"]), float(rep["score"])
        scores = groups.setdefault(key, {})
        if item_id in scores:
            raise ParamError(f"item {item_id!r} has two reports for {key[0]} "
                             f"with saliency {key[1]!r}")
        scores[item_id] = score
    rows = []
    for (metric, mode), scores in sorted(groups.items()):
        idx = [item_pos[item] for item in scores]
        objective = np.array(list(scores.values()))
        where = f"{metric} (saliency {mode})"
        with prefixed_errors(where):
            try:
                perf = performance(objective, mos_table.mos[idx],
                                   per_item_std=mos_table.std[idx],
                                   use_logistic=args.logistic)
            except UndefinedCorrelation as exc:  # the other groups are still written
                sys.stderr.write(f"{where}: left out: {exc}\n")
                continue
        for flag in perf.flags:
            sys.stderr.write(f"{where}: {flag}\n")
        rows.append((metric, mode, args.label, perf))
    with _save_outputs(args, args.out) as written:
        written.append(args.out)
        emit_report(rows, args.out, fmt=args.format)
    return 0


def _cmd_info(args) -> int:
    desc = SequenceDescriptor.from_json(args.input)
    seq = load_sequence(desc)
    stats = si_ti(seq)
    for flag in stats["flags"]:
        sys.stderr.write(f"{args.input}: {flag}\n")
    print(f"size: {seq.width}x{seq.height}")
    print(f"frames: {len(seq)}")
    print(f"fps: {seq.fps}")
    print(f"format: {desc.format}")
    print(f"si: {stats['si']:.4f}")
    print(f"ti: {stats['ti']:.4f}")
    return 0


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON config overrides")
    p.add_argument("--saliency", default="none",
                   help="none | uniform | baseline | dir:<path>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stereoqa")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score-fr", help="full-reference metric over a pair")
    p.add_argument("--metric", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-csv", default=None)
    p.add_argument("--disparity-ref", default="estimate")
    p.add_argument("--disparity-dist", default="estimate")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("score-nr", help="no-reference metric over a sequence")
    p.add_argument("--metric", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame-csv", default=None)
    p.add_argument("--disparity", default="estimate")
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("saliency", help="write baseline saliency maps")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--disparity", default="none",
                   help="none | estimate | dir:<path> (depth channel input)")
    p.add_argument("--config", default=None, help="JSON config overrides")
    p.set_defaults(func=_cmd_saliency)

    p = sub.add_parser("disparity", help="write block-matched disparity maps")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("distort", help="apply a distortion recipe")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distort)

    p = sub.add_parser("evaluate", help="metric vs MOS performance table")
    p.add_argument("--scores", required=True)
    p.add_argument("--objective", nargs="+", required=True,
                   help="item_id=report.json pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--label", default="all")
    p.add_argument("--logistic", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("info", help="sequence geometry and SI/TI")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (StereoQaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
