"""Command-line front end tying the pipeline together.

Exit codes: 0 success, 1 processing error, 2 usage error.  Every subcommand
that writes outputs also writes a JSON run manifest next to the primary
output so the run can be replayed byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .disparity import DisparityConfig, DisparityMap, estimate_disparity_series
from .distort import DistortionSpec, apply
from .errors import MalformedJson, ParamError, StereoQaError, prefixed_errors
from .fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig
from .media import SequenceDescriptor, _fits, decode, load_map_series, \
    load_sequence, read_json, save_map_series, save_sequence, write_json
from .nr import NR_METRICS, NR_NEEDS_DISPARITY, NrMetricConfig
from .saliency import VamConfig, baseline_vam, load_external_saliency, \
    uniform_series
from .stats import MosTable, SubjectiveTable, emit_report, performance, \
    screen_and_mos, si_ti


# disparity maps are stored on the unit scale: pgm value * scale = disparity
_DISPARITY_SCALE = DisparityConfig().search_range


def _load_config(path, cls):
    return cls() if path is None else decode(cls, read_json(path), path)


def _write_manifest(out_path: str, args: argparse.Namespace, outputs) -> None:
    write_json(out_path + ".manifest.json", {  # every key in sorted order
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items())
                    if k not in ("command", "func")},
        "outputs": sorted(outputs),
        "tool": "stereoqa",
        "version": __version__,
    })


def _resolve_saliency(mode: str, seq):
    if mode == "none":
        return None
    if mode == "uniform":
        return uniform_series(seq)
    if mode == "baseline":
        return baseline_vam(seq)
    if mode.startswith("dir:"):
        return load_external_saliency(mode[4:], seq)
    raise StereoQaError(f"unknown saliency source {mode!r}")


def _resolve_disparity(source: str, seq):
    if source.startswith("dir:"):
        expected = {"width": seq.width, "height": seq.height, "count": len(seq)}
        return [DisparityMap(m * _DISPARITY_SCALE)
                for m in load_map_series(source[4:], expected)]
    if source != "estimate":
        raise StereoQaError(f"unknown disparity source {source!r}")
    return estimate_disparity_series(seq)


_SCORERS = {
    "score-fr": (FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig),
    "score-nr": (NR_METRICS, NR_NEEDS_DISPARITY, NrMetricConfig),
}


def _cmd_score(args) -> int:
    metrics, needs, config_cls = _SCORERS[args.command]
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
    disparity = {slot: _resolve_disparity(sources[slot],
                                          seqs[0] if slot == "d_ref" else seqs[-1])
                 for slot in needs.get(metric, ())}
    with prefixed_errors(args.config):  # None without --config
        report = metrics[metric](*seqs, s_series=s_series, cfg=cfg, **disparity)
    report.save_json(args.out)
    outputs = [args.out]
    if args.frame_csv:
        report.save_frame_csv(args.frame_csv)
        outputs.append(args.frame_csv)
    _write_manifest(args.out, args, outputs)
    sys.stderr.write(f"{metric}: {report.score:.6g} ({report.orientation})\n")
    return 0


def _cmd_saliency(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    cfg = _load_config(args.config, VamConfig)
    d_series = None
    if args.disparity != "none":
        d_series = _resolve_disparity(args.disparity, seq)
    with prefixed_errors(args.config):  # None without --config
        maps = baseline_vam(seq, disparity_series=d_series, cfg=cfg)
    paths = save_map_series([m.values for m in maps], args.out)
    _write_manifest(os.path.join(args.out, "saliency"), args, paths)
    return 0


def _cmd_disparity(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    maps = _resolve_disparity("estimate", seq)
    paths = save_map_series([m.values / _DISPARITY_SCALE for m in maps], args.out)
    _write_manifest(os.path.join(args.out, "disparity"), args, paths)
    return 0


def _cmd_distort(args) -> int:
    desc = SequenceDescriptor.from_json(args.input)
    seq = load_sequence(desc)
    raw = read_json(args.spec)
    entries = ([(f"{args.spec}[{i}]", d) for i, d in enumerate(raw)]
               if isinstance(raw, list) else [(args.spec, raw)])
    specs = [(where, decode(DistortionSpec, d, where)) for where, d in entries]
    for where, spec in specs:
        with prefixed_errors(where):  # the checks that need the frames, e.g. the region's
            seq = apply(seq, spec)
    os.makedirs(args.out, exist_ok=True)
    left, right = (os.path.join(args.out, f"{view}.raw") for view in ("left", "right"))
    desc = save_sequence(seq, left, right, format=desc.format)
    desc_path = os.path.join(args.out, "descriptor.json")
    desc.to_json(desc_path)
    _write_manifest(desc_path, args, [left, right, desc_path])
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
        perf = performance(objective, mos_table.mos[idx],
                           per_item_std=mos_table.std[idx],
                           use_logistic=args.logistic)
        for flag in perf.flags:
            sys.stderr.write(f"{metric} (saliency {mode}): {flag}\n")
        rows.append((metric, mode, args.label, perf))
    emit_report(rows, args.out, fmt=args.format)
    _write_manifest(args.out, args, [args.out])
    return 0


def _cmd_info(args) -> int:
    desc = SequenceDescriptor.from_json(args.input)
    seq = load_sequence(desc)
    stats = si_ti(seq)
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
