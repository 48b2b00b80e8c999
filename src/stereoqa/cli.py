"""Command-line front end tying the pipeline together.

Exit codes: 0 success, 1 processing error, 2 usage error.  Every subcommand
that writes outputs also writes a JSON run manifest next to the primary
output so the run can be replayed byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .disparity import DisparityConfig, DisparityMap, estimate_disparity_series
from .distort import apply_all, spec_from_dict
from .errors import MalformedJson, ParamError, StereoQaError
from .fr import FR_METRICS, FR_NEEDS_DISPARITY, FrMetricConfig
from .media import SequenceDescriptor, load_map_series, load_sequence, \
    read_json, save_map_series, save_sequence
from .nr import NR_METRICS, NR_NEEDS_DISPARITY, NrMetricConfig
from .saliency import VamConfig, baseline_vam, load_external_saliency, \
    uniform_series
from .stats import MosTable, SubjectiveTable, emit_report, performance, \
    screen_and_mos, si_ti


def _load_config(path, cls):
    if path is None:
        return cls()
    data = read_json(path)
    try:
        return cls(**data)
    except TypeError as exc:
        raise MalformedJson(f"{path}: {exc}") from exc


def _write_manifest(out_path: str, args: argparse.Namespace, outputs) -> None:
    manifest = {
        "tool": "stereoqa",
        "version": __version__,
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items())
                    if k not in ("command", "func")},
        "outputs": sorted(outputs),
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    cfg = DisparityConfig()
    if source.startswith("dir:"):
        maps = load_map_series(source[4:], {"width": seq.width,
                                            "height": seq.height,
                                            "count": len(seq)})
        return [DisparityMap(values=m * cfg.search_range, block=cfg.block,
                             search_range=cfg.search_range) for m in maps]
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
    report = metrics[metric](*seqs, s_series=s_series, cfg=cfg, **disparity)
    report.save_json(args.out)
    outputs = [args.out]
    if args.frame_csv:
        report.save_frame_csv(args.frame_csv)
        outputs.append(args.frame_csv)
    _write_manifest(args.out, args, outputs)
    sys.stderr.write(f"{metric}: {report.score:.6f} ({report.orientation})\n")
    return 0


def _cmd_saliency(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    cfg = _load_config(args.config, VamConfig)
    d_series = None
    if args.disparity != "none":
        d_series = _resolve_disparity(args.disparity, seq)
    maps = baseline_vam(seq, disparity_series=d_series, cfg=cfg)
    save_map_series([m.values for m in maps], args.out)
    _write_manifest(os.path.join(args.out, "saliency"), args,
                    [os.path.join(args.out, f"{i:06d}.pgm")
                     for i in range(len(maps))])
    return 0


def _cmd_disparity(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    maps = _resolve_disparity("estimate", seq)
    # stored on the unit scale: raw pgm value * search_range = disparity
    save_map_series([m.values / m.search_range for m in maps], args.out)
    _write_manifest(os.path.join(args.out, "disparity"), args,
                    [os.path.join(args.out, f"{i:06d}.pgm")
                     for i in range(len(maps))])
    return 0


def _cmd_distort(args) -> int:
    seq = load_sequence(SequenceDescriptor.from_json(args.input))
    raw = read_json(args.spec)
    specs = [spec_from_dict(d) for d in (raw if isinstance(raw, list) else [raw])]
    out_seq = apply_all(seq, specs)
    os.makedirs(args.out, exist_ok=True)
    left = os.path.join(args.out, "left.raw")
    right = os.path.join(args.out, "right.raw")
    desc = save_sequence(out_seq, left, right)
    desc_path = os.path.join(args.out, "descriptor.json")
    desc.left, desc.right = "left.raw", "right.raw"
    desc.to_json(desc_path)
    _write_manifest(desc_path, args, [left, right, desc_path])
    return 0


def _cmd_evaluate(args) -> int:
    table = SubjectiveTable.from_csv(args.scores)
    mos_table: MosTable = screen_and_mos(table)
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
        try:
            key = (rep["metric"], rep["saliency_mode"])
            groups.setdefault(key, []).append((item_id, float(rep["score"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedJson(f"{path}: not a metric report ({exc!r})") from exc
    rows = []
    for (metric, mode), pairs in sorted(groups.items()):
        idx = [item_pos[item] for item, _ in pairs]
        objective = np.array([score for _, score in pairs])
        perf = performance(objective, mos_table.mos[idx],
                           per_item_std=mos_table.std[idx],
                           use_logistic=args.logistic)
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


def _add_common(p, saliency=True):
    p.add_argument("--config", default=None, help="JSON config overrides")
    if saliency:
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
    _add_common(p, saliency=False)
    p.set_defaults(func=_cmd_saliency)

    p = sub.add_parser("disparity", help="write block-matched disparity maps")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, saliency=False)
    p.set_defaults(func=_cmd_disparity)

    p = sub.add_parser("distort", help="apply a distortion recipe")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, saliency=False)
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
    except StereoQaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
