"""Command-line interface.

Every long option can also be supplied through a JSON config file passed
as --config: keys are the option names with dashes replaced by
underscores, either flat or nested under the command name (e.g.
{"assess": {"se_size": 63}}). Explicit flags override the file, and
required options must still be given as flags. A value of the wrong type
for its option is an error. Every other JSON input (reports, specs, tile
manifests and lookups) is a record, read by `xras.read_record`. A --height
raster is read as DSM or AGL by its band role; --height-kind, when given,
must agree with the role.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, _kernels, _parallel
from . import forest as rf
from . import synth as synthmod
from . import transfer, xras
from .raster import (ClassLookup, MultibandRaster, Window,
                     compute_truncation_bounds, extract_patch, height_role,
                     merge_probability_patches, normalize_truncate,
                     parse_role, plan_tiles, remap_labels)


def _pseudo_truth_inputs(args) -> tuple[MultibandRaster | None, transfer.PseudoTruthConfig]:
    """The --height raster, checked against --height-kind when that is given,
    and a `PseudoTruthConfig` from the options that bear its field names."""
    config = transfer.PseudoTruthConfig(**{f.name: getattr(args, f.name)
                                           for f in fields(transfer.PseudoTruthConfig)})
    if not args.height:
        return None, config
    height = xras.read_xras(args.height)
    kind = height_role(height).name.lower()
    if args.height_kind not in (None, kind):
        raise ValueError(f"--height-kind {args.height_kind}, but {args.height} "
                         f"is read as {kind.upper()}")
    return height, config


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_normalize(args) -> int:
    roles = [parse_role(s) for s in args.bands.split(",") if s.strip()]
    if not roles:
        raise ValueError("no bands requested")
    rasters = [xras.read_xras(p) for p in args.input]
    bounds_by_role = {
        role: compute_truncation_bounds(rasters, role, args.lower, args.upper)
        for role in roles
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, raster in zip(args.input, rasters):
        per_band = {raster.band_index(role): bounds_by_role[role]
                    for role in roles if raster.has_band(role)}
        normalized = normalize_truncate(raster, per_band)
        xras.write_xras(normalized, out_dir / Path(path).name)
    report = {
        "lower_pct": args.lower,
        "upper_pct": args.upper,
        "bounds": {role.name.lower(): b._asdict() for role, b in bounds_by_role.items()},
        "inputs": [Path(p).name for p in args.input],
    }
    xras.write_report(report, out_dir / "normalization.json")
    return 0


def cmd_remap(args) -> int:
    lookup = xras.read_record(ClassLookup, json.loads(Path(args.lookup).read_text()))
    labels = remap_labels(xras.read_xras(args.labels), lookup)
    xras.write_xras(labels, args.out)
    return 0


def cmd_pseudolabel(args) -> int:
    raster = xras.read_xras(args.raster)
    height, config = _pseudo_truth_inputs(args)
    result = transfer.pseudo_labels(raster, height, config=config)
    xras.write_xras(result.labels, args.out)
    if args.report:
        doc = {
            "thresholds": result.thresholds,
            "width": result.labels.width,
            "height": result.labels.height,
            "void_pixels": int((~result.labels.valid_mask()).sum()),
        }
        xras.write_report(doc, args.report)
    return 0


def cmd_assess(args) -> int:
    raster = xras.read_xras(args.raster)
    prediction = xras.read_label_map(args.pred)
    height, config = _pseudo_truth_inputs(args)
    probs = xras.read_probability_map(args.probs) if args.probs else None
    gt = xras.read_label_map(args.gt) if args.gt else None
    report = transfer.assess(
        prediction, raster, height, model_id=args.model_id,
        domain_id=args.domain_id, probs=probs, gt=gt,
        config=config, timestamp=args.timestamp)
    xras.write_report(report, args.out)
    return 0


def cmd_evaluate(args) -> int:
    pred = xras.read_label_map(args.pred)
    gt = xras.read_label_map(args.gt)
    xras.write_report(transfer.evaluate_gt(pred, gt), args.out)
    return 0


def _load_reports(paths) -> list[transfer.TransferReport]:
    return [xras.read_record(transfer.TransferReport, json.loads(Path(p).read_text()))
            for p in paths]


def cmd_rank(args) -> int:
    ranking = transfer.rank_models(_load_reports(args.reports), by=args.by)
    rows = [(rank, model_id, score) for model_id, score, rank in ranking.entries]
    xras.write_csv(args.out, ("rank", "model_id", "score"), rows)
    return 0


def cmd_correlate(args) -> int:
    index_stats, conf_stats = transfer.correlate_predictors(_load_reports(args.reports))
    rows = [(name, s.r, s.r2, s.slope, s.intercept, s.n)
            for name, s in (("index_miou", index_stats), ("confidence", conf_stats))]
    xras.write_csv(args.out, ("predictor", "r", "r2", "slope", "intercept", "n"), rows)
    return 0


@dataclass(frozen=True)
class TilePatch(Window):
    file: str


@dataclass(frozen=True)
class TileManifest:
    """`tiles.json`: what `tile` cut, one `TilePatch` per file, for `merge`."""

    width: int
    height: int
    patch: int
    overlap: float
    stride: int
    undersized: bool
    windows: tuple[TilePatch, ...]


def cmd_tile(args) -> int:
    raster = xras.read_xras(args.input)
    plan = plan_tiles(raster.width, raster.height, args.patch, args.overlap)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    windows = []
    for window in plan.windows:
        name = f"tile_{window.y:05d}_{window.x:05d}.xras"
        patch = MultibandRaster(
            np.ascontiguousarray(extract_patch(raster.data, window)),
            raster.band_roles, nodata=raster.nodata, gsd=raster.gsd,
            normalized=raster.normalized)
        xras.write_xras(patch, out_dir / name)
        windows.append(TilePatch(window.x, window.y, window.width, window.height, name))
    manifest = TileManifest(raster.width, raster.height, args.patch, args.overlap,
                            plan.stride, plan.undersized, tuple(windows))
    xras.write_report(manifest, out_dir / "tiles.json")
    return 0


def cmd_merge(args) -> int:
    try:
        manifest = xras.read_record(
            TileManifest, json.loads((Path(args.patches) / "tiles.json").read_text()))
    except ValueError as exc:
        raise ValueError(f"manifest: {exc}") from None
    if min(manifest.width, manifest.height) < 1:
        raise ValueError(f"manifest width and height must be integers >= 1: "
                         f"{manifest.width}, {manifest.height}")
    patches = [(w, xras.read_probability_map(Path(args.patches) / w.file))
               for w in manifest.windows]
    pmap, labels = merge_probability_patches(patches, manifest.width, manifest.height)
    xras.write_xras(pmap, args.out)
    if args.labels_out:
        xras.write_xras(labels, args.labels_out)
    return 0


def _scene_feature_stack(raster_path, height_path, params) -> np.ndarray:
    raster = xras.read_xras(raster_path)
    glcm = rf.glcm_features(raster, params)
    height = xras.read_xras(height_path) if height_path else None
    return rf.stack_features(raster, glcm, height)


def cmd_rf_train(args) -> int:
    if len(args.labels) != len(args.raster):
        raise ValueError("need one --labels per --raster")
    if args.height and len(args.height) != len(args.raster):
        raise ValueError("need one --height per --raster (or none at all)")
    params = rf.GlcmParams(window=args.window, levels=args.levels)
    hp = rf.RfHyperparams(
        n_trees=args.trees, max_depth=args.max_depth,
        min_samples_leaf=args.min_leaf, min_samples_split=args.min_split,
        features_per_split=args.features_per_split, seed=args.seed)
    stacks = [_scene_feature_stack(path, args.height[i] if args.height else None, params)
              for i, path in enumerate(args.raster)]
    labels = [xras.read_label_map(path) for path in args.labels]
    data = rf.sample_pixels(stacks, labels, args.samples, args.seed,
                            stratified=args.stratified)
    model = rf.rf_train(data, hp)
    rf.save_forest(model, args.out)
    if args.json_out:
        Path(args.json_out).write_text(rf.forest_to_json(model))
    return 0


def cmd_rf_predict(args) -> int:
    model = rf.load_forest(args.model)
    params = rf.GlcmParams(window=args.window, levels=args.levels)
    if model.d == 11 and not args.height:
        raise ValueError("model was trained with a height feature; pass --height")
    if model.d == 10 and args.height:
        raise ValueError("model has no height feature; drop --height")
    stack = _scene_feature_stack(args.raster, args.height, params)
    if stack.shape[0] != model.d:
        raise ValueError(f"feature stack has {stack.shape[0]} planes, model wants {model.d}")
    pmap = rf.rf_predict(model, stack)
    xras.write_xras(pmap, args.out)
    if args.labels_out:
        xras.write_xras(pmap.argmax_labels(), args.labels_out)
    return 0


def cmd_synth_generate(args) -> int:
    spec = (xras.read_record(synthmod.DomainSpec, json.loads(Path(args.spec).read_text()))
            if args.spec else synthmod.DomainSpec())
    if args.scenes < 1:
        raise ValueError("need at least one scene")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(args.scenes):
        triple = {kind: f"scene_{i:03d}_{kind}.xras" for kind in ("rgbn", "agl", "labels")}
        # written as generated, so one scene at a time is held in memory
        for kind, raster in zip(triple, synthmod.generate_scene(spec, i)):
            xras.write_xras(raster, out_dir / triple[kind])
        files.append(triple)
    manifest = {"spec": spec, "n_scenes": args.scenes, "files": files}
    xras.write_report(manifest, out_dir / "manifest.json")
    return 0


def cmd_info(args) -> int:
    print(f"xferkit {__version__}")
    for kernel, lane in _kernels.LANES.items():
        print(f"kernel {kernel}: {lane}")
    print(f"fallback reason: {_kernels.FALLBACK_REASON or 'none'}")
    print(f"threads: {_parallel.worker_count()}")
    print(f"numpy {np.__version__}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_height_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--height", help="height raster (XRAS, meters)")
    p.add_argument("--height-kind", choices=("dsm", "agl"),
                   help="must match the --height raster's band role")
    p.add_argument("--se-size", type=int, default=63,
                   help="structuring element size for the DSM top-hat")
    p.add_argument("--mbih-threshold", type=float, default=2.0,
                   help="building height threshold in meters")
    p.add_argument("--otsu-bins", type=int, default=256)


def build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its command parsers by path ("assess", "rf train").

    Every command is registered with its name and help, which is all
    `xferkit -h` and an unknown command need. Arguments, `-h` included,
    are added only to the commands and groups that `command`, a command
    path as `_command_path` reads it from argv, starts with; to every
    command when it is None.
    """
    parser = argparse.ArgumentParser(
        prog="xferkit",
        description="Index-based transferability assessment for segmentation models")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    registry: dict[str, argparse.ArgumentParser] = {}

    def wanted(path: str) -> bool:
        return command is None or f"{command} ".startswith(f"{path} ")

    def group(name: str, help_text: str) -> None:
        g = subs[""].add_parser(name, help=help_text, add_help=wanted(name))
        subs[name] = g.add_subparsers(dest=f"{name}_command", required=True)

    def add(path: str, func, config: bool = True, **kw) -> argparse.ArgumentParser | None:
        """Register `path`; its parser, with --config if `config`, if wanted, else None."""
        where, _, name = path.rpartition(" ")
        p = registry[path] = subs[where].add_parser(name, add_help=wanted(path), **kw)
        if not wanted(path):
            return None
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", help="JSON file with default option values")
        return p

    if p := add("normalize", cmd_normalize,
                help="dataset-level histogram truncation to [0,1]"):
        p.add_argument("--input", nargs="+", required=True)
        p.add_argument("--bands", default="r,g,b,nir")
        p.add_argument("--lower", type=float, default=2.0)
        p.add_argument("--upper", type=float, default=2.0)
        p.add_argument("--out-dir", required=True)

    if p := add("remap", cmd_remap, help="remap raw label codes into the 4-class schema"):
        p.add_argument("--labels", required=True, help="raw single-band label raster")
        p.add_argument("--lookup", required=True,
                       help='JSON lookup: {"map": {"<src>": <dst>, ...}}')
        p.add_argument("--out", required=True)

    if p := add("pseudolabel", cmd_pseudolabel, help="index-derived pseudo ground truth"):
        p.add_argument("--raster", required=True)
        _add_height_opts(p)
        p.add_argument("--out", required=True)
        p.add_argument("--report")

    if p := add("assess", cmd_assess, help="score a prediction against pseudo labels"):
        p.add_argument("--raster", required=True)
        _add_height_opts(p)
        p.add_argument("--pred", required=True)
        p.add_argument("--probs")
        p.add_argument("--gt")
        p.add_argument("--model-id", required=True)
        p.add_argument("--domain-id", required=True)
        p.add_argument("--timestamp", help="fixed ISO timestamp for reproducible reports")
        p.add_argument("--out", required=True)

    if p := add("evaluate", cmd_evaluate, help="ground-truth mIoU of a prediction"):
        p.add_argument("--pred", required=True)
        p.add_argument("--gt", required=True)
        p.add_argument("--out", required=True)

    if p := add("rank", cmd_rank, help="rank models on one domain"):
        p.add_argument("--reports", nargs="+", required=True)
        p.add_argument("--by", choices=("index_miou", "confidence"),
                       default="index_miou")
        p.add_argument("--out", required=True)

    if p := add("correlate", cmd_correlate, help="predictor vs ground-truth correlation"):
        p.add_argument("--reports", nargs="+", required=True)
        p.add_argument("--out", required=True)

    if p := add("tile", cmd_tile, help="cut a raster into overlapping patches"):
        p.add_argument("--input", required=True)
        p.add_argument("--patch", type=int, default=512)
        p.add_argument("--overlap", type=float, default=0.5)
        p.add_argument("--out-dir", required=True)

    if p := add("merge", cmd_merge, help="probability-voting merge of patches"):
        p.add_argument("--patches", required=True, help="directory with tiles.json")
        p.add_argument("--out", required=True)
        p.add_argument("--labels-out")

    group("rf", "random-forest baseline")
    if p := add("rf train", cmd_rf_train):
        p.add_argument("--raster", action="append", required=True)
        p.add_argument("--labels", action="append", required=True)
        p.add_argument("--height", action="append")
        p.add_argument("--trees", type=int, default=500)
        p.add_argument("--max-depth", type=int, default=20)
        p.add_argument("--min-leaf", type=int, default=1000)
        p.add_argument("--min-split", type=int, default=4000)
        p.add_argument("--samples", type=int, default=4_000_000)
        p.add_argument("--features-per-split", type=int)
        p.add_argument("--stratified", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--window", type=int, default=13)
        p.add_argument("--levels", type=int, default=32)
        p.add_argument("--out", required=True)
        p.add_argument("--json-out", help="also write a JSON debug dump")

    if p := add("rf predict", cmd_rf_predict):
        p.add_argument("--model", required=True)
        p.add_argument("--raster", required=True)
        p.add_argument("--height")
        p.add_argument("--window", type=int, default=13)
        p.add_argument("--levels", type=int, default=32)
        p.add_argument("--out", required=True)
        p.add_argument("--labels-out")

    group("synth", "synthetic domain generator")
    if p := add("synth generate", cmd_synth_generate):
        p.add_argument("--spec", help="DomainSpec JSON (defaults when omitted)")
        p.add_argument("--scenes", type=int, default=3)
        p.add_argument("--out-dir", required=True)

    add("info", cmd_info, config=False,
        help="print the version, kernel lanes and worker count")
    return parser, registry


def _command_path(argv: list[str]) -> str:
    words = []
    for token in argv:
        if token.startswith("-"):
            break
        words.append(token)
        if len(words) == 2:
            break
    return " ".join(words)


def _apply_config(sub: argparse.ArgumentParser, command: str, path: str) -> None:
    """Set the options that the JSON file at `path` names as defaults of
    `command`'s parser `sub`."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    section = {k: v for k, v in doc.items() if not isinstance(v, dict)}
    for key in (command, command.replace(" ", "_")):
        nested = doc.get(key)
        if isinstance(nested, dict):
            section.update(nested)
    actions = {a.dest: a for a in sub._actions}
    for key, value in section.items():
        if key in actions and not _fits_option(actions[key], value):
            raise ValueError(f"config value {key}={value!r} does not fit its option")
    sub.set_defaults(**{k: v for k, v in section.items() if k in actions})


def _fits_option(action: argparse.Action, value) -> bool:
    """Whether a config value may stand as `action`'s default: argparse
    converts a string default as it would a flag's word, and no other."""
    kind = bool if action.nargs == 0 else action.type or str
    if action.nargs == "+" or isinstance(action, argparse._AppendAction):
        return value is None or isinstance(value, list) and all(type(v) is kind for v in value)
    return (value is None or type(value) is kind or kind is float and type(value) is int
            or kind is not bool and type(value) is str)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argv that opens with an option names no command
    command = _command_path(argv)
    parser, registry = build_parser(command or None)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the file's values become defaults, so flags still override them
            _apply_config(registry[command], command, args.config)
            args = parser.parse_args(argv)
        return args.func(args) or 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
