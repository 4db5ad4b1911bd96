"""Command-line interface.

Exit codes: 0 success, 2 configuration error (bad flags, config file, or
network definition), 3 data error (file formats, manifests, geometry,
mismatched inputs), 4 numerical error (rank deficiency, floating-point
failure).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    CorruptionError,
    FormatError,
    GeometryError,
    RankError,
    ValidationError,
)
from .features import extract_local_features
from .network import ConvLayerSpec, MaxPoolStage, parse_network_file, run_network
from .pipeline import (
    PipelineConfig,
    RESOLUTION_PRESETS,
    SCHEMES,
    compare_schemes,
    load_config,
    parse_manifest,
    quantize_blocks,
    resolve_resolution,
    run_pipeline,
)
from .pooling import (
    cross_layer_pool,
    direct_max_pool,
    direct_sum_sqrt_pool,
    spp_pool,
    unit_offset,
)
from .postproc import (
    load_pca,
    load_sign_stack,
    pca_fit,
    power_normalize,
    save_pca,
    save_sign_stack,
)
from .svm import kernels, load_svm, save_svm, svm_predict, svm_train
from .tensor import (
    ColumnReader,
    MATRIX_MAGIC,
    load_features,
    load_tensor,
    save_features,
    save_tensor,
)
from .postproc import SIGN_STACK_MAGIC


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two integers like 3x3, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"{flag} expects integers, got {text!r}") from None


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--levels expects integers, got {text!r}") from None


def cmd_forward(args) -> int:
    net = parse_network_file(args.net)
    tensor = load_tensor(args.input)
    outputs = run_network(tensor, net)
    names = []
    for stage, out in zip(net.stages, outputs):
        if isinstance(stage, ConvLayerSpec):
            names.append("conv")
        elif isinstance(stage, MaxPoolStage):
            names.append("maxpool")
        else:
            names.append("relu")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for index, (name, out) in enumerate(zip(names, outputs)):
        print(f"stage {index} {name}: {out.height}x{out.width}x{out.depth}"
              f"{' rectified' if out.rectified else ''}")
        if args.out_dir:
            save_tensor(out, os.path.join(args.out_dir, f"stage_{index:02d}_{name}.tens"))
    return 0


def cmd_extract(args) -> int:
    tensor = load_tensor(args.input)
    wh, ww = _parse_pair(args.window, "--window")
    grid = extract_local_features(tensor, wh, ww, args.stride)
    gh, gw, dim = grid.shape
    save_features(grid.reshape(gh * gw, dim), args.out)
    print(f"{gh * gw} features of dim {dim} ({gh}x{gw} grid) -> {args.out}")
    return 0


def cmd_pca_fit(args) -> int:
    sample = load_features(args.features).data
    model = pca_fit(sample, args.dim)
    save_pca(model, args.out)
    kept = float(model.eigenvalues.sum())
    print(f"fitted {model.output_dim} components on {sample.shape[0]} samples "
          f"(retained variance {kept:.6g}) -> {args.out}")
    return 0


def cmd_pool(args) -> int:
    if args.scheme == "cross-layer":
        if not args.layer_t or not args.layer_t1:
            raise ConfigError("cross-layer pooling needs --layer-t and --layer-t1")
        layer_t = load_tensor(args.layer_t)
        layer_t1 = load_tensor(args.layer_t1)
        wh, ww = _parse_pair(args.window, "--window")
        grid = extract_local_features(layer_t, wh, ww, args.stride)
        pca = load_pca(args.pca) if args.pca else None
        vector = cross_layer_pool(
            grid, layer_t1, unit_offset(args.pad, args.stride), pca=pca
        )
    elif args.scheme in ("direct-max", "direct-sum-sqrt"):
        if not args.features:
            raise ConfigError(f"{args.scheme} pooling needs --features")
        pool = direct_max_pool if args.scheme == "direct-max" else direct_sum_sqrt_pool
        vector = pool(load_features(args.features).data)
    else:
        if not args.input:
            raise ConfigError("spp pooling needs --input")
        tensor = load_tensor(args.input)
        wh, ww = _parse_pair(args.window, "--window")
        grid = extract_local_features(tensor, wh, ww, args.stride)
        vector = spp_pool(grid, _parse_levels(args.levels))
    if args.power_norm:
        vector = power_normalize(vector)
    save_features(np.asarray(vector).reshape(1, -1), args.out)
    print(f"pooled vector of dim {np.asarray(vector).size} -> {args.out}")
    return 0


def cmd_quantize(args) -> int:
    with ColumnReader(args.input) as matrix:
        codes = quantize_blocks(matrix)
    count, dim = matrix.shape
    save_sign_stack(codes, dim, args.out)
    print(f"{count} vectors quantized to {codes.shape[1]} bytes each -> {args.out}")
    return 0


def _magic_of(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read(8)


def cmd_gram(args) -> int:
    magic = _magic_of(args.reps)
    with contextlib.ExitStack() as stack:
        if magic == SIGN_STACK_MAGIC:
            reps, _ = load_sign_stack(args.reps)
        elif magic == MATRIX_MAGIC:
            reps = stack.enter_context(ColumnReader(args.reps))
        else:
            raise FormatError(f"{args.reps}: expected a feature matrix or sign stack")
        gram, _ = kernels(reps, np.empty((0, reps.shape[1]), reps.dtype))
    save_features(gram, args.out)
    print(f"{len(gram)}x{len(gram)} Gram matrix -> {args.out}")
    return 0


def _read_labels(path) -> list:
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",") if p.strip()]
            labels.append(parts[0] if len(parts) == 1 else frozenset(parts))
    return labels


def cmd_train(args) -> int:
    for flag, value in (("--c", args.c), ("--tol", args.tol)):
        if not 0 < value <= sys.float_info.max:
            raise ConfigError(f"{flag} must be positive and finite, got {value}")
    gram = load_features(args.gram).data
    model = svm_train(gram, _read_labels(args.labels), c=args.c, tol=args.tol)
    save_svm(model, args.out)
    print(f"trained {len(model.classes)} one-vs-rest classifiers on "
          f"{model.train_count} examples -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_svm(args.model)
    labels, scores = svm_predict(model, load_features(args.rows).data)
    lines = ["index\tlabel\t" + "\t".join(model.classes)]
    for i, (label, row) in enumerate(zip(labels, scores)):
        lines.append(f"{i}\t{label}\t" + "\t".join(f"{s:.6g}" for s in row))
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _config_from_args(args) -> PipelineConfig:
    if args.config:
        config = load_config(args.config)
    else:
        if not args.net:
            raise ConfigError("either --config or --net is required")
        config = PipelineConfig(network=os.path.abspath(args.net))
    overrides = {}
    if args.net and args.config:
        overrides["network"] = os.path.abspath(args.net)
    if args.scheme:
        overrides["scheme"] = args.scheme
    if args.layer_pair:
        overrides["layer_pair"] = _parse_pair(args.layer_pair, "--layer-pair")
    if args.window:
        overrides["window"] = _parse_pair(args.window, "--window")
    if args.stride is not None:
        overrides["stride"] = args.stride
    if args.pca_dim is not None:
        overrides["pca_dim"] = args.pca_dim
    if args.levels:
        overrides["spp_levels"] = _parse_levels(args.levels)
    if args.quantize is not None:
        overrides["quantize"] = args.quantize
    if args.no_power_norm:
        overrides["power_norm"] = False
    if args.svm_c is not None:
        overrides["svm_c"] = args.svm_c
    if args.svm_tol is not None:
        overrides["svm_tol"] = args.svm_tol
    if args.seed is not None:
        overrides["seed"] = args.seed
    resolution = config.resolution
    if args.resolution:
        resolution = resolve_resolution(args.resolution)
    if args.blocks:
        m, n = _parse_pair(args.blocks, "--blocks")
        resolution = dataclasses.replace(resolution, blocks_m=m, blocks_n=n)
    if args.overlap is not None:
        resolution = dataclasses.replace(resolution, overlap_fraction=args.overlap)
    overrides["resolution"] = resolution
    return dataclasses.replace(config, **overrides)


def _print_metrics(report) -> None:
    metrics = report["metrics"]
    dims = report["dims"]
    print(f"scheme: {report['scheme']}"
          f"{' (quantized)' if report['quantize'] else ''}")
    print(f"representation dim: {dims['representation_dim']}")
    if dims["packed_bytes_per_image"] is not None:
        print(f"packed bytes per image: {dims['packed_bytes_per_image']}")
    if metrics["accuracy"] is not None:
        print(f"accuracy: {metrics['accuracy']:.4f}")
    print(f"mean average precision: {metrics['mean_average_precision']:.4f}")
    for name, value in metrics["average_precision"].items():
        print(f"  AP[{name}]: {value:.4f}")


def cmd_run(args) -> int:
    config = _config_from_args(args)
    manifest = parse_manifest(args.manifest)
    report = run_pipeline(config, manifest, args.workdir)
    _print_metrics(report)
    print(f"report: {report['artifacts']['report']}")
    return 0


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    manifest = parse_manifest(args.manifest)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    rows = compare_schemes(config, manifest, args.workdir, schemes)
    header = f"{'scheme':<16} {'accuracy':>9} {'mAP':>9} {'dim':>8} {'s/image':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        accuracy = "-" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
        print(
            f"{row['scheme']:<16} {accuracy:>9} "
            f"{row['mean_average_precision']:>9.4f} "
            f"{row['representation_dim']:>8d} "
            f"{row['per_image_seconds']:>10.6f}"
        )
    return 0


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    manifest = parse_manifest(args.manifest)
    report = run_pipeline(
        config, manifest, args.workdir, use_cache=False, stages="representations"
    )
    timing = report["timing"]["per_image"]
    print(f"images: {report['timing']['images']}")
    header = f"{'extraction':>12} {'pooling':>12} {'total':>12}"
    print(header)
    print(f"{timing['extraction']:>12.6f} {timing['pooling']:>12.6f} "
          f"{timing['total']:>12.6f}")
    return 0


def _add_pipeline_flags(sub) -> None:
    sub.add_argument("--config", help="JSON pipeline config file")
    sub.add_argument("--net", help="network definition file")
    sub.add_argument("--manifest", required=True, help="dataset manifest")
    sub.add_argument("--scheme", choices=SCHEMES)
    sub.add_argument("--layer-pair", help="conv ordinals, e.g. 1,2")
    sub.add_argument("--window", help="window dims, e.g. 3x3")
    sub.add_argument("--stride", type=int)
    sub.add_argument("--pca-dim", type=int)
    sub.add_argument("--levels", help="spp levels, e.g. 1,2")
    quantize = sub.add_mutually_exclusive_group()
    quantize.add_argument("--quantize", action="store_true", default=None)
    quantize.add_argument("--no-quantize", dest="quantize", action="store_false")
    sub.add_argument("--no-power-norm", action="store_true")
    sub.add_argument("--svm-c", type=float)
    sub.add_argument("--svm-tol", type=float)
    sub.add_argument("--resolution", choices=sorted(RESOLUTION_PRESETS))
    sub.add_argument("--blocks", help="block grid, e.g. 2x2")
    sub.add_argument("--overlap", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosspool",
        description="cross-layer pooled image representations and kernel SVM",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--workdir", default="crosspool-work", help="stage cache directory"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("forward", help="run a network on one tensor")
    sub.add_argument("--net", required=True)
    sub.add_argument("--input", required=True)
    sub.add_argument("--out-dir")
    sub.set_defaults(func=cmd_forward)

    sub = commands.add_parser("extract", help="extract sliding-window local features")
    sub.add_argument("--input", required=True)
    sub.add_argument("--window", required=True)
    sub.add_argument("--stride", type=int, default=1)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_extract)

    sub = commands.add_parser("pca-fit", help="fit a PCA model on a feature matrix")
    sub.add_argument("--features", required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_pca_fit)

    sub = commands.add_parser("pool", help="pool one image part into a vector")
    sub.add_argument("--scheme", choices=SCHEMES, required=True)
    sub.add_argument("--layer-t")
    sub.add_argument("--layer-t1")
    sub.add_argument("--features")
    sub.add_argument("--input")
    sub.add_argument("--window", default="3x3")
    sub.add_argument("--stride", type=int, default=1)
    sub.add_argument("--pad", type=int, default=0)
    sub.add_argument("--pca")
    sub.add_argument("--levels", default="1,2")
    sub.add_argument("--power-norm", action="store_true")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_pool)

    sub = commands.add_parser("quantize", help="sign-quantize representation rows")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_quantize)

    sub = commands.add_parser("gram", help="pairwise kernel of representations")
    sub.add_argument("--reps", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_gram)

    sub = commands.add_parser("train", help="train one-vs-rest SVMs on a kernel")
    sub.add_argument("--gram", required=True)
    sub.add_argument("--labels", required=True, help="one label (or a,b,c) per line")
    sub.add_argument("--c", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=1e-4)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_train)

    sub = commands.add_parser("predict", help="score kernel rows with a model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--rows", required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_predict)

    sub = commands.add_parser("run", help="full pipeline over a manifest")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=cmd_run)

    sub = commands.add_parser("compare", help="run several schemes and tabulate")
    _add_pipeline_flags(sub)
    sub.add_argument("--schemes", required=True, help="comma-separated scheme list")
    sub.set_defaults(func=cmd_compare)

    sub = commands.add_parser("bench", help="time the representation stage")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RankError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (
        FormatError,
        CorruptionError,
        ValidationError,
        GeometryError,
        ContractError,
        FileNotFoundError,
        IsADirectoryError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
