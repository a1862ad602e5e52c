"""Command-line entry point: one executable with per-task subcommands.

Exit codes: 0 success, 1 usage/contract error, 2 numeric failure, 3 I/O error.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import harness, ingest, knowledge, labeling, model, synth
from .domain import ContractError, EXPRESSIONS, NumericFailure, parse_numbers
from .losses import expression_loss, finite_difference_check

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


# dataclass field type -> (accepts a JSON value, converts it, what it expects);
# exact type tests, because JSON's true and false are Python ints
_JSON_FIELD_TYPES = {
    int: (lambda v: type(v) is int, int, "an integer"),
    float: (lambda v: type(v) in (int, float), float, "a number"),
    str: (lambda v: type(v) is str, str, "a string"),
    tuple: (lambda v: type(v) is list and all(type(x) is int for x in v), tuple,
            "a list of integers"),
    np.ndarray: (lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
                 np.array, "a list of numbers"),
}


def _load_json_fields(path, cls, what):
    """The JSON object in `path` as keyword arguments of the dataclass `cls`.

    Raises ContractError, naming the key, on a document that is not an
    object, an unknown key, or a value that is not of the field's type (null
    only where the field defaults to None).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            raise ContractError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ContractError(
            f"{what} {path} must hold a JSON object, got {type(values).__name__}"
        )
    declared = {f.name: f for f in fields(cls)}
    unknown = set(values) - set(declared)
    if unknown:
        raise ContractError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in values.items():
        if value is None and declared[key].default is None:
            continue
        if declared[key].type not in _JSON_FIELD_TYPES:
            raise ContractError(f"{what} key {key!r} cannot be set from JSON")
        accepts, convert, expected = _JSON_FIELD_TYPES[declared[key].type]
        if not accepts(value):
            raise ContractError(
                f"{what} key {key!r} must be {expected}, got {json.dumps(value)}"
            )
        values[key] = convert(value)
    return values


def _load_config(args):
    """Build a TrainConfig from --config JSON overridden by CLI flags.

    A --pos-weights-file replaces the strategy's pos-weights, so naming a
    strategy as well (flag or config key) is a contract error.
    """
    values = {}
    if args.config:
        values = _load_json_fields(args.config, harness.TrainConfig, "config")
    for name in ("seed", "lam", "strategy", "epochs"):
        override = getattr(args, name)
        if override is not None:
            values[name] = override
    if args.pos_weights_file and "strategy" in values:
        raise ContractError(
            "--pos-weights-file replaces the strategy's pos-weights; "
            "give a strategy or the file, not both"
        )
    return harness.TrainConfig(**values)


def _load_frames_dir(frames_dir):
    """(video_id, frames) for every frame store in frames_dir, by video id."""
    suffix = ingest.FRAME_STORE_SUFFIX
    video_ids = sorted(
        name[:-len(suffix)] for name in os.listdir(frames_dir) if name.endswith(suffix)
    )
    if not video_ids:
        raise ContractError(f"no frame stores (*{suffix}) found in {frames_dir}")
    return [
        (video_id, ingest.read_frame_store(os.path.join(frames_dir, video_id + suffix)))
        for video_id in video_ids
    ]


def cmd_ingest(args):
    os.makedirs(args.out, exist_ok=True)
    for path in args.inputs:
        video_id = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as fh:
            frames = ingest.parse_openface_csv(fh, video_id)
        repaired, flags = ingest.interpolate_zero_intensities(frames, video_id)
        for flag in flags:
            print(f"warning: {flag}", file=sys.stderr)
        out_path = os.path.join(args.out, video_id + ingest.FRAME_STORE_SUFFIX)
        ingest.write_frame_store(repaired, out_path)
        print(f"{video_id}: {len(repaired)} frames -> {out_path}")
    return EXIT_OK


def cmd_extract_knowledge(args):
    videos = [
        (video_id, ingest.reliable_detections(frames, args.min_confidence))
        for video_id, frames in _load_frames_dir(args.frames)
    ]
    with open(args.preds, "r", encoding="utf-8") as fh:
        predictions = ingest.load_frame_predictions(fh)
    reliable = knowledge.filter_reliable_frames(predictions, args.theta)
    matrix = knowledge.compute_dataset_knowledge(videos, reliable)
    knowledge.export_knowledge(matrix, args.out)
    print(f"knowledge matrix (per-dataset) -> {args.out}")
    return EXIT_OK


def cmd_aggregate_knowledge(args):
    matrices = [knowledge.import_knowledge(path) for path in args.inputs]
    policy = "compat" if args.midpoint == "compat" else "general"
    aggregate = knowledge.aggregate_knowledge(matrices, midpoint_policy=policy)
    if args.scale:
        aggregate = knowledge.scale_for_loss(aggregate)
    knowledge.export_knowledge(aggregate, args.out)
    print(f"knowledge matrix ({aggregate.stage}) -> {args.out}")
    return EXIT_OK


def cmd_pseudo_label(args):
    videos = _load_frames_dir(args.frames)
    expr_by_video = labeling.read_video_labels_csv(args.video_labels)
    missing = [video_id for video_id, _ in videos if video_id not in expr_by_video]
    if missing:
        raise ContractError(
            f"no label in {args.video_labels} for videos: {', '.join(missing)}"
        )
    labels = [
        labeling.derive_video_au_labels(frames, video_id, expr_by_video[video_id])
        for video_id, frames in videos
    ]
    labeling.write_labels_csv(labels, args.out)
    print(f"{len(labels)} video AU labels -> {args.out}")
    return EXIT_OK


def cmd_pos_weights(args):
    labels = labeling.read_labels_csv(args.labels)
    spec = labeling.compute_pos_weights(labels, args.strategy)
    os.makedirs(args.out, exist_ok=True)
    labeling.write_pos_weights_csv(spec, os.path.join(args.out, "pos_weights.csv"))
    print(f"pos-weights ({args.strategy}) -> {args.out}")
    return EXIT_OK


def cmd_synth_gen(args):
    spec_kwargs = {"total": args.n, "seed": args.seed if args.seed is not None else 0}
    if args.spec:
        spec_kwargs.update(_load_json_fields(args.spec, synth.SynthSpec, "spec"))
    spec = synth.SynthSpec(**spec_kwargs)
    dataset = synth.generate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    model.save_features(dataset.features, os.path.join(args.out, "features.bin"))
    np.savetxt(
        os.path.join(args.out, "expression_labels.csv"),
        dataset.expr_labels,
        fmt="%d",
        header="expression_index",
        comments="# ",
    )
    labeling.write_labels_csv(
        dataset.au_labels(), os.path.join(args.out, "au_labels.csv")
    )
    knowledge.export_knowledge(
        dataset.knowledge, os.path.join(args.out, "knowledge.csv")
    )
    print(f"synthetic dataset (N={spec.total}) -> {args.out}")
    return EXIT_OK


def _load_dataset_dir(path):
    features = model.load_features(os.path.join(path, "features.bin"))
    try:
        expr_labels = np.loadtxt(
            os.path.join(path, "expression_labels.csv"), dtype=np.int64, comments="#"
        )
    except ValueError as exc:
        raise ContractError(f"corrupt expression label file: {exc}") from None
    au_label_list = labeling.read_labels_csv(os.path.join(path, "au_labels.csv"))
    au_labels = np.stack([lab.y for lab in au_label_list])
    return features, np.atleast_1d(expr_labels), au_labels, au_label_list


def _build_train_data(args, strategy):
    """TrainData of --data (and --test-data) with the pos-weights of
    --pos-weights-file, else of `strategy`, else none."""
    features, expr_labels, au_labels, au_label_list = _load_dataset_dir(args.data)
    kn = knowledge.import_knowledge(
        args.knowledge or os.path.join(args.data, "knowledge.csv")
    )
    spec = None
    if args.pos_weights_file:
        spec = labeling.read_pos_weights_csv(args.pos_weights_file)
    elif strategy is not None:
        spec = labeling.compute_pos_weights(au_label_list, strategy)
    data = harness.TrainData(
        features=features,
        expr_labels=expr_labels,
        au_labels=au_labels,
        knowledge=kn,
        pos_weights=spec,
    )
    if args.test_data:
        test_features, test_labels, _, _ = _load_dataset_dir(args.test_data)
        data.test_features = test_features
        data.test_expr_labels = test_labels
    return data, au_label_list


def cmd_train(args):
    config = _load_config(args)
    data, _ = _build_train_data(args, config.strategy)
    params, state, logs = harness.train(config, data)
    os.makedirs(args.out, exist_ok=True)
    model.save_checkpoint(params, state, os.path.join(args.out, "checkpoint.bin"))
    with open(os.path.join(args.out, "epochs.csv"), "w", encoding="utf-8") as fh:
        fh.write("# aukit epochs v1\n")
        fh.write("epoch,loss_e,loss_au,loss,train_war,train_uar,test_war,test_uar\n")
        for entry in logs:
            fh.write(
                f"{entry.epoch},{entry.loss_expression!r},{entry.loss_au!r},"
                f"{entry.loss_total!r},{entry.train_war!r},{entry.train_uar!r},"
                f"{entry.test_war!r},{entry.test_uar!r}\n"
            )
    print(f"trained {len(logs)} epochs -> {args.out}")
    return EXIT_OK


def cmd_eval(args):
    params, _ = model.load_checkpoint(args.checkpoint)
    features, expr_labels, _, _ = _load_dataset_dir(args.data)
    report = harness.evaluate(params, features, expr_labels)
    os.makedirs(args.out, exist_ok=True)
    harness.export_confusion(
        report,
        os.path.join(args.out, "confusion.csv"),
        os.path.join(args.out, "confusion.svg"),
    )
    recalls = ",".join(repr(float(v)) for v in report.per_class_recall)
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("# aukit metrics v1\n")
        fh.write(
            "war,uar," + ",".join(f"recall_{n}" for n in EXPRESSIONS) + "\n"
        )
        fh.write(f"{report.war!r},{report.uar!r},{recalls}\n")
    print(f"WAR={report.war:.4f} UAR={report.uar:.4f} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args):
    config = _load_config(args)
    data, _ = _build_train_data(args, config.strategy)
    grid = parse_numbers(args.grid.split(","), "--grid") if args.grid else list(
        harness.DEFAULT_LAMBDA_GRID
    )
    rows = harness.lambda_sweep(config, data, grid=grid)
    os.makedirs(args.out, exist_ok=True)
    harness.write_metric_rows(rows, os.path.join(args.out, "sweep.csv"), "lambda")
    print(f"{len(rows)} sweep rows -> {args.out}")
    return EXIT_OK


def cmd_compare_strategies(args):
    if args.pos_weights_file:
        raise ContractError(
            "compare-strategies computes each strategy's pos-weights; "
            "--pos-weights-file does not apply"
        )
    config = _load_config(args)
    data, au_label_list = _build_train_data(args, None)
    strategies = args.strategies.split(",") if args.strategies else list(
        labeling.STRATEGIES
    )
    rows = harness.strategy_compare(config, data, au_label_list, strategies)
    os.makedirs(args.out, exist_ok=True)
    harness.write_metric_rows(
        rows, os.path.join(args.out, "strategies.csv"), "strategy"
    )
    print(f"{len(rows)} strategy rows -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    logits = rng.normal(size=(args.batch, 7))
    labels = rng.integers(0, 7, size=args.batch)

    def evaluator(x):
        return expression_loss(x, labels)

    report = finite_difference_check(evaluator, logits, epsilon=args.eps)
    print(
        json.dumps(
            {
                "max_relative_error": report.max_relative_error,
                "parameters_checked": report.parameters_checked,
                "epsilon": report.epsilon,
            }
        )
    )
    if report.max_relative_error > 1e-5:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_export_confusion(args):
    confusion = harness.read_confusion_csv(args.confusion)
    report = harness.evaluate_predictions(
        np.repeat(np.arange(7), confusion.sum(axis=1)),
        np.concatenate([np.repeat(np.arange(7), confusion[i]) for i in range(7)]),
    )
    os.makedirs(args.out, exist_ok=True)
    harness.export_confusion(
        report,
        os.path.join(args.out, "confusion.csv"),
        os.path.join(args.out, "confusion.svg"),
    )
    print(f"confusion artifacts -> {args.out}")
    return EXIT_OK


def cmd_export_embeddings(args):
    params, _ = model.load_checkpoint(args.checkpoint)
    features, expr_labels, _, _ = _load_dataset_dir(args.data)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "embeddings.csv")
    harness.export_embeddings(params, features, expr_labels, out_path)
    print(f"embeddings -> {out_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aukit",
        description="AU-expression knowledge extraction and auxiliary-loss training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
        return p

    p = add("ingest", cmd_ingest, help="parse OpenFace CSV files into frame stores")
    p.add_argument("inputs", nargs="+")

    p = add("extract-knowledge", cmd_extract_knowledge)
    p.add_argument("--frames", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--min-confidence", type=float, default=0.8)

    p = add("aggregate-knowledge", cmd_aggregate_knowledge)
    p.add_argument("inputs", nargs="+")
    p.add_argument("--midpoint", choices=["compat", "general"], default="general")
    p.add_argument("--scale", action="store_true", help="also apply the x5 rescale")

    p = add("pseudo-label", cmd_pseudo_label)
    p.add_argument("--frames", required=True)
    p.add_argument("--video-labels", required=True)

    p = add("pos-weights", cmd_pos_weights)
    p.add_argument("--labels", required=True)
    p.add_argument(
        "--strategy", choices=list(labeling.STRATEGIES), default="distinct"
    )

    p = add("synth-gen", cmd_synth_gen)
    p.add_argument("--spec", default=None)
    p.add_argument("--n", type=int, default=2000)

    for name, fn in (
        ("train", cmd_train),
        ("sweep", cmd_sweep),
        ("compare-strategies", cmd_compare_strategies),
    ):
        p = add(name, fn)
        p.add_argument("--data", required=True)
        p.add_argument("--test-data", default=None)
        p.add_argument("--knowledge", default=None)
        p.add_argument("--pos-weights-file", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--strategy", default=None)
        p.add_argument("--epochs", type=int, default=None)
        if name == "sweep":
            p.add_argument("--grid", default=None)
        if name == "compare-strategies":
            p.add_argument("--strategies", default=None)

    p = add("eval", cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = add("gradcheck", cmd_gradcheck)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--eps", type=float, default=1e-5)

    p = add("export-confusion", cmd_export_confusion)
    p.add_argument("--confusion", required=True)

    p = add("export-embeddings", cmd_export_embeddings)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
