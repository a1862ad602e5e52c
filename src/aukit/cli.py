"""Command-line entry point: one executable with per-task subcommands.

Exit codes: 0 success, 1 usage/contract error, 2 numeric failure, 3 I/O error.
"""

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import harness, ingest, knowledge, labeling, model, synth
from .domain import (
    ContractError,
    EXPRESSIONS,
    KnowledgeMatrix,
    NUM_AUS,
    NUM_EXPRESSIONS,
    NumericFailure,
)
from .losses import au_loss, combined_loss, expression_loss, finite_difference_check
from .tables import numbers, read_table, write_table

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
        accepts, convert, expected = _JSON_FIELD_TYPES[declared[key].type]
        if not accepts(value):
            raise ContractError(
                f"{what} key {key!r} must be {expected}, got {json.dumps(value)}"
            )
        values[key] = convert(value)
    return values


def _load_config(args, varied=None):
    """Build a TrainConfig from --config JSON overridden by CLI flags.

    A --pos-weights-file replaces the strategy's pos-weights, so naming a
    strategy as well (flag or config key), or varying it, is a contract
    error. So is setting `varied`, the field a study sets per run.
    """
    values = {}
    if args.config:
        values = _load_json_fields(args.config, harness.TrainConfig, "config")
    for name in ("seed", "lam", "strategy", "epochs"):
        override = getattr(args, name)
        if override is not None:
            values[name] = override
    if args.pos_weights_file and ("strategy" in values or varied == "strategy"):
        raise ContractError(
            "--pos-weights-file replaces the strategy's pos-weights; "
            "give a strategy or the file, not both"
        )
    if varied in values:
        raise ContractError(f"{args.command} sets {varied} per run; "
                            f"give no --{varied} flag or {varied!r} config key")
    return harness.TrainConfig(**values)


def _frame_stores(frames_dir):
    """(video_id, path) of every frame store in frames_dir, by video id. The
    callers read one store at a time and reduce it (to its reliable frames,
    which a generator hands to the join, or to its AU labels) before the
    next, so no command holds every video's frames at once."""
    suffix = ingest.FRAME_STORE_SUFFIX
    video_ids = sorted(
        name[:-len(suffix)] for name in os.listdir(frames_dir) if name.endswith(suffix)
    )
    if not video_ids:
        raise ContractError(f"no frame stores (*{suffix}) found in {frames_dir}")
    return [(video_id, os.path.join(frames_dir, video_id + suffix))
            for video_id in video_ids]


@contextlib.contextmanager
def _naming(path):
    """Prefix the contract errors of reading the CSV file at `path` with
    the path; a file that is not UTF-8 text is one of them."""
    try:
        yield
    except UnicodeDecodeError:
        raise ContractError(f"{path}: not UTF-8 text") from None
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


def cmd_ingest(args):
    paths = {}  # video id, the file stem that names its store -> input path
    for path in args.inputs:
        video_id = os.path.splitext(os.path.basename(path))[0]
        if video_id != video_id.strip() or any(c in video_id for c in ',"\n\r'):
            # no prediction CSV cell can name such an id
            raise ContractError(f"{path}: video id {video_id!r} holds a comma, quote or "
                                "line break, or leading or trailing whitespace")
        if video_id in paths:
            raise ContractError(f"two inputs share the video id {video_id!r}: "
                                f"{paths[video_id]} and {path}")
        paths[video_id] = path
    os.makedirs(args.out, exist_ok=True)
    # files are read in groups; one read alone raises its own error in turn
    for video_id, path, frames in ingest.read_openface_files(paths.items()):
        if frames is None:
            with _naming(path), open(path, "r", encoding="utf-8") as fh:
                frames = ingest.interpolate_zero_intensities(
                    ingest.parse_openface_csv(fh, video_id), video_id)
        out_path = os.path.join(args.out, video_id + ingest.FRAME_STORE_SUFFIX)
        ingest.write_frame_store(frames, out_path)
        print(f"{video_id}: {len(frames)} frames -> {out_path}")
        del frames  # a view of its group's rows: they are freed before the next group
    return EXIT_OK


def cmd_extract_knowledge(args):
    rows = knowledge.ReliableRows(args.theta)  # applied as each block is read
    with _naming(args.preds), open(args.preds, "r", encoding="utf-8") as fh:
        video_ids = ingest.read_predictions(fh, rows.add)
    reliable = rows.frame_set(video_ids)  # theta's range, then duplicates
    # only the stores of videos with a reliable prediction can add a frame
    named = set(reliable.video_ids.tolist())
    # read as the join asks for them: one store and its reliable frames at a time
    videos = (
        (video_id,
         ingest.reliable_detections(ingest.read_frame_store(path), args.min_confidence))
        for video_id, path in _frame_stores(args.frames) if video_id in named
    )
    matrix = knowledge.compute_dataset_knowledge(videos, reliable)
    knowledge.export_knowledge(matrix, args.out)
    print(f"knowledge matrix (per-dataset) -> {args.out}")
    return EXIT_OK


def cmd_aggregate_knowledge(args):
    matrices = [knowledge.import_knowledge(path) for path in args.inputs]
    aggregate = knowledge.aggregate_knowledge(matrices, midpoint_policy=args.midpoint)
    if args.scale:
        aggregate = knowledge.scale_for_loss(aggregate)
    knowledge.export_knowledge(aggregate, args.out)
    print(f"knowledge matrix ({aggregate.stage}) -> {args.out}")
    return EXIT_OK


def cmd_pseudo_label(args):
    stores = _frame_stores(args.frames)
    video_ids = [video_id for video_id, _ in stores]
    expr_by_video = labeling.read_video_labels_csv(args.video_labels)
    missing = [video_id for video_id in video_ids if video_id not in expr_by_video]
    if missing:
        raise ContractError(
            f"no label in {args.video_labels} for videos: {', '.join(missing)}"
        )
    lengths, au_labels = [], []
    for video_id, path in stores:
        frames = ingest.read_frame_store(path)
        lengths.append(len(frames))
        au_labels.append(labeling.derive_video_au_labels(frames, video_id))
    table = labeling.label_table(
        video_ids, [expr_by_video[video_id] for video_id in video_ids], lengths,
        au_labels,
    )
    labeling.write_labels_csv(table, args.out)
    print(f"{len(table)} video AU labels -> {args.out}")
    return EXIT_OK


def cmd_pos_weights(args):
    table = labeling.read_labels_csv(args.labels)
    spec = labeling.compute_pos_weights(table["y"], table["expression"], args.strategy)
    os.makedirs(args.out, exist_ok=True)
    labeling.write_pos_weights_csv(spec, os.path.join(args.out, "pos_weights.csv"))
    print(f"pos-weights ({args.strategy}) -> {args.out}")
    return EXIT_OK


def cmd_synth_gen(args):
    # flags win over the spec, as over --config; 2000 samples if neither counts
    spec_kwargs = {"total": 2000}
    if args.spec:
        spec_kwargs.update(_load_json_fields(args.spec, synth.SynthSpec, "spec"))
    flags = {"total": args.n, "seed": args.seed}
    spec_kwargs.update((k, v) for k, v in flags.items() if v is not None)
    spec = synth.SynthSpec(**spec_kwargs)
    dataset = synth.generate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    model.save_features(dataset.features, os.path.join(args.out, "features.bin"))
    write_table(os.path.join(args.out, "expression_labels.csv"),
                ([label] for label in dataset.expr_labels.tolist()),
                meta=("expression_index",))
    ids = [f"synth-{i:05d}" for i in range(spec.total)]  # one-frame videos
    table = labeling.label_table(ids, dataset.expr_labels, 1, dataset.au_presence)
    labeling.write_labels_csv(table, os.path.join(args.out, "au_labels.csv"))
    knowledge.export_knowledge(
        dataset.knowledge, os.path.join(args.out, "knowledge.csv")
    )
    print(f"synthetic dataset (N={spec.total}) -> {args.out}")
    return EXIT_OK


def _load_dataset_dir(path):
    """Features (in model.TRAIN_DTYPE, which training and evaluation run
    in), expression labels and N x 18 AU bits of a dataset directory, whose
    au_labels.csv must list the expressions of expression_labels.csv."""
    features = model.load_features(os.path.join(path, "features.bin"))
    table = labeling.read_labels_csv(os.path.join(path, "au_labels.csv"))
    what = "expression label file"
    _, rows = read_table(os.path.join(path, "expression_labels.csv"), what, width=1)
    try:
        expr_labels = np.array([int(cells[0]) for _, cells in rows], dtype=np.int64)
    except (ValueError, OverflowError):
        for line, cells in rows:  # words the error
            numbers(cells, what, line, int)
    if len(table) != len(expr_labels):
        raise ContractError(f"{path}: au_labels.csv has {len(table)} rows, "
                            f"expression_labels.csv {len(expr_labels)}")
    if len(features) != len(expr_labels):
        raise ContractError(f"{path}: features.bin has {len(features)} rows, "
                            f"the label files {len(expr_labels)}")
    differ = np.flatnonzero(table["expression"] != expr_labels)
    if differ.size:
        raise ContractError(f"{path}: au_labels.csv and expression_labels.csv "
                            f"disagree on the expression of video {differ[0] + 1}")
    return features, expr_labels, table["y"]


def _build_train_data(args):
    """TrainData of --data (and --test-data) with the pos-weights of
    --pos-weights-file; without one, training takes the config's strategy's."""
    features, expr_labels, au_labels = _load_dataset_dir(args.data)
    kn = knowledge.import_knowledge(
        args.knowledge or os.path.join(args.data, "knowledge.csv")
    )
    spec = test_features = test_labels = None
    if args.pos_weights_file:
        spec = labeling.read_pos_weights_csv(args.pos_weights_file)
    if args.test_data:
        test_features, test_labels, _ = _load_dataset_dir(args.test_data)
    return harness.TrainData(
        features=features,
        expr_labels=expr_labels,
        au_labels=au_labels,
        knowledge=kn,
        pos_weights=spec,
        test_features=test_features,
        test_expr_labels=test_labels,
    )


def cmd_train(args):
    config = _load_config(args)
    data = _build_train_data(args)
    params, _, (logs,) = harness.train([config], data, every_epoch=True)
    os.makedirs(args.out, exist_ok=True)
    model.save_checkpoint(params.run(0), os.path.join(args.out, "checkpoint.bin"))
    nan = float("nan")
    write_table(
        os.path.join(args.out, "epochs.csv"),
        ([e.epoch, e.loss_expression, e.loss_au, e.loss_total, e.train.war,
          e.train.uar, e.test.war if e.test else nan, e.test.uar if e.test else nan]
         for e in logs),
        ("epoch", "loss_e", "loss_au", "loss", "train_war", "train_uar", "test_war",
         "test_uar"),
        meta=("aukit epochs v1",),
    )
    print(f"trained {len(logs)} epochs -> {args.out}")
    return EXIT_OK


def cmd_eval(args):
    params = model.load_checkpoint(args.checkpoint)
    features, expr_labels, _ = _load_dataset_dir(args.data)
    report = harness.evaluate(params, features, expr_labels)
    os.makedirs(args.out, exist_ok=True)
    harness.export_confusion(report, args.out)
    write_table(
        os.path.join(args.out, "metrics.csv"),
        [[report.war, report.uar, *report.per_class_recall]],
        ("war", "uar", *(f"recall_{name}" for name in EXPRESSIONS)),
        meta=("aukit metrics v1",),
    )
    print(f"WAR={report.war:.4f} UAR={report.uar:.4f} -> {args.out}")
    return EXIT_OK


def _listed(value):
    """The items of a comma-separated list flag; an empty value lists none."""
    return value.split(",") if value else []


def _grid(values):
    """--grid's values as numbers."""
    try:
        return [float(value) for value in values]
    except ValueError:
        raise ContractError(
            f"--grid must list numbers, got {','.join(values)!r}") from None


# a study subcommand: the TrainConfig field it sets per run, the list flag
# that gives the values, its default and parser, the table it writes and the
# name of its rows
STUDIES = {
    "sweep": ("lam", "grid", harness.DEFAULT_LAMBDA_GRID, _grid, "sweep.csv",
              "sweep"),
    "compare-strategies": ("strategy", "strategies", labeling.STRATEGIES, list,
                           "strategies.csv", "strategy"),
}


def cmd_study(args):
    field, flag, _, parse, table, rows_name = STUDIES[args.command]
    config = _load_config(args, varied=field)
    data = _build_train_data(args)
    rows = harness.study(config, data, field, parse(getattr(args, flag)))
    os.makedirs(args.out, exist_ok=True)
    harness.write_metric_rows(rows, os.path.join(args.out, table),
                              harness.STUDY_FIELDS[field][0])
    print(f"{len(rows)} {rows_name} rows -> {args.out}")
    return EXIT_OK


# bound on each gradient check's max relative error; the model's is looser,
# as in the acceptance gate, since its differences pass through ReLU kinks
GRADCHECK_BOUNDS = {"expression_loss": 1e-5, "au_loss": 1e-5, "model": 1e-4}
# the largest relative difference between harness.Step's per-run losses and
# the public losses on each run's own batch and pos-weight table
GRADCHECK_LOSS_BOUND = 1e-10


def cmd_gradcheck(args):
    """Check, in float64, the analytic gradients of what a training step
    uses against central differences: expression_loss and au_loss wrt their
    logits, and harness.Step's gradient of the summed combined loss wrt every
    parameter of a stack of 3 runs, each with its own seed, lambda,
    pos-weight table and batch. The model check also compares each run's
    losses from the step with expression_loss and au_loss on that run's own
    batch and table, which a gradient that matches its own loss cannot."""
    seed = args.seed if args.seed is not None else 0
    if args.batch < 1 or seed < 0:
        raise ContractError("--batch must be >= 1 and --seed >= 0")
    rng = np.random.default_rng(seed)
    shape = (3, args.batch)  # runs, batch
    labels = rng.integers(0, NUM_EXPRESSIONS, size=shape)
    au_labels = rng.integers(0, 2, size=(*shape, NUM_AUS)).astype(np.float64)
    kn = KnowledgeMatrix(rng.uniform(0.2, 4.8, (NUM_AUS, NUM_EXPRESSIONS)), "loss-scaled")
    pw = rng.uniform(0.5, 6.0, (3, NUM_EXPRESSIONS, NUM_AUS))
    lams = rng.uniform(0.1, 0.9, 3)
    # two hidden layers cover all of backward; biases off zero keep units off ReLU kinks
    params = model.stack_params([model.init_params(seed + r, feature_dim=6, hidden=(4, 3))
                                 for r in range(3)])
    for b in params.hidden_biases:
        b[...] = rng.uniform(0.1, 0.5, b.shape)
    features = rng.normal(size=(*shape, 6))
    step = harness.Step(lams, kn, pw, args.batch, np.float64)

    def stacked(vector):
        params.vector[...] = vector
        grads = np.empty_like(vector)
        loss_e, loss_au = step(params, features, labels, au_labels, params.views(grads))
        return combined_loss(loss_e, loss_au, lams).sum(), grads

    specs = [labeling.PosWeightSpec("global", table) for table in pw]
    step_losses = np.array(step(params, features, labels, au_labels,
                                params.views(np.empty_like(params.vector))))
    own_losses = np.empty_like(step_losses)  # 2 x R: expression, AU
    for r, spec in enumerate(specs):
        expr_logits, au_logits, _ = model.forward(params.run(r), features[r])
        own_losses[:, r] = (expression_loss(expr_logits, labels[r])[0],
                            au_loss(au_logits, au_labels[r], labels[r], kn, spec)[0])
    loss_error = float(np.max(np.abs(step_losses - own_losses) / np.maximum(
        1e-8, np.abs(step_losses) + np.abs(own_losses))))
    checks = {
        "expression_loss": (lambda x: expression_loss(x, labels[0]),
                            rng.normal(scale=2.0, size=(args.batch, NUM_EXPRESSIONS))),
        "au_loss": (lambda x: au_loss(x, au_labels[0], labels[0], kn, specs[0]),
                    rng.normal(scale=2.0, size=(args.batch, NUM_AUS))),
        "model": (stacked, params.vector.copy()),
    }
    results = {}
    for name, (evaluator, point) in checks.items():
        report = finite_difference_check(evaluator, point, epsilon=args.eps)
        error = float(report.max_relative_error)
        results[name] = {
            "max_relative_error": error,
            "parameters_checked": report.parameters_checked,
            "bound": GRADCHECK_BOUNDS[name],
            "passed": error <= GRADCHECK_BOUNDS[name],
        }
    results["model"].update(loss_relative_error=loss_error, loss_bound=GRADCHECK_LOSS_BOUND)
    results["model"]["passed"] &= loss_error <= GRADCHECK_LOSS_BOUND
    passed = all(result["passed"] for result in results.values())
    print(json.dumps({"passed": passed, "epsilon": args.eps, "checks": results}))
    return EXIT_OK if passed else EXIT_NUMERIC


def cmd_export_confusion(args):
    report = harness.report_from_confusion(harness.read_confusion_csv(args.confusion))
    os.makedirs(args.out, exist_ok=True)
    harness.export_confusion(report, args.out)
    print(f"confusion artifacts -> {args.out}")
    return EXIT_OK


def cmd_export_embeddings(args):
    params = model.load_checkpoint(args.checkpoint)
    features, expr_labels, _ = _load_dataset_dir(args.data)
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

    def add(name, fn, seed=False, **kwargs):
        """A subcommand; only those that read a seed take --seed."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if seed:
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
    p.add_argument("--midpoint", choices=knowledge.MIDPOINT_POLICIES, default="general")
    p.add_argument("--scale", action="store_true", help="also apply the x5 rescale")

    p = add("pseudo-label", cmd_pseudo_label)
    p.add_argument("--frames", required=True)
    p.add_argument("--video-labels", required=True)

    p = add("pos-weights", cmd_pos_weights)
    p.add_argument("--labels", required=True)
    p.add_argument(
        "--strategy", choices=list(labeling.STRATEGIES), default="distinct"
    )

    p = add("synth-gen", cmd_synth_gen, seed=True)
    p.add_argument("--spec", default=None)
    p.add_argument("--n", type=int, default=None)

    for name in ("train", *STUDIES):
        p = add(name, cmd_study if name in STUDIES else cmd_train, seed=True)
        p.add_argument("--data", required=True)
        p.add_argument("--test-data", default=None)
        p.add_argument("--knowledge", default=None)
        p.add_argument("--pos-weights-file", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--lam", type=float, default=None)
        p.add_argument("--strategy", default=None)
        p.add_argument("--epochs", type=int, default=None)
        if name in STUDIES:
            flag, default = STUDIES[name][1:3]
            p.add_argument(f"--{flag}", type=_listed, default=default)

    p = add("eval", cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = add("gradcheck", cmd_gradcheck, seed=True,
            help="check expression_loss, au_loss and a training step's "
                 "gradients against central differences, in float64")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; it exits 2 on a usage error, which
        # is the numeric-failure code here, and 0 after --help
        if exc.code:
            raise SystemExit(EXIT_CONTRACT) from None
        raise
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
