"""Video-level AU pseudo-labels and the four positive-class-weight strategies."""

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    MAJOR_MASK,
    NUM_AUS,
    NUM_EXPRESSIONS,
    check_au_labels,
    expression_index,
    expression_labels,
    expression_name,
)
from .tables import (
    meta_fields,
    numbers,
    read_matrix,
    read_table,
    write_matrix,
    write_table,
)

log = logging.getLogger(__name__)

STRATEGIES = ("none", "global", "distinct", "minor")

PW_FLOOR = 1e-6

LABEL_HEADER = ("video_id", "expression", "n", *AU_NAMES)
POS_WEIGHT_HEADER = ("expression", *AU_NAMES)


def label_table(video_ids, expressions, frame_counts, au_labels):
    """Video AU labels as one structured array: video_id (as wide as the
    longest id), expression (index 0..6), n (the video's frame count), y (18
    AU bits)."""
    video_ids = np.asarray(video_ids, dtype=str)
    table = np.empty(len(video_ids), dtype=[
        ("video_id", video_ids.dtype), ("expression", "<i8"), ("n", "<i8"),
        ("y", "u1", (NUM_AUS,))])
    table["video_id"], table["expression"] = video_ids, expressions
    table["n"], table["y"] = frame_counts, au_labels
    return table


@dataclass(frozen=True)
class PosWeightSpec:
    """7x18 positive-class-weight matrix under one strategy; only finite
    values > 0 construct, held as a read-only copy."""

    strategy: str
    values: np.ndarray

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        # a copy, so freezing it never freezes the caller's array
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (NUM_EXPRESSIONS, NUM_AUS):
            raise ContractError(f"values must be {NUM_EXPRESSIONS}x{NUM_AUS}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise ContractError("pos-weights must be finite and > 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def derive_video_au_labels(frames, video_id):
    """A video's 18 AU bits: AU j is 1 iff its presence sum over the video is
    >= half the frames."""
    n = len(frames)
    if not n:
        raise ContractError(f"empty video {video_id!r}: no frames to label")
    return (frames["presences"].sum(axis=0) >= 0.5 * n).astype(np.uint8)


def _ratio_weights(positives, count, context):
    """(negatives / positives) per AU with loud fallbacks for empty sides."""
    none, every = positives == 0, positives == count
    for j in np.flatnonzero(none | every):
        if none[j]:
            log.warning("%s: no positive videos for %s; falling back to pw = %d",
                        context, AU_NAMES[j], count)
        else:
            log.warning("%s: every video positive for %s; flooring pw at %g",
                        context, AU_NAMES[j], PW_FLOOR)
    ratios = (count - positives) / np.maximum(positives, 1)
    return np.select([none, every], [float(count), PW_FLOOR], ratios)


def compute_pos_weights(au_labels, expr_labels, strategy):
    """The 7x18 pos-weights of `strategy` from N >= 1 videos' 18 AU bits
    (N x 18) and their expression labels (N):

    - none: all ones, plain unweighted binary cross-entropy;
    - global: one negative/positive ratio per AU, shared by all 7 classes;
    - distinct: each class's own ratios; an unpopulated class's row stays 1;
    - minor: distinct's rows for the three minor classes, the major-class
      rows at 1 (they are not computed, so they log no fallback).
    """
    if strategy not in STRATEGIES:
        raise ContractError(f"unknown strategy: {strategy!r}")
    au_labels, expr_labels = np.asarray(au_labels), np.asarray(expr_labels)
    n = len(expr_labels)
    if not n or expr_labels.shape != (n,) or au_labels.shape != (n, NUM_AUS):
        raise ContractError(
            f"pos-weights need N >= 1 expression labels and N x {NUM_AUS} AU labels"
        )
    expr_labels = expression_labels(expr_labels)
    check_au_labels(au_labels)
    au_labels = au_labels.astype(np.int64)
    values = np.ones((NUM_EXPRESSIONS, NUM_AUS))
    if strategy == "global":
        values[:] = _ratio_weights(au_labels.sum(axis=0), n, "global")
    classes = {"distinct": range(NUM_EXPRESSIONS),
               "minor": np.flatnonzero(~MAJOR_MASK)}.get(strategy, ())
    for i in classes:
        in_class = au_labels[expr_labels == i]
        if not len(in_class):
            log.warning("no videos labeled %s; pos-weights left at 1", EXPRESSIONS[i])
            continue
        values[i] = _ratio_weights(in_class.sum(axis=0), len(in_class), EXPRESSIONS[i])
    return PosWeightSpec(strategy=strategy, values=values)


def write_labels_csv(table, path):
    """A label_table as CSV: video_id, expression name, n, then the 18 AU bits."""
    rows = zip(table["video_id"].tolist(), table["expression"].tolist(),
               table["n"].tolist(), table["y"].tolist())
    write_table(path, ([video_id, expression_name(expression), n, *y]
                       for video_id, expression, n, y in rows), LABEL_HEADER)


def _expression_at(label, what, line):
    """The expression index of the label in column 2 of file line `line`; an
    unknown label is a ContractError naming the file, line and column."""
    try:
        return expression_index(label)
    except ContractError:
        raise ContractError(f"corrupt {what}: unknown expression label {label!r} "
                            f"at line {line}, column 2") from None


def read_labels_csv(path):
    """Inverse of write_labels_csv; n must be >= 1 and every AU cell 0 or 1."""
    what = "label file"
    _, rows = read_table(path, what, LABEL_HEADER)
    columns = np.fromiter(chain.from_iterable(
        numbers(cells[2:], what, line, int, column=3) for line, cells in rows
    ), dtype=np.int64).reshape(-1, 1 + NUM_AUS)
    counts, au_labels = columns[:, 0], columns[:, 1:]
    non_binary = (au_labels != 0) & (au_labels != 1)
    bad = np.flatnonzero((counts < 1) | non_binary.any(axis=1))
    if bad.size:
        r = bad[0]
        problem = f"n = {counts[r]} < 1"
        if counts[r] >= 1:
            j = np.argmax(non_binary[r])
            problem = f"{AU_NAMES[j]} = {au_labels[r, j]} not in {{0, 1}}"
        raise ContractError(f"corrupt {what} line {rows[r][0]}: {problem}")
    return label_table([cells[0] for _, cells in rows],
                       [_expression_at(cells[1], what, line) for line, cells in rows],
                       counts, au_labels)


def read_video_labels_csv(path):
    """video_id -> expression index from a `video_id,label` file, one row per video."""
    what = f"video label file {path}"
    _, rows = read_table(path, what, ("video_id", "label"))
    expr_by_video = {}
    for line, (video_id, label) in rows:
        if not video_id or video_id in expr_by_video:
            problem = "duplicate" if video_id else "empty"
            raise ContractError(
                f"corrupt {what}: {problem} video {video_id!r} at line {line}"
            )
        expr_by_video[video_id] = _expression_at(label, what, line)
    return expr_by_video


def write_pos_weights_csv(spec, path):
    write_matrix(path, EXPRESSIONS, spec.values, POS_WEIGHT_HEADER,
                 meta=(f"strategy={spec.strategy}",))


def read_pos_weights_csv(path):
    what = "pos-weight file"
    meta, values = read_matrix(path, what, EXPRESSIONS, NUM_AUS, POS_WEIGHT_HEADER)
    (strategy,) = meta_fields(meta, what, strategy=str)
    return PosWeightSpec(strategy=strategy, values=values)
