"""Video-level AU pseudo-labels and the three positive-class-weight strategies."""

import logging
from dataclasses import dataclass

import numpy as np

from .domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    MAJOR_MASK,
    NUM_AUS,
    NUM_EXPRESSIONS,
    expression_index,
    expression_name,
    parse_numbers,
    video_table,
)

log = logging.getLogger(__name__)

STRATEGIES = ("none", "global", "distinct", "minor")

PW_FLOOR = 1e-6

LABEL_FIELDS = [("expression", "<i8"), ("n", "<i8"), ("y", "u1", (NUM_AUS,))]


def label_table(video_ids, expressions, frame_counts, au_labels):
    """Video AU labels as one table (see domain.video_table): video_id,
    expression (index 0..6), n (the video's frame count), y (18 AU bits)."""
    return video_table(video_ids, LABEL_FIELDS, expression=expressions,
                       n=frame_counts, y=au_labels)


@dataclass
class PosWeightSpec:
    """7x18 positive-class-weight matrix under one strategy."""

    strategy: str
    values: np.ndarray

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (NUM_EXPRESSIONS, NUM_AUS):
            raise ContractError(f"values must be {NUM_EXPRESSIONS}x{NUM_AUS}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ContractError("pos-weights must be finite and > 0")


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


def _label_columns(au_labels, expr_labels):
    """N x 18 AU bits as integers and N >= 1 expression labels, checked."""
    au_labels, expr_labels = np.asarray(au_labels), np.asarray(expr_labels)
    n = len(expr_labels)
    if not n or expr_labels.shape != (n,) or au_labels.shape != (n, NUM_AUS):
        raise ContractError(
            f"pos-weights need N >= 1 expression labels and N x {NUM_AUS} AU labels"
        )
    if np.any((expr_labels < 0) | (expr_labels >= NUM_EXPRESSIONS)):
        raise ContractError("expression label out of range")
    return au_labels.astype(np.int64), expr_labels


def pos_weight_global(au_labels, expr_labels):
    """One negative/positive ratio per AU, shared by all 7 classes."""
    au_labels, _ = _label_columns(au_labels, expr_labels)
    row = _ratio_weights(au_labels.sum(axis=0), len(au_labels), "global")
    return PosWeightSpec(strategy="global", values=np.tile(row, (NUM_EXPRESSIONS, 1)))


def pos_weight_distinct(au_labels, expr_labels):
    """Per-class negative/positive ratios; unpopulated classes get all-ones rows."""
    au_labels, expr_labels = _label_columns(au_labels, expr_labels)
    values = np.ones((NUM_EXPRESSIONS, NUM_AUS))
    for i in range(NUM_EXPRESSIONS):
        in_class = au_labels[expr_labels == i]
        if not len(in_class):
            log.warning("no videos labeled %s; pos-weights left at 1", EXPRESSIONS[i])
            continue
        values[i] = _ratio_weights(in_class.sum(axis=0), len(in_class), EXPRESSIONS[i])
    return PosWeightSpec(strategy="distinct", values=values)


def pos_weight_minor(au_labels, expr_labels):
    """Distinct weights on the three minor classes; major-class rows stay at 1."""
    values = pos_weight_distinct(au_labels, expr_labels).values
    values[MAJOR_MASK] = 1.0
    return PosWeightSpec(strategy="minor", values=values)


def pos_weight_none():
    """All-ones weights: plain unweighted binary cross-entropy."""
    return PosWeightSpec(
        strategy="none", values=np.ones((NUM_EXPRESSIONS, NUM_AUS))
    )


def compute_pos_weights(au_labels, expr_labels, strategy):
    """The 7x18 pos-weights of `strategy` from N x 18 AU bits and their N
    expression labels."""
    if strategy == "none":
        return pos_weight_none()
    if strategy == "global":
        return pos_weight_global(au_labels, expr_labels)
    if strategy == "distinct":
        return pos_weight_distinct(au_labels, expr_labels)
    if strategy == "minor":
        return pos_weight_minor(au_labels, expr_labels)
    raise ContractError(f"unknown strategy: {strategy!r}")


def write_labels_csv(table, path):
    """A label_table as CSV: video_id, expression name, n, then the 18 AU bits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("video_id,expression,n," + ",".join(AU_NAMES) + "\n")
        for row in table:
            fh.write(
                f"{row['video_id']},{expression_name(row['expression'])},"
                f"{row['n']}," + ",".join(str(v) for v in row["y"]) + "\n"
            )


def read_labels_csv(path):
    """Inverse of write_labels_csv; n must be >= 1 and every AU cell 0 or 1."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("video_id,"):
        raise ContractError("corrupt label file: missing header")
    video_ids, expressions, counts, au_labels = [], [], [], []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + NUM_AUS:
            raise ContractError("corrupt label file: bad row width")
        numbers = parse_numbers(parts[2:], "label file", int)
        if numbers[0] < 1:
            raise ContractError(
                f"corrupt label file line {line_number}: n = {numbers[0]} < 1"
            )
        bad = [j for j, v in enumerate(numbers[1:]) if v not in (0, 1)]
        if bad:
            raise ContractError(
                f"corrupt label file line {line_number}: "
                f"{AU_NAMES[bad[0]]} = {numbers[1 + bad[0]]} not in {{0, 1}}"
            )
        video_ids.append(parts[0])
        expressions.append(expression_index(parts[1]))
        counts.append(numbers[0])
        au_labels.append(numbers[1:])
    return label_table(
        video_ids, expressions, counts, np.reshape(au_labels, (-1, NUM_AUS))
    )


def read_video_labels_csv(path):
    """video_id -> expression index from a `video_id,label` file, one row per video."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != ["video_id", "label"]:
        raise ContractError(f"{path}: header must be 'video_id,label'")
    expr_by_video = {}
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2 or not cells[0]:
            raise ContractError(f"{path} line {line_number}: expected 'video_id,label'")
        if cells[0] in expr_by_video:
            raise ContractError(
                f"{path} line {line_number}: duplicate video {cells[0]!r}"
            )
        expr_by_video[cells[0]] = expression_index(cells[1])
    return expr_by_video


def write_pos_weights_csv(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# strategy={spec.strategy}\n")
        fh.write("expression," + ",".join(AU_NAMES) + "\n")
        for i in range(NUM_EXPRESSIONS):
            fh.write(
                EXPRESSIONS[i] + ","
                + ",".join(repr(float(v)) for v in spec.values[i]) + "\n"
            )


def read_pos_weights_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# strategy="):
        raise ContractError("corrupt pos-weight file: missing strategy line")
    strategy = lines[0].split("=", 1)[1].strip()
    rows = [ln for ln in lines[1:] if ln.strip() and not ln.startswith("expression,")]
    if len(rows) != NUM_EXPRESSIONS:
        raise ContractError("corrupt pos-weight file: bad row count")
    cells = [row.split(",")[1:] for row in rows]
    if any(len(row) != NUM_AUS for row in cells):
        raise ContractError("corrupt pos-weight file: bad row width")
    values = np.array([parse_numbers(row, "pos-weight file") for row in cells])
    return PosWeightSpec(strategy=strategy, values=values)
