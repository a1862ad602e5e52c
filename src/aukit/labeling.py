"""Video-level AU pseudo-labels and the three positive-class-weight strategies."""

import logging
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    MAJOR_CLASSES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    expression_index,
    expression_name,
    is_major_class,
    parse_numbers,
)

log = logging.getLogger(__name__)

STRATEGIES = ("none", "global", "distinct", "minor")

PW_FLOOR = 1e-6


@dataclass
class VideoAULabel:
    """18-bit per-video AU label from frame-presence majorities."""

    video_id: str
    y: np.ndarray
    frame_count: int
    expression_label: int

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.shape != (NUM_AUS,):
            raise ContractError("y must be an 18-vector")
        if self.frame_count < 1:
            raise ContractError("frame_count must be >= 1")


@dataclass
class PosWeightSpec:
    """7x18 positive-class-weight matrix under one strategy."""

    strategy: str
    values: np.ndarray
    sample_counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (NUM_EXPRESSIONS, NUM_AUS):
            raise ContractError(f"values must be {NUM_EXPRESSIONS}x{NUM_AUS}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0):
            raise ContractError("pos-weights must be finite and > 0")
        if self.sample_counts is None:
            self.sample_counts = np.zeros(NUM_EXPRESSIONS, dtype=np.int64)


def derive_video_au_labels(frames, video_id, expression_label):
    """AU j is labeled 1 iff its presence sum over the video is >= half the frames."""
    n = len(frames)
    if not n:
        raise ContractError(f"empty video {video_id!r}: no frames to label")
    y = (frames["presences"].sum(axis=0) >= 0.5 * n).astype(np.int64)
    return VideoAULabel(
        video_id=video_id, y=y, frame_count=n, expression_label=expression_label
    )


def _ratio_weights(positives, count, context):
    """(negatives / positives) per AU with loud fallbacks for empty sides."""
    weights = np.empty(NUM_AUS)
    for j in range(NUM_AUS):
        pos = positives[j]
        if pos == 0:
            weights[j] = float(count)
            log.warning(
                "%s: no positive videos for %s; falling back to pw = %d",
                context, AU_NAMES[j], count,
            )
        elif pos == count:
            weights[j] = PW_FLOOR
            log.warning(
                "%s: every video positive for %s; flooring pw at %g",
                context, AU_NAMES[j], PW_FLOOR,
            )
        else:
            weights[j] = (count - pos) / pos
    return weights


def pos_weight_global(labels):
    """One negative/positive ratio per AU, shared by all 7 classes."""
    if not labels:
        raise ContractError("pos_weight_global needs a nonempty label list")
    c = len(labels)
    positives = np.sum([lab.y for lab in labels], axis=0)
    row = _ratio_weights(positives, c, "global")
    counts = np.zeros(NUM_EXPRESSIONS, dtype=np.int64)
    for lab in labels:
        counts[lab.expression_label] += 1
    return PosWeightSpec(
        strategy="global",
        values=np.tile(row, (NUM_EXPRESSIONS, 1)),
        sample_counts=counts,
    )


def pos_weight_distinct(labels):
    """Per-class negative/positive ratios; unpopulated classes get all-ones rows."""
    if not labels:
        raise ContractError("pos_weight_distinct needs a nonempty label list")
    values = np.ones((NUM_EXPRESSIONS, NUM_AUS))
    counts = np.zeros(NUM_EXPRESSIONS, dtype=np.int64)
    for i in range(NUM_EXPRESSIONS):
        class_labels = [lab for lab in labels if lab.expression_label == i]
        counts[i] = len(class_labels)
        if not class_labels:
            log.warning("no videos labeled %s; pos-weights left at 1", EXPRESSIONS[i])
            continue
        positives = np.sum([lab.y for lab in class_labels], axis=0)
        values[i] = _ratio_weights(positives, len(class_labels), EXPRESSIONS[i])
    return PosWeightSpec(strategy="distinct", values=values, sample_counts=counts)


def pos_weight_minor(labels):
    """Distinct weights on the three minor classes; major-class rows stay at 1."""
    distinct = pos_weight_distinct(labels)
    values = distinct.values.copy()
    for i in range(NUM_EXPRESSIONS):
        if is_major_class(i):
            values[i] = 1.0
    return PosWeightSpec(
        strategy="minor", values=values, sample_counts=distinct.sample_counts
    )


def pos_weight_none():
    """All-ones weights: plain unweighted binary cross-entropy."""
    return PosWeightSpec(
        strategy="none", values=np.ones((NUM_EXPRESSIONS, NUM_AUS))
    )


def compute_pos_weights(labels, strategy):
    if strategy == "none":
        return pos_weight_none()
    if strategy == "global":
        return pos_weight_global(labels)
    if strategy == "distinct":
        return pos_weight_distinct(labels)
    if strategy == "minor":
        return pos_weight_minor(labels)
    raise ContractError(f"unknown strategy: {strategy!r}")


def write_labels_csv(labels, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("video_id,expression,n," + ",".join(AU_NAMES) + "\n")
        for lab in labels:
            fh.write(
                f"{lab.video_id},{expression_name(lab.expression_label)},"
                f"{lab.frame_count}," + ",".join(str(v) for v in lab.y) + "\n"
            )


def read_labels_csv(path):
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("video_id,"):
        raise ContractError("corrupt label file: missing header")
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + NUM_AUS:
            raise ContractError("corrupt label file: bad row width")
        counts = parse_numbers(parts[2:], "label file", int)
        labels.append(
            VideoAULabel(
                video_id=parts[0],
                y=np.array(counts[1:], dtype=np.int64),
                frame_count=counts[0],
                expression_label=expression_index(parts[1]),
            )
        )
    return labels


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
