"""AU-expression knowledge extraction and cross-dataset aggregation.

Pipeline: keep only frames whose asserted expression score clears a threshold,
take per-class medians of the 17 AU intensities, substitute the AU28 row with
the mean of the other 17, center the raw 18x7 matrix on its (max+min)/2
midpoint, squash through a sigmoid, then (across datasets) sum, re-center and
squash again. A final x5 puts the weights back on the OpenFace intensity scale.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    AU28_INDEX,
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    INTENSITY_TO_PRESENCE,
    KnowledgeMatrix,
    NUM_AUS,
    NUM_EXPRESSIONS,
    parse_numbers,
)

log = logging.getLogger(__name__)

KNOWLEDGE_FILE_VERSION = 1
TOOL_VERSION = "aukit 0.1.0"

MIDPOINT_POLICIES = ("compat", "general")


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class ReliableFrameSet:
    """Frames whose asserted-label score strictly exceeded theta."""

    dataset_id: str
    theta: float
    members: dict  # (video_id, frame_index) -> expression index
    per_class_counts: np.ndarray = field(default=None)

    def __post_init__(self):
        counts = np.zeros(NUM_EXPRESSIONS, dtype=np.int64)
        for label in self.members.values():
            counts[label] += 1
        self.per_class_counts = counts


def filter_reliable_frames(predictions, theta, dataset_id="dataset"):
    """Keep frames with scores[asserted_label] > theta (strict).

    Two predictions for one (video, frame) are a contract violation.
    """
    if not 0.0 <= theta <= 1.0:
        raise ContractError(f"theta must be in [0, 1], got {theta}")
    members = {}
    seen = set()
    for p in predictions:
        key = (p.video_id, p.frame_index)
        if key in seen:
            raise ContractError(
                f"duplicate prediction for video {p.video_id!r} frame {p.frame_index}"
            )
        seen.add(key)
        if p.scores[p.asserted_label] > theta:
            members[key] = p.asserted_label
    result = ReliableFrameSet(dataset_id=dataset_id, theta=theta, members=members)
    if not members:
        log.warning("no frames survive theta = %s", theta)
    return result


def compute_dataset_knowledge(videos, reliable, theta=None, classes=None):
    """Per-dataset 18x7 knowledge matrix from one dataset's frames.

    `videos` is a list of (video_id, frames) pairs. Every expression class
    must have at least one reliable frame; classes without any are reported
    rather than silently imputed. A corpus that deliberately covers only a
    subset of classes can declare that subset via `classes`; the remaining
    columns come out as the uninformative 0.5 with zero support, and the
    centering midpoint ignores them.
    """
    theta = reliable.theta if theta is None else theta
    if classes is None:
        classes = tuple(range(NUM_EXPRESSIONS))
    classes = tuple(sorted(set(int(c) for c in classes)))
    if any(c < 0 or c >= NUM_EXPRESSIONS for c in classes) or not classes:
        raise ContractError(f"invalid class subset: {classes}")
    # each frame's reliable label, -1 for frames outside the reliable set
    labels = np.array([
        reliable.members.get((video_id, frame), -1)
        for video_id, frames in videos
        for frame in frames["frame_index"].tolist()
    ], dtype=np.int64)
    counts = np.bincount(labels + 1, minlength=NUM_EXPRESSIONS + 1)[1:]

    empty = [EXPRESSIONS[c] for c in classes if not counts[c]]
    if empty:
        raise ContractError(
            f"no reliable frames for classes: {', '.join(empty)}"
        )

    intensities = np.concatenate([frames["intensities"] for _, frames in videos])
    raw = np.empty((NUM_AUS, NUM_EXPRESSIONS))
    populated = np.zeros(NUM_EXPRESSIONS, dtype=bool)
    populated[list(classes)] = True
    support = np.zeros((NUM_AUS, NUM_EXPRESSIONS), dtype=np.int64)
    for c in classes:
        medians = np.median(intensities[labels == c], axis=0)
        raw[INTENSITY_TO_PRESENCE, c] = medians
        # AU28 has no intensity track; stand in with the mean of the 17 medians
        raw[AU28_INDEX, c] = medians.mean()
        support[:, c] = counts[c]

    midpoint = 0.5 * (raw[:, populated].max() + raw[:, populated].min())
    values = np.full((NUM_AUS, NUM_EXPRESSIONS), 0.5)
    values[:, populated] = sigmoid(raw[:, populated] - midpoint)
    return KnowledgeMatrix(
        values=values,
        stage="per-dataset",
        dataset_count=1,
        theta=theta,
        support=support,
    )


def aggregate_knowledge(matrices, midpoint_policy="general"):
    """Sum per-dataset matrices, re-center, and sigmoid-normalize.

    'compat' subtracts the fixed 2.5 midpoint; 'general' subtracts D/2 so the
    centering stays symmetric for any dataset count D.
    """
    if not matrices:
        raise ContractError("aggregate_knowledge needs at least one input matrix")
    if midpoint_policy not in MIDPOINT_POLICIES:
        raise ContractError(f"unknown midpoint policy: {midpoint_policy!r}")
    for m in matrices:
        if m.stage != "per-dataset":
            raise ContractError(
                f"aggregate_knowledge expects per-dataset inputs, got {m.stage!r}"
            )
    d = len(matrices)
    # per-cell sorted reduction so dataset order cannot perturb the sum
    total = np.sort(np.stack([m.values for m in matrices]), axis=0).sum(axis=0)
    midpoint = 2.5 if midpoint_policy == "compat" else d / 2.0
    values = sigmoid(total - midpoint)
    support = np.sum([m.support for m in matrices], axis=0)
    return KnowledgeMatrix(
        values=values,
        stage="aggregate",
        dataset_count=d,
        theta=matrices[0].theta,
        support=support,
    )


def scale_for_loss(matrix):
    """Rescale an aggregate matrix by 5 onto the OpenFace intensity range."""
    if matrix.stage != "aggregate":
        raise ContractError(
            f"scale_for_loss expects stage 'aggregate', got {matrix.stage!r}"
        )
    return KnowledgeMatrix(
        values=matrix.values * 5.0,
        stage="loss-scaled",
        dataset_count=matrix.dataset_count,
        theta=matrix.theta,
        support=matrix.support,
    )


def _support_path(path):
    return str(path) + ".support.csv"


def export_knowledge(matrix, path):
    """Write a knowledge matrix as CSV with a metadata preamble (+ support sidecar)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# knowledge-matrix v{KNOWLEDGE_FILE_VERSION}\n")
        fh.write(f"# stage={matrix.stage}\n")
        fh.write(f"# datasets={matrix.dataset_count}\n")
        fh.write(f"# theta={matrix.theta!r}\n")
        fh.write(f"# tool={TOOL_VERSION}\n")
        fh.write("# columns=" + ",".join(EXPRESSIONS) + "\n")
        for i, name in enumerate(AU_NAMES):
            fh.write(name + "," + ",".join(repr(float(v)) for v in matrix.values[i]) + "\n")
    with open(_support_path(path), "w", encoding="utf-8") as fh:
        fh.write("# columns=" + ",".join(EXPRESSIONS) + "\n")
        for i, name in enumerate(AU_NAMES):
            fh.write(name + "," + ",".join(str(v) for v in matrix.support[i]) + "\n")


def _au_table(lines, what, kind=float):
    """The 18x7 body (rows 'AUxx,v1,...,v7') of a knowledge or support file."""
    rows = [ln.split(",") for ln in lines if ln.strip() and not ln.startswith("#")]
    if any(len(row) != 1 + NUM_EXPRESSIONS for row in rows):
        raise ContractError(f"corrupt {what}: bad row width")
    if len(rows) != NUM_AUS:
        raise ContractError(f"corrupt {what}: expected {NUM_AUS} rows, got {len(rows)}")
    for row, expected in zip(rows, AU_NAMES):
        if row[0] != expected:
            raise ContractError(f"corrupt {what}: unexpected row {row[0]!r}")
    return np.array([parse_numbers(row[1:], what, kind) for row in rows])


def import_knowledge(path):
    """Read back a knowledge file; lossless inverse of export_knowledge.

    A missing support sidecar reads as zero support; a malformed one fails.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ContractError(f"cannot read knowledge file: {exc}") from exc
    if not lines or not lines[0].startswith("# knowledge-matrix v"):
        raise ContractError("corrupt knowledge file: missing version header")
    version = lines[0].split("v")[-1].strip()
    if version != str(KNOWLEDGE_FILE_VERSION):
        raise ContractError(f"knowledge file version mismatch: {version}")
    meta = {}
    for line in lines[1:]:
        if line.startswith("#") and "=" in line:
            key, value = line[1:].split("=", 1)
            meta[key.strip()] = value.strip()
    if "stage" not in meta:
        raise ContractError("corrupt knowledge file: stage missing")
    values = _au_table(lines, "knowledge file")
    try:
        with open(_support_path(path), "r", encoding="utf-8") as fh:
            support = _au_table(fh.read().splitlines(), "knowledge support file", int)
    except FileNotFoundError:
        support = None  # zero support
    datasets, theta = meta.get("datasets", "1"), meta.get("theta", "0.5")
    return KnowledgeMatrix(
        values=values,
        stage=meta["stage"],
        dataset_count=parse_numbers([datasets], "knowledge file", int)[0],
        theta=parse_numbers([theta], "knowledge file")[0],
        support=support,
    )
