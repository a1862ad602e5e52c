"""AU-expression knowledge extraction and cross-dataset aggregation.

Pipeline: keep only frames whose asserted expression score clears a threshold,
take per-class medians of the 17 AU intensities, substitute the AU28 row with
the mean of the other 17, center the raw 18x7 matrix on its (max+min)/2
midpoint, squash through a sigmoid, then (across datasets) sum, re-center and
squash again. A final x5 puts the weights back on the OpenFace intensity scale.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import __version__
from .domain import (
    AU28_INDEX,
    AU_NAMES,
    ContractError,
    EXPRESSIONS,
    INTENSITY_TO_PRESENCE,
    KnowledgeMatrix,
    NUM_AUS,
    NUM_EXPRESSIONS,
    float_array,
)
from .tables import meta_fields, read_matrix, write_matrix

log = logging.getLogger(__name__)

KNOWLEDGE_FILE_VERSION = 1

MIDPOINT_POLICIES = ("compat", "general")


def sigmoid(x):
    x = float_array(x)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass
class ReliableFrameSet:
    """Predictions whose asserted-label score strictly exceeded theta."""

    theta: float
    # the kept rows of the prediction table, sorted by (video_id, frame_index)
    members: np.ndarray


def filter_reliable_frames(predictions, theta):
    """Keep the rows of a prediction table (see ingest.prediction_table)
    whose scores[label] > theta (strict). `members` holds them sorted by
    (video_id, frame_index), the order compute_dataset_knowledge looks
    them up in.

    Two predictions for one (video, frame) are a contract violation.
    """
    if not 0.0 <= theta <= 1.0:
        raise ContractError(f"theta must be in [0, 1], got {theta}")
    predictions = predictions[
        np.lexsort((predictions["frame_index"], predictions["video_id"]))
    ]
    # sorted, a duplicate sits next to its twin
    video_ids, frames = predictions["video_id"], predictions["frame_index"]
    twins = np.flatnonzero((video_ids[1:] == video_ids[:-1]) & (frames[1:] == frames[:-1]))
    if twins.size:
        video_id, frame = predictions[["video_id", "frame_index"]][twins[0]].tolist()
        raise ContractError(
            f"duplicate prediction for video {video_id!r} frame {frame}"
        )
    asserted = predictions["scores"][np.arange(len(predictions)), predictions["label"]]
    members = predictions[asserted > theta]
    if not len(members):
        log.warning("no frames survive theta = %s", theta)
    return ReliableFrameSet(theta=theta, members=members)


def compute_dataset_knowledge(videos, reliable, classes=None):
    """Per-dataset 18x7 knowledge matrix from one dataset's frames.

    `videos` is a list of (video_id, frames) pairs; a frame counts for the
    class of the reliable prediction for its (video_id, frame_index), if
    there is one. Every expression class must have at least one reliable
    frame; classes without any are reported rather than silently imputed. A
    corpus that deliberately covers only a subset of classes can declare
    that subset via `classes`; the remaining columns come out as the
    uninformative 0.5 with zero support, and the centering midpoint ignores
    them.
    """
    if classes is None:
        classes = tuple(range(NUM_EXPRESSIONS))
    classes = tuple(sorted(set(int(c) for c in classes)))
    if any(c < 0 or c >= NUM_EXPRESSIONS for c in classes) or not classes:
        raise ContractError(f"invalid class subset: {classes}")
    members = reliable.members
    # members are sorted by (video_id, frame_index): each video's predictions
    # are one slice, with its frame indices in order
    ids, starts = np.unique(members["video_id"], return_index=True)
    predicted_of = dict(zip(ids.tolist(), np.split(members, starts[1:])))
    # the empty seed lets a dataset that matches no frame concatenate
    intensities, labels = [], [np.empty(0, dtype=np.int64)]
    for video_id, frames in videos:
        predicted = predicted_of.get(video_id)
        if predicted is None:
            continue
        at = np.searchsorted(predicted["frame_index"], frames["frame_index"])
        at = np.minimum(at, len(predicted) - 1)
        found = predicted["frame_index"][at] == frames["frame_index"]
        intensities.append(frames["intensities"][found])
        labels.append(predicted["label"][at[found]])
    labels = np.concatenate(labels)
    counts = np.bincount(labels, minlength=NUM_EXPRESSIONS)

    empty = [EXPRESSIONS[c] for c in classes if not counts[c]]
    if empty:
        raise ContractError(
            f"no reliable frames for classes: {', '.join(empty)}"
        )

    intensities = np.concatenate(intensities)
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
        theta=reliable.theta,
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
    columns = "columns=" + ",".join(EXPRESSIONS)
    write_matrix(path, AU_NAMES, matrix.values, meta=(
        f"knowledge-matrix v{KNOWLEDGE_FILE_VERSION}", f"stage={matrix.stage}",
        f"datasets={matrix.dataset_count}", f"theta={matrix.theta!r}",
        f"tool=aukit {__version__}", columns,
    ))
    write_matrix(_support_path(path), AU_NAMES, matrix.support, meta=(columns,))


def import_knowledge(path):
    """Read back a knowledge file; lossless inverse of export_knowledge.

    The version, stage, datasets and theta lines and the support sidecar
    are required.
    """
    what = "knowledge file"
    meta, values = read_matrix(path, what, AU_NAMES, NUM_EXPRESSIONS,
                               version=f"knowledge-matrix v{KNOWLEDGE_FILE_VERSION}")
    stage, datasets, theta = meta_fields(meta, what, stage=str, datasets=int,
                                         theta=float)
    _, support = read_matrix(_support_path(path), "knowledge support file",
                             AU_NAMES, NUM_EXPRESSIONS, kind=int)
    return KnowledgeMatrix(values=values, stage=stage, dataset_count=datasets,
                           theta=theta, support=support)
