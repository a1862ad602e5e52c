"""AU-expression knowledge extraction and cross-dataset aggregation.

Pipeline: keep only frames whose asserted expression score clears a threshold,
take per-class medians of the 17 AU intensities, substitute the AU28 row with
the mean of the other 17, center the raw 18x7 matrix on its (max+min)/2
midpoint, squash through a sigmoid, then (across datasets) sum, re-center and
squash again. A final x5 puts the weights back on the OpenFace intensity scale.
"""

import logging
from dataclasses import dataclass, replace

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
    check_unit_interval,
    float_array,
)
from .tables import meta_fields, read_matrix, write_matrix

log = logging.getLogger(__name__)

KNOWLEDGE_FILE_VERSION = 1

MIDPOINT_POLICIES = ("compat", "general")


def sigmoid(x):
    x = float_array(x)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


@dataclass(frozen=True)
class ReliableFrameSet:
    """Predictions whose asserted-label score strictly exceeded theta."""

    theta: float
    # the videos with a reliable prediction, sorted
    video_ids: np.ndarray
    # (video: index into video_ids, frame_index, label) of each reliable
    # prediction, sorted by (video, frame_index)
    members: np.ndarray


MEMBER_DTYPE = np.dtype([("video", "<i4"), ("frame_index", "<i8"), ("label", "i1")])


class ReliableRows:
    """Theta's rule, applied one block of predictions at a time (see
    ingest.read_predictions): `add` keeps each row's key, its video code and
    frame, for the duplicate check, and (video, frame, label) of the rows
    whose scores[label] > theta (strict); `frame_set` then checks theta's
    range and the keys, frees them and sorts the reliable rows."""

    def __init__(self, theta):
        self.theta = theta
        empty = np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0, np.int8)
        self.keys, self.kept = [empty[:2]], [empty]

    def add(self, videos, frames, labels, scores):
        self.keys.append((videos, frames))
        reliable = scores[np.arange(len(labels)), labels] > self.theta
        self.kept.append((videos[reliable], frames[reliable], labels[reliable]))

    def frame_set(self, video_ids):
        """The ReliableFrameSet of the rows added, their video codes indexing
        `video_ids`. Two predictions for one (video, frame) are a contract
        violation."""
        check_unit_interval("theta", self.theta)
        # the ids sorted, and each code's rank among them: (rank, frame)
        # sorts as (id, frame)
        video_ids, rank = np.unique(np.asarray(video_ids, dtype=str), return_inverse=True)
        videos, frames = map(np.concatenate, zip(*self.keys))
        self.keys = None
        videos = rank[videos]
        at = np.lexsort((frames, videos))
        videos, frames = videos[at], frames[at]
        # sorted, a duplicate sits next to its twin
        twins = np.flatnonzero((videos[1:] == videos[:-1]) & (frames[1:] == frames[:-1]))
        if twins.size:
            video_id, frame = video_ids[videos[twins[0]]], frames[twins[0]]
            raise ContractError(f"duplicate prediction for video {str(video_id)!r} "
                                f"frame {frame}")
        del videos, frames, at
        videos, frames, labels = map(np.concatenate, zip(*self.kept))
        self.kept = None
        present, videos = np.unique(rank[videos], return_inverse=True)
        at = np.lexsort((frames, videos))
        members = np.empty(len(at), MEMBER_DTYPE)
        members["video"], members["frame_index"], members["label"] = (
            videos[at], frames[at], labels[at])
        if not len(members):
            log.warning("no frames survive theta = %s", self.theta)
        return ReliableFrameSet(theta=self.theta, video_ids=video_ids[present],
                                members=members)


def compute_dataset_knowledge(videos, reliable, classes=None):
    """Per-dataset 18x7 knowledge matrix from one dataset's frames.

    `videos` is an iterable of (video_id, frames) pairs, consumed once; a
    frame counts for the class of the reliable prediction for its
    (video_id, frame_index), if there is one. Only the matched intensities
    are kept, per class, and joined one class at a time for its median,
    taken in place.
    Every expression class must have at least one reliable
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
    # members are sorted by (video, frame_index): each video's predictions
    # are one slice, with its frame indices in order
    starts = np.searchsorted(members["video"], np.arange(1, len(reliable.video_ids)))
    predicted_of = dict(zip(reliable.video_ids.tolist(), np.split(members, starts)))
    matched = [[] for _ in range(NUM_EXPRESSIONS)]  # per class, one array per video
    for video_id, frames in videos:
        predicted = predicted_of.get(video_id)
        if predicted is None:
            continue
        at = np.searchsorted(predicted["frame_index"], frames["frame_index"])
        at = np.minimum(at, len(predicted) - 1)
        found = np.flatnonzero(predicted["frame_index"][at] == frames["frame_index"])
        labels = predicted["label"][at[found]]
        for c in np.unique(labels).tolist():
            matched[c].append(frames["intensities"][found[labels == c]])
    counts = [sum(map(len, arrays)) for arrays in matched]

    empty = [EXPRESSIONS[c] for c in classes if not counts[c]]
    if empty:
        raise ContractError(f"no reliable frames for classes: {', '.join(empty)}")

    raw = np.empty((NUM_AUS, NUM_EXPRESSIONS))
    populated = np.zeros(NUM_EXPRESSIONS, dtype=bool)
    populated[list(classes)] = True
    support = np.zeros((NUM_AUS, NUM_EXPRESSIONS), dtype=np.int64)
    for c in classes:
        intensities = np.concatenate(matched[c])
        matched[c] = None
        medians = np.median(intensities, axis=0, overwrite_input=True)
        del intensities
        raw[INTENSITY_TO_PRESENCE, c] = medians
        # AU28 has no intensity track; stand in with the mean of the 17 medians
        raw[AU28_INDEX, c] = medians.mean()
        support[:, c] = counts[c]

    midpoint = 0.5 * (raw[:, populated].max() + raw[:, populated].min())
    values = np.full((NUM_AUS, NUM_EXPRESSIONS), 0.5)
    values[:, populated] = sigmoid(raw[:, populated] - midpoint)
    return KnowledgeMatrix(values=values, stage="per-dataset", theta=reliable.theta,
                           support=support)


def aggregate_knowledge(matrices, midpoint_policy="general"):
    """Sum per-dataset matrices of one theta, re-center, and sigmoid-normalize.

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
    thetas = sorted({m.theta for m in matrices})
    if len(thetas) > 1:
        raise ContractError("aggregate_knowledge inputs must share theta, got "
                            + " and ".join(map(repr, thetas)))
    d = len(matrices)
    # per-cell sorted reduction so dataset order cannot perturb the sum
    total = np.sort(np.stack([m.values for m in matrices]), axis=0).sum(axis=0)
    midpoint = 2.5 if midpoint_policy == "compat" else d / 2.0
    values = sigmoid(total - midpoint)
    support = np.sum([m.support for m in matrices], axis=0)
    return KnowledgeMatrix(values=values, stage="aggregate", dataset_count=d,
                           theta=thetas[0], support=support)


def scale_for_loss(matrix):
    """Rescale an aggregate matrix by 5 onto the OpenFace intensity range."""
    if matrix.stage != "aggregate":
        raise ContractError(
            f"scale_for_loss expects stage 'aggregate', got {matrix.stage!r}"
        )
    return replace(matrix, values=matrix.values * 5.0, stage="loss-scaled")


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
