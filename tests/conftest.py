import numpy as np
import pytest

from aukit import ingest
from aukit.domain import AU_NAMES, INTENSITY_AU_NAMES
from aukit.ingest import FRAME_DTYPE, prediction_table


def openface_csv(rows, include=None, exclude=()):
    """Build a minimal OpenFace-style CSV string.

    rows: list of dicts with optional overrides per column.
    """
    columns = ["frame", "face_id", "timestamp", "confidence", "success"]
    columns += [f"{n}_r" for n in INTENSITY_AU_NAMES]
    columns += [f"{n}_c" for n in AU_NAMES]
    columns = [c for c in columns if c not in exclude]
    if include:
        columns += list(include)
    lines = [", ".join(columns)]
    for i, overrides in enumerate(rows, start=1):
        defaults = {
            "frame": str(i),
            "face_id": "0",
            "timestamp": f"{(i - 1) * 0.04:.2f}",
            "confidence": "0.98",
            "success": "1",
        }
        cells = []
        for c in columns:
            if c in overrides:
                cells.append(str(overrides[c]))
            elif c in defaults:
                cells.append(defaults[c])
            elif c.endswith("_r"):
                cells.append("1.0")
            else:
                cells.append("0.0")
        lines.append(", ".join(cells))
    return "\n".join(lines) + "\n"


def make_frames(n=1, frame_index=None, intensities=None, presences=None,
                confidence=0.98, success=True):
    """n frames of one video; each field broadcasts over the rows."""
    frames = np.zeros(n, dtype=FRAME_DTYPE)
    frames["frame_index"] = np.arange(1, n + 1) if frame_index is None else frame_index
    frames["timestamp"] = 0.04 * (frames["frame_index"] - 1)
    frames["confidence"] = confidence
    frames["success"] = success
    frames["intensities"] = 1.0 if intensities is None else intensities
    frames["presences"] = 0 if presences is None else presences
    return frames


def make_record(video_id="v0", frame_index=1, intensities=None, presences=None,
                confidence=0.98, success=True):
    """One frame as a (video_id, frames) pair."""
    return video_id, make_frames(
        frame_index=frame_index, intensities=intensities, presences=presences,
        confidence=confidence, success=success,
    )


def group_videos(records):
    """(video_id, frames) pairs, one per video id, rows in the order given."""
    groups = {}
    for video_id, frames in records:
        groups.setdefault(video_id, []).append(frames)
    return [(video_id, np.concatenate(parts)) for video_id, parts in groups.items()]


def make_predictions(rows):
    """A prediction table from (video_id, frame_index, label, scores) rows."""
    return prediction_table(*(list(column) for column in zip(*rows)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_blocks(monkeypatch):
    """The CSV readers read 64 characters at a time, so a header, a record
    and a failing record each cross block boundaries; `ingest` reads every
    OpenFace file alone, as such a stream, not in groups."""
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 64)
    monkeypatch.setattr(ingest, "GROUP_BYTES", 0)
