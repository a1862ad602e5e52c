"""Parsing of OpenFace-style per-frame AU tracks and frame-level predictions.

OpenFace 2.2.0 writes one comma-separated file per video with a header row;
columns are addressed by name so column order never matters. A video's frames
are one 1-D array of FRAME_DTYPE rows, kept on disk as a sealed frame store.
Zero-valued intensities are the tool's known failure mode and are repaired by
within-video linear interpolation.
"""

import array
import csv
import io
import json
import logging
import math

import numpy as np

from .domain import (
    AU_NAMES,
    ContractError,
    INTENSITY_AU_NAMES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    NUM_INTENSITY_AUS,
    expression_index,
    video_table,
)
from .sealed import read_sealed, write_sealed

log = logging.getLogger(__name__)

# one row per video frame; a video's frames are a 1-D array of this dtype
FRAME_DTYPE = np.dtype([
    ("frame_index", "<i8"),
    ("timestamp", "<f8"),
    ("confidence", "<f8"),
    ("success", "?"),
    ("intensities", "<f8", (NUM_INTENSITY_AUS,)),
    ("presences", "u1", (NUM_AUS,)),
    ("interpolated", "?", (NUM_INTENSITY_AUS,)),
])

FRAME_STORE_MAGIC = b"AUKITFRAMES"
FRAME_STORE_FORMAT = "aukit-frames"
FRAME_STORE_VERSION = 2
FRAME_STORE_SUFFIX = ".frames"

INTENSITY_COLUMNS = tuple(f"{n}_r" for n in INTENSITY_AU_NAMES)
PRESENCE_COLUMNS = tuple(f"{n}_c" for n in AU_NAMES)
SCORE_COLUMNS = tuple(f"s{j}" for j in range(NUM_EXPRESSIONS))
SCORE_SUM_TOLERANCE = 1e-3
PREDICTION_FIELDS = [("frame_index", "<i8"), ("label", "<i8"),
                     ("scores", "<f8", (NUM_EXPRESSIONS,))]


def prediction_table(video_ids, frame_indices, labels, scores):
    """Per-frame expression predictions as one table (see domain.video_table):
    video_id, frame_index, label (the asserted expression index), scores."""
    return video_table(video_ids, PREDICTION_FIELDS, frame_index=frame_indices,
                       label=labels, scores=scores)


def _cell_float(row, column, row_number):
    raw = row.get(column)
    if raw is None or raw.strip() == "":
        raise ContractError(f"row {row_number}: empty cell in column {column!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ContractError(
            f"row {row_number}: non-numeric value {raw!r} in column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise ContractError(
            f"row {row_number}: non-finite value {raw!r} in column {column!r}"
        )
    return value


def _cell_int(row, column, row_number):
    value = _cell_float(row, column, row_number)
    if value.is_integer() and abs(value) < 2**63:
        return int(value)
    raise ContractError(
        f"row {row_number}: non-integer value {row[column]!r} in column {column!r}"
    )


def _csv_reader(stream, required):
    """A csv.DictReader over text, bytes or a text or byte stream, whose
    header (stripped of spaces) names every `required` column."""
    if isinstance(stream, (bytes, bytearray)):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream.read(0), bytes):
        stream = io.TextIOWrapper(stream, encoding="utf-8")
    reader = csv.DictReader(stream, skipinitialspace=True)
    if reader.fieldnames is None:
        raise ContractError("empty input: no header row")
    reader.fieldnames = [h.strip() for h in reader.fieldnames]
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise ContractError(f'missing column "{missing[0]}"')
    return reader


def parse_openface_csv(stream, video_id):
    """Parse one video's OpenFace output into an array of FRAME_DTYPE rows.

    Accepts a text or byte stream. Rows with success = 0 are retained but
    flagged; rows for secondary faces (face_id > 0) are dropped with a warning.
    """
    required = ("frame", "confidence", "success") + INTENSITY_COLUMNS + PRESENCE_COLUMNS
    reader = _csv_reader(stream, required)
    header = reader.fieldnames
    rows = []
    for row_number, row in enumerate(reader, start=2):
        if "face_id" in header and _cell_float(row, "face_id", row_number) > 0:
            log.warning("%s row %d: dropping secondary face", video_id, row_number)
            continue
        intensities = [_cell_float(row, col, row_number) for col in INTENSITY_COLUMNS]
        for col, v in zip(INTENSITY_COLUMNS, intensities):
            if not 0.0 <= v <= 5.0:
                raise ContractError(
                    f"row {row_number}: intensity {col} = {v} outside [0, 5]"
                )
        presences = [_cell_float(row, col, row_number) for col in PRESENCE_COLUMNS]
        for col, v in zip(PRESENCE_COLUMNS, presences):
            if v not in (0.0, 1.0):
                raise ContractError(
                    f"row {row_number}: presence {col} = {v} not in {{0, 1}}"
                )
        rows.append((
            _cell_int(row, "frame", row_number),
            _cell_float(row, "timestamp", row_number) if "timestamp" in header else 0.0,
            _cell_float(row, "confidence", row_number),
            _cell_float(row, "success", row_number) != 0.0,
            intensities,
            presences,
            False,
        ))
    return np.array(rows, dtype=FRAME_DTYPE)


def interpolate_zero_intensities(frames, video_id):
    """Repair exactly-zero intensities by per-AU linear interpolation.

    Returns (repaired copy, flags). Leading/trailing zeros take the nearest
    nonzero value; an all-zero AU series is left unchanged and flagged.
    Input must be one video's frames sorted by frame_index.
    """
    if np.any(np.diff(frames["frame_index"]) <= 0):
        raise ContractError("frames must be sorted by frame_index")
    repaired = frames.copy()
    series, mask = repaired["intensities"], repaired["interpolated"]  # n x 17 views
    positions = frames["frame_index"].astype(np.float64)
    flags = []
    for j, name in enumerate(INTENSITY_AU_NAMES):
        col = series[:, j]
        zero = col == 0.0
        if not zero.any():
            continue
        if zero.all():
            flags.append(f"{video_id}: {name} all-zero")
            continue
        known = ~zero
        series[zero, j] = np.interp(
            positions[zero], positions[known], col[known]
        )
        mask[zero, j] = True
    for flag in flags:
        log.warning(flag)
    return repaired, flags


def load_frame_predictions(stream):
    """Load per-frame expression predictions (video_id, frame, label, s0..s6)
    as a prediction_table. Cells are checked row by row; then the scores must
    be non-negative and sum to 1 within SCORE_SUM_TOLERANCE, and are
    renormalised to sum to 1."""
    reader = _csv_reader(stream, ("video_id", "frame", "label") + SCORE_COLUMNS)
    # scores go into one flat buffer, not a list per row, which spares the
    # allocator one small object per row and per score
    video_ids, frame_indices, labels, scores = [], [], [], array.array("d")
    for row_number, row in enumerate(reader, start=2):
        video_ids.append((row["video_id"] or "").strip())
        frame_indices.append(_cell_int(row, "frame", row_number))
        labels.append(expression_index(row["label"]))
        scores.extend([_cell_float(row, c, row_number) for c in SCORE_COLUMNS])
    scores = np.frombuffer(scores).reshape(-1, NUM_EXPRESSIONS)
    # table row i (from 0) is file row i + 2, below the header
    negative = np.flatnonzero((scores < 0).any(axis=1))
    if negative.size:
        raise ContractError(f"row {negative[0] + 2}: negative score")
    totals = scores.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > SCORE_SUM_TOLERANCE)
    if off.size:
        raise ContractError(
            f"row {off[0] + 2}: scores sum to {totals[off[0]]}, outside tolerance"
        )
    return prediction_table(video_ids, frame_indices, labels, scores / totals[:, None])


def write_frame_store(frames, path):
    """One video's frames as a sealed file (see aukit.sealed).

    The header names the format, version and row dtype; the payload is the
    rows' bytes. The video id is the file's stem.
    """
    if frames.dtype != FRAME_DTYPE or frames.ndim != 1:
        raise ContractError("frame store rows must be a 1-D FRAME_DTYPE array")
    header = {
        "format": FRAME_STORE_FORMAT,
        "version": FRAME_STORE_VERSION,
        "dtype": FRAME_DTYPE.descr,
    }
    write_sealed(path, FRAME_STORE_MAGIC, header, frames.tobytes())


def read_frame_store(path):
    """Inverse of write_frame_store; rejects tampered, truncated or v1 files."""
    header, payload = read_sealed(path, FRAME_STORE_MAGIC, "frame store")
    if header.get("format") != FRAME_STORE_FORMAT:
        raise ContractError("corrupt frame store: unknown format")
    if header.get("version") != FRAME_STORE_VERSION:
        raise ContractError(f"frame store version mismatch: {header.get('version')}")
    if header.get("dtype") != json.loads(json.dumps(FRAME_DTYPE.descr)):
        raise ContractError("corrupt frame store: unknown row dtype")
    if len(payload) % FRAME_DTYPE.itemsize:
        raise ContractError("corrupt frame store: payload is not whole rows")
    return np.frombuffer(payload, dtype=FRAME_DTYPE).copy()


def reliable_detections(frames, min_confidence=0.8):
    """Frames usable for knowledge extraction: successful and confident."""
    return frames[frames["success"] & (frames["confidence"] >= min_confidence)]
