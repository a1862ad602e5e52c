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
# FRAME_DTYPE.descr as a frame store's JSON header holds it (lists, not tuples)
FRAME_STORE_DTYPE = json.loads(json.dumps(FRAME_DTYPE.descr))

INTENSITY_COLUMNS = tuple(f"{n}_r" for n in INTENSITY_AU_NAMES)
PRESENCE_COLUMNS = tuple(f"{n}_c" for n in AU_NAMES)
SCORE_COLUMNS = tuple(f"s{j}" for j in range(NUM_EXPRESSIONS))
# the OpenFace columns every file must have, in the block parse's column order
OPENFACE_REQUIRED = ("frame", "confidence", "success") + INTENSITY_COLUMNS + PRESENCE_COLUMNS
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


class _RowParse(Exception):
    """A block parse met input only the row-by-row parse can decide on."""


def _read_text(stream):
    """The whole input as one str: text, UTF-8 bytes, or a text or byte stream."""
    if isinstance(stream, (bytes, bytearray)):
        return stream.decode("utf-8")
    if isinstance(stream, str):
        return stream
    if isinstance(stream.read(0), bytes):
        wrapper = io.TextIOWrapper(stream, encoding="utf-8")
        text = wrapper.read()
        wrapper.detach()  # a collected wrapper would close the caller's stream
        return text
    return stream.read()


def _csv_reader(text, required):
    """A csv.DictReader over text whose header (stripped of spaces) names
    every `required` column."""
    reader = csv.DictReader(io.StringIO(text), skipinitialspace=True)
    if reader.fieldnames is None:
        raise ContractError("empty input: no header row")
    reader.fieldnames = [h.strip() for h in reader.fieldnames]
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise ContractError(f'missing column "{missing[0]}"')
    return reader


def _records(text, start):
    """The non-blank lines of text from offset `start` on (csv skips blank
    lines too), split about 64 KiB at a time so no list of all lines is held."""
    while start < len(text):
        stop = text.find("\n", start + 65536)
        if stop < 0:
            stop = len(text)
        yield from filter(None, text[start:stop].split("\n"))
        start = stop + 1


def _block_parse(text, numbers, strings=(), optional=()):
    """The cells of every record below the header, one np.loadtxt call per
    cell type: (float column names: `numbers`, then the `optional` ones the
    header has; their cells as an n x k float array; the `strings` cells as
    an n x m array of str objects).

    Raises _RowParse where csv and loadtxt could read the text differently
    (a quote or carriage return, which csv reads specially, or NUL, which
    csv before Python 3.11 rejects), where the header lacks a column, or
    where loadtxt cannot read a cell. As in a DictReader, a duplicated
    header name means its last column.
    """
    if '"' in text or "\r" in text or "\0" in text:
        raise _RowParse
    start = text.find("\n") + 1 or len(text)
    header = next(csv.reader([text[:start]], skipinitialspace=True), [])
    index = {name.strip(): i for i, name in enumerate(header)}
    names = numbers + tuple(c for c in optional if c in index)
    if any(c not in index for c in names + strings):
        raise _RowParse
    if text.count("\n", start) == len(text) - start:  # blank body: loadtxt would warn
        return names, np.empty((0, len(names))), np.empty((0, len(strings)), object)
    try:
        floats = np.loadtxt(_records(text, start), delimiter=",", comments=None,
                            ndmin=2, usecols=[index[c] for c in names])
        cells = np.loadtxt(_records(text, start), dtype=object, delimiter=",",
                           comments=None, ndmin=2, usecols=[index[c] for c in strings]
                           ) if strings else np.empty((len(floats), 0), object)
    except ValueError:
        raise _RowParse from None
    return names, floats, cells


def _integral(values):
    """Mask of the values that are integers below 2**63 in magnitude."""
    return (values == np.trunc(values)) & (np.abs(values) < 2**63)


def parse_openface_csv(stream, video_id):
    """Parse one video's OpenFace output into an array of FRAME_DTYPE rows.

    Accepts text, bytes, or a text or byte stream. Rows with success = 0 are
    retained but flagged; rows for secondary faces (face_id > 0) are dropped
    with a warning. The body is parsed as one numeric block and checked as
    column masks; input the block parse cannot read, or that fails a check,
    goes through the row-by-row reference parse, which words the error.
    """
    text = _read_text(stream)
    try:
        return _openface_block(text, video_id)
    except _RowParse:
        return _openface_rows(text, video_id)


def _openface_block(text, video_id):
    """parse_openface_csv as one np.loadtxt block checked by column masks."""
    names, cells, _ = _block_parse(text, OPENFACE_REQUIRED, optional=("face_id", "timestamp"))
    face = cells[:, names.index("face_id")] if "face_id" in names else np.zeros(len(cells))
    secondary = face > 0
    kept = cells[~secondary]  # cells of dropped rows are never checked
    frame, confidence, success = kept[:, 0], kept[:, 1], kept[:, 2]
    intensities = kept[:, 3:3 + NUM_INTENSITY_AUS]
    presences = kept[:, 3 + NUM_INTENSITY_AUS:3 + NUM_INTENSITY_AUS + NUM_AUS]
    if not (np.isfinite(face).all() and np.isfinite(kept).all()
            and ((intensities >= 0.0) & (intensities <= 5.0)).all()
            and ((presences == 0.0) | (presences == 1.0)).all()
            and _integral(frame).all()):
        raise _RowParse
    frames = np.zeros(len(kept), dtype=FRAME_DTYPE)
    frames["frame_index"] = frame.astype(np.int64)
    if "timestamp" in names:
        frames["timestamp"] = kept[:, names.index("timestamp")]
    frames["confidence"] = confidence
    frames["success"] = success != 0.0
    frames["intensities"] = intensities
    frames["presences"] = presences
    if secondary.any():
        # file line of each record: blank lines are no records
        line_numbers = np.flatnonzero([line != "" for line in text.split("\n")[1:]]) + 2
        for line_number in line_numbers[secondary].tolist():
            log.warning("%s row %d: dropping secondary face", video_id, line_number)
    return frames


def _openface_rows(text, video_id):
    """The reference parse of parse_openface_csv: one csv record at a time,
    each cell through float(), rows numbered by file line."""
    reader = _csv_reader(text, OPENFACE_REQUIRED)
    header = reader.fieldnames
    rows = []
    for row in reader:
        row_number = reader.line_num
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

    Returns the repaired copy. Leading/trailing zeros take the nearest
    nonzero value; an all-zero AU series is left unchanged, with one logged
    warning. Input must be one video's frames sorted by frame_index.
    """
    if np.any(np.diff(frames["frame_index"]) <= 0):
        raise ContractError("frames must be sorted by frame_index")
    repaired = frames.copy()
    series, mask = repaired["intensities"], repaired["interpolated"]  # n x 17 views
    positions = frames["frame_index"].astype(np.float64)
    for j, name in enumerate(INTENSITY_AU_NAMES):
        col = series[:, j]
        zero = col == 0.0
        if not zero.any():
            continue
        if zero.all():
            log.warning("%s: %s all-zero", video_id, name)
            continue
        known = ~zero
        series[zero, j] = np.interp(
            positions[zero], positions[known], col[known]
        )
        mask[zero, j] = True
    return repaired


def load_frame_predictions(stream):
    """Load per-frame expression predictions (video_id, frame, label, s0..s6)
    as a prediction_table. Every cell is checked; then the scores must be
    non-negative and sum to 1 within SCORE_SUM_TOLERANCE, and are
    renormalised to sum to 1. Parsed as blocks like parse_openface_csv, with
    the same row-by-row reference parse behind them."""
    text = _read_text(stream)
    try:
        columns = _prediction_columns(text)
    except _RowParse:
        return _predictions_rows(text)
    return prediction_table(*columns)


def _score_totals(scores):
    """Row sums of finite, non-negative scores; a sum past the float range
    is inf, which the tolerance check rejects, not a numpy warning."""
    with np.errstate(over="ignore"):
        return scores.sum(axis=1)


def _prediction_columns(text):
    """The prediction_table columns from np.loadtxt blocks checked by column
    masks; the blocks are freed before the table is built."""
    _, numbers, cells = _block_parse(text, ("frame",) + SCORE_COLUMNS,
                                     strings=("video_id", "label"))
    # scores as a contiguous copy: its row sums then add in the same order
    # as the row parse's, so the renormalised scores are bit-identical
    frame, scores = numbers[:, 0], np.ascontiguousarray(numbers[:, 1:])
    labels = cells[:, 1].tolist()
    try:
        code = {name: expression_index(name) for name in set(labels)}
    except ContractError:
        raise _RowParse from None
    if not (np.isfinite(numbers).all() and _integral(frame).all()
            and (scores >= 0.0).all()):
        raise _RowParse
    totals = _score_totals(scores)
    if not (np.abs(totals - 1.0) <= SCORE_SUM_TOLERANCE).all():
        raise _RowParse
    scores /= totals[:, None]
    video_ids = [v.strip() for v in cells[:, 0].tolist()]
    return video_ids, frame.astype(np.int64), [code[name] for name in labels], scores


def _predictions_rows(text):
    """The reference parse of load_frame_predictions: one csv record at a
    time, rows numbered by file line."""
    reader = _csv_reader(text, ("video_id", "frame", "label") + SCORE_COLUMNS)
    # scores go into one flat buffer, not a list per row, which spares the
    # allocator one small object per row and per score
    video_ids, frame_indices, labels, scores = [], [], [], array.array("d")
    row_numbers = []
    for row in reader:
        row_number = reader.line_num
        row_numbers.append(row_number)
        video_ids.append((row["video_id"] or "").strip())
        frame_indices.append(_cell_int(row, "frame", row_number))
        labels.append(expression_index(row["label"]))
        scores.extend([_cell_float(row, c, row_number) for c in SCORE_COLUMNS])
    scores = np.frombuffer(scores).reshape(-1, NUM_EXPRESSIONS)
    negative = np.flatnonzero((scores < 0).any(axis=1))
    if negative.size:
        raise ContractError(f"row {row_numbers[negative[0]]}: negative score")
    totals = _score_totals(scores)
    off = np.flatnonzero(np.abs(totals - 1.0) > SCORE_SUM_TOLERANCE)
    if off.size:
        raise ContractError(
            f"row {row_numbers[off[0]]}: scores sum to {totals[off[0]]}, outside tolerance"
        )
    return prediction_table(video_ids, frame_indices, labels, scores / totals[:, None])


def write_frame_store(frames, path):
    """One video's frames as a sealed file (see aukit.sealed).

    The header names the format, version and row dtype; the payload is the
    rows' bytes, written from the array itself. The video id is the file's
    stem.
    """
    if frames.dtype != FRAME_DTYPE or frames.ndim != 1:
        raise ContractError("frame store rows must be a 1-D FRAME_DTYPE array")
    header = {
        "format": FRAME_STORE_FORMAT,
        "version": FRAME_STORE_VERSION,
        "dtype": FRAME_STORE_DTYPE,
    }
    write_sealed(path, FRAME_STORE_MAGIC, header, np.ascontiguousarray(frames))


def read_frame_store(path):
    """Inverse of write_frame_store; rejects tampered, truncated or v1 files.
    The rows are a view into the file's buffer."""
    header, payload = read_sealed(path, FRAME_STORE_MAGIC, "frame store")
    if header.get("format") != FRAME_STORE_FORMAT:
        raise ContractError("corrupt frame store: unknown format")
    if header.get("version") != FRAME_STORE_VERSION:
        raise ContractError(f"frame store version mismatch: {header.get('version')}")
    if header.get("dtype") != FRAME_STORE_DTYPE:
        raise ContractError("corrupt frame store: unknown row dtype")
    if len(payload) % FRAME_DTYPE.itemsize:
        raise ContractError("corrupt frame store: payload is not whole rows")
    return np.frombuffer(payload, dtype=FRAME_DTYPE)


def reliable_detections(frames, min_confidence=0.8):
    """Frames usable for knowledge extraction: successful and confident."""
    return frames[frames["success"] & (frames["confidence"] >= min_confidence)]
