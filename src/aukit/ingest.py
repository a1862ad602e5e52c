"""Parsing of OpenFace-style per-frame AU tracks and frame-level predictions.

OpenFace 2.2.0 writes one comma-separated file per video with a header row;
columns are addressed by name so column order never matters. A video's frames
are one 1-D array of FRAME_DTYPE rows, kept on disk as a sealed frame store.
Zero-valued intensities are the tool's known failure mode and are repaired by
within-video linear interpolation. read_openface_files reads the files of
`aukit ingest`: consecutive files in groups, and a file alone where it cannot
join one. naming words the errors of either kind of CSV file for the file.
"""

import contextlib
import json
import logging
import os
import stat

import numpy as np

from .domain import (
    AU_NAMES,
    ContractError,
    INTENSITY_AU_NAMES,
    NUM_AUS,
    NUM_EXPRESSIONS,
    NUM_INTENSITY_AUS,
    check_unit_interval,
    expression_index,
)
from .sealed import read_sealed, write_sealed
from .tables import cell_value, parse_cells

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
PREDICTION_COLUMNS = ("video_id", "frame", "label") + SCORE_COLUMNS
SCORE_SUM_TOLERANCE = 1e-3


@contextlib.contextmanager
def naming(path):
    """Prefix the contract errors of reading the CSV file at `path` with
    the path; a file that is not UTF-8 text is one of them."""
    try:
        yield
    except UnicodeDecodeError:
        raise ContractError(f"{path}: not UTF-8 text") from None
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


# characters read at a time; a block is the whole lines they complete
BLOCK_CHARS = 1 << 16


def _newlines(text):
    """Text with `\\r\\n` and a lone `\\r` each read as `\\n`."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _lines(text):
    """The lines of a text of whole lines, the last of which may lack its `\\n`."""
    lines = text.split("\n")
    if not lines[-1]:  # the text after the last line end
        lines.pop()
    return lines


def _blocks(stream):
    """The text of a str or text stream as blocks of whole lines (the last
    may lack its `\\n`), read as a text-mode file reads it: `\\r\\n` and a
    lone `\\r` each end a line, also where one read ends between them."""
    size = BLOCK_CHARS
    if isinstance(stream, str):
        pieces = (stream[i:i + size] for i in range(0, len(stream), size))
    else:
        pieces = iter(lambda: stream.read(size), "")
    carry = ""  # the text after the last line end, and a `\r` the next read may pair
    for piece in pieces:
        text = carry + piece
        held = "\r" if text.endswith("\r") else ""
        text = _newlines(text.removesuffix(held))
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        carry = text[cut:] + held
    if carry:
        yield _newlines(carry)


class _Csv:
    """A CSV text's records, read in blocks of whole lines (see _blocks),
    each block parsed one cell type at a time and handed on at once, when
    checked, as consume(floats, lines, strings): `floats` holds the cells of
    the columns `names` (the `required` ones not in `strings`, then the
    `optional` ones the header has), `lines` each record's file line (blank
    lines are no records), and `strings` maps each `strings` column to the
    block's distinct cells and each record's index into them; a duplicated
    header name means its last column.
    `checks` lists (columns, test, message template; None for a cell that
    is no number) in the order they run, each on one string column, or on
    float columns consecutive in `names` (an optional one alone, left out
    where the header lacks it); a record whose `secondary` cell is
    a finite number above 0 needs only numbers. `error` words the first
    unreadable or failing record's first failure, found by halving inside
    its block; the records handed on end before it. The whole input is read
    all the same: a NUL, then a quote (no writer of these files quotes a
    cell), then an empty input, a byte-order mark or a missing column
    anywhere in it is the ContractError raised instead, and text that is not
    UTF-8 fails the stream's read. `add` hands on more records of the
    header as one block."""

    def __init__(self, stream, required, checks, consume, strings=(), optional=(),
                 secondary=None):
        self.string_names, self.secondary, self.error = strings, secondary, None
        self.consume = consume
        fault, line = None, 1  # (rank, message) of the gravest NUL, quote or header; file line
        for block in _blocks(stream):
            for rank, (char, problem) in enumerate((("\0", "NUL byte"), ('"', "quoted cell"))):
                if char in block and (fault is None or rank < fault[0]):
                    at = line + block.count("\n", 0, block.index(char))
                    fault = rank, f"row {at}: {problem}"
            if line == 1:
                cut = block.find("\n") + 1 or len(block)
                missing = self._header(block[:cut].rstrip("\n").split(","), required, optional,
                                       checks)
                if fault is None and block.startswith("\ufeff"):
                    fault = 2, "row 1: byte-order mark before the header"
                elif fault is None and missing:
                    fault = 2, f'missing column "{missing}"'
                block, line = block[cut:], 2
            if fault is None and self.error is None:
                self.add(_lines(block), line)
            line += block.count("\n")
        if line == 1:
            raise ContractError("empty input: no header row")
        if fault:
            raise ContractError(fault[1])

    def _header(self, header, required, optional, checks):
        """Read the column names; return the first required column the
        header lacks."""
        self.index = {name.strip(): i for i, name in enumerate(header)}
        self.names = tuple(c for c in required + optional
                           if c in self.index and c not in self.string_names)
        self.checks = [check for check in checks if check[0][0] in self.index]
        return next((c for c in required if c not in self.index), None)

    def add(self, records, line):
        """Hand on a block of record lines (blank ones included) from file
        line `line` on, or those before its first bad record, which sets
        `error`; nothing once `error` is set."""
        if self.error is not None:
            return
        lines = np.arange(line, line + len(records))
        if "" in records:  # blank lines are no records, but keep their numbers
            lines = lines[np.fromiter(map(bool, records), bool, len(records))]
            records = list(filter(None, records))
        block = self._block(records)
        if block is None:
            lo, hi = 0, len(records)  # the first bad record is in records[lo:hi]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if self._block(records[lo:mid]) is None else (mid, hi)
            self.error = self._word(records[lo], lines[lo])
            block, lines = self._block(records[:lo]), lines[:lo]
        floats, strings = block
        self.consume(floats, lines, strings)

    def _block(self, records):
        """The float cells and string columns (distinct cells, each record's
        index into them) of record lines; None where a record is unreadable
        or fails a check."""
        try:
            floats = parse_cells(records, [self.index[c] for c in self.names])
            cells = parse_cells(records, [self.index[c] for c in self.string_names], object
                                ).T.tolist() if self.string_names else []
        except ValueError:
            return None
        strings = {}
        for c, column in zip(self.string_names, cells):
            index = {cell: i for i, cell in enumerate(dict.fromkeys(column))}
            strings[c] = list(index), np.fromiter(map(index.__getitem__, column), np.intp,
                                                  len(column))
        masks, relax = self._masks(floats, strings) if records else ((), None)  # none to check
        if all(mask.all() or (mask | relax).all() for mask in masks):
            return floats, strings
        return None

    def _masks(self, floats, strings):
        """Each check's test of the blocks, and which records need only numbers."""
        at = {c: i for i, c in enumerate(self.names)}
        def cells(columns):  # a string column, or a view of float columns
            if columns[0] in strings:
                return strings[columns[0]]
            return floats[:, at[columns[0]]:at[columns[0]] + len(columns)]
        face = cells((self.secondary,)) if self.secondary in at else np.nan
        return [test(cells(columns)) for columns, test, _ in self.checks], (
            (face > 0.0) & (face < np.inf))

    def _word(self, record, line):
        """A bad record's first failure, its cells read one at a time."""
        cells = [cell.lstrip(" ") for cell in record.split(",")]
        raw = {c: cells[i] if i < len(cells) else None for c, i in self.index.items()}
        values = {c: cell_value(raw[c]) for c in self.names}  # None: none, blank or bad
        floats = np.array([[np.nan if v is None else v for v in values.values()]])
        strings = {c: ([raw[c]], np.zeros(1, np.intp)) for c in self.string_names}
        read = {c: values.get(c, raw[c]) is not None for c in self.names + self.string_names}
        masks, relax = self._masks(floats, strings)
        for (columns, _, template), mask in zip(self.checks, masks):
            ok = np.broadcast_to(mask | relax, (1, len(columns)))[0] & [read[c] for c in columns]
            if not ok.all():
                column = columns[np.argmin(ok)]
                break
        raw, value = raw[column], values.get(column)
        if template is None:  # a number check: the cell is blank, unreadable or not finite
            problem = "empty cell" if not (raw and raw.strip()) else (
                "non-numeric value {raw!r}" if value is None else "non-finite value {raw!r}")
            template = "row {line}: " + problem + " in column {column!r}"
        return template.format(line=line, column=column, raw=raw, value=value)


_FRAME_CHECKS = (
    (("frame",), np.isfinite, None),
    (("frame",), lambda v: (v == np.trunc(v)) & (np.abs(v) < 2**63),  # fits int64
     "row {line}: non-integer value {raw!r} in column {column!r}"),
)
_OPENFACE_CHECKS = (
    (("face_id",), np.isfinite, None),
    (INTENSITY_COLUMNS, np.isfinite, None),
    (INTENSITY_COLUMNS, lambda v: (v >= 0.0) & (v <= 5.0),
     "row {line}: intensity {column} = {value} outside [0, 5]"),
    (PRESENCE_COLUMNS, np.isfinite, None),
    (PRESENCE_COLUMNS, lambda v: (v == 0.0) | (v == 1.0),
     "row {line}: presence {column} = {value} not in {{0, 1}}"),
    *_FRAME_CHECKS,
    (("timestamp",), np.isfinite, None),
    (("confidence", "success"), np.isfinite, None),
)


def _openface_csv(stream):
    """A _Csv over OpenFace text, and the (cells, file lines) blocks it hands on."""
    blocks = []
    csv = _Csv(stream, OPENFACE_REQUIRED, _OPENFACE_CHECKS,
               lambda floats, lines, strings: blocks.append((floats, lines)),
               optional=("face_id", "timestamp"), secondary="face_id")
    return csv, blocks


def _pack(names, blocks, starts):
    """The FRAME_DTYPE rows of the records a _Csv of columns `names` handed
    on, for videos one after another: video k's records start at file line
    starts[k] of the pass. Returns the rows, each video's first row and then
    their end, and each video's dropped secondary-face rows as its own file
    lines."""
    # the blocks' cells and file lines, not copied where one block holds them all
    blocks = [block for block in blocks if len(block[1])] or blocks
    cells, lines = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    secondary = (cells[:, names.index("face_id")] > 0 if "face_id" in names
                 else np.zeros(len(cells), bool))
    faces = lines[secondary]
    faces = [(part - start + 2).tolist() for part, start in
             zip(np.split(faces, np.searchsorted(faces, starts[1:])), starts)]
    kept = ~secondary  # each column is packed from its kept cells
    frames = np.zeros(np.count_nonzero(kept), dtype=FRAME_DTYPE)
    bounds = np.append(np.searchsorted(lines[kept], starts), len(frames))
    frames["frame_index"] = cells[kept, 0].astype(np.int64)
    if "timestamp" in names:
        frames["timestamp"] = cells[kept, names.index("timestamp")]
    frames["confidence"] = cells[kept, 1]
    frames["success"] = cells[kept, 2] != 0.0
    frames["intensities"] = cells[kept, 3:3 + NUM_INTENSITY_AUS]
    frames["presences"] = cells[kept, 3 + NUM_INTENSITY_AUS:3 + NUM_INTENSITY_AUS + NUM_AUS]
    return frames, bounds, faces


def _warn(video_id, faces=(), all_zero=()):
    """Log a video's dropped secondary faces (file lines) and all-zero AU
    series (a mask over the intensity AUs)."""
    for line in faces:
        log.warning("%s row %d: dropping secondary face", video_id, line)
    for j in np.flatnonzero(all_zero).tolist():
        log.warning("%s: %s all-zero", video_id, INTENSITY_AU_NAMES[j])


def parse_openface_csv(stream, video_id):
    """Parse one video's OpenFace output into an array of FRAME_DTYPE rows.

    Accepts text or a text stream. Rows with success = 0 are retained but
    flagged; rows for secondary faces (face_id > 0) are dropped with a
    warning. Read and checked in blocks of lines (see _Csv).
    """
    csv, blocks = _openface_csv(stream)
    frames, _, (faces,) = _pack(csv.names, blocks, [2])
    _warn(video_id, faces)  # the rows before a bad one are dropped all the same
    if csv.error:
        raise ContractError(csv.error)
    return frames


def _repair(frames, bounds):
    """Repair in place the zero intensities of videos one after another,
    video k's rows being frames[bounds[k]:bounds[k + 1]], each as
    interpolate_zero_intensities repairs one video; return each video's
    all-zero AU series, a (videos, AUs) mask."""
    bounds = np.asarray(bounds)
    index, n = frames["frame_index"], len(frames)
    begins = np.zeros(n + 1, bool)
    begins[bounds] = True  # the rows that begin a video, and the end
    if np.any((np.diff(index) <= 0) & ~begins[1:n]):
        raise ContractError("frames must be sorted by frame_index")
    series, mask = frames["intensities"], frames["interpolated"]  # n x 17 views
    zero = series == 0.0
    all_zero = np.zeros((len(bounds) - 1, NUM_INTENSITY_AUS), bool)
    if not zero.any():
        return all_zero
    order = np.arange(n, dtype=np.int32)[:, None]
    # the last known row at or before each row and the first at or after it,
    # -1 or n where there is none; a row of another video is none either
    before = np.maximum.accumulate(np.where(zero, -1, order), axis=0)
    after = np.minimum.accumulate(np.where(zero, n, order)[::-1], axis=0)[::-1]
    filled = bounds[:-1] < bounds[1:]
    all_zero[filled] = after[bounds[:-1][filled]] >= bounds[1:][filled, None]
    rows, cols = np.nonzero(zero)
    video = np.searchsorted(bounds, rows, side="right") - 1
    keep = ~all_zero[video, cols]
    rows, cols, video = rows[keep], cols[keep], video[keep]
    if not rows.size:
        return all_zero
    first, end = bounds[video], bounds[video + 1]
    x = index.astype(np.float64)
    # np.interp's segment for a zero cell: the last known row at or before
    # the last row of its position (a later row of its video where positions
    # round alike), and the known row after that one
    ends = np.flatnonzero(~np.append((x[1:] == x[:-1]) & ~begins[1:n], False))
    left = before[ends[np.searchsorted(ends, rows)], cols]
    no_left = left < first
    after_left = np.where(no_left, first, left + 1)
    right = after[np.minimum(after_left, n - 1), cols]
    no_right = (after_left == end) | (right >= end)
    lo, hi = np.where(no_left, first, left), np.where(no_right, end - 1, right)
    y0, y1, x0, x1, at = series[lo, cols], series[hi, cols], x[lo], x[hi], x[rows]
    with np.errstate(all="ignore"):  # np.interp warns of no inf or nan either
        slope = (y1 - y0) / (x1 - x0)
        values = slope * (at - x0) + y0
        nan = np.isnan(values)  # as np.interp: from the other end, then a flat segment
        values[nan] = (slope * (at - x1) + y1)[nan]
    values = np.where(np.isnan(values) & (y0 == y1), y0, values)
    # before the first known frame, at or after the last, or on a known position
    values = np.where(no_left, y1, np.where(no_right | (x0 == at), y0, values))
    series[rows, cols] = values
    mask[rows, cols] = True
    return all_zero


def interpolate_zero_intensities(frames, video_id):
    """Repair exactly-zero intensities by per-AU linear interpolation.

    Returns the repaired copy. Leading/trailing zeros take the nearest
    nonzero value; an all-zero AU series is left unchanged, with one logged
    warning. Input must be one video's frames sorted by frame_index. All
    AUs are repaired in one pass, with np.interp's arithmetic per column.
    """
    repaired = frames.copy()
    _warn(video_id, all_zero=_repair(repaired, [0, len(frames)])[0])
    return repaired


# the most text, in bytes, of the consecutive OpenFace files that
# read_openface_files parses, checks, packs and repairs at once
GROUP_BYTES = 1 << 18


def _group_lines(path):
    """The lines (see _lines) and size of the OpenFace file at `path` if it
    can join a group: a regular file of at most GROUP_BYTES, UTF-8 text with
    a header line and no NUL or quote; else None."""
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode) or info.st_size > GROUP_BYTES:
            return None
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):  # raised when the file is read alone
        return None
    if not text or "\0" in text or '"' in text:
        return None
    return _lines(text), info.st_size


def _parse_group(files):
    """parse_openface_csv and _repair of files of one header line at once,
    given as their lines: one _Csv pass over all their records, each file's
    numbered by its own file lines. Returns the rows, each file's first row
    and then their end, each file's secondary-face lines and all-zero AU
    series. Where any file fails a check, raises a ContractError that is
    not worded for the file."""
    csv, blocks = _openface_csv(files[0][0])  # the header line alone
    starts, records = [], []
    for lines in files:
        starts.append(2 + len(records))
        records += lines[1:]
        lines.clear()  # the records alone hold the text, freed once parsed
    csv.add(records, 2)
    del records
    if csv.error:
        raise ContractError(csv.error)
    frames, bounds, faces = _pack(csv.names, blocks, starts)
    blocks.clear()  # frees the cells, now packed
    return frames, bounds, faces, _repair(frames, bounds)


def _read_alone(video_id, path):
    """The repaired frames of the OpenFace file at `path`, read as a stream,
    its errors worded for the file (see naming)."""
    with naming(path), open(path, "r", encoding="utf-8") as fh:
        return interpolate_zero_intensities(parse_openface_csv(fh, video_id), video_id)


def _group_frames(group):
    """The (video id, path, frames) of a group of (video id, path, lines),
    parsed and repaired at once, each video's warnings logged as it is
    yielded; where the group fails a check, each file read alone in turn."""
    try:
        frames, bounds, faces, all_zero = _parse_group([lines for _, _, lines in group])
    except ContractError:  # read alone, the first bad file raises its own error
        frames = None
    for k, (video_id, path, _) in enumerate(group):
        if frames is None:
            yield video_id, path, _read_alone(video_id, path)
        else:
            _warn(video_id, faces[k], all_zero[k])
            yield video_id, path, frames[bounds[k]:bounds[k + 1]]


def read_openface_files(inputs):
    """The repaired frames of OpenFace files, given as (video id, path)
    pairs, as (video id, path, frames) in their order: parse_openface_csv
    and interpolate_zero_intensities run once over each group of
    consecutive files of one header line and at most GROUP_BYTES of text.
    A video's warnings are logged as it is yielded. A file is read alone,
    as a stream, when its turn comes, and raises its own error, worded for
    it (see naming): one that cannot join a group (see _group_lines), and
    each file of a group that fails a check. So the files before a bad one
    are yielded before its error, and reading ahead raises nothing."""
    group, size = [], 0  # the files read ahead: (video id, path, lines)
    for video_id, path in inputs:
        read = _group_lines(path)
        if group and (read is None or size + read[1] > GROUP_BYTES
                      or read[0][0] != group[0][2][0]):
            yield from _group_frames(group)
            group, size = [], 0
        if read is None:
            yield video_id, path, _read_alone(video_id, path)
        else:
            group.append((video_id, path, read[0]))
            size += read[1]
    if group:
        yield from _group_frames(group)


def _label_code(name):
    """A label's expression index; -1 where it names none."""
    try:
        return expression_index(name)
    except ContractError:
        return -1


def _cells_pass(test):
    """The check that a string column's cells pass `test`, given as its
    distinct cells (None: no cell) and each record's index into them."""
    def mask(column):  # one test per distinct cell
        cells, at = column
        return np.array([cell is not None and bool(test(cell)) for cell in cells])[at, None]
    return mask


_PREDICTION_CHECKS = (
    (("video_id",), _cells_pass(str.strip), "row {line}: empty cell in column {column!r}"),
    *_FRAME_CHECKS,
    (("label",), _cells_pass(lambda name: _label_code(name) >= 0),
     "unknown expression label: {raw!r}"),
    (SCORE_COLUMNS, np.isfinite, None),
)


def read_predictions(stream, consume):
    """Read per-frame expression predictions (video_id, frame, label,
    s0..s6) block by block, like parse_openface_csv, and hand each checked
    block on at once as consume(videos, frames, labels, scores): int32
    codes into the returned video ids (the stripped cells, in order of
    first appearance), int64 frames, int64 expression indices and the
    scores renormalised to sum to 1.

    Every cell is checked; then the scores must be non-negative and sum to
    1 within SCORE_SUM_TOLERANCE. These two score errors are kept and
    raised after the parse, so a bad cell anywhere comes first, then the
    first negative score, then the first bad sum; no block is handed on
    after either.
    """
    video_ids = {}  # stripped cell -> its code
    faults = {}  # rank -> the first negative score (0), the first bad sum (1)

    def block(floats, lines, strings):
        # scores as a contiguous copy: its row sums then add in a fixed order
        scores = np.ascontiguousarray(floats[:, 1:])
        with np.errstate(over="ignore"):  # a sum past the float range is inf: rejected below
            totals = scores.sum(axis=1)
        for rank, (bad, problem) in enumerate((
                ((scores < 0.0).any(axis=1), "negative score"),
                (np.abs(totals - 1.0) > SCORE_SUM_TOLERANCE,
                 "scores sum to {}, outside tolerance"))):
            if rank not in faults and bad.any():
                first = np.argmax(bad)
                faults[rank] = f"row {lines[first]}: " + problem.format(totals[first])
        if faults:
            return
        scores /= totals[:, None]
        (ids, id_at), (names, label_at) = strings["video_id"], strings["label"]
        videos = np.array([video_ids.setdefault(v.strip(), len(video_ids)) for v in ids],
                          np.int32)[id_at]
        labels = np.array([_label_code(name) for name in names], np.int64)[label_at]
        consume(videos, floats[:, 0].astype(np.int64), labels, scores)

    csv = _Csv(stream, PREDICTION_COLUMNS, _PREDICTION_CHECKS, block,
               strings=("video_id", "label"))
    for error in (csv.error, faults.get(0), faults.get(1)):
        if error:
            raise ContractError(error)
    return list(video_ids)


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
    header, payload = read_sealed(path, FRAME_STORE_MAGIC, "frame store",
                                  FRAME_STORE_VERSION, ("format", "dtype"))
    if header["format"] != FRAME_STORE_FORMAT:
        raise ContractError("corrupt frame store: unknown format")
    if header["dtype"] != FRAME_STORE_DTYPE:
        raise ContractError("corrupt frame store: unknown row dtype")
    if len(payload) % FRAME_DTYPE.itemsize:
        raise ContractError("corrupt frame store: payload is not whole rows")
    return np.frombuffer(payload, dtype=FRAME_DTYPE)


def reliable_detections(frames, min_confidence=0.8):
    """Frames usable for knowledge extraction: successful and confident;
    `min_confidence` must be in [0, 1]."""
    check_unit_interval("min_confidence", min_confidence)
    return frames[frames["success"] & (frames["confidence"] >= min_confidence)]
