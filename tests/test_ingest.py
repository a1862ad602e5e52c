import array
import csv
import hashlib
import io
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit import ingest
from aukit.domain import (
    AU_NAMES,
    EXPRESSIONS,
    INTENSITY_AU_NAMES,
    NUM_EXPRESSIONS,
    NUM_INTENSITY_AUS,
    ContractError,
    expression_index,
)
from aukit.ingest import (
    FRAME_DTYPE,
    FRAME_STORE_FORMAT,
    FRAME_STORE_MAGIC,
    FRAME_STORE_VERSION,
    INTENSITY_COLUMNS,
    OPENFACE_REQUIRED,
    PRESENCE_COLUMNS,
    SCORE_COLUMNS,
    SCORE_SUM_TOLERANCE,
    interpolate_zero_intensities,
    load_frame_predictions,
    parse_openface_csv,
    prediction_table,
    read_frame_store,
    reliable_detections,
    write_frame_store,
)
from aukit.sealed import PAYLOAD_ALIGNMENT, write_sealed

from conftest import make_frames, openface_csv


class TestParseOpenfaceCsv:
    def test_passthrough_values(self):
        text = openface_csv([{"AU01_r": "1.2", "AU01_c": "1.0"}])
        frames = parse_openface_csv(text, "v1")
        assert frames.dtype == FRAME_DTYPE
        assert len(frames) == 1
        assert frames[0]["intensities"][0] == 1.2
        assert frames[0]["presences"][0] == 1
        assert frames[0]["success"]

    def test_column_order_independent(self):
        text = openface_csv([{"AU45_r": "2.5"}])
        lines = text.splitlines()
        header = lines[0].split(", ")
        order = list(reversed(range(len(header))))
        shuffled_header = ", ".join(header[i] for i in order)
        shuffled_rows = [
            ", ".join(line.split(", ")[i] for i in order) for line in lines[1:]
        ]
        frames = parse_openface_csv(
            "\n".join([shuffled_header] + shuffled_rows), "v1"
        )
        assert frames[0]["intensities"][-1] == 2.5  # AU45 is the last intensity

    def test_missing_column_rejected(self):
        text = openface_csv([{}], exclude=("AU45_r",))
        with pytest.raises(ContractError, match='"AU45_r"'):
            parse_openface_csv(text, "v1")

    def test_intensity_out_of_range_cites_row(self):
        text = openface_csv([{}, {"AU12_r": "6.3"}])
        with pytest.raises(ContractError, match="row 3"):
            parse_openface_csv(text, "v1")

    def test_presence_not_binary_rejected(self):
        text = openface_csv([{"AU01_c": "0.5"}])
        with pytest.raises(ContractError, match="AU01_c"):
            parse_openface_csv(text, "v1")

    def test_non_numeric_cell_cites_row_and_column(self):
        text = openface_csv([{"AU06_r": "oops"}])
        with pytest.raises(ContractError, match="row 2.*AU06_r"):
            parse_openface_csv(text, "v1")

    def test_failed_frames_retained_but_flagged(self):
        text = openface_csv([{"success": "0", "confidence": "0.1"}])
        frames = parse_openface_csv(text, "v1")
        assert len(frames) == 1
        assert not frames[0]["success"]

    def test_secondary_faces_dropped(self):
        text = openface_csv([{}, {"face_id": "1"}])
        frames = parse_openface_csv(text, "v1")
        assert len(frames) == 1

    @pytest.mark.parametrize("form", [str, io.StringIO])
    def test_input_forms_agree(self, form):
        text = openface_csv([{"AU12_r": "2.5"}, {"face_id": "1"}, {}])
        expected = parse_openface_csv(text, "v1")
        assert parse_openface_csv(form(text), "v1").tobytes() == expected.tobytes()

    def test_nul_names_its_file_line(self):
        # a NUL in a secondary-face row, whose cells are never read, on file
        # line 4 (line 3 is blank)
        lines = openface_csv([{}, {"face_id": "1", "timestamp": "0\0"}]).splitlines()
        text = "\n".join(lines[:2] + [""] + lines[2:]) + "\n"
        with pytest.raises(ContractError, match="^row 4: NUL byte$"):
            parse_openface_csv(text, "v1")

    def test_rows_numbered_by_file_line(self):
        # file line 3 is blank, so the bad row is file line 4
        lines = openface_csv([{}, {"AU12_r": "6.3"}]).splitlines()
        text = "\n".join(lines[:2] + [""] + lines[2:]) + "\n"
        with pytest.raises(ContractError, match="^row 4: intensity AU12_r"):
            parse_openface_csv(text, "v1")

    def test_secondary_face_warning_cites_file_line(self, caplog):
        lines = openface_csv([{}, {"face_id": "1"}]).splitlines()
        text = "\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n"
        with caplog.at_level(logging.WARNING, logger="aukit.ingest"):
            frames = parse_openface_csv(text, "v1")
        assert len(frames) == 1
        assert caplog.messages == ["v1 row 5: dropping secondary face"]

    def test_header_only(self):
        for text in (openface_csv([]), openface_csv([]).rstrip("\n"), openface_csv([]) + "\n\n"):
            frames = parse_openface_csv(text, "v1")
            assert frames.dtype == FRAME_DTYPE and frames.shape == (0,)

    def test_lone_carriage_return_ends_a_line(self):
        text = openface_csv([{"AU12_r": "2.5"}, {"face_id": "1"}, {}])
        expected = parse_openface_csv(text, "v1")
        assert parse_openface_csv(text.replace("\n", "\r"), "v1").tobytes() == expected.tobytes()

    def test_quote_is_an_error_naming_its_line(self):
        text = openface_csv([{}, {}, {"AU12_r": '"2.5"'}])
        with pytest.raises(ContractError, match="^row 4: quoted cell$"):
            parse_openface_csv(text, "v1")

    @pytest.mark.parametrize("cell", ["1_0", "\uff11"])
    def test_loadtxt_grammar_decides_numbers(self, cell):
        text = openface_csv([{"AU06_r": cell}])
        with pytest.raises(ContractError,
                           match=f"^row 2: non-numeric value '{cell}' in column 'AU06_r'$"):
            parse_openface_csv(text, "v1")

    @pytest.mark.parametrize("exclude", [(), ("frame",)], ids=["whole", "missing_column"])
    def test_byte_order_mark_is_named(self, exclude):
        # it read as part of the first column's name: a missing "frame", or an
        # optional first column such as face_id silently left out
        text = "\ufeff" + openface_csv([{}, {"AU12_r": "x"}], exclude=exclude)
        with pytest.raises(ContractError, match="^row 1: byte-order mark before the header$"):
            parse_openface_csv(text, "v1")
        face_first = "\ufeffface_id, " + openface_csv([{}], exclude=("face_id",)).replace(
            "\n", "\n0, ", 1)
        with pytest.raises(ContractError, match="^row 1: byte-order mark before the header$"):
            parse_openface_csv(face_first, "v1")
        assert len(parse_openface_csv(face_first[1:], "v1")) == 1

    def test_byte_order_mark_ranks_below_a_nul_or_quote(self):
        for cell, message in (("0\0", "^row 3: NUL byte$"), ('"0"', "^row 3: quoted cell$")):
            text = "\ufeff" + openface_csv([{}, {"timestamp": cell}])
            with pytest.raises(ContractError, match=message):
                parse_openface_csv(text, "v1")

    def test_secondary_face_cells_must_be_numbers(self):
        text = openface_csv([{}, {"face_id": "1", "AU06_r": "nan", "confidence": "nan"}])
        assert len(parse_openface_csv(text, "v1")) == 1
        text = openface_csv([{}, {"face_id": "1", "AU06_r": "garbage"}])
        with pytest.raises(ContractError,
                           match="^row 3: non-numeric value 'garbage' in column 'AU06_r'$"):
            parse_openface_csv(text, "v1")



class TestInterpolation:
    def _series(self, values, au=2):
        frames = make_frames(len(values))
        frames["intensities"][:, au] = values
        return frames

    def test_linear_midpoint(self, caplog):
        with caplog.at_level(logging.WARNING, logger="aukit.ingest"):
            repaired = interpolate_zero_intensities(
                self._series([1.0, 0.0, 3.0]), "v0"
            )
        assert repaired["intensities"][:, 2].tolist() == [1.0, 2.0, 3.0]
        assert repaired[1]["interpolated"][2]
        assert not caplog.messages

    def test_leading_zeros_take_nearest_nonzero(self):
        repaired = interpolate_zero_intensities(self._series([0.0, 0.0, 2.0]), "v0")
        assert repaired["intensities"][:, 2].tolist() == [2.0, 2.0, 2.0]

    def test_all_zero_series_flagged_unchanged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="aukit.ingest"):
            repaired = interpolate_zero_intensities(
                self._series([0.0, 0.0, 0.0]), "v0"
            )
        assert repaired["intensities"][:, 2].tolist() == [0.0, 0.0, 0.0]
        assert caplog.messages == ["v0: AU04 all-zero"]

    def test_nonzero_values_never_change(self, rng):
        values = rng.uniform(0, 5, size=(20, 17))
        values[rng.random(values.shape) < 0.3] = 0.0
        repaired = interpolate_zero_intensities(
            make_frames(20, intensities=values), "v0"
        )
        out = repaired["intensities"]
        nonzero = values != 0
        assert np.array_equal(out[nonzero], values[nonzero])
        # no zeros remain in any column that had a nonzero value
        for j in range(17):
            if nonzero[:, j].any():
                assert np.all(out[:, j] > 0)

    def test_input_left_unchanged(self):
        frames = self._series([1.0, 0.0, 3.0])
        before = frames.tobytes()
        interpolate_zero_intensities(frames, "v0")
        assert frames.tobytes() == before

    def test_idempotent(self, rng):
        values = rng.uniform(0, 5, size=(12, 17))
        values[rng.random(values.shape) < 0.4] = 0.0
        once = interpolate_zero_intensities(
            make_frames(12, intensities=values), "v0"
        )
        twice = interpolate_zero_intensities(once, "v0")
        assert np.array_equal(once["intensities"], twice["intensities"])

    def test_unsorted_rejected(self):
        with pytest.raises(ContractError, match="sorted"):
            interpolate_zero_intensities(make_frames(2, frame_index=[2, 1]), "v0")


def _interpolate_per_au(frames, video_id):
    """The per-AU np.interp loop that interpolate_zero_intensities replaced,
    kept as the oracle of its one pass over all AUs."""
    repaired = frames.copy()
    series, mask = repaired["intensities"], repaired["interpolated"]
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
        series[zero, j] = np.interp(positions[zero], positions[known], col[known])
        mask[zero, j] = True
    return repaired


def _zero_repair_case(rng, n, start):
    """n frames from past `start` on, with uneven frame gaps (from 2**53 on,
    neighbouring positions can round alike as floats); per AU: random zeros,
    leading and trailing zeros, one known value, an all-zero series, one
    with no zero at all, and known values np.interp meets as inf, nan and a
    slope past the float range."""
    values = rng.uniform(0.01, 5.0, size=(n, NUM_INTENSITY_AUS))
    values[rng.random(values.shape) < 0.3] = 0.0
    values[:2, 1] = values[-2:, 1] = 0.0
    values[:, 2] = 0.0
    values[n // 2:n // 2 + 1, 2] = 2.5
    values[:, 3] = 0.0
    values[:, 4] = 1.5
    values[rng.random(n) < 0.2, 5] = np.inf
    values[rng.random(n) < 0.2, 6] = -np.inf
    values[rng.random(n) < 0.1, 7] = np.nan
    values[rng.random(n) < 0.3, 8] = 1e308
    values[rng.random(n) < 0.3, 8] = -1e308
    return make_frames(n, frame_index=start + np.cumsum(rng.integers(1, 7, n)),
                       intensities=values)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 50, 300])
@pytest.mark.parametrize("start", [1, 2**53, 2**62],
                         ids=["small", "float_spacing_2", "float_spacing_1024"])
def test_interpolation_matches_per_au_interp(n, start):
    frames = _zero_repair_case(np.random.default_rng(n), n, start)
    assert (_outcome(lambda f: interpolate_zero_intensities(f, "v"), frames)
            == _outcome(lambda f: _interpolate_per_au(f, "v"), frames))


def test_repair_of_videos_one_after_another_matches_each_alone(caplog):
    # ingest repairs a group's videos in one pass: no known value of one
    # video may reach into the next, whose frames start over; videos are
    # empty, one frame long, or have neighbouring positions that round alike
    rng = np.random.default_rng(3)
    videos = [_zero_repair_case(rng, n, start) for n, start in (
        (0, 1), (6, 1), (1, 2**53), (0, 1), (0, 5), (40, 2**53), (30, 2**62), (9, 1),
        (3, 2**62), (2, 1), (0, 1))]
    group = np.concatenate(videos)
    bounds = np.cumsum([0] + [len(video) for video in videos])
    all_zero = ingest._repair(group, bounds)
    assert all_zero[:, 3].tolist() == [len(video) > 0 for video in videos]
    for k, video in enumerate(videos):
        caplog.clear()
        alone = interpolate_zero_intensities(video, f"v{k}")
        warnings = caplog.messages
        assert group[bounds[k]:bounds[k + 1]].tobytes() == alone.tobytes(), k
        caplog.clear()
        ingest._warn(f"v{k}", all_zero=all_zero[k])
        assert caplog.messages == warnings


def test_repair_checks_the_order_within_each_video():
    group = make_frames(4, frame_index=[5, 9, 1, 2])
    assert not ingest._repair(group, [0, 2, 4]).any()
    for bounds in ([0, 4], [0, 3, 4], [0, 0, 4]):
        with pytest.raises(ContractError, match="^frames must be sorted by frame_index$"):
            ingest._repair(group, bounds)


class TestLoadFramePredictions:
    HEADER = "video_id,frame,label," + ",".join(f"s{j}" for j in range(7))

    def test_valid_simplex_point(self):
        text = self.HEADER + "\nv1,1,Happy,0.7,0.05,0.05,0.05,0.05,0.05,0.05\n"
        preds = load_frame_predictions(text)
        assert preds[0]["video_id"] == "v1" and preds[0]["frame_index"] == 1
        assert preds[0]["label"] == 0
        assert preds[0]["scores"][0] == pytest.approx(0.7)

    def test_renormalizes_within_tolerance(self):
        text = self.HEADER + "\nv1,1,Sad,0.2005,0.3,0.1,0.1,0.1,0.1,0.1\n"
        preds = load_frame_predictions(text)
        assert preds[0]["scores"].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sum(self):
        text = self.HEADER + "\nv1,1,Sad,0.5,0.3,0.1,0.1,0.1,0.1,0.1\n"
        with pytest.raises(ContractError, match="sum"):
            load_frame_predictions(text)

    def test_rejects_negative_score(self):
        text = self.HEADER + "\nv1,1,Sad,-0.1,0.4,0.2,0.1,0.1,0.2,0.1\n"
        with pytest.raises(ContractError, match="negative"):
            load_frame_predictions(text)

    def test_rejects_unknown_label(self):
        text = self.HEADER + "\nv1,1,Calm,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n"
        with pytest.raises(ContractError, match="Calm"):
            load_frame_predictions(text)

    def test_nul_names_its_file_line(self):
        text = self.HEADER + "\nv1,1,Sad,0.4,0.1,0.1,0.1,0.1,0.1,0.1\nv\0,2,Sad\n"
        with pytest.raises(ContractError, match="^row 3: NUL byte$"):
            load_frame_predictions(text)

    def test_score_sum_past_float_range_is_contract_error(self):
        # the sum overflows to inf: rejected by the tolerance, with no numpy warning
        text = self.HEADER + "\nv1,1,Sad,1e308,1e308,0,0,0,0,0\n"
        with pytest.raises(ContractError, match="^row 2: scores sum to inf"):
            load_frame_predictions(text)

    ROW = "v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1"

    @pytest.mark.parametrize("bad_row, message", [
        ("v1,2,Happy,x,0.1,0.1,0.1,0.1,0.1,0.1", "^row 4: non-numeric value 'x' in column 's0'"),
        ("v1,2,Happy,-0.1,0.5,0.1,0.1,0.1,0.2,0.1", "^row 4: negative score$"),
        ("v1,2,Happy,0.5,0.5,0.1,0.1,0.1,0.1,0.1", "^row 4: scores sum to"),
    ])
    def test_rows_numbered_by_file_line(self, bad_row, message):
        # file line 3 is blank, so the bad row is file line 4
        text = "\n".join([self.HEADER, self.ROW, "", bad_row]) + "\n"
        with pytest.raises(ContractError, match=message):
            load_frame_predictions(text)

    def test_header_only(self):
        for text in (self.HEADER, self.HEADER + "\n", self.HEADER + "\n\n"):
            preds = load_frame_predictions(text)
            assert preds.shape == (0,)
            assert preds.tobytes() == _predictions_rows(text).tobytes()

    def test_lone_carriage_return_ends_a_line(self):
        text = "\n".join([self.HEADER, self.ROW, "v2,2,Sad" + self.ROW[10:]]) + "\n"
        expected = load_frame_predictions(text)
        assert load_frame_predictions(text.replace("\n", "\r")).tobytes() == expected.tobytes()
        mixed = self.HEADER + "\n" + self.ROW + "\r" + self.ROW.replace(",1,", ",2,") + "\n"
        assert len(load_frame_predictions(mixed)) == 2

    def test_quote_is_an_error_naming_its_line(self):
        text = "\n".join([self.HEADER, self.ROW, '"v2",2,Sad' + self.ROW[10:]]) + "\n"
        with pytest.raises(ContractError, match="^row 3: quoted cell$"):
            load_frame_predictions(text)

    @pytest.mark.parametrize("cell", ["1_0", "\uff11"])
    def test_loadtxt_grammar_decides_numbers(self, cell):
        text = self.HEADER + "\nv1,1,Happy," + cell + ",0.1,0.1,0.1,0.1,0.1,0.1\n"
        with pytest.raises(ContractError,
                           match=f"^row 2: non-numeric value '{cell}' in column 's0'$"):
            load_frame_predictions(text)

    def test_record_without_its_video_id_cell_is_an_error(self):
        header = ",".join(["frame", "label"] + [f"s{j}" for j in range(7)] + ["video_id"])
        text = header + "\n1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n"
        with pytest.raises(ContractError, match="^row 2: empty cell in column 'video_id'$"):
            load_frame_predictions(text)

    @pytest.mark.parametrize("text", [
        HEADER + "\n" + ROW + "\n",
        HEADER + "\nv1,1,Calm,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n",
        HEADER.replace("s6", "s") + "\n",
        "",
    ], ids=["valid", "bad_cell", "missing_column", "empty"])
    def test_byte_order_mark_is_named(self, text):
        with pytest.raises(ContractError, match="^row 1: byte-order mark before the header$"):
            load_frame_predictions("\ufeff" + text)

    @pytest.mark.parametrize("cell", ["", " ", "  "])
    def test_blank_video_id_is_an_error(self, cell):
        # a blank id would match no frame store, so its rows would be dropped
        good = "v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n"
        text = (self.HEADER + "\n" + good + cell + ",2,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n"
                + good)
        with pytest.raises(ContractError, match="^row 3: empty cell in column 'video_id'$"):
            load_frame_predictions(text)
        with pytest.raises(ContractError, match="^row 3: empty cell in column 'video_id'$"):
            _predictions_rows(text)



# --- block parse against the row-by-row reference parse ---------------------
#
# The reference parse reads one csv record at a time, each cell on its own,
# rows numbered by file line. It decides the inputs the readers narrow as
# they do: line ends as a text-mode file reads them, a quote an error, each
# cell by the np.loadtxt grammar, a secondary face's cells numbers (nan
# included), and a record lacking its video_id cell, or with a blank one, an
# error.

log = logging.getLogger("aukit.ingest")


def _cell_float(row, column, row_number, finite=True):
    raw = row.get(column)
    if raw is None or raw.strip() == "":
        raise ContractError(f"row {row_number}: empty cell in column {column!r}")
    try:
        value = float(np.loadtxt([raw], delimiter=",", comments=None))
    except ValueError:
        raise ContractError(
            f"row {row_number}: non-numeric value {raw!r} in column {column!r}"
        ) from None
    if finite and not math.isfinite(value):
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


def _csv_reader(text, required):
    """A csv.DictReader over text whose header (stripped of spaces) names
    every `required` column."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if '"' in text:
        line = text.count("\n", 0, text.index('"')) + 1
        raise ContractError(f"row {line}: quoted cell")
    reader = csv.DictReader(io.StringIO(text), skipinitialspace=True)
    if reader.fieldnames is None:
        raise ContractError("empty input: no header row")
    reader.fieldnames = [h.strip() for h in reader.fieldnames]
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        raise ContractError(f'missing column "{missing[0]}"')
    return reader


def _openface_rows(text, video_id):
    """The reference parse of parse_openface_csv."""
    reader = _csv_reader(text, OPENFACE_REQUIRED)
    header = reader.fieldnames
    rows = []
    for row in reader:
        row_number = reader.line_num
        if "face_id" in header and _cell_float(row, "face_id", row_number) > 0:
            for col in (INTENSITY_COLUMNS + PRESENCE_COLUMNS
                        + ("frame", "timestamp", "confidence", "success")):
                if col in header:
                    _cell_float(row, col, row_number, finite=False)
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


def _predictions_rows(text):
    """The reference parse of load_frame_predictions."""
    reader = _csv_reader(text, ("video_id", "frame", "label") + SCORE_COLUMNS)
    video_ids, frame_indices, labels, scores = [], [], [], array.array("d")
    row_numbers = []
    for row in reader:
        row_number = reader.line_num
        row_numbers.append(row_number)
        if not (row["video_id"] or "").strip():
            raise ContractError(f"row {row_number}: empty cell in column 'video_id'")
        video_ids.append(row["video_id"].strip())
        frame_indices.append(_cell_int(row, "frame", row_number))
        labels.append(expression_index(row["label"]))
        scores.extend([_cell_float(row, c, row_number) for c in SCORE_COLUMNS])
    scores = np.frombuffer(scores).reshape(-1, NUM_EXPRESSIONS)
    negative = np.flatnonzero((scores < 0).any(axis=1))
    if negative.size:
        raise ContractError(f"row {row_numbers[negative[0]]}: negative score")
    with np.errstate(over="ignore"):
        totals = scores.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > SCORE_SUM_TOLERANCE)
    if off.size:
        raise ContractError(
            f"row {row_numbers[off[0]]}: scores sum to {totals[off[0]]}, outside tolerance"
        )
    return prediction_table(video_ids, frame_indices, labels, scores / totals[:, None])


# spellings float() and np.loadtxt may read differently, and values a check rejects
EDGE_CELLS = (" 1.0", "1e0", "-0.0", "1_0", '"1.0"', "\uff11", "nan", "1e400", "",
              "0.5", "5.5", "-1")
OPENFACE_COLUMNS = (["frame", "face_id", "timestamp", "confidence", "success"]
                    + [f"{n}_r" for n in INTENSITY_AU_NAMES] + [f"{n}_c" for n in AU_NAMES])
PREDICTION_COLUMNS = ["video_id", "frame", "label"] + [f"s{j}" for j in range(7)]


def _spellings(values):
    """Each value spelled the ways numeric CSV writers spell numbers."""
    return [f(v) for v in values for f in (repr, "{:.2f}".format, "{:e}".format)]


# sampled rather than drawn per cell, which keeps 40-column rows cheap
INTENSITY_CELLS = _spellings(np.random.default_rng(0).uniform(0, 5, 40).tolist()) + ["0", "5", "5.0"]


def _openface_cell(column):
    if column == "face_id":
        return st.sampled_from(["0", "0", "0", "1"])
    if column == "frame":
        return st.integers(0, 10**6).map(str)
    if column.endswith("_c") or column == "success":
        return st.sampled_from(["0", "1", "0.0", "1.0"])
    if column.endswith("_r"):
        return st.sampled_from(INTENSITY_CELLS)
    return st.floats(0, 1e4).map(repr)


def _prediction_cells(draw):
    weights = draw(st.lists(st.integers(0, 1000), min_size=7, max_size=7))
    total = sum(weights)
    scores = [f"{w / total:.6f}" for w in weights] if total else ["0"] * 7
    label = draw(st.sampled_from(EXPRESSIONS + ("happy", " Sad ", "Calm")))
    cells = [draw(st.sampled_from(["v1", " v2", "A_long_video_id"])),
             str(draw(st.integers(0, 10**6))), label] + scores
    return dict(zip(PREDICTION_COLUMNS, cells))


@st.composite
def csv_variants(draw, columns, rows, targets):
    """A CSV text of `rows` (column -> cell dicts) over `columns`, varied the
    ways a real file varies: shuffled and duplicated columns, edge cells in
    the `targets` columns, extra trailing cells, short rows, blank lines,
    CRLF."""
    columns = list(draw(st.permutations(columns)))
    if draw(st.booleans()):  # a DictReader keeps the last of a duplicated name
        columns.append(draw(st.sampled_from(columns)))
    lines = [columns] + [[row[c] for c in columns] for row in rows]
    faces = [i for i, c in enumerate(columns) if c == "face_id"]
    face = faces[-1] if faces else None  # the one a DictReader reads
    for cells in lines[1:]:
        if face is not None and cells[face] == "1" and draw(st.booleans()):
            # cells of a dropped secondary-face row are never read
            cells[:] = [c if i == face else "garbage" for i, c in enumerate(cells)]
        if draw(st.integers(0, 9)) == 0:
            cells.append("extra")
    if len(lines) > 1:
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            target = draw(st.sampled_from(targets))
            at = draw(st.sampled_from([i for i, c in enumerate(columns) if c == target]))
            lines[draw(st.integers(1, len(lines) - 1))][at] = draw(st.sampled_from(EDGE_CELLS))
        if draw(st.integers(0, 7)) == 0:
            cells = lines[draw(st.integers(1, len(lines) - 1))]
            del cells[draw(st.integers(0, len(cells) - 1)):]
    sep = draw(st.sampled_from([",", ", "]))
    text = [sep.join(cells) for cells in lines]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        text.insert(draw(st.integers(1, len(text))), "")
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    return newline.join(text) + draw(st.sampled_from(["", newline]))


def _outcome(read, text):
    """What a reader makes of text: its table's bytes and warnings, or its error."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("aukit.ingest")
    logger.addHandler(handler)
    try:
        table = read(text)
    except ContractError as exc:
        return "error", str(exc), [r.getMessage() for r in records]
    finally:
        logger.removeHandler(handler)
    return table.dtype.descr, table.tobytes(), [r.getMessage() for r in records]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_openface_block_parse_matches_row_parse(data):
    rows = data.draw(st.lists(st.fixed_dictionaries(
        {c: _openface_cell(c) for c in OPENFACE_COLUMNS}), max_size=4))
    text = data.draw(csv_variants(OPENFACE_COLUMNS, rows, targets=(
        "frame", "face_id", "timestamp", "confidence", "success", "AU01_r", "AU45_r",
        "AU01_c", "AU28_c")))
    assert (_outcome(lambda t: parse_openface_csv(t, "v"), text)
            == _outcome(lambda t: _openface_rows(t, "v"), text))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_prediction_block_parse_matches_row_parse(data):
    rows = [_prediction_cells(data.draw) for _ in range(data.draw(st.integers(0, 4)))]
    text = data.draw(csv_variants(PREDICTION_COLUMNS, rows, targets=PREDICTION_COLUMNS))
    assert _outcome(load_frame_predictions, text) == _outcome(_predictions_rows, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_str_and_text_stream_read_alike(data):
    # a text-mode stream translates \r\n and a lone \r to \n; a str is read the same way
    if data.draw(st.booleans(), label="openface"):
        rows = data.draw(st.lists(st.fixed_dictionaries(
            {c: _openface_cell(c) for c in OPENFACE_COLUMNS}), max_size=3))
        text = data.draw(csv_variants(OPENFACE_COLUMNS, rows, targets=("AU01_r", "face_id")))
        read = lambda t: parse_openface_csv(t, "v")
    else:
        rows = [_prediction_cells(data.draw) for _ in range(data.draw(st.integers(0, 3)))]
        text = data.draw(csv_variants(PREDICTION_COLUMNS, rows, targets=PREDICTION_COLUMNS))
        read = load_frame_predictions
    for variant in (text, text.replace("\n", "\r")):
        stream = io.TextIOWrapper(io.BytesIO(variant.encode()), encoding="utf-8")
        assert _outcome(read, variant) == _outcome(read, stream)


def test_openface_edge_cells_match_row_parse():
    for column in ("frame", "face_id", "timestamp", "confidence", "success", "AU12_r", "AU28_c"):
        for cell in EDGE_CELLS:
            for rows in ([{}, {column: cell}], [{}, {"face_id": "1", column: cell}]):
                text = openface_csv(rows)
                assert (_outcome(lambda t: parse_openface_csv(t, "v"), text)
                        == _outcome(lambda t: _openface_rows(t, "v"), text)), text


def test_prediction_edge_cells_match_row_parse():
    header = ",".join(PREDICTION_COLUMNS)
    valid = "v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1"
    for at in range(len(PREDICTION_COLUMNS)):
        for cell in EDGE_CELLS:
            row = valid.split(",")
            row[at] = cell
            text = "\n".join([header, valid, ",".join(row)]) + "\n"
            assert _outcome(load_frame_predictions, text) == _outcome(_predictions_rows, text), text


# --- the block reader ---------------------------------------------------------
#
# The readers read about BLOCK_CHARS characters at a time and parse the whole
# lines they complete, one block after another. Records, their file lines,
# errors and their precedence must not depend on where a read ends.


def test_edge_cells_match_row_parse_in_small_blocks(small_blocks):
    test_openface_edge_cells_match_row_parse()
    test_prediction_edge_cells_match_row_parse()


@pytest.mark.usefixtures("small_blocks")
class TestParseOpenfaceCsvInSmallBlocks(TestParseOpenfaceCsv):
    """The OpenFace reader's checks and wording, with headers and records
    longer than a block."""


@pytest.mark.usefixtures("small_blocks")
class TestLoadFramePredictionsInSmallBlocks(TestLoadFramePredictions):
    """The predictions reader's checks and wording, with headers and records
    longer than a block."""


def _stream_forms(text):
    """text as a str, as a stream that leaves line ends as they are, and
    as a text-mode stream, which translates them."""
    return (text, io.StringIO(text),
            io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8"))


def _csv_records(stream):
    """The float cells and file lines of the blocks _Csv hands on, joined:
    one column `a`."""
    blocks = []
    ingest._Csv(stream, ("a",), (), lambda floats, lines, strings: blocks.append((floats, lines)))
    return tuple(map(np.concatenate, zip(*blocks)))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 64, 1 << 16])
def test_block_reader_records_and_file_lines(monkeypatch, size):
    # every kind of line end, blank lines among them (`\n\n`, `\r\n\r\n`,
    # `\r\r`), and a last line without one; some read ends inside a `\r\n`
    ends = ["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\r"]
    text = "a" + "".join(ends[i % len(ends)] + str(i) for i in range(400))
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    expected = [(float(line), number) for number, line in enumerate(lines, 1)
                if line and number > 1]
    monkeypatch.setattr(ingest, "BLOCK_CHARS", size)
    for stream in _stream_forms(text):
        floats, lines = _csv_records(stream)
        assert list(zip(floats[:, 0].tolist(), lines.tolist())) == expected


def test_crlf_split_between_two_reads_is_one_line_end():
    # the first read ends with the `\r` of a `\r\n`; read as two line ends,
    # the last record would sit on file line 32 770
    text = "a\n" + "1\n" * 32766 + "3"
    assert len(text) == ingest.BLOCK_CHARS - 1
    text += "\r\n4\n"
    for stream, again in zip(_stream_forms(text), _stream_forms(text)):
        blocks = list(ingest._blocks(stream))
        assert len(blocks) == 2 and all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == text.replace("\r\n", "\n")
        floats, lines = _csv_records(again)
        assert floats[-2:, 0].tolist() == [3.0, 4.0]
        assert lines[-2:].tolist() == [32768, 32769]


def test_header_longer_than_a_block(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 16)
    text = "\r\n".join([",".join(PREDICTION_COLUMNS), "", "v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1"])
    for stream in _stream_forms(text):
        preds = load_frame_predictions(stream)
        assert preds["video_id"].tolist() == ["v1"] and preds["frame_index"].tolist() == [1]


PREDICTION_HEADER = ",".join(PREDICTION_COLUMNS)


def _prediction_rows(count, start=1):
    """`count` valid prediction lines of video v1 from frame `start` on."""
    return [f"v1,{i},Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1" for i in range(start, start + count)]


def _past_first_block(first, last, header=PREDICTION_HEADER):
    """A predictions text: the line `first`, then valid lines past the first
    64 KiB block, then the line `last`; and the file line of `last`."""
    lines = [header, first] + _prediction_rows(2000, start=2) + [last]
    text = "\n".join(lines) + "\n"
    assert text.index(last) > 1 << 16
    return text, len(lines)


@pytest.mark.parametrize("first", [
    "v1,1,Happy,x,0.1,0.1,0.1,0.1,0.1,0.1",  # a bad cell
    '"v1",1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1',  # a quote
], ids=["bad_cell", "quote"])
def test_nul_past_the_first_block_wins(first):
    text, line = _past_first_block(first, "v1,9999,Happy,0.4\0,0.1,0.1,0.1,0.1,0.1,0.1")
    for stream in _stream_forms(text):
        with pytest.raises(ContractError, match=f"^row {line}: NUL byte$"):
            load_frame_predictions(stream)


def test_quote_past_the_first_block_wins_over_a_bad_cell():
    text, line = _past_first_block("v1,1,Happy,x,0.1,0.1,0.1,0.1,0.1,0.1",
                                   'v1,9999,"Happy",0.4,0.1,0.1,0.1,0.1,0.1,0.1')
    for stream in _stream_forms(text):
        with pytest.raises(ContractError, match=f"^row {line}: quoted cell$"):
            load_frame_predictions(stream)


def test_bad_header_then_a_nul_names_the_nul():
    header = PREDICTION_HEADER.replace(",s6", "")
    text, line = _past_first_block("v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1",
                                   "v1,9999,Happy\0,0.4,0.1,0.1,0.1,0.1,0.1,0.1", header)
    for stream in _stream_forms(text):
        with pytest.raises(ContractError, match=f"^row {line}: NUL byte$"):
            load_frame_predictions(stream)
    with pytest.raises(ContractError, match='^missing column "s6"$'):
        load_frame_predictions(text.replace("\0", ""))


@pytest.mark.parametrize("last", [
    "v1,9999,Happy,0.4,0.1,0.1,oops,0.1,0.1,0.1",
    "v1,9999,Happy,-0.1,0.5,0.1,0.1,0.1,0.2,0.1",
    "v1,9999,Happy,0.5,0.5,0.1,0.1,0.1,0.1,0.1",
], ids=["bad_cell", "negative_score", "score_sum"])
def test_prediction_errors_past_the_first_block_match_row_parse(last):
    # blank lines in several blocks keep the file lines of the records after them
    text, _ = _past_first_block("v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1", last)
    text = text.replace("v1,500,", "\nv1,500,").replace("v1,1900,", "\r\n\r\nv1,1900,")
    expected = _outcome(_predictions_rows, text)
    assert expected[0] == "error"
    for stream in _stream_forms(text):
        assert _outcome(load_frame_predictions, stream) == expected


def test_openface_bad_record_past_the_first_block_matches_row_parse():
    # the secondary faces before the bad record, in earlier blocks, are
    # warned about; the bad record's file line counts the blank lines
    rows = [{"face_id": "1"} if i % 400 == 7 else {} for i in range(1200)]
    rows[1100]["AU12_r"] = "6.3"
    text = openface_csv(rows).replace("\n500,", "\n\n500,")
    assert text.index("\n1101, ") > 3 << 16  # the bad record, frame 1101
    expected = _outcome(lambda t: _openface_rows(t, "v"), text)
    assert expected[0] == "error" and len(expected[2]) == 3
    for stream in _stream_forms(text):
        assert _outcome(lambda t: parse_openface_csv(t, "v"), stream) == expected


def test_load_frame_predictions_peak_memory(tmp_path):
    # one block of text and the parsed cells at a time, with the string
    # cells as indices: the peak stays within 3x the table returned
    path = tmp_path / "scores.csv"
    rows = [f"v{i // 300},{i % 300},{EXPRESSIONS[i % 7]},0.4,0.1,0.1,0.1,0.1,0.1,0.1"
            for i in range(30000)]
    path.write_text("\n".join([PREDICTION_HEADER] + rows) + "\n")
    with open(path, encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            table = load_frame_predictions(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(table) == 30000
    assert peak <= 3 * table.nbytes, f"peak {peak} B for a {table.nbytes} B table"


def random_frames(rng, n):
    values = rng.uniform(0, 5, size=(n, 17))
    values[rng.random(values.shape) < 0.2] = 0.0
    frames = make_frames(
        n,
        intensities=values,
        presences=rng.integers(0, 2, size=(n, 18)),
        confidence=rng.uniform(0, 1, n),
        success=rng.integers(0, 2, n).astype(bool),
    )
    frames["interpolated"] = values == 0.0
    return frames


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_frame_store_roundtrip(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=0, max_value=8))
    frames = random_frames(np.random.default_rng(data.draw(st.integers(0, 2**31))), n)
    path = tmp_path_factory.mktemp("store") / "vid.frames"
    write_frame_store(frames, path)
    loaded = read_frame_store(path)
    assert loaded.dtype == FRAME_DTYPE
    assert loaded.tobytes() == frames.tobytes()


def test_frame_store_rows_are_an_aligned_writable_view(rng, tmp_path):
    path = tmp_path / "vid.frames"
    write_frame_store(random_frames(rng, 5), path)
    loaded = read_frame_store(path)
    assert not loaded.flags.owndata and loaded.flags.writeable
    assert loaded.ctypes.data % PAYLOAD_ALIGNMENT == 0


def test_frame_store_rejects_garbage(tmp_path):
    path = tmp_path / "bad.frames"
    path.write_text("not json\n")
    with pytest.raises(ContractError, match="corrupt"):
        read_frame_store(path)


class TestFrameStoreRejects:
    @pytest.fixture
    def store(self, rng, tmp_path):
        path = tmp_path / "v.frames"
        write_frame_store(random_frames(rng, 5), path)
        return path

    def test_truncated(self, store):
        store.write_bytes(store.read_bytes()[:-100])
        with pytest.raises(ContractError, match="corrupt frame store"):
            read_frame_store(store)

    def test_tampered_payload(self, store):
        blob = bytearray(store.read_bytes())
        blob[-40] ^= 1
        store.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match="checksum mismatch"):
            read_frame_store(store)

    def test_bad_magic(self, store):
        store.write_bytes(b"X" + store.read_bytes()[1:])
        with pytest.raises(ContractError, match="bad magic"):
            read_frame_store(store)

    def test_payload_length_field_mismatch(self, store):
        # a resealed file whose payload length field overstates the payload
        body = bytearray(store.read_bytes()[:-32])
        at = len(FRAME_STORE_MAGIC)
        at += 8 + int.from_bytes(body[at:at + 8], "little")
        declared = int.from_bytes(body[at:at + 8], "little")
        body[at:at + 8] = (declared + 1).to_bytes(8, "little")
        store.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        with pytest.raises(ContractError, match="payload length mismatch"):
            read_frame_store(store)

    def test_ndjson_v1_store(self, tmp_path):
        path = tmp_path / "v.ndjson"
        path.write_text(
            '{"format": "aukit-frames", "version": 1}\n'
            '{"video_id": "v", "frame": 1, "timestamp": 0.0, "confidence": 0.98, '
            '"success": true, "intensities": ["1.0"], "presences": [0], '
            '"interpolated": [false]}\n'
        )
        with pytest.raises(ContractError, match="bad magic"):
            read_frame_store(path)

    @pytest.mark.parametrize("field, value, message", [
        ("format", "other", "unknown format"),
        ("version", 1, "version mismatch: 1"),
        ("dtype", [["frame_index", "<i8"]], "unknown row dtype"),
    ])
    def test_sealed_header_mismatch(self, tmp_path, field, value, message):
        header = {"format": FRAME_STORE_FORMAT, "version": FRAME_STORE_VERSION,
                  "dtype": FRAME_DTYPE.descr, field: value}
        path = tmp_path / "v.frames"
        write_sealed(path, FRAME_STORE_MAGIC, header, make_frames(2).tobytes())
        with pytest.raises(ContractError, match=message):
            read_frame_store(path)

    def test_partial_row(self, tmp_path):
        header = {"format": FRAME_STORE_FORMAT, "version": FRAME_STORE_VERSION,
                  "dtype": FRAME_DTYPE.descr}
        path = tmp_path / "v.frames"
        write_sealed(path, FRAME_STORE_MAGIC, header, make_frames(2).tobytes()[:-1])
        with pytest.raises(ContractError, match="whole rows"):
            read_frame_store(path)


def test_reliable_detections_filters():
    frames = make_frames(3, confidence=[0.95, 0.5, 0.95], success=[True, True, False])
    kept = reliable_detections(frames)
    assert kept["frame_index"].tolist() == [1]


@pytest.mark.parametrize("bound", [-1.0, 1.5, float("nan")])
def test_reliable_detections_rejects_confidence_outside_unit_interval(bound):
    # -1 once kept every frame silently, and 1.5 or nan dropped every frame
    # so that knowledge extraction blamed the classes
    with pytest.raises(ContractError, match=rf"min_confidence must be in \[0, 1\], "
                       rf"got {bound}$"):
        reliable_detections(make_frames(3), bound)


def test_reliable_detections_accepts_the_interval_ends():
    frames = make_frames(2, confidence=[0.0, 1.0])
    assert len(reliable_detections(frames, 0.0)) == 2
    assert reliable_detections(frames, 1.0)["frame_index"].tolist() == [2]
