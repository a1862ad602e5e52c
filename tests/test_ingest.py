import hashlib
import io
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit import ingest
from aukit.domain import AU_NAMES, EXPRESSIONS, INTENSITY_AU_NAMES, ContractError
from aukit.ingest import (
    FRAME_DTYPE,
    FRAME_STORE_FORMAT,
    FRAME_STORE_MAGIC,
    FRAME_STORE_VERSION,
    interpolate_zero_intensities,
    load_frame_predictions,
    parse_openface_csv,
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

    def test_valid_input_takes_block_parse(self, monkeypatch):
        def row_parse(*args):
            raise AssertionError("row-by-row parse used")
        monkeypatch.setattr(ingest, "_openface_rows", row_parse)
        text = openface_csv([{}, {"face_id": "1"}, {"timestamp": "1e0"}])
        assert len(parse_openface_csv(text, "v1")) == 2


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
            assert preds.tobytes() == ingest._predictions_rows(text).tobytes()

    def test_valid_input_takes_block_parse(self, monkeypatch):
        def row_parse(*args):
            raise AssertionError("row-by-row parse used")
        monkeypatch.setattr(ingest, "_predictions_rows", row_parse)
        text = "\n".join([self.HEADER, self.ROW, "v2, 7, sad ," + self.ROW[11:]])
        preds = load_frame_predictions(text)
        assert preds["video_id"].tolist() == ["v1", "v2"]
        assert preds["label"].tolist() == [0, 1]


# --- block parse against the row-by-row reference parse ---------------------

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
            == _outcome(lambda t: ingest._openface_rows(t, "v"), text))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_prediction_block_parse_matches_row_parse(data):
    rows = [_prediction_cells(data.draw) for _ in range(data.draw(st.integers(0, 4)))]
    text = data.draw(csv_variants(PREDICTION_COLUMNS, rows, targets=PREDICTION_COLUMNS))
    assert _outcome(load_frame_predictions, text) == _outcome(ingest._predictions_rows, text)


def test_records_split_across_chunks():
    # about 140 kB of lines of every length, blank ones included: several chunks
    text = "\n".join("x" * (i % 97) for i in range(3000)) + "\n"
    for start in (0, 1, 65535, 65536, 65537, len(text) - 1):
        assert list(ingest._records(text, start)) == [
            line for line in text[start:].split("\n") if line]


def test_openface_edge_cells_match_row_parse():
    for column in ("frame", "face_id", "timestamp", "confidence", "success", "AU12_r", "AU28_c"):
        for cell in EDGE_CELLS:
            for rows in ([{}, {column: cell}], [{}, {"face_id": "1", column: cell}]):
                text = openface_csv(rows)
                assert (_outcome(lambda t: parse_openface_csv(t, "v"), text)
                        == _outcome(lambda t: ingest._openface_rows(t, "v"), text)), text


def test_prediction_edge_cells_match_row_parse():
    header = ",".join(PREDICTION_COLUMNS)
    valid = "v1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1"
    for at in range(len(PREDICTION_COLUMNS)):
        for cell in EDGE_CELLS:
            row = valid.split(",")
            row[at] = cell
            text = "\n".join([header, valid, ",".join(row)]) + "\n"
            assert _outcome(load_frame_predictions, text) == _outcome(ingest._predictions_rows, text), text


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
