import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit.domain import ContractError
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
from aukit.sealed import write_sealed

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

    def test_accepts_byte_stream(self):
        blob = openface_csv([{}]).encode("utf-8")
        frames = parse_openface_csv(io.BytesIO(blob), "v1")
        assert len(frames) == 1


class TestInterpolation:
    def _series(self, values, au=2):
        frames = make_frames(len(values))
        frames["intensities"][:, au] = values
        return frames

    def test_linear_midpoint(self):
        repaired, flags = interpolate_zero_intensities(
            self._series([1.0, 0.0, 3.0]), "v0"
        )
        assert repaired["intensities"][:, 2].tolist() == [1.0, 2.0, 3.0]
        assert repaired[1]["interpolated"][2]
        assert not flags

    def test_leading_zeros_take_nearest_nonzero(self):
        repaired, _ = interpolate_zero_intensities(self._series([0.0, 0.0, 2.0]), "v0")
        assert repaired["intensities"][:, 2].tolist() == [2.0, 2.0, 2.0]

    def test_all_zero_series_flagged_unchanged(self):
        repaired, flags = interpolate_zero_intensities(
            self._series([0.0, 0.0, 0.0]), "v0"
        )
        assert repaired["intensities"][:, 2].tolist() == [0.0, 0.0, 0.0]
        assert flags == ["v0: AU04 all-zero"]

    def test_nonzero_values_never_change(self, rng):
        values = rng.uniform(0, 5, size=(20, 17))
        values[rng.random(values.shape) < 0.3] = 0.0
        repaired, _ = interpolate_zero_intensities(
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
        once, _ = interpolate_zero_intensities(
            make_frames(12, intensities=values), "v0"
        )
        twice, _ = interpolate_zero_intensities(once, "v0")
        assert np.array_equal(once["intensities"], twice["intensities"])

    def test_unsorted_rejected(self):
        with pytest.raises(ContractError, match="sorted"):
            interpolate_zero_intensities(make_frames(2, frame_index=[2, 1]), "v0")


class TestLoadFramePredictions:
    HEADER = "video_id,frame,label," + ",".join(f"s{j}" for j in range(7))

    def test_valid_simplex_point(self):
        text = self.HEADER + "\nv1,1,Happy,0.7,0.05,0.05,0.05,0.05,0.05,0.05\n"
        preds = load_frame_predictions(text)
        assert preds[0].asserted_label == 0
        assert preds[0].scores[0] == pytest.approx(0.7)

    def test_renormalizes_within_tolerance(self):
        text = self.HEADER + "\nv1,1,Sad,0.2005,0.3,0.1,0.1,0.1,0.1,0.1\n"
        preds = load_frame_predictions(text)
        assert preds[0].scores.sum() == pytest.approx(1.0, abs=1e-12)

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
