"""Golden test of the frames pipeline through the CLI.

A small two-dataset OpenFace corpus (zero dropouts, a secondary face, low-
confidence and unsuccessful frames) goes through ingest, extract-knowledge
(twice), aggregate-knowledge, pseudo-label and pos-weights. The sha256 of
every table the chain writes is pinned; the values were recorded with the
per-frame record pipeline and NDJSON store that the frame array replaced.
"""

import hashlib

import numpy as np
import pytest

from aukit import ingest, labeling
from aukit.cli import EXIT_CONTRACT, EXIT_OK, main
from aukit.domain import EXPRESSIONS, INTENSITY_AU_NAMES

from conftest import openface_csv

FRAMES_PER_VIDEO = 8

GOLDEN = {
    "knowledge_A.csv":
        "fbce320126d42807270c98474875e824315340f0aa68890b0ab16efe73085158",
    "knowledge_A.csv.support.csv":
        "896bfade1de7c5cb7ed9be9422f264ac817f78a47175ad59b68adf9842f7c11a",
    "knowledge_B.csv":
        "4c7074a3ad7e7ddda4a01726aa6debf589d62622c324fcdddf8af46449724d59",
    "knowledge_B.csv.support.csv":
        "896bfade1de7c5cb7ed9be9422f264ac817f78a47175ad59b68adf9842f7c11a",
    "aggregate.csv":
        "9c40bcbc0d70fec4992b61260b7ac158a868fea313d195dedd5a4c6cabecb9e1",
    "aggregate.csv.support.csv":
        "4bb039481ab936c4e3fa740804cf106eaa5203cefca707080a5ae2eeee0b3431",
    "au_labels.csv":
        "6ccf4553629ae3c76b23759c98b11c033f294d9262d9e0d86477e503de970e29",
    "pw/pos_weights.csv":
        "579267d97f3de966467cbc411678ed9e97f9b2c2002c450af7b3a5668fe0d73d",
}


def run(*argv):
    return main([str(a) for a in argv])


def video_rows(rng, c):
    """One video's OpenFace rows for expression class c."""
    rows = []
    for i in range(1, FRAMES_PER_VIDEO + 1):
        row = {"frame": i, "timestamp": f"{(i - 1) * 0.04:.2f}"}
        for j, name in enumerate(INTENSITY_AU_NAMES):
            level = 3.5 if j % 7 == c else 1.0
            row[f"{name}_r"] = f"{min(5.0, max(0.01, rng.normal(level, 0.5))):.3f}"
        for name in ("AU01", "AU06", "AU12", "AU25", "AU45"):
            row[f"{name}_c"] = f"{float(rng.random() < 0.5 + 0.05 * c):.1f}"
        rows.append(row)
    # zero dropouts: interior, leading and trailing cells, and (for one
    # class) an all-zero series that stays zero
    rows[1]["AU04_r"] = "0.0"
    rows[0]["AU12_r"] = "0.0"
    rows[-2]["AU20_r"] = rows[-1]["AU20_r"] = "0.0"
    if c == 2:
        for row in rows:
            row["AU45_r"] = "0.0"
    rows[2]["confidence"] = "0.55"
    rows[5]["success"] = "0"
    # a secondary face tracked on frame 5
    rows.insert(5, dict(rows[4], face_id="1", AU01_r="4.9"))
    return rows


def prediction_lines(video_id, c):
    lines = []
    for i in range(1, FRAMES_PER_VIDEO + 1):
        target = 0.3 if i % 4 == 0 else 0.7
        scores = np.full(7, (1.0 - target) / 6.0)
        scores[c] = target
        lines.append(f"{video_id},{i},{EXPRESSIONS[c]},"
                     + ",".join(repr(float(s)) for s in scores))
    return lines


def build_corpus(root):
    """Two datasets of one video per class; returns (videos, preds, labels)."""
    rng = np.random.default_rng(20)
    csv_dir = root / "openface"
    csv_dir.mkdir()
    videos, preds = [], {}
    labels = ["video_id,label"]
    header = "video_id,frame,label," + ",".join(f"s{j}" for j in range(7))
    for dataset in ("A", "B"):
        lines = [header]
        for c in range(len(EXPRESSIONS)):
            video_id = f"{dataset.lower()}{c}"
            path = csv_dir / f"{video_id}.csv"
            path.write_text(openface_csv(video_rows(rng, c)))
            videos.append(path)
            lines += prediction_lines(video_id, c)
            labels.append(f"{video_id},{EXPRESSIONS[c]}")
        preds[dataset] = root / f"scores_{dataset}.csv"
        preds[dataset].write_text("\n".join(lines) + "\n")
    video_labels = root / "video_labels.csv"
    video_labels.write_text("\n".join(labels) + "\n")
    return videos, preds, video_labels


def test_frames_pipeline_golden_hashes(tmp_path):
    videos, preds, video_labels = build_corpus(tmp_path)
    store, out = tmp_path / "store", tmp_path / "out"
    out.mkdir()
    assert run("ingest", *videos, "--out", store) == EXIT_OK
    for dataset in ("A", "B"):
        assert run("extract-knowledge", "--frames", store, "--preds",
                   preds[dataset], "--out", out / f"knowledge_{dataset}.csv") \
            == EXIT_OK
    assert run("aggregate-knowledge", out / "knowledge_A.csv",
               out / "knowledge_B.csv", "--scale",
               "--out", out / "aggregate.csv") == EXIT_OK
    assert run("pseudo-label", "--frames", store, "--video-labels",
               video_labels, "--out", out / "au_labels.csv") == EXIT_OK
    assert run("pos-weights", "--labels", out / "au_labels.csv",
               "--out", out / "pw") == EXIT_OK
    hashes = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert hashes == GOLDEN


def test_frame_stores_are_read_one_at_a_time(tmp_path, monkeypatch):
    # each video's store is reduced, to its reliable frames or to its AU
    # labels, before the next is read, so no command holds every video's
    # full frames at once
    videos, preds, video_labels = build_corpus(tmp_path)
    store = tmp_path / "store"
    assert run("ingest", *videos, "--out", store) == EXIT_OK
    events = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(ingest, "read_frame_store")
    spy(ingest, "reliable_detections")
    spy(labeling, "derive_video_au_labels")
    assert run("extract-knowledge", "--frames", store, "--preds", preds["A"],
               "--out", tmp_path / "k.csv") == EXIT_OK
    assert events == ["read_frame_store", "reliable_detections"] * len(videos)
    events.clear()
    assert run("pseudo-label", "--frames", store, "--video-labels", video_labels,
               "--out", tmp_path / "au_labels.csv") == EXIT_OK
    assert events == ["read_frame_store", "derive_video_au_labels"] * len(videos)


@pytest.fixture
def two_video_store(tmp_path):
    """Frame stores for videos a0 and a1."""
    videos, _, _ = build_corpus(tmp_path)
    store = tmp_path / "store"
    assert run("ingest", *videos[:2], "--out", store) == EXIT_OK
    return store


@pytest.mark.parametrize("labels, message", [
    ("video_id,label\na0,Happy\n", "videos: a1"),
    ("video,label\na0,Happy\na1,Sad\n", "header"),
    ("video_id,label\na0,Happy,Sad\na1,Sad\n", "line 2"),
    ("video_id,label\na0,Happy\na1,Sad\na0,Sad\n", "duplicate video 'a0'"),
], ids=["video_without_label", "bad_header", "three_cells", "duplicate_video"])
def test_pseudo_label_rejects_bad_video_labels(two_video_store, tmp_path, capsys,
                                               labels, message):
    path = tmp_path / "labels.csv"
    path.write_text(labels)
    out = tmp_path / "au_labels.csv"
    assert run("pseudo-label", "--frames", two_video_store, "--video-labels", path,
               "--out", out) == EXIT_CONTRACT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pseudo_label_requires_video_labels(two_video_store, tmp_path):
    with pytest.raises(SystemExit):
        run("pseudo-label", "--frames", two_video_store,
            "--out", tmp_path / "au_labels.csv")


def _openface_with(tmp_path, column, value):
    """`ingest` of a four-frame video whose third row has `column` = value."""
    rows = [{} for _ in range(4)]
    rows[2][column] = value
    path = tmp_path / "v.csv"
    path.write_text(openface_csv(rows))
    return ["ingest", path, "--out", tmp_path / "store"]


def _scores_with(tmp_path, column, value):
    """`extract-knowledge` on the corpus with one prediction cell replaced."""
    videos, preds, _ = build_corpus(tmp_path)
    store = tmp_path / "store"
    assert run("ingest", *videos, "--out", store) == EXIT_OK
    lines = preds["A"].read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[3] = ",".join(cells)
    preds["A"].write_text("\n".join(lines) + "\n")
    return ["extract-knowledge", "--frames", store, "--preds", preds["A"],
            "--out", tmp_path / "k.csv"]


@pytest.mark.parametrize("build, column, value, kind", [
    (_openface_with, "frame", "nan", "non-finite"),
    (_openface_with, "frame", "2.5", "non-integer"),
    (_openface_with, "success", "nan", "non-finite"),
    (_openface_with, "timestamp", "inf", "non-finite"),
    (_scores_with, "s0", "nan", "non-finite"),
    (_scores_with, "frame", "1.5", "non-integer"),
], ids=["frame_nan", "frame_fractional", "success_nan", "timestamp_inf",
        "score_nan", "prediction_frame_fractional"])
def test_non_finite_or_fractional_cell_is_one_line_error(tmp_path, capsys, build,
                                                         column, value, kind):
    argv = build(tmp_path, column, value)
    capsys.readouterr()
    assert run(*argv) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"row 4: {kind} value {value!r} in column {column!r}" in err
