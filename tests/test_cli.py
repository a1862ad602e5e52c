"""Command-line smoke tests: end-to-end flows and exit-code mapping."""

import contextlib
import hashlib
import io
import json
import logging
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aukit
from aukit import harness, ingest
from aukit.ingest import INTENSITY_COLUMNS, PRESENCE_COLUMNS
from aukit.cli import (
    _JSON_FIELD_TYPES,
    EXIT_CONTRACT,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
)
from aukit.harness import TrainConfig
from aukit.model import load_features, save_features
from aukit.synth import SynthSpec

from conftest import openface_csv


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    """One small generated train/test dataset pair shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    train_dir = root / "train"
    test_dir = root / "test"
    spec = {"sample_seed": 1}
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run("synth-gen", "--n", 250, "--seed", 0, "--spec", spec_path,
               "--out", train_dir) == EXIT_OK
    spec_path.write_text(json.dumps({"sample_seed": 2}))
    assert run("synth-gen", "--n", 150, "--seed", 0, "--spec", spec_path,
               "--out", test_dir) == EXIT_OK
    return train_dir, test_dir


def test_synth_gen_writes_dataset_files(synth_dirs):
    train_dir, _ = synth_dirs
    for name in ("features.bin", "expression_labels.csv", "au_labels.csv",
                 "knowledge.csv"):
        assert (train_dir / name).exists()


def test_train_eval_flow(synth_dirs, tmp_path):
    train_dir, test_dir = synth_dirs
    run_dir = tmp_path / "run"
    assert run("train", "--data", train_dir, "--epochs", 2, "--seed", 0,
               "--out", run_dir) == EXIT_OK
    assert (run_dir / "checkpoint.bin").exists()
    epochs = (run_dir / "epochs.csv").read_text().splitlines()
    assert len(epochs) == 2 + 2  # header comment + column row + 2 epochs

    eval_dir = tmp_path / "eval"
    assert run("eval", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", test_dir, "--out", eval_dir) == EXIT_OK
    for name in ("metrics.csv", "confusion.csv", "confusion.svg"):
        assert (eval_dir / name).exists()
    assert (eval_dir / "confusion.svg").read_text().count('class="cell"') == 49

    # the confusion.csv eval wrote gives export-confusion eval's very pair
    again = tmp_path / "again"
    assert run("export-confusion", "--confusion", eval_dir / "confusion.csv",
               "--out", again) == EXIT_OK
    for name in ("confusion.csv", "confusion.svg"):
        assert (again / name).read_bytes() == (eval_dir / name).read_bytes()


def test_epochs_csv_cells_are_plain_numbers(synth_dirs, tmp_path):
    train_dir, test_dir = synth_dirs
    run_dir = tmp_path / "run"
    assert run("train", "--data", train_dir, "--test-data", test_dir,
               "--epochs", 2, "--seed", 0, "--out", run_dir) == EXIT_OK
    rows = (run_dir / "epochs.csv").read_text().splitlines()[2:]
    assert len(rows) == 2
    for row in rows:
        for cell in row.split(","):
            float(cell)


def _with_features(train_dir, out_dir, edit):
    shutil.copytree(train_dir, out_dir)
    features = load_features(out_dir / "features.bin")
    save_features(edit(features), out_dir / "features.bin")
    return out_dir


def _put(row, column, value):
    """A _with_features edit that sets one cell."""
    def edit(features):
        features[row, column] = value
        return features
    return edit


def test_nan_feature_is_contract_error(synth_dirs, tmp_path, capsys):
    data = _with_features(synth_dirs[0], tmp_path / "nan", _put(3, 2, np.nan))
    run_dir = tmp_path / "run"
    capsys.readouterr()
    assert run("train", "--data", data, "--epochs", 2, "--seed", 0,
               "--out", run_dir) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{data / 'features.bin'}: non-finite feature nan at row 4, column 3" in err
    assert not (run_dir / "checkpoint.bin").exists()


@pytest.mark.parametrize("edit, cell", [
    (lambda f: np.full_like(f, np.nan), "nan at row 1, column 1"),
    (_put(5, 7, -np.inf), "-inf at row 6, column 8"),
], ids=["all_nan", "one_negative_inf"])
def test_eval_on_non_finite_features_is_contract_error(edit, cell, synth_dirs,
                                                       tmp_path, capsys):
    train_dir, test_dir = synth_dirs
    assert run("train", "--data", train_dir, "--epochs", 1, "--seed", 0,
               "--out", tmp_path / "run") == EXIT_OK
    data = _with_features(test_dir, tmp_path / "bad", edit)
    capsys.readouterr()
    assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint.bin",
               "--data", data, "--out", tmp_path / "eval") == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"non-finite feature {cell}" in err
    assert not (tmp_path / "eval" / "metrics.csv").exists()


def _run_aukit_child(*argv, **kwargs):
    """subprocess.run of `aukit argv` in a child process, so numpy and
    logging warnings reach stderr as they would in a shell."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aukit.__file__)))
    return subprocess.run([sys.executable, "-m", "aukit.cli", *map(str, argv)],
                          env=env, **kwargs)


def _aukit_in_child(*argv):
    """Exit code and stderr lines of `aukit argv` run as a child process."""
    result = _run_aukit_child(*argv, capture_output=True, text=True)
    return result.returncode, result.stderr.splitlines()


def test_ingest_warns_of_an_all_zero_series_once(tmp_path, capfd):
    # the warning reaches stderr through logging alone, as every library
    # warning does, not a second time from the command
    csv = tmp_path / "v1.csv"
    csv.write_text(openface_csv([{"AU01_r": "0.0"}] * 3))
    # the child writes to the file descriptors capfd captures
    result = _run_aukit_child("ingest", csv, "--out", tmp_path / "store")
    assert result.returncode == EXIT_OK
    err = capfd.readouterr().err.splitlines()
    assert [line for line in err if "AU01 all-zero" in line] == [
        "WARNING:aukit.ingest:v1: AU01 all-zero"
    ], err


def test_nul_byte_is_one_line_contract_error(tmp_path, capsys):
    # csv before Python 3.11 raises its own error on NUL; on every version
    # the readers report it as a contract error naming the file line
    video = tmp_path / "v1.csv"
    video.write_text(openface_csv([{}]))
    store = tmp_path / "store"
    assert run("ingest", video, "--out", store) == EXIT_OK
    video.write_text(openface_csv([{}, {"timestamp": "0\0"}]))
    preds = tmp_path / "scores.csv"
    preds.write_text("video_id,frame,label," + ",".join(f"s{j}" for j in range(7))
                     + "\nv1,1,Happy\0,1,0,0,0,0,0,0\n")
    for argv, path, line in (
        (["ingest", video, "--out", tmp_path / "again"], video, 3),
        (["extract-knowledge", "--frames", store, "--preds", preds,
          "--out", tmp_path / "k.csv"], preds, 2),
    ):
        capsys.readouterr()
        assert run(*argv) == EXIT_CONTRACT
        assert capsys.readouterr().err == f"error: {path}: row {line}: NUL byte\n"


def test_byte_order_mark_is_one_line_contract_error(tmp_path, capsys):
    # a file saved as utf-8-sig used to read as lacking its first column
    video = tmp_path / "v1.csv"
    video.write_text(openface_csv([{}]))
    store = tmp_path / "store"
    assert run("ingest", video, "--out", store) == EXIT_OK
    video.write_text(openface_csv([{}]), encoding="utf-8-sig")
    preds = tmp_path / "scores.csv"
    preds.write_text("video_id,frame,label," + ",".join(f"s{j}" for j in range(7))
                     + "\nv1,1,Happy,1,0,0,0,0,0,0\n", encoding="utf-8-sig")
    for argv, path in (
        (["ingest", video, "--out", tmp_path / "again"], video),
        (["extract-knowledge", "--frames", store, "--preds", preds,
          "--out", tmp_path / "k.csv"], preds),
    ):
        capsys.readouterr()
        assert run(*argv) == EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: {path}: row 1: byte-order mark before the header\n")
    assert os.listdir(tmp_path / "again") == []
    assert not (tmp_path / "k.csv").exists()


def test_blank_video_id_is_one_line_contract_error(tmp_path, capsys):
    # a blank id matches no frame store: its rows would be dropped unreported
    video = tmp_path / "v1.csv"
    video.write_text(openface_csv([{}, {}]))
    store = tmp_path / "store"
    assert run("ingest", video, "--out", store) == EXIT_OK
    preds = tmp_path / "scores.csv"
    preds.write_text("video_id,frame,label," + ",".join(f"s{j}" for j in range(7))
                     + "\nv1,1,Happy,1,0,0,0,0,0,0\n ,2,Happy,1,0,0,0,0,0,0\n")
    capsys.readouterr()
    assert run("extract-knowledge", "--frames", store, "--preds", preds,
               "--out", tmp_path / "k.csv") == EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: {preds}: row 3: empty cell in column 'video_id'\n")
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("bound", ["7", "-1", "nan"])
def test_extract_knowledge_checks_min_confidence_before_reading(bound, tmp_path, capsys):
    # checked before any input is read: with no prediction above theta no
    # store is read, and the inputs of the second call do not exist
    video = tmp_path / "v1.csv"
    video.write_text(openface_csv([{}]))
    store = tmp_path / "store"
    assert run("ingest", video, "--out", store) == EXIT_OK
    preds = tmp_path / "scores.csv"
    preds.write_text("video_id,frame,label," + ",".join(f"s{j}" for j in range(7))
                     + "\nv1,1,Happy,0.4,0.1,0.1,0.1,0.1,0.1,0.1\n")
    for frames, scores in ((store, preds), (tmp_path / "none", tmp_path / "none.csv")):
        capsys.readouterr()
        assert run("extract-knowledge", "--frames", frames, "--preds", scores,
                   "--min-confidence", bound, "--out", tmp_path / "k.csv") == EXIT_CONTRACT
        assert capsys.readouterr().err == (
            f"error: min_confidence must be in [0, 1], got {float(bound)}\n")
        assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("rows, message", [
    ([{}, {"AU12_r": "6.3"}], "row 3: intensity AU12_r = 6.3 outside [0, 5]"),
    ([{"frame": "2"}, {"frame": "1"}], "frames must be sorted by frame_index"),
    ([{}, {"AU12_r": '"2.5"'}], "row 3: quoted cell"),
])
def test_ingest_error_names_the_file(rows, message, tmp_path, capsys):
    good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
    good.write_text(openface_csv([{}]))
    bad.write_text(openface_csv(rows))
    assert run("ingest", good, bad, "--out", tmp_path / "store") == EXIT_CONTRACT
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def _with_extra_cell(cell):
    """Three frames, a secondary face on file line 3, and `cell` past the
    header's last column on line 4: a cell no check reads."""
    lines = openface_csv([{}, {"face_id": 1}, {}]).splitlines()
    lines[3] += ", " + cell
    return "\n".join(lines) + "\n"


# c.csv, the first bad input, sits amid inputs small enough to be read as one
# group; each case: how c.csv is written, the exit code, the error line, and
# whether c.csv's secondary face (file line 3) is warned about before it
BAD_IN_A_GROUP = {
    "bad_cell": (lambda path: path.write_text(openface_csv([{}, {"face_id": 1}, {"AU12_r": "x"}])),
                 EXIT_CONTRACT, "error: {c}: row 4: non-numeric value 'x' in column 'AU12_r'",
                 True),
    "nul": (lambda path: path.write_text(_with_extra_cell("0\0")),
            EXIT_CONTRACT, "error: {c}: row 4: NUL byte", False),
    "quote": (lambda path: path.write_text(_with_extra_cell('"1"')),
              EXIT_CONTRACT, "error: {c}: row 4: quoted cell", False),
    "unsorted": (lambda path: path.write_text(
        openface_csv([{"frame": 2}, {"face_id": 1}, {"frame": 1}])),
        EXIT_CONTRACT, "error: {c}: frames must be sorted by frame_index", True),
    "missing": (lambda path: None, EXIT_IO,
                "i/o error: [Errno 2] No such file or directory: '{c}'", False),
    "not_utf8": (lambda path: path.write_bytes(openface_csv([{}, {"face_id": 1}]).encode()
                                               + b"\xff\n"),
                 EXIT_CONTRACT, "error: {c}: not UTF-8 text", False),
}


@pytest.mark.parametrize("case", BAD_IN_A_GROUP)
def test_ingest_stops_at_a_bad_input_amid_a_group(tmp_path, capsys, caplog, case):
    # the inputs before c.csv are stored and printed, their warnings and c's
    # own logged; its error is the one error line, and nothing after it is stored
    write, code, error, warned = BAD_IN_A_GROUP[case]
    paths = {name: tmp_path / f"{name}.csv" for name in "abcde"}
    for name, path in paths.items():
        if name != "c":
            path.write_text(openface_csv([{}, {"face_id": 1} if name == "b" else {}, {}]))
    write(paths["c"])
    store = tmp_path / "store"
    capsys.readouterr()
    assert run("ingest", *paths.values(), "--out", store) == code
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"a: 3 frames -> {store / 'a'}.frames",
                                f"b: 2 frames -> {store / 'b'}.frames"]
    assert err == error.format(c=paths["c"]) + "\n"
    assert sorted(os.listdir(store)) == ["a.frames", "b.frames"]
    assert [r.getMessage() for r in caplog.records if r.name == "aukit.ingest"] == [
        "b row 3: dropping secondary face"] + ["c row 3: dropping secondary face"] * warned


# inputs, in order, of which the first and last share the video id v1
SHARED_STEMS = {
    "two_directories": ("a/v1.csv", "b/v1.csv"),
    "top_and_nested": ("v1.csv", "a/v1.csv"),
    "apart": ("a/v1.csv", "v2.csv", "b/v1.csv"),
}


@pytest.mark.parametrize("case", SHARED_STEMS)
def test_ingest_rejects_two_inputs_of_one_video_id(tmp_path, capsys, case):
    # both were once written to store/v1.frames, the second over the first,
    # and the command exited 0
    inputs = [tmp_path / name for name in SHARED_STEMS[case]]
    for frames, path in enumerate(inputs, start=3):
        path.parent.mkdir(exist_ok=True)
        path.write_text(openface_csv([{}] * frames))
    store = tmp_path / "store"
    assert run("ingest", *inputs, "--out", store) == EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: two inputs share the video id 'v1': {inputs[0]} and {inputs[-1]}\n")
    assert not store.exists()


@pytest.mark.parametrize("stem", ["a,b", 'a"b', "a\nb", " v2", "v2 ", "\tv2"],
                         ids=["comma", "quote", "line_break", "leading_space",
                              "trailing_space", "leading_tab"])
def test_ingest_rejects_a_video_id_no_csv_can_name(tmp_path, capsys, stem):
    # a comma splits the id's cell in a label or prediction CSV and a line
    # break ends it; the prediction reader rejects a quote and strips the
    # cell, so " v2.frames" was never joined
    good, bad = tmp_path / "v1.csv", tmp_path / f"{stem}.csv"
    for path in (good, bad):
        path.write_text(openface_csv([{}] * 3))
    store = tmp_path / "store"
    assert run("ingest", good, bad, "--out", store) == EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"error: {bad}: video id {stem!r} holds a comma, quote or line break, or "
        "leading or trailing whitespace\n")
    assert not store.exists()


OPENFACE_COLUMNS = ["frame", "face_id", "timestamp", "confidence", "success",
                    *INTENSITY_COLUMNS, *PRESENCE_COLUMNS]
# column orders of the generated corpora; files of one order can share a group
OPENFACE_ORDERS = tuple(list(order) for order in (
    OPENFACE_COLUMNS, OPENFACE_COLUMNS[::-1],
    [c for c in OPENFACE_COLUMNS if c not in ("face_id", "timestamp")]))


@st.composite
def openface_file(draw, columns, sep):
    """An OpenFace file's text: up to five frames (header-only files too),
    blank lines, CRLF or lone CR line ends with or without a final one,
    secondary faces, all-zero AU series, and, rarely, frames past 2**53
    that can round alike (unsorted), a bad cell, or a NUL or quote in an
    extra cell."""
    frame = draw(st.sampled_from([0, 0, 0, 0, 0, 2**53 - 2]))
    silent = draw(st.sets(st.sampled_from(INTENSITY_COLUMNS), max_size=2))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        frame += draw(st.integers(1, 2))
        row = {"frame": str(frame), "face_id": "0", "timestamp": f"{frame / 30:.3f}",
               "confidence": "0.9", "success": draw(st.sampled_from("01"))}
        for c in INTENSITY_COLUMNS:
            row[c] = "0" if c in silent else draw(st.sampled_from(["0", "0.5", "2.25", "5"]))
        for c in PRESENCE_COLUMNS:
            row[c] = draw(st.sampled_from("01"))
        rows.append(row)
        if "face_id" in columns and draw(st.integers(0, 3)) == 0:
            rows.append(dict(row, face_id="1", AU01_r="9"))  # dropped, never range-checked
    if rows and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))]["AU12_r"] = "6.5"
    lines = [sep.join(columns)] + [sep.join(row[c] for c in columns) for row in rows]
    if rows and draw(st.integers(0, 9)) == 0:  # a cell past the header's: never read
        lines[draw(st.integers(1, len(rows)))] += sep + draw(st.sampled_from(["x", "\0", '"']))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def openface_corpora(draw):
    """Up to six OpenFace files' texts, most of them of one header line."""
    headers = st.tuples(st.sampled_from(OPENFACE_ORDERS), st.sampled_from([",", ", "]))
    common = draw(headers)
    return [draw(openface_file(*(common if draw(st.integers(0, 3)) else draw(headers))))
            for _ in range(draw(st.integers(1, 6)))]


def _ingest(paths, out):
    """What `aukit ingest paths` makes: its exit code, stdout, stderr and
    warnings, and then the bytes of every store in `out`."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("aukit.ingest")
    logger.addHandler(handler)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run("ingest", *paths, "--out", out)
    finally:
        logger.removeHandler(handler)
    stores = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    return code, stdout.getvalue(), stderr.getvalue(), [r.getMessage() for r in records], stores


@settings(max_examples=100, deadline=None, derandomize=True)
@given(texts=openface_corpora(), bound=st.sampled_from([2000, 5000, ingest.GROUP_BYTES]))
def test_ingest_in_groups_matches_each_file_alone(texts, bound):
    # one run over the set, its files read in groups of at most `bound`
    # bytes, against one run per file in turn, each read alone as a stream
    # (GROUP_BYTES 0), until the first that fails
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        paths = [root / f"v{k}.csv" for k in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode())
        with mock.patch.object(ingest, "GROUP_BYTES", bound):
            grouped = _ingest(paths, root / "store")
        shutil.rmtree(root / "store")
        alone = [0, "", "", [], {}]
        with mock.patch.object(ingest, "GROUP_BYTES", 0):
            for path in paths:
                code, *outputs, stores = _ingest([path], root / "store")
                alone = [code] + [a + b for a, b in zip(alone[1:4], outputs)] + [stores]
                if code:
                    break
    assert grouped == tuple(alone)


def test_ingest_peak_memory_is_bounded_by_a_group(tmp_path):
    # a group of files is read, parsed and repaired at a time, and each is
    # written from it: the peak stays within a few group bounds, whatever
    # the corpus (no warnings here, which the test's log capture would keep)
    text = openface_csv([{"AU04_r": "0.0"} if i % 7 == 3 else {} for i in range(200)])
    paths = [tmp_path / f"v{k}.csv" for k in range(64)]
    for path in paths:
        path.write_text(text)
    peaks = []
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert run("ingest", *paths[:2], "--out", tmp_path / "warm") == EXIT_OK
        for count in (16, 64):
            tracemalloc.start()
            try:
                assert run("ingest", *paths[:count], "--out", tmp_path / f"s{count}") == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert sum(map(os.path.getsize, paths)) > 8 * ingest.GROUP_BYTES
    assert peaks[1] <= 5 * ingest.GROUP_BYTES, peaks
    assert peaks[1] <= peaks[0] + 48 * 1024, peaks  # 48 more inputs: their names


def _train_scaled_features_in_child(synth_dirs, tmp_path, scale):
    """Exit code and stderr lines of `aukit train` on the training features
    times `scale`, and whether it wrote a checkpoint."""
    data = _with_features(synth_dirs[0], tmp_path / "scaled", lambda f: f * scale)
    run_dir = tmp_path / "run"
    # unweighted AU loss, so no pos-weight fallback is logged
    code, lines = _aukit_in_child("train", "--data", data, "--strategy", "none",
                                  "--epochs", 2, "--seed", 0, "--out", run_dir)
    return code, lines, (run_dir / "checkpoint.bin").exists()


def test_synth_gen_features_beyond_float32_are_numeric_failure(tmp_path):
    # feature files hold float32, the dtype training steps run in, so values
    # beyond its range fail as they are written, with one line and no
    # overflow warning
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"feature_noise_sd": 1e300}))
    code, lines = _aukit_in_child("synth-gen", "--n", 30, "--spec", spec,
                                  "--out", tmp_path / "data")
    assert code == EXIT_NUMERIC
    assert len(lines) == 1, lines
    assert lines[0].startswith("numeric failure: features outside the float32 range")
    assert not (tmp_path / "data" / "features.bin").exists()


def test_float32_features_overflowing_second_moment_are_numeric_failure(
    synth_dirs, tmp_path
):
    # 1e25 fits float32, but the squares of its gradients do not (features of
    # 1e21 and up overflow the float32 second moment; 1e20 trains)
    code, lines, wrote = _train_scaled_features_in_child(synth_dirs, tmp_path, 1e25)
    assert code == EXIT_NUMERIC
    assert not wrote
    assert len(lines) == 1, lines
    assert lines[0].startswith("numeric failure: non-finite second moment")


def test_train_deterministic_outputs(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run("train", "--data", train_dir, "--epochs", 2, "--seed", 5,
                   "--out", d) == EXIT_OK
    assert (dirs[0] / "checkpoint.bin").read_bytes() == \
        (dirs[1] / "checkpoint.bin").read_bytes()
    assert (dirs[0] / "epochs.csv").read_text() == \
        (dirs[1] / "epochs.csv").read_text()


def test_train_strategy_equals_its_pos_weights_file(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    assert run("pos-weights", "--labels", train_dir / "au_labels.csv",
               "--strategy", "minor", "--out", tmp_path / "pw") == EXIT_OK
    common = ["--data", train_dir, "--epochs", 2, "--seed", 1]
    assert run("train", *common, "--strategy", "minor",
               "--out", tmp_path / "strategy") == EXIT_OK
    assert run("train", *common, "--pos-weights-file",
               tmp_path / "pw" / "pos_weights.csv", "--out", tmp_path / "file") == EXIT_OK
    assert (tmp_path / "strategy" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "file" / "checkpoint.bin").read_bytes()


def test_eval_reproduces_training_evaluation(synth_dirs, tmp_path):
    # training and eval both evaluate in float32, on features loaded as
    # float32, and the checkpoint holds the float32 parameters exactly, so
    # eval on the test split repeats the last epoch's numbers
    train_dir, test_dir = synth_dirs
    assert run("train", "--data", train_dir, "--test-data", test_dir,
               "--epochs", 3, "--seed", 2, "--out", tmp_path / "run") == EXIT_OK
    assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint.bin",
               "--data", test_dir, "--out", tmp_path / "eval") == EXIT_OK
    last_epoch = (tmp_path / "run" / "epochs.csv").read_text().splitlines()[-1]
    metrics = (tmp_path / "eval" / "metrics.csv").read_text().splitlines()[-1]
    assert last_epoch.split(",")[-2:] == metrics.split(",")[:2]


def test_sweep_row_count(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    out = tmp_path / "sweep"
    assert run("sweep", "--data", train_dir, "--epochs", 1, "--seed", 0,
               "--grid", "0.0,0.5", "--out", out) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 2


def test_compare_strategies_rows(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    out = tmp_path / "compare"
    assert run("compare-strategies", "--data", train_dir, "--epochs", 1,
               "--seed", 0, "--out", out) == EXIT_OK
    lines = (out / "strategies.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines[2:]] == \
        ["none", "global", "distinct", "minor"]


@pytest.mark.parametrize("argv, line", [
    (["sweep", "--grid", "0.0,0.5"], "2 sweep rows"),
    (["compare-strategies", "--strategies", "none,global,minor"], "3 strategy rows"),
])
def test_study_commands_print_their_row_count(argv, line, synth_dirs, tmp_path,
                                              capsys):
    capsys.readouterr()
    assert run(*argv, "--data", synth_dirs[0], "--epochs", 1,
               "--out", tmp_path / "out") == EXIT_OK
    assert capsys.readouterr().out == f"{line} -> {tmp_path / 'out'}\n"


def test_sweep_and_strategy_tables_golden(synth_dirs, tmp_path):
    # sha256 of the two metric tables; recorded when every run was trained
    # on its own, one after another, which training the runs of a sweep or a
    # comparison together must reproduce byte for byte
    train_dir, test_dir = synth_dirs
    common = ["--data", train_dir, "--test-data", test_dir, "--epochs", 3,
              "--seed", 4]
    assert run("sweep", *common, "--grid", "0.0,0.5,1.0",
               "--out", tmp_path / "sweep") == EXIT_OK
    assert run("compare-strategies", *common, "--lam", 0.3,
               "--strategies", "none,global,distinct,minor",
               "--out", tmp_path / "compare") == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / sub / name).read_bytes()).hexdigest()
        for sub, name in (("sweep", "sweep.csv"), ("compare", "strategies.csv"))
    }
    assert digests == {
        "sweep.csv":
            "1a9bb2e34474bc30c3e2fa714686aaf6fd949603f237e7d559288e009a1f26f1",
        "strategies.csv":
            "3ddbb6117fef1b4e04d1b52e657a6f1e116b7410c3e6e38b6e035d6968cbebce",
    }


def test_pos_weights_command(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    out = tmp_path / "pw"
    assert run("pos-weights", "--labels", train_dir / "au_labels.csv",
               "--strategy", "minor", "--out", out) == EXIT_OK
    text = (out / "pos_weights.csv").read_text()
    assert "strategy=minor" in text


def test_gradcheck_json(capsys):
    assert run("gradcheck", "--batch", 4, "--seed", 0) == EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["passed"] is True
    assert payload["checks"]["expression_loss"]["max_relative_error"] < 1e-5


def test_gradcheck_checks_both_losses_and_the_model(capsys):
    assert run("gradcheck", "--batch", 3, "--seed", 2) == EXIT_OK
    checks = json.loads(capsys.readouterr().out.strip())["checks"]
    # every logit of a 3-sample batch, and every parameter of a stack of 3
    # runs of the 6-4-3 model
    assert {name: check["parameters_checked"] for name, check in checks.items()} == {
        "expression_loss": 3 * 7, "au_loss": 3 * 18,
        "model": 3 * (6 * 4 + 4 + 4 * 3 + 3 + 3 * 25 + 25),
    }
    for check in checks.values():
        assert check["passed"] is True
        assert 0.0 <= check["max_relative_error"] <= check["bound"]


def test_gradcheck_model_compares_each_runs_losses(monkeypatch, capsys):
    # a step that gathers every run's pos-weights from run 0 computes its
    # loss and gradient from the same wrong table, so only the losses show it
    init = harness.Step.__init__

    def run_0_tables(step, *args):
        init(step, *args)
        step.runs = np.zeros_like(step.runs)

    assert run("gradcheck") == EXIT_OK
    model_check = json.loads(capsys.readouterr().out.strip())["checks"]["model"]
    assert 0.0 <= model_check["loss_relative_error"] <= model_check["loss_bound"]
    monkeypatch.setattr(harness.Step, "__init__", run_0_tables)
    assert run("gradcheck") == EXIT_NUMERIC
    model_check = json.loads(capsys.readouterr().out.strip())["checks"]["model"]
    assert model_check["max_relative_error"] <= model_check["bound"]
    assert model_check["loss_relative_error"] > model_check["loss_bound"]
    assert model_check["passed"] is False


@pytest.mark.parametrize("argv, message", [
    (["--batch", -1], "--batch must be >= 1"),
    (["--eps", 0], "epsilon"),
    (["--seed", -1], "--seed >= 0"),
])
def test_gradcheck_bad_argument_is_contract_error(argv, message, capsys):
    assert run("gradcheck", *argv) == EXIT_CONTRACT
    assert message in capsys.readouterr().err


def test_gradcheck_over_bound_is_numeric_failure(capsys):
    # central differences 1.0 apart are far from the analytic gradient
    assert run("gradcheck", "--eps", 1.0) == EXIT_NUMERIC
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["passed"] is False
    assert not any(check["passed"] for check in payload["checks"].values())


def test_export_confusion_roundtrip(synth_dirs, tmp_path):
    confusion = np.arange(49).reshape(7, 7)
    src = tmp_path / "src.csv"
    names = "Happy,Sad,Neutral,Angry,Surprise,Disgust,Fear".split(",")
    with open(src, "w") as fh:
        fh.write("# aukit confusion v1 rows=true cols=predicted\n")
        fh.write("true," + ",".join(names) + "\n")
        for i, name in enumerate(names):
            fh.write(name + "," + ",".join(str(v) for v in confusion[i]) + "\n")
    out = tmp_path / "artifacts"
    assert run("export-confusion", "--confusion", src, "--out", out) == EXIT_OK
    assert (out / "confusion.svg").exists()


def test_export_embeddings_command(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    run_dir = tmp_path / "run"
    assert run("train", "--data", train_dir, "--epochs", 1, "--seed", 0,
               "--out", run_dir) == EXIT_OK
    out = tmp_path / "emb"
    assert run("export-embeddings", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", train_dir, "--out", out) == EXIT_OK
    assert (out / "embeddings.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "export-embeddings"])
def test_feature_rows_must_match_the_label_files(command, synth_dirs, tmp_path,
                                                 capsys):
    # 5 extra feature rows once trained, evaluated or exported 250 rows
    # without naming the mismatch
    train_dir, _ = synth_dirs
    data = _with_features(train_dir, tmp_path / "data",
                          lambda f: np.concatenate([f, f[:5]]))
    argv = [command, "--data", data, "--out", tmp_path / "out"]
    if command == "train":
        argv += ["--epochs", 1]
    else:
        assert run("train", "--data", train_dir, "--epochs", 1,
                   "--out", tmp_path / "run") == EXIT_OK
        argv += ["--checkpoint", tmp_path / "run" / "checkpoint.bin"]
    capsys.readouterr()
    assert run(*argv) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{data}: features.bin has 255 rows, the label files 250" in err
    assert not (tmp_path / "out").exists()


def test_contract_error_exit_code(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    assert run("train", "--data", train_dir, "--lam", 2.0,
               "--out", tmp_path / "x") == EXIT_CONTRACT


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "d", "--bogus"], "unrecognized arguments: --bogus"),
    (["train"], "the following arguments are required: --data"),
    ([], "the following arguments are required: command"),
], ids=["unknown_flag", "missing_data", "no_command"])
def test_usage_error_exits_contract(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("usage: aukit") and f": error: {message}" in err, err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--data" in capsys.readouterr().out


# each subcommand with its required arguments; only the ones that read a
# seed take --seed
SUBCOMMANDS = {
    "ingest": ["a.csv"],
    "extract-knowledge": ["--frames", "s", "--preds", "p.csv"],
    "aggregate-knowledge": ["k.csv"],
    "pseudo-label": ["--frames", "s", "--video-labels", "l.csv"],
    "pos-weights": ["--labels", "l.csv"],
    "synth-gen": [],
    "train": ["--data", "d"],
    "sweep": ["--data", "d"],
    "compare-strategies": ["--data", "d"],
    "eval": ["--checkpoint", "c.bin", "--data", "d"],
    "gradcheck": [],
    "export-confusion": ["--confusion", "c.csv"],
    "export-embeddings": ["--checkpoint", "c.bin", "--data", "d"],
}
SEEDED = {"synth-gen", "train", "sweep", "compare-strategies", "gradcheck"}


def test_every_subcommand_is_listed():
    choices = build_parser()._subparsers._group_actions[0].choices
    assert set(choices) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_seed_only_where_a_command_reads_it(command, capsys):
    argv = [command, *SUBCOMMANDS[command], "--seed", "5"]
    if command in SEEDED:
        assert build_parser().parse_args(argv).seed == 5
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONTRACT
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path):
    assert run("eval", "--checkpoint", tmp_path / "missing.bin",
               "--data", tmp_path, "--out", tmp_path / "y") == EXIT_IO


def test_bad_config_key_rejected(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_knob": 1}))
    assert run("train", "--data", train_dir, "--config", cfg,
               "--out", tmp_path / "z") == EXIT_CONTRACT


def _edit_copy(src, dst, old, new):
    text = src.read_text()
    assert old in text
    dst.write_text(text.replace(old, new, 1))
    return dst


def _pos_weights_file(tmp_path, old, new):
    from aukit.labeling import compute_pos_weights, write_pos_weights_csv
    good = tmp_path / "good_pw.csv"
    write_pos_weights_csv(compute_pos_weights(np.zeros((1, 18)), [0], "none"), good)
    return _edit_copy(good, tmp_path / "pw.csv", old, new)


def _knowledge_file(train_dir, tmp_path, old="", new="", support=None):
    path = _edit_copy(train_dir / "knowledge.csv", tmp_path / "k.csv", old, new)
    sidecar = (train_dir / "knowledge.csv.support.csv").read_text()
    if support is not None:
        assert support[0] in sidecar
        sidecar = sidecar.replace(*support, 1)
    (tmp_path / "k.csv.support.csv").write_text(sidecar)
    return path


def _confusion_file(tmp_path, edit):
    names = "Happy,Sad,Neutral,Angry,Surprise,Disgust,Fear".split(",")
    rows = [name + "," + ",".join(["3"] * 7) for name in names]
    rows[2] = edit(rows[2])
    path = tmp_path / "confusion.csv"
    path.write_text("# aukit confusion v1 rows=true cols=predicted\n"
                    "true," + ",".join(names) + "\n" + "\n".join(rows) + "\n")
    return path


def _expression_labels_dir(train_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(train_dir, data)
    _edit_copy(train_dir / "expression_labels.csv",
               data / "expression_labels.csv", "\n0\n", "\nabc\n")
    return data


def _au_labels_dir(train_dir, tmp_path, edit):
    """A copy of the dataset directory with au_labels.csv edited."""
    data = tmp_path / "data"
    shutil.copytree(train_dir, data)
    path = data / "au_labels.csv"
    path.write_text(edit(path.read_text()))
    return data


# case -> (argv as a function of (train_dir, tmp_path), expected message)
MALFORMED_TABLES = {
    "pos_weights_non_numeric": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--pos-weights-file", _pos_weights_file(t, "1.0", "one")],
        "pos-weight file: non-numeric"),
    "pos_weights_short_row": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--pos-weights-file", _pos_weights_file(t, ",1.0\n", "\n")],
        "pos-weight file: bad row width"),
    "au_labels_non_numeric": (lambda d, t: [
        "pos-weights", "--out", t / "pw",
        "--labels", _edit_copy(d / "au_labels.csv", t / "l.csv", ",0\n", ",zero\n")],
        "label file: non-numeric"),
    "au_labels_unknown_expression": (lambda d, t: [
        "pos-weights", "--out", t / "pw",
        "--labels", _edit_copy(d / "au_labels.csv", t / "l.csv", ",Happy,", ",Bogus,")],
        "label file: unknown expression label 'Bogus' at line 2, column 2"),
    "au_labels_non_binary": (lambda d, t: [
        "pos-weights", "--out", t / "pw",
        "--labels", _edit_copy(d / "au_labels.csv", t / "l.csv", ",0\n", ",2\n")],
        "AU45 = 2 not in {0, 1}"),
    "au_labels_expression_disagrees": (lambda d, t: [
        "train", "--data", _au_labels_dir(
            d, t, lambda text: text.replace("synth-00000,Happy,", "synth-00000,Sad,")),
        "--epochs", 1],
        "disagree on the expression of video 1"),
    "au_labels_row_missing": (lambda d, t: [
        "train", "--data", _au_labels_dir(
            d, t, lambda text: text.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
        "--epochs", 1],
        "au_labels.csv has 249 rows, expression_labels.csv 250"),
    "expression_labels_non_numeric": (lambda d, t: [
        "train", "--data", _expression_labels_dir(d, t), "--epochs", 1],
        "expression label file"),
    "knowledge_datasets_not_integer": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, "# datasets=1", "# datasets=abc")],
        "knowledge file: non-numeric"),
    "knowledge_support_non_integer": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, support=("AU02,", "AU02,x"))],
        "support file"),
    "knowledge_support_missing_row": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, support=("AU45,", "#AU45,"))],
        "support file"),
    "confusion_short_row": (lambda d, t: [
        "export-confusion", "--out", t / "c",
        "--confusion", _confusion_file(t, lambda row: row.rsplit(",", 1)[0])],
        "confusion file"),
    "confusion_non_numeric": (lambda d, t: [
        "export-confusion", "--out", t / "c",
        "--confusion", _confusion_file(t, lambda row: row.replace(",3", ",x", 1))],
        "confusion file"),
    "knowledge_nan_cell": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, "AU01,0.8,", "AU01,nan,")],
        "knowledge file: non-finite cell 'nan' at line 7, column 2"),
    "knowledge_theta_nan": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, "# theta=0.5", "# theta=nan")],
        "theta must be in [0, 1], got nan"),
    "knowledge_loss_scaled_negative": (lambda d, t: [
        "train", "--data", d, "--epochs", 1,
        "--knowledge", _knowledge_file(d, t, "AU04,0.8,0.8,0.8,4.2,",
                                       "AU04,0.8,0.8,0.8,-40,")],
        "-40.0 at (AU04, Angry) is outside [0, 5.0] for stage loss-scaled"),
    "confusion_negative_count": (lambda d, t: [
        "export-confusion", "--out", t / "c",
        "--confusion", _confusion_file(t, lambda row: row.replace(",3", ",-1", 1))],
        "confusion counts must be >= 0"),
    "confusion_count_beyond_int64": (lambda d, t: [
        "export-confusion", "--out", t / "c",
        "--confusion", _confusion_file(
            t, lambda row: row.replace(",3", ",100000000000000000000", 1))],
        "out-of-range cell '100000000000000000000' at line 5, column 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_is_one_line_contract_error(case, synth_dirs, tmp_path,
                                                    capsys):
    build, message = MALFORMED_TABLES[case]
    argv = build(synth_dirs[0], tmp_path)
    capsys.readouterr()
    assert run(*argv) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_missing_knowledge_file_is_io_error(synth_dirs, tmp_path, capsys):
    capsys.readouterr()
    assert run("train", "--data", synth_dirs[0], "--epochs", 1,
               "--knowledge", tmp_path / "absent.csv",
               "--out", tmp_path / "run") == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err
    assert "absent.csv" in err


def test_missing_knowledge_support_sidecar_is_io_error(synth_dirs, tmp_path, capsys):
    # the sidecar is required: no missing file reads as zero support
    knowledge = _knowledge_file(synth_dirs[0], tmp_path)
    (tmp_path / "k.csv.support.csv").unlink()
    capsys.readouterr()
    assert run("train", "--data", synth_dirs[0], "--epochs", 1,
               "--knowledge", knowledge, "--out", tmp_path / "run") == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1, err
    assert "k.csv.support.csv" in err
    assert not (tmp_path / "run").exists()


def test_export_confusion_takes_counts_as_counts(tmp_path):
    # ten trillion samples in one cell: a report from the counts themselves,
    # never one label per sample
    src = _confusion_file(tmp_path, lambda row: row.replace(",3", ",10000000000000", 1))
    out = tmp_path / "artifacts"
    assert run("export-confusion", "--confusion", src, "--out", out) == EXIT_OK
    assert (out / "confusion.csv").read_bytes() == src.read_bytes()
    assert "Neutral as Happy: 10000000000000" in (out / "confusion.svg").read_text()


def test_synth_gen_rejects_unknown_spec_key(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sample_seed": 1, "bogus_knob": 2}))
    assert run("synth-gen", "--n", 20, "--spec", spec,
               "--out", tmp_path / "out") == EXIT_CONTRACT
    assert "bogus_knob" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_gen_flags_win_over_the_spec(tmp_path):
    # --seed and --n were once ignored when the spec set seed or total
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 3, "total": 40}))

    def features_digest(*argv):
        out = tmp_path / f"out{len(os.listdir(tmp_path))}"
        assert run("synth-gen", *argv, "--out", out) == EXIT_OK
        return hashlib.sha256((out / "features.bin").read_bytes()).hexdigest()

    spec_alone = features_digest("--spec", spec)
    assert spec_alone == features_digest("--seed", 3, "--n", 40)
    assert features_digest("--spec", spec, "--seed", 5) == (
        features_digest("--seed", 5, "--n", 40)) != spec_alone
    assert features_digest("--spec", spec, "--n", 30) == (
        features_digest("--seed", 3, "--n", 30))


def test_synth_gen_draws_2000_samples_unless_told(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"feature_dim": 2}))
    assert run("synth-gen", "--spec", spec, "--out", tmp_path / "out") == EXIT_OK
    assert load_features(tmp_path / "out" / "features.bin").shape == (2000, 2)


# case -> (subcommand, option, file content, text the message must name)
MALFORMED_JSON = {
    "config_not_an_object": ("train", "--config", "[1]", "JSON object"),
    "config_epochs_not_integer": ("train", "--config", '{"epochs": "x"}', "'epochs'"),
    "config_hidden_not_a_list": ("train", "--config", '{"hidden": 5}', "'hidden'"),
    "config_bool_not_integer": (
        "train", "--config", '{"batch_size": true}', "'batch_size'"),
    "config_not_json": ("sweep", "--config", "{epochs: 2", "not valid JSON"),
    # the AU loss has one reduction, the per-sample mean, and no key for it
    "config_au_loss_reduction": (
        "train", "--config", '{"au_loss_reduction": "mean-samples"}',
        "unknown config keys: ['au_loss_reduction']"),
    "spec_total_not_integer": ("synth-gen", "--spec", '{"total": "abc"}', "'total'"),
    "spec_knowledge_not_settable": (
        "synth-gen", "--spec", '{"ground_truth_knowledge": [1]}',
        "'ground_truth_knowledge'"),
    # values of the right type that no run or dataset can use: each used to
    # train or generate with exit 0, or escape as a traceback
    "config_learning_rate_infinite": (
        "train", "--config", '{"learning_rate": 1e400}',
        "learning_rate must be finite and > 0, got inf"),
    "config_learning_rate_nan": (
        "train", "--config", '{"learning_rate": NaN}',
        "learning_rate must be finite and > 0, got nan"),
    "config_learning_rate_negative": (
        "train", "--config", '{"learning_rate": -1}', "learning_rate must be"),
    "config_weight_decay_negative_infinity": (
        "train", "--config", '{"weight_decay": -Infinity}',
        "weight_decay must be finite and >= 0, got -inf"),
    "config_factor_unknown": (
        "train", "--config", '{"factor": 5.0}', "unknown config keys: ['factor']"),
    "spec_feature_dim_negative": (
        "synth-gen", "--spec", '{"feature_dim": -1}', "feature_dim must be >= 1"),
    "spec_anchor_scale_negative": (
        "synth-gen", "--spec", '{"anchor_scale": -1}', "anchor_scale must be"),
    "spec_feature_noise_nan": (
        "synth-gen", "--spec", '{"feature_noise_sd": NaN}', "must be finite and >= 0"),
    "config_seed_negative": ("train", "--config", '{"seed": -1}', "seed >= 0"),
    "spec_seed_negative": (
        "synth-gen", "--spec", '{"seed": -1}', "seed and sample_seed must be >= 0"),
    "spec_sample_seed_negative": (
        "synth-gen", "--spec", '{"sample_seed": -1}', "seed and sample_seed must be"),
    "spec_class_proportion_nan": (
        "synth-gen", "--spec",
        '{"class_proportions": [NaN, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05]}',
        "class proportions must be nonnegative"),
}


@pytest.mark.parametrize("cls", [TrainConfig, SynthSpec])
def test_every_json_field_type_converts(cls):
    # _load_json_fields looks each field's type up in _JSON_FIELD_TYPES
    # unguarded, so a field of another type would escape as a KeyError
    assert {f.type for f in fields(cls)} <= set(_JSON_FIELD_TYPES)


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_is_one_line_contract_error(case, synth_dirs, tmp_path,
                                                   capsys):
    command, option, content, named = MALFORMED_JSON[case]
    path = tmp_path / "in.json"
    path.write_text(content)
    argv = [command, option, path, "--out", tmp_path / "out"]
    if command != "synth-gen":
        argv += ["--data", synth_dirs[0], "--epochs", 1]
    capsys.readouterr()
    assert run(*argv) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


def test_non_numeric_sweep_grid_is_contract_error(synth_dirs, tmp_path, capsys):
    # Python's float() once read 0_5 as 5.0 and a fullwidth 1 as 1.0, so a
    # sweep trained at those lambdas; a grid value is read as a table cell is
    for grid in ("0.1,x", "0_5", "\uff11"):
        capsys.readouterr()
        assert run("sweep", "--data", synth_dirs[0], "--epochs", 1, "--grid", grid,
                   "--out", tmp_path / "out") == EXIT_CONTRACT, grid
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--grid" in err


@pytest.mark.parametrize("value", ["1_0", "\uff11"])
@pytest.mark.parametrize("command, flag, kind", [
    ("gradcheck", "--seed", "int"), ("synth-gen", "--n", "int"),
    ("sweep", "--epochs", "int"), ("gradcheck", "--batch", "int"),
    ("train", "--lam", "float"), ("gradcheck", "--eps", "float"),
    ("extract-knowledge", "--theta", "float"),
    ("extract-knowledge", "--min-confidence", "float"),
])
def test_numeric_flag_reads_the_table_grammar(command, flag, kind, value, capsys):
    # Python's int() and float() once read 1_0 as 10 and a fullwidth 1 as 1;
    # a numeric flag reads its value as a table cell is, or is a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, *SUBCOMMANDS[command], flag, value])
    assert exc.value.code == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert f"error: argument {flag}: invalid {kind} value: {value!r}" in err, err


@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "lam", 0.9),
    ("compare-strategies", "strategy", "global"),
])
@pytest.mark.parametrize("given_by", ["flag", "config"])
def test_study_rejects_the_field_it_varies(command, flag, value, given_by,
                                           synth_dirs, tmp_path, capsys):
    # a sweep sets lambda per run and a comparison the strategy; the value
    # given once wrote the same table as any other
    extra = [f"--{flag}", value]
    if given_by == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        extra = ["--config", cfg]
    capsys.readouterr()
    assert run(command, "--data", synth_dirs[0], "--epochs", 1, *extra,
               "--out", tmp_path / "out") == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"--{flag}" in err and f"'{flag}' config key" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option", [
    ("sweep", "--grid"), ("compare-strategies", "--strategies"),
])
def test_empty_study_list_is_contract_error(command, option, synth_dirs, tmp_path,
                                            capsys):
    # an empty list once ran the default grid or every strategy
    capsys.readouterr()
    assert run(command, "--data", synth_dirs[0], "--epochs", 1, option, "",
               "--out", tmp_path / "out") == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "nonempty" in err
    assert not (tmp_path / "out").exists()


def test_json_config_values_are_converted(synth_dirs, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": [4], "lam": 0, "batch_size": 100}))
    assert run("train", "--data", synth_dirs[0], "--config", cfg, "--epochs", 1,
               "--out", tmp_path / "run") == EXIT_OK


@pytest.mark.parametrize("command, extra", [
    ("train", ["--strategy", "distinct"]),
    ("sweep", ["--strategy", "none"]),
    ("compare-strategies", []),
])
def test_pos_weights_file_conflict_rejected(command, extra, synth_dirs, tmp_path,
                                            capsys):
    train_dir, _ = synth_dirs
    assert run("pos-weights", "--labels", train_dir / "au_labels.csv",
               "--out", tmp_path / "pw") == EXIT_OK
    capsys.readouterr()
    assert run(command, "--data", train_dir, "--epochs", 1, *extra,
               "--pos-weights-file", tmp_path / "pw" / "pos_weights.csv",
               "--out", tmp_path / "out") == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--pos-weights-file" in err
    assert not (tmp_path / "out").exists()


def test_pos_weights_file_conflicts_with_config_strategy(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    assert run("pos-weights", "--labels", train_dir / "au_labels.csv",
               "--out", tmp_path / "pw") == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "minor"}))
    assert run("train", "--data", train_dir, "--epochs", 1, "--config", cfg,
               "--pos-weights-file", tmp_path / "pw" / "pos_weights.csv",
               "--out", tmp_path / "out") == EXIT_CONTRACT


def test_compare_strategies_computes_only_the_compared_strategies(tmp_path, caplog):
    # on 20 samples the distinct strategy (the config default) falls back for
    # many cells and logs each; comparing only 'none' must not compute it
    data = tmp_path / "tiny"
    assert run("synth-gen", "--n", 20, "--seed", 0, "--out", data) == EXIT_OK
    caplog.clear()
    assert run("compare-strategies", "--data", data, "--strategies", "none",
               "--epochs", 1, "--out", tmp_path / "out") == EXIT_OK
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []
