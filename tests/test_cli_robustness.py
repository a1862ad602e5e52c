"""Malformed or truncated inputs never escape the CLI as a traceback.

The table and JSON readers get a property test: each case starts from a
valid input file (the frames pipeline's inputs, or a file of a small
generated dataset directory), then either truncates it at a drawn offset or
(in a table) replaces one drawn cell with a drawn bad value; in the JSON
files, every value is replaced by every bad value in turn, and every table
has a byte that is not UTF-8 written into its body. Whatever the
outcome, `aukit` must return a documented exit code, and a failure must
end stderr with its one-line message. The sealed binary files
(checkpoints, frame stores and feature files) are truncated inside, or have
one byte flipped in, each region of their layout, and each field of a
checkpoint header is removed or mistyped in a validly sealed file.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit.cli import EXIT_CONTRACT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from aukit.domain import EXPRESSIONS, INTENSITY_AU_NAMES
from aukit.harness import export_confusion, report_from_confusion
from aukit.ingest import FRAME_STORE_MAGIC
from aukit.model import CHECKPOINT_MAGIC, FEATURE_MAGIC
from aukit.sealed import DIGEST_SIZE, read_sealed, write_sealed

from conftest import openface_csv

BAD_CELLS = ("nan", "inf", "1.5", "-1", "x", "")
BAD_JSON_VALUES = ("NaN", "-Infinity", "1e400", "1.5", "-1", "0", "true", "null",
                   '"x"', "[]", "{}")
MESSAGE_PREFIXES = ("error:", "numeric failure:", "i/o error:")
# the valid training config and synth-gen spec the JSON cases start from
JSON_DOCUMENTS = {
    "config": {
        "lam": 0.3, "strategy": "global", "epochs": 1, "batch_size": 8,
        "learning_rate": 0.01, "weight_decay": 0.05, "seed": 1, "hidden": [4, 3]},
    "spec": {
        "total": 20, "class_proportions": [0.3, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05],
        "au_noise_sd": 1.0, "feature_noise_sd": 2.0, "feature_dim": 6,
        "anchor_scale": 0.3, "seed": 2, "sample_seed": 3},
}


def run(*argv):
    """(exit code, stderr) of one CLI call, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One three-frame video per class: OpenFace CSVs, their frame stores,
    frame predictions, video labels and the derived AU labels; and a
    generated dataset directory with its pos-weights, a confusion matrix, a
    training config and a synth-gen spec."""
    root = tmp_path_factory.mktemp("robustness")
    csvs, preds, video_labels = [], ["video_id,frame,label," + ",".join(
        f"s{j}" for j in range(7))], ["video_id,label"]
    for c, name in enumerate(EXPRESSIONS):
        rows = [
            {f"{INTENSITY_AU_NAMES[c]}_r": "3.5", "AU01_c": f"{i % 2}.0"}
            for i in range(3)
        ]
        csvs.append(root / f"v{c}.csv")
        csvs[-1].write_text(openface_csv(rows))
        for frame in (1, 2, 3):
            scores = ["0.02"] * 7
            scores[c] = "0.88"
            preds.append(f"v{c},{frame},{name}," + ",".join(scores))
        video_labels.append(f"v{c},{name}")
    files = {
        "openface": csvs[0],
        "preds": root / "scores.csv",
        "video_labels": root / "video_labels.csv",
        "au_labels": root / "au_labels.csv",
    }
    files["preds"].write_text("\n".join(preds) + "\n")
    files["video_labels"].write_text("\n".join(video_labels) + "\n")
    store = root / "store"
    assert run("ingest", *csvs, "--out", store)[0] == EXIT_OK
    assert run("pseudo-label", "--frames", store, "--video-labels",
               files["video_labels"], "--out", files["au_labels"])[0] == EXIT_OK
    data = root / "data"
    assert run("synth-gen", "--n", 20, "--seed", 0, "--out", data)[0] == EXIT_OK
    assert run("pos-weights", "--labels", data / "au_labels.csv", "--strategy",
               "global", "--out", data)[0] == EXIT_OK
    export_confusion(report_from_confusion(np.arange(49).reshape(7, 7)),
                     data / "confusion.csv", data / "confusion.svg")
    (data / "config.json").write_text(json.dumps(JSON_DOCUMENTS["config"]))
    (data / "spec.json").write_text(json.dumps(JSON_DOCUMENTS["spec"]))
    files.update({
        "pos_weights": data / "pos_weights.csv",
        "knowledge": data / "knowledge.csv",
        "knowledge_support": data / "knowledge.csv.support.csv",
        "confusion": data / "confusion.csv",
        "expression_labels": data / "expression_labels.csv",
        "config": data / "config.json",
        "spec": data / "spec.json",
    })
    return files, store


def train_on(path, store, out, *options):
    """A one-epoch `train` of the dataset directory that holds `path`."""
    return ["train", "--data", path.parent, "--epochs", 1, *options,
            "--out", out / "run"]


# input file -> the command that reads it, given (its path, store, output dir);
# a dataset directory file is read from a copy of the directory
COMMANDS = {
    "openface": lambda path, store, out: ["ingest", path, "--out", out / "store"],
    "preds": lambda path, store, out: [
        "extract-knowledge", "--frames", store, "--preds", path,
        "--out", out / "knowledge.csv"],
    "video_labels": lambda path, store, out: [
        "pseudo-label", "--frames", store, "--video-labels", path,
        "--out", out / "au_labels.csv"],
    "au_labels": lambda path, store, out: [
        "pos-weights", "--labels", path, "--out", out / "pw"],
    "pos_weights": lambda path, store, out: train_on(
        path, store, out, "--pos-weights-file", path),
    "knowledge": train_on,
    "knowledge_support": train_on,
    "expression_labels": train_on,
    "confusion": lambda path, store, out: [
        "export-confusion", "--confusion", path, "--out", out / "c"],
    "config": lambda path, store, out: [
        "train", "--data", store.parent / "data", "--config", path,
        "--out", out / "run"],
    "spec": lambda path, store, out: [
        "synth-gen", "--spec", path, "--out", out / "synth"],
}


def mutate(data, text, is_json=False):
    """`text` truncated at a drawn offset, or (not for JSON, whose values
    test_json_value_mutation enumerates) with one drawn cell replaced."""
    if is_json or data.draw(st.booleans(), label="truncate"):
        return text[:data.draw(st.integers(0, len(text)), label="offset")]
    lines = text.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="line")
    cells = lines[row].split(",")
    column = data.draw(st.integers(0, len(cells) - 1), label="cell")
    cells[column] = data.draw(st.sampled_from(BAD_CELLS), label="value")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_input_exits_with_one_line_message(source, corpus, data):
    files, store = corpus
    text = mutate(data, files[source].read_text(), files[source].suffix == ".json")
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        path = out / files[source].name
        if files[source].parent.name == "data":
            path = shutil.copytree(files[source].parent, out / "data") / path.name
        path.write_text(text)
        code, err = run(*COMMANDS[source](path, store, out))
    assert code in (EXIT_OK, EXIT_CONTRACT, EXIT_NUMERIC, EXIT_IO)
    if code != EXIT_OK:
        assert err.splitlines()[-1].startswith(MESSAGE_PREFIXES), err


@pytest.mark.parametrize("source", sorted(s for s in COMMANDS if s not in JSON_DOCUMENTS))
def test_non_utf8_csv_exits_with_one_line_naming_the_file(source, corpus, tmp_path):
    files, store = corpus
    path = tmp_path / files[source].name
    if files[source].parent.name == "data":
        path = shutil.copytree(files[source].parent, tmp_path / "data") / path.name
    blob = files[source].read_bytes()
    at = blob.index(b"\n") + 1
    path.write_bytes(blob[:at] + b"\xff" + blob[at:])
    code, err = run(*COMMANDS[source](path, store, tmp_path))
    assert code == EXIT_CONTRACT, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert str(path) in err and "not UTF-8 text" in err, err


def with_bad_value(document, key, index, bad):
    """The JSON text of `document` with the value of `key` (its item
    `index`, unless None) spelled `bad`."""
    cells = {name: json.dumps(value) for name, value in document.items()}
    if index is None:
        cells[key] = bad
    else:
        cells[key] = "[" + ", ".join(bad if j == index else json.dumps(item)
                                     for j, item in enumerate(document[key])) + "]"
    return "{" + ", ".join(f"{json.dumps(name)}: {cell}"
                           for name, cell in cells.items()) + "}"


# every value position of each JSON document (each top-level value, and each
# item of a list value) with every bad value
JSON_CASES = [
    pytest.param(source, key, index, bad,
                 id=f"{source}-{key}{'' if index is None else [index]}-{bad}")
    for source, document in JSON_DOCUMENTS.items()
    for key, index in [(key, None) for key in document] + [
        (key, i) for key, value in document.items() if isinstance(value, list)
        for i in range(len(value))]
    for bad in BAD_JSON_VALUES
]


@pytest.mark.parametrize("source,key,index,bad", JSON_CASES)
def test_json_value_mutation_exits_with_one_line_message(corpus, tmp_path, source,
                                                        key, index, bad):
    files, store = corpus
    path = tmp_path / files[source].name
    path.write_text(with_bad_value(JSON_DOCUMENTS[source], key, index, bad))
    code, err = run(*COMMANDS[source](path, store, tmp_path))
    assert code in (EXIT_OK, EXIT_CONTRACT, EXIT_NUMERIC, EXIT_IO)
    if code != EXIT_OK:
        assert err.splitlines()[-1].startswith(MESSAGE_PREFIXES), err


SEALED_REGIONS = ("magic", "header length", "header", "payload length",
                  "payload", "digest")


def damaged(blob, magic, region, kind):
    """`blob`, a sealed file, cut short or with one byte flipped halfway
    through `region`."""
    header_at = len(magic) + 8
    length_at = header_at + int.from_bytes(blob[len(magic):header_at], "little")
    bounds = (0, len(magic), header_at, length_at, length_at + 8,
              len(blob) - DIGEST_SIZE, len(blob))
    i = SEALED_REGIONS.index(region)
    middle = (bounds[i] + bounds[i + 1]) // 2
    if kind == "truncate":
        return blob[:middle]
    flipped = bytearray(blob)
    flipped[middle] ^= 0xFF
    return bytes(flipped)


def assert_one_error_line(code, err):
    assert code == EXIT_CONTRACT, err
    assert len(err.splitlines()) == 1 and err.startswith("error: corrupt"), err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small generated dataset and the checkpoint of one epoch on it."""
    root = tmp_path_factory.mktemp("trained")
    assert run("synth-gen", "--n", 60, "--seed", 0, "--out", root / "data")[0] == EXIT_OK
    assert run("train", "--data", root / "data", "--epochs", 1, "--seed", 0,
               "--out", root / "run")[0] == EXIT_OK
    return root / "data", root / "run" / "checkpoint.bin"


@pytest.mark.parametrize("kind", ("truncate", "flip"))
@pytest.mark.parametrize("region", SEALED_REGIONS)
def test_damaged_checkpoint_exits_with_one_error_line(trained, tmp_path, region, kind):
    data, checkpoint = trained
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(damaged(checkpoint.read_bytes(), CHECKPOINT_MAGIC, region, kind))
    assert_one_error_line(*run("eval", "--checkpoint", path, "--data", data,
                               "--out", tmp_path / "eval"))


def mistyped(value):
    """`value` (a checkpoint header's) as the same number or numbers in
    another JSON type, or, for the layout, its items as a list."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, list):
        return [float(v) for v in value]
    return float(value)


@pytest.mark.parametrize("fault", ("removed", "mistyped"))
@pytest.mark.parametrize("field", ("version", "seed", "feature_dim", "hidden", "layout"))
def test_checkpoint_header_fault_exits_with_one_error_line(trained, tmp_path, field,
                                                           fault):
    data, checkpoint = trained
    header, payload = read_sealed(checkpoint, CHECKPOINT_MAGIC, "checkpoint")
    if fault == "removed":
        del header[field]
    else:
        header[field] = mistyped(header[field])
    path = tmp_path / "checkpoint.bin"
    write_sealed(path, CHECKPOINT_MAGIC, header, payload)
    code, err = run("eval", "--checkpoint", path, "--data", data,
                    "--out", tmp_path / "eval")
    assert code == EXIT_CONTRACT, err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("kind", ("truncate", "flip"))
@pytest.mark.parametrize("region", SEALED_REGIONS)
def test_damaged_frame_store_exits_with_one_error_line(corpus, tmp_path, region, kind):
    files, store = corpus
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    path = copy / "v3.frames"
    path.write_bytes(damaged(path.read_bytes(), FRAME_STORE_MAGIC, region, kind))
    assert_one_error_line(*run("pseudo-label", "--frames", copy, "--video-labels",
                               files["video_labels"], "--out", tmp_path / "au.csv"))


@pytest.mark.parametrize("kind", ("truncate", "flip"))
@pytest.mark.parametrize("region", SEALED_REGIONS)
def test_damaged_feature_file_exits_with_one_error_line(trained, tmp_path, region,
                                                        kind):
    data = shutil.copytree(trained[0], tmp_path / "data")
    path = data / "features.bin"
    path.write_bytes(damaged(path.read_bytes(), FEATURE_MAGIC, region, kind))
    assert_one_error_line(*run("train", "--data", data, "--epochs", 1,
                               "--out", tmp_path / "run"))
