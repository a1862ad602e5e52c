"""The one table format (aukit.tables), and golden hashes of the tables the
training-side commands write."""

import hashlib
import json

import numpy as np
import pytest

from aukit.cli import EXIT_OK, main
from aukit.domain import ContractError
from aukit.tables import (
    meta_fields,
    numbers,
    read_matrix,
    read_table,
    write_matrix,
    write_table,
)


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [["a", 1, 0.1, np.float32(0.1)], ["b", np.int64(2), 1e-300,
                                                        float("nan")]],
                header=("name", "n", "x", "y"), meta=("demo v1", "key=value"))
    assert path.read_text() == (
        "# demo v1\n# key=value\nname,n,x,y\n"
        "a,1,0.1,0.10000000149011612\nb,2,1e-300,nan\n"
    )


def test_read_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, [["a", 0.25], ["b", 7]], header=("name", "v"),
                meta=("demo v1", "stage = aggregate "))
    path.write_text(path.read_text().replace("\na,", "\n\n  \na,"))  # blank lines
    meta, rows = read_table(path, "demo file", header=("name", "v"))
    assert meta == {"demo v1": "", "stage": "aggregate"}
    assert rows == [(6, ["a", "0.25"]), (7, ["b", "7"])]


@pytest.mark.parametrize("text, kwargs, message", [
    ("name,v\na,1\n", {"header": ("name", "w")}, "header must be 'name,w'"),
    ("", {"header": ("name",)}, "header must be 'name'"),
    ("name,v\na,1\nb\n", {"header": ("name", "v")},
     r"bad row width at line 3 \(1 cells, expected 2\)"),
    ("1\n1,2\n", {"width": 1}, "bad row width at line 2"),
])
def test_read_table_rejects(tmp_path, text, kwargs, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ContractError, match="corrupt demo file: " + message):
        read_table(path, "demo file", **kwargs)


def test_a_comment_after_the_body_is_a_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta=1\n1\n# late\n")
    meta, rows = read_table(path, "demo file", width=1)
    assert meta == {"meta": "1"}
    assert rows == [(2, ["1"]), (3, ["# late"])]


def test_numbers_parse_finite_values():
    assert numbers(["1", "-2.5", "1e3"], "demo file", 4) == [1.0, -2.5, 1000.0]
    assert numbers(["3", "-7"], "demo file", 4, int) == [3, -7]


@pytest.mark.parametrize("cells, kind, message", [
    (["1", "x", "nan"], float, "non-numeric cell 'x' at line 9, column 4"),
    (["1", "2", "inf"], float, "non-finite cell 'inf' at line 9, column 5"),
    (["1", "nan"], int, "non-numeric cell 'nan' at line 9, column 4"),
    (["1.5"], int, "non-numeric cell '1.5' at line 9, column 3"),
    (["1", str(2 ** 63)], int, f"out-of-range cell '{2 ** 63}' at line 9, column 4"),
])
def test_numbers_name_the_bad_cell(cells, kind, message):
    # cells[0] sits in the file's third column
    with pytest.raises(ContractError, match="corrupt demo file: " + message):
        numbers(cells, "demo file", 9, kind, column=3)


def test_meta_fields():
    meta = {"stage": "aggregate", "datasets": "3", "theta": "0.5", "bad": "1.5"}
    assert meta_fields(meta, "demo file", stage=str, datasets=int, theta=float) == [
        "aggregate", 3, 0.5]
    with pytest.raises(ContractError, match="corrupt demo file: version missing"):
        meta_fields(meta, "demo file", version=str)
    with pytest.raises(ContractError, match="corrupt demo file: non-numeric bad '1.5'"):
        meta_fields(meta, "demo file", bad=int)


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(path, ("r0", "r1"), np.array([[1, 2], [3, 4]]), ("row", "a", "b"),
                 meta=("kind=demo",))
    assert path.read_text() == "# kind=demo\nrow,a,b\nr0,1,2\nr1,3,4\n"
    meta, values = read_matrix(path, "demo file", ("r0", "r1"), 2, ("row", "a", "b"),
                               kind=int)
    assert meta == {"kind": "demo"}
    assert values.dtype == np.int64 and values.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ContractError, match="line 3 is row 'r0', expected 'r1'"):
        read_matrix(path, "demo file", ("r1", "r0"), 2, ("row", "a", "b"))
    with pytest.raises(ContractError, match="expected 3 rows, got 2"):
        read_matrix(path, "demo file", ("r0", "r1", "r2"), 2, ("row", "a", "b"))


# sha256 of every table the commands below write, recorded before the tables
# moved to aukit.tables; epochs.csv and embeddings.csv re-recorded when the
# expression and AU heads became one fused product, and again when AdamW
# folded its bias corrections into two scalars: each time the float32 losses
# and embeddings differ in the last bits (every accuracy column is unchanged).
# The feature file and the checkpoint, recorded later, pin the sealed binary
# outputs across commits as well
TRAINING_GOLDEN = {
    "train/features.bin":
        "0e903705629912bb3671a00d12f53c39cbcd8a7d05bb48c032162dc17dbe02f2",
    "train/expression_labels.csv":
        "701597b163b5c639e5ec3b1e7baac91b6cec5cf380f86ea8500cd3748f537e9e",
    "train/au_labels.csv":
        "3f8279dc59ea60847b08c89066e417724397b40ff8ccc5e1052d71e0b2bdea40",
    "train/knowledge.csv":
        "09ba21bd37a6a7e149764f16ac7be57829f029556262d978a1aa989703f73f9e",
    "train/knowledge.csv.support.csv":
        "24de3c7695d271fb1198c13b7f210453800fd6f6064e6bd6aa5f1e06f3c72472",
    "run/checkpoint.bin":
        "87b7ac33d33471691b20a474cdf9cc072838f26b42437e72081f167fde17e39d",
    "run/epochs.csv":
        "b69e440a6d21bd7cae884675b60cc3ba5e79f04fff52580ab76400d16543aed7",
    "eval/metrics.csv":
        "8bf016bb5f9520a8533a51614e7951da4690d8540718807756793e8c7ba90ec2",
    "eval/confusion.csv":
        "3eeaaa248b359ca5d19faa4d7aeb73d1c9ed799e9284b4106070260e95d67a73",
    "art/confusion.csv":
        "3eeaaa248b359ca5d19faa4d7aeb73d1c9ed799e9284b4106070260e95d67a73",
    "emb/embeddings.csv":
        "58c59bda98ed4456e64a4303a9f7138c6d367221ad392668519b80e0ed0ac196",
    "sweep/sweep.csv":
        "d404e0f69d7af08d87cedb8c053ee3513df84deadb1b1445dd2d9c509b60adb1",
    "cmp/strategies.csv":
        "5c4480e4025e68117087180824b8ce220e6e479b51521e714cef309acecdc78a",
}


def test_training_tables_golden_hashes(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == EXIT_OK, argv

    train, test = tmp_path / "train", tmp_path / "test"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sample_seed": 2}))
    run("synth-gen", "--n", 200, "--seed", 3, "--out", train)
    run("synth-gen", "--n", 80, "--seed", 3, "--spec", spec, "--out", test)
    checkpoint = tmp_path / "run" / "checkpoint.bin"
    run("train", "--data", train, "--test-data", test, "--epochs", 6, "--seed", 1,
        "--out", tmp_path / "run")
    run("eval", "--checkpoint", checkpoint, "--data", test, "--out", tmp_path / "eval")
    run("export-confusion", "--confusion", tmp_path / "eval" / "confusion.csv",
        "--out", tmp_path / "art")
    run("export-embeddings", "--checkpoint", checkpoint, "--data", test,
        "--out", tmp_path / "emb")
    run("sweep", "--data", train, "--test-data", test, "--grid", "0.0,0.5",
        "--epochs", 6, "--out", tmp_path / "sweep")
    run("compare-strategies", "--data", train, "--strategies", "none,minor",
        "--epochs", 6, "--out", tmp_path / "cmp")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in TRAINING_GOLDEN}
    assert digests == TRAINING_GOLDEN
