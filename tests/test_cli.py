"""Command-line smoke tests: end-to-end flows and exit-code mapping."""

import json
import shutil

import numpy as np
import pytest

from aukit.cli import EXIT_CONTRACT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from aukit.model import load_features, save_features


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


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_feature_is_numeric_failure(synth_dirs, tmp_path):
    def put_nan(features):
        features[3, 2] = np.nan
        return features

    data = _with_features(synth_dirs[0], tmp_path / "nan", put_nan)
    run_dir = tmp_path / "run"
    assert run("train", "--data", data, "--epochs", 2, "--seed", 0,
               "--out", run_dir) == EXIT_NUMERIC
    assert not (run_dir / "checkpoint.bin").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_huge_features_overflowing_optimizer_are_numeric_failure(
    synth_dirs, tmp_path
):
    data = _with_features(synth_dirs[0], tmp_path / "huge", lambda f: f * 1e300)
    run_dir = tmp_path / "run"
    assert run("train", "--data", data, "--epochs", 2, "--seed", 0,
               "--out", run_dir) == EXIT_NUMERIC
    assert not (run_dir / "checkpoint.bin").exists()


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
    assert payload["max_relative_error"] < 1e-5


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


def test_contract_error_exit_code(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    assert run("train", "--data", train_dir, "--lam", 2.0,
               "--out", tmp_path / "x") == EXIT_CONTRACT


def test_io_error_exit_code(tmp_path):
    assert run("eval", "--checkpoint", tmp_path / "missing.bin",
               "--data", tmp_path, "--out", tmp_path / "y") == EXIT_IO


def test_bad_config_key_rejected(synth_dirs, tmp_path):
    train_dir, _ = synth_dirs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_knob": 1}))
    assert run("train", "--data", train_dir, "--config", cfg,
               "--out", tmp_path / "z") == EXIT_CONTRACT
