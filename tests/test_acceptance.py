"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS line on success so
the gate reads as a checklist under `pytest -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from aukit.cli import EXIT_OK, main as cli_main
from aukit.domain import KnowledgeMatrix, NUM_EXPRESSIONS
from aukit.harness import (
    DEFAULT_LAMBDA_GRID,
    TrainConfig,
    TrainData,
    evaluate,
    study,
    train,
    write_confusion_svg,
)
from aukit.knowledge import (
    aggregate_knowledge,
    compute_dataset_knowledge,
    filter_reliable_frames,
    scale_for_loss,
)
from aukit.labeling import (
    PosWeightSpec,
    STRATEGIES,
    compute_pos_weights,
    derive_video_au_labels,
)
from aukit.losses import (
    au_loss,
    combined_loss,
    expression_loss,
    finite_difference_check,
)
from aukit.model import backward, forward, init_params
from aukit.synth import SynthSpec, generate_dataset

from conftest import group_videos, make_frames, make_predictions, make_record

MINOR_INDICES = [4, 5, 6]


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences on 100 instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_loss = 0.0
    for _ in range(40):
        batch = int(rng.integers(2, 6))
        labels = rng.integers(0, 7, size=batch)
        point = rng.normal(scale=2.0, size=(batch, 7))
        check = finite_difference_check(
            lambda x: expression_loss(x, labels), point
        )
        worst_loss = max(worst_loss, check.max_relative_error)
    for _ in range(40):
        batch = int(rng.integers(2, 6))
        labels = rng.integers(0, 7, size=batch)
        au_labels = rng.integers(0, 2, size=(batch, 18)).astype(float)
        knowledge = KnowledgeMatrix(
            values=rng.uniform(0.2, 4.8, (18, 7)), stage="loss-scaled"
        )
        pw = PosWeightSpec(
            strategy="global", values=rng.uniform(0.5, 6.0, (7, 18))
        )
        point = rng.normal(scale=2.0, size=(batch, 18))
        check = finite_difference_check(
            lambda x: au_loss(x, au_labels, labels, knowledge, pw), point
        )
        worst_loss = max(worst_loss, check.max_relative_error)
    assert worst_loss < 1e-5

    worst_model = 0.0
    for trial in range(20):
        params = init_params(trial, feature_dim=6, hidden=(4,))
        x = rng.normal(size=(4, 6))
        labels = rng.integers(0, 7, size=4)
        au_labels = rng.integers(0, 2, size=(4, 18)).astype(float)
        knowledge = KnowledgeMatrix(
            values=rng.uniform(0.2, 4.8, (18, 7)), stage="loss-scaled"
        )
        pw = PosWeightSpec(strategy="none", values=np.ones((7, 18)))
        lam = float(rng.uniform(0.1, 0.9))

        def evaluator(vector):
            params.vector[...] = vector
            expr_logits, au_logits, _, acts = forward(params, x, return_hidden=True)
            loss_e, grad_e = expression_loss(expr_logits, labels)
            loss_au, grad_au = au_loss(au_logits, au_labels, labels, knowledge, pw)
            grads = backward(params, x, (1 - lam) * grad_e, lam * grad_au,
                             activations=acts)
            return combined_loss(loss_e, loss_au, lam), grads

        check = finite_difference_check(evaluator, params.vector.copy())
        worst_model = max(worst_model, check.max_relative_error)
    elapsed = time.perf_counter() - start
    assert worst_model < 1e-4
    assert elapsed < 30.0
    report(
        f"criterion 1 PASS gradient correctness "
        f"(loss err {worst_loss:.2e}, model err {worst_model:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_factor_invariance():
    """Scaling inside the log shifts the loss by -log(factor) and not the grad."""
    rng = np.random.default_rng(5)
    worst_shift = worst_grad = 0.0
    for _ in range(50):
        batch = int(rng.integers(1, 9))
        logits = rng.normal(scale=3.0, size=(batch, 7))
        labels = rng.integers(0, 7, size=batch)
        loss5, grad5 = expression_loss(logits, labels, factor=5.0)
        loss1, grad1 = expression_loss(logits, labels, factor=1.0)
        worst_shift = max(worst_shift, abs((loss5 - loss1) - (-math.log(5.0))))
        worst_grad = max(worst_grad, float(np.abs(grad5 - grad1).max()))
    assert worst_shift <= 1e-12
    assert worst_grad <= 1e-12
    report(
        f"criterion 2 PASS factor invariance "
        f"(shift err {worst_shift:.2e}, grad err {worst_grad:.2e})"
    )


def test_criterion_3_pos_weight_oracles():
    """Strategy outputs equal exact rational hand enumeration on a toy set."""
    rng = np.random.default_rng(17)
    labels = []  # (AU bits, expression) per video
    counts = [9, 8, 7, 6, 8, 5, 7]  # 50 videos over the 7 classes
    video = 0
    for c, count in enumerate(counts):
        for _ in range(count):
            y = rng.integers(0, 2, size=18)
            y[0] = video % 2  # AU01 mixed within every class
            labels.append((y, c))
            video += 1
    au_labels = np.array([y for y, _ in labels])
    expr_labels = np.array([c for _, c in labels])

    total = len(labels)
    global_pos = [
        sum(int(y[j]) for y, _ in labels) for j in range(18)
    ]
    exact_global = [
        float(Fraction(total - s, s)) if 0 < s < total
        else (float(total) if s == 0 else 1e-6)
        for s in global_pos
    ]
    got_global = compute_pos_weights(au_labels, expr_labels, "global")
    for j, value in enumerate(exact_global):
        assert all(got_global.values[c, j] == value for c in range(7))

    exact_distinct = np.empty((7, 18))
    for c, count in enumerate(counts):
        class_labels = [y for y, label in labels if label == c]
        for j in range(18):
            s = sum(int(y[j]) for y in class_labels)
            if s == 0:
                exact_distinct[c, j] = float(count)
            elif s == count:
                exact_distinct[c, j] = 1e-6
            else:
                exact_distinct[c, j] = float(Fraction(count - s, s))
    got_distinct = compute_pos_weights(au_labels, expr_labels, "distinct")
    assert np.array_equal(got_distinct.values, exact_distinct)

    got_minor = compute_pos_weights(au_labels, expr_labels, "minor")
    for c in (0, 1, 2, 3):  # Happy, Sad, Neutral, Angry
        assert np.all(got_minor.values[c] == 1.0)
    for c in MINOR_INDICES:
        assert np.array_equal(got_minor.values[c], got_distinct.values[c])
    report("criterion 3 PASS pos-weight oracles (exact rational match)")


def test_criterion_4_knowledge_pipeline_oracle():
    """Hand corpus vs spreadsheet arithmetic; fixed-midpoint aggregation."""
    import statistics

    frames = {
        1: [np.linspace(0.4, 4.4, 17), np.full(17, 1.2), np.linspace(3.0, 0.6, 17)],
        5: [np.full(17, 2.8), np.linspace(0.0, 5.0, 17), np.linspace(4.6, 1.0, 17)],
    }
    records, predictions = [], []
    index = 1
    for c, class_frames in frames.items():
        for intensities in class_frames:
            records.append(
                make_record(video_id=f"v{c}", frame_index=index,
                            intensities=intensities)
            )
            scores = np.full(7, 0.01)
            scores[c] = 0.94
            predictions.append((f"v{c}", index, c, scores))
            index += 1
    reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
    matrix = compute_dataset_knowledge(group_videos(records), reliable, classes=(1, 5))

    raw = {}
    for c, class_frames in frames.items():
        medians = [
            statistics.median(f[j] for f in class_frames) for j in range(17)
        ]
        au28 = sum(medians) / 17.0
        raw[c] = medians[:16] + [au28] + medians[16:]
    flat = [v for column in raw.values() for v in column]
    midpoint = (max(flat) + min(flat)) / 2.0
    worst = 0.0
    for c, column in raw.items():
        for i in range(18):
            oracle = 1.0 / (1.0 + math.exp(-(column[i] - midpoint)))
            worst = max(worst, abs(matrix.values[i, c] - oracle))
    assert worst <= 1e-9

    halves = [
        KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset")
        for _ in range(4)
    ]
    aggregate = aggregate_knowledge(halves, midpoint_policy="compat")
    expected = 1.0 / (1.0 + math.exp(0.5))
    assert expected == pytest.approx(0.37754, abs=5e-6)
    assert np.abs(aggregate.values - expected).max() <= 1e-9
    report(
        f"criterion 4 PASS knowledge pipeline oracle "
        f"(corpus err {worst:.2e}, fixed-midpoint aggregate == sigmoid(-0.5))"
    )


def test_criterion_5_half_frames_boundary():
    """Presence sum at exactly half the frames flips the video label to 1."""
    for n in range(1, 201):
        at_boundary = math.ceil(0.5 * n)     # smallest sum with sum >= 0.5 n
        for sum_value, expected in ((at_boundary, 1), (at_boundary - 1, 0)):
            presences = np.zeros((n, 18))
            presences[:sum_value] = 1
            y = derive_video_au_labels(make_frames(n, presences=presences), "v")
            assert np.all(y == expected), (n, sum_value)
        if n % 2 == 0:
            # for even n the inclusive boundary sits exactly at 0.5 n
            assert at_boundary * 2 == n
    report("criterion 5 PASS half-frames boundary (n = 1..200, both sides)")


def test_criterion_6_range_invariants():
    """Knowledge cells stay inside their open stage bounds on 1000 pipelines."""
    rng = np.random.default_rng(99)
    for trial in range(1000):
        records, predictions = [], []
        index = 1
        for c in range(NUM_EXPRESSIONS):
            for _ in range(2):
                records.append(
                    make_record(video_id=f"v{c}", frame_index=index,
                                intensities=rng.uniform(0.0, 5.0, 17))
                )
                scores = np.full(7, 0.01)
                scores[c] = 0.9
                predictions.append((f"v{c}", index, c, scores))
                index += 1
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        per_dataset = compute_dataset_knowledge(group_videos(records), reliable)
        assert np.all(per_dataset.values > 0.0)
        assert np.all(per_dataset.values < 1.0)
        copies = [per_dataset] * (1 + trial % 3)
        policy = "compat" if trial % 2 else "general"
        aggregate = aggregate_knowledge(copies, midpoint_policy=policy)
        assert np.all(aggregate.values > 0.0)
        assert np.all(aggregate.values < 1.0)
        scaled = scale_for_loss(aggregate)
        assert np.all(scaled.values > 0.0)
        assert np.all(scaled.values < 5.0)
    report("criterion 6 PASS range invariants (1000 randomized pipelines)")


def _benchmark_pair(structure_seed):
    """The baseline (lambda 0, unweighted) and the auxiliary (lambda 0.2,
    distinct pos-weights) run of one seed, trained together on shared data,
    each with its strategy's pos-weights; (UAR, minor-class recall) of each
    on the test split."""
    train_set = generate_dataset(
        SynthSpec(total=2000, seed=structure_seed, sample_seed=11)
    )
    test_set = generate_dataset(
        SynthSpec(total=2100, seed=structure_seed, sample_seed=22)
    )
    data = TrainData(
        features=train_set.features,
        expr_labels=train_set.expr_labels,
        au_labels=train_set.au_presence.astype(float),
        knowledge=train_set.knowledge,
        test_features=test_set.features,
        test_expr_labels=test_set.expr_labels,
    )
    configs = [
        TrainConfig(lam=0.0, strategy="none", seed=structure_seed),
        TrainConfig(lam=0.2, strategy="distinct", seed=structure_seed),
    ]
    _, _, logs = train(configs, data)
    results = []
    for run_logs in logs:
        result = run_logs[-1].test
        results.append(
            (result.uar, float(np.nanmean(result.per_class_recall[MINOR_INDICES])))
        )
    return results


def test_criterion_7_imbalance_effect():
    """Auxiliary AU supervision lifts mean UAR and minor-class recall."""
    start = time.perf_counter()
    gains, baseline_minor, weighted_minor = [], [], []
    for seed in range(5):
        (base_uar, base_minor), (aux_uar, aux_minor) = _benchmark_pair(seed)
        gains.append(aux_uar - base_uar)
        baseline_minor.append(base_minor)
        weighted_minor.append(aux_minor)
    elapsed = time.perf_counter() - start
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 0.02, gains
    assert float(np.mean(weighted_minor)) > float(np.mean(baseline_minor))
    assert elapsed < 300.0
    report(
        f"criterion 7 PASS imbalance effect (mean UAR gain {100 * mean_gain:+.2f} "
        f"points, minor recall {np.mean(baseline_minor):.3f} -> "
        f"{np.mean(weighted_minor):.3f}, {elapsed:.0f}s)"
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    """Same seed twice: bit-identical metrics files and checkpoints."""
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        data_dir = base / "data"
        assert cli_main(["synth-gen", "--n", "200", "--seed", "3",
                         "--out", str(data_dir)]) == EXIT_OK
        assert cli_main(["pos-weights", "--labels",
                         str(data_dir / "au_labels.csv"),
                         "--strategy", "distinct",
                         "--out", str(base / "pw")]) == EXIT_OK
        assert cli_main(["train", "--data", str(data_dir),
                         "--pos-weights-file", str(base / "pw/pos_weights.csv"),
                         "--epochs", "3", "--seed", "3",
                         "--out", str(base / "run")]) == EXIT_OK
        assert cli_main(["eval", "--checkpoint", str(base / "run/checkpoint.bin"),
                         "--data", str(data_dir),
                         "--out", str(base / "eval")]) == EXIT_OK
        outputs.append({
            "checkpoint": (base / "run/checkpoint.bin").read_bytes(),
            "epochs": (base / "run/epochs.csv").read_bytes(),
            "metrics": (base / "eval/metrics.csv").read_bytes(),
            "confusion": (base / "eval/confusion.csv").read_bytes(),
            "pos_weights": (base / "pw/pos_weights.csv").read_bytes(),
        })
    for key, blob in outputs[0].items():
        assert blob == outputs[1][key], key
    report("criterion 8 PASS pipeline determinism (bit-identical artifacts)")


def test_criterion_9_artifact_fidelity(tmp_path):
    """Sweep rows, strategy-table rows, and heatmap cell counts."""
    dataset = generate_dataset(SynthSpec(total=200, seed=0, sample_seed=1))
    data = TrainData(
        features=dataset.features,
        expr_labels=dataset.expr_labels,
        au_labels=dataset.au_presence.astype(float),
        knowledge=dataset.knowledge,
    )
    config = TrainConfig(epochs=1, seed=0)
    sweep_rows = study(config, data, "lam", DEFAULT_LAMBDA_GRID)
    assert len(sweep_rows) == 10
    assert [row["lambda"] for row in sweep_rows] == [
        round(0.1 * i, 1) for i in range(10)
    ]
    strategy_rows = study(config, data, "strategy", STRATEGIES)
    assert [row["strategy"] for row in strategy_rows] == list(STRATEGIES)
    for row in strategy_rows:
        assert row["per_class_recall"].shape == (NUM_EXPRESSIONS,)

    params, _, _ = train([config], data)
    result = evaluate(params.run(0), data.features, data.expr_labels)
    svg_path = tmp_path / "confusion.svg"
    write_confusion_svg(result, svg_path)
    text = svg_path.read_text()
    assert text.count('class="cell"') == 49
    assert text.count('class="axis-label"') == 14
    report(
        "criterion 9 PASS artifact fidelity "
        "(10 sweep rows, 4 strategy rows, 49 heatmap cells)"
    )
