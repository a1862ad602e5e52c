"""Training loop, WAR/UAR evaluation, and report-artifact tests."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from aukit.domain import ContractError, EXPRESSIONS, NUM_EXPRESSIONS, NumericFailure
from aukit.harness import (
    DEFAULT_LAMBDA_GRID,
    EvalReport,
    TrainConfig,
    TrainData,
    evaluate,
    evaluate_predictions,
    export_confusion,
    export_embeddings,
    lambda_sweep,
    predict,
    read_confusion_csv,
    report_from_confusion,
    strategy_compare,
    train,
    train_stacked,
    write_confusion_svg,
    write_metric_rows,
)
from aukit import harness
from aukit.labeling import STRATEGIES, compute_pos_weights
from aukit.model import ModelParams, OptimizerState
from aukit.synth import SynthSpec, generate_dataset


def brute_force_metrics(true_labels, predicted):
    """Per-sample counting, independent of any matrix bookkeeping."""
    recalls = []
    for c in range(NUM_EXPRESSIONS):
        hits = sum(1 for t, p in zip(true_labels, predicted) if t == c and p == c)
        total = sum(1 for t in true_labels if t == c)
        if total:
            recalls.append(hits / total)
    war = sum(1 for t, p in zip(true_labels, predicted) if t == p) / len(true_labels)
    return war, sum(recalls) / len(recalls)


def small_train_data(seed=0, total=300, **spec_overrides):
    spec = SynthSpec(total=total, seed=seed, sample_seed=1, **spec_overrides)
    ds = generate_dataset(spec)
    return TrainData(
        features=ds.features,
        expr_labels=ds.expr_labels,
        au_labels=ds.au_presence.astype(float),
        knowledge=ds.knowledge,
        pos_weights=compute_pos_weights(ds.au_presence, ds.expr_labels, "distinct"),
    )


class TestEvaluate:
    def test_embedded_two_class_example(self):
        # Confusion [[8, 2], [1, 9]] on classes 0 and 1: WAR = 17/20,
        # UAR = mean(0.8, 0.9) over the two populated classes.
        true_labels = [0] * 10 + [1] * 10
        predicted = [0] * 8 + [1] * 2 + [0] * 1 + [1] * 9
        report = evaluate_predictions(true_labels, predicted)
        assert report.war == pytest.approx(0.85, abs=1e-12)
        assert report.uar == pytest.approx(0.85, abs=1e-12)
        assert report.confusion[0, 0] == 8 and report.confusion[0, 1] == 2
        assert report.confusion[1, 0] == 1 and report.confusion[1, 1] == 9
        assert report.samples == 20
        assert np.isnan(report.per_class_recall[2:]).all()

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 120))
            true_labels = rng.integers(0, NUM_EXPRESSIONS, size=n)
            predicted = rng.integers(0, NUM_EXPRESSIONS, size=n)
            report = evaluate_predictions(true_labels, predicted)
            war, uar = brute_force_metrics(true_labels.tolist(), predicted.tolist())
            assert report.war == pytest.approx(war, abs=1e-12)
            assert report.uar == pytest.approx(uar, abs=1e-12)

    def test_permutation_invariance(self, rng):
        true_labels = rng.integers(0, NUM_EXPRESSIONS, size=80)
        predicted = rng.integers(0, NUM_EXPRESSIONS, size=80)
        base = evaluate_predictions(true_labels, predicted)
        order = rng.permutation(80)
        shuffled = evaluate_predictions(true_labels[order], predicted[order])
        assert np.array_equal(base.confusion, shuffled.confusion)
        assert base.war == shuffled.war and base.uar == shuffled.uar

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluate_predictions([], [])

    @pytest.mark.parametrize("true_labels, predicted", [
        ([0, 1, 2], [0, 7, 2]),
        ([0, 1, 2], [0, -1, 2]),
        ([0, 9, 2], [0, 1, 2]),
        ([0, 1, 2], [0, 1]),
    ])
    def test_malformed_labels_rejected(self, true_labels, predicted):
        with pytest.raises(ContractError):
            evaluate_predictions(true_labels, predicted)

    def test_report_from_confusion_is_evaluate_predictions_report(self, rng):
        true_labels = rng.integers(0, NUM_EXPRESSIONS - 1, size=90)  # no Fear
        predicted = rng.integers(0, NUM_EXPRESSIONS, size=90)
        report = evaluate_predictions(true_labels, predicted)
        again = report_from_confusion(report.confusion)
        assert np.array_equal(again.confusion, report.confusion)
        assert np.array_equal(again.per_class_recall, report.per_class_recall,
                              equal_nan=True)
        assert (again.war, again.uar, again.samples) == (
            report.war, report.uar, report.samples)

    @pytest.mark.parametrize("counts, message", [
        (np.where(np.eye(NUM_EXPRESSIONS, dtype=bool), -1, 3), ">= 0"),
        (np.zeros((NUM_EXPRESSIONS, NUM_EXPRESSIONS), dtype=np.int64), "empty"),
        # each cell fits in int64, their total does not
        (np.full((NUM_EXPRESSIONS, NUM_EXPRESSIONS), 2 ** 62), "int64"),
    ], ids=["negative", "all_zero", "total_beyond_int64"])
    def test_report_from_confusion_rejects_bad_counts(self, counts, message):
        with pytest.raises(ContractError, match=message):
            report_from_confusion(counts)

    def test_war_is_accuracy(self, rng):
        true_labels = rng.integers(0, NUM_EXPRESSIONS, size=200)
        predicted = rng.integers(0, NUM_EXPRESSIONS, size=200)
        report = evaluate_predictions(true_labels, predicted)
        assert report.war == pytest.approx(
            float(np.mean(true_labels == predicted)), abs=1e-12
        )


class TestTrain:
    def test_same_seed_identical_logs(self):
        data = small_train_data()
        config = TrainConfig(epochs=3, seed=7)
        _, _, logs_a = train(config, data)
        _, _, logs_b = train(config, data)
        for a, b in zip(logs_a, logs_b):
            assert a.loss_total == b.loss_total
            assert a.loss_expression == b.loss_expression
            assert a.loss_au == b.loss_au
            assert a.train_war == b.train_war

    def test_same_seed_identical_params(self):
        data = small_train_data()
        config = TrainConfig(epochs=3, seed=7)
        params_a, _, _ = train(config, data)
        params_b, _, _ = train(config, data)
        for key, value in params_a.views(params_a.vector).items():
            assert np.array_equal(value, params_b.views(params_b.vector)[key])

    def test_loss_decreases_on_separable_data(self):
        # Noiseless generation is linearly separable by class anchors + AUs.
        data = small_train_data(au_noise_sd=0.0, feature_noise_sd=0.0)
        config = TrainConfig(epochs=5, seed=0, lam=0.2)
        _, _, logs = train(config, data)
        totals = [entry.loss_total for entry in logs]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_epoch_log_combination_identity(self):
        data = small_train_data()
        lam = 0.3
        _, _, logs = train(TrainConfig(epochs=3, seed=1, lam=lam), data)
        for entry in logs:
            combined = (1.0 - lam) * entry.loss_expression + lam * entry.loss_au
            assert entry.loss_total == pytest.approx(combined, abs=1e-9)

    def test_lambda_zero_ignores_au_labels(self):
        data = small_train_data()
        flipped = TrainData(
            features=data.features,
            expr_labels=data.expr_labels,
            au_labels=1.0 - data.au_labels,
            knowledge=data.knowledge,
            pos_weights=data.pos_weights,
        )
        config = TrainConfig(epochs=2, seed=3, lam=0.0)
        params_a, _, _ = train(config, data)
        params_b, _, _ = train(config, flipped)
        for key, value in params_a.views(params_a.vector).items():
            assert np.array_equal(value, params_b.views(params_b.vector)[key])

    def test_trained_parameters_golden_hash(self):
        # sha256 of the float64 parameter vector (sorted-name order) after a
        # seeded run, its steps in float32; re-recorded when training moved
        # from float64 to float32 steps
        params, state, _ = train(
            TrainConfig(epochs=3, hidden=(8,), seed=7, lam=0.3),
            small_train_data(),
        )
        assert state.step == 15
        assert hashlib.sha256(params.vector.tobytes()).hexdigest() == (
            "a126ed39c3a5637fa8da74e3a67e19980ab8ff50b676b089b6d1aa27736bbbd9"
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_raises(self):
        data = small_train_data()
        data.features = data.features.copy()
        data.features[5, 0] = np.inf
        with pytest.raises(NumericFailure, match="non-finite loss at epoch 0"):
            train(TrainConfig(epochs=2, seed=0), data)

    def test_shape_mismatch_rejected(self):
        data = small_train_data()
        bad = TrainData(
            features=data.features,
            expr_labels=data.expr_labels[:-1],
            au_labels=data.au_labels,
            knowledge=data.knowledge,
        )
        with pytest.raises(ContractError):
            train(TrainConfig(epochs=1), bad)

    def test_empty_dataset_rejected(self):
        data = small_train_data()
        empty = TrainData(
            features=data.features[:0],
            expr_labels=data.expr_labels[:0],
            au_labels=data.au_labels[:0],
            knowledge=data.knowledge,
        )
        with pytest.raises(ContractError, match="empty"):
            train(TrainConfig(epochs=1), empty)

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(lam=1.5)
        with pytest.raises(ContractError):
            TrainConfig(strategy="bogus")
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)

    def test_predict_tie_breaks_low_index(self):
        data = small_train_data()
        params, _, _ = train(TrainConfig(epochs=1, seed=0), data)
        labels = predict(params, data.features)
        assert labels.min() >= 0 and labels.max() < NUM_EXPRESSIONS


def strategy_specs(strategies, seed=0, total=300):
    """Pos-weights of each strategy on the labels of small_train_data."""
    ds = generate_dataset(SynthSpec(total=total, seed=seed, sample_seed=1))
    return [compute_pos_weights(ds.au_presence, ds.expr_labels, s) for s in strategies]


class TestTrainStacked:
    def assert_equal_to_sequential(self, configs, data, pos_weights):
        runs = train_stacked(configs, data, pos_weights)
        assert len(runs) == len(configs)
        for config, spec, (params, state) in zip(configs, pos_weights, runs):
            alone, alone_state, _ = train(config, replace(data, pos_weights=spec))
            assert params.seed == alone.seed == config.seed
            assert params.vector.tobytes() == alone.vector.tobytes()
            assert state.step == alone_state.step
            assert state.m.tobytes() == alone_state.m.tobytes()
            assert state.v.tobytes() == alone_state.v.tobytes()

    def test_strategies_with_one_seed_match_sequential(self):
        strategies = ("none", "global", "minor")
        configs = [
            TrainConfig(epochs=4, seed=3, lam=0.3, strategy=s, hidden=(8,))
            for s in strategies
        ]
        self.assert_equal_to_sequential(
            configs, small_train_data(), strategy_specs(strategies)
        )

    def test_seeds_per_run_match_sequential(self):
        # different seeds give each run its own initialisation and its own
        # batch order; two hidden layers, and a last batch shorter than the rest
        data = small_train_data()
        configs = [
            TrainConfig(epochs=3, seed=seed, lam=0.2, hidden=(16, 8), batch_size=48)
            for seed in (3, 4, 5)
        ]
        self.assert_equal_to_sequential(configs, data, [data.pos_weights] * 3)

    def test_lambda_endpoints_match_sequential(self):
        data = small_train_data()
        configs = [TrainConfig(epochs=4, seed=2, lam=lam) for lam in (0.0, 1.0)]
        self.assert_equal_to_sequential(configs, data, [data.pos_weights] * 2)

    @pytest.mark.parametrize("field, value", [
        ("hidden", (16,)), ("epochs", 3), ("batch_size", 32),
    ])
    def test_runs_with_other_shapes_or_schedule_rejected(self, field, value):
        configs = [TrainConfig(epochs=2, seed=0), TrainConfig(epochs=2, seed=1)]
        configs[1] = replace(configs[1], **{field: value})
        with pytest.raises(ContractError, match=f"must share {field}"):
            train_stacked(configs, small_train_data())

    def test_empty_or_mismatched_runs_rejected(self):
        data = small_train_data()
        with pytest.raises(ContractError):
            train_stacked([], data)
        with pytest.raises(ContractError):
            train_stacked([TrainConfig(epochs=1)] * 2, data, [None])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_names_the_epoch(self):
        data = small_train_data()
        data.features = data.features.copy()
        data.features[5, 0] = np.inf
        configs = [TrainConfig(epochs=2, seed=seed) for seed in (0, 1)]
        with pytest.raises(NumericFailure, match="non-finite loss at epoch 0 in run"):
            train_stacked(configs, data)


class TestPosWeightResolution:
    """A run without an explicit pos-weight table gets its strategy's."""

    def test_strategy_fills_a_missing_table(self):
        # a missing table once trained unweighted, whatever the strategy
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=3, strategy="distinct", hidden=(8,))
        explicit, _, _ = train(config, data)
        resolved, _, _ = train(config, replace(data, pos_weights=None))
        unweighted, _, _ = train(replace(config, strategy="none"),
                                 replace(data, pos_weights=None))
        assert resolved.vector.tobytes() == explicit.vector.tobytes()
        assert resolved.vector.tobytes() != unweighted.vector.tobytes()

    def test_explicit_table_wins_over_the_strategy(self):
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=3, hidden=(8,))
        explicit, _, _ = train(replace(config, strategy="none"), data)
        resolved, _, _ = train(config, replace(data, pos_weights=None))
        assert explicit.vector.tobytes() == resolved.vector.tobytes()

    def test_stacked_runs_resolve_their_own_strategies(self):
        strategies = ("none", "global", "minor")
        configs = [TrainConfig(epochs=2, seed=3, lam=0.3, strategy=s, hidden=(8,))
                   for s in strategies]
        data = replace(small_train_data(), pos_weights=None)
        resolved = train_stacked(configs, data)
        explicit = train_stacked(configs, data, strategy_specs(strategies))
        for (params, _), (expected, _) in zip(resolved, explicit):
            assert params.vector.tobytes() == expected.vector.tobytes()


def step_arrays(value):
    """The arrays a training-step argument or result holds."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, ModelParams):
        return [value.vector]
    if isinstance(value, OptimizerState):
        return [a for a in (value.m, value.v) if a is not None]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in step_arrays(item)]
    values = getattr(value, "values", None)  # a KnowledgeMatrix or PosWeightSpec
    return [values] if isinstance(values, np.ndarray) else []


class TestTrainingPrecision:
    STEP_FUNCTIONS = ("forward", "expression_loss", "au_loss", "backward",
                      "optimizer_step")

    def test_every_step_array_is_float32(self, monkeypatch):
        seen = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                for array in step_arrays([args, list(kwargs.values()), result]):
                    if array.dtype.kind != "i":  # labels and batch indices
                        seen.setdefault(name, set()).add(array.dtype)
                return result
            return wrapper

        for name in self.STEP_FUNCTIONS:
            monkeypatch.setattr(harness, name, spy(name, getattr(harness, name)))
        # train_stacked evaluates nothing; test_train_evaluates_in_float32
        # covers the forward passes of evaluation
        configs = [TrainConfig(epochs=1, seed=seed, lam=0.3, hidden=(8,))
                   for seed in (0, 1)]
        train_stacked(configs, small_train_data())
        assert seen == {name: {np.dtype(np.float32)} for name in self.STEP_FUNCTIONS}

    def test_train_evaluates_in_float32(self, monkeypatch):
        # float64 features in, as a library caller passes them: every forward
        # pass, the per-epoch evaluations of both splits included, takes and
        # returns float32 arrays only
        calls = []
        forward = harness.forward

        def spy(params, features, **kwargs):
            result = forward(params, features, **kwargs)
            dtypes = {a.dtype for a in step_arrays([params, features, result])}
            calls.append((len(features), dtypes))
            return result

        monkeypatch.setattr(harness, "forward", spy)
        data = small_train_data()
        test = small_train_data(total=120)
        data.test_features, data.test_expr_labels = test.features, test.expr_labels
        train(TrainConfig(epochs=2, seed=0, hidden=(8,)), data)
        evaluated = sorted(rows for rows, _ in calls if rows in (300, 120))
        assert evaluated == [120, 120, 300, 300]  # each split after each epoch
        assert {dtype for _, dtypes in calls for dtype in dtypes} == {
            np.dtype(np.float32)
        }

    def test_train_returns_float64_holding_float32_values(self):
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=0, hidden=(8,))
        params, state, _ = train(config, data)
        ((stacked, stacked_state),) = train_stacked([config], data)
        for vector in (params.vector, state.m, state.v,
                       stacked.vector, stacked_state.m, stacked_state.v):
            assert vector.dtype == np.float64
            assert np.array_equal(vector, vector.astype(np.float32))

    def test_features_beyond_float32_rejected_without_warning(self):
        data = small_train_data()
        data.features = data.features.copy()
        data.features[7, 3] = 1e39
        with pytest.raises(NumericFailure, match="outside the float32 range"):
            train(TrainConfig(epochs=1, seed=0), data)


class TestSweepAndCompare:
    def test_sweep_one_row_per_grid_point(self):
        data = small_train_data(total=200)
        rows = lambda_sweep(TrainConfig(epochs=1, seed=0), data, grid=(0.0, 0.4, 0.8))
        assert [row["lambda"] for row in rows] == [0.0, 0.4, 0.8]
        for row in rows:
            assert 0.0 <= row["war"] <= 1.0
            assert row["per_class_recall"].shape == (NUM_EXPRESSIONS,)

    def test_default_grid(self):
        assert DEFAULT_LAMBDA_GRID == tuple(round(0.1 * i, 1) for i in range(10))

    def test_empty_grid_rejected(self):
        data = small_train_data(total=200)
        with pytest.raises(ContractError):
            lambda_sweep(TrainConfig(epochs=1), data, grid=())

    def test_compare_emits_all_strategies(self):
        spec = SynthSpec(total=200, seed=0, sample_seed=1)
        ds = generate_dataset(spec)
        data = TrainData(
            features=ds.features,
            expr_labels=ds.expr_labels,
            au_labels=ds.au_presence.astype(float),
            knowledge=ds.knowledge,
        )
        rows = strategy_compare(TrainConfig(epochs=1, seed=0), data)
        assert [row["strategy"] for row in rows] == list(STRATEGIES)

    def test_compare_rejects_unknown_strategy(self):
        data = small_train_data(total=200)
        with pytest.raises(ContractError):
            strategy_compare(TrainConfig(epochs=1), data, strategies=("bogus",))


class TestArtifacts:
    def make_report(self, rng):
        true_labels = rng.integers(0, NUM_EXPRESSIONS, size=150)
        predicted = rng.integers(0, NUM_EXPRESSIONS, size=150)
        return evaluate_predictions(true_labels, predicted)

    def test_metric_table_round_trip(self, tmp_path, rng):
        rows = [
            {
                "lambda": 0.2,
                "war": 0.5,
                "uar": 0.25,
                "per_class_recall": rng.random(NUM_EXPRESSIONS),
            }
        ]
        path = tmp_path / "sweep.csv"
        write_metric_rows(rows, path, key_column="lambda")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[:3] == ["lambda", "war", "uar"]
        assert len(lines) == 3

    def test_confusion_csv_round_trip(self, tmp_path, rng):
        report = self.make_report(rng)
        path = tmp_path / "confusion.csv"
        export_confusion(report, path)
        assert np.array_equal(read_confusion_csv(path), report.confusion)

    def test_svg_cell_and_label_counts(self, tmp_path, rng):
        report = self.make_report(rng)
        path = tmp_path / "confusion.svg"
        write_confusion_svg(report, path)
        text = path.read_text()
        assert text.count('class="cell"') == 49
        assert text.count('class="axis-label"') == 14

    def test_embeddings_export_shape(self, tmp_path):
        data = small_train_data(total=100)
        params, _, _ = train(TrainConfig(epochs=1, seed=0), data)
        path = tmp_path / "embeddings.csv"
        export_embeddings(params, data.features, data.expr_labels, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 100
        width = int(lines[0].split("width=")[1])
        first = lines[2].split(",")
        assert first[0] in EXPRESSIONS
        assert len(first) == 1 + width

    def test_embeddings_deterministic(self, tmp_path):
        data = small_train_data(total=60)
        params, _, _ = train(TrainConfig(epochs=1, seed=0), data)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        export_embeddings(params, data.features, data.expr_labels, path_a)
        export_embeddings(params, data.features, data.expr_labels, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
