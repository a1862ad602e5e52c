"""Training loop, WAR/UAR evaluation, and report-artifact tests."""

import hashlib
import re
import threading
from dataclasses import FrozenInstanceError, replace

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
    predict,
    read_confusion_csv,
    report_from_confusion,
    study,
    train,
    write_confusion_svg,
    write_metric_rows,
)
from aukit import harness, losses
from aukit.cli import main as cli_main
from aukit.labeling import STRATEGIES, compute_pos_weights
from aukit.losses import au_loss
from aukit.model import (
    TRAIN_DTYPE,
    ModelParams,
    OptimizerState,
    init_params,
    load_checkpoint,
    load_features,
    save_checkpoint,
    save_features,
)
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


def assert_logs_equal(got, expected):
    """Two EpochLogs agree field for field, their reports included."""
    assert (got.epoch, got.loss_expression, got.loss_au, got.loss_total) == (
        expected.epoch, expected.loss_expression, expected.loss_au,
        expected.loss_total)
    for split in ("train", "test"):
        a, b = getattr(got, split), getattr(expected, split)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.confusion, b.confusion)
            assert np.array_equal(a.per_class_recall, b.per_class_recall,
                                  equal_nan=True)
            assert (a.war, a.uar, a.confusion.sum()) == (
                b.war, b.uar, b.confusion.sum())


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


def split_pair_data():
    """small_train_data with a 120-sample test split."""
    test = small_train_data(total=120)
    return replace(small_train_data(), test_features=test.features,
                   test_expr_labels=test.expr_labels)


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
        assert report.confusion.sum() == 20
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
        assert (again.war, again.uar, again.confusion.sum()) == (
            report.war, report.uar, report.confusion.sum())

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


# optimizer steps per epoch of small_train_data's 300 samples in batches of 64
BATCHES = 5

# the unchecked functions each training step calls, at their harness names
STEP_KERNELS = ("forward_kernel", "expression_loss_kernel", "au_loss_kernel",
                "backward_kernel", "optimizer_step")


class TestTrain:
    def test_same_seed_identical_logs(self):
        data = small_train_data()
        config = TrainConfig(epochs=3, seed=7)
        _, _, (logs_a,) = train([config], data, every_epoch=True)
        _, _, (logs_b,) = train([config], data, every_epoch=True)
        for a, b in zip(logs_a, logs_b):
            assert a.loss_total == b.loss_total
            assert a.loss_expression == b.loss_expression
            assert a.loss_au == b.loss_au
            assert a.train.war == b.train.war

    def test_same_seed_identical_params(self):
        data = small_train_data()
        config = TrainConfig(epochs=3, seed=7)
        params_a, _, _ = train([config], data)
        params_b, _, _ = train([config], data)
        for key, value in params_a.views(params_a.vector).items():
            assert np.array_equal(value, params_b.views(params_b.vector)[key])

    def test_loss_decreases_on_separable_data(self):
        # Noiseless generation is linearly separable by class anchors + AUs.
        data = small_train_data(au_noise_sd=0.0, feature_noise_sd=0.0)
        config = TrainConfig(epochs=5, seed=0, lam=0.2)
        _, _, (logs,) = train([config], data, every_epoch=True)
        totals = [entry.loss_total for entry in logs]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_epoch_log_combination_identity(self):
        data = small_train_data()
        lam = 0.3
        _, _, (logs,) = train([TrainConfig(epochs=3, seed=1, lam=lam)], data,
                              every_epoch=True)
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
        params_a, _, _ = train([config], data)
        params_b, _, _ = train([config], flipped)
        for key, value in params_a.views(params_a.vector).items():
            assert np.array_equal(value, params_b.views(params_b.vector)[key])

    def test_trained_parameters_golden_hash(self):
        # sha256 of the float64-cast parameter vector (sorted-name order) after a
        # seeded run, its steps in float32; re-recorded when training moved
        # from float64 to float32 steps, when the parameter layout became
        # fan-in-major with one fused head (new byte order, and the fused
        # head product differs in the last bits), and when AdamW folded its
        # bias corrections into two scalars (the update differs in the last
        # bits; tests/test_reference_training.py measures the drift)
        params, state, _ = train(
            [TrainConfig(epochs=3, hidden=(8,), seed=7, lam=0.3)],
            small_train_data(),
        )
        assert state.step == 15
        vector = params.vector.astype(np.float64)
        assert hashlib.sha256(vector.tobytes()).hexdigest() == (
            "c6bbe70c313565d016da7d7eca115d4553e3d45e98b2359ba35b392bc1a9c1e3"
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_raises(self):
        data = small_train_data()
        features = data.features.copy()
        features[5, 0] = np.inf
        data = replace(data, features=features)
        with pytest.raises(NumericFailure, match="non-finite loss at epoch 0"):
            train([TrainConfig(epochs=2, seed=0)], data)

    def test_shape_mismatch_rejected(self):
        data = small_train_data()
        with pytest.raises(ContractError):
            TrainData(
                features=data.features,
                expr_labels=data.expr_labels[:-1],
                au_labels=data.au_labels,
                knowledge=data.knowledge,
            )

    @pytest.mark.parametrize("cut", ["features", "labels", "rows", "no_features"])
    def test_test_split_checked_before_training(self, cut):
        # a test split of another width or length, or with no rows, once
        # failed only in the evaluation after the last epoch, every epoch
        # trained for nothing, and labels without features were ignored;
        # now no such TrainData constructs
        test = small_train_data(total=120)
        split = {"test_features": test.features, "test_expr_labels": test.expr_labels}
        if cut == "features":
            split["test_features"] = test.features[:, :-1]
        elif cut == "labels":
            split["test_expr_labels"] = test.expr_labels[:-1]
        elif cut == "rows":
            split = {name: value[:0] for name, value in split.items()}
        else:
            del split["test_features"]
        with pytest.raises(ContractError, match="test split"):
            replace(small_train_data(), **split)

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("label", [-1, NUM_EXPRESSIONS])
    def test_label_out_of_range_rejected_before_training(self, split, label):
        # a bad test label once surfaced only when the split was scored,
        # after every step of the epoch had run; now no such TrainData
        # constructs
        data = split_pair_data()
        field = "expr_labels" if split == "train" else "test_expr_labels"
        labels = getattr(data, field).copy()
        labels[-1] = label
        with pytest.raises(ContractError, match="expression label out of range"):
            replace(data, **{field: labels})

    @pytest.mark.parametrize("caller", ["au_loss", "train"])
    def test_raw_knowledge_array_rejected(self, caller, monkeypatch):
        # a bare 18 x 7 table skips the loss-scaled stage check: au_loss
        # weighted by it unscaled, and train escaped with an AttributeError;
        # now the TrainData holding one is rejected when it is built
        data = small_train_data()
        raw = np.full((18, 7), 0.5)
        steps = []
        monkeypatch.setattr(harness, "optimizer_step",
                            lambda *args: steps.append(1) or args[::2])
        message = "^au_loss expects a loss-scaled knowledge matrix, got 'ndarray'$"
        with pytest.raises(ContractError, match=message):
            if caller == "au_loss":
                au_loss(np.zeros((3, 18)), np.zeros((3, 18)), [0, 3, 6],
                        raw, data.pos_weights)
            else:
                train([TrainConfig(epochs=1, seed=0)], replace(data, knowledge=raw))
        assert steps == []

    def test_empty_dataset_rejected(self):
        data = small_train_data()
        with pytest.raises(ContractError, match="empty"):
            TrainData(
                features=data.features[:0],
                expr_labels=data.expr_labels[:0],
                au_labels=data.au_labels[:0],
                knowledge=data.knowledge,
            )

    def test_config_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(lam=1.5)
        with pytest.raises(ContractError):
            TrainConfig(strategy="bogus")
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)

    def test_steps_write_into_one_gradient_buffer(self, monkeypatch):
        buffers = []
        backward_kernel = harness.backward_kernel

        def spy(params, d_head, activations, grads, ones):
            buffers.append(grads["head.w"].base)  # the flat gradient vector
            return backward_kernel(params, d_head, activations, grads, ones)

        monkeypatch.setattr(harness, "backward_kernel", spy)
        train([TrainConfig(epochs=2, seed=seed, hidden=(8,)) for seed in (0, 1)],
              small_train_data())
        assert len(buffers) == 2 * BATCHES
        assert all(out is buffers[0] for out in buffers)

    def test_train_and_gradcheck_call_the_one_step(self, monkeypatch, capsys):
        # the step finite differences check is the step training runs
        calls = []
        step_call = harness.Step.__call__

        def spy(step, params, features, *args):
            calls.append((features.dtype, features.shape[:2]))
            return step_call(step, params, features, *args)

        monkeypatch.setattr(harness.Step, "__call__", spy)
        train([TrainConfig(epochs=1, seed=seed, hidden=(8,)) for seed in (0, 1)],
              small_train_data())
        assert len(calls) == BATCHES
        assert calls[0] == (TRAIN_DTYPE, (2, 64))
        calls.clear()
        assert cli_main(["gradcheck", "--batch", "3"]) == 0
        capsys.readouterr()
        # the losses and the analytic gradient once each, then a pair of
        # differences per parameter
        assert len(calls) == 2 + 2 * 3 * 143
        assert set(calls) == {(np.dtype(np.float64), (3, 3))}

    def test_each_kernel_runs_once_per_step(self, monkeypatch):
        # train checks its data once per stack: every step calls each kernel
        # once for all runs, and the evaluation forwards (public forward) none
        calls = dict.fromkeys(STEP_KERNELS, 0)

        def counted(name, kernel):
            def spy(*args):
                calls[name] += 1
                return kernel(*args)
            return spy

        for name in STEP_KERNELS:
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        train([TrainConfig(epochs=3, seed=seed, hidden=(8,)) for seed in (0, 1, 2)],
              split_pair_data(), every_epoch=True)
        assert calls == dict.fromkeys(STEP_KERNELS, 3 * BATCHES)

    def test_loss_values_only_in_scored_epochs(self, monkeypatch):
        # a study scores only its last epoch, and every step once computed
        # both loss values; the AU value's log_sigmoid, which no gradient
        # uses, now runs once per step of a scored epoch, for the whole stack
        calls = []
        log_sigmoid = losses.log_sigmoid

        def spy(x):
            calls.append(x.shape[0])
            return log_sigmoid(x)

        monkeypatch.setattr(losses, "log_sigmoid", spy)
        data = small_train_data()
        configs = [TrainConfig(epochs=3, seed=seed, hidden=(8,)) for seed in (0, 1)]
        for scored, run in ((1, lambda: train(configs, data)),
                            (3, lambda: train(configs, data, every_epoch=True)),
                            (1, lambda: study(configs[0], data, "lam", (0.0, 0.5)))):
            calls.clear()
            run()
            assert calls == [2] * (scored * BATCHES)

    def test_au_label_width_checked_before_training(self):
        # the kernels check nothing: N x 17 AU labels once reached au_loss's
        # own check, and would now fail inside its arithmetic; now no such
        # TrainData constructs
        data = small_train_data()
        with pytest.raises(ContractError, match="data shapes inconsistent"):
            replace(data, au_labels=data.au_labels[:, :-1])

    def test_predict_tie_breaks_low_index(self):
        data = small_train_data()
        params, _, _ = train([TrainConfig(epochs=1, seed=0)], data)
        labels = predict(params.run(0), data.features)
        assert labels.min() >= 0 and labels.max() < NUM_EXPRESSIONS


class TestValidatedValuesStayValid:
    """A TrainConfig or TrainData is checked once, when it is built, and
    cannot be changed after; dataclasses.replace builds a checked copy."""

    @pytest.mark.parametrize("field, value", [
        ("lam", 7), ("epochs", 0), ("learning_rate", float("nan")),
    ])
    def test_config_fields_cannot_be_set_after_the_check(self, field, value):
        # set on a mutable config, lam = 7 trained every step before scoring
        # raised, epochs = 0 escaped train as an UnboundLocalError and a nan
        # learning_rate failed as "runs trained together must share
        # learning_rate"
        config = TrainConfig(epochs=1)
        with pytest.raises(FrozenInstanceError):
            setattr(config, field, value)
        with pytest.raises(ContractError):
            replace(config, **{field: value})

    @pytest.mark.parametrize("field, value, name", [
        ("epochs", 2.5, "epochs"), ("batch_size", 16.5, "batch_size"),
        ("seed", 1.5, "seed"), ("epochs", True, "epochs"),
        ("hidden", (8, 4.7), "hidden[1]"), ("seed", np.float64(2.0), "seed"),
    ])
    def test_integer_fields_reject_floats_and_bools(self, field, value, name):
        # epochs, batch_size and seed as floats once escaped train as a
        # TypeError, hidden=(4.7,) trained a 4-unit layer and epochs=True trained
        with pytest.raises(ContractError,
                           match=rf"^{re.escape(name)} must be an integer, got "):
            TrainConfig(**{field: value})

    def test_integer_fields_take_numpy_integers(self):
        config = TrainConfig(epochs=np.int64(2), seed=np.int32(1), hidden=[np.int64(8)])
        assert config.hidden == (8,) and isinstance(config.hidden, tuple)

    def test_numpy_integer_config_checkpoint_saves_and_loads(self, tmp_path):
        # numpy seed and hidden sizes reached the checkpoint's JSON header:
        # TypeError: Object of type int64 is not JSON serializable
        config = TrainConfig(epochs=1, hidden=[np.int64(8)], seed=np.int64(3))
        assert type(config.seed) is int and type(config.hidden[0]) is int
        params, _, _ = train([config], small_train_data())
        save_checkpoint(params.run(0), tmp_path / "checkpoint.bin")
        loaded = load_checkpoint(tmp_path / "checkpoint.bin")
        assert (loaded.seed, loaded.hidden) == (3, (8,))
        assert np.array_equal(loaded.vector, params.run(0).vector)

    @pytest.mark.parametrize("strategy", [None, "distinct"])
    def test_non_binary_au_labels_rejected_with_or_without_a_table(self, strategy):
        # with an explicit pos-weight table, AU labels x2 used to train
        # (loss_au 30.34); without one they failed in compute_pos_weights
        data = small_train_data()
        pos_weights = strategy and compute_pos_weights(data.au_labels, data.expr_labels,
                                                       strategy)
        with pytest.raises(ContractError, match=r"^AU labels must be 0 or 1, got 2\.0$"):
            replace(data, au_labels=2 * data.au_labels, pos_weights=pos_weights)

    @pytest.mark.parametrize("pos_weights, kind", [
        (np.ones((NUM_EXPRESSIONS, 18)), "ndarray"), ("distinct", "str"),
    ])
    def test_pos_weights_other_than_a_spec_rejected(self, pos_weights, kind, monkeypatch):
        # a bare 7 x 18 table or a strategy name constructed, and then
        # escaped train as AttributeError: no attribute 'values'
        steps = []
        monkeypatch.setattr(harness, "optimizer_step",
                            lambda *args: steps.append(1) or args[::2])
        message = rf"^au_loss expects pos-weights as a PosWeightSpec, got '{kind}'$"
        with pytest.raises(ContractError, match=message):
            train([TrainConfig(epochs=1, seed=0)],
                  replace(small_train_data(), pos_weights=pos_weights))
        assert steps == []

    @pytest.mark.parametrize("field, value", [
        ("lam", "0.5"), ("lam", True), ("lam", None), ("learning_rate", None),
        ("learning_rate", "1e-3"), ("weight_decay", False),
    ])
    def test_float_fields_reject_non_numbers(self, field, value):
        # a str or None escaped as a TypeError from the range check, and a
        # bool trained as 0 or 1
        message = rf"^{field} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ContractError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("hidden", [5, "32", None])
    def test_hidden_must_be_a_list(self, hidden):
        # hidden=5 escaped as "TypeError: 'int' object is not iterable", and
        # "32" named its first character
        message = rf"^hidden must be a list of integers, got {re.escape(repr(hidden))}$"
        with pytest.raises(ContractError, match=message):
            TrainConfig(hidden=hidden)

    def test_float_fields_take_ints_and_numpy_floats(self):
        config = TrainConfig(lam=1, learning_rate=np.float32(0.01), weight_decay=0)
        assert (config.lam, config.weight_decay) == (1, 0)

    def test_train_data_fields_cannot_be_set(self):
        data = small_train_data()
        with pytest.raises(FrozenInstanceError):
            data.expr_labels = data.expr_labels[:-1]
        with pytest.raises(FrozenInstanceError):
            data.test_features = data.features[:, :-1]

    def test_float32_features_are_held_without_a_copy(self, tmp_path):
        # feature files hold float32, so a dataset directory's features
        # (and a test split's) need no cast; a copy of wide's two splits
        # would add about 17 MB to its peak memory
        test = small_train_data(total=120)
        save_features(test.features, tmp_path / "features.bin")
        features = load_features(tmp_path / "features.bin")
        assert features.dtype == TRAIN_DTYPE
        data = TrainData(features=features, expr_labels=test.expr_labels,
                         au_labels=test.au_labels, knowledge=test.knowledge,
                         test_features=features, test_expr_labels=test.expr_labels)
        assert np.shares_memory(data.features, features)
        assert np.shares_memory(data.test_features, features)

    def test_float64_features_are_cast_once(self, monkeypatch):
        # each split is cast when the TrainData is built; training and
        # scoring it every epoch cast neither again
        casts = []
        cast_features = harness.cast_features

        def spy(features, dtype):
            if np.asarray(features).dtype != dtype:
                casts.append(len(features))
            return cast_features(features, dtype)

        monkeypatch.setattr(harness, "cast_features", spy)
        data = split_pair_data()
        assert sorted(casts) == [120, 300]
        assert data.features.dtype == data.test_features.dtype == TRAIN_DTYPE
        train([TrainConfig(epochs=2, seed=0, hidden=(8,))], data, every_epoch=True)
        assert sorted(casts) == [120, 300]


def strategy_specs(strategies, seed=0, total=300):
    """Pos-weights of each strategy on the labels of small_train_data."""
    ds = generate_dataset(SynthSpec(total=total, seed=seed, sample_seed=1))
    return [compute_pos_weights(ds.au_presence, ds.expr_labels, s) for s in strategies]


class TestTrainStacked:
    def assert_equal_to_sequential(self, configs, data, pos_weights):
        stack, stack_state, logs = train(configs, data)
        assert len(logs) == len(configs)
        for r, (config, spec) in enumerate(zip(configs, pos_weights)):
            params = stack.run(r)
            alone, alone_state, _ = train([config], replace(data, pos_weights=spec))
            assert params.seed == alone.run(0).seed == config.seed
            assert params.vector.tobytes() == alone.run(0).vector.tobytes()
            assert stack_state.step == alone_state.step
            assert stack_state.m[r].tobytes() == alone_state.m[0].tobytes()
            assert stack_state.v[r].tobytes() == alone_state.v[0].tobytes()

    def test_strategies_with_one_seed_match_sequential(self):
        strategies = ("none", "global", "minor")
        configs = [
            TrainConfig(epochs=4, seed=3, lam=0.3, strategy=s, hidden=(8,))
            for s in strategies
        ]
        # each run of the stack resolves its own strategy's table
        self.assert_equal_to_sequential(
            configs, replace(small_train_data(), pos_weights=None),
            strategy_specs(strategies),
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
            train(configs, small_train_data())

    def test_no_runs_rejected(self):
        with pytest.raises(ContractError, match="no runs"):
            train([], small_train_data())

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_names_the_epoch(self):
        data = small_train_data()
        features = data.features.copy()
        features[5, 0] = np.inf
        data = replace(data, features=features)
        configs = [TrainConfig(epochs=2, seed=seed) for seed in (0, 1)]
        with pytest.raises(NumericFailure, match="non-finite loss at epoch 0 in run"):
            train(configs, data)

    def test_failure_in_one_run_names_no_run(self):
        # "in run 0" once named the only run of a one-run train, where the
        # non-finite-loss message names none
        data = small_train_data()
        data = replace(data, features=data.features * 1e22)
        with pytest.raises(NumericFailure, match=r"^non-finite second moment "
                           r"\(gradient too large\) for head\.w$"):
            train([TrainConfig(epochs=2)], data)

    def test_last_epoch_log_equals_every_epoch_last_log(self):
        # every_epoch=False evaluates once, after the last epoch, exactly as
        # every_epoch=True does then
        data = split_pair_data()
        configs = [TrainConfig(epochs=3, seed=seed, lam=0.3, hidden=(8,))
                   for seed in (0, 1)]
        _, _, last = train(configs, data)
        _, _, every = train(configs, data, every_epoch=True)
        assert [len(logs) for logs in last] == [1, 1]
        assert [len(logs) for logs in every] == [3, 3]
        for (got,), logs in zip(last, every):
            assert got.epoch == 2 and got.test is not None
            assert_logs_equal(got, logs[-1])

    def test_no_test_split_logs_none(self):
        _, _, ((log,),) = train([TrainConfig(epochs=1, seed=0)], small_train_data())
        assert log.test is None and log.train.confusion.sum() == 300


def spy_evaluate(monkeypatch, before=None):
    """Record the thread of every harness.evaluate call; `before(call)`, with
    the call's 1-based number, runs first, on that thread."""
    threads = []
    evaluate = harness.evaluate

    def spy(*args):
        threads.append(threading.current_thread())
        if before is not None:
            before(len(threads))
        return evaluate(*args)

    monkeypatch.setattr(harness, "evaluate", spy)
    return threads


class TestEpochScores:
    """Each epoch's logs score that epoch's parameters, wherever they run."""

    def test_each_epoch_log_equals_a_run_stopped_there(self, monkeypatch):
        # the worker scores epoch e while epoch e + 1 updates the parameters
        # in place; each of its evaluations waits for a step of epoch e + 1,
        # so scoring the live vector instead of a copy would read it
        data = split_pair_data()
        configs = [TrainConfig(epochs=3, seed=seed, lam=0.3, hidden=(8,))
                   for seed in (0, 1)]
        stepped = threading.Condition()
        steps = []
        step = harness.optimizer_step

        def counting_step(*args):
            result = step(*args)
            with stepped:
                steps.append(1)
                stepped.notify_all()
            return result

        def after_next_epoch_steps(call):
            epoch = (call - 1) // 4  # 2 runs x 2 splits per epoch
            if threading.current_thread() is not threading.main_thread():
                with stepped:
                    assert stepped.wait_for(
                        lambda: len(steps) > (epoch + 1) * BATCHES, timeout=10)

        monkeypatch.setattr(harness, "optimizer_step", counting_step)
        spy_evaluate(monkeypatch, before=after_next_epoch_steps)
        _, _, every = train(configs, data, every_epoch=True)
        monkeypatch.undo()
        assert [len(logs) for logs in every] == [3, 3]
        for e in range(3):
            _, _, stopped = train([replace(c, epochs=e + 1) for c in configs], data)
            for r in range(2):
                assert every[r][e].epoch == e
                assert_logs_equal(every[r][e], stopped[r][-1])


class TestScoringThread:
    """Every epoch but the last is scored on one worker thread, which only
    `every_epoch` over two or more epochs starts and `train` always joins."""

    @pytest.mark.parametrize("epochs, every_epoch", [(3, False), (1, True)])
    def test_last_epoch_only_scores_on_the_calling_thread(self, epochs, every_epoch,
                                                          monkeypatch):
        threads = spy_evaluate(monkeypatch)
        count = threading.active_count()
        configs = [TrainConfig(epochs=epochs, seed=seed, hidden=(8,))
                   for seed in (0, 1)]
        train(configs, split_pair_data(), every_epoch=every_epoch)
        assert len(threads) == 4  # 2 runs x 2 splits, once
        assert set(threads) == {threading.main_thread()}
        assert threading.active_count() == count

    def test_earlier_epochs_score_on_one_worker(self, monkeypatch):
        threads = spy_evaluate(monkeypatch)
        count = threading.active_count()
        train([TrainConfig(epochs=3, seed=0, hidden=(8,))], split_pair_data(),
              every_epoch=True)
        assert len(threads) == 6  # 2 splits after each of 3 epochs
        worker = threads[0]
        assert worker is not threading.main_thread()
        assert threads[:4] == [worker] * 4
        assert threads[4:] == [threading.main_thread()] * 2
        assert threading.active_count() == count

    def test_numeric_failure_while_scoring_propagates(self, monkeypatch):
        # epoch 1 fails at its last step while epoch 0's scoring waits for it
        error = NumericFailure("non-finite gradient for head.w")
        failed = threading.Event()
        step = harness.optimizer_step
        steps = []

        def failing_step(*args):
            steps.append(1)
            if len(steps) == 2 * BATCHES:
                failed.set()
                raise error
            return step(*args)

        spy_evaluate(monkeypatch, before=lambda call: failed.wait(timeout=10))
        monkeypatch.setattr(harness, "optimizer_step", failing_step)
        count = threading.active_count()
        with pytest.raises(NumericFailure) as raised:
            train([TrainConfig(epochs=3, seed=0, hidden=(8,))], split_pair_data(),
                  every_epoch=True)
        assert raised.value is error
        assert failed.is_set() and len(steps) == 2 * BATCHES
        assert threading.active_count() == count

    def test_scoring_error_propagates(self, monkeypatch):
        error = RuntimeError("scoring failed")

        def fail_first(call):
            if call == 1:
                raise error

        spy_evaluate(monkeypatch, before=fail_first)
        count = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            train([TrainConfig(epochs=3, seed=0, hidden=(8,))], split_pair_data(),
                  every_epoch=True)
        assert raised.value is error
        assert threading.active_count() == count


class TestPosWeightResolution:
    """A run without an explicit pos-weight table gets its strategy's."""

    def test_strategy_fills_a_missing_table(self):
        # a missing table once trained unweighted, whatever the strategy
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=3, strategy="distinct", hidden=(8,))
        explicit, _, _ = train([config], data)
        resolved, _, _ = train([config], replace(data, pos_weights=None))
        unweighted, _, _ = train([replace(config, strategy="none")],
                                 replace(data, pos_weights=None))
        assert resolved.vector.tobytes() == explicit.vector.tobytes()
        assert resolved.vector.tobytes() != unweighted.vector.tobytes()

    def test_explicit_table_wins_over_the_strategy(self):
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=3, hidden=(8,))
        explicit, _, _ = train([replace(config, strategy="none")], data)
        resolved, _, _ = train([config], replace(data, pos_weights=None))
        assert explicit.vector.tobytes() == resolved.vector.tobytes()

    def test_explicit_table_serves_every_run(self):
        data = small_train_data()
        configs = [TrainConfig(epochs=2, seed=3, strategy=s, hidden=(8,))
                   for s in ("none", "minor")]
        stack, _, _ = train(configs, data)
        alone, _, _ = train(configs[:1], data)
        assert stack.run(1).vector.tobytes() == alone.run(0).vector.tobytes()


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
    STEP_FUNCTIONS = ("forward", *STEP_KERNELS)

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
        # the forward passes of the evaluation after the last epoch included
        configs = [TrainConfig(epochs=1, seed=seed, lam=0.3, hidden=(8,))
                   for seed in (0, 1)]
        train(configs, small_train_data())
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
        train([TrainConfig(epochs=2, seed=0, hidden=(8,))], split_pair_data(),
              every_epoch=True)
        evaluated = sorted(rows for rows, _ in calls if rows in (300, 120))
        assert evaluated == [120, 120, 300, 300]  # each split after each epoch
        assert {dtype for _, dtypes in calls for dtype in dtypes} == {
            np.dtype(np.float32)
        }

    def test_train_returns_train_dtype(self):
        data = small_train_data()
        config = TrainConfig(epochs=2, seed=0, hidden=(8,))
        params, state, _ = train([config], data)
        stacked, stacked_state, _ = train([config, replace(config, seed=1)], data)
        for vector in (params.vector, state.m, state.v,
                       stacked.vector, stacked_state.m, stacked_state.v):
            assert vector.dtype == TRAIN_DTYPE

    def test_features_beyond_float32_rejected_without_warning(self, tmp_path):
        # wherever float64 features are cast: TrainData and the scoring calls
        data = small_train_data()
        features = data.features.astype(np.float64)
        features[7, 3] = 1e39
        params = init_params(0, feature_dim=features.shape[1], hidden=(8,))
        labels = data.expr_labels
        for cast in (lambda: replace(data, features=features),
                     lambda: predict(params, features),
                     lambda: evaluate(params, features, labels),
                     lambda: export_embeddings(params, features, labels, tmp_path / "e.csv")):
            with pytest.raises(NumericFailure, match="outside the float32 range"):
                cast()


def strategy_study_data():
    """Training data without an explicit pos-weight table."""
    return replace(small_train_data(total=200), pos_weights=None)


class TestStudy:
    @pytest.mark.parametrize("field, column, values", [
        ("lam", "lambda", (0.0, 0.4, 0.8)),
        ("strategy", "strategy", STRATEGIES),
    ])
    def test_one_row_per_value(self, field, column, values):
        data = strategy_study_data() if field == "strategy" else small_train_data(
            total=200)
        rows = study(TrainConfig(epochs=1, seed=0), data, field, values)
        assert [row[column] for row in rows] == list(values)
        for row in rows:
            assert 0.0 <= row["war"] <= 1.0
            assert row["per_class_recall"].shape == (NUM_EXPRESSIONS,)

    def test_default_grid(self):
        assert DEFAULT_LAMBDA_GRID == tuple(round(0.1 * i, 1) for i in range(10))

    @pytest.mark.parametrize("field, message", [
        ("lam", "lambda grid must be nonempty"),
        ("strategy", "strategy list must be nonempty"),
    ])
    def test_empty_list_rejected(self, field, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            study(TrainConfig(epochs=1), strategy_study_data(), field, ())

    @pytest.mark.parametrize("field, values, message", [
        ("lam", [0.2, 0.4, 0.2, 0.4], "lambda grid repeats 0.2"),
        ("strategy", ["none", "global", "none"], "strategy list repeats none"),
    ], ids=["lam", "strategy"])
    def test_repeated_value_rejected_before_training(self, field, values, message,
                                                     monkeypatch):
        # a repeated value once trained the same run twice and wrote two
        # identical rows under one key
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ContractError, match=f"^{message}$"):
            study(TrainConfig(epochs=1), strategy_study_data(), field, values)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractError, match="unknown strategy: 'bogus'"):
            study(TrainConfig(epochs=1), strategy_study_data(), "strategy",
                  ("none", "bogus"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ContractError, match="cannot study 'seed'"):
            study(TrainConfig(epochs=1), strategy_study_data(), "seed", (0, 1))

    def test_strategy_study_rejects_an_explicit_table(self):
        # each strategy's own table is compared; one given table would
        # silently replace them all
        with pytest.raises(ContractError, match="explicit table"):
            study(TrainConfig(epochs=1), small_train_data(total=200), "strategy",
                  STRATEGIES)

    @pytest.mark.parametrize("field, value", [("lam", 0.2), ("strategy", "global")])
    def test_rows_score_the_test_split_when_there_is_one(self, field, value):
        test = small_train_data(seed=1, total=120)
        data = replace(strategy_study_data(), test_features=test.features,
                       test_expr_labels=test.expr_labels)
        config = TrainConfig(epochs=1, seed=0, hidden=(8,))
        (row,) = study(config, data, field, (value,))
        params, _, _ = train([replace(config, **{field: value})], data)
        report = evaluate(params.run(0), test.features, test.expr_labels)
        assert (row["war"], row["uar"]) == (report.war, report.uar)


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
        export_confusion(report, tmp_path)
        assert np.array_equal(read_confusion_csv(tmp_path / "confusion.csv"),
                              report.confusion)
        assert (tmp_path / "confusion.svg").read_text().count('class="cell"') == 49

    def test_svg_cell_and_label_counts(self, tmp_path, rng):
        report = self.make_report(rng)
        path = tmp_path / "confusion.svg"
        write_confusion_svg(report, path)
        text = path.read_text()
        assert text.count('class="cell"') == 49
        assert text.count('class="axis-label"') == 14

    def test_embeddings_export_shape(self, tmp_path):
        data = small_train_data(total=100)
        params, _, _ = train([TrainConfig(epochs=1, seed=0)], data)
        path = tmp_path / "embeddings.csv"
        export_embeddings(params.run(0), data.features, data.expr_labels, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 100
        width = int(lines[0].split("width=")[1])
        first = lines[2].split(",")
        assert first[0] in EXPRESSIONS
        assert len(first) == 1 + width

    def test_embeddings_need_one_label_per_feature_row(self, tmp_path):
        # zip once wrote the 10 labelled rows of 100 without an error
        data = small_train_data(total=100)
        params, _, _ = train([TrainConfig(epochs=1, seed=0)], data)
        path = tmp_path / "embeddings.csv"
        with pytest.raises(ContractError, match="^10 labels for 100 feature rows$"):
            export_embeddings(params.run(0), data.features, data.expr_labels[:10],
                              path)
        assert not path.exists()

    def test_embeddings_deterministic(self, tmp_path):
        data = small_train_data(total=60)
        params, _, _ = train([TrainConfig(epochs=1, seed=0)], data)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        export_embeddings(params.run(0), data.features, data.expr_labels, path_a)
        export_embeddings(params.run(0), data.features, data.expr_labels, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
