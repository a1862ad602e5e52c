import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from aukit.domain import ContractError, NumericFailure
from aukit.losses import au_loss, combined_loss, expression_loss
from aukit.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_FIELDS,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    FEATURE_MAGIC,
    FEATURE_VERSION,
    TRAIN_DTYPE,
    OptimizerState,
    backward,
    backward_kernel,
    forward,
    init_params,
    load_checkpoint,
    load_features,
    optimizer_step,
    param_layout,
    save_checkpoint,
    save_features,
    stack_params,
)
from aukit.domain import KnowledgeMatrix
from aukit.labeling import PosWeightSpec
from aukit.sealed import PAYLOAD_ALIGNMENT, read_sealed, write_sealed


def reference_optimizer_step(tensors, grads, state):
    """The per-tensor textbook AdamW loop, the reference trainer's optimizer.

    tensors, grads, state.m and state.v are name -> array dicts.
    """
    state.step += 1
    t = state.step
    lr = state.learning_rate
    for name, p in tensors.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p -= lr * state.weight_decay * p
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def per_tensor_optimizer_step(tensors, grads, state):
    """optimizer_step's operations in its order, one tensor at a time: the
    loop its flat update must equal bit for bit. Arguments as for
    reference_optimizer_step."""
    state.step += 1
    t = state.step
    c2_root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    step_size = state.learning_rate * c2_root / (1.0 - ADAM_BETA1 ** t)
    for name, p in tensors.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= ADAM_BETA1
        m += g * (1.0 - ADAM_BETA1)
        v *= ADAM_BETA2
        v += g * (1.0 - ADAM_BETA2) * g
        p *= 1.0 - state.learning_rate * state.weight_decay
        p -= m / (np.sqrt(v) + ADAM_EPS * c2_root) * step_size


class TestInitParams:
    def test_seed_determinism(self):
        a = init_params(7, feature_dim=16, hidden=(8,))
        b = init_params(7, feature_dim=16, hidden=(8,))
        for (ka, va), (kb, vb) in zip(
            sorted(a.views(a.vector).items()), sorted(b.views(b.vector).items())
        ):
            assert ka == kb
            assert np.array_equal(va, vb)

    def test_named_arrays_are_views_in_sorted_name_order(self):
        p = init_params(2, feature_dim=5, hidden=(4, 3))
        named = p.views(p.vector)
        assert list(named) == sorted(named)
        flat = np.concatenate([a.ravel() for a in named.values()])
        assert np.array_equal(flat, p.vector)
        p.hidden_weights[1][0, 0] = 42.0
        offset, _ = p.layout["hidden.1.w"]
        assert p.vector[offset] == 42.0
        assert p.vector.size == 4 * 5 + 4 + 3 * 4 + 3 + 7 * 3 + 7 + 18 * 3 + 18

    def test_no_hidden_layers(self):
        p = init_params(0, feature_dim=12, hidden=())
        assert p.head_weight.shape == (12, 25)
        # with no hidden layer the embeddings are the features themselves
        assert forward(p, np.ones((2, 12)))[2].shape == (2, 12)

    @pytest.mark.parametrize("hidden, name", [
        ((4.7,), "hidden[0]"), ((8, 2.0), "hidden[1]"), ((True,), "hidden[0]"),
    ])
    def test_hidden_sizes_must_be_integers(self, hidden, name):
        # a float was truncated: hidden=(4.7,) built a 4-unit layer
        with pytest.raises(ContractError, match=rf"^{re.escape(name)} must be an integer, got "):
            init_params(0, feature_dim=4, hidden=hidden)

    @pytest.mark.parametrize("seed, feature_dim, hidden, message", [
        (0, 4.5, (4,), "feature_dim must be an integer"),
        (0, "4", (4,), "feature_dim must be an integer"),
        (0.5, 4, (4,), "seed must be an integer"),
        (0, 4, 5, "hidden must be a list of integers"),
        (-1, 4, (4,), r"feature_dim and hidden sizes must be >= 1, and seed >= 0$"),
    ], ids=["float_feature_dim", "str_feature_dim", "float_seed", "int_hidden",
            "negative_seed"])
    def test_bad_arguments_are_contract_errors(self, seed, feature_dim, hidden, message):
        # the first four escaped as TypeError, a negative seed as numpy's ValueError
        with pytest.raises(ContractError, match=f"^{message}"):
            init_params(seed, feature_dim=feature_dim, hidden=hidden)

    def test_hidden_sizes_take_numpy_integers(self):
        assert init_params(0, feature_dim=4, hidden=(np.int64(3),)).hidden == (3,)

    def test_head_shapes(self):
        p = init_params(0, feature_dim=1024, hidden=(128,))
        assert p.hidden_weights[0].shape == (1024, 128)
        assert p.head_weight.shape == (128, 25) and p.head_bias.shape == (25,)

    @pytest.mark.parametrize("seed, feature_dim, hidden, digest", [
        (0, 12, (),
         "a7291ef2121d15075533a37f06ee400c2603fbdaa55c67151f89c75db30638c6"),
        (7, 16, (8,),
         "9947d1279658e938413e3b7010b0f0c1170c2f1858bfe1c7d1ecfd2671ce205a"),
        (2, 5, (4, 3),
         "08b6a644e5733b5744fb0b1ee2b200ac23437c85e0d04008c7426d75b7642ec2"),
        (0, 1024, (128,),
         "92dd907f8df437ab6fbc1af9d9f3fbbc8fce1f9025f249be22dd9a9f8fa4943f"),
    ])
    def test_initial_values_golden(self, seed, feature_dim, hidden, digest):
        # the initial values, hashed in the checkpoint-v3 orientation whatever
        # the stored layout: each weight fan-out-major, the expression head
        # apart from the AU head; recorded on the v3 layout
        named = init_params(seed, feature_dim=feature_dim, hidden=hidden)
        named = dict(named.views(named.vector))
        if "head.w" in named:
            head_w, head_b = named.pop("head.w"), named.pop("head.b")
            named.update({"expr.w": head_w[:, :7].T, "expr.b": head_b[:7],
                          "au.w": head_w[:, 7:].T, "au.b": head_b[7:]})
            for i in range(len(hidden)):
                named[f"hidden.{i}.w"] = named[f"hidden.{i}.w"].T
        h = hashlib.sha256()
        for name in sorted(named):
            h.update(name.encode() + np.ascontiguousarray(named[name], "<f8").tobytes())
        assert h.hexdigest() == digest

    def test_biases_zero_weights_bounded(self):
        p = init_params(3, feature_dim=10, hidden=(6,))
        assert np.all(p.head_bias == 0) and np.all(p.hidden_biases[0] == 0)
        limit = np.sqrt(6.0 / (10 + 6))
        assert np.all(np.abs(p.hidden_weights[0]) <= limit)


class TestForward:
    def test_zero_params_uniform(self, rng):
        p = init_params(0, feature_dim=8, hidden=())
        p.head_weight[...] = 0.0
        expr_logits, au_logits, _ = forward(p, rng.normal(size=(3, 8)))
        assert np.all(expr_logits == 0) and np.all(au_logits == 0)

    def test_batch_independence(self, rng):
        p = init_params(1, feature_dim=8, hidden=(4,))
        x = rng.normal(size=(1, 8))
        single = forward(p, x)
        batched = forward(p, np.repeat(x, 32, axis=0))
        assert np.allclose(single[0][0], batched[0][5])
        assert np.allclose(single[1][0], batched[1][17])

    def test_finite_output(self, rng):
        p = init_params(2, feature_dim=20, hidden=(10, 5))
        expr_logits, au_logits, emb = forward(p, rng.normal(size=(9, 20)))
        assert np.all(np.isfinite(expr_logits))
        assert np.all(np.isfinite(au_logits))
        assert emb.shape == (9, 5)

    def test_heads_are_columns_of_one_output(self, rng):
        # one head product: the expression logits are its first 7 columns and
        # the AU logits the other 18, both views of the one N x 25 output
        p = init_params(1, feature_dim=8, hidden=(4,))
        p.head_bias[...] = rng.normal(size=25)
        expr_logits, au_logits, emb = forward(p, rng.normal(size=(3, 8)))
        assert expr_logits.base is au_logits.base and expr_logits.base.shape == (3, 25)
        assert np.allclose(expr_logits, emb @ p.head_weight[:, :7] + p.head_bias[:7])
        assert np.allclose(au_logits, emb @ p.head_weight[:, 7:] + p.head_bias[7:])

    def test_width_mismatch_rejected(self, rng):
        p = init_params(0, feature_dim=8, hidden=())
        with pytest.raises(ContractError):
            forward(p, rng.normal(size=(3, 9)))


class TestBackward:
    def _combined_evaluator(self, params, x, expr_labels, au_labels, knowledge,
                            pw, lam):
        def evaluator(vector):
            params.vector[...] = vector
            expr_logits, au_logits, _, acts = forward(params, x, return_hidden=True)
            loss_e, grad_e = expression_loss(expr_logits, expr_labels)
            loss_au, grad_au = au_loss(au_logits, au_labels, expr_labels,
                                       knowledge, pw)
            total = combined_loss(loss_e, loss_au, lam)
            grads = backward(params, x, (1 - lam) * grad_e, lam * grad_au,
                             activations=acts)
            return total, grads

        return evaluator

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_full_model_finite_difference(self, rng, hidden):
        from aukit.losses import finite_difference_check

        params = init_params(3, feature_dim=8, hidden=hidden)
        # biases off zero: with zero biases a sample whose first-layer units
        # are all off puts the second layer exactly on the ReLU kink
        for b in params.hidden_biases:
            b[...] = rng.uniform(0.1, 0.5, b.shape)
        x = rng.normal(size=(5, 8))
        expr_labels = rng.integers(0, 7, size=5)
        au_labels = rng.integers(0, 2, (5, 18)).astype(float)
        knowledge = KnowledgeMatrix(
            values=rng.uniform(0.5, 4.5, (18, 7)), stage="loss-scaled"
        )
        pw = PosWeightSpec(strategy="none", values=np.ones((7, 18)))
        evaluator = self._combined_evaluator(
            params, x, expr_labels, au_labels, knowledge, pw, lam=0.3
        )
        report = finite_difference_check(evaluator, params.vector.copy())
        assert report.max_relative_error < 1e-4

    def test_lambda_zero_au_head_gradients_zero(self, rng):
        params = init_params(5, feature_dim=8, hidden=(4,))
        x = rng.normal(size=(6, 8))
        expr_labels = rng.integers(0, 7, size=6)
        expr_logits, au_logits, _, acts = forward(params, x, return_hidden=True)
        _, grad_e = expression_loss(expr_logits, expr_labels)
        grads = params.views(
            backward(params, x, grad_e, np.zeros((6, 18)), activations=acts)
        )
        # the AU block of the head: its last 18 columns
        assert np.all(grads["head.w"][:, 7:] == 0) and np.all(grads["head.b"][7:] == 0)
        assert np.any(grads["hidden.0.w"] != 0)

    def test_au_signal_reaches_shared_pathway(self, rng):
        params = init_params(5, feature_dim=8, hidden=(4,))
        x = rng.normal(size=(6, 8))
        expr_labels = rng.integers(0, 7, size=6)
        au_labels = rng.integers(0, 2, (6, 18)).astype(float)
        knowledge = KnowledgeMatrix(
            values=np.full((18, 7), 2.0), stage="loss-scaled"
        )
        pw = PosWeightSpec(strategy="none", values=np.ones((7, 18)))
        expr_logits, au_logits, _, acts = forward(params, x, return_hidden=True)
        _, grad_e = expression_loss(expr_logits, expr_labels)
        _, grad_au = au_loss(au_logits, au_labels, expr_labels, knowledge, pw)
        base = params.views(
            backward(params, x, grad_e, np.zeros((6, 18)), activations=acts)
        )
        mixed = params.views(
            backward(params, x, 0.8 * grad_e, 0.2 * grad_au, activations=acts)
        )
        assert not np.allclose(base["hidden.0.w"], mixed["hidden.0.w"])

    def test_duplicated_sample_doubles_contribution(self, rng):
        params = init_params(2, feature_dim=6, hidden=())
        x = rng.normal(size=(1, 6))
        labels = np.array([3])
        expr_logits, _, _, acts = forward(params, x, return_hidden=True)
        _, grad_e = expression_loss(expr_logits, labels)
        single = params.views(
            backward(params, x, grad_e, np.zeros((1, 18)), activations=acts)
        )
        x2 = np.repeat(x, 2, axis=0)
        expr_logits2, _, _, acts2 = forward(params, x2, return_hidden=True)
        # use sum-scaled gradients (no 1/N) to see pure additivity
        g = grad_e * 1.0
        doubled = params.views(backward(
            params, x2, np.repeat(g, 2, axis=0), np.zeros((2, 18)),
            activations=acts2,
        ))
        assert np.allclose(doubled["head.w"], 2.0 * single["head.w"])

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_out_holds_the_returned_gradient(self, rng, runs, hidden):
        # a float32 stack, as training steps it: every entry of a buffer
        # filled with nan is overwritten, through its named views, with the
        # bytes backward returns, again when the same buffer comes back with
        # a smaller batch
        params = stack_params([init_params(seed, feature_dim=6, hidden=hidden)
                               for seed in range(runs)]).astype(np.float32)
        out = np.full_like(params.vector, np.nan)
        grads = params.views(out)
        ones = np.ones(5, dtype=np.float32)
        for n in (5, 5, 3):
            x = rng.normal(size=(runs, n, 6)).astype(np.float32)
            _, _, _, acts = forward(params, x, return_hidden=True)
            d_expr = rng.normal(size=(runs, n, 7)).astype(np.float32)
            d_au = rng.normal(size=(runs, n, 18)).astype(np.float32)
            expected = backward(params, x, d_expr, d_au, acts)
            out[...] = np.nan
            backward_kernel(params, np.concatenate([d_expr, d_au], axis=-1), acts,
                            grads, ones[:n])
            assert out.tobytes() == expected.tobytes()


class TestOptimizer:
    def test_zero_gradient_fixed_point(self):
        params = init_params(1, feature_dim=4, hidden=())
        state = OptimizerState(weight_decay=0.0)
        before = params.vector.copy()
        optimizer_step(params, np.zeros_like(params.vector), state)
        assert np.array_equal(params.vector, before)

    def test_first_step_approx_lr_sign(self):
        params = init_params(1, feature_dim=4, hidden=())
        state = OptimizerState(learning_rate=1e-3, weight_decay=0.0)
        before = params.vector.copy()
        optimizer_step(params, np.full_like(params.vector, 0.37), state)
        step = before - params.vector
        # bias correction makes m_hat = g, v_hat = g^2 -> update = lr*sign(g)
        assert np.allclose(step, 1e-3 * 0.37 / (0.37 + 1e-8))

    def test_hand_computed_first_update(self):
        params = init_params(1, feature_dim=2, hidden=())
        state = OptimizerState(learning_rate=0.01, weight_decay=0.1)
        w0 = params.head_weight.copy()
        optimizer_step(params, np.ones_like(params.vector), state)
        expected = w0 - 0.01 * 0.1 * w0 - 0.01 * (1.0 / (1.0 + 1e-8))
        assert np.allclose(params.head_weight, expected, atol=1e-12)

    def test_determinism_over_ten_steps(self, rng):
        results = []
        for _ in range(2):
            params = init_params(9, feature_dim=5, hidden=(3,))
            state = OptimizerState()
            grad_rng = np.random.default_rng(42)
            for _ in range(10):
                grads = grad_rng.normal(size=params.vector.size)
                optimizer_step(params, grads, state)
            results.append(params.vector.copy())
        assert np.array_equal(results[0], results[1])

    def run_with_reference(self, hidden, dtype, reference_step):
        """Ten steps of optimizer_step and of `reference_step` on the same
        seeded gradients; the flat and the per-tensor parameters and states."""
        params = init_params(9, feature_dim=5, hidden=hidden).astype(dtype)
        reference = {k: v.copy() for k, v in params.views(params.vector).items()}
        state = OptimizerState(learning_rate=0.01, weight_decay=0.05)
        ref_state = OptimizerState(learning_rate=0.01, weight_decay=0.05, m={}, v={})
        grad_rng = np.random.default_rng(42)
        for _ in range(10):
            grads = grad_rng.normal(scale=3.0, size=params.vector.size).astype(dtype)
            optimizer_step(params, grads, state)
            reference_step(reference, params.views(grads), ref_state)
        assert state.step == ref_state.step == 10
        return params, reference, state, ref_state

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("hidden", [(), (3,), (8, 4)])
    def test_flat_update_bitwise_equals_per_tensor_reference(self, hidden, dtype):
        # float32 too, as training steps: a numpy float64 scalar in the flat
        # update would round the float32 operations differently
        params, reference, state, ref_state = self.run_with_reference(
            hidden, dtype, per_tensor_optimizer_step)
        for name, value in params.views(params.vector).items():
            assert value.tobytes() == reference[name].tobytes()
            assert params.views(state.m)[name].tobytes() == ref_state.m[name].tobytes()
            assert params.views(state.v)[name].tobytes() == ref_state.v[name].tobytes()

    @pytest.mark.parametrize("hidden", [(), (3,), (8, 4)])
    def test_flat_update_close_to_textbook_reference(self, hidden):
        # the folded bias corrections equal the textbook form in exact
        # arithmetic; the moments are the same operations, bit for bit
        params, reference, state, ref_state = self.run_with_reference(
            hidden, np.float64, reference_optimizer_step)
        for name, value in params.views(params.vector).items():
            assert np.allclose(value, reference[name], rtol=1e-13, atol=1e-15)
            assert params.views(state.m)[name].tobytes() == ref_state.m[name].tobytes()
            assert params.views(state.v)[name].tobytes() == ref_state.v[name].tobytes()

    def test_large_finite_gradient_steps_without_overflow(self):
        # 1e20 squared fits the float32 second moment, scaled by 1 - beta2;
        # dividing v by its bias correction once overflowed with a warning
        params = init_params(1, feature_dim=4, hidden=()).astype(np.float32)
        grads = np.zeros_like(params.vector)
        params.views(grads)["head.w"][0, 0] = 1e20
        before = params.vector.copy()
        optimizer_step(params, grads, OptimizerState(weight_decay=0.0))
        step = before - params.vector
        assert np.isfinite(step).all()
        assert step[params.layout["head.w"][0]] == pytest.approx(1e-3, rel=1e-5)

    def test_second_moment_overflow_rejected(self):
        params = init_params(1, feature_dim=4, hidden=(3,))
        before = params.vector.copy()
        grads = np.zeros_like(params.vector)
        params.views(grads)["hidden.0.b"][1] = 1e200  # squared: inf
        with pytest.raises(NumericFailure, match=r"^non-finite second moment "
                           r"\(gradient too large\) for hidden.0.b$"):
            optimizer_step(params, grads, OptimizerState())
        assert np.array_equal(params.vector, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected(self, value):
        # the gradient is named, not the second moment it also makes
        # non-finite; the parameters stay as they were
        params = init_params(1, feature_dim=4, hidden=())
        before = params.vector.copy()
        grads = np.zeros_like(params.vector)
        params.views(grads)["head.w"][0, 0] = value
        with pytest.raises(NumericFailure, match="^non-finite gradient for head.w$"):
            optimizer_step(params, grads, OptimizerState())
        assert params.vector.tobytes() == before.tobytes()

    @pytest.mark.parametrize("value, message", [
        (np.inf, "non-finite gradient for head.b in run 2"),
        (1e21, r"non-finite second moment \(gradient too large\) for head.b in run 2"),
    ], ids=["inf", "overflow"])
    def test_failure_in_a_stack_names_the_run(self, value, message):
        # a float32 stack, as training steps it: 1e21 squared overflows
        params = stack_params([init_params(seed, feature_dim=4, hidden=(3,))
                               for seed in range(3)]).astype(np.float32)
        state = OptimizerState()
        optimizer_step(params, np.ones_like(params.vector), state)
        before = params.vector.copy()
        grads = np.ones_like(params.vector)
        params.views(grads)["head.b"][2, 4] = value
        with pytest.raises(NumericFailure, match=f"^{message}$"):
            optimizer_step(params, grads, state)
        assert params.vector.tobytes() == before.tobytes()

    def test_work_vectors_allocated_once_and_not_exposed(self):
        params = stack_params([init_params(seed, feature_dim=4, hidden=(3,))
                               for seed in range(2)]).astype(np.float32)
        state = OptimizerState()
        optimizer_step(params, np.ones_like(params.vector), state)
        scratch = state.scratch
        assert [a.shape for a in scratch] == [params.vector.shape] * 2
        optimizer_step(params, np.ones_like(params.vector), state)
        assert all(a is b for a, b in zip(state.scratch, scratch))
        assert "scratch" not in repr(state)


def sealed_checkpoint(path, header, payload=b""):
    """A validly sealed checkpoint file holding `header` and `payload`."""
    write_sealed(path, CHECKPOINT_MAGIC, header, payload)
    return path


class TestCheckpoint:
    def test_roundtrip_exact(self, rng, tmp_path):
        params = init_params(11, feature_dim=1024, hidden=(128,))
        optimizer_step(params, rng.normal(size=params.vector.size), OptimizerState())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        loaded_params = load_checkpoint(path)
        assert loaded_params.feature_dim == 1024
        assert loaded_params.hidden == (128,)
        assert loaded_params.seed == 11
        for (ka, va), (kb, vb) in zip(
            sorted(params.views(params.vector).items()),
            sorted(loaded_params.views(loaded_params.vector).items()),
        ):
            assert ka == kb and np.array_equal(va, vb)
        assert loaded_params.vector.tobytes() == params.vector.tobytes()

    def test_roundtrip_before_first_step(self, tmp_path):
        params = init_params(4, feature_dim=6, hidden=(3,))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        loaded_params = load_checkpoint(path)
        assert (loaded_params.feature_dim, loaded_params.hidden) == (6, (3,))
        assert loaded_params.vector.tobytes() == params.vector.tobytes()

    def test_stack_rejected_before_the_file_is_opened(self, tmp_path):
        # a 2-run stack once wrote a file that load_checkpoint rejected for
        # its tuple seed
        stack = stack_params([init_params(seed, feature_dim=6, hidden=(3,))
                              for seed in (0, 1)])
        path = tmp_path / "ckpt.bin"
        with pytest.raises(ContractError, match="not a stack of 2"):
            save_checkpoint(stack, path)
        assert not path.exists()
        save_checkpoint(stack.run(1), path)
        assert load_checkpoint(path).seed == 1

    def test_holds_only_the_parameters(self, tmp_path):
        # the wide shape: 134 425 float64 parameters and a header, no moments
        params = init_params(0, feature_dim=1024, hidden=(128,))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        header, payload = read_sealed(path, CHECKPOINT_MAGIC, "checkpoint",
                                      CHECKPOINT_VERSION, CHECKPOINT_FIELDS)
        assert header == {"version": 4, "seed": 0, "feature_dim": 1024,
                          "hidden": [128],
                          "layout": json.loads(json.dumps(params.layout))}
        assert bytes(payload) == params.vector.astype("<f8").tobytes()
        assert path.stat().st_size <= 1_076_000

    def test_version_1_rejected(self, tmp_path):
        # a well-formed file in the per-array v1 layout, checksum included
        header = json.dumps({"version": 1, "seed": 0, "feature_dim": 4,
                             "hidden": [], "optimizer": None}).encode("utf-8")
        body = (CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header
                + (0).to_bytes(8, "little"))
        path = tmp_path / "v1.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(ContractError, match="version mismatch: 1"):
            load_checkpoint(path)

    def test_version_2_rejected(self, tmp_path):
        # a version 2 file: parameters, then the optimizer's moments
        params = init_params(0, feature_dim=4, hidden=(3,))
        header = {"version": 2, "seed": 0, "feature_dim": 4, "hidden": [3],
                  "layout": params.layout, "blobs": ["params", "m", "v"],
                  "optimizer": {"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999,
                                "eps": 1e-8, "weight_decay": 0.05, "step": 1}}
        path = sealed_checkpoint(tmp_path / "v2.bin", header,
                                 np.tile(params.vector, 3).astype("<f8"))
        with pytest.raises(ContractError, match="^checkpoint version mismatch: 2$"):
            load_checkpoint(path)

    def test_version_3_rejected(self, tmp_path):
        # a version 3 file: the same parameters, each weight fan-out-major and
        # the expression and AU heads apart
        layout = {"au.b": [0, [18]], "au.w": [18, [18, 3]], "expr.b": [72, [7]],
                  "expr.w": [79, [7, 3]], "hidden.0.b": [100, [3]],
                  "hidden.0.w": [103, [3, 4]]}
        path = sealed_checkpoint(
            tmp_path / "v3.bin",
            {"version": 3, "seed": 0, "feature_dim": 4, "hidden": [3], "layout": layout},
            np.zeros(115, dtype="<f8"))
        with pytest.raises(ContractError, match="^checkpoint version mismatch: 3$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("version", "4"), ("version", 4.0), ("feature_dim", 4.0),
        ("feature_dim", True), ("feature_dim", 0), ("hidden", 3), ("hidden", [3.0]),
        ("hidden", [0]), ("hidden", [True]), ("seed", -1), ("seed", True),
        ("seed", 0.0), ("seed", None), ("layout", {}), ("blobs", ["params"]),
    ])
    def test_mistyped_header_field_rejected(self, tmp_path, field, value):
        params = init_params(0, feature_dim=4, hidden=(3,))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        header, payload = read_sealed(path, CHECKPOINT_MAGIC, "checkpoint",
                                      CHECKPOINT_VERSION, CHECKPOINT_FIELDS)
        header[field] = value
        sealed_checkpoint(path, header, payload)
        with pytest.raises(ContractError, match="corrupt checkpoint|version mismatch"):
            load_checkpoint(path)

    def test_header_checked_before_allocating(self, tmp_path):
        # a billion hidden units declared over a 100-parameter payload: the
        # load fails holding no more than the file
        layout = param_layout(4, [10 ** 9])
        path = sealed_checkpoint(
            tmp_path / "ckpt.bin",
            {"version": 4, "seed": 0, "feature_dim": 4, "hidden": [10 ** 9],
             "layout": layout},
            np.zeros(100))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="payload does not match"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + (64 << 10)

    def test_corrupted_tail_rejected(self, tmp_path):
        params = init_params(1, feature_dim=8, hidden=())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10] + b"corruption")
        with pytest.raises(ContractError, match="corrupt"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        params = init_params(1, feature_dim=8, hidden=())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ContractError, match="corrupt"):
            load_checkpoint(path)

    def test_save_allocates_no_copy_of_the_payload(self, tmp_path):
        # the payload (134 425 float64 parameters, 1.08 MB) is written from
        # the vector itself, not joined into new bytes
        params = init_params(0, feature_dim=1024, hidden=(128,))
        tracemalloc.start()  # traces only what the save allocates
        try:
            save_checkpoint(params, tmp_path / "ckpt.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_is_a_view_of_the_file(self, tmp_path):
        # a wide checkpoint (1.08 MB): the load holds the file's one buffer
        # and returns a view into it, with no second vector
        params = init_params(0, feature_dim=1024, hidden=(128,))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(params, path)
        tracemalloc.start()  # traces only what the load allocates
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + (64 << 10)
        assert not loaded.vector.flags.owndata and loaded.vector.flags.writeable
        assert loaded.vector.ctypes.data % PAYLOAD_ALIGNMENT == 0
        assert loaded.vector.tobytes() == params.vector.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(4, feature_dim=16, hidden=(8,))
        path_a = tmp_path / "a.bin"
        path_b = tmp_path / "b.bin"
        save_checkpoint(params, path_a)
        save_checkpoint(params, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestFeatureFiles:
    def test_binary_roundtrip(self, rng, tmp_path):
        features = rng.normal(size=(13, 6))
        path = tmp_path / "features.bin"
        save_features(features, path)
        header, payload = read_sealed(path, FEATURE_MAGIC, "feature file",
                                      FEATURE_VERSION, ("shape",))
        assert header == {"version": 2, "shape": [13, 6]}
        assert bytes(payload) == features.astype("<f4").tobytes()
        assert np.array_equal(load_features(path), features.astype(TRAIN_DTYPE))

    def test_float32_load_in_blocks_equals_one_cast(self, rng, tmp_path):
        # the file holds float32: loading a float64 matrix saved in it gives
        # one cast of the whole matrix, whatever its size
        features = rng.normal(size=(300, 7))
        path = tmp_path / "features.bin"
        save_features(features, path)
        loaded = load_features(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, features.astype(np.float32))

    def test_load_is_an_aligned_writable_view_of_the_file(self, rng, tmp_path):
        path = tmp_path / "features.bin"
        save_features(rng.normal(size=(300, 64)), path)
        tracemalloc.start()  # traces only what the load allocates
        try:
            loaded = load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not loaded.flags.owndata and loaded.flags.writeable
        assert loaded.ctypes.data % PAYLOAD_ALIGNMENT == 0
        assert peak <= path.stat().st_size + (64 << 10)

    def test_empty_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "features.bin"
        save_features(np.zeros((0, 4)), path)
        assert load_features(path).shape == (0, 4)

    def test_truncated_binary_rejected(self, rng, tmp_path):
        path = tmp_path / "features.bin"
        save_features(rng.normal(size=(5, 4)), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ContractError, match="corrupt feature file: checksum mismatch"):
            load_features(path)

    def test_flipped_payload_byte_rejected(self, rng, tmp_path):
        path = tmp_path / "features.bin"
        save_features(rng.normal(size=(5, 4)), path)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 1  # the last payload byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match="corrupt feature file: checksum mismatch"):
            load_features(path)

    def test_unsealed_float64_format_rejected(self, rng, tmp_path):
        # the format before feature files were sealed: a 10-byte magic, N and
        # F as 8-byte integers, the tag f8, then N x F float64 values
        features = rng.normal(size=(5, 4))
        path = tmp_path / "features.bin"
        path.write_bytes(b"AUKITFEAT1" + (5).to_bytes(8, "little")
                         + (4).to_bytes(8, "little") + b"f8" + features.tobytes())
        with pytest.raises(ContractError, match="corrupt feature file: bad magic"):
            load_features(path)

    @pytest.mark.parametrize("header, payload, message", [
        ({"version": 1, "shape": [2, 2]}, 16, "feature file version mismatch: 1"),
        ({"version": 2, "shape": [2, 3]}, 16, "payload does not match the header"),
        ({"version": 2, "shape": [4]}, 16, "payload does not match the header"),
        ({"version": 2, "shape": [2, -2]}, 0, "payload does not match the header"),
        ({"version": 2}, 16, "header fields must be shape and version"),
    ], ids=["version_1", "shape_too_large", "one_dimension", "negative", "no_shape"])
    def test_header_mismatch_rejected(self, header, payload, message, tmp_path):
        path = tmp_path / "features.bin"
        write_sealed(path, FEATURE_MAGIC, header, bytes(payload))
        with pytest.raises(ContractError, match=message):
            load_features(path)

    @pytest.mark.parametrize("value, name", [(np.nan, "nan"), (-np.inf, "-inf")],
                             ids=["nan", "negative_inf"])
    def test_non_finite_cell_named(self, value, name, rng, tmp_path):
        features = rng.normal(size=(13, 6))
        features[10, 4] = value
        path = tmp_path / "features.bin"
        save_features(features, path)
        with pytest.raises(ContractError,
                           match=f"non-finite feature {name} at row 11, column 5"):
            load_features(path)

    def test_values_beyond_float32_are_not_written(self, rng, tmp_path):
        features = rng.normal(size=(13, 6))
        features[10, 4] = 1e39
        path = tmp_path / "features.bin"
        with pytest.raises(NumericFailure, match="features outside the float32 range"):
            save_features(features, path)
        assert not path.exists()
