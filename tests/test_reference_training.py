"""A float64 reference trainer, outside the library, and the differential test
that trains the library against it.

The reference trains one run the textbook way: float64 throughout, two
separate heads, one gradient array per tensor, the per-tensor AdamW loop of
test_model and the losses as their formulas read. It shares with the
library only the initial values, the batch order (one generator per seed)
and the inputs, rounded to float32 as the library's steps receive them. Any
change to the library's training arithmetic shows here as drift against a
fixed float32 tolerance, next to whatever golden hash it re-records.
"""

from dataclasses import replace

import numpy as np
import pytest

from aukit.harness import TrainConfig, evaluate_predictions, train
from aukit.losses import loss_knowledge
from aukit.model import OptimizerState, init_params

from test_harness import small_train_data
from test_model import reference_optimizer_step


def two_heads(params):
    """Named float64 copies of a run's tensors, the fused head split apart."""
    named = params.views(params.vector.astype(np.float64))
    tensors = {name: a.copy() for name, a in named.items() if name.startswith("hidden")}
    w, b = named["head.w"], named["head.b"]
    tensors.update({"expr.w": w[:, :7].copy(), "expr.b": b[:7].copy(),
                    "au.w": w[:, 7:].copy(), "au.b": b[7:].copy()})
    return tensors


def reference_forward(tensors, x):
    """The per-layer activations, then the expression and AU logits."""
    acts = [x]
    for i in range(sum(name.startswith("hidden") for name in tensors) // 2):
        acts.append(np.maximum(acts[-1] @ tensors[f"hidden.{i}.w"]
                               + tensors[f"hidden.{i}.b"], 0.0))
    h = acts[-1]
    return (acts, h @ tensors["expr.w"] + tensors["expr.b"],
            h @ tensors["au.w"] + tensors["au.b"])


def rounded(values):
    """`values` rounded to float32, as the library's steps receive them, in
    float64."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def reference_train(config, data):
    """One run of `config` on `data` in float64; its tensors, by name."""
    x_all = rounded(data.features)
    y_all = np.asarray(data.expr_labels)
    au_all = np.asarray(data.au_labels, dtype=np.float64)
    knowledge = rounded(loss_knowledge(data.knowledge))
    pos_weights = rounded(data.pos_weights.values)
    tensors = two_heads(init_params(config.seed, x_all.shape[1], config.hidden)
                        .astype(np.float32))
    state = OptimizerState(learning_rate=config.learning_rate,
                           weight_decay=config.weight_decay, m={}, v={})
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(x_all))
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x, y, au = x_all[idx], y_all[idx], au_all[idx]
            n = len(idx)
            acts, expr_logits, au_logits = reference_forward(tensors, x)
            # d/dz of -log(factor * softmax(z)[y]), averaged over the batch
            p = np.exp(expr_logits - expr_logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            d_expr = (p - np.eye(7)[y]) / n
            # d/dz of -k[j, y] (pw[y, j] Y log s(z) + (1 - Y) log(1 - s(z)))
            s = 1.0 / (1.0 + np.exp(-au_logits))
            d_au = knowledge.T[y] * (pos_weights[y] * au * (s - 1.0)
                                     + (1.0 - au) * s) / n
            d_expr *= 1.0 - config.lam
            d_au *= config.lam
            grads = {"expr.w": acts[-1].T @ d_expr, "expr.b": d_expr.sum(axis=0),
                     "au.w": acts[-1].T @ d_au, "au.b": d_au.sum(axis=0)}
            dh = d_expr @ tensors["expr.w"].T + d_au @ tensors["au.w"].T
            for i in reversed(range(len(acts) - 1)):
                dz = dh * (acts[i + 1] > 0.0)
                grads[f"hidden.{i}.w"] = acts[i].T @ dz
                grads[f"hidden.{i}.b"] = dz.sum(axis=0)
                dh = dz @ tensors[f"hidden.{i}.w"].T
            reference_optimizer_step(tensors, grads, state)
    return tensors


# Largest |library - reference| allowed over every parameter after CONFIG's
# 15 steps: 16 float32 epsilons, for parameters of magnitude below 1. The
# library's steps round every operation to float32, so its parameters drift
# from the float64 ones by a few units in the last place; a wrong update
# moves them by a share of the learning rate (1e-3) per step.
PARAMETER_TOLERANCE = 16 * np.finfo(np.float32).eps

CONFIG = TrainConfig(epochs=3, hidden=(8,), seed=7, lam=0.3)


@pytest.mark.parametrize("hidden", [(), (8,), (6, 4)])
def test_library_parameters_match_float64_reference(hidden):
    config = replace(CONFIG, hidden=hidden)
    data = small_train_data()
    params, state, _ = train([config], data)
    assert state.step == 15
    library = two_heads(params.run(0))
    reference = reference_train(config, data)
    assert library.keys() == reference.keys()
    drift = max(np.abs(library[name] - reference[name]).max() for name in library)
    assert drift <= PARAMETER_TOLERANCE


@pytest.mark.parametrize("seed", range(4))
def test_final_uar_matches_float64_reference(seed):
    # 100 steps at a learning rate of 0.01 take the training split's UAR
    # from chance (1/7) to about 0.45
    config = TrainConfig(epochs=20, hidden=(16,), seed=seed, lam=0.3,
                         learning_rate=0.01)
    data = small_train_data(seed=seed)
    _, _, (logs,) = train([config], data)
    tensors = reference_train(config, data)
    _, expr_logits, _ = reference_forward(tensors, rounded(data.features))
    reference = evaluate_predictions(data.expr_labels, expr_logits.argmax(axis=1))
    assert logs[-1].train.uar == reference.uar
