"""Each checked function (forward and the two losses) equals its kernel, bit
for bit, on arguments it accepts, given to the kernel as the function
prepares them: one run and a stack of runs, in float32 (training) and
float64. optimizer_step, which has no checked twin, steps one run, or each
run of a stack, as it steps that run in a stack of one. backward_kernel has
no checked twin either; tests/test_model.py::TestBackward checks it and the
training step."""

import numpy as np
import pytest

from aukit.domain import KnowledgeMatrix
from aukit.labeling import PosWeightSpec
from aukit.losses import au_loss, au_loss_kernel, expression_loss, expression_loss_kernel
from aukit.model import (
    OptimizerState,
    forward,
    forward_kernel,
    init_params,
    optimizer_step,
    stack_params,
)

N, FEATURES, HIDDEN = 5, 6, (4, 3)

dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])
# None: one run, without a run axis; 3: a stack of three runs
runs = pytest.mark.parametrize("runs", [None, 3])


def lead(runs):
    return () if runs is None else (runs,)


def model_params(runs, dtype):
    if runs is None:
        return init_params(0, feature_dim=FEATURES, hidden=HIDDEN).astype(dtype)
    return stack_params([init_params(seed, feature_dim=FEATURES, hidden=HIDDEN)
                         for seed in range(runs)]).astype(dtype)


def normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


def assert_same(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@dtypes
@runs
def test_forward(rng, runs, dtype):
    params = model_params(runs, dtype)
    x = normal(rng, lead(runs) + (N, FEATURES), dtype)
    expr_logits, au_logits, embeddings = forward(params, x)
    kernel_expr, kernel_au, kernel_activations = forward_kernel(params, x)
    assert_same(kernel_expr, expr_logits)
    assert_same(kernel_au, au_logits)
    assert_same(kernel_activations[-1], embeddings)
    assert len(kernel_activations) == len(HIDDEN) + 1


@dtypes
@runs
def test_expression_loss(rng, runs, dtype):
    logits = normal(rng, lead(runs) + (N, 7), dtype)
    labels = rng.integers(0, 7, size=lead(runs) + (N,))
    loss, grad = expression_loss(logits, labels, factor=3.0)
    kernel_loss, kernel_grad = expression_loss_kernel(logits, labels, 3.0)
    assert_same(np.asarray(kernel_loss), np.asarray(loss))
    assert_same(kernel_grad, grad)


@dtypes
@runs
def test_au_loss(rng, runs, dtype):
    logits = normal(rng, lead(runs) + (N, 18), dtype)
    au_labels = rng.integers(0, 2, size=lead(runs) + (N, 18)).astype(dtype)
    expr_labels = rng.integers(0, 7, size=lead(runs) + (N,))
    knowledge = KnowledgeMatrix(values=rng.uniform(0.5, 4.5, (18, 7)),
                                stage="loss-scaled")
    pos_weights = PosWeightSpec(strategy="global", values=rng.uniform(0.5, 4.0, (7, 18)))
    # au_loss passes its one table as a one-run stack with run 0; a stack's
    # per-run tables, as training passes them, pick the same values
    pw_values, run_index = pos_weights.values.astype(dtype)[None], 0
    if runs is not None:
        pw_values = np.broadcast_to(pw_values, (runs, 7, 18))
        run_index = np.arange(runs)[:, None]
    loss, grad = au_loss(logits, au_labels, expr_labels, knowledge, pos_weights)
    kernel_loss, kernel_grad = au_loss_kernel(
        logits, au_labels, expr_labels, knowledge.values.astype(dtype).T, pw_values,
        run_index)
    assert_same(np.asarray(kernel_loss), np.asarray(loss))
    assert_same(kernel_grad, grad)


@dtypes
@runs
def test_optimizer_step(rng, runs, dtype):
    params, state = model_params(runs, dtype), OptimizerState()
    steps = [normal(rng, params.vector.shape, dtype) for _ in range(3)]
    for grads in steps:
        optimizer_step(params, grads, state)
    assert state.step == 3
    for r in range(runs or 1):
        alone = stack_params([init_params(r, feature_dim=FEATURES,
                                          hidden=HIDDEN)]).astype(dtype)
        alone_state = OptimizerState()
        for grads in steps:
            optimizer_step(alone, (grads if runs is None else grads[r])[None],
                           alone_state)
        at = () if runs is None else (r,)
        for array, alone_array in ((params.vector, alone.vector),
                                   (state.m, alone_state.m), (state.v, alone_state.v)):
            assert_same(array[at], alone_array[0])
