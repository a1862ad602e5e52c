"""Each public step function equals its kernel, bit for bit, on arguments it
accepts, given to the kernel as the function prepares them: one run and a
stack of runs, in float32 (training) and float64."""

import numpy as np
import pytest

from aukit.domain import KnowledgeMatrix
from aukit.labeling import PosWeightSpec
from aukit.losses import au_loss, au_loss_kernel, expression_loss, expression_loss_kernel
from aukit.model import (
    OptimizerState,
    backward,
    backward_kernel,
    forward,
    forward_kernel,
    init_params,
    optimizer_step,
    optimizer_step_kernel,
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
    expr_logits, au_logits, embeddings, activations = forward(params, x,
                                                              return_hidden=True)
    kernel_expr, kernel_au, kernel_activations = forward_kernel(params, x)
    assert_same(kernel_expr, expr_logits)
    assert_same(kernel_au, au_logits)
    assert_same(kernel_activations[-1], embeddings)
    assert len(kernel_activations) == len(activations) == len(HIDDEN) + 1
    for kernel_h, h in zip(kernel_activations, activations):
        assert_same(kernel_h, h)


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
    if runs is None:
        pos_weights = PosWeightSpec(strategy="global",
                                    values=rng.uniform(0.5, 4.0, (7, 18)))
        pw_values, run_index = pos_weights.values.astype(dtype), None
    else:
        pos_weights = rng.uniform(0.5, 4.0, (runs, 7, 18)).astype(dtype)
        pw_values, run_index = pos_weights, np.arange(runs)[:, None]
    loss, grad = au_loss(logits, au_labels, expr_labels, knowledge, pos_weights)
    kernel_loss, kernel_grad = au_loss_kernel(
        logits, au_labels, expr_labels, knowledge.values.astype(dtype).T, pw_values,
        run_index)
    assert_same(np.asarray(kernel_loss), np.asarray(loss))
    assert_same(kernel_grad, grad)


@dtypes
@runs
def test_backward(rng, runs, dtype):
    params = model_params(runs, dtype)
    x = normal(rng, lead(runs) + (N, FEATURES), dtype)
    _, _, _, activations = forward(params, x, return_hidden=True)
    d_expr = normal(rng, lead(runs) + (N, 7), dtype)
    d_au = normal(rng, lead(runs) + (N, 18), dtype)
    grads = backward(params, x, d_expr, d_au, activations)
    kernel_grads = np.full_like(params.vector, np.nan)
    backward_kernel(params, np.concatenate([d_expr, d_au], axis=-1), activations,
                    params.views(kernel_grads), np.ones(N, dtype=dtype))
    assert_same(kernel_grads, grads)


@dtypes
@runs
def test_optimizer_step(rng, runs, dtype):
    params, kernel_params = model_params(runs, dtype), model_params(runs, dtype)
    state, kernel_state = OptimizerState(), OptimizerState()
    for _ in range(3):
        grads = normal(rng, params.vector.shape, dtype)
        optimizer_step(params, grads, state)
        optimizer_step_kernel(kernel_params, grads, kernel_state)
    assert kernel_state.step == state.step == 3
    for kernel_array, array in ((kernel_params.vector, params.vector),
                                (kernel_state.m, state.m), (kernel_state.v, state.v)):
        assert_same(kernel_array, array)
