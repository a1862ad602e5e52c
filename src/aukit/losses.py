"""Composite training loss: softmax expression loss, knowledge-weighted AU
loss, their convex combination, and a central finite-difference verifier.

All log-sigmoid terms use the stable form min(x, 0) - log1p(exp(-|x|))
(never a naive log of a sigmoid), so losses and gradients stay finite for any
logit magnitude.

The losses compute in their logits' dtype: float32 logits (a training step)
give float32 losses and gradients, float64 ones float64; logits given as
lists or integers are taken as float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import ContractError, NUM_AUS, NUM_EXPRESSIONS, NumericFailure, float_array
from .knowledge import sigmoid


@dataclass
class GradReport:
    """Outcome of a finite-difference gradient check."""

    max_relative_error: float
    parameters_checked: int


def log_sigmoid(x):
    """log(sigmoid(x)) = min(x, 0) - log(1 + exp(-|x|)), computed without
    overflow."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def expression_loss(expr_logits, labels, factor=5.0):
    """Mean negative log(factor * p_target) with softmax probabilities.

    Returns (scalar loss, analytic gradient wrt logits). The factor shifts the
    loss by -log(factor) per sample and leaves the gradient untouched. The
    R x N x 7 logits and R x N labels of a stack of runs give R losses.
    """
    expr_logits = float_array(expr_logits)
    labels = np.asarray(labels, dtype=np.int64)
    if expr_logits.ndim < 2 or expr_logits.shape[-1] != NUM_EXPRESSIONS:
        raise ContractError(f"expr_logits must be Nx{NUM_EXPRESSIONS}")
    n = expr_logits.shape[-2]
    if n < 1:
        raise ContractError("empty batch")
    if labels.shape != expr_logits.shape[:-1]:
        raise ContractError("labels must be a length-N vector")
    if labels.min() < 0 or labels.max() >= NUM_EXPRESSIONS:
        raise ContractError("expression label out of range")
    if factor <= 0:
        raise ContractError("factor must be > 0")

    # log p_target via the log-sum-exp identity; the same exponentials give
    # the softmax of the gradient
    target = labels[..., None] == np.arange(NUM_EXPRESSIONS)  # one-hot
    # the row max over a contiguous logits-first copy: one vector op per
    # logit, where max(axis=-1) runs a 7-long loop per row; same values
    row_max = np.ascontiguousarray(expr_logits.T).max(axis=0).T
    shifted = expr_logits - row_max[..., None]
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    log_p = shifted[target].reshape(labels.shape) - np.log(z[..., 0])
    loss = -(math.log(factor) + log_p).sum(axis=-1) / n

    grad = e / z
    grad -= target
    grad /= n
    return loss, grad


def loss_knowledge(knowledge):
    """The 18 x 7 values of a loss-scaled knowledge matrix; ContractError for
    a matrix of any other stage."""
    if knowledge.stage != "loss-scaled":
        raise ContractError(
            f"au_loss expects a loss-scaled knowledge matrix, got {knowledge.stage!r}"
        )
    return knowledge.values


def au_loss(au_logits, au_labels, expr_labels, knowledge, pos_weights):
    """Knowledge-weighted binary cross-entropy over the 18 AU logits.

    Element (i, j) contributes
        k[j, expr_i] * (pw[expr_i, j] * Y_ij * log s(x_ij)
                        + (1 - Y_ij) * log(1 - s(x_ij)))
    negated, summed over the 18 AUs and averaged over the N samples, as in
    the combined objective's N-normalised form. Returns (scalar, gradient
    wrt logits).
    A stack of R runs passes R x N x ... batches and R x 7 x 18 pos-weights
    and gets R losses. `knowledge` is a loss-scaled KnowledgeMatrix or its
    18 x 7 values (see loss_knowledge), `pos_weights` a PosWeightSpec or its
    values.
    """
    au_logits = float_array(au_logits)
    au_labels = np.asarray(au_labels, dtype=au_logits.dtype)
    expr_labels = np.asarray(expr_labels, dtype=np.int64)
    if au_logits.ndim < 2 or au_logits.shape[-1] != NUM_AUS:
        raise ContractError(f"au_logits must be Nx{NUM_AUS}")
    n = au_logits.shape[-2]
    if au_labels.shape != au_logits.shape:
        raise ContractError("au_labels shape mismatch")
    if expr_labels.shape != au_logits.shape[:-1]:
        raise ContractError("expr_labels must be a length-N vector")
    if hasattr(knowledge, "stage"):
        knowledge = loss_knowledge(knowledge)
    knowledge = np.asarray(knowledge, dtype=au_logits.dtype)
    if knowledge.shape != (NUM_AUS, NUM_EXPRESSIONS):
        raise ContractError(f"knowledge must be {NUM_AUS}x{NUM_EXPRESSIONS}")

    pw_values = pos_weights.values if hasattr(pos_weights, "values") else pos_weights
    pw_values = np.asarray(pw_values, dtype=au_logits.dtype)
    if pw_values.shape != expr_labels.shape[:-1] + (NUM_EXPRESSIONS, NUM_AUS):
        raise ContractError(
            f"pos-weights must be {NUM_EXPRESSIONS}x{NUM_AUS}, one table per run"
        )

    k = knowledge.T[expr_labels]  # N x 18, per-sample expression column
    if pw_values.ndim == 2:
        pw = pw_values[expr_labels]  # N x 18
    else:  # a stack: R x N x 18 from each run's table
        pw = pw_values[np.arange(len(pw_values))[:, None], expr_labels]

    x = au_logits
    pos = pw * au_labels
    neg = 1.0 - au_labels
    both = pos + neg
    # one log-sigmoid serves both terms: log(1 - s(x)) = log s(-x) = log s(x) - x,
    # so pos log s(x) + neg log(1 - s(x)) = (pos + neg) log s(x) - neg x
    terms = both * log_sigmoid(x)
    terms -= neg * x
    terms *= k
    loss = -terms.sum(axis=(-2, -1)) / n

    # d/dx log s(x) = 1 - s and d/dx log(1 - s(x)) = -s give the derivative
    # pos (1 - s) - neg s = pos - (pos + neg) s of each term
    grad = both * sigmoid(x)
    grad -= pos
    grad *= k
    grad /= n
    return loss, grad


def combined_loss(expression, au, lam):
    """(1 - lambda) * L_e + lambda * L_AU, elementwise over the runs of a stack."""
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ContractError(f"lambda must be in [0, 1], got {lam}")
    return (1.0 - lam) * expression + lam * au


def finite_difference_check(evaluator, point, epsilon=1e-5):
    """Compare an evaluator's analytic gradient against central differences.

    evaluator(x) must return (loss, gradient) and be deterministic. Relative
    error per coordinate is |a - f| / max(1e-8, |a| + |f|).
    """
    if not 0.0 < epsilon < math.inf:
        raise ContractError(f"epsilon must be positive and finite, got {epsilon}")
    point = np.asarray(point, dtype=np.float64)
    loss, grad = evaluator(point)
    if not np.isfinite(loss):
        raise NumericFailure(f"non-finite loss at probe point: {loss}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != point.shape:
        raise ContractError("gradient shape does not match the probe point")
    if not np.isfinite(grad).all():
        # a NaN coordinate's relative error would be NaN, which max() skips
        raise NumericFailure("non-finite analytic gradient at probe point")

    flat = point.ravel().copy()
    max_rel = 0.0
    for idx in range(flat.size):
        saved = flat[idx]
        flat[idx] = saved + epsilon
        plus, _ = evaluator(flat.reshape(point.shape))
        flat[idx] = saved - epsilon
        minus, _ = evaluator(flat.reshape(point.shape))
        flat[idx] = saved
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise NumericFailure("non-finite loss during finite differencing")
        numeric = (plus - minus) / (2.0 * epsilon)
        analytic = grad.ravel()[idx]
        rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        max_rel = max(max_rel, rel)
    return GradReport(max_relative_error=max_rel, parameters_checked=flat.size)
