"""Composite training loss: softmax expression loss, knowledge-weighted AU
loss, their convex combination, and a central finite-difference verifier.

All log-sigmoid terms use the stable form min(x, 0) - log1p(exp(-|x|))
(never a naive log of a sigmoid), so losses and gradients stay finite for any
logit magnitude.

The losses compute in their logits' dtype: float32 logits (a training step)
give float32 losses and gradients, float64 ones float64; logits given as
lists or integers are taken as float64.

expression_loss and au_loss check and convert their arguments, then run
their kernel (expression_loss_kernel, au_loss_kernel), which checks nothing
and holds the one copy of the math; a training loop that has checked its
data once calls the kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    ContractError,
    NUM_AUS,
    NUM_EXPRESSIONS,
    NumericFailure,
    expression_labels,
    float_array,
)
from .knowledge import sigmoid
from .labeling import PosWeightSpec

_CLASSES = np.arange(NUM_EXPRESSIONS)

# expression_loss's factor, the one training and gradient checks use
EXPRESSION_FACTOR = 5.0


@dataclass(frozen=True)
class GradReport:
    """Outcome of a finite-difference gradient check."""

    max_relative_error: float
    parameters_checked: int


def log_sigmoid(x):
    """log(sigmoid(x)) = min(x, 0) - log(1 + exp(-|x|)), computed without
    overflow."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def expression_loss(expr_logits, labels, factor=EXPRESSION_FACTOR):
    """Mean negative log(factor * p_target) with softmax probabilities.

    Returns (scalar loss, analytic gradient wrt logits). The factor shifts the
    loss by -log(factor) per sample and leaves the gradient untouched. The
    R x N x 7 logits and R x N labels of a stack of runs give R losses.
    Checks its arguments, then runs expression_loss_kernel.
    """
    expr_logits = float_array(expr_logits)
    if expr_logits.ndim < 2 or expr_logits.shape[-1] != NUM_EXPRESSIONS:
        raise ContractError(f"expr_logits must be Nx{NUM_EXPRESSIONS}")
    if expr_logits.shape[-2] < 1:
        raise ContractError("empty batch")
    if np.shape(labels) != expr_logits.shape[:-1]:
        raise ContractError("labels must be a length-N vector")
    labels = expression_labels(labels)
    if not 0 < factor < math.inf:  # nan fails too
        raise ContractError(f"factor must be finite and > 0, got {factor}")
    return expression_loss_kernel(expr_logits, labels, factor)


def expression_loss_kernel(expr_logits, labels, factor=EXPRESSION_FACTOR):
    """expression_loss on arguments it would accept, as it converts them:
    float logits, int64 labels of their shape but the last axis, in 0..6,
    and factor > 0. Nothing is checked."""
    n = expr_logits.shape[-2]
    # log p_target via the log-sum-exp identity; the same exponentials give
    # the softmax of the gradient
    target = labels[..., None] == _CLASSES  # one-hot
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
    """The 18 x 7 values of a loss-scaled KnowledgeMatrix; ContractError for
    a matrix of any other stage, or anything else (such as its bare values)."""
    stage = getattr(knowledge, "stage", type(knowledge).__name__)
    if stage != "loss-scaled":
        raise ContractError(
            f"au_loss expects a loss-scaled knowledge matrix, got {stage!r}"
        )
    return knowledge.values


def loss_pos_weights(pos_weights):
    """The 7 x 18 values of a PosWeightSpec; ContractError for anything else."""
    if not isinstance(pos_weights, PosWeightSpec):
        raise ContractError("au_loss expects pos-weights as a PosWeightSpec, "
                            f"got {type(pos_weights).__name__!r}")
    return pos_weights.values


def au_loss(au_logits, au_labels, expr_labels, knowledge, pos_weights):
    """Knowledge-weighted binary cross-entropy over the 18 AU logits.

    Element (i, j) contributes
        k[j, expr_i] * (pw[expr_i, j] * Y_ij * log s(x_ij)
                        + (1 - Y_ij) * log(1 - s(x_ij)))
    negated, summed over the 18 AUs and averaged over the N samples, as in
    the combined objective's N-normalised form. Returns (scalar, gradient
    wrt logits).
    A stack of R runs passes R x N x ... batches, which share the one
    pos-weight table, and gets R losses. `knowledge` is a loss-scaled
    KnowledgeMatrix (see loss_knowledge), `pos_weights` a PosWeightSpec
    (see loss_pos_weights); anything else is a ContractError.
    Checks its arguments, then runs au_loss_kernel.
    """
    au_logits = float_array(au_logits)
    au_labels = np.asarray(au_labels, dtype=au_logits.dtype)
    if au_logits.ndim < 2 or au_logits.shape[-1] != NUM_AUS:
        raise ContractError(f"au_logits must be Nx{NUM_AUS}")
    if au_labels.shape != au_logits.shape:
        raise ContractError("au_labels shape mismatch")
    if np.shape(expr_labels) != au_logits.shape[:-1]:
        raise ContractError("expr_labels must be a length-N vector")
    # a label of -1 would gather class 6's weights, one of 7 an IndexError
    expr_labels = expression_labels(expr_labels)
    knowledge = np.asarray(loss_knowledge(knowledge), dtype=au_logits.dtype)
    pw = np.asarray(loss_pos_weights(pos_weights), dtype=au_logits.dtype)
    return au_loss_kernel(au_logits, au_labels, expr_labels, knowledge.T, pw, None)


def au_loss_kernel(au_logits, au_labels, expr_labels, knowledge_by_class,
                   pos_weights, runs):
    """au_loss on arguments it would accept, as it converts them: the
    knowledge class-major (7 x 18) and everything in the logits' dtype but
    the int64 expression labels, which must lie in 0..6. `runs` is None for
    one 7 x 18 pos-weight table that every run shares; for R x 7 x 18
    per-run tables it is the R x 1 column 0..R-1 that picks each run's.
    Nothing is checked."""
    n = au_logits.shape[-2]
    k = knowledge_by_class[expr_labels]  # N x 18, per-sample expression column
    if runs is None:
        pw = pos_weights[expr_labels]  # N x 18, or R x N x 18 from the one table
    else:  # a stack: R x N x 18 from each run's table
        pw = pos_weights[runs, expr_labels]

    x = np.ascontiguousarray(au_logits)  # a strided view slows every op below
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
