"""Desk-scale dual-head network over precomputed features.

A small multilayer perceptron (affine + ReLU hidden layers) feeds one linear
head of 25 logits, the two heads in one product: 7 expression logits
(EXPRESSIONS order), then 18 AU logits (AU_NAMES order). Weights are stored
fan-in-major, as the products read them, and every trainable array is a view
into one contiguous float vector, so gradients, AdamW moments and
checkpoints share a single layout. Parameters are drawn and checkpointed in
float64; training steps and evaluation run in float32 (TRAIN_DTYPE, which
feature files hold), and trained parameters stay in it. forward, the kernels
and optimizer_step compute in their parameters' dtype. forward checks its
arguments and then runs forward_kernel, which checks nothing and holds the
one copy of the math; a training step (harness.Step), whose data is checked
once, runs forward_kernel and backward_kernel, then optimizer_step, which
checks only finiteness. Gradients are written out by hand so they can be
verified against finite differences. The optimizer is AdamW: the weight
decay decoupled and applied first, as torch.optim.AdamW does, and the bias
corrections folded into two scalars, as in the Adam paper's efficient form.
Training is bit-reproducible.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (ContractError, NUM_AUS, NUM_EXPRESSIONS, NumericFailure, check_integers,
                     integer_tuple)
from .sealed import read_sealed, write_sealed

CHECKPOINT_MAGIC = b"AUKITCKPT"
CHECKPOINT_VERSION = 4
CHECKPOINT_FIELDS = ("feature_dim", "hidden", "layout", "seed")  # and "version"

# not a prefix of the magic of the unsealed float64 files before version 2
FEATURE_MAGIC = b"AUKITFEATS"
FEATURE_VERSION = 2

# the dtype of feature files, training steps and evaluation: features,
# parameters, moments, batches, losses, gradients and predictions;
# initialisation, checkpoints and gradient checks stay float64
TRAIN_DTYPE = np.float32

# AdamW's moment decay rates and denominator offset: torch.optim.AdamW's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def param_layout(feature_dim, hidden):
    """name -> (offset, shape) of every trainable array, in sorted-name order."""
    widths = [feature_dim] + list(hidden)
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        shapes[f"hidden.{i}.w"] = (fan_in, fan_out)
        shapes[f"hidden.{i}.b"] = (fan_out,)
    shapes["head.w"] = (widths[-1], NUM_EXPRESSIONS + NUM_AUS)
    shapes["head.b"] = (NUM_EXPRESSIONS + NUM_AUS,)
    layout = {}
    offset = 0
    for name in sorted(shapes):
        layout[name] = (offset, shapes[name])
        offset += math.prod(shapes[name])
    return layout


class ModelParams:
    """One contiguous parameter vector (float64 unless cast with astype) plus
    its name -> (offset, shape) layout. The named arrays are views into
    `vector`: write through them, never rebind them.

    A stack of R runs trained together has an R x P `vector`, one row and
    one seed per run, and its named arrays carry the same leading run axis;
    forward, the kernels and optimizer_step take a stack as they take one run.
    """

    def __init__(self, feature_dim, hidden, seed, vector=None):
        self.feature_dim = feature_dim
        self.hidden = tuple(hidden)
        self.seed = seed
        self.layout = param_layout(feature_dim, self.hidden)
        # name -> (slice of the flat vector, shape), for views()
        self.slices = {
            name: (slice(offset, offset + math.prod(shape)), shape)
            for name, (offset, shape) in self.layout.items()
        }
        if vector is None:
            vector = np.zeros(sum(math.prod(s) for _, s in self.layout.values()))
        self.vector = vector
        named = self.views(self.vector)
        self.hidden_weights = [named[f"hidden.{i}.w"] for i in range(len(self.hidden))]
        self.hidden_biases = [named[f"hidden.{i}.b"] for i in range(len(self.hidden))]
        self.head_weight = named["head.w"]  # F' x 25
        self.head_bias = named["head.b"]

    def views(self, flat):
        """name -> view of `flat`, a vector (or a stack of vectors) in this
        parameter layout."""
        lead = flat.shape[:-1]
        return {
            name: flat[..., span].reshape(lead + shape)
            for name, (span, shape) in self.slices.items()
        }

    def run(self, r):
        """Run r of a stack; its arrays are views into the stack's vector."""
        return ModelParams(self.feature_dim, self.hidden, self.seed[r], self.vector[r])

    def astype(self, dtype):
        """These parameters with the vector in `dtype`: a copy, unless the
        vector already is."""
        if self.vector.dtype == dtype:
            return self
        return ModelParams(self.feature_dim, self.hidden, self.seed,
                           self.vector.astype(dtype))


def stack_params(runs):
    """The runs' parameters as one stack: their vectors on a leading run axis."""
    first = runs[0]
    shape = (first.feature_dim, first.hidden)
    if any((p.feature_dim, p.hidden) != shape for p in runs):
        raise ContractError("stacked runs must share feature_dim and hidden sizes")
    return ModelParams(
        first.feature_dim,
        first.hidden,
        seed=tuple(p.seed for p in runs),
        vector=np.stack([p.vector for p in runs]),
    )


@dataclass
class OptimizerState:
    """Moment accumulators, learning rate and weight decay of the AdamW update.

    m and v are flat vectors in the parameter layout and dtype (R x P for a
    stack of R runs, which share the hyperparameters and the step count),
    allocated at the first step. optimizer_step keeps two work vectors of
    the same shape in `scratch`, allocated with them; they hold no state.
    """

    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None
    scratch: tuple = field(default=None, init=False, repr=False, compare=False)


def _glorot(rng, fan_in, fan_out):
    """A fan_in x fan_out uniform fan-based draw, drawn fan-out-major."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in)).T


def _model_fields(feature_dim, hidden, seed):
    """feature_dim, hidden (a tuple) and seed as Python ints; a ContractError
    unless feature_dim and each hidden size are integers >= 1 and seed an
    integer >= 0, as domain.check_integers takes them (no bool or float)."""
    hidden = integer_tuple("hidden", hidden)
    check_integers(feature_dim=feature_dim, seed=seed)
    if feature_dim < 1 or seed < 0 or any(h < 1 for h in hidden):
        raise ContractError("feature_dim and hidden sizes must be >= 1, and seed >= 0")
    return int(feature_dim), hidden, int(seed)


def init_params(seed, feature_dim, hidden):
    """Seeded uniform fan-based init; biases start at zero.

    Weights are drawn hidden layers first, then the head's expression block,
    then its AU block, each fan-out-major and stored transposed.
    """
    feature_dim, hidden, seed = _model_fields(feature_dim, hidden, seed)
    rng = np.random.default_rng(seed)
    params = ModelParams(feature_dim, hidden, seed=seed)
    for w in params.hidden_weights + np.split(params.head_weight, [NUM_EXPRESSIONS], 1):
        w[...] = _glorot(rng, *w.shape)
    return params


def _affine(x, w, b):
    """x @ w + b, for one run or a stack of runs, added in place."""
    out = x @ w
    out += b[..., None, :]
    return out


def forward(params, features):
    """Run the shared pathway and the head.

    Returns (expr_logits Nx7, au_logits Nx18, embeddings NxF'), the logits
    views of one N x 25 output. A stack of R runs takes R x N x F features
    and returns R x N x ... outputs. Checks its arguments, then runs
    forward_kernel.
    """
    features = np.asarray(features, dtype=params.vector.dtype)
    if features.ndim != params.vector.ndim + 1 or (
        features.shape[-1] != params.feature_dim
    ):
        raise ContractError(
            f"features must be Nx{params.feature_dim}, got {features.shape}"
        )
    expr_logits, au_logits, activations = forward_kernel(params, features)
    return expr_logits, au_logits, activations[-1]


def forward_kernel(params, features):
    """forward on features it would accept, in the parameters' dtype.
    Returns (expr_logits, au_logits, activations): the logits are views of
    one N x 25 output, their base; the activations are the features, then
    each hidden layer's output, the embeddings last. Nothing is checked."""
    activations = [features]
    h = features
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        h = _affine(h, w, b)
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    logits = _affine(h, params.head_weight, params.head_bias)
    return logits[..., :NUM_EXPRESSIONS], logits[..., NUM_EXPRESSIONS:], activations


def backward_kernel(params, d_head, activations, grads, ones):
    """Exact gradients of a loss wrt every parameter, from its N x 25
    gradient d_head at the logits (the expression columns, then the AU
    ones), back through the head into the shared hidden pathway, using the
    activations forward_kernel returned. Overwrites `grads`, the named views
    (params.views) of a gradient vector in the layout of params.vector;
    `ones` is a length-N vector of ones. Everything is in the parameters'
    dtype, and a stack takes R x N x ... arrays. Nothing is checked."""
    # bias gradients sum over the batch as a product with a row of ones: one
    # BLAS call per run, where sum(axis=-2) loops over the batch's rows
    np.matmul(activations[-1].swapaxes(-1, -2), d_head, out=grads["head.w"])
    np.matmul(ones, d_head, out=grads["head.b"])
    dh = d_head @ params.head_weight.swapaxes(-1, -2)
    for i in reversed(range(len(params.hidden_weights))):
        dz = dh * (activations[i + 1] > 0.0)
        np.matmul(activations[i].swapaxes(-1, -2), dz, out=grads[f"hidden.{i}.w"])
        np.matmul(ones, dz, out=grads[f"hidden.{i}.b"])
        if i > 0:  # the gradient wrt the input features is never used
            dh = dz @ params.hidden_weights[i].swapaxes(-1, -2)


def _check_finite(params, flat, what):
    """NumericFailure naming the first array of `flat` with a non-finite entry
    (and its run, in a stack of more than one)."""
    finite = np.isfinite(flat)
    if not finite.all():
        run, bad = divmod(int(np.flatnonzero(~finite)[0]), flat.shape[-1])
        name = next(name for name, (span, _) in params.slices.items()
                    if bad < span.stop)
        where = f" in run {run}" if flat.ndim > 1 and len(flat) > 1 else ""
        raise NumericFailure(f"non-finite {what} for {name}{where}")


def optimizer_step(params, grads, state):
    """One AdamW update with decoupled weight decay (in place), over the
    whole vector or stack at once.

    grads is a flat vector in the layout, dtype and shape of params.vector
    (R x P for a stack). After the usual m and v updates, with
    c1 = 1 - ADAM_BETA1^t and c2 = 1 - ADAM_BETA2^t, it decays first, as
    torch.optim.AdamW does, and folds the bias corrections into two
    scalars, as the efficient form of the Adam paper (Kingma and Ba,
    section 2) does:
        p *= 1 - lr * wd
        p -= (lr * sqrt(c2) / c1) * m / (sqrt(v) + ADAM_EPS * sqrt(c2))
    That is the textbook lr * m_hat / (sqrt(v_hat) + eps) in exact
    arithmetic, with one divide and no pass for m_hat or v_hat; its rounding
    differs in the last bits.

    Only finiteness is checked: a non-finite gradient, or one whose square
    overflows the second moment, raises NumericFailure naming the first
    array at fault (and its run, in a stack) with params.vector untouched;
    state.m, state.v and state.step may already have been updated.
    """
    p = params.vector
    if state.m is None:
        state.m = np.zeros_like(p)
        state.v = np.zeros_like(p)
    if state.scratch is None:
        state.scratch = (np.empty_like(p), np.empty_like(p))
    state.step += 1
    t = state.step
    lr = state.learning_rate
    # Python floats: a numpy float64 scalar would run the in-place float32
    # operations below through float64
    c2_root = math.sqrt(1.0 - ADAM_BETA2 ** t)
    m, v = state.m, state.v
    update, scratch = state.scratch

    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=update)
    m += update
    v *= ADAM_BETA2
    with np.errstate(over="ignore"):  # an overflow fails the check below
        np.multiply(grads, 1.0 - ADAM_BETA2, out=update)
        update *= grads
        v += update
    # a nan or infinite gradient makes v so too, and v >= 0 holds no -inf, so
    # its maximum is finite exactly when the gradient and v both are
    if not math.isfinite(v.max()):
        _check_finite(params, grads, "gradient")
        _check_finite(params, v, "second moment (gradient too large)")
    np.sqrt(v, out=scratch)
    scratch += ADAM_EPS * c2_root
    np.divide(m, scratch, out=update)
    update *= lr * c2_root / (1.0 - ADAM_BETA1 ** t)
    p *= 1.0 - lr * state.weight_decay
    p -= update


def save_checkpoint(params, path):
    """Versioned sealed binary checkpoint (see aukit.sealed for the framing).

    The JSON header holds the seed and the parameter layout; the payload is
    the parameter vector as little-endian float64, written from the array
    itself (copied only if it is in another dtype or not contiguous). No
    optimizer state is kept: no command resumes training. Deliberately not
    np.savez: zip entries carry timestamps, which would break bit-identical
    checkpoints across reruns. A stack of runs is a ContractError: save
    each run (params.run(r)) on its own.
    """
    if params.vector.ndim != 1:
        raise ContractError("a checkpoint holds one run, not a stack of "
                            f"{len(params.vector)}; save params.run(r)")
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": params.seed,
        "feature_dim": params.feature_dim,
        "hidden": list(params.hidden),
        "layout": params.layout,
    }
    write_sealed(path, CHECKPOINT_MAGIC, header,
                 np.ascontiguousarray(params.vector, dtype="<f8"))


def load_checkpoint(path):
    """The ModelParams of a save_checkpoint file, their vector a view into
    the file's buffer. Every header field is checked before anything is
    allocated for it; a tampered, truncated or other-version file is a
    ContractError."""
    header, payload = read_sealed(path, CHECKPOINT_MAGIC, "checkpoint",
                                  CHECKPOINT_VERSION, CHECKPOINT_FIELDS)
    try:
        feature_dim, hidden, seed = _model_fields(header["feature_dim"], header["hidden"],
                                                  header["seed"])
    except ContractError as exc:
        raise ContractError(f"corrupt checkpoint: {exc}") from None
    layout = param_layout(feature_dim, hidden)
    if header["layout"] != json.loads(json.dumps(layout)):
        raise ContractError("corrupt checkpoint: layout does not match the model")
    if len(payload) != 8 * sum(math.prod(shape) for _, shape in layout.values()):
        raise ContractError("corrupt checkpoint: payload does not match the header")
    return ModelParams(feature_dim, hidden, seed=seed,
                       vector=np.frombuffer(payload, dtype="<f8"))


def cast_features(features, dtype):
    """`features` as `dtype`, with no copy if they already are.

    Finite values beyond `dtype`'s range raise NumericFailure, with no
    overflow warning; nan and inf pass through.
    """
    features = np.asarray(features)
    if features.dtype == dtype:
        return features
    with np.errstate(over="ignore"):  # an overflow fails the check below
        cast = features.astype(dtype)
    overflowed = np.isinf(cast)
    if overflowed.any():
        overflowed &= np.isfinite(features)
        if overflowed.any():
            raise NumericFailure(
                f"features outside the {np.dtype(dtype).name} range "
                f"(|x| = {np.abs(features[overflowed][0]):.3g})"
            )
    return cast


def save_features(features, path):
    """An N x F matrix as a sealed file: its version and shape, then its
    values as little-endian TRAIN_DTYPE, row-major. The cast goes through
    cast_features, so nothing is written if it fails."""
    features = cast_features(features, TRAIN_DTYPE)
    n, f = features.shape
    write_sealed(path, FEATURE_MAGIC, {"version": FEATURE_VERSION, "shape": [n, f]},
                 np.ascontiguousarray(features, dtype="<f4"))


def load_features(path):
    """Inverse of save_features, as a view into the file's buffer; rejects
    tampered, truncated or unsealed files, and names a nan or inf cell."""
    header, payload = read_sealed(path, FEATURE_MAGIC, "feature file",
                                  FEATURE_VERSION, ("shape",))
    shape = header["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)
            and len(payload) == 4 * math.prod(shape)):
        raise ContractError("corrupt feature file: payload does not match the header")
    features = np.frombuffer(payload, dtype="<f4").reshape(shape)
    # a nan or inf cell shows in the minimum or the maximum, which need no
    # N x F mask
    if features.size and not np.isfinite([features.min(), features.max()]).all():
        row, column = np.argwhere(~np.isfinite(features))[0]
        raise ContractError(
            f"{path}: non-finite feature {features[row, column]} at row {row + 1}, "
            f"column {column + 1}"
        )
    return features
