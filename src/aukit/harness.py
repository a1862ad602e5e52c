"""Training loop, WAR/UAR evaluation, studies (a lambda sweep, a strategy
comparison), and report artifacts (confusion CSV + SVG heatmap, embedding export)."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    ContractError,
    EXPRESSIONS,
    NUM_AUS,
    NUM_EXPRESSIONS,
    NumericFailure,
    check_au_labels,
    check_integers,
    check_numbers,
    expression_labels,
    integer_tuple,
)
from .labeling import STRATEGIES, compute_pos_weights
from .losses import (au_loss_kernel, combined_loss, expression_loss_kernel, loss_knowledge,
                     loss_pos_weights)
from .model import (
    TRAIN_DTYPE,
    ModelParams,
    OptimizerState,
    backward_kernel,
    cast_features,
    forward,
    forward_kernel,
    init_params,
    optimizer_step,
    stack_params,
)
from .tables import read_matrix, write_matrix, write_table

DEFAULT_LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(10))

# the TrainConfig fields a study may vary: each one's table column, and what
# its list of values is called in errors
STUDY_FIELDS = {"lam": ("lambda", "lambda grid"),
                "strategy": ("strategy", "strategy list")}

# TrainConfig fields that fix a run's shapes or schedule; runs trained
# together in one stack must share them
SHARED_FIELDS = ("hidden", "epochs", "batch_size", "learning_rate", "weight_decay")

# the header of a confusion table: rows are true classes, columns predicted
CONFUSION_HEADER = ("true", *EXPRESSIONS)

# the heatmap's cell side and axis-label margin, in SVG pixels
SVG_CELL = 48
SVG_MARGIN = 72


@dataclass(frozen=True)
class TrainConfig:
    """One training run's knobs."""

    lam: float = 0.2
    strategy: str = "distinct"
    epochs: int = 150
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    seed: int = 0
    hidden: tuple = (32,)

    def __post_init__(self):
        hidden = integer_tuple("hidden", self.hidden)
        check_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed)
        check_numbers(lam=self.lam, learning_rate=self.learning_rate,
                      weight_decay=self.weight_decay)
        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"lambda must be in [0, 1], got {self.lam}")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.seed < 0:
            raise ContractError("epochs and batch_size must be >= 1, and seed >= 0")
        if not 0.0 < self.learning_rate < np.inf:  # nan fails too
            raise ContractError(f"learning_rate must be finite and > 0, "
                                f"got {self.learning_rate}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ContractError(f"weight_decay must be finite and >= 0, "
                                f"got {self.weight_decay}")
        # Python ints, as the JSON header of a checkpoint takes them
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class TrainData:
    """Features, labels, and the knowledge/pos-weight inputs of one split
    pair, checked once, here (the knowledge and a pos-weight table as
    au_loss checks them). Both feature splits are held in TRAIN_DTYPE
    (cast_features: no copy if already in it), expression labels as int64."""

    features: np.ndarray          # N x F
    expr_labels: np.ndarray       # N
    au_labels: np.ndarray         # N x 18 binary
    knowledge: object             # loss-scaled KnowledgeMatrix
    pos_weights: object = None    # PosWeightSpec; each run's strategy's if None
    test_features: np.ndarray = None
    test_expr_labels: np.ndarray = None

    def __post_init__(self):
        if np.ndim(self.features) != 2:
            raise ContractError("features must be N x F")
        n, feature_dim = np.shape(self.features)
        if np.shape(self.expr_labels) != (n,) or np.shape(self.au_labels) != (n, NUM_AUS):
            raise ContractError("data shapes inconsistent")
        if n == 0:
            raise ContractError("cannot train on an empty dataset")
        check_au_labels(self.au_labels)
        loss_knowledge(self.knowledge)
        if self.pos_weights is not None:
            loss_pos_weights(self.pos_weights)
        splits = [("features", "expr_labels")]
        if self.test_features is not None or self.test_expr_labels is not None:
            test_n = np.shape(self.test_expr_labels)  # () if None
            if len(test_n) != 1 or np.shape(self.test_features) != (*test_n, feature_dim):
                raise ContractError("test split shapes inconsistent with the training split")
            if test_n == (0,):
                raise ContractError("cannot evaluate an empty test split")
            splits.append(("test_features", "test_expr_labels"))
        for features, labels in splits:
            object.__setattr__(self, labels, expression_labels(getattr(self, labels)))
            object.__setattr__(self, features,
                               cast_features(getattr(self, features), TRAIN_DTYPE))


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix plus the recall-based summary metrics."""

    confusion: np.ndarray         # 7 x 7, rows = true, columns = predicted
    per_class_recall: np.ndarray  # 7; NaN for unpopulated classes
    war: float
    uar: float


@dataclass(frozen=True)
class EpochLog:
    """One run's mean batch losses over an epoch, and its evaluation after it."""

    epoch: int
    loss_expression: float
    loss_au: float
    loss_total: float
    train: EvalReport
    test: EvalReport = None       # None without a test split


def evaluate_predictions(true_labels, predicted):
    true_labels = expression_labels(true_labels)
    predicted = expression_labels(predicted)
    if true_labels.shape != predicted.shape:
        raise ContractError("true and predicted labels differ in length")
    confusion = np.zeros((NUM_EXPRESSIONS, NUM_EXPRESSIONS), dtype=np.int64)
    np.add.at(confusion, (true_labels, predicted), 1)
    return report_from_confusion(confusion)


def report_from_confusion(confusion):
    """The EvalReport of a 7x7 matrix of counts (rows = true, columns =
    predicted). Negative counts, a total beyond the int64 range and a
    matrix without counts are ContractErrors."""
    confusion = np.asarray(confusion, dtype=np.int64)
    if confusion.shape != (NUM_EXPRESSIONS, NUM_EXPRESSIONS):
        raise ContractError(
            f"confusion matrix must be {NUM_EXPRESSIONS}x{NUM_EXPRESSIONS}"
        )
    if np.any(confusion < 0):
        raise ContractError("confusion counts must be >= 0")
    if confusion.sum(dtype=np.float64) >= 2.0 ** 63:
        raise ContractError("confusion counts total beyond the int64 range")
    if not confusion.any():
        raise ContractError("cannot evaluate an empty dataset")
    row_totals = confusion.sum(axis=1)
    populated = row_totals > 0
    recalls = np.where(populated, np.diag(confusion) / np.maximum(row_totals, 1), np.nan)
    return EvalReport(
        confusion=confusion,
        per_class_recall=recalls,
        war=float(np.diag(confusion).sum() / confusion.sum()),
        uar=float(np.nanmean(recalls[populated])),
    )


def _forward_in_train_dtype(params, features):
    """forward in TRAIN_DTYPE. Float64 parameters are rounded to it, exactly
    for checkpoints, which hold trained TRAIN_DTYPE values; features go
    through cast_features. Neither is copied if already in TRAIN_DTYPE."""
    return forward(params.astype(TRAIN_DTYPE), cast_features(features, TRAIN_DTYPE))


def predict(params, features):
    """Argmax expression prediction, computed in TRAIN_DTYPE; ties go to the
    lowest class index."""
    expr_logits, _, _ = _forward_in_train_dtype(params, features)
    return np.argmax(expr_logits, axis=1)


def evaluate(params, features, labels):
    return evaluate_predictions(labels, predict(params, features))


class Step:
    """One training step for a stack of R runs, built once per stack. A call
    on R x B batches runs the forward kernel and both loss kernels, joins
    the loss gradients at the logits in one reused d_head, scales them there
    by each run's 1 - lambda (expression logits) and lambda (AU logits), and
    runs the backward kernel, which writes the gradient of each run's
    combined_loss into `grads` (params.views of an R x P vector). It returns
    each run's (loss_e, loss_au) and checks nothing. Each run has its own
    lambda (`lams`) and pos-weight table (`pos_weights`: R x 7 x 18), all
    share `knowledge`, a loss-scaled KnowledgeMatrix, and all are cast to
    `dtype` once. A batch shorter than `batch` takes a prefix of d_head (laid
    out as a fresh array would be) and of the ones that sum bias gradients."""

    def __init__(self, lams, knowledge, pos_weights, batch, dtype):
        self.knowledge_by_class = np.array(knowledge.values.T, dtype=dtype, order="C")
        self.pos_weights = pos_weights.astype(dtype)
        self.runs = np.arange(len(lams))[:, None]
        lam = np.asarray(lams, dtype=np.float64)[:, None, None]
        self.head_scale = np.concatenate([
            np.broadcast_to(1.0 - lam, (len(lams), batch, NUM_EXPRESSIONS)),
            np.broadcast_to(lam, (len(lams), batch, NUM_AUS)),
        ], axis=-1, dtype=dtype)
        self.d_head = np.empty(self.head_scale.size, dtype=dtype)
        self.ones = np.ones(batch, dtype=dtype)

    def __call__(self, params, features, expr_labels, au_labels, grads):
        expr_logits, au_logits, acts = forward_kernel(params, features)
        loss_e, grad_e = expression_loss_kernel(expr_logits, expr_labels)
        loss_au, grad_au = au_loss_kernel(au_logits, au_labels, expr_labels,
                                          self.knowledge_by_class, self.pos_weights,
                                          self.runs)
        scale = self.head_scale[:, :expr_labels.shape[1]]
        d_head = self.d_head[:scale.size].reshape(scale.shape)
        d_head[..., :NUM_EXPRESSIONS] = grad_e
        d_head[..., NUM_EXPRESSIONS:] = grad_au
        d_head *= scale
        backward_kernel(params, d_head, acts, grads, self.ones[:expr_labels.shape[1]])
        return loss_e, loss_au


def _lockstep(configs, data, pos_weights):
    """Train the runs of `configs` together on `data` as one stack: one Step
    and one AdamW update per batch, for all runs. TrainData has checked the
    data, so nothing here checks it again. Each run keeps its own seed
    (initialisation and batch order), lambda and pos-weight table
    (`pos_weights`: R x 7 x 18), so its parameters equal, bit for bit, those
    of training it alone. Steps run in TRAIN_DTYPE, which TrainData holds
    `data.features` in; the AU labels are cast to it once, and the float64
    parameters init_params draws are rounded to it.
    Yields (epoch, params, state, loss_e, loss_au) after each epoch: the
    stacked parameters and optimizer state, in TRAIN_DTYPE, and each run's
    mean batch losses.
    """
    first = configs[0]
    features, expr_labels = data.features, data.expr_labels
    n, feature_dim = features.shape
    au_labels = np.asarray(data.au_labels, dtype=TRAIN_DTYPE)
    step = Step([config.lam for config in configs], data.knowledge, pos_weights,
                min(first.batch_size, n), TRAIN_DTYPE)
    params = stack_params([
        init_params(config.seed, feature_dim=feature_dim, hidden=first.hidden)
        for config in configs
    ]).astype(TRAIN_DTYPE)
    state = OptimizerState(learning_rate=first.learning_rate,
                           weight_decay=first.weight_decay)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    grads = np.empty_like(params.vector)  # every step overwrites it
    grad_views = params.views(grads)
    for epoch in range(first.epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        sum_e = np.zeros(len(configs))
        sum_au = np.zeros(len(configs))
        for batches, lo in enumerate(range(0, n, first.batch_size), start=1):
            idx = orders[:, lo:lo + first.batch_size]
            loss_e, loss_au = step(params, np.take(features, idx, axis=0),
                                   np.take(expr_labels, idx),
                                   np.take(au_labels, idx, axis=0), grad_views)
            finite = np.isfinite(loss_e) & np.isfinite(loss_au)
            if not finite.all():
                run = np.flatnonzero(~finite)[0]
                where = f" in run {run}" if len(configs) > 1 else ""
                raise NumericFailure(f"non-finite loss at epoch {epoch}{where}")
            optimizer_step(params, grads, state)
            sum_e += loss_e
            sum_au += loss_au
        yield epoch, params, state, sum_e / batches, sum_au / batches


def train(configs, data, every_epoch=False):
    """Train the runs of `configs` on `data` together, in lockstep, and score
    them; one run is a one-config list, lambda = 0 the expression-only
    baseline.

    The runs may differ in seed, lambda and strategy, and must share every
    field of SHARED_FIELDS. Every run's AU loss uses `data.pos_weights`, or,
    if that is None, the table of its own config's strategy from the
    training labels (computed once per strategy). A run's parameters equal,
    bit for bit, those of training it alone.

    After the last epoch, or after every epoch with `every_epoch`, each run
    is evaluated as it trains, in TRAIN_DTYPE, on the training split and the
    test split if there is one. With `every_epoch`, every epoch but the last
    is scored on one worker thread, from a copy of its parameters, while the
    next epoch trains; at most one scoring is in flight, and the last epoch
    is scored in the calling thread, so a call that scores only its last
    epoch starts no thread. The logs are those of scoring each epoch in turn.
    Returns (params, state, logs): the stacked parameters and optimizer state
    as trained, in TRAIN_DTYPE (`params.run(r)` is run r), and logs[r], run
    r's EpochLogs.
    Raises NumericFailure on a non-finite loss, gradient or optimizer
    moment, and ContractError on runs that do not share SHARED_FIELDS,
    before the first step; an error raised while scoring propagates
    unchanged. Shape and label errors, features outside TRAIN_DTYPE's range,
    knowledge that is not a loss-scaled KnowledgeMatrix and pos-weights that
    are not a PosWeightSpec are raised by TrainData, when `data` is built.
    """
    if not configs:
        raise ContractError("no runs to train")
    first = configs[0]
    for name in SHARED_FIELDS:
        if any(getattr(config, name) != getattr(first, name) for config in configs):
            raise ContractError(f"runs trained together must share {name}")
    tables = {
        strategy: compute_pos_weights(data.au_labels, data.expr_labels, strategy)
        if data.pos_weights is None else data.pos_weights
        for strategy in dict.fromkeys(config.strategy for config in configs)
    }
    pos_weights = np.stack([tables[config.strategy].values for config in configs])
    splits = [(data.features, data.expr_labels)]
    if data.test_features is not None:
        splits.append((data.test_features, data.test_expr_labels))
    logs = [[] for _ in configs]

    def score(epoch, params, loss_e, loss_au):
        for r, config in enumerate(configs):
            mean_e, mean_au = float(loss_e[r]), float(loss_au[r])
            reports = [evaluate(params.run(r), x, labels) for x, labels in splits]
            logs[r].append(EpochLog(epoch, mean_e, mean_au,
                                    combined_loss(mean_e, mean_au, config.lam),
                                    *reports))

    last = first.epochs - 1
    scoring = None
    # the worker thread starts at the first submit, so a call that scores
    # only its last epoch never starts it
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch, params, state, loss_e, loss_au in _lockstep(configs, data,
                                                               pos_weights):
            if not every_epoch and epoch < last:
                continue
            if scoring is not None:
                scoring.result()
            if epoch < last:
                # optimizer_step updates the live vector in place while
                # the next epoch trains, so the worker scores a copy
                snapshot = ModelParams(params.feature_dim, params.hidden,
                                       params.seed, params.vector.copy())
                scoring = worker.submit(score, epoch, snapshot, loss_e, loss_au)
            else:
                score(epoch, params, loss_e, loss_au)
    return params, state, logs


def study(config, data, field, values):
    """One run of `config` per value of its field `field` (a key of
    STUDY_FIELDS), trained together and evaluated once at the end. Returns
    one row per run: the value under the field's table column, then WAR, UAR
    and per-class recalls on the test split, or the training split when
    there is none. A strategy study computes each strategy's pos-weights
    from the training labels, so `data` may hold no explicit table."""
    if field not in STUDY_FIELDS:
        raise ContractError(f"cannot study {field!r}; fields: {sorted(STUDY_FIELDS)}")
    column, listed = STUDY_FIELDS[field]
    if len(values) == 0:
        raise ContractError(f"{listed} must be nonempty")
    if field == "strategy" and data.pos_weights is not None:
        raise ContractError("a strategy comparison computes each strategy's "
                            "pos-weights; an explicit table does not apply")
    _, _, logs = train([replace(config, **{field: v}) for v in values], data)
    rows = []
    for value, run_logs in zip(values, logs):
        report = run_logs[-1].test or run_logs[-1].train
        rows.append({column: value, "war": report.war, "uar": report.uar,
                     "per_class_recall": report.per_class_recall})
    return rows


def write_metric_rows(rows, path, key_column):
    """Tables as CSV with a one-line metadata header."""
    write_table(
        path,
        ([row[key_column], row["war"], row["uar"], *row["per_class_recall"]]
         for row in rows),
        (key_column, "war", "uar", *(f"recall_{name}" for name in EXPRESSIONS)),
        meta=(f"aukit table v1 key={key_column}",),
    )


def export_confusion(report, out_dir):
    """Write the 7x7 confusion matrix into the directory out_dir as
    confusion.csv and as the SVG heatmap confusion.svg."""
    write_matrix(os.path.join(out_dir, "confusion.csv"), EXPRESSIONS, report.confusion,
                 CONFUSION_HEADER, meta=("aukit confusion v1 rows=true cols=predicted",))
    write_confusion_svg(report, os.path.join(out_dir, "confusion.svg"))


def read_confusion_csv(path):
    """The 7x7 counts of an export_confusion file, as int64."""
    _, confusion = read_matrix(path, "confusion file", EXPRESSIONS, NUM_EXPRESSIONS,
                               CONFUSION_HEADER, kind=int)
    return confusion


def write_confusion_svg(report, path):
    """Self-contained heatmap: exactly 49 value cells and 14 axis labels."""
    size = SVG_MARGIN + NUM_EXPRESSIONS * SVG_CELL + 16
    peak = max(1, int(report.confusion.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    for i in range(NUM_EXPRESSIONS):
        for j in range(NUM_EXPRESSIONS):
            value = int(report.confusion[i, j])
            other = int(round(255 * (1.0 - value / peak)))
            x = SVG_MARGIN + j * SVG_CELL
            y = SVG_MARGIN + i * SVG_CELL
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" '
                f'width="{SVG_CELL}" height="{SVG_CELL}" '
                f'fill="rgb(255,{other},{other})" stroke="#444">'
                f"<title>{EXPRESSIONS[i]} as {EXPRESSIONS[j]}: {value}</title></rect>"
            )
    for idx, name in enumerate(EXPRESSIONS):
        x = SVG_MARGIN + idx * SVG_CELL + SVG_CELL // 2
        parts.append(
            f'<text class="axis-label" x="{x}" y="{SVG_MARGIN - 8}" '
            f'text-anchor="middle" font-size="11">{name}</text>'
        )
        y = SVG_MARGIN + idx * SVG_CELL + SVG_CELL // 2 + 4
        parts.append(
            f'<text class="axis-label" x="{SVG_MARGIN - 8}" y="{y}" '
            f'text-anchor="end" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def export_embeddings(params, features, labels, path):
    """Per-sample embeddings plus labels, for external projection tools;
    computed in TRAIN_DTYPE, as predictions are. Labels outside 0..6, or
    not one per feature row, are a ContractError."""
    labels = expression_labels(labels)
    if labels.shape != np.shape(features)[:1]:
        raise ContractError(f"{labels.size} labels for {len(features)} feature rows")
    _, _, embeddings = _forward_in_train_dtype(params, features)
    width = embeddings.shape[1]
    write_table(
        path,
        ([EXPRESSIONS[label], *row] for label, row in zip(
            labels.tolist(), embeddings.tolist())),
        ("label", *(f"e{k}" for k in range(width))),
        meta=(f"aukit embeddings v1 width={width}",),
    )
