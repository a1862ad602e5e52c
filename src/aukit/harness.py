"""Training loop, WAR/UAR evaluation, lambda sweep, strategy comparison, and
report artifacts (confusion CSV + SVG heatmap, embedding export)."""

from dataclasses import dataclass, replace

import numpy as np

from .domain import ContractError, EXPRESSIONS, NUM_EXPRESSIONS, NumericFailure
from .labeling import STRATEGIES, compute_pos_weights
from .losses import au_loss, combined_loss, expression_loss, loss_knowledge
from .model import (
    TRAIN_DTYPE,
    OptimizerState,
    backward,
    cast_features,
    forward,
    init_params,
    optimizer_step,
    stack_params,
)
from .tables import read_matrix, write_matrix, write_table

DEFAULT_LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(10))

# TrainConfig fields that fix a run's shapes or schedule; runs trained
# together in one stack must share them
SHARED_FIELDS = ("hidden", "epochs", "batch_size", "learning_rate", "weight_decay",
                 "factor")

# the header of a confusion table: rows are true classes, columns predicted
CONFUSION_HEADER = ("true", *EXPRESSIONS)


@dataclass
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
    factor: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"lambda must be in [0, 1], got {self.lam}")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.seed < 0:
            raise ContractError("epochs and batch_size must be >= 1, and seed >= 0")
        for name in ("learning_rate", "factor"):
            if not 0.0 < getattr(self, name) < np.inf:  # nan fails too
                raise ContractError(f"{name} must be finite and > 0, "
                                    f"got {getattr(self, name)}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ContractError(f"weight_decay must be finite and >= 0, "
                                f"got {self.weight_decay}")


@dataclass
class TrainData:
    """Features, labels, and the knowledge/pos-weight inputs of one split pair."""

    features: np.ndarray          # N x F
    expr_labels: np.ndarray       # N
    au_labels: np.ndarray         # N x 18 binary
    knowledge: object             # loss-scaled KnowledgeMatrix
    pos_weights: object = None    # PosWeightSpec; the config's strategy's if None
    test_features: np.ndarray = None
    test_expr_labels: np.ndarray = None


@dataclass
class EvalReport:
    """Confusion matrix plus the recall-based summary metrics."""

    confusion: np.ndarray         # 7 x 7, rows = true, columns = predicted
    per_class_recall: np.ndarray  # 7; NaN for unpopulated classes
    war: float
    uar: float
    samples: int


@dataclass
class EpochLog:
    epoch: int
    loss_expression: float
    loss_au: float
    loss_total: float
    train_war: float
    train_uar: float
    test_war: float = float("nan")
    test_uar: float = float("nan")


def evaluate_predictions(true_labels, predicted):
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.shape != predicted.shape:
        raise ContractError("true and predicted labels differ in length")
    for labels in (true_labels, predicted):
        if np.any((labels < 0) | (labels >= NUM_EXPRESSIONS)):
            raise ContractError("expression label out of range")
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
    recalls = np.where(
        populated, np.diag(confusion) / np.maximum(row_totals, 1), np.nan
    )
    return EvalReport(
        confusion=confusion,
        per_class_recall=recalls,
        war=float(np.diag(confusion).sum() / confusion.sum()),
        uar=float(np.nanmean(recalls[populated])),
        samples=int(confusion.sum()),
    )


def _forward_in_train_dtype(params, features):
    """forward in TRAIN_DTYPE. Float64 parameters are rounded to it, exactly
    for trained ones and checkpoints, which hold TRAIN_DTYPE values; features
    go through cast_features. Neither is copied if already in TRAIN_DTYPE."""
    return forward(params.astype(TRAIN_DTYPE), cast_features(features, TRAIN_DTYPE))


def predict(params, features):
    """Argmax expression prediction, computed in TRAIN_DTYPE; ties go to the
    lowest class index."""
    expr_logits, _, _ = _forward_in_train_dtype(params, features)
    return np.argmax(expr_logits, axis=1)


def evaluate(params, features, labels):
    return evaluate_predictions(labels, predict(params, features))


def _lockstep(configs, data, pos_weights):
    """Train the runs of `configs` together on `data` as one stack.

    Parameters, AdamW moments and batches carry a leading run axis, so each
    step is one forward, backward and optimizer call for all runs. Each run
    keeps its own seed (initialisation and batch order), lambda and
    pos-weight table (`pos_weights`: R x 7 x 18), so its parameters equal,
    bit for bit, those of training it alone.

    Steps run in TRAIN_DTYPE, which `data.features` arrive in (batches are
    gathered from them). Everything else stepped is cast once, before the
    first epoch: AU labels, lambda scales, pos-weights and the knowledge
    table; the float64 parameters init_params draws are rounded to it.
    Yields (epoch, params, state, loss_e, loss_au) after each epoch: the
    stacked parameters and optimizer state, in TRAIN_DTYPE, and each run's
    mean batch losses.
    """
    first = configs[0]
    features = data.features
    n, feature_dim = features.shape
    expr_labels = np.asarray(data.expr_labels, dtype=np.int64)
    au_labels = np.asarray(data.au_labels, dtype=TRAIN_DTYPE)
    knowledge = loss_knowledge(data.knowledge).astype(TRAIN_DTYPE)
    pw = pos_weights.astype(TRAIN_DTYPE)
    lam = np.array([config.lam for config in configs])
    expr_scale = (1.0 - lam).astype(TRAIN_DTYPE)[:, None, None]
    au_scale = lam.astype(TRAIN_DTYPE)[:, None, None]

    params = stack_params([
        init_params(config.seed, feature_dim=feature_dim, hidden=first.hidden)
        for config in configs
    ]).astype(TRAIN_DTYPE)
    state = OptimizerState(
        learning_rate=first.learning_rate, weight_decay=first.weight_decay
    )
    rngs = [np.random.default_rng(config.seed) for config in configs]
    for epoch in range(first.epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        sum_e = np.zeros(len(configs))
        sum_au = np.zeros(len(configs))
        batches = 0
        for lo in range(0, n, first.batch_size):
            idx = orders[:, lo:lo + first.batch_size]
            batch_x = features[idx]
            batch_expr = expr_labels[idx]
            expr_logits, au_logits, _, acts = forward(
                params, batch_x, return_hidden=True
            )
            loss_e, grad_e = expression_loss(
                expr_logits, batch_expr, factor=first.factor
            )
            loss_au, grad_au = au_loss(
                au_logits,
                au_labels[idx],
                batch_expr,
                knowledge,
                pw,
            )
            finite = np.isfinite(loss_e) & np.isfinite(loss_au)
            if not finite.all():
                run = np.flatnonzero(~finite)[0]
                where = f" in run {run}" if len(configs) > 1 else ""
                raise NumericFailure(f"non-finite loss at epoch {epoch}{where}")
            grads = backward(
                params,
                batch_x,
                expr_scale * grad_e,
                au_scale * grad_au,
                activations=acts,
            )
            params, state = optimizer_step(params, grads, state)
            sum_e += loss_e
            sum_au += loss_au
            batches += 1
        yield epoch, params, state, sum_e / batches, sum_au / batches


def _train_together(configs, data, pos_weights):
    """`data` with its features and test features in TRAIN_DTYPE (cast once,
    no copy if they already are), and _lockstep's epochs for the runs of
    `configs` on it, once the runs and data are checked and each run's
    pos-weight table is resolved.

    This is the one place a run's table is chosen: its entry of
    `pos_weights` (a PosWeightSpec or 7 x 18 values) if it has one, else,
    for None, the table of its config's strategy from data's labels
    (computed once per strategy).
    """
    if not configs:
        raise ContractError("no runs to train")
    if len(pos_weights) != len(configs):
        raise ContractError("one pos-weight table per run expected")
    first = configs[0]
    for name in SHARED_FIELDS:
        if any(getattr(config, name) != getattr(first, name) for config in configs):
            raise ContractError(f"runs trained together must share {name}")
    if np.ndim(data.features) != 2:
        raise ContractError("features must be N x F")
    n = len(data.features)
    if np.shape(data.expr_labels) != (n,) or np.shape(data.au_labels)[:1] != (n,):
        raise ContractError("data shapes inconsistent")
    if n == 0:
        raise ContractError("cannot train on an empty dataset")
    runs = list(zip(configs, pos_weights))
    computed = {
        strategy: compute_pos_weights(data.au_labels, data.expr_labels, strategy)
        for strategy in dict.fromkeys(c.strategy for c, table in runs if table is None)
    }
    tables = [computed[c.strategy] if table is None else table for c, table in runs]
    data = replace(
        data,
        features=cast_features(data.features, TRAIN_DTYPE),
        test_features=None if data.test_features is None
        else cast_features(data.test_features, TRAIN_DTYPE),
    )
    return data, _lockstep(
        configs, data, np.stack([getattr(table, "values", table) for table in tables])
    )


def train(config, data):
    """Run the combined-loss loop; lambda = 0 is the expression-only baseline.

    The AU loss uses `data.pos_weights`, or, if None, the table of
    `config.strategy` from the training labels. Training steps and
    evaluation run in TRAIN_DTYPE: the parameters are evaluated as they
    train, on the training split, and the test split if there is one, after
    every epoch. Returns (params, state, list of EpochLog), params and state
    upcast to float64. Raises NumericFailure on features outside
    TRAIN_DTYPE's range, or a non-finite loss, gradient or optimizer moment.
    """
    logs = []
    data, epochs = _train_together([config], data, [data.pos_weights])
    for epoch, stack, state, loss_e, loss_au in epochs:
        params = stack.run(0)
        mean_e = float(loss_e[0])
        mean_au = float(loss_au[0])
        train_report = evaluate(params, data.features, data.expr_labels)
        entry = EpochLog(
            epoch=epoch,
            loss_expression=mean_e,
            loss_au=mean_au,
            loss_total=combined_loss(mean_e, mean_au, config.lam),
            train_war=train_report.war,
            train_uar=train_report.uar,
        )
        if data.test_features is not None:
            test_report = evaluate(params, data.test_features, data.test_expr_labels)
            entry.test_war = test_report.war
            entry.test_uar = test_report.uar
        logs.append(entry)
    return params.astype(np.float64), state.run(0).astype(np.float64), logs


def train_stacked(configs, data, pos_weights=None):
    """Train several runs on one dataset together, in lockstep.

    The runs may differ in seed, lambda and pos-weights (`pos_weights`: one
    PosWeightSpec per run, or None for the table of the run's strategy; by
    default `data.pos_weights` for every run) and must share every field of
    SHARED_FIELDS. Nothing is evaluated. Returns one (params, state) per
    run, in float64, bit-identical to what `train` returns for that run
    alone.
    """
    if pos_weights is None:
        pos_weights = [data.pos_weights] * len(configs)
    _, epochs = _train_together(configs, data, pos_weights)
    for _, params, state, _, _ in epochs:
        pass
    params, state = params.astype(np.float64), state.astype(np.float64)
    return [(params.run(r), state.run(r)) for r in range(len(configs))]


def _train_and_score(key, values, configs, data, pos_weights=None):
    """train_stacked the runs of `configs`, then score each once at the end,
    on the test split, or the training split when there is none. One row per
    run: `key` (its entry of `values`), WAR, UAR and per-class recalls."""
    if data.test_features is None:
        features, labels = data.features, data.expr_labels
    else:
        features, labels = data.test_features, data.test_expr_labels
    rows = []
    for value, (params, _) in zip(values, train_stacked(configs, data, pos_weights)):
        report = evaluate(params, features, labels)
        rows.append({key: value, "war": report.war, "uar": report.uar,
                     "per_class_recall": report.per_class_recall})
    return rows


def lambda_sweep(config, data, grid=DEFAULT_LAMBDA_GRID):
    """One run per grid point with a fixed seed set, trained together, each
    evaluated once at the end.

    Returns rows of (lambda, WAR, UAR, per-class recalls).
    """
    if len(grid) == 0:
        raise ContractError("lambda grid must be nonempty")
    grid = [float(lam) for lam in grid]
    return _train_and_score("lambda", grid,
                            [replace(config, lam=lam) for lam in grid], data)


def strategy_compare(config, data, strategies=STRATEGIES):
    """Per-strategy WAR/UAR and per-class recall rows, one table row each;
    each strategy's pos-weights come from the training split's labels, and
    the runs train together and are evaluated once at the end."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ContractError(f"unknown strategies: {unknown}")
    return _train_and_score("strategy", list(strategies),
                            [replace(config, strategy=s) for s in strategies], data,
                            [None] * len(strategies))


def write_metric_rows(rows, path, key_column):
    """Tables as CSV with a one-line metadata header."""
    write_table(
        path,
        ([row[key_column], row["war"], row["uar"], *row["per_class_recall"]]
         for row in rows),
        (key_column, "war", "uar", *(f"recall_{name}" for name in EXPRESSIONS)),
        meta=(f"aukit table v1 key={key_column}",),
    )


def export_confusion(report, csv_path, svg_path=None):
    """Emit the 7x7 confusion matrix as CSV and (optionally) an SVG heatmap."""
    write_matrix(csv_path, EXPRESSIONS, report.confusion, CONFUSION_HEADER,
                 meta=("aukit confusion v1 rows=true cols=predicted",))
    if svg_path is not None:
        write_confusion_svg(report, svg_path)


def read_confusion_csv(path):
    """The 7x7 counts of an export_confusion file, as int64."""
    _, confusion = read_matrix(path, "confusion file", EXPRESSIONS, NUM_EXPRESSIONS,
                               CONFUSION_HEADER, kind=int)
    return confusion


def write_confusion_svg(report, path, cell=48, margin=72):
    """Self-contained heatmap: exactly 49 value cells and 14 axis labels."""
    size = margin + NUM_EXPRESSIONS * cell + 16
    peak = max(1, int(report.confusion.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
    ]
    for i in range(NUM_EXPRESSIONS):
        for j in range(NUM_EXPRESSIONS):
            value = int(report.confusion[i, j])
            intensity = value / peak
            red = 255
            other = int(round(255 * (1.0 - intensity)))
            x = margin + j * cell
            y = margin + i * cell
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({red},{other},{other})" stroke="#444">'
                f"<title>{EXPRESSIONS[i]} as {EXPRESSIONS[j]}: {value}</title></rect>"
            )
    for idx, name in enumerate(EXPRESSIONS):
        x = margin + idx * cell + cell // 2
        parts.append(
            f'<text class="axis-label" x="{x}" y="{margin - 8}" '
            f'text-anchor="middle" font-size="11">{name}</text>'
        )
        y = margin + idx * cell + cell // 2 + 4
        parts.append(
            f'<text class="axis-label" x="{margin - 8}" y="{y}" '
            f'text-anchor="end" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def export_embeddings(params, features, labels, path):
    """Per-sample embeddings plus labels, for external projection tools;
    computed in TRAIN_DTYPE, as predictions are."""
    _, _, embeddings = _forward_in_train_dtype(params, features)
    width = embeddings.shape[1]
    write_table(
        path,
        ([EXPRESSIONS[label], *row] for label, row in zip(
            np.asarray(labels, dtype=np.int64).tolist(), embeddings.tolist())),
        ("label", *(f"e{k}" for k in range(width))),
        meta=(f"aukit embeddings v1 width={width}",),
    )
