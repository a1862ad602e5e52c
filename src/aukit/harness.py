"""Training loop, WAR/UAR evaluation, lambda sweep, strategy comparison, and
report artifacts (confusion CSV + SVG heatmap, embedding export)."""

import time
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    ContractError,
    EXPRESSIONS,
    MAJOR_CLASSES,
    NUM_EXPRESSIONS,
    NumericFailure,
    parse_numbers,
)
from .labeling import STRATEGIES, compute_pos_weights, pos_weight_none
from .losses import au_loss, combined_loss, expression_loss
from .model import OptimizerState, backward, forward, init_params, optimizer_step

DEFAULT_LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(10))


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
    # the per-sample reduction is what the combined objective's N-normalised
    # form writes; the per-element mean stays available for parity with the
    # common binary-cross-entropy utilities
    au_loss_reduction: str = "mean-samples"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ContractError(f"lambda must be in [0, 1], got {self.lam}")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy: {self.strategy!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")


@dataclass
class TrainData:
    """Features, labels, and the knowledge/pos-weight inputs of one split pair."""

    features: np.ndarray          # N x F
    expr_labels: np.ndarray       # N
    au_labels: np.ndarray         # N x 18 binary
    knowledge: object             # loss-scaled KnowledgeMatrix
    pos_weights: object = None    # PosWeightSpec; filled from strategy if None
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
    seconds: float = 0.0


def evaluate_predictions(true_labels, predicted):
    true_labels = np.asarray(true_labels, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if true_labels.size == 0:
        raise ContractError("cannot evaluate an empty dataset")
    if true_labels.shape != predicted.shape:
        raise ContractError("true and predicted labels differ in length")
    for labels in (true_labels, predicted):
        if np.any((labels < 0) | (labels >= NUM_EXPRESSIONS)):
            raise ContractError("expression label out of range")
    confusion = np.zeros((NUM_EXPRESSIONS, NUM_EXPRESSIONS), dtype=np.int64)
    np.add.at(confusion, (true_labels, predicted), 1)
    row_totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recalls = np.where(
            row_totals > 0, np.diag(confusion) / np.maximum(row_totals, 1), np.nan
        )
    populated = row_totals > 0
    return EvalReport(
        confusion=confusion,
        per_class_recall=recalls,
        war=float(np.diag(confusion).sum() / confusion.sum()),
        uar=float(np.nanmean(recalls[populated])),
        samples=int(confusion.sum()),
    )


def predict(params, features):
    """Argmax expression prediction; ties go to the lowest class index."""
    expr_logits, _, _ = forward(params, features)
    return np.argmax(expr_logits, axis=1)


def evaluate(params, features, labels):
    return evaluate_predictions(labels, predict(params, features))


def train(config, data):
    """Run the combined-loss loop; lambda = 0 is the expression-only baseline.

    Returns (params, state, list of EpochLog). Raises NumericFailure on a
    non-finite loss, gradient or optimizer moment.
    """
    features = np.asarray(data.features, dtype=np.float64)
    expr_labels = np.asarray(data.expr_labels, dtype=np.int64)
    au_labels = np.asarray(data.au_labels, dtype=np.float64)
    n, feature_dim = features.shape
    if expr_labels.shape != (n,) or au_labels.shape[0] != n:
        raise ContractError("data shapes inconsistent")

    pos_weights = data.pos_weights
    if pos_weights is None:
        pos_weights = pos_weight_none()

    params = init_params(config.seed, feature_dim=feature_dim, hidden=config.hidden)
    state = OptimizerState(
        learning_rate=config.learning_rate, weight_decay=config.weight_decay
    )
    rng = np.random.default_rng(config.seed)
    logs = []
    for epoch in range(config.epochs):
        start = time.perf_counter()
        order = rng.permutation(n)
        sum_e = sum_au = 0.0
        batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            batch_x = features[idx]
            batch_expr = expr_labels[idx]
            expr_logits, au_logits, _, acts = forward(
                params, batch_x, return_hidden=True
            )
            loss_e, grad_e = expression_loss(
                expr_logits, batch_expr, factor=config.factor
            )
            loss_au, grad_au = au_loss(
                au_logits,
                au_labels[idx],
                batch_expr,
                data.knowledge,
                pos_weights,
                reduction=config.au_loss_reduction,
            )
            total = combined_loss(loss_e, loss_au, config.lam)
            if not np.isfinite(total):
                raise NumericFailure(f"non-finite loss at epoch {epoch}")
            grads = backward(
                params,
                batch_x,
                (1.0 - config.lam) * grad_e,
                config.lam * grad_au,
                activations=acts,
            )
            params, state = optimizer_step(params, grads, state)
            sum_e += loss_e
            sum_au += loss_au
            batches += 1
        mean_e = float(sum_e / batches)
        mean_au = float(sum_au / batches)
        entry = EpochLog(
            epoch=epoch,
            loss_expression=mean_e,
            loss_au=mean_au,
            loss_total=combined_loss(mean_e, mean_au, config.lam),
            train_war=float("nan"),
            train_uar=float("nan"),
        )
        train_report = evaluate(params, features, expr_labels)
        entry.train_war = train_report.war
        entry.train_uar = train_report.uar
        if data.test_features is not None:
            test_report = evaluate(params, data.test_features, data.test_expr_labels)
            entry.test_war = test_report.war
            entry.test_uar = test_report.uar
        entry.seconds = time.perf_counter() - start
        logs.append(entry)
    return params, state, logs


def _train_and_score(config, data):
    """Train one run, then evaluate it on the test split, or on the training
    split when there is none."""
    params, _, _ = train(config, data)
    if data.test_features is not None:
        return evaluate(params, data.test_features, data.test_expr_labels)
    return evaluate(params, data.features, data.expr_labels)


def lambda_sweep(config, data, grid=DEFAULT_LAMBDA_GRID):
    """One full train+evaluate per grid point with a fixed seed set.

    Returns rows of (lambda, WAR, UAR, per-class recalls).
    """
    if len(grid) == 0:
        raise ContractError("lambda grid must be nonempty")
    rows = []
    for lam in grid:
        report = _train_and_score(replace(config, lam=float(lam)), data)
        rows.append(
            {
                "lambda": float(lam),
                "war": report.war,
                "uar": report.uar,
                "per_class_recall": report.per_class_recall,
            }
        )
    return rows


def strategy_compare(config, data, train_au_label_list, strategies=STRATEGIES):
    """Per-strategy WAR/UAR and per-class recall rows, one table row each."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ContractError(f"unknown strategies: {unknown}")
    rows = []
    for strategy in strategies:
        spec = compute_pos_weights(train_au_label_list, strategy)
        report = _train_and_score(
            replace(config, strategy=strategy), replace(data, pos_weights=spec)
        )
        rows.append(
            {
                "strategy": strategy,
                "war": report.war,
                "uar": report.uar,
                "per_class_recall": report.per_class_recall,
                "major_pos_weights_all_one": bool(
                    all(
                        np.all(spec.values[i] == 1.0)
                        for i, name in enumerate(EXPRESSIONS)
                        if name in MAJOR_CLASSES
                    )
                ),
            }
        )
    return rows


def write_metric_rows(rows, path, key_column):
    """Tables as CSV with a one-line metadata header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# aukit table v1 key={key_column}\n")
        fh.write(
            key_column + ",war,uar,"
            + ",".join(f"recall_{name}" for name in EXPRESSIONS) + "\n"
        )
        for row in rows:
            recalls = ",".join(repr(float(v)) for v in row["per_class_recall"])
            fh.write(f"{row[key_column]},{row['war']!r},{row['uar']!r},{recalls}\n")


def export_confusion(report, csv_path, svg_path=None):
    """Emit the 7x7 confusion matrix as CSV and (optionally) an SVG heatmap."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("# aukit confusion v1 rows=true cols=predicted\n")
        fh.write("true," + ",".join(EXPRESSIONS) + "\n")
        for i, name in enumerate(EXPRESSIONS):
            fh.write(name + "," + ",".join(str(v) for v in report.confusion[i]) + "\n")
    if svg_path is not None:
        write_confusion_svg(report, svg_path)


def read_confusion_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split(",")[1:] for ln in lines[1:]]
    if len(rows) != NUM_EXPRESSIONS or any(len(r) != NUM_EXPRESSIONS for r in rows):
        raise ContractError("corrupt confusion file: expected 7 rows of 7 counts")
    return np.array(
        [parse_numbers(row, "confusion file", int) for row in rows], dtype=np.int64
    )


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
    """Per-sample embeddings plus labels, for external projection tools."""
    _, _, embeddings = forward(params, features)
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        width = embeddings.shape[1]
        fh.write(f"# aukit embeddings v1 width={width}\n")
        fh.write("label," + ",".join(f"e{k}" for k in range(width)) + "\n")
        for i in range(embeddings.shape[0]):
            fh.write(
                EXPRESSIONS[labels[i]] + ","
                + ",".join(repr(float(v)) for v in embeddings[i]) + "\n"
            )
