"""Canonical expression / action-unit enumerations and shared matrix types."""

from dataclasses import dataclass, field

import numpy as np

EXPRESSIONS = ("Happy", "Sad", "Neutral", "Angry", "Surprise", "Disgust", "Fear")
NUM_EXPRESSIONS = 7

MAJOR_CLASSES = frozenset({"Happy", "Sad", "Angry", "Neutral"})
MINOR_CLASSES = frozenset({"Surprise", "Disgust", "Fear"})

# 18 presence AUs in ascending numeric order; AU28 has no intensity track.
AU_NAMES = (
    "AU01", "AU02", "AU04", "AU05", "AU06", "AU07", "AU09", "AU10", "AU12",
    "AU14", "AU15", "AU17", "AU20", "AU23", "AU25", "AU26", "AU28", "AU45",
)
NUM_AUS = 18
AU28_INDEX = AU_NAMES.index("AU28")
INTENSITY_AU_NAMES = tuple(n for n in AU_NAMES if n != "AU28")
NUM_INTENSITY_AUS = 17
# position of each intensity AU inside the 18-long presence ordering
INTENSITY_TO_PRESENCE = tuple(AU_NAMES.index(n) for n in INTENSITY_AU_NAMES)

KNOWLEDGE_STAGES = ("per-dataset", "aggregate", "loss-scaled")

_EXPR_LOOKUP = {name.lower(): i for i, name in enumerate(EXPRESSIONS)}
_AU_LOOKUP = {name: i for i, name in enumerate(AU_NAMES)}


class ContractError(ValueError):
    """A caller violated a documented precondition or file contract."""


class NumericFailure(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def parse_numbers(cells, what, kind=float):
    """Table cells as numbers of `kind`; ContractError naming the file otherwise."""
    try:
        return [kind(cell) for cell in cells]
    except ValueError:
        raise ContractError(f"corrupt {what}: non-numeric cell") from None


def expression_index(name):
    """Map an expression label (case-insensitive) to its canonical index 0..6."""
    try:
        return _EXPR_LOOKUP[str(name).strip().lower()]
    except KeyError:
        raise ContractError(f"unknown expression label: {name!r}") from None


def expression_name(index):
    if not 0 <= index < NUM_EXPRESSIONS:
        raise ContractError(f"expression index out of range: {index}")
    return EXPRESSIONS[index]


def au_index(name):
    """Map an AU name ('AU01'..'AU45') to its canonical index 0..17."""
    try:
        return _AU_LOOKUP[str(name).strip().upper()]
    except KeyError:
        raise ContractError(f"unknown AU: {name!r}") from None


def au_name(index):
    if not 0 <= index < NUM_AUS:
        raise ContractError(f"AU index out of range: {index}")
    return AU_NAMES[index]


def is_major_class(expr):
    """True iff the class is one of the four high-frequency expressions."""
    if isinstance(expr, (int, np.integer)):
        expr = expression_name(int(expr))
    else:
        expr = expression_name(expression_index(expr))
    return expr in MAJOR_CLASSES


@dataclass(frozen=True)
class KnowledgeMatrix:
    """18x7 AU-expression weight matrix (rows = AUs, columns = expressions)."""

    values: np.ndarray
    stage: str
    dataset_count: int = 1
    theta: float = 0.5
    support: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (NUM_AUS, NUM_EXPRESSIONS):
            raise ContractError(
                f"knowledge matrix must be {NUM_AUS}x{NUM_EXPRESSIONS}, "
                f"got {values.shape}"
            )
        if self.stage not in KNOWLEDGE_STAGES:
            raise ContractError(f"unknown knowledge stage: {self.stage!r}")
        if self.dataset_count < 1:
            raise ContractError("dataset_count must be >= 1")
        support = self.support
        if support is None:
            support = np.zeros((NUM_AUS, NUM_EXPRESSIONS), dtype=np.int64)
        else:
            support = np.asarray(support, dtype=np.int64)
            if support.shape != (NUM_AUS, NUM_EXPRESSIONS):
                raise ContractError(f"support must be {NUM_AUS}x{NUM_EXPRESSIONS}")
        values.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", support)

    def column(self, expr_index):
        """Per-expression 18-vector of AU weights."""
        if not 0 <= expr_index < NUM_EXPRESSIONS:
            raise ContractError(f"expression index out of range: {expr_index}")
        return self.values[:, expr_index]


def knowledge_value_bounds(stage):
    """Open interval every cell must lie in for the given stage."""
    if stage == "loss-scaled":
        return 0.0, 5.0
    return 0.0, 1.0


def validate_knowledge(matrix):
    """Report-only validation: returns a list of violation strings (empty = ok)."""
    violations = []
    values = np.asarray(matrix.values, dtype=np.float64)
    if values.shape != (NUM_AUS, NUM_EXPRESSIONS):
        return [f"shape: expected {NUM_AUS}x{NUM_EXPRESSIONS}, got {values.shape}"]
    if matrix.stage not in KNOWLEDGE_STAGES:
        violations.append(f"stage: unknown stage {matrix.stage!r}")
        return violations
    lo, hi = knowledge_value_bounds(matrix.stage)
    for (i, j), v in np.ndenumerate(values):
        if not np.isfinite(v):
            violations.append(f"cell ({AU_NAMES[i]}, {EXPRESSIONS[j]}): non-finite {v}")
        elif not lo < v < hi:
            violations.append(
                f"cell ({AU_NAMES[i]}, {EXPRESSIONS[j]}): {v} outside open "
                f"({lo}, {hi}) for stage {matrix.stage}"
            )
    if matrix.support is not None and np.any(matrix.support < 0):
        violations.append("support: negative counts present")
    return violations
