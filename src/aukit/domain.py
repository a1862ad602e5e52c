"""Canonical expression / action-unit enumerations and shared matrix types."""

from dataclasses import dataclass, field

import numpy as np

EXPRESSIONS = ("Happy", "Sad", "Neutral", "Angry", "Surprise", "Disgust", "Fear")
NUM_EXPRESSIONS = 7

MAJOR_CLASSES = frozenset({"Happy", "Sad", "Angry", "Neutral"})
# boolean mask over expression indices: True for the major classes
MAJOR_MASK = np.array([name in MAJOR_CLASSES for name in EXPRESSIONS])

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

# knowledge stage -> the upper end of the closed range [0, hi] of its values
KNOWLEDGE_STAGES = {"per-dataset": 1.0, "aggregate": 1.0, "loss-scaled": 5.0}

_EXPR_LOOKUP = {name.lower(): i for i, name in enumerate(EXPRESSIONS)}


class ContractError(ValueError):
    """A caller violated a documented precondition or file contract."""


class NumericFailure(RuntimeError):
    """A computation produced non-finite or otherwise unusable values."""


def float_array(x):
    """x as a floating array: a float32 or float64 array keeps its dtype,
    anything else (lists, integers, booleans) becomes float64."""
    x = np.asarray(x)
    if x.dtype in (np.float32, np.float64):
        return x
    return x.astype(np.float64)


def check_integers(**values):
    """ContractError naming the first of `values` that is not an int or a
    numpy integer; a bool or a float is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ContractError(f"{name} must be an integer, got {value!r}")


def integer_tuple(name, values):
    """`values`, a sequence of integers as check_integers takes them, as a
    tuple of Python ints; anything else is a ContractError naming `name`."""
    if isinstance(values, str) or not np.iterable(values):
        raise ContractError(f"{name} must be a list of integers, got {values!r}")
    values = tuple(values)
    check_integers(**{f"{name}[{i}]": value for i, value in enumerate(values)})
    return tuple(map(int, values))


def check_numbers(**values):
    """ContractError naming the first of `values` that is not an int, a float
    or a numpy one; a bool, a str or None is not one."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            raise ContractError(f"{name} must be a number, got {value!r}")


def check_au_labels(au_labels):
    """ContractError naming the first AU label that is not 0 or 1."""
    au_labels = np.asarray(au_labels)
    binary = (au_labels == 0) | (au_labels == 1)
    if not binary.all():
        raise ContractError(f"AU labels must be 0 or 1, got {au_labels[~binary][0]}")


def check_theta(theta):
    """ContractError unless theta lies in [0, 1]; nan does not."""
    if not 0.0 <= theta <= 1.0:
        raise ContractError(f"theta must be in [0, 1], got {theta}")


def video_table(video_ids, fields, **columns):
    """A 1-D structured array: a video_id field as wide as the longest id,
    then `fields` (numpy field specs) filled from the same-named `columns`."""
    video_ids = np.asarray(video_ids, dtype=str)
    table = np.empty(len(video_ids), dtype=[("video_id", video_ids.dtype), *fields])
    table["video_id"] = video_ids
    for name, *_ in fields:
        table[name] = columns[name]
    return table


def expression_index(name):
    """Map an expression label (case-insensitive) to its canonical index 0..6."""
    try:
        return _EXPR_LOOKUP[str(name).strip().lower()]
    except KeyError:
        raise ContractError(f"unknown expression label: {name!r}") from None


def expression_labels(labels):
    """Expression indices as int64; one outside 0..6 is a ContractError."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= NUM_EXPRESSIONS)):
        raise ContractError("expression label out of range")
    return labels


def expression_name(index):
    if not 0 <= index < NUM_EXPRESSIONS:
        raise ContractError(f"expression index out of range: {index}")
    return EXPRESSIONS[index]


@dataclass(frozen=True)
class KnowledgeMatrix:
    """18x7 AU-expression weight matrix (rows = AUs, columns = expressions).

    Only a valid matrix constructs: finite values in its stage's closed
    range (KNOWLEDGE_STAGES), support counts >= 0 and theta in [0, 1].
    """

    values: np.ndarray
    stage: str
    dataset_count: int = 1
    theta: float = 0.5
    support: np.ndarray = field(default=None)

    def __post_init__(self):
        # copies, so freezing them never freezes the caller's arrays
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (NUM_AUS, NUM_EXPRESSIONS):
            raise ContractError(
                f"knowledge matrix must be {NUM_AUS}x{NUM_EXPRESSIONS}, "
                f"got {values.shape}"
            )
        if self.stage not in KNOWLEDGE_STAGES:
            raise ContractError(f"unknown knowledge stage: {self.stage!r}")
        hi = KNOWLEDGE_STAGES[self.stage]
        outside = ~((values >= 0.0) & (values <= hi))  # nan is outside too
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ContractError(
                f"knowledge value {values[i, j]} at ({AU_NAMES[i]}, {EXPRESSIONS[j]}) "
                f"is outside [0, {hi}] for stage {self.stage}"
            )
        check_integers(dataset_count=self.dataset_count)
        if self.dataset_count < 1:
            raise ContractError("dataset_count must be >= 1")
        theta = float(self.theta)
        check_theta(theta)
        support = self.support
        if support is None:
            support = np.zeros((NUM_AUS, NUM_EXPRESSIONS), dtype=np.int64)
        else:
            support = np.array(support, dtype=np.int64)
            if support.shape != (NUM_AUS, NUM_EXPRESSIONS):
                raise ContractError(f"support must be {NUM_AUS}x{NUM_EXPRESSIONS}")
            if np.any(support < 0):
                raise ContractError("knowledge support counts must be >= 0")
        values.setflags(write=False)
        support.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "support", support)
