"""Seeded imbalanced synthetic benchmark whose AU structure follows a
ground-truth knowledge matrix.

Each sample of class c draws a latent AU intensity vector around the class's
ground-truth column, thresholds it into presence bits, and mixes it (plus a
per-class anchor and Gaussian noise) into a feature vector. The class signal
therefore lives mostly in the AU pattern, which is what the auxiliary AU head
is supposed to exploit.
"""

from dataclasses import dataclass

import numpy as np

from .domain import (
    AU28_INDEX,
    ContractError,
    KnowledgeMatrix,
    NUM_AUS,
    NUM_EXPRESSIONS,
    check_integers,
    check_numbers,
)

PRESENCE_THRESHOLD = 2.5  # midpoint of the [0, 5] intensity scale

# (Happy, Sad, Neutral, Angry, Surprise, Disgust, Fear); minors at 4/2/4 percent
DEFAULT_PROPORTIONS = (0.30, 0.25, 0.20, 0.15, 0.04, 0.02, 0.04)

# Characteristic AUs per class (indices into the 18-long canonical order),
# loosely following FACS signatures; AU28 (index 16) is never a signature so
# knowledge extraction's AU28 substitution cannot disturb per-class argmaxes.
_CLASS_SIGNATURES = (
    (4, 8, 14),      # Happy: AU06, AU12, AU25
    (0, 10, 11),     # Sad: AU01, AU15, AU17
    (),              # Neutral: nothing strongly active
    (2, 5, 13),      # Angry: AU04, AU07, AU23
    (1, 3, 15),      # Surprise: AU02, AU05, AU26
    (6, 7, 9),       # Disgust: AU09, AU10, AU14
    (0, 2, 12),      # Fear: AU01, AU04, AU20
)
_SIGNATURE_HIGH = 4.2
_SIGNATURE_LOW = 0.8


def default_ground_truth():
    """Fixed loss-scaled 18x7 matrix with distinct per-class AU signatures."""
    values = np.full((NUM_AUS, NUM_EXPRESSIONS), _SIGNATURE_LOW)
    for c, signature in enumerate(_CLASS_SIGNATURES):
        for j in signature:
            values[j, c] = _SIGNATURE_HIGH
    values[AU28_INDEX, :] = values[:AU28_INDEX, :].mean(axis=0)
    return KnowledgeMatrix(values=values, stage="loss-scaled", dataset_count=1)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one generated dataset; its AU structure always follows
    default_ground_truth(). The class proportions are held as a read-only
    copy."""

    total: int
    class_proportions: np.ndarray = DEFAULT_PROPORTIONS
    au_noise_sd: float = 1.5
    feature_noise_sd: float = 3.5
    feature_dim: int = 64
    anchor_scale: float = 0.3
    seed: int = 0
    # samples drawn from a separate seed so train/test splits can share the
    # seed-determined structure (anchors, mixing map); defaults to `seed`
    sample_seed: int = None

    def __post_init__(self):
        proportions = np.asarray(self.class_proportions)
        if proportions.shape != (NUM_EXPRESSIONS,):
            raise ContractError("class_proportions must be a 7-vector")
        check_numbers(au_noise_sd=self.au_noise_sd, feature_noise_sd=self.feature_noise_sd,
                      anchor_scale=self.anchor_scale, **{
                          f"class_proportions[{i}]": p
                          for i, p in enumerate(proportions.tolist())})
        proportions = proportions.astype(np.float64)  # a copy, frozen below
        if not np.all(proportions >= 0):  # nan fails too
            raise ContractError("class proportions must be nonnegative")
        if abs(proportions.sum() - 1.0) > 1e-9:
            raise ContractError("class proportions must sum to 1")
        check_integers(total=self.total, feature_dim=self.feature_dim, seed=self.seed,
                       sample_seed=self.seed if self.sample_seed is None else self.sample_seed)
        if self.total < 1:
            raise ContractError("total must be >= 1")
        if self.seed < 0 or (self.sample_seed or 0) < 0:
            raise ContractError("seed and sample_seed must be >= 0")
        if self.feature_dim < 1:
            raise ContractError("feature_dim must be >= 1")
        if not all(0 <= x < np.inf for x in  # nan fails too
                   (self.au_noise_sd, self.feature_noise_sd, self.anchor_scale)):
            raise ContractError("au_noise_sd, feature_noise_sd and anchor_scale "
                                "must be finite and >= 0")
        proportions.setflags(write=False)
        object.__setattr__(self, "class_proportions", proportions)


@dataclass(frozen=True)
class SynthDataset:
    features: np.ndarray       # N x F
    expr_labels: np.ndarray    # N ints
    au_presence: np.ndarray    # N x 18 ints
    knowledge: KnowledgeMatrix


def largest_remainder_counts(proportions, total):
    """Integer class counts that sum to total and track proportions exactly."""
    proportions = np.asarray(proportions, dtype=np.float64)
    exact = proportions * total
    counts = np.floor(exact).astype(np.int64)
    remainder = total - counts.sum()
    order = np.argsort(-(exact - counts), kind="stable")
    for idx in order[:remainder]:
        counts[idx] += 1
    return counts


def generate_dataset(spec):
    """Deterministic imbalanced dataset from one seed."""
    counts = largest_remainder_counts(spec.class_proportions, spec.total)
    truth = default_ground_truth()
    g = truth.values  # 18 x 7

    # anchors and the AU-to-feature mixing map are fixed by the seed but drawn
    # from a separate stream so sample noise never shifts them
    root = np.random.SeedSequence(spec.seed)
    structure_seed, default_sample_seed = root.spawn(2)
    if spec.sample_seed is not None:
        sample_seed = np.random.SeedSequence([spec.sample_seed, spec.seed])
    else:
        sample_seed = default_sample_seed
    structure_rng = np.random.default_rng(structure_seed)
    anchors = structure_rng.normal(
        0.0, spec.anchor_scale, size=(NUM_EXPRESSIONS, spec.feature_dim)
    )
    mixing = structure_rng.normal(
        0.0, 1.0 / np.sqrt(NUM_AUS), size=(spec.feature_dim, NUM_AUS)
    )
    rng = np.random.default_rng(sample_seed)

    features = np.empty((spec.total, spec.feature_dim))
    expr_labels = np.empty(spec.total, dtype=np.int64)
    au_presence = np.empty((spec.total, NUM_AUS), dtype=np.int64)
    row = 0
    for c in range(NUM_EXPRESSIONS):
        n_c = int(counts[c])
        if n_c == 0:
            continue
        latent = g[:, c][None, :] + rng.normal(
            0.0, spec.au_noise_sd, size=(n_c, NUM_AUS)
        )
        latent = np.clip(latent, 0.0, 5.0)
        presence = (latent >= PRESENCE_THRESHOLD).astype(np.int64)
        block = (
            anchors[c][None, :]
            + latent @ mixing.T
            + rng.normal(0.0, spec.feature_noise_sd, size=(n_c, spec.feature_dim))
        )
        features[row:row + n_c] = block
        expr_labels[row:row + n_c] = c
        au_presence[row:row + n_c] = presence
        row += n_c

    return SynthDataset(
        features=features,
        expr_labels=expr_labels,
        au_presence=au_presence,
        knowledge=truth,
    )
