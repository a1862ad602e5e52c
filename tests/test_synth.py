import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from aukit.domain import AU28_INDEX, ContractError
from aukit.ingest import prediction_table
from aukit.knowledge import compute_dataset_knowledge, filter_reliable_frames
from aukit.labeling import derive_video_au_labels
from aukit.synth import (
    DEFAULT_PROPORTIONS,
    SynthSpec,
    default_ground_truth,
    generate_dataset,
    largest_remainder_counts,
)

from conftest import group_videos, make_frames, make_record


def test_default_ground_truth_valid():
    g = default_ground_truth()
    assert g.stage == "loss-scaled"  # and, constructed, in [0, 5]


def test_largest_remainder_exact_example():
    counts = largest_remainder_counts(
        (0.3, 0.25, 0.2, 0.15, 0.04, 0.02, 0.04), 1000
    )
    assert counts.tolist() == [300, 250, 200, 150, 40, 20, 40]


def test_largest_remainder_sums_to_total(rng):
    for _ in range(50):
        raw = rng.uniform(0.01, 1, 7)
        proportions = raw / raw.sum()
        total = int(rng.integers(7, 5000))
        counts = largest_remainder_counts(proportions, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)


def test_seeded_determinism():
    spec = SynthSpec(total=120, seed=5)
    a = generate_dataset(spec)
    b = generate_dataset(SynthSpec(total=120, seed=5))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.expr_labels, b.expr_labels)
    assert np.array_equal(a.au_presence, b.au_presence)


def test_different_seeds_differ():
    a = generate_dataset(SynthSpec(total=50, seed=1))
    b = generate_dataset(SynthSpec(total=50, seed=2))
    assert not np.array_equal(a.features, b.features)


def test_noiseless_presence_is_thresholded_ground_truth():
    spec = SynthSpec(total=140, au_noise_sd=0.0, feature_noise_sd=0.0, seed=3)
    dataset = generate_dataset(spec)
    g = dataset.knowledge.values
    for c in range(7):
        members = dataset.au_presence[dataset.expr_labels == c]
        expected = (g[:, c] >= 2.5).astype(int)
        assert np.all(members == expected[None, :])


def test_degenerate_specs_rejected():
    with pytest.raises(ContractError):
        SynthSpec(total=0)
    with pytest.raises(ContractError):
        SynthSpec(total=10, au_noise_sd=-1.0)
    with pytest.raises(ContractError):
        SynthSpec(total=10, class_proportions=np.full(7, 0.5))


def test_spec_cannot_be_changed_after_its_check():
    # class_proportions[0] = 5.0 after construction once escaped
    # generate_dataset as a broadcast ValueError
    proportions = np.full(7, 1 / 7)
    spec = SynthSpec(total=10, class_proportions=proportions)
    with pytest.raises(ValueError, match="read-only"):
        spec.class_proportions[0] = 5.0
    with pytest.raises(FrozenInstanceError):
        spec.total = 0
    proportions[0] = 5.0  # the spec holds its own copy
    assert spec.class_proportions[0] == 1 / 7
    assert len(generate_dataset(spec).expr_labels) == 10


@pytest.mark.parametrize("field, value", [
    ("total", 10.5), ("feature_dim", 3.5), ("seed", 1.5), ("sample_seed", 2.0),
    ("total", True), ("feature_dim", np.float64(4.0)),
])
def test_integer_fields_reject_floats_and_bools(field, value):
    # total and feature_dim as floats once escaped generate_dataset as a
    # TypeError
    with pytest.raises(ContractError, match=rf"^{field} must be an integer, got "):
        SynthSpec(**{"total": 10, field: value})


@pytest.mark.parametrize("field, value, name", [
    ("au_noise_sd", "x", "au_noise_sd"), ("anchor_scale", None, "anchor_scale"),
    ("feature_noise_sd", True, "feature_noise_sd"),
    ("class_proportions", ["a"] * 7, "class_proportions[0]"),
    ("class_proportions", [1 / 7] * 6 + [None], "class_proportions[6]"),
    ("class_proportions", [True] + [False] * 6, "class_proportions[0]"),
])
def test_float_fields_reject_non_numbers(field, value, name):
    # a str or None escaped as a TypeError, proportions of "a" as a bare
    # ValueError, and a bool was taken as 0 or 1
    with pytest.raises(ContractError, match=rf"^{re.escape(name)} must be a number, got "):
        SynthSpec(**{"total": 10, field: value})


def test_float_fields_take_ints_and_numpy_floats():
    spec = SynthSpec(total=10, au_noise_sd=1, anchor_scale=np.float32(0.5),
                     class_proportions=[1, 0, 0, 0, 0, 0, 0])
    assert spec.class_proportions.dtype == np.float64
    assert set(generate_dataset(spec).expr_labels.tolist()) == {0}


def test_integer_fields_take_numpy_integers():
    spec = SynthSpec(total=np.int64(10), feature_dim=np.int32(3), sample_seed=np.int64(1))
    assert generate_dataset(spec).features.shape == (10, 3)


def test_presence_through_eq4_single_frame_videos():
    spec = SynthSpec(total=70, seed=8)
    dataset = generate_dataset(spec)
    for i in range(0, 70, 11):
        presence = np.zeros(18, dtype=np.int64)
        presence[:] = dataset.au_presence[i]
        y = derive_video_au_labels(make_frames(presences=presence), f"s{i}")
        assert np.array_equal(y, dataset.au_presence[i])


def test_knowledge_closure_argmax_recovery():
    # noiseless extraction recovers the generator's per-class argmax AU
    spec = SynthSpec(total=700, au_noise_sd=0.0, feature_noise_sd=0.0,
                     class_proportions=np.full(7, 1 / 7), seed=4)
    dataset = generate_dataset(spec)
    records = []
    for i in range(spec.total):
        latent = np.zeros(17)
        # reconstruct the intensity view (17 AUs, skipping AU28)
        g_col = dataset.knowledge.values[:, dataset.expr_labels[i]]
        keep = [j for j in range(18) if j != AU28_INDEX]
        latent[:] = np.clip(g_col[keep], 0, 5)
        records.append(
            make_record(video_id=f"v{i}", frame_index=1, intensities=latent)
        )
    predictions = prediction_table(
        [f"v{i}" for i in range(spec.total)], 1, dataset.expr_labels,
        np.eye(7)[dataset.expr_labels],
    )
    reliable = filter_reliable_frames(predictions, 0.5)
    matrix = compute_dataset_knowledge(group_videos(records), reliable)
    g = dataset.knowledge.values
    for c in range(7):
        if np.ptp(g[:, c]) < 1e-9:
            continue  # flat column (Neutral): argmax is arbitrary
        assert np.argmax(matrix.values[:, c]) == np.argmax(g[:, c])


def test_default_proportions_are_imbalanced():
    proportions = np.array(DEFAULT_PROPORTIONS)
    assert proportions.sum() == pytest.approx(1.0)
    # minors (Surprise, Disgust, Fear) below 1/7, majors above
    assert np.all(proportions[4:] < 1 / 7)
    assert np.all(proportions[:4] > 1 / 7)
    assert proportions[5] == min(proportions)  # disgust rarest
