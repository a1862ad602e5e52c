from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit.domain import ContractError, EXPRESSIONS, is_major_class
from aukit.labeling import (
    PW_FLOOR,
    VideoAULabel,
    compute_pos_weights,
    derive_video_au_labels,
    pos_weight_distinct,
    pos_weight_global,
    pos_weight_minor,
    pos_weight_none,
    read_labels_csv,
    read_pos_weights_csv,
    write_labels_csv,
    write_pos_weights_csv,
)

from conftest import make_frames


def video(presence_rows, expression=0):
    return make_frames(len(presence_rows), presences=presence_rows), expression


def label_of(y, expression=0, video_id="v"):
    return VideoAULabel(
        video_id=video_id, y=np.asarray(y, dtype=np.int64), frame_count=1,
        expression_label=expression,
    )


class TestDeriveVideoAULabels:
    def _presence(self, n, positives, au=5):
        rows = np.zeros((n, 18), dtype=np.int64)
        rows[:positives, au] = 1
        return rows

    def test_exact_half_is_one(self):
        frames, expr = video(self._presence(10, 5))
        assert derive_video_au_labels(frames, "v", expr).y[5] == 1

    def test_below_half_is_zero(self):
        frames, expr = video(self._presence(10, 4))
        assert derive_video_au_labels(frames, "v", expr).y[5] == 0

    def test_single_frame(self):
        frames, expr = video(self._presence(1, 1))
        assert derive_video_au_labels(frames, "v", expr).y[5] == 1

    def test_empty_video_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            derive_video_au_labels(make_frames(0), "v", 0)

    def test_frame_order_invariant(self, rng):
        rows = rng.integers(0, 2, size=(9, 18))
        frames = make_frames(9, presences=rows)
        forward_label = derive_video_au_labels(frames, "v", 0)
        permuted = frames[rng.permutation(9)]
        permuted["frame_index"] = np.arange(1, 10)
        permuted_label = derive_video_au_labels(permuted, "v", 0)
        assert np.array_equal(forward_label.y, permuted_label.y)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200))
    def test_boundary_property(self, n):
        # sum exactly ceil(0.5n) ... use exactly 0.5n when even; the spec
        # boundary: sum >= 0.5n -> 1, sum = 0.5n - 1 -> 0
        half = (n + 1) // 2 if n % 2 else n // 2
        rows = np.zeros((n, 18), dtype=np.int64)
        rows[:half, 0] = 1
        assert derive_video_au_labels(make_frames(n, presences=rows), "v", 0).y[0] == 1
        if half >= 1 and (half - 1) < 0.5 * n:
            rows[half - 1, 0] = 0
            assert derive_video_au_labels(
                make_frames(n, presences=rows), "v", 0
            ).y[0] == 0


class TestPosWeightGlobal:
    def test_balanced_gives_one(self):
        labels = [label_of(np.zeros(18)) for _ in range(2)]
        labels += [label_of(np.ones(18)) for _ in range(2)]
        spec = pos_weight_global(labels)
        assert np.all(spec.values == 1.0)

    def test_one_in_four_gives_three(self):
        labels = [label_of(np.zeros(18)) for _ in range(3)] + [label_of(np.ones(18))]
        spec = pos_weight_global(labels)
        assert np.all(spec.values == 3.0)

    def test_zero_positives_fallback(self, caplog):
        labels = [label_of(np.zeros(18)) for _ in range(4)]
        spec = pos_weight_global(labels)
        assert np.all(spec.values == 4.0)

    def test_broadcast_to_seven_rows(self):
        labels = [label_of(np.ones(18)), label_of(np.zeros(18))]
        spec = pos_weight_global(labels)
        assert spec.values.shape == (7, 18)
        assert np.all(spec.values == spec.values[0])

    def test_counting_oracle(self, rng):
        labels = [
            label_of(rng.integers(0, 2, 18), expression=int(rng.integers(0, 7)))
            for _ in range(50)
        ]
        spec = pos_weight_global(labels)
        for j in range(18):
            positives = sum(int(lab.y[j]) for lab in labels)
            negatives = len(labels) - positives
            if 0 < positives < len(labels):
                assert spec.values[0, j] == float(Fraction(negatives, positives))


class TestPosWeightDistinct:
    def test_per_class_ratio(self):
        labels = [
            label_of(np.ones(18), expression=0),
            label_of(np.zeros(18), expression=0),
            label_of(np.zeros(18), expression=0),
        ]
        spec = pos_weight_distinct(labels)
        assert np.all(spec.values[0] == 2.0)

    def test_all_positive_floored(self):
        labels = [label_of(np.ones(18), expression=0) for _ in range(3)]
        spec = pos_weight_distinct(labels)
        assert np.all(spec.values[0] == PW_FLOOR)

    def test_unpopulated_class_all_ones(self):
        labels = [label_of(np.ones(18), expression=0), label_of(np.zeros(18), 0)]
        spec = pos_weight_distinct(labels)
        for i in range(1, 7):
            assert np.all(spec.values[i] == 1.0)

    def test_rows_independent_of_other_classes(self, rng):
        class0 = [label_of(rng.integers(0, 2, 18), expression=0) for _ in range(6)]
        others = [
            label_of(rng.integers(0, 2, 18), expression=int(rng.integers(1, 7)))
            for _ in range(20)
        ]
        spec_a = pos_weight_distinct(class0 + others)
        shuffled = [others[i] for i in rng.permutation(len(others))]
        spec_b = pos_weight_distinct(shuffled + class0)
        assert np.array_equal(spec_a.values[0], spec_b.values[0])


class TestPosWeightMinor:
    def _toy_labels(self, rng):
        # 14 videos spanning all classes (2 each)
        labels = []
        for c in range(7):
            for _ in range(2):
                labels.append(label_of(rng.integers(0, 2, 18), expression=c))
        return labels

    def test_major_rows_all_one(self, rng):
        spec = pos_weight_minor(self._toy_labels(rng))
        for i, name in enumerate(EXPRESSIONS):
            if is_major_class(name):
                assert np.all(spec.values[i] == 1.0)

    def test_minor_rows_equal_distinct(self, rng):
        labels = self._toy_labels(rng)
        minor_spec = pos_weight_minor(labels)
        distinct_spec = pos_weight_distinct(labels)
        for i, name in enumerate(EXPRESSIONS):
            if not is_major_class(name):
                assert np.array_equal(minor_spec.values[i], distinct_spec.values[i])

    def test_full_matrix_hand_enumeration(self, rng):
        labels = self._toy_labels(rng)
        spec = pos_weight_minor(labels)
        for i, name in enumerate(EXPRESSIONS):
            class_labels = [lab for lab in labels if lab.expression_label == i]
            for j in range(18):
                positives = sum(int(lab.y[j]) for lab in class_labels)
                count = len(class_labels)
                if is_major_class(name):
                    expected = 1.0
                elif positives == 0:
                    expected = float(count)
                elif positives == count:
                    expected = PW_FLOOR
                else:
                    expected = float(Fraction(count - positives, positives))
                assert spec.values[i, j] == expected


def test_duplication_scale_invariance(rng):
    # every class gets an all-ones and an all-zeros video so no AU hits the
    # empty-denominator fallback (pw = c), which is deliberately not
    # scale-invariant
    labels = []
    for c in range(7):
        labels.append(label_of(np.ones(18), expression=c))
        labels.append(label_of(np.zeros(18), expression=c))
        labels.append(label_of(rng.integers(0, 2, 18), expression=c))
    doubled = labels + [
        label_of(lab.y.copy(), expression=lab.expression_label) for lab in labels
    ]
    for strategy in ("global", "distinct", "minor"):
        single = compute_pos_weights(labels, strategy)
        double = compute_pos_weights(doubled, strategy)
        assert np.array_equal(single.values, double.values), strategy


def test_pos_weight_none_all_ones():
    spec = pos_weight_none()
    assert np.all(spec.values == 1.0)


def test_labels_csv_roundtrip(rng, tmp_path):
    labels = [
        VideoAULabel(
            video_id=f"vid{i}", y=rng.integers(0, 2, 18),
            frame_count=int(rng.integers(1, 40)),
            expression_label=int(rng.integers(0, 7)),
        )
        for i in range(9)
    ]
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    loaded = read_labels_csv(path)
    assert len(loaded) == len(labels)
    for a, b in zip(labels, loaded):
        assert a.video_id == b.video_id
        assert a.frame_count == b.frame_count
        assert a.expression_label == b.expression_label
        assert np.array_equal(a.y, b.y)


def test_pos_weights_csv_roundtrip(rng, tmp_path):
    labels = [
        label_of(rng.integers(0, 2, 18), expression=int(rng.integers(0, 7)))
        for _ in range(30)
    ]
    spec = pos_weight_distinct(labels)
    path = tmp_path / "pw.csv"
    write_pos_weights_csv(spec, path)
    loaded = read_pos_weights_csv(path)
    assert loaded.strategy == "distinct"
    assert np.array_equal(loaded.values, spec.values)
