import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit.domain import ContractError, EXPRESSIONS, MAJOR_CLASSES, MAJOR_MASK
from aukit.labeling import (
    PW_FLOOR,
    PosWeightSpec,
    STRATEGIES,
    compute_pos_weights,
    derive_video_au_labels,
    label_table,
    read_labels_csv,
    read_pos_weights_csv,
    read_video_labels_csv,
    write_labels_csv,
    write_pos_weights_csv,
)

from conftest import make_frames


def video(presence_rows, expression=0):
    return make_frames(len(presence_rows), presences=presence_rows), expression


def label_of(y, expression=0):
    """One video's label as (AU bits, expression index)."""
    return np.asarray(y, dtype=np.int64), expression


def columns(labels):
    """The (N x 18 AU bits, N expression labels) of label_of pairs."""
    return np.array([y for y, _ in labels]), np.array([e for _, e in labels])


class TestDeriveVideoAULabels:
    def _presence(self, n, positives, au=5):
        rows = np.zeros((n, 18), dtype=np.int64)
        rows[:positives, au] = 1
        return rows

    def test_exact_half_is_one(self):
        frames, expr = video(self._presence(10, 5))
        assert derive_video_au_labels(frames, "v")[5] == 1

    def test_below_half_is_zero(self):
        frames, expr = video(self._presence(10, 4))
        assert derive_video_au_labels(frames, "v")[5] == 0

    def test_single_frame(self):
        frames, expr = video(self._presence(1, 1))
        assert derive_video_au_labels(frames, "v")[5] == 1

    def test_empty_video_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            derive_video_au_labels(make_frames(0), "v")

    def test_frame_order_invariant(self, rng):
        rows = rng.integers(0, 2, size=(9, 18))
        frames = make_frames(9, presences=rows)
        forward_label = derive_video_au_labels(frames, "v")
        permuted = frames[rng.permutation(9)]
        permuted["frame_index"] = np.arange(1, 10)
        permuted_label = derive_video_au_labels(permuted, "v")
        assert np.array_equal(forward_label, permuted_label)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200))
    def test_boundary_property(self, n):
        # sum exactly ceil(0.5n) ... use exactly 0.5n when even; the spec
        # boundary: sum >= 0.5n -> 1, sum = 0.5n - 1 -> 0
        half = (n + 1) // 2 if n % 2 else n // 2
        rows = np.zeros((n, 18), dtype=np.int64)
        rows[:half, 0] = 1
        assert derive_video_au_labels(make_frames(n, presences=rows), "v")[0] == 1
        if half >= 1 and (half - 1) < 0.5 * n:
            rows[half - 1, 0] = 0
            assert derive_video_au_labels(make_frames(n, presences=rows), "v")[0] == 0


class TestPosWeightGlobal:
    def test_balanced_gives_one(self):
        labels = [label_of(np.zeros(18)) for _ in range(2)]
        labels += [label_of(np.ones(18)) for _ in range(2)]
        spec = compute_pos_weights(*columns(labels), "global")
        assert np.all(spec.values == 1.0)

    def test_one_in_four_gives_three(self):
        labels = [label_of(np.zeros(18)) for _ in range(3)] + [label_of(np.ones(18))]
        spec = compute_pos_weights(*columns(labels), "global")
        assert np.all(spec.values == 3.0)

    def test_zero_positives_fallback(self, caplog):
        labels = [label_of(np.zeros(18)) for _ in range(4)]
        spec = compute_pos_weights(*columns(labels), "global")
        assert np.all(spec.values == 4.0)

    def test_broadcast_to_seven_rows(self):
        labels = [label_of(np.ones(18)), label_of(np.zeros(18))]
        spec = compute_pos_weights(*columns(labels), "global")
        assert spec.values.shape == (7, 18)
        assert np.all(spec.values == spec.values[0])

    def test_counting_oracle(self, rng):
        labels = [
            label_of(rng.integers(0, 2, 18), expression=int(rng.integers(0, 7)))
            for _ in range(50)
        ]
        spec = compute_pos_weights(*columns(labels), "global")
        for j in range(18):
            positives = sum(int(y[j]) for y, _ in labels)
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
        spec = compute_pos_weights(*columns(labels), "distinct")
        assert np.all(spec.values[0] == 2.0)

    def test_all_positive_floored(self):
        labels = [label_of(np.ones(18), expression=0) for _ in range(3)]
        spec = compute_pos_weights(*columns(labels), "distinct")
        assert np.all(spec.values[0] == PW_FLOOR)

    def test_unpopulated_class_all_ones(self):
        labels = [label_of(np.ones(18), expression=0), label_of(np.zeros(18), 0)]
        spec = compute_pos_weights(*columns(labels), "distinct")
        for i in range(1, 7):
            assert np.all(spec.values[i] == 1.0)

    def test_rows_independent_of_other_classes(self, rng):
        class0 = [label_of(rng.integers(0, 2, 18), expression=0) for _ in range(6)]
        others = [
            label_of(rng.integers(0, 2, 18), expression=int(rng.integers(1, 7)))
            for _ in range(20)
        ]
        spec_a = compute_pos_weights(*columns(class0 + others), "distinct")
        shuffled = [others[i] for i in rng.permutation(len(others))]
        spec_b = compute_pos_weights(*columns(shuffled + class0), "distinct")
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
        spec = compute_pos_weights(*columns(self._toy_labels(rng)), "minor")
        assert np.all(spec.values[MAJOR_MASK] == 1.0)

    def test_minor_rows_equal_distinct(self, rng):
        labels = self._toy_labels(rng)
        minor_spec = compute_pos_weights(*columns(labels), "minor")
        distinct_spec = compute_pos_weights(*columns(labels), "distinct")
        assert np.array_equal(minor_spec.values[~MAJOR_MASK],
                              distinct_spec.values[~MAJOR_MASK])

    def test_full_matrix_hand_enumeration(self, rng):
        labels = self._toy_labels(rng)
        spec = compute_pos_weights(*columns(labels), "minor")
        for i, name in enumerate(EXPRESSIONS):
            class_labels = [y for y, expression in labels if expression == i]
            for j in range(18):
                positives = sum(int(y[j]) for y in class_labels)
                count = len(class_labels)
                if name in MAJOR_CLASSES:
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
    doubled = labels + [label_of(y.copy(), expression=e) for y, e in labels]
    for strategy in ("global", "distinct", "minor"):
        single = compute_pos_weights(*columns(labels), strategy)
        double = compute_pos_weights(*columns(doubled), strategy)
        assert np.array_equal(single.values, double.values), strategy


def test_pos_weight_none_all_ones(rng):
    labels = [label_of(rng.integers(0, 2, 18), expression=c) for c in range(7)]
    spec = compute_pos_weights(*columns(labels), "none")
    assert np.all(spec.values == 1.0)


def test_labels_csv_roundtrip(rng, tmp_path):
    labels = label_table(
        [f"vid{i}" for i in range(9)],
        rng.integers(0, 7, 9),
        rng.integers(1, 40, 9),
        rng.integers(0, 2, (9, 18)),
    )
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    loaded = read_labels_csv(path)
    assert loaded.dtype == labels.dtype
    assert loaded.tobytes() == labels.tobytes()


def test_pos_weights_csv_roundtrip(rng, tmp_path):
    labels = [
        label_of(rng.integers(0, 2, 18), expression=int(rng.integers(0, 7)))
        for _ in range(30)
    ]
    spec = compute_pos_weights(*columns(labels), "distinct")
    path = tmp_path / "pw.csv"
    write_pos_weights_csv(spec, path)
    loaded = read_pos_weights_csv(path)
    assert loaded.strategy == "distinct"
    assert np.array_equal(loaded.values, spec.values)


@pytest.mark.parametrize("old, new, message", [
    (",1\n", ",-1\n", r"line 2: AU45 = -1 not in \{0, 1\}"),
    (",3,", ",0,", r"line 2: n = 0 < 1"),
])
def test_labels_csv_rejects_out_of_range_cells(tmp_path, old, new, message):
    path = tmp_path / "labels.csv"
    y = np.zeros((2, 18), dtype=np.int64)
    y[:, -1] = 1
    write_labels_csv(label_table(["a", "b"], [0, 0], [3, 3], y), path)
    text = path.read_text()
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ContractError, match=message):
        read_labels_csv(path)


def test_labels_csv_names_the_line_of_an_unknown_expression(tmp_path):
    # the bare expression lookup once named neither the file nor the line
    path = tmp_path / "labels.csv"
    write_labels_csv(label_table(["a", "b"], [0, 1], [3, 3],
                                 np.zeros((2, 18), dtype=np.int64)), path)
    path.write_text(path.read_text().replace("b,Sad,", "b,Bogus,"))
    with pytest.raises(ContractError, match=r"^corrupt label file: unknown expression "
                       r"label 'Bogus' at line 3, column 2$"):
        read_labels_csv(path)


def test_video_labels_csv_names_the_line_of_an_unknown_expression(tmp_path):
    path = tmp_path / "video_labels.csv"
    path.write_text("video_id,label\na,Happy\nb,sad\nc,Bogus\n")
    message = (f"corrupt video label file {path}: "
               "unknown expression label 'Bogus' at line 4, column 2")
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        read_video_labels_csv(path)


@pytest.mark.parametrize("au_labels, expr_labels, message", [
    (np.zeros((2, 17)), [0, 0], "N x 18"),
    (np.zeros((2, 18)), [0], "N x 18"),
    (np.zeros((0, 18)), [], "N >= 1"),
    (np.zeros((2, 18)), [0, 7], "out of range"),
    # astype(int64) once truncated 0.5 to 0: class 0 got the no-positives weight
    (np.repeat([[0.5], [0.5], [0.0], [0.0]], 18, axis=1), [0, 0, 0, 0],
     r"^AU labels must be 0 or 1, got 0\.5$"),
    (np.full((2, 18), 2), [0, 0], "^AU labels must be 0 or 1, got 2$"),
])
def test_pos_weight_label_columns_checked(au_labels, expr_labels, message):
    for strategy in STRATEGIES:
        with pytest.raises(ContractError, match=message):
            compute_pos_weights(au_labels, np.array(expr_labels), strategy)


def test_unknown_strategy_rejected():
    with pytest.raises(ContractError, match="unknown strategy: 'bogus'"):
        compute_pos_weights(np.zeros((1, 18)), np.zeros(1, dtype=np.int64), "bogus")


def test_minor_logs_no_fallback_for_the_major_rows(caplog):
    # the major classes' videos are all negative, a fallback for each AU;
    # minor sets their rows to 1 without computing them
    labels = [label_of(np.zeros(18), expression=c) for c in range(7)]
    labels += [label_of(np.ones(18), expression=c)
               for c, name in enumerate(EXPRESSIONS) if name not in MAJOR_CLASSES]
    caplog.set_level("WARNING")
    compute_pos_weights(*columns(labels), "minor")
    assert caplog.records == []
    compute_pos_weights(*columns(labels), "distinct")
    assert len(caplog.records) == 18 * len(MAJOR_CLASSES)


def test_pos_weight_spec_holds_a_read_only_copy():
    values = np.ones((7, 18))
    spec = PosWeightSpec("global", values)
    assert values.flags.writeable and not spec.values.flags.writeable
    values[0, 0] = 2.0
    assert spec.values[0, 0] == 1.0
