import math
import statistics

import numpy as np
import pytest

from aukit.domain import (
    AU28_INDEX,
    EXPRESSIONS,
    ContractError,
    KNOWLEDGE_STAGES,
    KnowledgeMatrix,
)
from aukit.knowledge import (
    aggregate_knowledge,
    compute_dataset_knowledge,
    export_knowledge,
    filter_reliable_frames,
    import_knowledge,
    scale_for_loss,
    sigmoid,
)

from conftest import group_videos, make_frames, make_predictions, make_record


def ref_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def make_prediction(video_id, frame, label, score):
    """One prediction as (video_id, frame, label, scores)."""
    scores = np.full(7, (1.0 - score) / 6.0)
    scores[label] = score
    return video_id, frame, label, scores


def class_counts(reliable):
    return np.bincount(reliable.members["label"], minlength=7)


class TestFilterReliableFrames:
    def test_strictly_above_kept(self):
        preds = make_predictions([make_prediction("v", 1, 0, 0.9)])
        kept = filter_reliable_frames(preds, 0.5)
        assert kept.members[["video_id", "frame_index"]].tolist() == [("v", 1)]

    def test_equal_dropped(self):
        preds = make_predictions([make_prediction("v", 1, 0, 0.5)])
        kept = filter_reliable_frames(preds, 0.5)
        assert not len(kept.members)

    def test_theta_one_empty(self):
        preds = make_predictions([make_prediction("v", 1, 0, 0.99)])
        kept = filter_reliable_frames(preds, 1.0)
        assert not len(kept.members)

    def test_duplicate_frame_rejected(self):
        preds = [
            make_prediction("w", 1, 0, 0.9),
            make_prediction("v", 1, 0, 0.9),
            make_prediction("v", 2, 0, 0.9),
            make_prediction("v", 1, 2, 0.3),
        ]
        with pytest.raises(ContractError, match="duplicate prediction.*'v' frame 1"):
            filter_reliable_frames(make_predictions(preds), 0.5)

    def test_per_class_counts(self):
        preds = [
            make_prediction("v", 1, 0, 0.9),
            make_prediction("v", 2, 0, 0.9),
            make_prediction("v", 3, 4, 0.9),
        ]
        kept = filter_reliable_frames(make_predictions(preds), 0.5)
        assert class_counts(kept)[0] == 2
        assert class_counts(kept)[4] == 1

    def test_monotone_in_theta(self, rng):
        preds = make_predictions([
            make_prediction("v", i, int(rng.integers(0, 7)), float(rng.uniform(0.2, 1)))
            for i in range(200)
        ])
        previous = None
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            counts = class_counts(filter_reliable_frames(preds, theta))
            if previous is not None:
                assert np.all(counts <= previous)
            previous = counts

    def test_members_sorted_by_video_then_frame(self, rng):
        rows = [("w", 3), ("v", 10), ("w", 1), ("v", 2), ("x", 0), ("v", 9)]
        preds = [make_prediction(v, f, 0, 0.9) for v, f in rows]
        kept = filter_reliable_frames(make_predictions(preds), 0.5)
        assert kept.members[["video_id", "frame_index"]].tolist() == sorted(rows)

    def test_theta_range_enforced(self):
        with pytest.raises(ContractError):
            filter_reliable_frames([], 1.5)


def brute_force_knowledge(frames_by_class):
    """Independent spreadsheet-style oracle for one dataset's matrix."""
    raw = [[None] * 7 for _ in range(18)]
    for c, frames in frames_by_class.items():
        medians = [
            statistics.median(frame[j] for frame in frames) for j in range(17)
        ]
        au28 = sum(medians) / 17.0
        full = medians[:AU28_INDEX] + [au28] + medians[AU28_INDEX:]
        for i in range(18):
            raw[i][c] = full[i]
    flat = [v for row in raw for v in row if v is not None]
    midpoint = (max(flat) + min(flat)) / 2.0
    return [
        [None if v is None else ref_sigmoid(v - midpoint) for v in row]
        for row in raw
    ]


def two_class_corpus():
    """2 populated classes x 3 frames with hand-picked intensities."""
    frames = {
        0: [
            np.linspace(0.5, 4.5, 17),
            np.linspace(1.0, 3.0, 17),
            np.full(17, 2.0),
        ],
        4: [
            np.full(17, 1.0),
            np.linspace(0.2, 5.0, 17),
            np.linspace(4.0, 0.4, 17),
        ],
    }
    records, predictions = [], []
    frame_index = 1
    for c, class_frames in frames.items():
        for intensities in class_frames:
            records.append(
                make_record(video_id=f"v{c}", frame_index=frame_index,
                            intensities=intensities)
            )
            predictions.append(make_prediction(f"v{c}", frame_index, c, 0.9))
            frame_index += 1
    return frames, records, predictions


class TestComputeDatasetKnowledge:
    def _full_corpus(self, per_class_medians):
        """One frame per class with constant intensities (median = the value)."""
        records, predictions = [], []
        for c, value in enumerate(per_class_medians):
            records.append(
                make_record(video_id=f"v{c}", frame_index=c + 1,
                            intensities=np.full(17, value))
            )
            predictions.append(make_prediction(f"v{c}", c + 1, c, 0.9))
        return records, predictions

    def test_constant_matrix_maps_to_half(self):
        records, predictions = self._full_corpus([2.0] * 7)
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        matrix = compute_dataset_knowledge(group_videos(records), reliable)
        assert np.allclose(matrix.values, 0.5, atol=1e-12)

    def test_two_point_medians_map_to_hand_values(self):
        # medians 1.0 and 3.0: midpoint 2.0, centered to -1/+1
        records, predictions = self._full_corpus([1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0])
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        matrix = compute_dataset_knowledge(group_videos(records), reliable)
        low = 1.0 / (1.0 + math.exp(1.0))
        high = 1.0 / (1.0 + math.exp(-1.0))
        assert matrix.values[0, 0] == pytest.approx(low, abs=1e-9)
        assert matrix.values[0, 1] == pytest.approx(high, abs=1e-9)
        assert low == pytest.approx(0.2689, abs=1e-4)
        assert high == pytest.approx(0.7311, abs=1e-4)

    def test_matches_brute_force_oracle_on_hand_corpus(self):
        frames, records, predictions = two_class_corpus()
        # pad the five empty classes with a single constant frame each
        next_frame = 100
        for c in range(7):
            if c in frames:
                continue
            records.append(
                make_record(video_id=f"pad{c}", frame_index=next_frame,
                            intensities=np.full(17, 2.5))
            )
            predictions.append(make_prediction(f"pad{c}", next_frame, c, 0.9))
            frames[c] = [np.full(17, 2.5)]
            next_frame += 1
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        matrix = compute_dataset_knowledge(group_videos(records), reliable)
        oracle = brute_force_knowledge(frames)
        for i in range(18):
            for j in range(7):
                assert matrix.values[i, j] == pytest.approx(oracle[i][j], abs=1e-9)

    def test_empty_class_fails_listing_names(self):
        frames, records, predictions = two_class_corpus()
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        with pytest.raises(ContractError, match="Sad"):
            compute_dataset_knowledge(group_videos(records), reliable)

    def test_support_counts(self):
        records, predictions = self._full_corpus([2.0] * 7)
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        matrix = compute_dataset_knowledge(group_videos(records), reliable)
        assert np.all(matrix.support == 1)

    def test_median_even_count_mean_of_middle(self):
        # 4 frames in one class: AU medians must average the middle two
        records = [
            make_record(video_id="v", frame_index=i + 1,
                        intensities=np.full(17, v))
            for i, v in enumerate([1.0, 2.0, 4.0, 5.0])
        ]
        predictions = [make_prediction("v", i + 1, 0, 0.9) for i in range(4)]
        for c in range(1, 7):
            records.append(
                make_record(video_id=f"p{c}", frame_index=50 + c,
                            intensities=np.full(17, 3.0))
            )
            predictions.append(make_prediction(f"p{c}", 50 + c, c, 0.9))
        reliable = filter_reliable_frames(make_predictions(predictions), 0.5)
        matrix = compute_dataset_knowledge(group_videos(records), reliable)
        # raw median for class 0 is 3.0 everywhere, same as all other classes
        assert np.allclose(matrix.values, 0.5, atol=1e-12)


    def test_join_matches_per_frame_lookup(self, rng):
        # videos with interleaved ids and frame numbers shared across videos;
        # predictions shuffled, some frames unpredicted, some predictions
        # for frames no video has
        videos, preds = [], []
        for v in range(12):
            video_id = f"v{v % 5}x{v}" if v % 2 else f"w{v}"
            frame_index = np.sort(rng.choice(40, size=8, replace=False)) - 5
            videos.append((video_id, make_frames(8, frame_index=frame_index)))
            for f in frame_index[:6].tolist() + [100 + v]:
                preds.append(make_prediction(video_id, f, int(rng.integers(0, 7)), 0.9))
        preds = [preds[i] for i in rng.permutation(len(preds))]
        reliable = filter_reliable_frames(make_predictions(preds), 0.5)
        lookup = {(p[0], p[1]): p[2] for p in preds}
        expected = np.zeros(7, dtype=np.int64)
        for video_id, frames in videos:
            for f in frames["frame_index"].tolist():
                if (video_id, f) in lookup:
                    expected[lookup[(video_id, f)]] += 1
        matrix = compute_dataset_knowledge(
            videos, reliable, classes=np.flatnonzero(expected)
        )
        assert np.array_equal(matrix.support[0], expected)


def random_join_case(seed):
    """Videos and shuffled predictions for the frame-to-prediction join.

    Frame indices repeat within a video and recur across videos; every
    fourth video has no prediction, three predicted videos have no frames,
    predictions also name frames no video has, and scores straddle 0.5.
    """
    rng = np.random.default_rng(seed)
    videos, preds = [], []
    for v in range(12):
        n = int(rng.integers(0, 12))
        frame_index = np.sort(rng.integers(0, 8, size=n))
        intensities = rng.uniform(0.0, 5.0, (n, 17)).round(2)
        video_id = f"v{v}"
        videos.append((video_id, make_frames(n, frame_index=frame_index,
                                             intensities=intensities)))
        if v % 4 == 3:
            continue
        for f in np.unique(frame_index).tolist() + [8, 9]:
            preds.append(make_prediction(video_id, f, int(rng.integers(0, 7)),
                                         float(rng.uniform(0.2, 1.0))))
    for v in range(3):
        preds.append(make_prediction(f"gone{v}", 1, int(rng.integers(0, 7)), 0.9))
    return videos, [preds[i] for i in rng.permutation(len(preds))]


def oracle_frames_by_class(videos, preds, theta):
    """Each class's matched intensity rows, by a {(video, frame): label} dict."""
    label_of = {(v, f): label for v, f, label, scores in preds if scores[label] > theta}
    by_class = {}
    for video_id, frames in videos:
        for f, x in zip(frames["frame_index"].tolist(), frames["intensities"]):
            if (video_id, f) in label_of:
                by_class.setdefault(label_of[(video_id, f)], []).append(x.tolist())
    return by_class


@pytest.mark.parametrize("seed", range(6))
def test_join_matches_dict_oracle(seed):
    videos, preds = random_join_case(seed)
    by_class = oracle_frames_by_class(videos, preds, 0.5)
    reliable = filter_reliable_frames(make_predictions(preds), 0.5)
    populated = sorted(by_class)
    for classes in (populated, populated[::2]):
        matrix = compute_dataset_knowledge(videos, reliable, classes=classes)
        oracle = brute_force_knowledge({c: by_class[c] for c in classes})
        for c in range(7):
            support = len(by_class[c]) if c in classes else 0
            assert np.all(matrix.support[:, c] == support)
            for i in range(18):
                expected = 0.5 if oracle[i][c] is None else oracle[i][c]
                assert matrix.values[i, c] == pytest.approx(expected, abs=1e-9)


def test_join_with_empty_reliable_set_names_every_class():
    videos, preds = random_join_case(0)
    reliable = filter_reliable_frames(make_predictions(preds), 1.0)
    assert not len(reliable.members)
    with pytest.raises(ContractError, match="no reliable frames for classes: "
                       + ", ".join(EXPRESSIONS)):
        compute_dataset_knowledge(videos, reliable)
    with pytest.raises(ContractError, match="no reliable frames for classes: Sad$"):
        compute_dataset_knowledge(videos, reliable, classes=(1,))


class TestAggregate:
    def _uniform(self, value):
        return KnowledgeMatrix(
            values=np.full((18, 7), value), stage="per-dataset",
            support=np.ones((18, 7), dtype=np.int64),
        )

    def test_one_dataset_compat(self):
        out = aggregate_knowledge([self._uniform(0.5)], midpoint_policy="compat")
        assert np.allclose(out.values, ref_sigmoid(-2.0), atol=1e-9)
        assert out.values[0, 0] == pytest.approx(0.1192, abs=1e-4)

    def test_four_datasets_compat(self):
        out = aggregate_knowledge(
            [self._uniform(0.5)] * 4, midpoint_policy="compat"
        )
        assert np.allclose(out.values, ref_sigmoid(-0.5), atol=1e-9)
        assert out.values[0, 0] == pytest.approx(0.3775, abs=1e-4)
        assert out.dataset_count == 4

    def test_general_midpoint_centers_on_half_d(self):
        out = aggregate_knowledge([self._uniform(0.5)] * 2)
        assert np.allclose(out.values, 0.5, atol=1e-12)

    def test_elementwise_monotone(self, rng):
        a_values = rng.uniform(0.1, 0.9, (18, 7))
        b_values = np.clip(a_values - rng.uniform(0, 0.05, (18, 7)), 0.01, 1)
        a = KnowledgeMatrix(values=a_values, stage="per-dataset")
        b = KnowledgeMatrix(values=b_values, stage="per-dataset")
        out_a = aggregate_knowledge([a, a], midpoint_policy="compat")
        out_b = aggregate_knowledge([b, a], midpoint_policy="compat")
        assert np.all(out_a.values >= out_b.values)

    def test_permutation_invariant(self, rng):
        mats = [
            KnowledgeMatrix(values=rng.uniform(0.1, 0.9, (18, 7)),
                            stage="per-dataset")
            for _ in range(4)
        ]
        forward_order = aggregate_knowledge(mats)
        reverse_order = aggregate_knowledge(mats[::-1])
        assert np.array_equal(forward_order.values, reverse_order.values)

    def test_rejects_empty_and_mixed_stage(self):
        with pytest.raises(ContractError):
            aggregate_knowledge([])
        scaled = KnowledgeMatrix(values=np.full((18, 7), 2.0), stage="loss-scaled")
        with pytest.raises(ContractError):
            aggregate_knowledge([scaled])


class TestScaleForLoss:
    def test_times_five(self):
        m = KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="aggregate")
        out = scale_for_loss(m)
        assert np.allclose(out.values, 2.5)
        assert out.stage == "loss-scaled"

    def test_derived_value(self):
        m = KnowledgeMatrix(
            values=np.full((18, 7), ref_sigmoid(-2.0)), stage="aggregate"
        )
        out = scale_for_loss(m)
        assert out.values[0, 0] == pytest.approx(0.596, abs=1e-3)

    def test_wrong_stage_rejected(self):
        m = KnowledgeMatrix(values=np.full((18, 7), 0.5), stage="per-dataset")
        with pytest.raises(ContractError):
            scale_for_loss(m)

    def test_range_over_random_input(self, rng):
        for _ in range(50):
            m = KnowledgeMatrix(
                values=sigmoid(rng.normal(0, 3, (18, 7))), stage="aggregate"
            )
            out = scale_for_loss(m)
            assert np.all(out.values > 0) and np.all(out.values < 5)


class TestKnowledgeIO:
    def _matrix(self, rng):
        return KnowledgeMatrix(
            values=rng.uniform(0.01, 0.99, (18, 7)),
            stage="aggregate",
            dataset_count=3,
            theta=0.55,
            support=rng.integers(0, 100, (18, 7)),
        )

    def test_roundtrip_exact(self, rng, tmp_path):
        m = self._matrix(rng)
        path = tmp_path / "k.csv"
        export_knowledge(m, path)
        loaded = import_knowledge(path)
        assert np.array_equal(loaded.values, m.values)
        assert np.array_equal(loaded.support, m.support)
        assert loaded.stage == m.stage
        assert loaded.dataset_count == m.dataset_count
        assert loaded.theta == m.theta

    def test_truncated_rejected(self, rng, tmp_path):
        path = tmp_path / "k.csv"
        export_knowledge(self._matrix(rng), path)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:10]))
        with pytest.raises(ContractError, match="corrupt|18"):
            import_knowledge(path)

    def test_missing_stage_rejected(self, rng, tmp_path):
        path = tmp_path / "k.csv"
        export_knowledge(self._matrix(rng), path)
        content = [
            ln for ln in path.read_text().splitlines() if not ln.startswith("# stage")
        ]
        path.write_text("\n".join(content))
        with pytest.raises(ContractError, match="stage"):
            import_knowledge(path)

    def test_version_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "k.csv"
        export_knowledge(self._matrix(rng), path)
        content = path.read_text().replace("knowledge-matrix v1", "knowledge-matrix v9")
        path.write_text(content)
        with pytest.raises(ContractError, match="version"):
            import_knowledge(path)

    def test_version_checked_before_the_body(self, rng, tmp_path):
        # another version, with a 5-row body this reader cannot parse, is
        # reported by its version, not by its body
        path = tmp_path / "k.csv"
        export_knowledge(self._matrix(rng), path)
        lines = path.read_text().replace("knowledge-matrix v1", "knowledge-matrix v2")
        meta = [ln for ln in lines.splitlines() if ln.startswith("#")]
        body = [ln for ln in lines.splitlines() if not ln.startswith("#")]
        path.write_text("\n".join(meta + body[:5]) + "\n")
        with pytest.raises(ContractError,
                           match="no '# knowledge-matrix v1' version line"):
            import_knowledge(path)

    def test_validate_accepts_all_pipeline_outputs(self, rng, tmp_path):
        per_dataset = KnowledgeMatrix(
            values=sigmoid(rng.normal(0, 2, (18, 7))), stage="per-dataset"
        )
        aggregate = aggregate_knowledge([per_dataset, per_dataset])
        scaled = scale_for_loss(aggregate)
        for m in (per_dataset, aggregate, scaled):
            assert 0.0 <= m.values.min() <= m.values.max() <= KNOWLEDGE_STAGES[m.stage]
