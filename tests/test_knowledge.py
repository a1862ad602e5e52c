import math
import re
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aukit.domain import (
    AU28_INDEX,
    EXPRESSIONS,
    ContractError,
    KNOWLEDGE_STAGES,
    KnowledgeMatrix,
)
from aukit import ingest
from aukit.cli import EXIT_CONTRACT, EXIT_OK, main
from aukit.ingest import (
    FRAME_DTYPE,
    PREDICTION_COLUMNS,
    load_frame_predictions,
    read_predictions,
    write_frame_store,
)
from aukit.knowledge import (
    MEMBER_DTYPE,
    ReliableRows,
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


def member_keys(reliable):
    """(video_id, frame_index) of each reliable member, in its order."""
    return [(reliable.video_ids[video], frame)
            for video, frame in reliable.members[["video", "frame_index"]].tolist()]


def class_counts(reliable):
    return np.bincount(reliable.members["label"], minlength=7)


class TestFilterReliableFrames:
    def test_strictly_above_kept(self):
        preds = make_predictions([make_prediction("v", 1, 0, 0.9)])
        kept = filter_reliable_frames(preds, 0.5)
        assert member_keys(kept) == [("v", 1)]

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
        assert member_keys(kept) == sorted(rows)

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

    def test_rejects_inputs_of_different_theta(self):
        # the aggregate once took the first input's theta, so the order of
        # the inputs decided the theta it reported
        low, high = (replace(self._uniform(0.5), theta=t) for t in (0.3, 0.7))
        for inputs in ([low, high], [high, low, low]):
            with pytest.raises(ContractError, match=r"must share theta, got "
                               r"0\.3 and 0\.7$"):
                aggregate_knowledge(inputs)
        assert aggregate_knowledge([high, high]).theta == 0.7


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


# --- theta applied as the predictions are read --------------------------------
#
# extract-knowledge reads the predictions one block at a time (ingest's
# BLOCK_CHARS, 64 characters under the small_blocks fixture) and keeps only
# each row's key and the reliable rows. Errors and the rows kept must not
# depend on where a block ends.

THETA = 0.5


def read_reliable(text):
    """The ReliableFrameSet of a predictions text, read as extract-knowledge reads it."""
    rows = ReliableRows(THETA)
    return rows.frame_set(read_predictions(text, rows.add))


def prediction_line(frame, label, top=0.70):
    """A prediction of video v1, two decimals a score: `top` for `label`
    and the rest spread over the others, which sums to 1 where the rest
    splits into hundredths; for top 0.50, two cells at 0.25, so the
    asserted score is exactly 0.5."""
    if top == 0.50:
        cells = [0.0] * 7
        cells[(label + 1) % 7] = cells[(label + 2) % 7] = 0.25
    else:
        cells = [(1.0 - top) / 6] * 7
    cells[label] = top
    return f"v1,{frame:03d},{EXPRESSIONS[label]}," + ",".join(f"{c:.2f}" for c in cells)


def predictions_text():
    """Reliable predictions of v1's frames 1..70, the labels in turn."""
    lines = [",".join(PREDICTION_COLUMNS)]
    lines += [prediction_line(f, f % 7) for f in range(1, 71)]
    return "\n".join(lines) + "\n"


def write_store(directory):
    """The frame store of v1: frames 1..70, each confident and successful."""
    frames = np.zeros(70, FRAME_DTYPE)
    frames["frame_index"] = np.arange(1, 71)
    frames["confidence"], frames["success"] = 0.95, True
    frames["intensities"] = np.random.default_rng(0).uniform(0.5, 4.5, (70, 17))
    directory.mkdir(exist_ok=True)
    write_frame_store(frames, directory / f"v1{ingest.FRAME_STORE_SUFFIX}")


def extract(tmp_path, text):
    """Exit code of extract-knowledge on a store of v1 and `text`."""
    write_store(tmp_path / "store")
    (tmp_path / "scores.csv").write_text(text)
    return main(["extract-knowledge", "--frames", str(tmp_path / "store"),
                 "--preds", str(tmp_path / "scores.csv"), "--theta", str(THETA),
                 "--out", str(tmp_path / "k.csv")])


def _replace_line(text, frame, line):
    old = next(ln for ln in text.split("\n") if ln.startswith(f"v1,{frame:03d},"))
    return text.replace(old, line)


# (text, the error, whether extract-knowledge prefixes it with the file's
# path: it does for a parse error, not for a duplicate)
STREAMED_ERRORS = {
    # the twin of frame 2 sits dozens of blocks after it
    "duplicate_across_blocks": (
        predictions_text() + prediction_line(2, 5) + "\n",
        "duplicate prediction for video 'v1' frame 2", False),
    # a bad sum in the first block loses to a bad cell or a negative score later
    "sum_then_bad_cell": (
        _replace_line(_replace_line(predictions_text(), 1, prediction_line(1, 1, 0.90)),
                      60, prediction_line(60, 4).replace(",0.05,", ",x,", 1)),
        "row 61: non-numeric value 'x' in column 's0'", True),
    "sum_then_negative": (
        _replace_line(_replace_line(predictions_text(), 1, prediction_line(1, 1, 0.90)),
                      60, prediction_line(60, 4).replace(",0.05,", ",-0.05,", 1)),
        "row 61: negative score", True),
}


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("case", sorted(STREAMED_ERRORS))
def test_streamed_errors_across_blocks(case, tmp_path, capsys):
    text, message, named = STREAMED_ERRORS[case]
    assert len(list(ingest._blocks(text))) > 30
    with pytest.raises(ContractError, match="^" + re.escape(message) + "$"):
        read_reliable(text)
    capsys.readouterr()
    assert extract(tmp_path, text) == EXIT_CONTRACT
    prefix = f"{tmp_path / 'scores.csv'}: " if named else ""
    assert capsys.readouterr().err == f"error: {prefix}{message}\n"
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.usefixtures("small_blocks")
def test_asserted_score_equal_to_theta_is_dropped_at_a_block_edge(tmp_path):
    # the last row of one block and the first of the next both assert a
    # score of exactly theta: neither is reliable
    def first_frames(text):  # the frame cell of each block's first line
        return [block.split(",", 2)[1] for block in ingest._blocks(text)]

    text = predictions_text()
    first = first_frames(text)
    edge = int(first[len(first) // 2])
    for frame in (edge - 1, edge):
        text = _replace_line(text, frame, prediction_line(frame, frame % 7, 0.50))
    assert first_frames(text) == first
    reliable = read_reliable(text)
    kept = [frame for frame in range(1, 71) if frame not in (edge - 1, edge)]
    assert member_keys(reliable) == [("v1", frame) for frame in kept]
    assert extract(tmp_path, text) == EXIT_OK
    support = import_knowledge(tmp_path / "k.csv").support[0]
    assert support.tolist() == np.bincount([f % 7 for f in kept], minlength=7).tolist()


def _reliable_outcome(read):
    """The sorted ids and members a reader keeps, or its error."""
    try:
        reliable = read()
    except ContractError as exc:
        return str(exc)
    return reliable.video_ids.tolist(), member_keys(reliable), reliable.members.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", " b", "c "]), st.integers(0, 20),
                               st.integers(0, 6), st.sampled_from([0.40, 0.50, 0.94])),
                     max_size=30, unique_by=lambda row: (row[0].strip(), row[1])),
       twin=st.none() | st.integers(0, 29),
       size=st.sampled_from([1, 7, 64, 1 << 16]))
def test_streamed_rows_match_the_whole_table_rule(rows, twin, size):
    # ids that strip alike are one video, duplicates are found across any
    # block edge, and a score of exactly theta is dropped in every block
    if twin is not None and rows:
        video, frame, label, top = rows[twin % len(rows)]
        rows.append((video.strip(), frame, (label + 1) % 7, top))
    lines = [",".join(PREDICTION_COLUMNS)]
    for video, frame, label, top in rows:
        cells = prediction_line(frame, label, top).split(",")[3:]
        lines.append(",".join([video, str(frame), EXPRESSIONS[label], *cells]))
    text = "\n".join(lines) + "\n"
    expected = _reliable_outcome(
        lambda: filter_reliable_frames(load_frame_predictions(text), THETA))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "BLOCK_CHARS", size)
        assert _reliable_outcome(lambda: read_reliable(text)) == expected


def test_extract_knowledge_peak_memory(tmp_path):
    # 30 000 predictions of 100 videos, about 60 % reliable, and their
    # stores: the command holds one block of text, each row's key until the
    # keys are checked, the reliable members and the matched intensities.
    # The whole prediction table (about 2.5 MB here) and its sorted copy are
    # never built.
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 7, 30000)
    reliable = rng.random(30000) < 0.6
    lines = [",".join(PREDICTION_COLUMNS)]
    for i, (label, top) in enumerate(zip(labels.tolist(), np.where(reliable, 0.9, 0.3))):
        video, frame = divmod(i, 300)
        cells = [f"{(1.0 - top) / 6:.6f}"] * 7
        cells[label] = f"{top:.6f}"
        lines.append(f"vid{video:03d},{frame},{EXPRESSIONS[label]}," + ",".join(cells))
    (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
    for video in range(100):
        frames = np.zeros(300, FRAME_DTYPE)
        frames["frame_index"] = np.arange(300)
        frames["confidence"], frames["success"] = 0.95, True
        frames["intensities"] = rng.uniform(0.1, 5.0, (300, 17))
        write_frame_store(frames, tmp_path / f"vid{video:03d}{ingest.FRAME_STORE_SUFFIX}")
    argv = ["extract-knowledge", "--frames", str(tmp_path), "--preds",
            str(tmp_path / "scores.csv"), "--theta", "0.5", "--out", str(tmp_path / "k.csv")]
    assert main(argv) == EXIT_OK  # once first, so lazy imports are not counted
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every reliable prediction matches a confident frame of its store
    count = int(reliable.sum())
    assert import_knowledge(tmp_path / "k.csv").support[0].sum() == count
    members, matched = count * MEMBER_DTYPE.itemsize, count * 17 * 8
    allowance = 3 << 19  # 1.5 MiB: a block of text, a store, a class's joined rows
    assert peak <= members + matched + allowance, (
        f"peak {peak} B; members {members} B, matched intensities {matched} B")
