"""Seeded input generators for the aukit benchmark.

Run as a script, this writes one workload's inputs into a directory:

    python3 perfbench/inputs.py --workload frames --seed 0 --out DIR

The package only ever receives the files under DIR/data and the training
configuration DIR/config.json; DIR/truth.json and
DIR/properties.json belong to the benchmark (ground truth for the output
checks, and the measured properties of the inputs it reports).

* study, wide: a synthetic train/test pair written with `aukit synth-gen
  --spec`. Both splits share one fixed structure seed and differ in
  `sample_seed`, as acceptance criterion 7 does, so the test split has the
  same class anchors and AU mixing map as the training split. The workload
  seed picks the samples, not the task, so test UAR moves with the program
  rather than with the seed.
* frames: a two-dataset corpus in OpenFace 2.2.0 layout, one CSV per video,
  plus one per-frame expression-score CSV per dataset and one video-label CSV
  that covers every video.
"""

import argparse
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (Happy, Sad, Neutral, Angry, Surprise, Disgust, Fear), as aukit orders them
EXPRESSIONS = ("Happy", "Sad", "Neutral", "Angry", "Surprise", "Disgust", "Fear")
AU_NAMES = (
    "AU01", "AU02", "AU04", "AU05", "AU06", "AU07", "AU09", "AU10", "AU12",
    "AU14", "AU15", "AU17", "AU20", "AU23", "AU25", "AU26", "AU28", "AU45",
)
INTENSITY_AUS = tuple(i for i, n in enumerate(AU_NAMES) if n != "AU28")

# FACS-style signature AUs per class (indices into AU_NAMES). The frames
# check requires the top 3 AUs of each signed class in the aggregated
# knowledge matrix to be exactly its signature.
SIGNATURES = (
    (4, 8, 14),      # Happy: AU06, AU12, AU25
    (0, 10, 11),     # Sad: AU01, AU15, AU17
    (),              # Neutral
    (2, 5, 13),      # Angry: AU04, AU07, AU23
    (1, 3, 15),      # Surprise: AU02, AU05, AU26
    (6, 7, 9),       # Disgust: AU09, AU10, AU14
    (0, 2, 12),      # Fear: AU01, AU04, AU20
)

# synthetic train/test pairs (criterion-7 shape)
TRAIN_N, TEST_N = 2000, 2100
STRUCTURE_SEED = 0
FEATURE_DIM = {"study": 64, "wide": 1024}
# aukit TrainConfig fields the training workloads set through --config
TRAIN_CONFIG = {
    "study": {"epochs": 150, "hidden": [32], "batch_size": 64},
    "wide": {"epochs": 20, "hidden": [128], "batch_size": 64},
}

# frames corpus
DATASETS = ("A", "B")
VIDEOS_PER_DATASET = 100
TOTAL_FRAMES = 60_000          # primary-face frames over both datasets
MIN_LEN, MAX_LEN = 30, 600
CLASS_SHARES = (0.25, 0.20, 0.20, 0.15, 0.08, 0.05, 0.07)
MIN_VIDEOS_PER_CLASS = 4
DROPOUT = 0.05                 # intensity cells written as exactly zero
UNSUCCESSFUL = 0.01            # frames with success = 0
LOW_CONFIDENCE = 0.03          # frames with confidence below 0.8
SECONDARY_FACE = 0.005         # extra rows with face_id = 1
EXTRA_AU = 0.10                # chance a video shows a non-signature AU
SIGNATURE_LEVEL, EXTRA_LEVEL, REST_LEVEL, LEVEL_SD = 4.0, 2.8, 0.8, 0.6
PRESENT_P, ABSENT_P = 0.60, 0.40   # per-frame presence chance by video truth
TARGET_SCORE = (0.2, 0.95)     # asserted-class score; P(> 0.5) = 0.6
THETA = 0.5

OPENFACE_COLUMNS = (
    ["frame", "face_id", "timestamp", "confidence", "success"]
    + [f"{AU_NAMES[j]}_r" for j in INTENSITY_AUS]
    + [f"{n}_c" for n in AU_NAMES]
)
OPENFACE_FMT = (
    ["%d", "%d", "%.3f", "%.2f", "%d"]
    + ["%.2f"] * len(INTENSITY_AUS)
    + ["%d"] * len(AU_NAMES)
)


def video_lengths(rng, count, total):
    """Mixed lengths in [MIN_LEN, MAX_LEN] that sum to exactly `total`."""
    raw = rng.uniform(MIN_LEN, MAX_LEN, count)
    lengths = np.clip(np.round(raw * total / raw.sum()), MIN_LEN, MAX_LEN)
    lengths = lengths.astype(np.int64)
    while lengths.sum() != total:
        step = 1 if lengths.sum() < total else -1
        room = np.flatnonzero(lengths < MAX_LEN if step > 0 else lengths > MIN_LEN)
        pick = rng.choice(room, size=min(abs(total - lengths.sum()), room.size),
                          replace=False)
        lengths[pick] += step
    return lengths


def class_plan(rng, count):
    """Per-video class labels: CLASS_SHARES with a floor per class, shuffled."""
    counts = np.maximum(
        MIN_VIDEOS_PER_CLASS, np.round(np.array(CLASS_SHARES) * count)
    ).astype(np.int64)
    counts[0] += count - counts.sum()
    return rng.permutation(np.repeat(np.arange(len(EXPRESSIONS)), counts))


def video_frames(rng, label, length):
    """One video's OpenFace rows plus its ground-truth 18-bit AU pattern."""
    signature = np.zeros(len(AU_NAMES), dtype=bool)
    signature[list(SIGNATURES[label])] = True
    truth = signature | (rng.random(len(AU_NAMES)) < EXTRA_AU)

    level = np.where(signature, SIGNATURE_LEVEL,
                     np.where(truth, EXTRA_LEVEL, REST_LEVEL))[list(INTENSITY_AUS)]
    intensity = np.clip(
        level + rng.normal(0.0, LEVEL_SD, (length, len(INTENSITY_AUS))), 0.05, 5.0
    )
    intensity[rng.random(intensity.shape) < DROPOUT] = 0.0
    presence = rng.random((length, len(AU_NAMES))) < np.where(
        truth, PRESENT_P, ABSENT_P
    )
    low = rng.random(length) < LOW_CONFIDENCE
    confidence = np.where(low, rng.uniform(0.30, 0.79, length),
                          rng.uniform(0.85, 0.99, length))
    success = rng.random(length) >= UNSUCCESSFUL

    frame = np.arange(1, length + 1)
    rows = np.column_stack([
        frame, np.zeros(length), (frame - 1) / 30.0, confidence, success,
        intensity, presence,
    ])
    # a second tracked face on a few frames, written right after the primary
    second = np.flatnonzero(rng.random(length) < SECONDARY_FACE)
    if second.size:
        extra = rows[second].copy()
        extra[:, 1] = 1
        extra[:, 5:5 + len(INTENSITY_AUS)] = rng.uniform(
            0.05, 5.0, (second.size, len(INTENSITY_AUS))
        )
        rows = np.insert(rows, second + 1, extra, axis=0)
    stats = {
        "dropout_cells": int((intensity == 0.0).sum()),
        "low_confidence": int(low.sum()),
        "unsuccessful": int((~success).sum()),
        "dropped_by_confidence": int((low | ~success).sum()),
        "secondary_rows": int(second.size),
    }
    return rows, truth, stats


def score_rows(rng, video_id, label, length):
    """Per-frame score lines: asserted-class score uniform in TARGET_SCORE."""
    target = rng.uniform(*TARGET_SCORE, length)
    rest = rng.dirichlet(np.ones(len(EXPRESSIONS) - 1), length) * (1.0 - target)[:, None]
    scores = np.insert(rest, label, target, axis=1)
    name = EXPRESSIONS[label]
    lines = [
        f"{video_id},{i + 1},{name}," + ",".join(f"{s:.6f}" for s in row)
        for i, row in enumerate(scores)
    ]
    return lines, int((target > THETA).sum())


def write_frames_corpus(seed, out):
    rng = np.random.default_rng([seed, 0xF4A])
    data = os.path.join(out, "data")
    csv_dir = os.path.join(data, "openface")
    os.makedirs(csv_dir)
    lengths = video_lengths(rng, VIDEOS_PER_DATASET * len(DATASETS), TOTAL_FRAMES)
    header = ", ".join(OPENFACE_COLUMNS)
    truth, label_lines = {}, ["video_id,label"]
    totals = dict.fromkeys(
        ["dropout_cells", "low_confidence", "unsuccessful",
         "dropped_by_confidence", "secondary_rows", "theta_pass"], 0
    )
    csv_bytes = 0
    for d, dataset in enumerate(DATASETS):
        score_lines = ["video_id,frame,label," + ",".join(f"s{j}" for j in range(7))]
        labels = class_plan(rng, VIDEOS_PER_DATASET)
        for v, label in enumerate(labels):
            video_id = f"{dataset}{v:03d}"
            length = int(lengths[d * VIDEOS_PER_DATASET + v])
            rows, video_truth, stats = video_frames(rng, int(label), length)
            path = os.path.join(csv_dir, video_id + ".csv")
            np.savetxt(path, rows, fmt=OPENFACE_FMT, delimiter=", ",
                       header=header, comments="")
            csv_bytes += os.path.getsize(path)
            lines, passed = score_rows(rng, video_id, int(label), length)
            score_lines.extend(lines)
            for key, value in stats.items():
                totals[key] += value
            totals["theta_pass"] += passed
            truth[video_id] = [int(b) for b in video_truth]
            label_lines.append(f"{video_id},{EXPRESSIONS[label]}")
        with open(os.path.join(data, f"scores_{dataset}.csv"), "w") as fh:
            fh.write("\n".join(score_lines) + "\n")
    with open(os.path.join(data, "video_labels.csv"), "w") as fh:
        fh.write("\n".join(label_lines) + "\n")

    q1, q2, q3 = np.percentile(lengths, [25, 50, 75])
    properties = {
        "frames": TOTAL_FRAMES,
        "videos": int(lengths.size),
        "datasets": len(DATASETS),
        "length_min": int(lengths.min()),
        "length_quartiles": [float(q1), float(q2), float(q3)],
        "length_max": int(lengths.max()),
        "csv_bytes": csv_bytes,
        "dropout_share": totals["dropout_cells"] / (TOTAL_FRAMES * len(INTENSITY_AUS)),
        "theta_pass_share": totals["theta_pass"] / TOTAL_FRAMES,
        "confidence_drop_share": totals["dropped_by_confidence"] / TOTAL_FRAMES,
        "low_confidence_share": totals["low_confidence"] / TOTAL_FRAMES,
        "unsuccessful_share": totals["unsuccessful"] / TOTAL_FRAMES,
        "secondary_face_rows": totals["secondary_rows"],
    }
    return truth, properties


def write_synth_pair(workload, seed, out):
    from aukit.cli import main as aukit_main

    data = os.path.join(out, "data")
    os.makedirs(data)
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(TRAIN_CONFIG[workload], fh)
    properties = {"feature_dim": FEATURE_DIM[workload], "structure_seed": STRUCTURE_SEED}
    for split, n, sample_seed in (
        ("train", TRAIN_N, 2 * seed + 1), ("test", TEST_N, 2 * seed + 2)
    ):
        spec = os.path.join(out, f"spec_{split}.json")
        with open(spec, "w") as fh:
            json.dump({"seed": STRUCTURE_SEED, "sample_seed": sample_seed,
                       "feature_dim": FEATURE_DIM[workload]}, fh)
        code = aukit_main(["synth-gen", "--spec", spec, "--n", str(n),
                           "--out", os.path.join(data, split)])
        if code != 0:
            raise SystemExit(f"synth-gen exited {code} for the {split} split")
        labels = np.loadtxt(os.path.join(data, split, "expression_labels.csv"),
                            dtype=np.int64)
        properties[f"{split}_n"] = n
        properties[f"{split}_class_counts"] = np.bincount(labels, minlength=7).tolist()
    return {}, properties


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "wide", "frames"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(args.out)
    if args.workload == "frames":
        truth, properties = write_frames_corpus(args.seed, args.out)
    else:
        truth, properties = write_synth_pair(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "truth.json"), "w") as fh:
        json.dump(truth, fh)
    with open(os.path.join(args.out, "properties.json"), "w") as fh:
        json.dump(properties, fh, indent=1)


if __name__ == "__main__":
    main()
