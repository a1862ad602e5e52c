"""In-memory span tracer and the per-layer table built from its spans.

The tracer wraps aukit functions at the name their caller looks up (for
example `aukit.harness.forward`, because `harness` imports `forward` by
name), records one span per call with its parent, and takes counts from the
arguments and return values at the same boundary. Counting runs inside a
`trace.count` child span so it never inflates a layer's self time.
"""

import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

COUNT_SPAN = "trace.count"

CLI_SUBCOMMANDS = (
    "ingest", "extract-knowledge", "aggregate-knowledge", "pseudo-label",
    "pos-weights", "train", "eval", "sweep", "compare-strategies",
)

# (span name, metric stats) for functions reported by call statistics
CALL_STATS = (
    ("model.forward", ("calls", "self_s", "p50_us", "p99_us")),
    ("model.backward", ("calls", "self_s", "p50_us", "p99_us")),
    ("model.optimizer_step", ("calls", "self_s", "p50_us", "p99_us")),
    ("losses.expression_loss", ("calls", "self_s", "p50_us", "p99_us")),
    ("losses.au_loss", ("calls", "self_s", "p50_us", "p99_us")),
    ("harness.train", ("calls", "s", "self_s")),
    ("harness.evaluate", ("calls", "self_s", "p50_us")),
    ("harness.lambda_sweep", ("s",)),
    ("harness.strategy_compare", ("s",)),
    ("model.save_checkpoint", ("s",)),
    ("model.load_checkpoint", ("s",)),
    ("ingest.parse_openface_csv", ("calls",)),
    ("ingest.interpolate_zero_intensities", ("calls",)),
    ("ingest.write_frame_store", ("calls",)),
    ("ingest.read_frame_store", ("calls",)),
    ("knowledge.filter_reliable_frames", ("s",)),
    ("knowledge.aggregate_knowledge", ("s",)),
    ("labeling.derive_video_au_labels", ("calls",)),
    ("labeling.compute_pos_weights", ("s",)),
)

# metric -> span; the count under the span's name over the span's total time
RATES = {
    "ingest.parse_openface_csv.frames_per_s": "ingest.parse_openface_csv",
    "ingest.interpolate_zero_intensities.frames_per_s":
        "ingest.interpolate_zero_intensities",
    "ingest.write_frame_store.frames_per_s": "ingest.write_frame_store",
    "ingest.read_frame_store.frames_per_s": "ingest.read_frame_store",
    "ingest.load_frame_predictions.rows_per_s": "ingest.load_frame_predictions",
    "knowledge.compute_dataset_knowledge.frames_per_s":
        "knowledge.compute_dataset_knowledge",
    "labeling.derive_video_au_labels.frames_per_s":
        "labeling.derive_video_au_labels",
}

# metric -> count key; items returned over items passed in
RATIOS = {
    "ingest.reliable_detections.kept_ratio": "ingest.reliable_detections",
    "knowledge.filter_reliable_frames.kept_ratio": "knowledge.filter_reliable_frames",
}

# per-pass totals of counts taken under the metric's own name, with units
TOTALS = {
    "ingest.interpolate_zero_intensities.cells_repaired": "cells",
    "ingest.write_frame_store.bytes": "B",
    "model.save_checkpoint.bytes": "B",
    "model.load_checkpoint.bytes": "B",
    "harness.train.steps": "count",
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, stats in CALL_STATS:
        for stat in stats:
            units[f"{span}.{stat}"] = UNITS[stat]
    for name in RATES:
        units[name] = name.rsplit("_per_s", 1)[0].rsplit(".", 1)[1] + "/s"
    for name in RATIOS:
        units[name] = "ratio"
    units.update(TOTALS)
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.count_errors"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


class Tracer:
    """Spans (name, start, end, parent) and counts, held in memory."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = Counter()
        self._stack = [-1]
        self._patched = []

    def _open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index, start):
        self.ends[index] = perf_counter()
        self.starts[index] = start
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced version until `unwrap_all`.

        A function the program no longer has is left out, so its layer
        reports zero calls instead of stopping the traced run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if count is not None:
                with self.span(COUNT_SPAN):
                    try:
                        count(self.counts, args, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # arguments or results of another shape than the
                        # counter expects: count the miss, keep the timings
                        self.counts["trace.count_errors"] += 1
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")


def instrument(tracer):
    """Wrap every layer function the aukit CLI reaches, at its lookup name."""
    from aukit import harness, ingest, knowledge, labeling, model

    def frames_in(key):
        def count(counts, args, result):
            counts[key] += len(args[0])
        return count

    def frames_out(key):
        def count(counts, args, result):
            counts[key] += len(result)
        return count

    def kept(key, before, after):
        def count(counts, args, result):
            counts[key + ".in"] += len(before(args))
            counts[key + ".out"] += len(after(result))
        return count

    def repaired(counts, args, result):
        records = result[0]
        counts["ingest.interpolate_zero_intensities"] += len(records)
        counts["ingest.interpolate_zero_intensities.cells_repaired"] += int(
            sum(int(r.interpolated_mask.sum()) for r in records)
        )

    def store_written(counts, args, result):
        counts["ingest.write_frame_store"] += len(args[0])
        counts["ingest.write_frame_store.bytes"] += os.path.getsize(args[1])

    def file_bytes(key, position):
        def count(counts, args, result):
            counts[key] += os.path.getsize(args[position])
        return count

    def train_steps(counts, args, result):
        counts["harness.train.steps"] += result[1].step

    for attr in ("forward", "backward", "optimizer_step"):
        tracer.wrap(harness, attr, f"model.{attr}")
    tracer.wrap(harness, "expression_loss", "losses.expression_loss")
    tracer.wrap(harness, "au_loss", "losses.au_loss")
    tracer.wrap(harness, "compute_pos_weights", "labeling.compute_pos_weights")
    tracer.wrap(harness, "train", "harness.train", train_steps)
    tracer.wrap(harness, "evaluate", "harness.evaluate")
    tracer.wrap(harness, "lambda_sweep", "harness.lambda_sweep")
    tracer.wrap(harness, "strategy_compare", "harness.strategy_compare")
    tracer.wrap(model, "save_checkpoint", "model.save_checkpoint",
                file_bytes("model.save_checkpoint.bytes", 2))
    tracer.wrap(model, "load_checkpoint", "model.load_checkpoint",
                file_bytes("model.load_checkpoint.bytes", 0))
    tracer.wrap(ingest, "parse_openface_csv", "ingest.parse_openface_csv",
                frames_out("ingest.parse_openface_csv"))
    tracer.wrap(ingest, "interpolate_zero_intensities",
                "ingest.interpolate_zero_intensities", repaired)
    tracer.wrap(ingest, "write_frame_store", "ingest.write_frame_store",
                store_written)
    tracer.wrap(ingest, "read_frame_store", "ingest.read_frame_store",
                frames_out("ingest.read_frame_store"))
    tracer.wrap(ingest, "reliable_detections", "ingest.reliable_detections",
                kept("ingest.reliable_detections", lambda a: a[0], lambda r: r))
    tracer.wrap(ingest, "load_frame_predictions", "ingest.load_frame_predictions",
                frames_out("ingest.load_frame_predictions"))
    tracer.wrap(knowledge, "filter_reliable_frames",
                "knowledge.filter_reliable_frames",
                kept("knowledge.filter_reliable_frames",
                     lambda a: a[0], lambda r: r.members))
    tracer.wrap(knowledge, "compute_dataset_knowledge",
                "knowledge.compute_dataset_knowledge",
                frames_in("knowledge.compute_dataset_knowledge"))
    tracer.wrap(knowledge, "aggregate_knowledge", "knowledge.aggregate_knowledge")
    tracer.wrap(labeling, "derive_video_au_labels",
                "labeling.derive_video_au_labels",
                frames_in("labeling.derive_video_au_labels"))
    tracer.wrap(labeling, "compute_pos_weights", "labeling.compute_pos_weights")


def layer_metrics(tracer, passes, overhead_s, overhead_share):
    """The per-layer table: per-pass totals, and call percentiles over all passes."""
    names = np.array(tracer.names, dtype=object)
    parents = np.array(tracer.parents, dtype=np.int64)
    duration = np.array(tracer.ends) - np.array(tracer.starts)
    child = np.zeros_like(duration)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], duration[has_parent])
    self_time = duration - child

    def select(name):
        return names == name

    values = {}
    for span, stats in CALL_STATS:
        mask = select(span)
        calls = duration[mask]
        for stat in stats:
            if stat == "calls":
                value = mask.sum() / passes
            elif stat == "s":
                value = calls.sum() / passes
            elif stat == "self_s":
                value = self_time[mask].sum() / passes
            else:
                q = 50 if stat == "p50_us" else 99
                value = float(np.percentile(calls, q)) * 1e6 if calls.size else 0.0
            values[f"{span}.{stat}"] = float(value)
    for metric, span in RATES.items():
        seconds = duration[select(span)].sum()
        values[metric] = tracer.counts[span] / seconds if seconds > 0 else 0.0
    for metric, key in RATIOS.items():
        seen = tracer.counts[key + ".in"]
        values[metric] = tracer.counts[key + ".out"] / seen if seen else 0.0
    for metric in TOTALS:
        values[metric] = tracer.counts[metric] / passes
    cli_self = 0.0
    for sub in CLI_SUBCOMMANDS:
        mask = select(f"cli.{sub}")
        values[f"cli.{sub}.s"] = float(duration[mask].sum() / passes)
        cli_self += self_time[mask].sum() / passes
    values["cli.self_s"] = float(cli_self)
    values["trace.spans"] = len(names) / passes
    values["trace.count_errors"] = tracer.counts["trace.count_errors"]
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_share
    return values
