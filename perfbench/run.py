"""The aukit benchmark: one workload per process, through `aukit.cli.main`.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed in a child process,
several times, and reports the median as `setup_s`. The timed phase then runs
whole passes of the workload in this process until the next pass would end
after `--seconds`, and checks every pass's outputs. A fixed reference kernel
(calibrate.py) runs during or right around every timed step, and the step's
time is divided by how much slower than usual the host ran the kernel, so
the times reported are seconds of the reference host. With `--trace 0` the
last line of standard output is a JSON object holding every end-to-end metric
of BENCHMARK.json; with `--trace 1` passes alternate untraced and traced and
the object holds every per-layer metric. See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import logging
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import spans
from calibrate import Calibrator
from workloads import WORKLOADS, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5


def load_aukit():
    """aukit.cli.main from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import aukit.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import aukit from {SRC}: {exc}")
    if not os.path.abspath(aukit.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: aukit resolved outside {SRC}")
    return aukit.cli.main


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def tree_hash(path):
    """(relative name, sha256) of every file under path, sorted."""
    names = sorted(
        os.path.relpath(os.path.join(d, f), path)
        for d, _, files in os.walk(path) for f in files
    )
    return [(name, sha256(os.path.join(path, name))) for name in names]


def set_up(workload, seed, log, calibrator):
    """Generate the inputs SETUP_REPEATS times; identical bytes every time.
    Returns the median set-up time, in reference-host and in measured
    seconds, and the inputs' directory."""
    normalized, measured, digests = [], [], []
    for k in range(SETUP_REPEATS):
        out = os.path.join(WORK, f"inputs{k}")
        code, wall, slowdown = calibrator.around(lambda: subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", out],
            stdout=log, stderr=log, check=False,
        ).returncode)
        if code != 0:
            raise SystemExit(f"perfbench: input generation exited {code}")
        normalized.append(wall / slowdown)
        measured.append(wall)
        digests.append(tree_hash(out))
        if k:
            shutil.rmtree(out)
    if any(d != digests[0] for d in digests):
        raise SystemExit("perfbench: the same seed generated different inputs")
    return (statistics.median(normalized), statistics.median(measured),
            os.path.join(WORK, "inputs0"))


def throughput(work, walls):
    """items / seconds for each (items, subcommands) of work; walls lists
    (subcommand, seconds) of one pass."""
    return [items / sum(w for sub, w in walls if sub in subs) for items, subs in work]


class Runner:
    """Runs passes of one workload and keeps their figures."""

    def __init__(self, workload, seed, cli_main, log, calibrator):
        self.steps, self.inspect = WORKLOADS[workload]
        self.calibrator = calibrator
        self.seed = seed
        self.cli_main = cli_main
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.results = []
        # (subcommand, measured seconds, host slowdown) of every call
        self.timeline = []

    def run_pass(self, inputs, tracer=None):
        """One pass in a fresh directory; returns its time in reference-host
        seconds."""
        out = os.path.join(WORK, "pass")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        walls, normalized = [], []
        for sub, argv in self.steps(inputs, out, self.seed):
            self.attempted += 1
            # the kernel must not run inside the spans of a traced pass
            timed = self.calibrator.around if tracer else self.calibrator.during
            code, wall, slowdown = timed(lambda: self.call(sub, argv, tracer))
            walls.append((sub, wall))
            normalized.append((sub, wall / slowdown))
            self.timeline.append((sub, wall, slowdown))
            if code != 0:
                self.fail(f"{sub} exited {code}")
                return sum(w for _, w in normalized)
        try:
            result = self.inspect(inputs, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.fail(f"outputs unreadable: {exc!r}")
            return sum(w for _, w in normalized)
        result["pass_s"] = sum(w for _, w in normalized)
        result["traced"] = tracer is not None
        result["rates"] = throughput(result["work"], normalized)
        result["measured_rates"] = throughput(result["work"], walls)
        for name, (items, subs, unit) in result.pop("rate_figures").items():
            result["figures"][name] = (throughput([(items, subs)], normalized)[0], unit)
        if self.results:
            result["checks"].append(
                ("deterministic_artifacts", result["hashes"] == self.results[0]["hashes"])
            )
        for name, ok in result["checks"]:
            self.attempted += 1
            if not ok:
                self.fail(f"check {name} failed")
        self.results.append(result)
        return result["pass_s"]

    def call(self, sub, argv, tracer):
        """aukit.cli.main(argv)'s exit code; anything it raises is a failure."""
        span = tracer.span(f"cli.{sub}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(self.log), \
                contextlib.redirect_stderr(self.log), span:
            try:
                return self.cli_main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code
            except Exception:  # a bare traceback is a failed subcommand
                traceback.print_exc(file=self.log)
                return "exception"

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)
        print(f"perfbench: {message}", file=self.log, flush=True)


def timed_phase(runner, inputs, seconds, trace):
    """Passes until the next would end after `seconds`; traced ones alternate."""
    untraced, traced, tracer = [], [], None
    if trace:
        tracer = spans.Tracer()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(runner.run_pass(inputs))
        if trace:
            spans.instrument(tracer)
            try:
                traced.append(runner.run_pass(inputs, tracer))
            finally:
                tracer.unwrap_all()
        elapsed = perf_counter() - start
        if runner.failed or elapsed + (perf_counter() - round_start) > seconds:
            return untraced, traced, tracer


def median_figures(results):
    names = results[0]["figures"]
    return {
        name: (statistics.median(r["figures"][name][0] for r in results),
               results[0]["figures"][name][1])
        for name in names
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="aukit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    cli_main = load_aukit()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(os.path.join(WORK, "log.txt"), "w") as log:
        logging.basicConfig(stream=log, level=logging.WARNING)
        calibrator = Calibrator()
        setup_s, measured_setup_s, inputs = set_up(args.workload, args.seed, log,
                                                   calibrator)
        with open(os.path.join(inputs, "properties.json")) as fh:
            properties = json.load(fh)
        runner = Runner(args.workload, args.seed, cli_main, log, calibrator)
        untraced, traced, tracer = timed_phase(runner, inputs, args.seconds, args.trace)
        logging.shutdown()

    # figures come from untraced passes; traced ones only add to the checks
    results = [r for r in runner.results if not r["traced"]]
    if not results:
        raise SystemExit(f"perfbench: no pass completed: {runner.failures}")
    # times are in seconds of the reference host; see calibrate.py
    figures = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(r for res in results for r in res["rates"]),
                        "items/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality": (statistics.median(r["quality"] for r in results), "ratio"),
    }
    end_to_end = dict(figures)
    figures["measured_setup_s"] = (measured_setup_s, "s")
    figures["measured_items_per_s"] = (
        statistics.median(r for res in results for r in res["measured_rates"]), "items/s")
    figures["host_slowdown"] = (statistics.median(calibrator.slowdowns), "ratio")
    figures.update(median_figures(results))
    figures["failed_ops_share"] = (runner.failed / runner.attempted, "ratio")

    if args.trace:
        tracer.write(os.path.join(WORK, "spans.csv"))
        base = statistics.median(untraced)
        overhead = statistics.median(traced) - base
        values = spans.layer_metrics(tracer, len(traced), overhead, overhead / base)
        units = spans.metric_units()
        wanted = contract["per_layer"]
    else:
        values = {name: value for name, (value, _) in end_to_end.items()}
        units = {name: unit for name, (_, unit) in end_to_end.items()}
        wanted = contract["end_to_end"]
    if set(values) != {m["name"] for m in wanted} or any(
        units[m["name"]] != m["unit"] for m in wanted
    ):
        raise SystemExit("perfbench: metrics out of step with BENCHMARK.json")

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs": properties,
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "kernel_runs": len(calibrator.seconds),
        "subcommands": runner.timeline,
        "figures": {n: {"value": v, "unit": u} for n, (v, u) in figures.items()},
        "hashes": results[0]["hashes"],
        "failures": runner.failures,
    }
    with open(os.path.join(WORK, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for name, (value, unit) in figures.items():
        print(f"{args.workload:7s} {name:24s} {value:14.6g} {unit}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
