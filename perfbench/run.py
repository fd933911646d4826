"""Run one workload of the ribbonfold benchmark and print its metrics.

    python3 perfbench/run.py --workload knot --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; ribbonfold is imported from its ``src``
directory, so nothing needs installing.  One caller runs the workload's
operations in closed loop, whole passes at a time, until ``--seconds``
have passed, and checks every output.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from calibration import CALIBRATION_S, calibrate
from tracer import MODULES, Tracer, per_layer_metrics
from workloads import WORKLOADS, CliRunner, make_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120
# An operation's speed is the median of its own calibrations and those
# of the operations this many places before and after it in the run.  A
# cli command runs in a process of its own, so its speed is that
# process's calibration alone.
CALIBRATION_WINDOW = 1


def load_ribbonfold():
    """Import ribbonfold and all its modules from this checkout's src."""
    if not os.path.isfile(os.path.join(SRC, "ribbonfold", "__init__.py")):
        raise ImportError("no ribbonfold package under %s" % SRC)
    sys.path.insert(0, SRC)
    rf = importlib.import_module("ribbonfold")
    for name in MODULES:
        importlib.import_module("ribbonfold." + name)
    if os.path.dirname(os.path.dirname(os.path.abspath(rf.__file__))) != SRC:
        raise ImportError("ribbonfold was imported from %s, not %s" % (rf.__file__, SRC))
    return rf


def prepare(workload: str, seed: int, rf, workdir: str, in_process: bool):
    """The workload's inputs: the seeded generator and one pass of ops."""
    rng = random.Random(seed)
    runner = CliRunner(rf, SRC, workdir, in_process) if workload == "cli" else None
    return rng, runner, make_ops(workload, rf, rng, runner)


def make_workdir(kind: str) -> str:
    path = os.path.join(WORK, "%s-%d" % (kind, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(args) -> int:
    """Time the import and the input generation in a fresh interpreter,
    in seconds at the reference speed."""
    speeds = [calibrate() for _ in range(5)]
    start = time.perf_counter()
    rf = load_ribbonfold()
    workdir = make_workdir("probe")
    prepare(args.workload, args.seed, rf, workdir, False)
    elapsed = time.perf_counter() - start
    speeds += [calibrate() for _ in range(5)]
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed * CALIBRATION_S / statistics.median(speeds)))
    return 0


def measure_setup(args) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError("setup probe failed: " + done.stderr.strip()[-300:])
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


class Tally:
    """What the operations of one or more passes did."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {}
        self.pass_times: List[float] = []
        self.failures: Counter = Counter()
        self.unexpected = 0
        # (label, seconds, calibrate() seconds timed next to it in its
        # process), in run order
        self.timeline: List[Tuple[str, float, Tuple[float, ...]]] = []

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.latencies.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def scaled(self, reach: int) -> List[float]:
        """Each operation's median time over the passes, at the reference
        speed: its seconds times CALIBRATION_S over the median calibration
        of the operations up to ``reach`` places from it."""
        times: Dict[str, List[float]] = {}
        for i, (label, elapsed, _) in enumerate(self.timeline):
            window = self.timeline[max(0, i - reach):i + reach + 1]
            speed = statistics.median(cal for _, _, cals in window for cal in cals)
            times.setdefault(label, []).append(elapsed * CALIBRATION_S / speed)
        return [statistics.median(samples) for samples in times.values()]


def run_one(op, tally: Tally, tracer: Optional[Tracer]) -> float:
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            out = tracer.call("bench.op", op.run, (), {}, note=op.label)
    except Exception as exc:  # a failed operation is a result, not a crash
        reason = "%s: %s" % (type(exc).__name__, exc)
    else:
        reason = None
    elapsed = time.perf_counter() - start
    if reason is None:
        try:
            reason = op.check(out)
        except Exception as exc:  # output too malformed to check
            reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        del out
    tally.latencies.setdefault(op.label, []).append(elapsed)
    if reason is not None:
        known = op.known_fault is not None and reason.startswith(op.known_fault)
        tally.failures[(op.label, reason[:160], known)] += 1
        tally.unexpected += not known
    return elapsed


def run_pass(ops, rng, tally: Tally, tracer: Optional[Tracer] = None,
             calibrated: bool = False, runner: Optional[CliRunner] = None) -> float:
    """All operations once, in a seeded order; returns their timed seconds.

    ``calibrated`` adds each operation to the tally's timeline with the
    calibrate() seconds timed just before and just after it; for cli
    commands run by ``runner``, with the command's own calibration, which
    is not counted in its time."""
    order = list(ops)
    rng.shuffle(order)
    total = 0.0
    for op in order:
        before = calibrate() if calibrated and runner is None else 0.0
        elapsed = run_one(op, tally, tracer)
        if calibrated:
            if runner is None:
                speeds = (before, calibrate())
            else:
                speeds = (runner.last_calibration_s,)
                elapsed -= runner.last_calibrating_s
            tally.timeline.append((op.label, elapsed, speeds))
        total += elapsed
    tally.pass_times.append(total)
    return total


def src_line_count() -> int:
    package = os.path.join(SRC, "ribbonfold")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def report(args, tally: Tally, passes: int, metrics: dict) -> None:
    print("workload %s seed %d trace %d: %d passes, %d operations attempted, %d failed"
          % (args.workload, args.seed, args.trace, passes, tally.attempted, tally.failed))
    for (label, reason, known), count in sorted(tally.failures.items()):
        print("  failed %dx %s: %s%s" % (count, label, reason,
                                         " [known fault]" if known else ""))
    print("src/ribbonfold lines: %d" % src_line_count())
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def measure(args, rf, workdir: str) -> int:
    rng, runner, ops = prepare(args.workload, args.seed, rf, workdir, False)
    setup_s = measure_setup(args)
    tally = Tally()
    start = time.perf_counter()
    while not tally.pass_times or time.perf_counter() - start < args.seconds:
        run_pass(ops, rng, tally, calibrated=True, runner=runner)
    if runner is not None:
        peak_kb = runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = tally.scaled(CALIBRATION_WINDOW if runner is None else 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print("pass seconds: " + " ".join("%.3f" % t for t in tally.pass_times))
    print("calibrate() median: %.3f ms" % (
        1000.0 * statistics.median(cal for _, _, cals in tally.timeline for cal in cals)))
    report(args, tally, len(tally.pass_times), metrics)
    return 0


def measure_traced(args, rf, workdir: str) -> int:
    # cli commands run in-process here, so the trace sees their layers;
    # the untraced passes run the same way and alternate with the traced
    # ones, so the ratio of their medians is the tracing overhead
    rng, _, ops = prepare(args.workload, args.seed, rf, workdir, True)
    tally = Tally()
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(ops, rng, tally))
        tracer.install(rf)
        try:
            traced.append(run_pass(ops, rng, tally, tracer))
        finally:
            tracer.uninstall()
    metrics = per_layer_metrics(tracer, len(traced))
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    overhead = traced_s / untraced_s
    metrics["trace.overhead_ratio"] = (overhead, "x")
    spans_path = os.path.join(WORK, "spans-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(spans_path)
    print("trace: %d spans in %s; traced pass %.3f s vs untraced %.3f s (overhead %+.1f%%)"
          % (len(tracer.spans), os.path.relpath(spans_path, ROOT), traced_s, untraced_s,
             100.0 * (overhead - 1.0)))
    report(args, tally, len(tally.pass_times), metrics)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ribbonfold benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    try:
        rf = load_ribbonfold()
    except ImportError as exc:
        sys.stderr.write("error: cannot import ribbonfold: %s\n" % exc)
        return 2
    workdir = make_workdir(args.workload)
    try:
        if args.trace:
            return measure_traced(args, rf, workdir)
        return measure(args, rf, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
