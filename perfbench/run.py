"""gravsim benchmark: cost per simulated round, transcripts, sweeps and exclusion scans.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the package is imported from the `src` directory next to
this script's directory. One process drives one workload in a closed loop:
each unit of work starts when the previous unit and its output check have
finished. With --trace 0 the last line of stdout is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass (see spans.py). `--workload all` runs every workload
untraced and traced, each in a fresh process, and prints a table.

Unit times are wall times taken to a fixed reference speed. On a virtual
machine that shares its processors, speed drifts by tens of percent over
seconds to minutes, and the drift moves every workload roughly alike. So
right before each unit the benchmark times a fixed reference kernel (work
that never touches gravsim) and scales the unit's wall time by
REFERENCE_SECONDS / kernel time; REFERENCE_SECONDS is the kernel's time on
an idle 2-vCPU Xeon VM. The details line reports the raw wall times and the
kernel's median alongside. setup_s and the per-layer times stay raw wall
times: fresh interpreters spend much of set-up loading files, and in trials
set-up did not track the kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("eve-session", "honest-transcript", "sweep-grid", "exclusion-scan")
SETUP_REPEATS = 5
# The traced run alternates untraced and traced units for this share of
# --seconds; the rest is left for the load_config calls and, on sweep-grid,
# the thread comparison.
TRACED_SECONDS_SHARE = 0.8
LOAD_CONFIG_CALLS = 20
THREAD_PASSES = 3
TAIL_BEYOND = 10
REFERENCE_SECONDS = 0.03
REFERENCE_STEPS = 400
REFERENCE_BLOCKS = 15
SETUP_SNIPPET = "import sys, gravsim.cli; gravsim.config.load_config(sys.argv[1]); print(gravsim.__file__)"


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With n sorted samples that is the nearest-rank sample k = n - TAIL_BEYOND,
    at percentile 100 k / n. A tail never sits below the median: with fewer
    than 2 * TAIL_BEYOND samples the nearest-rank median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return ordered[k - 1], 100.0 * k / n


def reference_seconds() -> float:
    """Wall time of the reference kernel: fixed work that does not depend on gravsim.

    One part is interpreter-bound (a small generator and vector per step, as
    in a session round), the other vectorised numpy (as in the Monte Carlo
    accuracy kernel), so that the kernel slows down with the machine the way
    the workloads do.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_STEPS):
        x = np.random.default_rng([7, i]).standard_normal(24)
        total += float(x @ x) + sum(k * 0.5 for k in range(20))
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((24, 4))
    for _ in range(REFERENCE_BLOCKS):
        logits = rng.standard_normal((2000, 24)) @ weights
        total += float((logits == logits.max(axis=1, keepdims=True)).argmax(axis=1).sum())
    return time.perf_counter() - start


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(distribution: str) -> str | None:
    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return None


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def manifest(workload, seed: int, seconds: float, traced: bool) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "unitDefinition": workload.describe(),
        "loop": "closed, one client",
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "gravsimCommit": _git_commit(),
        "machine": platform.machine(),
    }


def measure_setup(config_path: Path, workdir: Path) -> list[float]:
    """Wall times of fresh interpreters that import gravsim and load the config.

    The source root goes into PYTHONPATH as an absolute path, so the probes
    do not depend on their working directory.
    """
    existing = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + existing if existing else ""))
    command = [sys.executable, "-c", SETUP_SNIPPET, str(config_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or not done.stdout.strip().startswith(str(SRC)):
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip() or done.stdout.strip()}")
    return times


class Loop:
    """Closed-loop runner of one workload: times units, checks outputs, counts failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.replays: dict = {}
        self.k = 0

    def _unit(self, call):
        """Run unit self.k through call(k) -> (timing, output); returns the timing, or None on failure."""
        k = self.k
        self.k += 1
        self.attempted += 1
        try:
            timing, output = call(k)
            problems = self.workload.check(k, output)
            summary = self.workload.summary(output)
        except Exception as exc:  # a unit that raises counts as failed; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            previous = self.replays.setdefault(k % len(self.workload.seeds), summary)
            if previous != summary:
                problems.append("replaying the unit's seed gave a different output")
        if problems:
            self.failed += 1
            self.problems.extend(f"unit {k}: {p}" for p in problems[:3])
            return None
        return timing

    def plain(self, k):
        start = time.perf_counter()
        output = self.workload.run(k)
        return time.perf_counter() - start, output

    def calibrated(self, k):
        reference = reference_seconds()
        wall, output = self.plain(k)
        return (wall, reference), output

    def run_for(self, seconds: float, call=None, min_units: int = 1) -> list:
        """Run at least min_units units, and more until `seconds` have passed.

        Returns the timings of the units that were correct.
        """
        call = call or self.plain
        timings = []
        deadline = time.perf_counter() + seconds
        for attempted in itertools.count(1):
            timing = self._unit(call)
            if timing is not None:
                timings.append(timing)
            if attempted >= min_units and time.perf_counter() >= deadline:
                return timings


def end_to_end(workload, loop: Loop, args) -> tuple[dict, dict]:
    setup = measure_setup(workload.config_path, workload.workdir)
    loop.run_for(0.0)  # warm-up unit: lazy caches fill; checked, not timed
    pairs = loop.run_for(args.seconds, loop.calibrated)
    if not pairs:
        raise RuntimeError(f"no unit completed correctly: {loop.problems[:3]}")
    units = [wall * REFERENCE_SECONDS / reference for wall, reference in pairs]
    walls = [wall for wall, _ in pairs]
    p50 = statistics.median(units)
    tail_value, percentile = tail(units)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "unit_s_p50": (p50, "s"),
        "unit_s_tail": (tail_value, "s"),
        "round_us": (p50 / workload.rounds_per_unit * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio"),
    }
    details = {
        "units": len(units),
        "tailPercentile": round(percentile, 2),
        "unitsBeyondTail": len(units) - round(percentile * len(units) / 100.0),
        "unitQuartiles": quartiles(units),
        "rawUnitP50": statistics.median(walls),
        "rawUnitTail": tail(walls)[0],
        "setupSamples": setup,
        "referenceMedianS": statistics.median(reference for _, reference in pairs),
        "failedRatio": loop.failed / loop.attempted,
    }
    return metrics, details


def per_layer(workload, loop: Loop, args) -> tuple[dict, dict]:
    import gravsim
    import spans as tracing

    loop.run_for(0.0)
    tracer = tracing.Tracer()
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    score_calls = 0

    def add(spans):
        nonlocal score_calls
        for (name, start, end, parent), self_time in zip(spans, tracing.self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_time
            if parent >= 0 and spans[parent][0] == "analysis.min_detectable_b":
                score_calls += name in ("attack.analytic_accuracy", "attack.monte_carlo_accuracy")

    def alternating_unit(k):
        """Odd units run traced, even ones untraced, so machine drift hits both alike."""
        if k % 2 == 0:
            wall, output = loop.plain(k)
            return (False, wall), output
        with tracing.rebound(tracer):
            output, spans = tracer.run_unit(workload.run, k)
        add(spans)
        _, start, end, _ = spans[0]
        return (True, end - start), output

    timings = loop.run_for(TRACED_SECONDS_SHARE * args.seconds, alternating_unit, min_units=2)
    traced = [wall for is_traced, wall in timings if is_traced]
    untraced = [wall for is_traced, wall in timings if not is_traced]
    units = calls.pop(tracing.UNIT_SPAN)
    unit_wall = inclusive.pop(tracing.UNIT_SPAN)
    root_self = own.pop(tracing.UNIT_SPAN)
    # Calls the benchmark makes itself, so load_config is timed on every workload.
    with tracing.rebound(tracer):
        for _ in range(LOAD_CONFIG_CALLS):
            add(tracer.run_unit(gravsim.config.load_config, str(workload.config_path))[1])
    for table in (calls, inclusive, own):
        table.pop(tracing.UNIT_SPAN)
    speedup = thread_speedup(workload) if workload.sweep_points else 0.0

    def per_unit(name):
        return calls.get(name, 0) / units

    def us(name, table=inclusive):
        return table.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

    def share(name):
        return inclusive.get(name, 0.0) / unit_wall

    rounds = workload.session_rounds * units
    points = workload.sweep_points * units
    transcript = getattr(workload, "transcript_bytes", [])
    metrics = {
        "config.load_config.us": (us("config.load_config"), "us"),
        "config.with_overrides.calls": (per_unit("config.with_overrides"), "count"),
        "config.with_overrides.us": (us("config.with_overrides"), "us"),
        "protocol.run_session.calls": (per_unit("protocol.run_session"), "count"),
        "protocol.run_session.self_us_per_round": (
            own.get("protocol.run_session", 0.0) / rounds * 1e6 if rounds else 0.0,
            "us",
        ),
        "attack.attack_round.calls": (per_unit("attack.attack_round"), "count"),
        "attack.attack_round.self_us": (us("attack.attack_round", own), "us"),
        "attack.attack_round.share": (share("attack.attack_round"), "ratio"),
        "attack.sense.us": (us("attack.sense"), "us"),
        "attack.infer_alice_state.us": (us("attack.infer_alice_state"), "us"),
        "attack.infer_alice_state.share": (share("attack.infer_alice_state"), "ratio"),
        "gravity.general_field.calls": (per_unit("gravity.general_field"), "count"),
        "gravity.general_field.us": (us("gravity.general_field"), "us"),
        "qubits.eve_dual_basis_measure.us": (us("qubits.eve_dual_basis_measure"), "us"),
        "qubits.bob_measure.calls": (per_unit("qubits.bob_measure"), "count"),
        "qubits.bob_measure.us": (us("qubits.bob_measure"), "us"),
        "qubits.prepare.calls": (per_unit("qubits.prepare"), "count"),
        "analysis.sweep.point_us": (
            inclusive.get("analysis.sweep", 0.0) / points * 1e6 if points else 0.0,
            "us",
        ),
        "analysis.sweep.thread_speedup": (speedup, "ratio"),
        "attack.analytic_accuracy.calls": (per_unit("attack.analytic_accuracy"), "count"),
        "attack.analytic_accuracy.us": (us("attack.analytic_accuracy"), "us"),
        "attack.monte_carlo_accuracy.calls": (per_unit("attack.monte_carlo_accuracy"), "count"),
        "attack.monte_carlo_accuracy.us": (us("attack.monte_carlo_accuracy"), "us"),
        "analysis.exclusion_limit.us": (us("analysis.exclusion_limit"), "us"),
        "analysis.min_detectable_b.us": (us("analysis.min_detectable_b"), "us"),
        "analysis.min_detectable_b.score_calls": (
            score_calls / calls["analysis.min_detectable_b"] if calls.get("analysis.min_detectable_b") else 0.0,
            "count",
        ),
        "cli.main.self_us": (us("cli.main", own), "us"),
        "cli.transcript_bytes": (statistics.mean(transcript) if transcript else 0.0, "bytes"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
        "trace.accounted_share": (1.0 - root_self / unit_wall, "ratio"),
    }
    details = {
        "untracedUnits": len(untraced),
        "tracedUnits": units,
        "tracedUnitWallS": unit_wall,
        "selfSecondsBySpan": {name: own[name] for name in sorted(own)},
        "callsBySpan": {name: calls[name] for name in sorted(calls)},
    }
    return metrics, details


def thread_speedup(workload) -> float:
    """Median one-worker sweep wall over median nproc-worker sweep wall, untraced."""
    import gravsim

    workers = nproc()
    walls = {1: [], workers: []}
    for k in range(THREAD_PASSES):
        for count in walls:
            start = time.perf_counter()
            gravsim.analysis.sweep(workload.specs[k], workload.config, max_workers=count)
            walls[count].append(time.perf_counter() - start)
    return statistics.median(walls[1]) / statistics.median(walls[workers])


def run_one(args) -> int:
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload)
        measure = per_layer if args.trace else end_to_end
        metrics, details = measure(workload, loop, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    details["problems"] = loop.problems[:20]
    print(json.dumps({"manifest": manifest(workload, args.seed, args.seconds, bool(args.trace))}))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process; prints a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results[name, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced run)")):
        print(f"\n{title}")
        names = list(results[WORKLOAD_NAMES[0], trace]["metrics"])
        print(f"{'metric':40} {'unit':6} " + " ".join(f"{w:>18}" for w in WORKLOAD_NAMES))
        for metric in names:
            cells = [results[w, trace]["metrics"][metric] for w in WORKLOAD_NAMES]
            print(f"{metric:40} {cells[0]['unit']:6} " + " ".join(f"{c['value']:18.6g}" for c in cells))
        print(f"{'failed_ratio':40} {'ratio':6} " + " ".join(
            f"{results[w, trace]['failed'] / results[w, trace]['attempted']:18.6g}" for w in WORKLOAD_NAMES
        ))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"\noutput checks: {attempted} units attempted, {failed} failed")
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    # Unwind normally, so the scratch directory is removed and children are killed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gravsim" / "__init__.py").is_file():
        print(f"perfbench: no gravsim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import gravsim

    if not Path(gravsim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported gravsim from {gravsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
