"""Repetition loop, statistics and machine record of one benchmark run.

Every repetition starts from a fresh import of ``rigidity_kit`` (the
package's own caches start empty, as in a new CLI process), builds the
workload's inputs, runs them closed-loop on one caller, then checks every
result.  Only the calls are inside the timed region; input building is
timed as set-up and the output checks are not timed.
"""

from __future__ import annotations

import gc
import importlib
from array import array
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import PER_LAYER_UNITS, Tracer

PACKAGE = "rigidity_kit"
# Set-up is repeated at least this often per run, so its median is steady
# also on workloads that fit only a few repetitions.
MIN_SETUPS = 21
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# Untimed calibration chunks run between calls, one after each 20 ms of
# calls; timings are scaled to the speed at which one chunk takes 1 ms.
CALIBRATE_EVERY_NS = 20_000_000
REFERENCE_CHUNK_NS = 1_000_000
# Per-unit latencies are medians over the first this many untraced
# repetitions: a median ignores the repetition in which an interrupt or a
# collector pass hit a short call.  Room for all of them is allocated at
# the first repetition, so peak RSS does not depend on how many a run fits.
LATENCY_REPS = 25


@dataclass
class Outcome:
    """What one repetition returns: timed samples and raw results.

    ``weights[i]`` is the number of units sample ``i`` covers (one each when
    None); a sample's per-unit latency is its time divided by its weight.
    """

    samples_ns: list
    results: list
    weights: list | None = None


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def step(self, other: "_Pair") -> "_Pair":
        return _Pair(self.b, (self.a + other.b) % 1009)


def calibration_chunk() -> int:
    """A fixed piece of interpreter work that does not use ``rigidity_kit``.

    Object allocation, method calls and ``Fraction`` arithmetic.  On the
    machine the benchmark was built on, the time of each of these two kinds
    of work tracked the ``certify`` repetition times through the host's
    speed drift with a log-log slope of 0.95-1.05 (correlation 0.98-0.99);
    a pure integer loop moved only about 60% as much as the repetitions.
    """
    p, q = _Pair(1, 2), _Pair(3, 4)
    for _ in range(1000):
        p = p.step(q)
        q = q.step(p)
    f = Fraction(0)
    for i in range(1, 100):
        f = (f + Fraction(i, 7)) % 13
    return p.a + q.b + f.numerator


class HostClock:
    """``perf_counter_ns`` that times a calibration chunk now and then.

    A chunk runs inside a clock read, so between two calls of the workload,
    once ``CALIBRATE_EVERY_NS`` of calls have passed since the last one; the
    time it takes is left out of every reading.
    """

    def __init__(self) -> None:
        self.chunks_ns: list = []
        self._paused = 0
        self._mark = -CALIBRATE_EVERY_NS

    def __call__(self) -> int:
        now = time.perf_counter_ns()
        if now - self._mark >= CALIBRATE_EVERY_NS:
            now = self.calibrate()
        return now - self._paused

    def calibrate(self) -> int:
        """Time one chunk now and return the raw clock after it."""
        before = time.perf_counter_ns()
        calibration_chunk()
        after = time.perf_counter_ns()
        self.chunks_ns.append(after - before)
        self._paused += after - before
        self._mark = after
        return after

    def scale(self) -> float:
        """Factor that turns this clock's readings into reference-speed time."""
        return REFERENCE_CHUNK_NS / statistics.median(self.chunks_ns)


def fresh_import(with_cli: bool) -> SimpleNamespace:
    """Drop every loaded ``rigidity_kit`` module and import the package again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli") if with_cli else None
    return SimpleNamespace(
        pkg=pkg, euclid=pkg.euclid, quiver=pkg.quiver, rigidity=pkg.rigidity,
        orthogonal=pkg.orthogonal, cli=cli,
    )


def tail_percentile(samples_per_run: int) -> float:
    """Highest ladder percentile leaving at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if samples_per_run - math.ceil(p / 100 * samples_per_run) >= TAIL_BEYOND:
            best = p
    return best


def nearest_rank(sorted_values: list, p: float):
    index = max(math.ceil(p / 100 * len(sorted_values)) - 1, 0)
    return sorted_values[index], len(sorted_values) - index - 1


def machine(seed: int) -> dict:
    root = Path(__file__).resolve().parent.parent
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "RIGIDITY_KIT_THREADS": os.environ.get("RIGIDITY_KIT_THREADS"),
        "seed": seed,
        "commit": git_commit(root),
    }


def git_commit(root: Path):
    """Commit of a git checkout read from ``.git`` directly; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _one_setup(workload, seed: int):
    """Time one set-up, then scale it by three calibration chunks right after.

    The host drifts within seconds, so a set-up is scaled by chunks timed next
    to it rather than by a repetition's.
    """
    gc.collect()
    t0 = time.perf_counter()
    mods = fresh_import(workload.uses_cli)
    inputs = workload.build(mods, seed)
    setup = time.perf_counter() - t0
    clock = HostClock()
    for _ in range(3):
        clock.calibrate()
    return setup, setup * clock.scale(), mods, inputs


def _one_rep(workload, mods, inputs, tracer: Tracer | None):
    """One timed pass; traced passes read the plain clock, untraced a HostClock."""
    if tracer is not None:
        tracer.install(mods)
        clock = time.perf_counter_ns
    else:
        clock = HostClock()
    t0 = clock()
    outcome = workload.run(mods, inputs, clock)
    wall = (clock() - t0) / 1e9
    failed = workload.check(inputs, outcome)
    return wall, clock, outcome, failed


def run(workload, seed: int, seconds: float, trace: bool, instrument=None,
        trace_path: Path | None = None) -> dict:
    """Run one workload for about ``seconds`` and return the result record.

    With ``trace`` the repetitions alternate untraced and traced, so the
    tracing overhead is measured in the same run.  ``instrument`` is called
    on every fresh import before the calls, e.g. to inject a fault.
    """
    start = time.perf_counter()
    raw_setups, setups, walls, traced_walls = [], [], [], []
    # raw wall times, calibration chunks and scaled time outside the timed
    # calls (loop overhead, untimed calls) of the untraced repetitions
    raw_walls, chunks, gaps = [], [], []
    # scaled samples of the first LATENCY_REPS untraced repetitions, as flat
    # arrays, so they neither inflate peak RSS much nor feed the collector
    kept, filled = [], 0
    weights = None
    layer_runs, self_sums = [], []
    attempted = failed = 0
    units = 0
    last_tracer = described = None
    rep = 0
    while True:
        raw_setup, setup, mods, inputs = _one_setup(workload, seed)
        raw_setups.append(raw_setup)
        setups.append(setup)
        if instrument is not None:
            instrument(mods)
        traced = trace and rep % 2 == 1
        tracer = Tracer() if traced else None
        wall, clock, outcome, rep_failed = _one_rep(workload, mods, inputs, tracer)
        units = workload.units(inputs)
        attempted += units
        failed += rep_failed
        if traced:
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
            self_sums.append(tracer.self_sum_s())
            last_tracer = tracer
        else:
            scale = clock.scale()
            raw_walls.append(wall)
            walls.append(wall * scale)
            gaps.append((wall * 1e9 - math.fsum(outcome.samples_ns)) * scale)
            chunks += clock.chunks_ns
            if not kept:
                kept = [array("f", bytes(4 * len(outcome.samples_ns)))
                        for _ in range(LATENCY_REPS)]
                weights = outcome.weights
            if filled < LATENCY_REPS:
                kept[filled] = array("f", (ns * scale for ns in outcome.samples_ns))
                filled += 1
        if described is None:
            described = workload.describe(inputs)
        del mods, inputs, outcome, tracer, clock
        rep += 1
        elapsed = time.perf_counter() - start
        # a traced run stops only after a traced repetition, and its next
        # block would be an untraced/traced pair
        block = 2 if trace else 1
        if rep % block == 0 and elapsed + block * elapsed / rep > seconds:
            break
    while len(setups) < MIN_SETUPS:
        raw_setup, setup, _, _ = _one_setup(workload, seed)
        raw_setups.append(raw_setup)
        setups.append(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info = {
        "workload": workload.name,
        "machine": machine(seed),
        "inputs": described,
        "units_per_rep": units,
        "setup_s": raw_setups,
        "scaled_setup_s": setups,
        "wall_s": raw_walls,
        "scaled_wall_s": walls,
    }
    if trace:
        overhead = statistics.median(traced_walls) / statistics.median(raw_walls)
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            value = overhead if name == "trace.overhead_ratio" else statistics.median(
                run_[name] for run_ in layer_runs
            )
            metrics[name] = {"value": value, "unit": unit}
        info["traced_wall_s"] = traced_walls
        info["self_sum_s"] = self_sums
        if trace_path is not None and last_tracer is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            last_tracer.write(trace_path, info)
            info["trace_file"] = str(trace_path)
    else:
        # Host speed on a shared machine drifts by up to 2x, for seconds to
        # minutes, with no steal time, so raw times follow the host.  Each
        # repetition is scaled by its calibration chunks' median time, and
        # each set-up by the chunks timed right after it.  The time to solution is each
        # timed call's median plus the median time between them, so a stall
        # that hit one repetition does not count.
        per_unit = list(map(statistics.median, zip(*kept[:filled])))
        wall = (math.fsum(per_unit) + statistics.median(gaps)) / 1e9
        if weights is None:
            latencies = sorted(per_unit)
        else:
            latencies = sorted(x for ns, w in zip(per_unit, weights) for x in [ns / w] * w)
        pct = tail_percentile(len(latencies))
        tail_ns, beyond = nearest_rank(latencies, pct)
        info["tail"] = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
        info["calibration_chunk_ns"] = {"median": statistics.median(chunks), "min": min(chunks),
                                        "max": max(chunks), "count": len(chunks)}
        setup = statistics.median(setups)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "units_per_s": {"value": units / wall, "unit": "1/s"},
            "unit_p50_ms": {"value": statistics.median(latencies) / 1e6, "unit": "ms"},
            "unit_tail_ms": {"value": tail_ns / 1e6, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info["fail_ratio"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
