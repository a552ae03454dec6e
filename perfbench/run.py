"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload node-speech --seed 7 --seconds 25 --trace 0

One invocation builds the workload's inputs from ``--seed`` and runs it back
to back for about ``--seconds`` wall seconds, each run on freshly built
inputs, then times 31 set-ups on their own.  Run and set-up times are
process CPU seconds scaled to a reference host speed (``speed.py``).  Every
run's outputs are checked; the simulated workloads must also give
bit-identical results on every run.  ``dp-elastic`` is rerun once on the
exact path (no collapse, binary-heap event queue), outside the timed runs,
and must agree.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: the untraced runs give the baseline, then one more run
under the layer probe (``layers.py``) gives the per-layer split and
``trace.overhead_frac``; its simulated results must equal the untraced ones.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
``attempted`` / ``failed`` count training steps, and a run that raises,
hangs or fails a check counts all of its steps as failed.  The exit code
is 0 once that line is printed; a checkout the benchmark cannot run in
(no ``src/repro``) exits with code 2 and prints nothing on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
import traceback

from speed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: wall seconds one run may take before it counts as hung (a traced run on
#: a slow host takes under a minute)
RUN_TIMEOUT = 90
#: back-to-back set-ups timed per invocation (one lasts microseconds to a
#: millisecond, so the median needs many)
SETUPS = 31


class RunTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RunTimeout(f"run exceeded {RUN_TIMEOUT} s")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}\n")
        sys.exit(2)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@contextlib.contextmanager
def _hang_alarm():
    """Raise :class:`RunTimeout` in the block after ``RUN_TIMEOUT`` s."""
    signal.alarm(RUN_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)


def _timed_run(workload, inputs, speed=None):
    """Run once under the hang alarm (and ``speed``, a :class:`HostSpeed`);
    returns (outcome, wall seconds, process CPU seconds)."""
    with _hang_alarm(), speed or contextlib.nullcontext():
        start, cpu = time.perf_counter(), time.process_time()
        outcome = workload.run(inputs)
        return outcome, time.perf_counter() - start, time.process_time() - cpu


def _check(workload, inputs, outcome) -> list:
    """The workload's output check; an output it cannot read fails it."""
    try:
        return workload.check(inputs, outcome)
    except Exception as exc:
        return [f"output check raised {exc!r}"]


def _abandon(inputs) -> None:
    """Stop whatever a failed run left running (the threaded loader)."""
    loader = getattr(inputs, "loader", None)
    if loader is not None:
        loader.shutdown(timeout=5.0)


class Session:
    """One invocation: repeated runs of one workload on one seed."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        #: median set-up CPU seconds at the reference host speed
        self.setup_s = None
        #: CPU seconds of each run at the reference host speed
        self.cpu_s = []
        #: wall seconds of each run, as measured
        self.wall_s = []
        self.outcomes = []
        self.fingerprints = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_once(self):
        """Set up, run and check once; returns the outcome or None."""
        inputs = self.workload.setup(self.seed)
        # the previous run's garbage is collected outside the timed region
        gc.collect()
        threads = threading.active_count()
        speed = HostSpeed(threaded=not self.workload.simulated)
        try:
            outcome, wall, cpu = _timed_run(self.workload, inputs, speed)
        except Exception as exc:  # any failure of the program is a result
            _abandon(inputs)
            self.fail(f"run raised {exc!r}", traceback.format_exc())
            return None
        problems = _check(self.workload, inputs, outcome)
        if threading.active_count() > threads:
            problems.append("threads left running after the run")
        if outcome.fingerprint is not None:
            self.fingerprints.add(outcome.fingerprint)
            if len(self.fingerprints) > 1:
                problems.append("simulated results differ between runs")
        self.attempted += outcome.steps
        if problems:
            self.failed += outcome.steps
            self.problems.extend(problems)
            return None
        self.cpu_s.append(speed.normalise(cpu))
        self.wall_s.append(wall)
        self.outcomes.append(outcome)
        return outcome

    def fail(self, message: str, detail: str = "") -> None:
        """Record a failure that cost one run's steps."""
        steps = self.workload.budget
        self.attempted += steps
        self.failed += steps
        self.problems.append(message)
        if detail:
            sys.stderr.write(detail)

    def measure(self, seconds: float) -> None:
        """Run back to back until the next run would overshoot ``seconds``."""
        began = time.perf_counter()
        while True:
            self.run_once()
            elapsed = time.perf_counter() - began
            typical = statistics.median(self.wall_s) if self.wall_s else elapsed
            if elapsed + typical > seconds or self.failed:
                break
        if self.outcomes:
            self.measure_setup()

    def measure_setup(self) -> None:
        """Time ``SETUPS`` set-ups back to back, outside the runs."""
        # calibrated around the set-ups, not sampled during them: an armed
        # profiling timer coarsens the process CPU clock to scheduler ticks
        speed = HostSpeed()
        speed.calibrate()
        times = []
        for _ in range(SETUPS):
            start = time.process_time()
            inputs = self.workload.setup(self.seed)
            times.append(time.process_time() - start)
            _abandon(inputs)
        speed.calibrate()
        self.setup_s = statistics.median(times) / speed.slowdown()

    def end_to_end(self) -> dict:
        # a run without a simulated timeline trains for its host CPU time
        train = [
            cpu if o.train_s is None else o.train_s
            for o, cpu in zip(self.outcomes, self.cpu_s)
        ]
        idle = [o.gpu_idle_frac for o in self.outcomes]
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "cpu_s": (statistics.median(self.cpu_s), "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
            "train_s": (statistics.median(train), "s"),
            "gpu_idle_frac": (statistics.median(idle), "ratio"),
        }

    def batch_wait_ms(self) -> dict:
        waits = [w for o in self.outcomes for w in o.batch_waits]
        if not waits:
            return {"p50": 0.0, "p99": 0.0}
        return {
            "p50": _percentile(waits, 0.50) * 1e3,
            "p99": _percentile(waits, 0.99) * 1e3,
        }


def traced_run(workload, session: Session, layers) -> dict:
    """One more run under the layer probe; its simulated results must equal
    the untraced runs'.  Returns the per-layer metrics."""
    gc.collect()
    # set-up runs under the probe too, as a Cluster creates its kernel
    # there; no host-speed sampling, as the profiler would slow it as well
    with layers.LayerProbe(profile=workload.simulated) as probe:
        inputs = workload.setup(session.seed)
        outcome, wall, _cpu = _timed_run(workload, inputs)
    problems = _check(workload, inputs, outcome)
    if outcome.fingerprint is not None and {outcome.fingerprint} != session.fingerprints:
        problems.append("tracing changed the simulated results")
    for problem in problems:
        session.fail(problem)
    return layers.layer_metrics(
        probe,
        inputs,
        outcome,
        wall,
        statistics.median(session.wall_s),
        statistics.median(session.cpu_s),
        session.batch_wait_ms(),
    )


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation on ``workload``: the result line, as a dict."""
    import layers

    session = Session(workload, seed)
    session.measure(seconds)
    metrics = session.end_to_end() if session.outcomes else {}

    finished = session.outcomes and not session.failed
    if finished and hasattr(workload, "exact_path_problems"):
        try:
            with _hang_alarm():
                problems = workload.exact_path_problems(seed, session.outcomes[0])
        except Exception as exc:
            problems = [f"exact-path rerun raised {exc!r}"]
            traceback.print_exc()
        for problem in problems:
            session.fail(problem)

    if trace:
        metrics = {}
        if finished:
            try:
                metrics = traced_run(workload, session, layers)
            except Exception as exc:
                session.fail(f"traced run raised {exc!r}", traceback.format_exc())
    if not metrics:
        # nothing measured cleanly: name every metric so the line still
        # parses, with the failure recorded in ``correct`` / ``failed``
        names = layers.PER_LAYER if trace else layers.END_TO_END
        metrics = {name: (0.0, unit) for name, unit in names}

    for problem in session.problems:
        sys.stderr.write(f"perfbench: {workload.name}: {problem}\n")
    return {
        "correct": not session.problems,
        "attempted": max(1, session.attempted),
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}"
        )
    signal.signal(signal.SIGALRM, _on_alarm)
    result = measure(
        workloads.make(args.workload), args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
