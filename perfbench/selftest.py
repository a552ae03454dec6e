"""Self-test of the benchmark at tiny sizes (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is well formed; that every workload, shrunk
to a few steps, prints every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``) named there, each with its unit, with all
outputs correct; that tracing leaves the simulated results and kernel
event counts unchanged; and that ``run.py`` refuses, with a non-zero exit
code and nothing on standard output, to run where the program is missing.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: each workload at a size that runs in a second or two
TINY = {
    "node-speech": dict(iterations=24),
    "dp-elastic": dict(steps_per_gpu=1),
    "tenant-mix": dict(steps_per_gpu=1),
    "threaded-speech": dict(samples=64),
}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    for group, names in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        check(declared == list(names), f"BENCHMARK.json {group} differs from layers.py")
        for name, unit in declared:
            check(bool(_NAME.match(name)), f"bad metric name {name!r}")
            check(bool(_UNIT.match(unit)), f"bad unit {unit!r}")
    for metric in spec["end_to_end"]:
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    check(
        setup_bound == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s must have the largest bound",
    )
    return spec


def check_line(line: dict, expected, label: str) -> None:
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    check(line["correct"] is True, f"{label}: outputs not correct")
    check(line["failed"] == 0 and line["attempted"] >= 1, f"{label}: failures")
    printed = [(name, m["unit"]) for name, m in line["metrics"].items()]
    check(printed == list(expected), f"{label}: metrics {printed}")
    for name, metric in line["metrics"].items():
        check(isinstance(metric["value"], float), f"{label}: {name} not a number")


def check_tracing_is_free(workload) -> None:
    inputs = workload.setup(3)
    plain = workload.run(inputs)
    with layers.LayerProbe(profile=True) as probe:
        inputs = workload.setup(3)
        traced = workload.run(inputs)
    check(
        plain.fingerprint == traced.fingerprint,
        f"{workload.name}: tracing changed the simulated results",
    )
    check(probe.envs, f"{workload.name}: probe saw no kernel")
    events = sum(env.events_processed for env in probe.envs)
    sim_events = getattr(plain.result, "sim_events", events)
    check(events == sim_events, f"{workload.name}: tracing changed the event count")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "node-speech",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0, "run.py exited 0 without the program")
    check(proc.stdout == "", "run.py printed a result without the program")


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    check_spec()
    for name, sizes in TINY.items():
        workload = workloads.make(name, **sizes)
        for trace, expected in ((False, layers.END_TO_END), (True, layers.PER_LAYER)):
            line = run.measure(workload, seed=5, seconds=0.1, trace=trace)
            json.loads(json.dumps(line))
            check_line(line, expected, f"{name} trace={int(trace)}")
        if workload.simulated:
            check_tracing_is_free(workload)
        print(f"selftest: {name} ok", flush=True)
    check_refuses_without_program()
    print("selftest: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
