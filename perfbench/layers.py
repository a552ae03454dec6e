"""Per-layer measurement of one traced run, taken from outside the program.

:class:`LayerProbe` wraps the public entry points of each layer for the
duration of one run and restores them afterwards.  The wrappers count calls
and their outcomes, and add up the time spent in them; none of them
schedules, cancels or observes a kernel event, so a traced simulation
produces the same results and the same event counts as an untraced one
(``run.py`` checks this).  On the simulated workloads the run also executes
under :mod:`cProfile`, whose per-function self time is summed per source
module to give each layer's ``self_s``.  The threaded engine's work happens
on loader threads that cProfile does not follow, so that workload reports
host busy time of its entry points instead.

Kernel events are charged to the first stack frame outside the kernel that
scheduled them; events scheduled while the kernel resumes a process are
charged to whoever called ``Environment.run``.

Metrics of layers a workload does not use read 0.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import threading
import time
from collections import Counter, defaultdict

from repro.core.balancer import LoadBalancer
from repro.core.queues import WorkQueue
from repro.data.dataset import Dataset
from repro.sim import kernel
from repro.sim.fabric import RingFabric
from repro.sim.kernel import Environment
from repro.sim.loaders import BaseSimLoader, SimContext
from repro.sim.resources import BandwidthPipe, Resource
from repro.sim.stores import Store
from repro.transforms.base import Transform

__all__ = ["END_TO_END", "PER_LAYER", "LayerProbe", "layer_metrics"]

#: end-to-end metrics (``--trace 0``), with units
END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("train_s", "s"),
    ("gpu_idle_frac", "ratio"),
)

#: per-layer metrics (``--trace 1``), with units; ``sim_s`` is simulated
#: (virtual) seconds, ``s`` host seconds
PER_LAYER = (
    ("sim.kernel.events", "count"),
    ("sim.kernel.events_skipped", "count"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.us_per_event", "us"),
    ("sim.loaders.events", "count"),
    ("sim.loaders.idle_polls", "count"),
    ("sim.loaders.poll_hit_ratio", "ratio"),
    ("sim.loaders.cpu_chunks", "count"),
    ("sim.loaders.self_s", "s"),
    ("sim.loaders.data_wait_s", "sim_s"),
    ("sim.loaders.slow_frac", "ratio"),
    ("sim.resources.core_requests", "count"),
    ("sim.resources.core_wait_s", "sim_s"),
    ("sim.resources.disk_bytes", "bytes"),
    ("sim.resources.self_s", "s"),
    ("sim.stores.ops", "count"),
    ("sim.stores.self_s", "s"),
    ("engine.metrics.self_s", "s"),
    ("sim.links.transfers", "count"),
    ("sim.links.events", "count"),
    ("sim.links.self_s", "s"),
    ("sim.links.wait_s.collective", "sim_s"),
    ("sim.links.wait_s.loader", "sim_s"),
    ("sim.links.wait_s.checkpoint", "sim_s"),
    ("sim.fabric.deliveries", "count"),
    ("sim.fabric.collapsed", "count"),
    ("sim.fabric.collapse_vetoes", "count"),
    ("sim.fabric.collapse_ratio", "ratio"),
    ("sim.fabric.self_s", "s"),
    ("sim.fabric.exposed_sync_s", "sim_s"),
    ("sim.distributed.self_s", "s"),
    ("sim.distributed.storage_wait_s", "sim_s"),
    ("sim.checkpoint.write_s", "sim_s"),
    ("sim.checkpoint.restore_s", "sim_s"),
    ("sim.checkpoint.lost_steps", "count"),
    ("sim.cluster.cache_hit_ratio", "ratio"),
    ("sim.scenarios.self_s", "s"),
    ("core.queues.try_get_miss_ratio", "ratio"),
    ("core.balancer.busy_s", "s"),
    ("transforms.busy_s", "s"),
    ("data.load_s", "s"),
    ("policy.slow_frac", "ratio"),
    ("engine.batch_wait_ms_p50", "ms"),
    ("engine.batch_wait_ms_p99", "ms"),
    ("host.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kernel.__file__)))

#: source module (relative to the package) -> layer name
_MODULE_LAYER = {
    "sim/kernel.py": "sim.kernel",
    "sim/loaders.py": "sim.loaders",
    "sim/resources.py": "sim.resources",
    "sim/stores.py": "sim.stores",
    "engine/metrics.py": "engine.metrics",
    "sim/links.py": "sim.links",
    "sim/fabric.py": "sim.fabric",
    "sim/topology.py": "sim.fabric",
    "sim/distributed.py": "sim.distributed",
    "sim/scenarios.py": "sim.scenarios",
}


def _layer_of(filename: str):
    rel = os.path.relpath(os.path.abspath(filename), _SRC).replace(os.sep, "/")
    return _MODULE_LAYER.get(rel)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Context manager: wrap each layer's entry points for one run."""

    def __init__(self, profile: bool) -> None:
        self.counts: Counter = Counter()
        self.sim_seconds: defaultdict = defaultdict(float)
        self.host_seconds: defaultdict = defaultdict(float)
        self.events_by_file: Counter = Counter()
        self.envs = []
        self.contexts = []
        self.collectives = set()
        self._core_ids = set()
        self._lock = threading.Lock()
        self._patches = []
        self._profiler = cProfile.Profile() if profile else None
        self.stats = {}

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name, wrap) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, wrap(original))
        self._patches.append((owner, name, original))

    def __enter__(self) -> "LayerProbe":
        probe = self
        counts = self.counts
        kernel_file = kernel.__file__

        def env_init(original):
            def __init__(env, *args, **kwargs):
                original(env, *args, **kwargs)
                probe.envs.append(env)
            return __init__

        def schedule(original):
            def _schedule(env, event, priority, delay):
                frame = sys._getframe(1)
                while frame is not None and frame.f_code.co_filename == kernel_file:
                    frame = frame.f_back
                probe.events_by_file[frame.f_code.co_filename if frame else ""] += 1
                return original(env, event, priority, delay)
            return _schedule

        def ctx_init(original):
            def __init__(ctx, *args, **kwargs):
                original(ctx, *args, **kwargs)
                probe.contexts.append(ctx)
                probe._core_ids.add(id(ctx.cores))
            return __init__

        def cpu_busy(original):
            def wrapped(ctx, seconds, *args, **kwargs):
                start = ctx.env.now
                yield from original(ctx, seconds, *args, **kwargs)
                if seconds > 0:
                    counts["cpu_chunks"] += 1
                    # clamped: an unqueued chunk reads -1e-15 after rounding
                    probe.sim_seconds["core_wait"] += max(
                        0.0, ctx.env.now - start - seconds
                    )
            return wrapped

        def get_batch(original):
            def wrapped(loader, gpu):
                env = loader.ctx.env
                start = env.now
                batch = yield from original(loader, gpu)
                probe.sim_seconds["data_wait"] += env.now - start
                return batch
            return wrapped

        def store_try_get(original):
            def try_get(store):
                item = original(store)
                counts["poll_hit" if item is not None else "poll_miss"] += 1
                return item
            return try_get

        def resource_request(original):
            def request(res):
                if id(res) in probe._core_ids:
                    counts["core_requests"] += 1
                return original(res)
            return request

        def pipe_transfer(original):
            def transfer(pipe, nbytes):
                counts["disk_bytes"] += nbytes
                return original(pipe, nbytes)
            return transfer

        def allreduce(original):
            def wrapped(fabric, key, member, *args, **kwargs):
                probe.collectives.add((id(fabric), key))
                return original(fabric, key, member, *args, **kwargs)
            return wrapped

        def queue_try_get(original):
            def try_get(queue):
                item = original(queue)
                with probe._lock:
                    counts["queue_hit" if item is not None else "queue_miss"] += 1
                return item
            return try_get

        def busy(key):
            def wrap(original):
                def timed(*args, **kwargs):
                    start = time.perf_counter()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        elapsed = time.perf_counter() - start
                        with probe._lock:
                            probe.host_seconds[key] += elapsed
                return timed
            return wrap

        self._patch(Environment, "__init__", env_init)
        self._patch(Environment, "_schedule", schedule)
        self._patch(SimContext, "__init__", ctx_init)
        self._patch(SimContext, "cpu_busy", cpu_busy)
        self._patch(BaseSimLoader, "get_batch", get_batch)
        self._patch(Store, "try_get", store_try_get)
        self._patch(Resource, "request", resource_request)
        self._patch(BandwidthPipe, "transfer", pipe_transfer)
        self._patch(RingFabric, "allreduce", allreduce)
        self._patch(WorkQueue, "try_get", queue_try_get)
        self._patch(LoadBalancer, "process", busy("balancer"))
        self._patch(LoadBalancer, "resume", busy("balancer"))
        self._patch(Transform, "apply", busy("transforms"))
        self._patch(Dataset, "load", busy("load"))
        if self._profiler is not None:
            self._profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        if self._profiler is not None:
            self._profiler.disable()
            self.stats = pstats.Stats(self._profiler).stats
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- readings ------------------------------------------------------------

    def self_seconds(self) -> Counter:
        """cProfile self time summed per layer."""
        per_layer: Counter = Counter()
        for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in self.stats.items():
            layer = _layer_of(filename)
            if layer is not None:
                per_layer[layer] += tottime
        return per_layer

    def calls(self, module: str, *names: str) -> int:
        """cProfile call count of the named functions of one module."""
        total = 0
        for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in self.stats.items():
            if func in names and _layer_of(filename) == module:
                total += nc
        return total

    def events(self, layer: str) -> int:
        return sum(
            n for filename, n in self.events_by_file.items()
            if filename and _layer_of(filename) == layer
        )


def _distributed_results(result):
    jobs = getattr(result, "jobs", None)
    if jobs is not None:
        return list(jobs)
    return [result] if hasattr(result, "link_wait_by_class") else []


def layer_metrics(
    probe, inputs, outcome, traced_wall, untraced_wall, untraced_cpu, batch_wait_ms
):
    """The per-layer metrics of one traced run, in :data:`PER_LAYER` order.

    ``traced_wall`` is this run's wall seconds; ``untraced_wall`` and
    ``untraced_cpu`` are the untraced runs' median wall seconds and CPU
    seconds at the reference host speed."""
    c = probe.counts
    own = probe.self_seconds()
    events = sum(env.events_processed for env in probe.envs)
    skipped = sum(env.events_skipped for env in probe.envs)
    slow = sum(ctx.samples_slow for ctx in probe.contexts)
    preprocessed = sum(ctx.samples_preprocessed for ctx in probe.contexts)
    jobs = _distributed_results(outcome.result)
    by_class = Counter()
    for job in jobs:
        by_class.update(job.link_wait_by_class)
    if jobs:
        hit = sum(job.cache_hit_bytes for job in jobs)
        cache_hit_ratio = _ratio(hit, hit + sum(job.cache_miss_bytes for job in jobs))
    else:
        cache_hit_ratio = getattr(outcome.result, "cache_hit_rate", 0.0)
    collapsed = sum(job.collapsed_collectives for job in jobs)
    loader = getattr(inputs, "loader", None)
    values = {
        "sim.kernel.events": events,
        "sim.kernel.events_skipped": skipped,
        "sim.kernel.self_s": own["sim.kernel"],
        "sim.kernel.us_per_event": _ratio(untraced_cpu * 1e6, events),
        "sim.loaders.events": probe.events("sim.loaders"),
        "sim.loaders.idle_polls": c["poll_miss"],
        "sim.loaders.poll_hit_ratio": _ratio(c["poll_hit"], c["poll_hit"] + c["poll_miss"]),
        "sim.loaders.cpu_chunks": c["cpu_chunks"],
        "sim.loaders.self_s": own["sim.loaders"],
        "sim.loaders.data_wait_s": probe.sim_seconds["data_wait"],
        "sim.loaders.slow_frac": _ratio(slow, preprocessed),
        "sim.resources.core_requests": c["core_requests"],
        "sim.resources.core_wait_s": probe.sim_seconds["core_wait"],
        "sim.resources.disk_bytes": c["disk_bytes"],
        "sim.resources.self_s": own["sim.resources"],
        "sim.stores.ops": probe.calls("sim.stores", "put", "get", "try_put", "try_get"),
        "sim.stores.self_s": own["sim.stores"],
        "engine.metrics.self_s": own["engine.metrics"],
        "sim.links.transfers": probe.calls("sim.links", "transfer"),
        "sim.links.events": probe.events("sim.links"),
        "sim.links.self_s": own["sim.links"],
        "sim.links.wait_s.collective": by_class["collective"],
        "sim.links.wait_s.loader": by_class["loader"],
        "sim.links.wait_s.checkpoint": by_class["checkpoint"],
        "sim.fabric.deliveries": probe.calls("sim.fabric", "_deliver"),
        "sim.fabric.collapsed": collapsed,
        "sim.fabric.collapse_vetoes": sum(job.collapse_cross_vetoes for job in jobs),
        "sim.fabric.collapse_ratio": _ratio(collapsed, len(probe.collectives)),
        "sim.fabric.self_s": own["sim.fabric"],
        "sim.fabric.exposed_sync_s": sum(job.exposed_sync_seconds for job in jobs),
        "sim.distributed.self_s": own["sim.distributed"],
        "sim.distributed.storage_wait_s": sum(job.storage_wait_seconds for job in jobs),
        "sim.checkpoint.write_s": sum(job.checkpoint_write_seconds for job in jobs),
        "sim.checkpoint.restore_s": sum(job.restore_seconds for job in jobs),
        "sim.checkpoint.lost_steps": sum(job.lost_steps for job in jobs),
        "sim.cluster.cache_hit_ratio": cache_hit_ratio,
        "sim.scenarios.self_s": own["sim.scenarios"],
        "core.queues.try_get_miss_ratio": _ratio(
            c["queue_miss"], c["queue_hit"] + c["queue_miss"]
        ),
        "core.balancer.busy_s": probe.host_seconds["balancer"],
        "transforms.busy_s": probe.host_seconds["transforms"],
        "data.load_s": probe.host_seconds["load"],
        "policy.slow_frac": loader.stats().slow_fraction if loader is not None else 0.0,
        "engine.batch_wait_ms_p50": batch_wait_ms["p50"],
        "engine.batch_wait_ms_p99": batch_wait_ms["p99"],
        "host.wall_s": untraced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
