"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), runs one closed-loop
training job on them (``run``: every GPU or rank pulls its next batch only
after its previous step completed) and checks the run's outputs
(``check``).  The program under test receives only the generated inputs.

* ``node-speech`` -- ``run_simulation`` of the paper's single-server
  Speech-3s setting (every 5th sample costs 3 s to preprocess).
* ``dp-elastic`` -- ``run_elastic`` of one 64-rank hierarchical job with
  bucketed overlap, remote storage, checkpoints and leave/join/fail churn.
* ``tenant-mix`` -- ``JobMix(...).run()`` of two Minato tenants on one
  shared 64-rank flat-ring cluster with remote storage.
* ``threaded-speech`` -- the real threaded ``MinatoLoader`` on a
  ``ThreadLocalClock`` feeding a 2-GPU ``Trainer``.

The three simulated workloads are deterministic for a given seed; their
simulated results are model outputs, not hardware measurements.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.clock import ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.data import SyntheticLibriSpeech
from repro.engine import MODELS, SimulatedGPU, Trainer
from repro.sim import (
    CheckpointPolicy,
    Cluster,
    ClusterMembership,
    JobMix,
    JobSpec,
    MembershipEvent,
)
from repro.sim.bench import OBSERVABILITY_FIELDS
from repro.sim.distributed import AllReduceModel, DistributedResult, run_elastic
from repro.sim.runner import run_simulation
from repro.sim.workloads import CONFIG_A, make_workload
from repro.transforms import speech_pipeline

__all__ = ["Outcome", "WORKLOADS", "make"]


@dataclass
class Outcome:
    """What one run produced, in the terms the metrics and checks need."""

    #: training steps completed (batches trained, summed over GPUs/ranks)
    steps: int
    #: simulated training time; None for the threaded run, whose per-thread
    #: logical clock has no shared timeline (its training time is the
    #: host time of the run, which the benchmark measures itself)
    train_s: Optional[float]
    #: share of GPU time spent waiting for data: simulated for the simulated
    #: workloads, host time blocked in ``next_batch`` for the threaded one
    gpu_idle_frac: float
    #: digest of every simulated result field (None for the threaded run);
    #: equal digests mean bit-identical results
    fingerprint: Optional[str]
    result: Any
    #: host seconds each ``next_batch`` call blocked (threaded run only)
    batch_waits: List[float] = field(default_factory=list)


def _digest(value: Any) -> str:
    # repr prints floats exactly (shortest round-trip form), so equal
    # digests mean bit-identical values
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _comparable(result: DistributedResult, keep_observability: bool) -> Dict:
    fields = dict(vars(result))
    if not keep_observability:
        for name in OBSERVABILITY_FIELDS:
            fields.pop(name, None)
    return fields


def _unit_interval(problems: List[str], label: str, values) -> None:
    for value in values:
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label} {value!r} outside [0, 1]")


def _distributed_checks(
    problems: List[str], res: DistributedResult, budget: int, batch_size: int
) -> None:
    # every rank of a round steps in lockstep, so the runner rounds the last
    # round's per-rank budget up: after churn the job may overshoot its
    # budget by less than one step per rank, never fall short of it
    widest = max(
        (len(nodes) for nodes in res.epoch_membership), default=res.nodes
    ) * res.gpus_per_node
    if not budget <= res.steps < budget + widest:
        problems.append(f"{res.job_id}: {res.steps} steps, budget {budget}")
    if res.samples != res.steps * batch_size:
        problems.append(
            f"{res.job_id}: {res.samples} samples for {res.steps} steps "
            f"of batch {batch_size}"
        )
    _unit_interval(problems, f"{res.job_id} gpu utilisation", [res.gpu_utilization])
    _unit_interval(
        problems,
        f"{res.job_id} cpu utilisation",
        [res.cpu_utilization, *res.per_node_cpu_utilization],
    )
    seconds = {
        "sync": res.sync_seconds_total,
        "exposed sync": res.exposed_sync_seconds,
        "link wait": res.link_wait_seconds,
        "storage wait": res.storage_wait_seconds,
        "checkpoint write": res.checkpoint_write_seconds,
        "restore": res.restore_seconds,
        **{f"link wait {cls}": s for cls, s in res.link_wait_by_class.items()},
    }
    for label, value in seconds.items():
        if not value >= 0.0:
            problems.append(f"{res.job_id}: {label} seconds {value!r} < 0")
    # both are sums of the same per-step terms in different orders, so
    # they may differ in the last bits
    if res.exposed_sync_seconds > res.sync_seconds_total * (1 + 1e-9):
        problems.append(f"{res.job_id}: exposed sync exceeds total sync")


def _idle(results: List[DistributedResult]) -> float:
    return 1.0 - sum(r.gpu_utilization for r in results) / len(results)


class NodeSpeech:
    """The paper's single server: 4 GPUs on Config A, Speech-3s, Minato."""

    name = "node-speech"
    simulated = True
    gpus = 4

    def __init__(self, iterations: int = 400) -> None:
        self.iterations = iterations

    @property
    def budget(self) -> int:
        return self.iterations

    def setup(self, seed: int):
        # the seed draws the dataset (sample sizes and costs); the shuffle
        # stays fixed: at ~2 % GPU idleness, which heavy samples open the
        # run moves the idle share by +-20 % between shuffles
        workload = make_workload("speech_3s", seed=seed)
        return replace(workload, iterations=self.iterations)

    def run(self, workload) -> Outcome:
        res = run_simulation(
            "minato", workload, CONFIG_A, self.gpus, keep_batch_log=True
        )
        return Outcome(
            steps=res.batches,
            train_s=res.training_time,
            gpu_idle_frac=1.0 - res.mean_gpu_utilization,
            fingerprint=_digest(sorted(vars(res).items())),
            result=res,
        )

    def check(self, workload, outcome: Outcome) -> List[str]:
        res = outcome.result
        problems: List[str] = []
        if res.batches != workload.iterations:
            problems.append(f"{res.batches} steps, budget {workload.iterations}")
        if res.samples != workload.iterations * workload.batch_size:
            problems.append(
                f"{res.samples} samples, budget "
                f"{workload.iterations * workload.batch_size}"
            )
        logged = sum(entry[3] for entry in res.batch_log)
        if res.trained_bytes != logged:
            problems.append(
                f"trained bytes {res.trained_bytes} != batch bytes {logged}"
            )
        _unit_interval(
            problems,
            "utilisation",
            [*res.gpu_utilization, *res.gpu_total_utilization, res.cpu_utilization],
        )
        return problems


@dataclass
class ElasticInputs:
    workload: Any
    cluster: Cluster
    shuffle_seed: int


class DpElastic:
    """One 64-rank job: hierarchical links, 8-bucket overlap, remote storage
    over the NIC, a checkpoint every 4 steps and leave/join/fail churn."""

    name = "dp-elastic"
    simulated = True
    nodes = 16
    gpus_per_node = 4
    dataset_per_node = 12

    def __init__(self, steps_per_gpu: int = 8) -> None:
        self.steps_per_gpu = steps_per_gpu

    @property
    def budget(self) -> int:
        return self.steps_per_gpu * self.nodes * self.gpus_per_node

    def setup(self, seed: int, exact: bool = False) -> ElasticInputs:
        # the seed picks the churned nodes, the failure instant and the
        # shuffle; the dataset stays the paper workload's own (seed 0, as
        # JobMix builds it): 12 KiTS19 samples per node are too few to
        # average out their heavy-tailed costs, and dataset draws alone move
        # simulated time by +-25 %
        rng = random.Random(seed)
        leaver, failer = rng.sample(range(self.nodes), 2)
        events = (
            MembershipEvent("leave", node=leaver, epoch=1),
            MembershipEvent("join", node=self.nodes, epoch=2),
            MembershipEvent("fail", node=failer, epoch=3, after=rng.uniform(0.2, 0.8)),
        )
        cluster = Cluster(
            ClusterMembership(self.nodes, list(events)),
            CONFIG_A,
            gpus_per_node=self.gpus_per_node,
            cache_fraction=1.0,
            topology="hierarchical",
            link_latency=1e-4,
            storage_over_nic=True,
            queue="heap" if exact else None,
        )
        workload = make_workload(
            "image_segmentation", dataset_size=self.dataset_per_node * self.nodes
        )
        return ElasticInputs(workload, cluster, seed)

    def run(self, inputs: ElasticInputs, collapse: bool = True) -> Outcome:
        res = run_elastic(
            "minato",
            inputs.workload,
            CONFIG_A,
            cluster=inputs.cluster,
            fabric="ring",
            overlap=True,
            buckets=8,
            total_steps=self.budget,
            collapse=collapse,
            checkpoint=CheckpointPolicy(interval_steps=4, state_scale=8.0),
            loader_kwargs={"seed": inputs.shuffle_seed},
        )
        return Outcome(
            steps=res.steps,
            train_s=res.training_time,
            gpu_idle_frac=_idle([res]),
            fingerprint=_digest(sorted(_comparable(res, True).items())),
            result=res,
        )

    def check(self, inputs: ElasticInputs, outcome: Outcome) -> List[str]:
        problems: List[str] = []
        _distributed_checks(
            problems, outcome.result, self.budget, inputs.workload.batch_size
        )
        return problems

    def exact_path_problems(self, seed: int, outcome: Outcome) -> List[str]:
        """Rerun on the exact path (no collapse, binary-heap queue): the
        simulated result must match, observability counters aside."""
        exact = self.run(self.setup(seed, exact=True), collapse=False)
        if _comparable(exact.result, False) != _comparable(outcome.result, False):
            return ["exact path (collapse=False, queue='heap') diverged"]
        return []


class TenantMix:
    """Two Minato tenants sharing one 64-rank flat-ring cluster whose
    loader misses travel the same NICs as both tenants' collectives."""

    name = "tenant-mix"
    simulated = True
    nodes = 16
    gpus_per_node = 4
    dataset_per_node = 96
    batch_size = 24  # speech_3s

    def __init__(self, steps_per_gpu: int = 2) -> None:
        self.steps_per_gpu = steps_per_gpu

    @property
    def budget(self) -> int:
        return self.steps_per_gpu * self.nodes * self.gpus_per_node

    def setup(self, seed: int) -> JobMix:
        # JobMix builds each tenant's dataset itself, so the seed shapes the
        # mix instead: which tenant wins same-instant ties and how late the
        # other one arrives.  The shuffles stay fixed: about one shuffle in
        # six tips the mix into a regime with a 7 % longer makespan
        rng = random.Random(seed)
        first = rng.randrange(2)
        late = rng.uniform(0.0, 0.25)
        specs = [
            JobSpec(
                job_id=f"tenant-{i}",
                loader="minato",
                workload_name="speech_3s",
                dataset_size=self.dataset_per_node * self.nodes,
                total_steps=self.budget,
                fabric="ring",
                buckets=2,
                arrival=0.0 if i == first else late,
                priority=1 if i == first else 0,
            )
            for i in range(2)
        ]
        cluster = Cluster(
            ClusterMembership(self.nodes, []),
            CONFIG_A,
            gpus_per_node=self.gpus_per_node,
            cache_fraction=0.8,
            topology="flat",
            link_latency=AllReduceModel().latency,
            storage_over_nic=True,
        )
        return JobMix(specs, cluster)

    def run(self, mix: JobMix) -> Outcome:
        res = mix.run()
        return Outcome(
            steps=sum(job.steps for job in res.jobs),
            train_s=res.makespan,
            gpu_idle_frac=_idle(res.jobs),
            fingerprint=_digest(
                [sorted(_comparable(job, True).items()) for job in res.jobs]
                + [res.makespan, res.sim_events]
            ),
            result=res,
        )

    def check(self, mix: JobMix, outcome: Outcome) -> List[str]:
        problems: List[str] = []
        for job in outcome.result.jobs:
            _distributed_checks(problems, job, self.budget, self.batch_size)
        return problems


class _TimedSource:
    """The trainer's view of the loader, timing each blocking fetch."""

    def __init__(self, loader: MinatoLoader) -> None:
        self.loader = loader
        self.waits: List[float] = []
        #: sample indices delivered, in delivery order (the batches
        #: themselves are dropped after their step, as a trainer would)
        self.delivered: List[int] = []
        self._lock = threading.Lock()

    def next_batch(self, gpu: int = 0):
        start = time.perf_counter()
        batch = self.loader.next_batch(gpu)
        waited = time.perf_counter() - start
        with self._lock:
            self.waits.append(waited)
            if batch is not None:
                self.delivered.extend(batch.indices)
        return batch

    def shutdown(self, timeout: float = 5.0) -> None:
        self.loader.shutdown(timeout)


@dataclass
class ThreadedInputs:
    dataset: SyntheticLibriSpeech
    loader: MinatoLoader
    source: _TimedSource
    trainer: Trainer


class ThreadedSpeech:
    """The threaded engine: MinatoLoader running real numpy speech
    transforms on a ThreadLocalClock, consumed by a 2-GPU Trainer."""

    name = "threaded-speech"
    simulated = False
    gpus = 2
    epochs = 2
    batch_size = 8

    def __init__(self, samples: int = 2000) -> None:
        self.samples = samples

    @property
    def budget(self) -> int:
        return -(-self.samples * self.epochs // self.batch_size)

    def setup(self, seed: int) -> ThreadedInputs:
        dataset = SyntheticLibriSpeech(n_samples=self.samples, seed=seed)
        clock = ThreadLocalClock()
        loader = MinatoLoader(
            dataset,
            speech_pipeline(heavy_seconds=3.0),
            # two loading workers per GPU instead of the paper's twelve: on
            # a 2-core host more threads only add interpreter-lock switching
            MinatoConfig(
                batch_size=self.batch_size,
                num_gpus=self.gpus,
                num_workers=2,
                slow_workers=1,
                seed=seed,
            ),
            epochs=self.epochs,
            clock=clock,
        )
        source = _TimedSource(loader)
        trainer = Trainer(
            source,
            [SimulatedGPU(g, clock) for g in range(self.gpus)],
            MODELS["rnnt"],
        )
        return ThreadedInputs(dataset, loader, source, trainer)

    def run(self, inputs: ThreadedInputs) -> Outcome:
        start = time.perf_counter()
        res = inputs.trainer.run()
        elapsed = time.perf_counter() - start
        waits = list(inputs.source.waits)
        return Outcome(
            steps=res.batches,
            train_s=None,
            gpu_idle_frac=sum(waits) / (self.gpus * elapsed),
            fingerprint=None,
            result=res,
            batch_waits=waits,
        )

    def check(self, inputs: ThreadedInputs, outcome: Outcome) -> List[str]:
        problems: List[str] = []
        res = outcome.result
        delivered = sorted(inputs.source.delivered)
        if delivered != sorted(list(range(len(inputs.dataset))) * self.epochs):
            problems.append(
                "samples not delivered exactly once per epoch "
                f"({len(delivered)} delivered)"
            )
        expected = len(inputs.loader)
        if res.batches != expected:
            problems.append(f"{res.batches} batches, expected {expected}")
        return problems


WORKLOADS = {
    w.name: w for w in (NodeSpeech, DpElastic, TenantMix, ThreadedSpeech)
}


def make(name: str, **sizes) -> Any:
    """The named workload at its benchmark size (or the given sizes)."""
    return WORKLOADS[name](**sizes)
