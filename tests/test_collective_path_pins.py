"""Golden pins for the collective path: ring deliveries and link timers.

The pins below were recorded while every fabric delivery and every link
completion timer still went through the kernel's event queue.  Landing a
delivery nobody waits on in place, and queueing a timer only once its
instant's projections are final, removes events no process observes, so
every result must stay bit-identical: ``training_time`` / ``makespan`` are
pinned by exact ``repr``, every other result field (except the kernel's
own ``sim_events`` counter) by a digest.  Each run executes on both kernel
queue kinds.

The three runs cover the paths those changes touch: two tenants whose
collectives and loader misses share each NIC (fair-share re-projection on
every link), a hierarchical overlapped job with checkpoints and
leave/join/fail churn (many streams per link, fill-ins after a failure),
and a partition window (stalled deliveries landing after the heal).
"""

import dataclasses
import hashlib

import pytest

import repro.sim.kernel as kernel
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import (
    Cluster,
    ClusterMembership,
    MembershipEvent,
    PartitionEvent,
)
from repro.sim.distributed import run_elastic
from repro.sim.scenarios import JobMix, JobSpec
from repro.sim.workloads import CONFIG_A, make_workload

QUEUES = kernel.QUEUE_KINDS
NODES = 4
GPUS = 2


def digest(result, skip=("sim_events",)):
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in skip
    }
    return hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()[:16]


def two_tenant_mix(queue):
    cluster = Cluster(
        ClusterMembership(NODES),
        CONFIG_A,
        gpus_per_node=GPUS,
        cache_fraction=0.3,
        topology="flat",
        storage_over_nic=True,
        queue=queue,
    )
    specs = [
        JobSpec(
            job_id=f"tenant-{i}",
            loader="minato",
            workload_name="image_segmentation",
            dataset_size=6 * NODES,
            total_steps=6 * NODES * GPUS,
            buckets=2,
            arrival=0.05 * i,
            priority=1 - i,
        )
        for i in range(2)
    ]
    return JobMix(specs, cluster).run()


def hierarchical_churn(queue, nodes=8, gpus=4):
    # four ranks per node: enough streams per link that same-instant
    # re-projections revise timers, and equal-time completions whose
    # order shows in the float sums of the sync totals
    membership = ClusterMembership(
        nodes,
        [
            MembershipEvent("leave", node=1, epoch=1),
            MembershipEvent("join", node=nodes, epoch=2),
            MembershipEvent("fail", node=2, epoch=3, after=0.3),
        ],
    )
    cluster = Cluster(
        membership,
        CONFIG_A,
        gpus_per_node=gpus,
        cache_fraction=1.0,
        topology="hierarchical",
        link_latency=1e-4,
        storage_over_nic=True,
        queue=queue,
    )
    return run_elastic(
        "minato",
        make_workload("image_segmentation", dataset_size=6 * nodes),
        CONFIG_A,
        cluster=cluster,
        fabric="ring",
        overlap=True,
        buckets=8,
        total_steps=4 * nodes * gpus,
        checkpoint=CheckpointPolicy(interval_steps=2, state_scale=8.0),
    )


def partitioned(queue):
    membership = ClusterMembership(
        NODES,
        partitions=(PartitionEvent(nodes=(0, 1), time=0.5, duration=1.0),),
    )
    return run_elastic(
        "minato",
        make_workload("image_segmentation", seed=0, dataset_size=6 * NODES),
        CONFIG_A,
        membership,
        gpus_per_node=GPUS,
        fabric="ring",
        overlap=True,
        buckets=2,
        total_steps=4 * NODES * GPUS,
        queue=queue,
    )


@pytest.mark.parametrize("queue", QUEUES)
def test_two_tenant_mix_pinned(queue):
    result = two_tenant_mix(queue)
    assert repr(result.makespan) == "3.275378933754713"
    assert [digest(job) for job in result.jobs] == ["ef7a4c8f9f682047", "c28d1ca8447e3406"]
    assert digest(result, {"jobs", "sim_events"}) == "412aba6005d8ed94"


@pytest.mark.parametrize("queue", QUEUES)
def test_hierarchical_overlap_churn_pinned(queue):
    result = hierarchical_churn(queue)
    assert repr(result.training_time) == "9.960945148090671"
    assert digest(result) == "b180fbbeba2cd08d"


@pytest.mark.parametrize("queue", QUEUES)
def test_partition_window_pinned(queue):
    result = partitioned(queue)
    assert result.partition_stall_seconds > 0
    assert repr(result.training_time) == "2.6884999999999963"
    assert digest(result) == "32aadcec37928d16"
