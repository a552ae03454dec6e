"""Idle simulated loader workers park on their poll grid.

The first half pins golden results of the Minato simulator model.

The pins below were recorded with idle workers sleeping one
``poll_interval`` timeout at a time.  Parking them until a state change and
waking them on the same poll grid must leave every result bit-identical:
``training_time`` and GPU utilisation are pinned by exact ``repr``, every
other result field (except the kernel's own ``sim_events`` counter) by a
digest.  Each run executes on both kernel queue kinds.

The second half unit-tests the parking mechanics: :class:`ParkingLot`, the
kernel's absolute-time ``timeout_at`` and the loader's ``halt()``.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest

import repro.sim.kernel as kernel
from repro.policy.scaling import ScalingPolicy
from repro.sim.distributed import ClusterMembership, MembershipEvent, run_elastic
from repro.sim.kernel import Environment
from repro.sim.loaders import ParkingLot, SimContext, SimMinatoLoader
from repro.sim.runner import run_simulation
from repro.sim.stores import Store
from repro.sim.workloads import CONFIG_A, make_workload

QUEUES = kernel.QUEUE_KINDS


def digest(result, skip):
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in skip
    }
    return hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()[:16]


def simulate(monkeypatch, queue, workload, loader_kwargs):
    # run_simulation builds its own Environment with the default queue kind
    monkeypatch.setattr(kernel, "DEFAULT_QUEUE", queue)
    return run_simulation("minato", workload, CONFIG_A, 2, loader_kwargs=loader_kwargs)


SIM_PINS = {
    "timeout": (
        {},
        "23.35793622186581",
        "[0.9041894711669419, 0.9041894711669419]",
        "751a39cd87f26f22",
    ),
    "size": (
        {"classifier": "size"},
        "22.845135333208425",
        "[0.92448565928604, 0.9244856592860401]",
        "d3d3ad23e5f6b75d",
    ),
    "strict": (
        {"reorder": False},
        "29.987999999999747",
        "[0.7042817126850802, 0.7042817126850803]",
        "86d43ce8e56d2553",
    ),
}


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("case", sorted(SIM_PINS))
def test_minato_simulation_pinned(monkeypatch, queue, case):
    kwargs, time_repr, util_repr, want = SIM_PINS[case]
    workload = make_workload("speech_3s", seed=3, dataset_size=240).scaled(0.03)
    result = simulate(monkeypatch, queue, workload, kwargs)
    assert repr(result.training_time) == time_repr
    assert repr(result.gpu_utilization) == util_repr
    assert digest(result, {"training_time", "gpu_utilization"}) == want


@pytest.mark.parametrize("queue", QUEUES)
def test_shrinking_background_pool_pinned(monkeypatch, queue):
    targets = []
    observe = ScalingPolicy.observe

    def recording(self, **kwargs):
        action = observe(self, **kwargs)
        if action is not None:
            targets.append(action.background_target)
        return action

    monkeypatch.setattr(ScalingPolicy, "observe", recording)
    workload = make_workload("image_segmentation", seed=3, dataset_size=24).scaled(0.04)
    result = simulate(monkeypatch, queue, workload, {"scheduler_interval": 0.25})
    # the run must exercise a shrink: surplus background workers retire
    assert any(b < a for a, b in zip(targets, targets[1:]))
    assert repr(result.training_time) == "3.383845357978226"
    assert repr(result.gpu_utilization) == "[0.8463743750131588, 0.8463743750131588]"
    assert digest(result, {"training_time", "gpu_utilization"}) == "0c6febec7c372a8c"


@pytest.mark.parametrize("queue", QUEUES)
def test_elastic_churn_pinned(queue):
    # the fail event halts the dead node's loader mid-epoch
    membership = ClusterMembership(
        4,
        [
            MembershipEvent("leave", node=0, epoch=1),
            MembershipEvent("fail", node=1, epoch=1, after=0.1),
            MembershipEvent("join", node=4, epoch=2),
        ],
    )
    result = run_elastic(
        "minato",
        make_workload("image_segmentation", seed=0, dataset_size=24),
        CONFIG_A,
        membership,
        gpus_per_node=2,
        fabric="ring",
        total_steps=32,
        cache_fraction=1.0,
        queue=queue,
    )
    assert repr(result.training_time) == "5.400365326888201"
    assert repr(result.gpu_utilization) == "0.36525690764486096"
    assert digest(result, {"training_time", "gpu_utilization", "sim_events"}) == "377ad5c0c2389973"


# ---------------------------------------------------------------------------
# Parking mechanics
# ---------------------------------------------------------------------------


def idle_taker(env, store, wait, taken):
    """A worker that takes one item, waiting with ``wait()`` on each miss."""
    while True:
        item = store.try_get()
        if item is not None:
            taken.append((env.now, item))
            return
        yield wait()


def take_time(queue, put_at, parked):
    env = Environment(queue=queue)
    store = Store(env)
    taken = []
    if parked:
        lot = ParkingLot(env, 0.01)
        store.on_change = lot.kick
        wait = lot.park
    else:
        # the sleeping loop parking replaces
        def wait():
            return env.timeout(0.01)

    def producer():
        yield env.timeout(put_at)
        store.put("x")

    env.process(idle_taker(env, store, wait, taken))
    env.process(producer())
    env.run()
    return taken[0][0], env.events_processed


@pytest.mark.parametrize("queue", QUEUES)
def test_parked_worker_schedules_nothing_while_idle(queue):
    env = Environment(queue=queue)
    store = Store(env)
    lot = ParkingLot(env, 0.01)
    store.on_change = lot.kick
    taken = []
    env.process(idle_taker(env, store, lot.park, taken))
    env.run(until=1000.0)
    # the start-up event only: a sleeping loop would have ticked 100,000 times
    assert env.events_processed == 1
    assert len(lot) == 1 and taken == []


@pytest.mark.parametrize("queue", QUEUES)
@pytest.mark.parametrize("put_at", [0.0137, 2.0137])
def test_parked_worker_takes_on_the_accumulated_grid(queue, put_at):
    grid = 0.0
    while grid < put_at:
        grid += 0.01
    when, events = take_time(queue, put_at, parked=True)
    assert when == grid
    polled_when, polled_events = take_time(queue, put_at, parked=False)
    assert when == polled_when
    assert events < polled_events


def test_kick_at_a_grid_point_wakes_at_once():
    env = Environment()
    lot = ParkingLot(env, 0.25)
    woke = []

    def sleeper():
        yield lot.park()
        woke.append(env.now)

    def kicker():
        yield env.timeout(0.5)
        lot.kick()

    env.process(sleeper())
    env.process(kicker())
    env.run()
    assert woke == [0.5]


def test_parking_lot_rejects_bad_interval():
    with pytest.raises(ValueError):
        ParkingLot(Environment(), 0.0)


@pytest.mark.parametrize("queue", QUEUES)
def test_halt_retires_parked_workers(queue):
    env = Environment(queue=queue)
    workload = make_workload("speech_3s", seed=3, dataset_size=48).scaled(0.01)
    ctx = SimContext(env, workload, CONFIG_A, 1)
    loader = SimMinatoLoader(workers_per_gpu=2, slow_workers=2)
    loader.start(ctx)
    env.run(until=0.5)
    assert len(loader._idle) > 0 and loader._active_slow == 2
    loader.halt()
    env.run(until=0.5 + loader.poll_interval)
    assert loader._active_slow == 0
    env.run(until=30.0)
    # nothing stays scheduled for a dead node's loader
    assert loader._active_workers == 0 and env.peek() == float("inf")


def timeout_at_order(queue):
    env = Environment(queue=queue)
    fired = []

    def note(label):
        return lambda _event: fired.append((env.now, label))

    def driver():
        yield env.timeout(1.0)
        env.timeout_at(1.5).callbacks.append(note("at 1.5 first"))
        env.timeout(0.5).callbacks.append(note("timeout 0.5"))
        env.timeout_at(1.5).callbacks.append(note("at 1.5 second"))
        env.timeout_at(1.0).callbacks.append(note("at now"))
        env.event().succeed().callbacks.append(note("succeed now"))
        env.timeout(0.0).callbacks.append(note("timeout 0"))
        with pytest.raises(ValueError):
            env.timeout_at(0.5)

    env.process(driver())
    env.run()
    return fired


def test_timeout_at_orders_like_timeouts_on_both_queues():
    fired = timeout_at_order("indexed")
    assert fired == timeout_at_order("heap")
    assert fired == [
        (1.0, "at now"),
        (1.0, "succeed now"),
        (1.0, "timeout 0"),
        (1.5, "at 1.5 first"),
        (1.5, "timeout 0.5"),
        (1.5, "at 1.5 second"),
    ]


def test_cpu_chunk_on_a_free_core_costs_one_event():
    env = Environment()
    ctx = SimContext(env, make_workload("speech_3s", dataset_size=8), CONFIG_A, 1)

    def chunk():
        yield from ctx.cpu_busy(0.5)

    env.process(chunk())
    env.run()
    # process start, the chunk's timeout, process end: no grant event
    assert env.events_processed == 3
    assert ctx.cpu_busy_seconds == 0.5 and ctx.cores.count == 0


def test_workers_retire_once_the_stream_drains():
    env = Environment()
    workload = make_workload("speech_3s", seed=3, dataset_size=48).scaled(0.01)
    ctx = SimContext(env, workload, CONFIG_A, 1)
    # no sample goes slow and no pool resize kicks: the slow workers idle
    # from start to finish
    loader = SimMinatoLoader(
        workers_per_gpu=2,
        slow_workers=2,
        timeout_override=1e9,
        adaptive_workers=False,
    )
    loader.start(ctx)
    batches = []

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return
            batches.append(batch)

    env.process(consumer())
    env.run()
    assert len(batches) == workload.total_batches(1)
    # the last loading worker's exit kicks the idle slow workers, which
    # then see a drained stream and retire instead of staying parked
    assert ctx.samples_slow == 0
    assert loader._active_workers == 0 and loader._active_slow == 0
    assert len(loader._idle) == 0


def test_worker_that_missed_before_feeding_finished_retires_on_the_grid():
    env = Environment()
    workload = make_workload("speech_3s", seed=3, dataset_size=48)
    ctx = SimContext(env, workload, CONFIG_A, 1)
    loader = SimMinatoLoader(
        workers_per_gpu=2, slow_workers=2, adaptive_workers=False, poll_interval=1e-4
    )
    loader.total_samples_override = 1
    loader.start(ctx)
    # at t=0 the first loading worker takes the only sample and the second
    # misses before the feeder marks the stream done; the feeder's kick
    # retires it at its first grid point, long before the sample is done
    env.run(until=1.5e-4)
    assert loader._feeding_done and loader._active_workers == 1


def test_shrinking_the_background_pool_retires_parked_workers():
    env = Environment()
    workload = make_workload("speech_3s", seed=3, dataset_size=48)
    ctx = SimContext(env, workload, CONFIG_A, 1)
    # tiny queues and no consumer: the pipeline fills and goes quiet, and
    # no sample goes slow, so only a pool-target change can wake the slow
    # workers
    loader = SimMinatoLoader(
        workers_per_gpu=2, slow_workers=3, queue_capacity=2, timeout_override=1e9
    )
    loader.start(ctx)
    shrink_at = 100.0

    def observe(now, **_signals):
        if now < shrink_at:
            return None
        return SimpleNamespace(
            loading_target=loader._loading_target, background_target=1
        )

    loader.scaling.observe = observe
    env.run(until=shrink_at - 0.5)
    assert loader._active_slow == 3 and len(loader._idle) >= 3
    env.run(until=shrink_at + loader.poll_interval)
    assert loader._active_slow == 1
