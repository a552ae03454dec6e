"""Tests for the discrete-event simulation kernel."""

import gc

import pytest

from repro.errors import EmptySchedule, SimulationError
from repro.sim import AllOf, AnyOf, Environment, Interrupt
from repro.sim.kernel import Process


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.5]


def test_zero_delay_timeout_fires_at_current_instant():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(2, "b"))
    env.process(proc(1, "a"))
    env.process(proc(3, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_return_value_propagates():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer(results):
        value = yield env.process(inner())
        results.append(value)

    results = []
    env.process(outer(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    value = env.run(until=env.process(proc()))
    assert value == "done"
    assert env.now == 2


def test_run_until_time_stops_and_sets_now():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=2)


def test_run_until_untriggered_event_with_empty_schedule_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(EmptySchedule):
        env.run(until=event)


def test_event_succeed_twice_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_to_waiter():
    env = Environment()
    event = env.event()

    def failer():
        yield env.timeout(1)
        event.fail(RuntimeError("boom"))

    def waiter(log):
        try:
            yield event
        except RuntimeError as exc:
            log.append(str(exc))

    log = []
    env.process(failer())
    env.process(waiter(log))
    env.run()
    assert log == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_on_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc():
        timeout = env.timeout(1)
        yield env.timeout(2)  # the first timeout is long processed by now
        yield timeout
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [2.0]


def test_interrupt_wakes_process_early():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt(cause="deadline")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 5.0, "deadline")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_self_interrupt_raises():
    """Regression: the guard compared the process's *wait target* against
    the active process, so a process interrupting itself slipped past it
    and corrupted its own resume state instead of raising."""
    env = Environment()
    log = []

    def selfish():
        proc = env.active_process
        with pytest.raises(SimulationError):
            proc.interrupt(cause="me")
        log.append("guarded")
        yield env.timeout(1)
        log.append(env.now)

    env.process(selfish())
    env.run()
    assert log == ["guarded", 1.0]


def test_interrupting_the_process_waited_on_is_allowed():
    """The broken guard also *wrongly* rejected interrupting a process that
    is currently waiting on the interrupter: target-is-active is not
    self-interruption."""
    env = Environment()
    log = []

    def child():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append(("child-interrupted", env.now, interrupt.cause))

    def parent(child_proc):
        yield env.timeout(5)
        # child waits on its timeout; parent is active and interrupts it --
        # legitimate, and distinct from child interrupting itself
        child_proc.interrupt(cause="parent")
        yield child_proc

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert log == [("child-interrupted", 5.0, "parent")]


def test_interrupting_a_waiter_on_the_active_process():
    """A process A waiting on process B may be interrupted *by* B: the old
    guard compared A's target (B) to the active process (B) and raised."""
    env = Environment()
    log = []

    def waiter(target_holder):
        try:
            yield target_holder[0]
            log.append("target-finished")
        except Interrupt as interrupt:
            log.append(("interrupted-by", interrupt.cause, env.now))

    def busy(waiter_holder):
        yield env.timeout(3)
        # waiter is blocked on *this* process; interrupt it anyway
        waiter_holder[0].interrupt(cause="busy-proc")
        yield env.timeout(10)

    busy_holder = []
    waiter_holder = []
    busy_proc = env.process(busy(waiter_holder))
    busy_holder.append(busy_proc)
    waiter_proc = env.process(waiter(busy_holder))
    waiter_holder.append(waiter_proc)
    env.run()
    assert log == [("interrupted-by", "busy-proc", 3.0)]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(1)
        log.append(env.now)

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [6.0]


def test_any_of_triggers_on_first():
    env = Environment()
    log = []

    def proc():
        first = env.timeout(1, value="fast")
        second = env.timeout(5, value="slow")
        result = yield AnyOf(env, [first, second])
        log.append((env.now, list(result.values())))

    env.process(proc())
    env.run()
    assert log == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        events = [env.timeout(d, value=d) for d in (1, 3, 2)]
        result = yield AllOf(env, events)
        log.append((env.now, sorted(result.values())))

    env.process(proc())
    env.run()
    assert log == [(3.0, [1, 2, 3])]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_many_processes_scale():
    env = Environment()
    counter = []

    def proc(delay):
        yield env.timeout(delay)
        counter.append(delay)

    for i in range(1000):
        env.process(proc(i % 17))
    env.run()
    assert len(counter) == 1000


# ---------------------------------------------------------------------------
# run() loop, in-place success and reserved scheduling ids
# ---------------------------------------------------------------------------


def test_run_until_event_raises_empty_schedule_after_draining():
    env = Environment()
    never = env.event()
    log = []

    def proc():
        yield env.timeout(2)
        log.append(env.now)

    env.process(proc())
    with pytest.raises(EmptySchedule, match="drained before the target"):
        env.run(until=never)
    assert log == [2.0] and env.now == 2.0


def test_run_until_event_surfaces_unhandled_failure():
    env = Environment()
    target = env.timeout(5)

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run(until=target)
    assert env.now == 1.0


def test_run_until_failed_event_raises_its_exception():
    env = Environment()
    target = env.event()

    def failer():
        yield env.timeout(1)
        target.fail(KeyError("gone"))

    env.process(failer())
    with pytest.raises(KeyError):
        env.run(until=target)


@pytest.mark.parametrize("until", ["drain", "event"])
def test_run_counts_skipped_dead_events(until):
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(5)
        except Interrupt:
            log.append(env.now)

    def waker(victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(sleeper())
    done = env.process(waker(victim))
    later = env.timeout(7)
    env.run(until=later if until == "event" else None)
    # the interrupted sleeper's timeout lost its last subscriber: skipped
    # at its fire time, never processed
    assert log == [1.0]
    assert env.events_skipped == 1
    assert done.processed and env.now == 7.0


def test_succeed_in_place_without_subscriber_queues_nothing():
    env = Environment()
    event = env.event()
    event.succeed_in_place("chunk")
    assert event.triggered and event.processed and event.value == "chunk"
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        event.succeed_in_place()
    log = []

    def late_reader():
        # a reader that yields anyway resumes at once with the value
        log.append((yield event))

    env.process(late_reader())
    env.run()
    assert log == ["chunk"] and env.now == 0.0


def test_succeed_in_place_with_subscriber_is_a_plain_succeed():
    env = Environment()
    event = env.event()
    log = []

    def waiter():
        log.append((yield event))

    def trigger():
        yield env.timeout(3)
        event.succeed_in_place(9)
        assert not event.processed

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert log == [9] and env.now == 3.0


@pytest.mark.parametrize("queue", ["indexed", "heap"])
def test_reserved_eid_keeps_the_pop_order_of_its_reservation(queue):
    env = Environment(queue=queue)
    order = []
    early = env.event()
    early._ok, early._value = True, None
    early.callbacks.append(lambda _e: order.append("reserved first"))
    eid = env._reserve_eid()
    env.timeout(2).callbacks.append(lambda _e: order.append("queued second"))
    env._schedule_reserved(early, 2.0, eid)
    env.run()
    assert order == ["reserved first", "queued second"]


@pytest.mark.parametrize("queue", ["indexed", "heap"])
def test_dead_event_is_dropped_only_at_its_fire_time(queue):
    """An interrupted process's stale timeout, re-yielded later, must fire
    at its own time: it may not be dropped as dead while current-instant
    events are still pending ahead of it."""
    env = Environment(queue=queue)
    gate = env.event()
    log = []

    def sleeper():
        late = env.timeout(10)
        try:
            yield late
        except Interrupt:
            log.append(("interrupted", env.now))
        yield gate
        yield late
        log.append(("woke", env.now))

    def interrupter(victim):
        yield env.timeout(1)
        victim.interrupt()
        yield env.timeout(0)
        gate.succeed()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 1.0), ("woke", 10.0)]
    assert env.now == 10.0
    # the revived timeout is delivered, not skipped
    assert (env.events_processed, env.events_skipped) == (9, 0)


def test_interrupt_arriving_after_the_process_finished_is_dropped():
    """Two interrupts issued in one instant: the first ends the process,
    the second finds nothing to throw into and is dropped."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(5)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(1)
        target.interrupt("first")
        target.interrupt("second")

    target = env.process(victim())
    env.process(interrupter(target))
    env.run()
    assert log == [(1.0, "first")]
    assert target.processed and target.ok


def test_finished_process_is_freed_without_the_cycle_collector():
    """A process's stored resume callback references the process; it is
    dropped when the generator ends, so finished processes are freed by
    reference counting and cannot pile up between full collections."""
    gc.disable()
    try:
        env = Environment()

        def quick():
            yield env.timeout(1)

        for _ in range(3):
            env.process(quick())
        env.run()
        assert not [
            obj for obj in gc.get_objects() if isinstance(obj, Process) and obj.env is env
        ]
    finally:
        gc.enable()
