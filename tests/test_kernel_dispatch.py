"""The kernel's dispatch loop against the order it must reproduce.

``Environment._dispatch`` picks the next event without building
``(time, priority, eid)`` keys: lane events are all at ``now``, so a lane
head is compared with the heap head only on priority and eid, and only
when the heap head is at ``now`` as well.  :class:`SpelledOut` below
replaces that loop with the definition -- build every queue head's full
key, take the least -- and the sweep runs random small programs under
both, on both queue kinds.

Within one queue kind the two loops must agree on everything: the log,
``now`` and ``peek()`` after each ``step()`` or horizon, the final
``now``, ``events_processed`` and ``events_skipped``.  Across queue kinds
the log and ``now`` must agree and so must the number of events each kind
took off its queue; the split between processed and skipped differs by
design, as only the indexed kind marks an interrupted process's stale
wait target dead.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptySchedule, SimulationError
from repro.sim import Environment, Interrupt
from repro.sim.kernel import URGENT

PROCS = 3
GATES = 2
DELAYS = [0.0, 0.5, 1.0, 1.5, 2.5]


class SpelledOut(Environment):
    """The dispatch order by definition: every head's full key, least first."""

    def _dispatch(self, done=(), horizon=float("inf")):
        while True:
            heads = []
            if self._queue:
                when, prio, eid, _event = self._queue[0]
                heads.append(((when, prio, eid), None))
            for prio, lane in ((0, self._urgent), (1, self._normal)):
                if lane:
                    heads.append(((self._now, prio, lane[0]._eid), lane))
            if not heads:
                return False
            key, lane = min(heads, key=lambda head: head[0])
            if key[0] > horizon:
                return False
            event = heapq.heappop(self._queue)[3] if lane is None else lane.popleft()
            self._now = key[0]
            if event._dead and event._ok and not event.callbacks:
                event.callbacks = None
                self.events_skipped += 1
                continue
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value
            if done:
                return True

    def peek(self):
        def live(event):
            return not (event._dead and event._ok and not event.callbacks)

        entries = [(when, prio, eid, e) for when, prio, eid, e in self._queue]
        for prio, lane in ((0, self._urgent), (1, self._normal)):
            entries += [(self._now, prio, e._eid, e) for e in lane]
        entries.sort(key=lambda entry: entry[:3])
        return next((entry[0] for entry in entries if live(entry[3])), float("inf"))


interrupts = st.tuples(st.just("interrupt"), st.integers(0, PROCS - 1))
reyields = st.tuples(st.just("reyield"))
# interrupts and re-yields are listed twice: a re-yield needs an earlier
# interrupt of the same process, and the dead-event paths need both
ops = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("succeed"), st.integers(0, GATES - 1)),
    st.tuples(st.just("wait"), st.integers(0, GATES - 1)),
    interrupts,
    reyields,
    interrupts,
    reyields,
    st.tuples(st.just("any"), st.sampled_from(DELAYS), st.integers(0, GATES - 1)),
    st.tuples(st.just("all"), st.sampled_from(DELAYS), st.integers(0, GATES - 1)),
)
programs = st.lists(st.lists(ops, max_size=8), min_size=1, max_size=PROCS)
#: what each run does before draining: run(until=number) or one step()
stops = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, "step"]), max_size=4)


def execute(env, program, stops):
    """Run ``program`` (one op list per process) on ``env``: ``step()`` or
    ``run(until=h)`` for each entry of ``stops``, then drain.  Returns what
    was seen."""
    log = []
    peeks = []
    gates = [env.event() for _ in range(GATES)]
    procs = []

    def proc(me, ops):
        stale = None
        for index, op in enumerate(ops):
            kind = op[0]
            target = None
            if kind == "timeout":
                target = env.timeout(op[1], value=(me, index))
            elif kind == "succeed":
                if not gates[op[1]].triggered:
                    gates[op[1]].succeed((me, index))
            elif kind == "wait":
                target = gates[op[1]]
            elif kind == "interrupt":
                victim = procs[op[1]] if op[1] < len(procs) else None
                if victim is not None and victim is not procs[me] and victim.is_alive:
                    victim.interrupt((me, index))
            elif kind == "reyield":
                target = stale
            elif kind == "any":
                target = env.any_of([env.timeout(op[1]), gates[op[2]]])
            else:
                target = env.all_of([env.timeout(op[1]), gates[op[2]]])
            if target is None:
                continue
            try:
                value = yield target
            except Interrupt as interrupt:
                stale = target
                log.append((env.now, me, index, "interrupted", interrupt.cause))
            else:
                if isinstance(value, dict):
                    value = sorted(map(repr, value.values()))
                log.append((env.now, me, index, kind, value))

    for me, ops in enumerate(program):
        procs.append(env.process(proc(me, ops)))
    try:
        for stop in stops:
            if stop == "step":
                try:
                    env.step()
                except EmptySchedule:
                    peeks.append("empty")
            else:
                env.run(until=max(stop, env.now))
            peeks.append((env.now, env.peek()))
        env.run()
    except Exception as exc:  # an illegal program fails the same way everywhere
        log.append(("raised", type(exc).__name__))
    return {
        "log": log,
        "now": env.now,
        "peeks": peeks,
        "processed": env.events_processed,
        "skipped": env.events_skipped,
    }


@settings(max_examples=300, deadline=None)
@given(program=programs, plan=stops)
def test_dispatch_loop_matches_the_spelled_out_order(program, plan):
    seen = {}
    for queue in ("indexed", "heap"):
        fast = execute(Environment(queue=queue), program, plan)
        reference = execute(SpelledOut(queue=queue), program, plan)
        assert fast == reference, queue
        seen[queue] = fast
    indexed, heap = seen["indexed"], seen["heap"]
    assert indexed["log"] == heap["log"]
    assert indexed["now"] == heap["now"]
    assert (
        indexed["processed"] + indexed["skipped"]
        == heap["processed"] + heap["skipped"]
    )


def test_step_and_run_share_the_loop():
    """step() delivers exactly one live event, dropping dead ones it meets
    on the way; peek() passes over dead events without dropping them."""
    env = Environment()
    stale = env.timeout(1)
    stale._dead = True
    stale.callbacks = []
    live = env.timeout(2)
    assert env.peek() == 2.0
    assert env.events_skipped == 0 and env._pending()
    env.step()
    assert live.processed and stale.processed
    assert (env.now, env.events_processed, env.events_skipped) == (2.0, 1, 1)


@pytest.mark.parametrize("queue", ["indexed", "heap"])
def test_urgent_events_fire_at_the_current_instant_only(queue):
    """The loop serves the urgent lane before the heap, which holds only
    normal-priority events; an urgent event in the future is refused."""
    env = Environment(queue=queue)
    with pytest.raises(SimulationError):
        env._schedule(env.event(), URGENT, 1.0)
