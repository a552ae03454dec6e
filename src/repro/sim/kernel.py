"""A small discrete-event simulation kernel (SimPy-flavoured).

The paper's evaluation runs for hundreds of wall-clock seconds per data point
(and up to 14 days for the accuracy study).  This kernel lets us execute the
*same pipeline semantics* in virtual time: processes are Python generators
that ``yield`` events (timeouts, queue operations, resource requests) and an
:class:`Environment` advances a global virtual clock from event to event.

Only the features needed by the loader models are implemented:

* :class:`Environment` -- event heap, virtual ``now``, ``run(until=...)``.
* :class:`Event` / :class:`Timeout` -- basic triggerable events.
  ``Environment.timeout_at(when)`` and ``Event.succeed_at(when)`` fire at an
  absolute instant rather than ``now + delay``, so a waker can land a
  sleeper on a float computed ahead of time (the loader model's parked
  workers wake on their exact poll grid this way).
* :class:`Process` -- generator-driven coroutine with ``interrupt`` support
  (used to model the paper's mid-transformation preemption of slow samples).
* :class:`AnyOf` / :class:`AllOf` -- composite conditions.

Queues and resources live in :mod:`repro.sim.stores` and
:mod:`repro.sim.resources`.

Scheduling is served by an *indexed* event queue (see
:class:`Environment`): events fired at the current instant -- the dominant
class in a loader/fabric simulation, where nearly every ``succeed()`` and
process resumption is a zero-delay cascade -- live in two priority-indexed
FIFO lanes with O(1) push/pop, while genuinely future events fall back to
the exact binary heap.  The composite pop order is *identical* to a single
``(time, priority, eid)`` heap (equivalence-pinned in tests), and
``Environment(queue="heap")`` forces the plain-heap legacy path, which the
benchmark suite uses as its measured baseline.  Two further kernel
optimizations ride on the indexed mode: interrupted processes' stale wait
targets are lazily cancelled (skipped at their fire time instead of being
walked and failure-checked), and the throwaway resume ``Event`` that
:meth:`Process._resume` allocates when yielding an already-processed event
is recycled per process.

Three more cuts keep unobserved work out of the queue on both queue kinds,
without moving any remaining event in the pop order:

* ``Event.succeed_in_place()`` lands an event nobody is subscribed to as
  already processed instead of queueing it to run zero callbacks (the ring
  fabric's deliveries, whose readers all test ``triggered`` first);
* ``Environment._reserve_eid()`` takes a scheduling id without queueing
  anything, and ``_schedule_reserved()`` queues an event under it later in
  the same instant -- the shared links' completion timers use it so that a
  timer revised before its instant ends is queued once, never left behind
  as a dead event;
* one dispatch loop (``Environment._dispatch``) serves ``run()`` in all
  three forms and ``step()``.  Lane events are all at ``now``, so it
  compares a lane head with the heap head only when that is at ``now``
  too, on the eid alone (urgent events are only scheduled at ``now``, so
  the heap holds normal ones), building no key tuples.  It tests the dead
  flag only on the event it has just selected, so a dead event is dropped
  exactly at its fire time, as the next event in order, and never while
  earlier events -- which may still re-subscribe to it -- are pending.

Every queued event goes through ``Environment._schedule``, looked up at
call time, so a wrapper on it sees them all.  The event classes use
``__slots__``, and each process binds its ``_resume`` once for every
subscribe, detach and recycled resume (dropped when its generator ends).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import EmptySchedule, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "QUEUE_KINDS",
    "DEFAULT_QUEUE",
]

_PENDING = object()
_INF = float("inf")
_heappush = heapq.heappush
_heappop = heapq.heappop
#: ``done`` value that makes the dispatch loop stop after one event
_STOP = (True,)

#: available event-queue implementations: "indexed" (current-instant FIFO
#: lanes + exact-heap fallback, the default) or "heap" (the legacy single
#: binary heap, kept as the equivalence/benchmark baseline)
QUEUE_KINDS = ("indexed", "heap")
DEFAULT_QUEUE = "indexed"

#: Event scheduling priorities. Urgent events (process resumptions) run before
#: normal events scheduled for the same instant, mirroring SimPy's behaviour.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Thrown inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may eventually *succeed* or *fail*.

    Callbacks are invoked with the event as their only argument when the
    environment processes the event.
    """

    # slots: the kernel allocates one event per timeout, resumption and
    # store operation, so a per-instance dict is the dominant memory and
    # attribute-lookup cost; subclasses extend the tuple
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_dead", "_eid")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set True once a failure's exception was consumed by somebody;
        #: unhandled failures surface in Environment.step().
        self._defused = False
        #: lazy-cancellation mark: a scheduled event whose last subscriber
        #: detached (an interrupted process's stale wait target).  Skipped
        #: when the dispatch loop selects it as the next event *iff* it is
        #: still successful and unobserved -- re-subscribing before then
        #: revives it without clearing the mark.
        self._dead = False
        #: scheduling id, assigned when the event enters a current-instant
        #: lane (orders lane heads against heap entries at the same time)
        self._eid = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._schedule(self, NORMAL, env._now)
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Succeed at absolute virtual time ``when`` (not before ``now``).

        The event is scheduled exactly at ``when`` -- no ``now + delay``
        rounding -- so a waker can land a sleeper on a precomputed float.
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        env = self.env
        if when < env._now:
            raise ValueError(f"cannot schedule in the past: {when!r} < now={env._now!r}")
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, when)
        return self

    def succeed_in_place(self, value: Any = None) -> "Event":
        """Succeed now; with no subscriber, without queueing an event.

        An event nobody waits on would run zero callbacks when the queue
        reached it, so it is marked succeeded *and* processed on the spot
        instead.  A later ``yield`` would then resume its process through
        the already-processed path (urgent, at once) rather than after the
        queued event, so this is only for events whose every reader tests
        :attr:`triggered` before it yields.  With a subscriber it is plain
        :meth:`succeed`.
        """
        if self.callbacks:
            return self.succeed(value)
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, self.env._now)
        return self


class Timeout(Event):
    """An event that fires ``delay`` virtual seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # the most frequent event: set the fields in place rather than
        # through Event.__init__ and then overwriting two of them
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._dead = False
        self._eid = 0
        self.delay = delay
        env._schedule(self, NORMAL, env._now + delay)


class _Initialize(Event):
    """Immediate event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        env._schedule(self, URGENT, env._now)


class Process(Event):
    """A process driven by a generator.

    The process itself is an event that triggers when the generator returns
    (value = the generator's return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target", "_resume_cache", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process expects a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        #: recycled resume event for the already-processed fast path (one
        #: live resume per process at a time, so a single slot suffices)
        self._resume_cache: Optional[Event] = None
        #: ``_resume`` bound once: every subscribe, detach and recycled
        #: resume uses this one object instead of binding a fresh method.
        #: It references the process, so it is dropped when the generator
        #: ends: a finished process then leaves no reference cycle and is
        #: freed at once, not at the next full garbage collection
        self._resume_cb = self._resume
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._interrupted)
        self.env._schedule(interrupt_event, URGENT, self.env._now)

    def _interrupted(self, event: Event) -> None:
        # an interrupt issued while the process was alive can arrive after
        # it finished in the same instant; there is nothing left to throw
        # into, and resuming would queue the finished process a second time
        if self._ok is None:
            self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        resume_cb = self._resume_cb
        # Drop the subscription on the event we were waiting for (if we are
        # being resumed by an interrupt instead of that event).
        target = self._target
        if target is not None and target is not event:
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(resume_cb)
                except ValueError:
                    pass
                else:
                    if not callbacks and env._indexed:
                        # last subscriber gone: let the dispatch loop skip
                        # the stale event when it comes up, instead of
                        # walking its (empty) callbacks and failure-checking
                        # it
                        target._dead = True
        self._target = None
        env._active = self

        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self._resume_cb = None
            env._schedule(self, URGENT, env._now)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self._resume_cb = None
            env._schedule(self, URGENT, env._now)
            return
        finally:
            env._active = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r} "
                f"(from {self._generator!r})"
            )
        callbacks = next_event.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current instant.
            # Successful passthroughs recycle a per-process resume event
            # (safe: only one resume per process is ever in flight, and a
            # recycled event is always re-armed successful, so the queue's
            # unhandled-failure check after its callbacks stays valid).
            resume = self._resume_cache
            if (
                next_event._ok
                and resume is not None
                and resume.callbacks is None
                and env._indexed
            ):
                resume._ok = True
                resume._value = next_event._value
                resume._defused = False
                resume._dead = False
                resume.callbacks = [resume_cb]
            else:
                resume = Event(env)
                resume._ok = next_event._ok
                resume._value = next_event._value
                if not next_event._ok:
                    next_event._defused = True
                    resume._defused = True
                resume.callbacks.append(resume_cb)
                if next_event._ok:
                    self._resume_cache = resume
            env._schedule(resume, URGENT, env._now)
            self._target = resume
        else:
            callbacks.append(resume_cb)
            self._target = next_event


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._satisfied():
            # Only events that have actually been *processed* contribute a
            # value (a Timeout is "triggered" from creation, but its value is
            # not observable until its scheduled instant).
            self.succeed(
                {e: e._value for e in self._events if e.callbacks is None and e._ok}
            )


class AnyOf(_Condition):
    """Triggers as soon as one of the events triggers."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Triggers once all events have triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self._events)


class Environment:
    """Coordinates processes and advances virtual time.

    ``queue`` selects the scheduling structure:

    * ``"indexed"`` (default) -- events fired at the *current instant*
      (zero-delay ``succeed()`` cascades and process resumptions, the vast
      majority of a simulation's traffic) are appended to two FIFO lanes
      indexed by priority (urgent / normal) with O(1) push and pop; only
      genuinely future events pay the binary heap.  The pop order is
      exactly the single-heap ``(time, priority, eid)`` order: lane
      entries carry their scheduling id, every entry in a lane is at the
      current time (lanes always drain before the clock advances), and
      each step takes the least of the heads (see :meth:`_dispatch`).
      Indexed mode also enables lazy cancellation of dead events and
      resume-event recycling (see :class:`Event` / :class:`Process`).
    * ``"heap"`` -- the legacy single binary heap with none of the above;
      kept as the measured baseline for the kernel benchmarks and the
      equivalence sweep.

    ``events_processed`` / ``events_skipped`` count delivered and
    lazily-cancelled events; the benchmark layer reports events/sec from
    them.
    """

    def __init__(
        self, initial_time: float = 0.0, queue: Optional[str] = None
    ) -> None:
        kind = DEFAULT_QUEUE if queue is None else queue
        if kind not in QUEUE_KINDS:
            raise ValueError(
                f"queue must be one of {QUEUE_KINDS}, got {queue!r}"
            )
        self._now = float(initial_time)
        self._queue: list = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._eid = 0
        self._active: Optional[Process] = None
        self._indexed = kind == "indexed"
        self.queue_kind = kind
        #: events actually delivered (callbacks walked)
        self.events_processed = 0
        #: dead events discarded at their fire time without delivery
        self.events_skipped = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event firing at absolute time ``when``; ``ValueError`` if
        ``when < now``.  Same-time order is ``(when, NORMAL, eid)``, as for
        a :class:`Timeout`."""
        return Event(self).succeed_at(when, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, priority: int, when: float) -> None:
        """Queue ``event`` to fire at absolute time ``when`` (>= ``now``).

        ``URGENT`` events fire at ``now`` only; the dispatch loop's lane
        order relies on it.
        """
        eid = self._eid = self._eid + 1
        if when == self._now and self._indexed:
            # current-instant lane: O(1), no tuple, exact order preserved
            # via the carried eid (lanes only ever hold events at _now)
            event._eid = eid
            if priority == URGENT:
                self._urgent.append(event)
            else:
                self._normal.append(event)
        else:
            if priority == URGENT and when != self._now:
                raise SimulationError("an urgent event fires at the current instant")
            _heappush(self._queue, (when, priority, eid, event))

    def _reserve_eid(self) -> int:
        """Take the next scheduling id without queueing anything.

        :meth:`_schedule_reserved` queues an event under it later in the
        same instant; the pop order is then exactly as if the event had
        been scheduled when the id was taken, and an id that is never used
        leaves no dead event behind.
        """
        self._eid += 1
        return self._eid

    def _schedule_reserved(self, event: Event, when: float, eid: int) -> None:
        """Queue ``event`` at ``when`` (strictly after ``now``, so it goes
        on the heap in either queue kind) under ``eid``, an id taken earlier
        by :meth:`_reserve_eid`.  Goes through :meth:`_schedule` with the
        id counter wound back for the one call, so whatever wraps
        ``_schedule`` still sees every queued event."""
        latest = self._eid
        self._eid = eid - 1
        self._schedule(event, NORMAL, when)
        self._eid = latest

    def _dispatch(self, done: Any = (), horizon: float = _INF) -> bool:
        """The one event loop behind :meth:`run` and :meth:`step`.

        Processes events in ``(time, priority, eid)`` order until ``done``
        is truthy after an event (True), the next event lies past
        ``horizon`` (False, nothing popped), or the schedule empties
        (False).  :meth:`step` passes an always-truthy ``done`` to stop
        after one delivered event.

        Lane events are all at ``now``, so a lane head is only compared
        with the heap head when that is at ``now`` too.  The heap then
        holds normal-priority events only (:meth:`_schedule` queues urgent
        events at ``now`` alone, into the urgent lane), so an urgent head
        always goes first and a normal head is compared on eid alone.

        A dead event is dropped when it is selected -- that is, at its own
        fire time, as the next event in order -- and only while still
        successful and unobserved; dropping marks it processed, so a late
        ``yield`` still takes the already-processed fast path with the
        value it would have had.
        """
        heap = self._queue
        urgent = self._urgent
        normal = self._normal
        heappop = _heappop
        while True:
            if urgent:
                # urgent events are only ever scheduled at ``now``, so the
                # heap holds none at ``now`` and an urgent head goes first
                event = urgent.popleft()
            elif normal:
                event = normal[0]
                if heap and heap[0][0] == self._now and heap[0][2] < event._eid:
                    event = heappop(heap)[3]
                else:
                    normal.popleft()
            elif heap:
                top = heap[0]
                when = top[0]
                if when > horizon:
                    return False
                heappop(heap)
                event = top[3]
                self._now = when
            else:
                return False
            callbacks = event.callbacks
            if event._dead and not callbacks and event._ok:
                event.callbacks = None
                self.events_skipped += 1
                continue
            self.events_processed += 1
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                # Unhandled failure: surface it to the caller of run()/step().
                raise event._value
            if done:
                return True

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none.

        Dead events are passed over but left queued: they are only ever
        dropped at their fire time, by the dispatch loop.
        """
        def live(event: Event) -> bool:
            return not (event._dead and not event.callbacks and event._ok)

        if any(map(live, self._urgent)) or any(map(live, self._normal)):
            return self._now
        return min(
            (when for when, _prio, _eid, event in self._queue if live(event)),
            default=_INF,
        )

    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none."""
        if not self._dispatch(_STOP):
            raise EmptySchedule("no more events scheduled")

    def _pending(self) -> bool:
        return bool(self._queue or self._urgent or self._normal)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the schedule drains), a number
        (run until virtual time reaches it), or an :class:`Event` (run until
        it is processed, returning its value).
        """
        if until is None:
            self._dispatch()
            return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                return sentinel._value
            done = []
            sentinel.callbacks.append(done.append)
            if not self._dispatch(done):
                raise EmptySchedule(
                    "schedule drained before the target event triggered"
                )
            if sentinel._ok:
                return sentinel._value
            sentinel._defused = True
            raise sentinel._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"cannot run backwards: until={horizon} < now={self._now}"
            )
        self._dispatch(horizon=horizon)
        self._now = horizon
        return None
