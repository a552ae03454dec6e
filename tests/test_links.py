"""SharedLink equivalence pins and conservation properties.

Three contracts from the per-stream link refactor:

* a single-stream :class:`SharedLink` is *bit-identical* to the legacy
  :class:`BandwidthPipe` watermark model -- completion times, counters,
  and kernel event counts, under arbitrary submit schedules;
* G symmetric streams reproduce the ``bandwidth / G`` fair-share closed
  form exactly (the constant the hierarchical topology used to bake into
  per-member pipe bandwidth, and the one ``collapse_schedule`` still
  uses);
* bytes are conserved under arbitrary open/close schedules: every
  submitted byte comes out of a completion event exactly once, and the
  link never beats its capacity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, BandwidthPipe, Environment, SharedLink


def drive(env, device, schedule, completions):
    """Submit ``(at, nbytes)`` transfers on ``device`` from independent
    processes and append ``(index, completion_time, value)`` tuples."""

    def submitter(at, nbytes, idx):
        yield env.timeout(at)
        value = yield device.transfer(nbytes)
        completions.append((idx, env.now, value))

    procs = [
        env.process(submitter(at, nbytes, idx))
        for idx, (at, nbytes) in enumerate(schedule)
    ]
    env.run(until=AllOf(env, procs))


# ---------------------------------------------------------------------------
# Pin 1: single stream == legacy BandwidthPipe, bit for bit
# ---------------------------------------------------------------------------

schedules = st.lists(
    st.tuples(
        # submit times land on exact eighths so equal-instant collisions
        # and due-exactly-at-finish races actually happen
        st.integers(min_value=0, max_value=64).map(lambda k: k / 8.0),
        st.integers(min_value=0, max_value=1 << 20),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=schedules,
    bandwidth=st.sampled_from([1.0, 2.5, 1e4]),
    latency=st.sampled_from([0.0, 1e-3, 0.25]),
)
def test_single_stream_matches_bandwidth_pipe_bit_for_bit(
    schedule, bandwidth, latency
):
    legacy_env = Environment()
    legacy = BandwidthPipe(legacy_env, bandwidth=bandwidth, latency=latency)
    legacy_done = []
    drive(legacy_env, legacy, schedule, legacy_done)

    link_env = Environment()
    link = SharedLink(link_env, bandwidth=bandwidth, latency=latency)
    stream = link.stream("only")
    link_done = []
    drive(link_env, stream, schedule, link_done)

    # exact equality on purpose: same float expressions, same event counts
    assert link_done == legacy_done
    assert link_env.now == legacy_env.now
    assert link_env.events_processed == legacy_env.events_processed
    assert link_env.events_skipped == legacy_env.events_skipped
    assert link.total_bytes == legacy.total_bytes
    assert link.transfer_count == legacy.transfer_count
    assert stream.total_bytes == legacy.total_bytes
    # an uncontended stream pays no sharing penalty: its wait is exactly
    # the legacy watermark queue wait (start - submit), accumulated in
    # the same FIFO completion order
    order = sorted(range(len(schedule)), key=lambda i: (schedule[i][0], i))
    expected_wait = 0.0
    k = 0
    for i in order:
        at, nbytes = schedule[i]
        if nbytes == 0:
            continue
        start = legacy.transfers[k][0]
        k += 1
        expected_wait += (start - at) + 0.0
    assert stream.wait_seconds == expected_wait


# ---------------------------------------------------------------------------
# Pin 2: G symmetric streams == bandwidth / G closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ranks", [2, 3, 4, 8])
def test_symmetric_streams_match_fair_share_closed_form(ranks):
    bandwidth, latency, chunk, rounds = 40.0, 0.002, 120.0, 5
    env = Environment()
    link = SharedLink(env, bandwidth=bandwidth, latency=latency)
    streams = [link.stream(("rank", g)) for g in range(ranks)]

    def member(stream):
        for _ in range(rounds):
            yield stream.transfer(chunk)

    procs = [env.process(member(s)) for s in streams]
    env.run(until=AllOf(env, procs))

    # replicate the engine's float expressions: each round all G streams
    # drain together at exactly bandwidth / G and resubmit at the shared
    # finish instant
    share = bandwidth / ranks
    expected = 0.0
    for _ in range(rounds):
        expected = (expected + latency) + chunk / share
    assert env.now == expected

    # per-stream and per-class wait is exactly the fair-sharing slowdown
    # versus an idle link, accumulated round by round
    per_round = chunk / share - chunk / bandwidth
    acc = 0.0
    for _ in range(rounds):
        acc += per_round
    for s in streams:
        assert s.wait_seconds == acc
    total = 0.0
    for _ in range(rounds):
        for _ in range(ranks):
            total += per_round
    assert link.wait_by_class == {"collective": total}
    # fair-share revisions ran (stale timers were skipped, not processed)
    assert env.events_skipped > 0


@pytest.mark.parametrize("ranks", [2, 3, 4, 8])
def test_symmetric_streams_leave_one_dead_timer_per_round(ranks):
    """Each round the first submit's timer is queued while its stream is
    alone; the other G - 1 submits land while the instant's settle pass is
    armed, so their timers only reserve an id and are queued once, at
    their final projection.  Only the first timer is revised after being
    queued: one skipped event per round, whatever G."""
    rounds = 5
    env = Environment()
    link = SharedLink(env, bandwidth=40.0, latency=0.002)

    def member(stream):
        for _ in range(rounds):
            yield stream.transfer(120.0)

    procs = [
        env.process(member(link.stream(("rank", g)))) for g in range(ranks)
    ]
    env.run(until=AllOf(env, procs))
    assert env.events_skipped == rounds


def test_two_streams_converge_and_finish_together():
    """A mid-flight open splits the rate: 100 B at 10 B/s alone from t=0,
    then 50 B more opening at t=5 -- both drain at t=15 exactly."""
    env = Environment()
    link = SharedLink(env, bandwidth=10.0)
    a, b = link.stream("a"), link.stream("b")
    done = {}

    def reader(tag, stream, at, nbytes):
        yield env.timeout(at)
        yield stream.transfer(nbytes)
        done[tag] = env.now

    env.process(reader("a", a, 0.0, 100.0))
    env.process(reader("b", b, 5.0, 50.0))
    env.run()
    assert done == {"a": 15.0, "b": 15.0}
    # completion-time attribution uses the final share (the documented
    # fluid approximation): a is charged 100/5 - 100/10
    assert a.wait_seconds == 100.0 / 5.0 - 100.0 / 10.0
    assert b.wait_seconds == 50.0 / 5.0 - 50.0 / 10.0


# ---------------------------------------------------------------------------
# Conservation under arbitrary open/close schedules
# ---------------------------------------------------------------------------

mixed_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # stream id
        st.integers(min_value=0, max_value=40).map(lambda k: k / 4.0),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=32,
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=mixed_schedules,
    bandwidth=st.sampled_from([1.0, 8.0, 1e3]),
    latency=st.sampled_from([0.0, 0.125]),
)
def test_shared_link_conserves_bytes(schedule, bandwidth, latency):
    env = Environment()
    link = SharedLink(env, bandwidth=bandwidth, latency=latency)
    classes = ["collective", "loader", "checkpoint", "loader"]
    streams = {
        sid: link.stream(("s", sid), cls=classes[sid]) for sid in range(4)
    }
    done = []

    def submitter(sid, at, nbytes):
        yield env.timeout(at)
        value = yield streams[sid].transfer(nbytes)
        done.append(value)

    procs = [
        env.process(submitter(sid, at, nbytes))
        for sid, at, nbytes in schedule
    ]
    env.run(until=AllOf(env, procs))

    submitted = sum(n for _sid, _at, n in schedule)
    live = [(sid, n) for sid, _at, n in schedule if n > 0]
    # every submitted byte completes exactly once (integer sizes, so the
    # float sums are exact)
    assert sum(done) == submitted
    assert link.total_bytes == submitted
    assert link.transfer_count == len(live)
    for sid, stream in streams.items():
        assert stream.total_bytes == sum(n for s, n in live if s == sid)
    by_class = {}
    for sid, n in live:
        cls = classes[sid]
        by_class[cls] = by_class.get(cls, 0.0) + n
    assert link.bytes_by_class == by_class
    # the link never beats its capacity: the last byte cannot drain
    # before the aggregate fluid lower bound
    if submitted:
        assert env.now >= submitted / bandwidth * (1.0 - 1e-9)
    # waits are non-negative: sharing can only slow a stream down
    for stream in streams.values():
        assert stream.wait_seconds >= -1e-9
    for secs in link.wait_by_class.values():
        assert secs >= -1e-9
    # the link is quiescent again: no stream reports residual backlog
    assert link.busy_streams() == []
    for stream in streams.values():
        assert stream.backlog == 0.0
