"""Ring buffer: subscription, polling, drop accounting, release."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.dsms.ring_buffer import RingBuffer


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(StreamError):
            RingBuffer(0)

    def test_poll_returns_pushed_order(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        for i in range(5):
            ring.push(i)
        assert ring.poll(sid) == [0, 1, 2, 3, 4]

    def test_poll_consumes(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.push(1)
        assert ring.poll(sid) == [1]
        assert ring.poll(sid) == []

    def test_subscriber_sees_only_records_after_subscription(self):
        ring = RingBuffer(16)
        ring.push("early")
        sid = ring.subscribe()
        ring.push("late")
        assert ring.poll(sid) == ["late"]

    def test_max_records_limits_poll(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.poll(sid, max_records=3) == [0, 1, 2]
        assert ring.poll(sid) == list(range(3, 10))

    def test_len_counts_total_pushes(self):
        ring = RingBuffer(4)
        ring.extend(iter(range(10)))
        assert len(ring) == 10


class TestMultipleSubscribers:
    def test_independent_cursors(self):
        ring = RingBuffer(16)
        a, b = ring.subscribe(), ring.subscribe()
        ring.push(1)
        assert ring.poll(a) == [1]
        ring.push(2)
        assert ring.poll(a) == [2]
        assert ring.poll(b) == [1, 2]


class TestOverflow:
    def test_slow_consumer_drops_oldest(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        out = ring.poll(sid)
        assert out == [6, 7, 8, 9]
        assert ring.drops(sid) == 6

    def test_backlog(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        ring.extend(iter(range(5)))
        assert ring.backlog(sid) == 5
        ring.poll(sid)
        assert ring.backlog(sid) == 0

    def test_drops_counted_before_poll(self):
        # Overwritten records must show up in drops()/backlog() as soon as
        # they become unreachable, not only after the next poll — overload
        # monitors read these counters without consuming the stream.
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.drops(sid) == 6
        assert ring.backlog(sid) == 4
        ring.poll(sid)
        assert ring.drops(sid) == 6
        assert ring.backlog(sid) == 0

    def test_pending_drops_are_not_double_counted(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        ring.extend(iter(range(10)))
        assert ring.drops(sid) == 6
        ring.extend(iter(range(10, 14)))
        assert ring.drops(sid) == 10
        assert ring.poll(sid) == [10, 11, 12, 13]
        assert ring.drops(sid) == 10

    def test_no_drops_when_keeping_up(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        for i in range(20):
            ring.push(i)
            assert ring.poll(sid) == [i]
        assert ring.drops(sid) == 0


class TestErrors:
    def test_unknown_subscriber(self):
        ring = RingBuffer(4)
        with pytest.raises(StreamError):
            ring.poll(99)
        with pytest.raises(StreamError):
            ring.drops(99)
        with pytest.raises(StreamError):
            ring.backlog(99)

    def test_negative_max_records_is_refused(self):
        """It used to return ``[]`` and move the cursor *backwards*, so
        the next poll re-delivered records already consumed."""
        ring = RingBuffer(8)
        sid = ring.subscribe()
        ring.extend(range(5))
        assert ring.poll(sid, 2) == [0, 1]
        with pytest.raises(StreamError, match="negative"):
            ring.poll(sid, max_records=-2)
        assert ring.poll(sid, 0) == []
        assert ring.poll(sid) == [2, 3, 4]


class _Item:
    """A pushed record the tests hold a weak reference to."""


def _alive(refs):
    """Which of the weakly referenced records something still holds."""
    gc.collect()
    return [ref() is not None for ref in refs]


class TestRelease:
    """The ring holds only what some subscriber has yet to read."""

    def test_a_record_every_subscriber_polled_is_released(self):
        ring = RingBuffer(16)
        a, b = ring.subscribe(), ring.subscribe()
        items = [_Item() for _ in range(3)]
        refs = [weakref.ref(item) for item in items]
        ring.extend(items)
        ring.push(items[0])
        del items
        ring.poll(a)
        assert _alive(refs) == [True] * 3  # b has yet to read them
        ring.poll(b)
        assert _alive(refs) == [False] * 3

    def test_what_a_lagging_subscriber_has_not_read_stays_readable(self):
        ring = RingBuffer(16)
        fast, slow = ring.subscribe(), ring.subscribe()
        items = [_Item() for _ in range(4)]
        refs = [weakref.ref(item) for item in items]
        ring.extend(items)
        ring.poll(fast)
        del items
        assert _alive(refs) == [True] * 4
        assert ring.poll(slow, max_records=1) == [refs[0]()]
        assert _alive(refs) == [False, True, True, True]
        assert ring.poll(slow) == [ref() for ref in refs[1:]]

    def test_what_a_max_records_poll_left_stays_readable(self):
        ring = RingBuffer(16)
        sid = ring.subscribe()
        items = [_Item() for _ in range(5)]
        refs = [weakref.ref(item) for item in items]
        ring.extend(items)
        del items
        ring.poll(sid, max_records=2)
        assert _alive(refs) == [False, False, True, True, True]
        assert ring.poll(sid) == [ref() for ref in refs[2:]]

    def test_a_ring_with_no_subscriber_keeps_nothing_it_is_pushed(self):
        ring = RingBuffer(16)
        items = [_Item() for _ in range(3)]
        refs = [weakref.ref(item) for item in items]
        ring.push(items[0])
        ring.extend(items[1:])
        del items
        assert _alive(refs) == [False] * 3
        assert len(ring) == 3

    def test_unsubscribing_releases_what_only_it_had_yet_to_read(self):
        ring = RingBuffer(16)
        fast, slow = ring.subscribe(), ring.subscribe()
        items = [_Item() for _ in range(2)]
        refs = [weakref.ref(item) for item in items]
        ring.extend(items)
        del items
        ring.poll(fast)
        ring.unsubscribe(slow)
        assert _alive(refs) == [False, False]
        with pytest.raises(StreamError):
            ring.poll(slow)
        with pytest.raises(StreamError):
            ring.unsubscribe(slow)

    def test_records_past_capacity_are_released_unread(self):
        ring = RingBuffer(4)
        sid = ring.subscribe()
        items = [_Item() for _ in range(10)]
        refs = [weakref.ref(item) for item in items]
        ring.extend(items[:3])
        for item in items[3:]:
            ring.push(item)
        del items, item
        assert _alive(refs) == [False] * 6 + [True] * 4
        assert ring.poll(sid) == [ref() for ref in refs[6:]]
        assert ring.drops(sid) == 6


class _NaiveRing:
    """The model: every record ever written, and a cursor per subscriber."""

    def __init__(self, capacity):
        self.capacity, self.log, self.cursors, self.lost = capacity, [], {}, {}
        self.subscribed = 0

    def oldest(self):
        return max(0, len(self.log) - self.capacity)

    def subscribe(self):
        sid, self.subscribed = self.subscribed, self.subscribed + 1
        self.cursors[sid], self.lost[sid] = len(self.log), 0
        return sid

    def unsubscribe(self, sid):
        del self.cursors[sid], self.lost[sid]

    def poll(self, sid, max_records):
        start = max(self.cursors[sid], self.oldest())
        self.lost[sid] += start - self.cursors[sid]
        end = len(self.log) if max_records is None else start + max_records
        self.cursors[sid] = min(end, len(self.log))
        return self.log[start:end]

    def drops(self, sid):
        return self.lost[sid] + max(0, self.oldest() - self.cursors[sid])

    def backlog(self, sid):
        return len(self.log) - max(self.cursors[sid], self.oldest())


_RING_OPS = st.one_of(
    st.just(("push",)),
    st.tuples(
        st.just("extend"),
        st.integers(0, 40),
        st.sampled_from([list, tuple, iter]),
    ),
    st.just(("subscribe",)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 7)),
    st.tuples(
        st.just("poll"),
        st.integers(0, 7),
        st.one_of(st.none(), st.integers(0, 20)),
    ),
)


class TestAgainstANaiveModel:
    """Runs written by slice — longer than ``capacity``, wrapping inside
    a run — and polls read by slice are what a growing list and a cursor
    per subscriber say they are, subscribers joining mid-stream included."""

    @given(st.integers(1, 16), st.lists(_RING_OPS, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_every_observable_equals_the_models(self, capacity, ops):
        ring, model = RingBuffer(capacity), _NaiveRing(capacity)
        for op, *args in ops:
            written = len(model.log)
            if op == "push":
                ring.push(written)
                model.log.append(written)
            elif op == "extend":
                run = list(range(written, written + args[0]))
                assert ring.extend(args[1](run)) == len(run)
                model.log.extend(run)
            elif op == "subscribe":
                assert ring.subscribe() == model.subscribe()
            elif model.cursors:
                sid = list(model.cursors)[args[0] % len(model.cursors)]
                if op == "unsubscribe":
                    ring.unsubscribe(sid)
                    model.unsubscribe(sid)
                else:
                    assert ring.poll(sid, args[1]) == model.poll(sid, args[1])
            sids = list(model.cursors)
            assert len(ring) == len(model.log)
            assert [ring.drops(s) for s in sids] == [model.drops(s) for s in sids]
            assert [ring.backlog(s) for s in sids] == [model.backlog(s) for s in sids]
            assert ring.max_drops() == max(map(model.drops, sids), default=0)
            assert ring.max_backlog() == max(map(model.backlog, sids), default=0)


class TestPropertyBased:
    def test_random_push_poll_sequences_preserve_order(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.tuples(st.booleans(), st.integers(0, 100)),
                        max_size=200),
               st.integers(2, 32))
        @settings(max_examples=50, deadline=None)
        def check(ops, capacity):
            ring = RingBuffer(capacity)
            sid = ring.subscribe()
            pushed = []
            polled = []
            for is_push, value in ops:
                if is_push:
                    ring.push(value)
                    pushed.append(value)
                else:
                    polled.extend(ring.poll(sid))
            polled.extend(ring.poll(sid))
            dropped = ring.drops(sid)
            # Everything polled is a subsequence of what was pushed, with
            # exactly `dropped` records missing.
            assert len(polled) + dropped == len(pushed)
            # Order-preservation: polled appears in pushed order.
            it = iter(pushed)
            assert all(any(v == p for p in it) for v in polled)

        check()
