"""Tests for repro.runtime.messaging."""

from __future__ import annotations

import pytest

from repro.runtime.messaging import Mailbox, Message, MessageBus, Performative


def make_message(sender="a", receiver="b", performative=Performative.INFORM, **kwargs):
    return Message(sender=sender, receiver=receiver, performative=performative, **kwargs)


class TestMailbox:
    def test_deliver_and_collect_fifo(self):
        mailbox = Mailbox("b")
        mailbox.deliver(make_message(content=1))
        mailbox.deliver(make_message(content=2))
        assert [m.content for m in mailbox.collect()] == [1, 2]
        assert len(mailbox) == 0

    def test_deliver_to_wrong_owner_rejected(self):
        mailbox = Mailbox("someone_else")
        with pytest.raises(ValueError):
            mailbox.deliver(make_message(receiver="b"))

    def test_collect_matching_filters_and_preserves_rest(self):
        mailbox = Mailbox("b")
        mailbox.deliver(make_message(performative=Performative.ANNOUNCE, conversation_id="n1"))
        mailbox.deliver(make_message(performative=Performative.BID, conversation_id="n1"))
        mailbox.deliver(make_message(performative=Performative.ANNOUNCE, conversation_id="n2"))
        matched = mailbox.collect_matching(Performative.ANNOUNCE, conversation_id="n1")
        assert len(matched) == 1
        assert len(mailbox) == 2

    def test_peek(self):
        mailbox = Mailbox("b")
        assert mailbox.peek() is None
        mailbox.deliver(make_message(content="x"))
        assert mailbox.peek().content == "x"
        assert len(mailbox) == 1


class TestMessageBus:
    def test_register_and_send(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        sent = bus.send(make_message(content="hello"))
        assert sent.message_id == 0
        assert bus.mailbox("b").collect()[0].content == "hello"

    def test_duplicate_registration_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(ValueError):
            bus.register("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MessageBus().register("")

    def test_unknown_sender_or_receiver_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(KeyError):
            bus.send(make_message(sender="a", receiver="ghost"))
        bus.register("b")
        with pytest.raises(KeyError):
            bus.send(make_message(sender="ghost", receiver="b"))

    def test_broadcast_sends_one_message_per_receiver(self):
        bus = MessageBus()
        for name in ("ua", "c1", "c2", "c3"):
            bus.register(name)
        sent = bus.broadcast("ua", ["c1", "c2", "c3"], Performative.ANNOUNCE, "table", "n1", 0)
        assert len(sent) == 3
        assert bus.message_count() == 3
        assert all(len(bus.mailbox(c).collect()) == 1 for c in ("c1", "c2", "c3"))

    def test_log_and_histogram(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(make_message(performative=Performative.ANNOUNCE))
        bus.send(make_message(performative=Performative.BID))
        bus.send(make_message(performative=Performative.BID))
        histogram = bus.messages_by_performative()
        assert histogram[Performative.BID] == 2
        assert histogram[Performative.ANNOUNCE] == 1

    def test_conversation_filter(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(make_message(conversation_id="n1"))
        bus.send(make_message(conversation_id="n2"))
        assert len(bus.conversation("n1")) == 1

    def test_observer_called_for_every_message(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        seen = []
        bus.add_observer(lambda m: seen.append(m.message_id))
        bus.send(make_message())
        bus.send(make_message())
        assert seen == [0, 1]

    def test_message_ids_increase(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        ids = [bus.send(make_message()).message_id for _ in range(5)]
        assert ids == sorted(ids) and len(set(ids)) == 5

    def test_unregister(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.unregister("b")
        assert not bus.is_registered("b")
        with pytest.raises(KeyError):
            bus.mailbox("b")

    def test_clear_log_keeps_mailboxes(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(make_message())
        bus.clear_log()
        assert bus.message_count() == 0
        assert len(bus.mailbox("b")) == 1

    def test_message_immutability_and_with_id(self):
        message = make_message()
        stamped = message.with_id(7)
        assert stamped.message_id == 7
        assert message.message_id == -1
        assert stamped.sender == message.sender


class TestStreamingCounters:
    def test_counters_survive_disabled_retention(self):
        bus = MessageBus(retain_log=False)
        bus.register("a")
        bus.register("b")
        bus.send(make_message(performative=Performative.ANNOUNCE))
        bus.send(make_message(performative=Performative.BID))
        bus.send(make_message(performative=Performative.BID))
        assert len(bus.log) == 0
        assert not bus.retains_log
        assert bus.message_count() == 3
        assert bus.messages_by_performative() == {
            Performative.ANNOUNCE: 1,
            Performative.BID: 2,
        }

    def test_bounded_retention_keeps_recent_messages_and_full_counters(self):
        bus = MessageBus(max_log_entries=2)
        bus.register("a")
        bus.register("b")
        for index in range(5):
            bus.send(make_message(content=index))
        assert bus.message_count() == 5
        assert [m.content for m in bus.log] == [3, 4]
        assert bus.messages_by_performative() == {Performative.INFORM: 5}

    def test_broadcast_updates_counters_and_delivers(self):
        bus = MessageBus()
        for name in ("ua", "c1", "c2", "c3"):
            bus.register(name)
        seen = []
        bus.add_observer(lambda m: seen.append(m.message_id))
        sent = bus.broadcast("ua", ["c1", "c2", "c3"], Performative.ANNOUNCE, "t", "n1", 0)
        assert [m.message_id for m in sent] == [0, 1, 2]
        assert seen == [0, 1, 2]
        assert bus.message_count() == 3
        assert bus.messages_by_performative() == {Performative.ANNOUNCE: 3}
        assert all(len(bus.mailbox(c)) == 1 for c in ("c1", "c2", "c3"))
        assert [m.receiver for m in sent] == ["c1", "c2", "c3"]
        assert all(m.sender == "ua" for m in sent)

    def test_broadcast_rejects_unknown_sender_and_receiver(self):
        bus = MessageBus()
        bus.register("ua")
        bus.register("c1")
        with pytest.raises(KeyError):
            bus.broadcast("ghost", ["c1"], Performative.ANNOUNCE, None)
        with pytest.raises(KeyError):
            bus.broadcast("ua", ["c1", "ghost"], Performative.ANNOUNCE, None)

    def test_failed_broadcast_delivers_and_counts_nothing(self):
        # All receivers are validated up front: a broadcast containing an
        # unknown receiver must not leave partially delivered (and
        # uncounted) messages behind.
        bus = MessageBus()
        bus.register("ua")
        bus.register("c1")
        with pytest.raises(KeyError):
            bus.broadcast("ua", ["c1", "ghost"], Performative.ANNOUNCE, None)
        assert len(bus.mailbox("c1")) == 0
        assert bus.message_count() == 0
        assert len(bus.log) == 0

    def test_bounded_log_view_supports_reversed_slices(self):
        bus = MessageBus(max_log_entries=3)
        bus.register("a")
        bus.register("b")
        for index in range(5):
            bus.send(make_message(content=index))
        assert [m.content for m in bus.log[::-1]] == [4, 3, 2]
        assert [m.content for m in bus.log[-2:]] == [3, 4]

    def test_clear_log_resets_counters(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send(make_message())
        bus.clear_log()
        assert bus.message_count() == 0
        assert bus.messages_by_performative() == {}

    def test_log_view_is_live_and_indexable(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        view = bus.log
        bus.send(make_message(content="x"))
        bus.send(make_message(content="y"))
        assert len(view) == 2
        assert view[0].content == "x"
        assert [m.content for m in view[1:]] == ["y"]
        assert not hasattr(view, "append")


class TestMailboxNoMatchFastPath:
    def test_collect_matching_without_match_keeps_queue_untouched(self):
        mailbox = Mailbox("b")
        mailbox.deliver(make_message(performative=Performative.INFORM))
        mailbox.deliver(make_message(performative=Performative.REPLY))
        queue_before = mailbox._queue
        assert mailbox.collect_matching(Performative.ANNOUNCE) == []
        assert mailbox._queue is queue_before
        assert len(mailbox) == 2


class TestCountersSnapshotConcurrency:
    def test_snapshot_matches_counters_single_threaded(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        for _ in range(3):
            bus.send(make_message())
        bus.send(make_message(performative=Performative.ANNOUNCE))
        total, counts = bus.counters_snapshot()
        assert total == bus.message_count() == 4
        assert counts == bus.messages_by_performative()

    @pytest.mark.parametrize("switch_interval", [None, 1e-4])
    def test_snapshot_is_consistent_under_concurrent_sends(
        self, switch_interval, request
    ):
        # The serving layer polls these counters from a different thread than
        # the one running the negotiation.  Every snapshot must be internally
        # consistent: the total equals the histogram's sum even while the
        # writer is mid-burst (updates and snapshots share one lock).  A tiny
        # GIL switch interval preempts the writer mid-update far more often,
        # which is what exposes a torn read.
        import sys
        import threading

        if switch_interval is not None:
            previous = sys.getswitchinterval()
            sys.setswitchinterval(switch_interval)
            request.addfinalizer(lambda: sys.setswitchinterval(previous))

        bus = MessageBus(retain_log=False)
        for name in ("utility", "c0", "c1", "c2"):
            bus.register(name)
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            performatives = [
                Performative.ANNOUNCE, Performative.BID,
                Performative.AWARD, Performative.INFORM,
            ]
            for i in range(4000):
                performative = performatives[i % len(performatives)]
                bus.send(make_message(
                    sender="utility", receiver=f"c{i % 3}",
                    performative=performative,
                ))
                if i % 400 == 0:
                    bus.broadcast(
                        sender="utility", receivers=["c0", "c1", "c2"],
                        performative=Performative.ANNOUNCE, content=i,
                    )
            stop.set()

        def reader():
            while not stop.is_set():
                total, counts = bus.counters_snapshot()
                if total != sum(counts.values()):
                    failures.append(f"torn snapshot: {total} != {counts}")
                    return

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in reader_threads:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=60)
        for thread in reader_threads:
            thread.join(timeout=60)
        assert not failures, failures[0]
        total, counts = bus.counters_snapshot()
        assert total == sum(counts.values()) == bus.message_count()
