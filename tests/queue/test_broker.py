"""Broker contract tests, run against both backends.

The in-memory broker takes an injectable clock, so lease-expiry behaviour
is tested without sleeping; the SQLite broker uses wall-clock leases and
short sleeps.  Every semantic assertion runs against both.
"""

import time

import pytest

from repro.errors import QueueError
from repro.queue.broker import DEAD, DONE, LEASED, QUEUED
from repro.queue.driver import enqueue
from repro.queue.memory import MemoryBroker
from repro.queue.sqlite import SqliteBroker


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def expiring_broker(request, tmp_path):
    """(broker, expire) pairs: expire() lapses every outstanding lease."""
    if request.param == "memory":
        clock = FakeClock()
        backend = MemoryBroker(clock=clock)
        yield backend, lambda: clock.advance(3600.0)
    else:
        backend = SqliteBroker(tmp_path / "queue.db")
        yield backend, lambda: time.sleep(0.08)
    backend.close()


def lease_seconds(expiring_broker) -> float:
    """A lease the paired expire() callable is guaranteed to outwait."""
    broker, _ = expiring_broker
    return 0.05 if isinstance(broker, SqliteBroker) else 60.0


both_backends = pytest.mark.parametrize(
    "expiring_broker", ["memory", "sqlite"], indirect=True
)


@both_backends
class TestLifecycle:
    def test_enqueue_lease_ack_roundtrip(self, expiring_broker):
        broker, _ = expiring_broker
        assert broker.enqueue("fp1", '{"job": 1}') is True
        assert broker.state("fp1") == QUEUED

        leased = broker.lease("w1", 60.0)
        assert leased.fingerprint == "fp1"
        assert leased.payload == '{"job": 1}'
        assert leased.attempt == 1
        assert leased.worker_id == "w1"
        assert broker.state("fp1") == LEASED

        broker.ack("fp1", '{"result": 42}')
        assert broker.state("fp1") == DONE
        assert broker.result("fp1") == '{"result": 42}'
        counts = broker.pending()
        assert (counts.queued, counts.leased, counts.done, counts.dead) == (
            0, 0, 1, 0,
        )
        assert counts.unfinished == 0

    def test_enqueue_is_idempotent_per_fingerprint(self, expiring_broker):
        broker, _ = expiring_broker
        assert broker.enqueue("fp1", "payload") is True
        assert broker.enqueue("fp1", "payload") is False
        assert broker.pending().total == 1

    def test_fifo_delivery_order(self, expiring_broker):
        broker, _ = expiring_broker
        for index in range(3):
            broker.enqueue(f"fp{index}", f"payload {index}")
        order = [broker.lease("w", 60.0).fingerprint for _ in range(3)]
        assert order == ["fp0", "fp1", "fp2"]

    def test_lease_on_empty_queue_returns_none(self, expiring_broker):
        broker, _ = expiring_broker
        assert broker.lease("w", 60.0) is None

    def test_states_maps_every_job(self, expiring_broker):
        broker, _ = expiring_broker
        broker.enqueue("fp1", "a")
        broker.enqueue("fp2", "b")
        broker.lease("w", 60.0)
        assert broker.states() == {"fp1": LEASED, "fp2": QUEUED}
        assert broker.state("missing") is None

    def test_ack_unknown_fingerprint_raises(self, expiring_broker):
        broker, _ = expiring_broker
        with pytest.raises(QueueError):
            broker.ack("ghost", "result")
        with pytest.raises(QueueError):
            broker.nack("ghost", "error")


@both_backends
class TestRetriesAndDeadLetters:
    def test_nack_requeues_until_attempts_exhausted(self, expiring_broker):
        broker, _ = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=3)
        for attempt in (1, 2):
            leased = broker.lease("w", 60.0)
            assert leased.attempt == attempt
            broker.nack("fp1", f"boom {attempt}")
            assert broker.state("fp1") == QUEUED
        leased = broker.lease("w", 60.0)
        assert leased.attempt == 3
        broker.nack("fp1", "boom 3")
        assert broker.state("fp1") == DEAD

        (letter,) = broker.dead_letters()
        assert letter.fingerprint == "fp1"
        assert letter.payload == "payload"
        assert letter.attempts == 3
        assert letter.error == "boom 3"
        # Dead jobs are parked: nothing left to deliver, nothing in flight.
        assert broker.lease("w", 60.0) is None
        assert broker.pending().unfinished == 0

    def test_reset_dead_grants_fresh_budget(self, expiring_broker):
        broker, _ = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=1)
        broker.lease("w", 60.0)
        broker.nack("fp1", "boom")
        assert broker.state("fp1") == DEAD

        assert broker.reset_dead() == 1
        assert broker.state("fp1") == QUEUED
        leased = broker.lease("w", 60.0)
        assert leased.attempt == 1  # budget restarted
        broker.ack("fp1", "ok")
        assert broker.state("fp1") == DONE


@both_backends
class TestLeaseExpiry:
    def test_expired_lease_is_redelivered(self, expiring_broker):
        broker, expire = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=3)
        first = broker.lease("w1", lease_seconds(expiring_broker))
        assert first.attempt == 1

        expire()
        second = broker.lease("w2", 60.0)
        assert second is not None
        assert second.fingerprint == "fp1"
        assert second.attempt == 2
        assert second.worker_id == "w2"

    def test_expiry_of_final_attempt_dead_letters(self, expiring_broker):
        broker, expire = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=1)
        broker.lease("w1", lease_seconds(expiring_broker))
        expire()
        assert broker.lease("w2", 60.0) is None
        assert broker.state("fp1") == DEAD
        (letter,) = broker.dead_letters()
        assert "lease expired" in letter.error
        assert "w1" in letter.error

    def test_ack_after_expiry_still_completes(self, expiring_broker):
        """Results are deterministic, so a late ack is accepted (last wins)."""
        broker, expire = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=5)
        broker.lease("w1", lease_seconds(expiring_broker))
        expire()
        broker.lease("w2", 60.0)  # redelivered to a second worker
        broker.ack("fp1", "late result from w1")
        assert broker.state("fp1") == DONE
        # The twin delivery failing afterwards must not undo the completion.
        broker.nack("fp1", "w2 crashed late")
        assert broker.state("fp1") == DONE
        assert broker.result("fp1") == "late result from w1"

    def test_live_lease_is_not_redelivered(self, expiring_broker):
        broker, _ = expiring_broker
        broker.enqueue("fp1", "payload")
        assert broker.lease("w1", 60.0) is not None
        assert broker.lease("w2", 60.0) is None

    def test_states_agree_after_a_lease_lapses(self, expiring_broker):
        """states() is a plain read on every backend: a lapsed lease moves
        only when pending() or lease() sweeps it."""
        broker, expire = expiring_broker
        broker.enqueue("fp1", "payload", max_attempts=3)
        broker.lease("w1", lease_seconds(expiring_broker))
        expire()
        assert broker.states() == {"fp1": LEASED}
        assert broker.pending().queued == 1
        assert broker.states() == {"fp1": QUEUED}


@both_backends
class TestResume:
    def test_resume_rebudgets_a_job_whose_final_lease_lapsed(
        self, expiring_broker
    ):
        broker, expire = expiring_broker
        enqueue(broker, ["fp1"], ["payload"], max_attempts=1)
        broker.lease("w1", lease_seconds(expiring_broker))
        expire()

        plan = enqueue(
            broker, ["fp1"], ["payload"], resume=True, max_attempts=1
        )
        assert plan.stats.reset_dead == 1
        assert plan.stats.enqueued == 0
        leased = broker.lease("w2", 60.0)
        assert leased is not None
        assert leased.fingerprint == "fp1"
        assert leased.attempt == 1


@pytest.mark.parametrize("expiring_broker", ["sqlite"], indirect=True)
class TestSqliteDurability:
    def test_state_survives_reopen(self, expiring_broker, tmp_path):
        broker, _ = expiring_broker
        broker.enqueue("fp1", "payload one")
        broker.enqueue("fp2", "payload two")
        broker.lease("w", 60.0)
        broker.ack("fp1", "result one")

        reopened = SqliteBroker(broker.path)
        try:
            assert reopened.states() == {"fp1": DONE, "fp2": QUEUED}
            assert reopened.result("fp1") == "result one"
            assert reopened.lease("w2", 60.0).fingerprint == "fp2"
        finally:
            reopened.close()

    def test_concurrent_connections_never_double_deliver(self, expiring_broker):
        broker, _ = expiring_broker
        for index in range(8):
            broker.enqueue(f"fp{index}", f"payload {index}")
        other = SqliteBroker(broker.path)
        try:
            seen = []
            for turn in range(8):
                backend = broker if turn % 2 == 0 else other
                seen.append(backend.lease(f"w{turn % 2}", 60.0).fingerprint)
            assert sorted(seen) == sorted(f"fp{i}" for i in range(8))
            assert len(set(seen)) == 8
        finally:
            other.close()
