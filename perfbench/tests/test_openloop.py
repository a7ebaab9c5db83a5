import pytest

from perfbench.openloop import (
    COMPLETED,
    SHED,
    UNANSWERED,
    backlog_growing,
    run_open_loop,
)


class FakeClock:
    """Advances a little on every read, and more when told to."""

    def __init__(self, tick=1e-5):
        self.t = 100.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


class Req:
    def __init__(self, rid, ready_at):
        self.id = rid
        self.ready_at = ready_at
        self.complete_s = None
        self.failed = False


class FakeTier:
    """Answers each request ``service_s`` after it was submitted; a submit
    can be made slow, and payloads listed in ``shed`` are refused."""

    def __init__(self, clock, service_s=0.005, slow_submit=None, shed=(), never=()):
        self.clock = clock
        self.service_s = service_s
        self.slow_submit = slow_submit or {}
        self.shed = set(shed)
        self.never = set(never)
        self.queue = []

    @property
    def pending(self):
        return len(self.queue)

    def submit(self, payload, now):
        self.clock.t += self.slow_submit.get(payload, 0.0)
        if payload in self.shed:
            return None
        ready = float("inf") if payload in self.never else now + self.service_s
        req = Req(payload, ready)
        self.queue.append(req)
        return req

    def next_event_time(self):
        ready = [r.ready_at for r in self.queue if r.ready_at != float("inf")]
        return min(ready) if ready else None

    def poll(self, now):
        done = [r for r in self.queue if r.ready_at <= now]
        self.queue = [r for r in self.queue if r.ready_at > now]
        for r in done:
            r.complete_s = now
        return done


def test_latency_runs_from_due_time_and_includes_generator_lag():
    clock = FakeClock()
    # Request 0's submit stalls for 50 ms; request 1 was due at 10 ms.
    tier = FakeTier(clock, service_s=0.005, slow_submit={0: 0.050})
    run = run_open_loop(tier, [0.0, 0.010, 0.100], lambda i: i, clock=clock)
    lat = run.latencies_s()
    lags = run.lags_s()
    assert [o.status for o in run.outcomes] == [COMPLETED] * 3
    assert lags[1] >= 0.040  # sent at least 40 ms late
    assert lat[1] >= lags[1] + 0.005  # its latency counts that wait
    assert lat[0] >= 0.050  # answered only after the stalled submit returned
    assert lags[2] < 0.001 and 0.005 <= lat[2] < 0.006  # on time again
    for out, value in zip(run.outcomes, lat):
        assert value == pytest.approx(out.done_s - out.due_s)


def test_shed_and_unanswered_requests_count_until_the_run_ends():
    clock = FakeClock()
    tier = FakeTier(clock, shed={1}, never={2})
    run = run_open_loop(tier, [0.0, 0.001, 0.002], lambda i: i,
                        drain_s=0.05, clock=clock)
    assert [o.status for o in run.outcomes] == [COMPLETED, SHED, UNANSWERED]
    assert run.offered == 3 and run.count(COMPLETED) == 1
    lat = run.latencies_s()
    assert lat[1] == pytest.approx(run.end_s - 0.001)
    assert lat[2] == pytest.approx(run.end_s - 0.002)
    assert run.end_s >= 0.002 + 0.05  # waited out the drain


def test_busy_time_is_time_inside_the_tier():
    clock = FakeClock(tick=1e-6)
    tier = FakeTier(clock, slow_submit={0: 0.02, 1: 0.03})
    run = run_open_loop(tier, [0.0, 0.1], lambda i: i, clock=clock)
    assert 0.05 <= run.busy_s < 0.0505


def test_backlog_growth_detection():
    flat = [(i * 0.01, 3 + (i % 4)) for i in range(300)]
    growing = [(i * 0.01, i // 5) for i in range(300)]
    assert not backlog_growing(flat)
    assert backlog_growing(growing)
    assert not backlog_growing([(0.0, 100)])


def test_a_later_phase_keeps_the_targets_clock_running():
    clock = FakeClock()
    tier = FakeTier(clock, service_s=0.005)
    epoch = clock()
    first = run_open_loop(tier, [0.0, 0.01], lambda i: i, clock=clock, epoch=epoch)
    second = run_open_loop(tier, [0.0, 0.01], lambda i: 10 + i, clock=clock, epoch=epoch)
    assert first.count(COMPLETED) == second.count(COMPLETED) == 2
    first_req = first.outcomes[-1].request
    second_req = second.outcomes[0].request
    assert second_req.ready_at > first_req.ready_at  # tier time moved on
    assert all(0.005 <= v < 0.006 for v in second.latencies_s())
