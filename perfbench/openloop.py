"""Single-threaded open-loop load generator for the serving tier.

Requests are sent on a fixed schedule whatever the system does, so a
stall makes later requests wait: each request is timed from the moment
it was *due*, not from when the generator got round to sending it, and
the generator's own lateness (``lag``) is reported so a run whose
generator fell behind can be recognised.

The generator runs in the caller's thread with no helper threads and no
sleeping: it spins on the clock, submits each request once its due time
has passed, and calls ``poll`` once the target's next event
(``next_event_time``) is due.  The target is anything with the router surface
``submit(payload, now) / poll(now) / next_event_time() / pending``; its
``now`` is wall seconds since the target's epoch.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

COMPLETED, SHED, FAILED, UNANSWERED = "completed", "shed", "failed", "unanswered"


@dataclass
class Outcome:
    """What happened to one offered request (times in run seconds)."""

    index: int
    due_s: float
    sent_s: float
    status: str = UNANSWERED
    done_s: Optional[float] = None
    request: object = field(default=None, repr=False)

    @property
    def lag_s(self) -> float:
        """How late the generator sent this request."""
        return self.sent_s - self.due_s


@dataclass
class OpenLoopRun:
    """The outcomes of one schedule plus the generator's own bookkeeping."""

    outcomes: List[Outcome]
    end_s: float  # run time at which the generator stopped waiting
    busy_s: float  # wall time spent inside the target's submit/poll calls
    backlog: List[tuple]  # (run seconds, requests due but not answered)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    def latencies_s(self) -> List[float]:
        """Due time → answer, one per offered request.  A request that was
        not answered counts as waiting until the generator gave up, which is
        beyond any latency limit the run can check."""
        return [
            (o.done_s if o.status == COMPLETED else self.end_s) - o.due_s
            for o in self.outcomes
        ]

    def lags_s(self) -> List[float]:
        return [o.lag_s for o in self.outcomes]


def backlog_growing(samples: Sequence[tuple], slack: float = 8.0) -> bool:
    """Did the backlog grow across the run?

    Compares the mean backlog over the last third of the samples with
    the first third; growth beyond twice the start plus ``slack``
    requests (room for one micro-batch filling up) means the system fell
    behind the offered rate.
    """
    if len(samples) < 3:
        return False
    third = len(samples) // 3
    first = [b for _, b in samples[:third]]
    last = [b for _, b in samples[-third:]]
    return sum(last) / len(last) > 2.0 * sum(first) / len(first) + slack


def run_open_loop(
    target,
    due_s: Sequence[float],
    payload_of: Callable[[int], object],
    drain_s: float = 1.0,
    clock: Callable[[], float] = time.perf_counter,
    epoch: Optional[float] = None,
) -> OpenLoopRun:
    """Offer request ``i`` with payload ``payload_of(i)`` at ``due_s[i]``
    seconds after the start, then wait up to ``drain_s`` past the last
    due time for the answers.

    ``epoch`` is the ``clock()`` reading the target's time counts from
    (default: this call's start).  Pass the first phase's start when one
    target serves several phases, so its clock never runs backwards.
    """
    n = len(due_s)
    outcomes: List[Outcome] = []
    waiting = {}  # id(request object) -> Outcome
    backlog: List[tuple] = []
    busy = 0.0
    i = 0
    t0 = clock()
    base = t0 if epoch is None else epoch
    deadline = (due_s[-1] if n else 0.0) + drain_s
    # The target's state changes only inside submit and poll, so its next
    # event time is re-read only after those calls; between them the loop
    # spins on the clock alone.
    wake = target.next_event_time()
    while True:
        now = clock() - t0
        if i < n and due_s[i] <= now:
            payload = payload_of(i)
            sent = clock()
            request = target.submit(payload, sent - base)
            back = clock()
            busy += back - sent
            out = Outcome(i, float(due_s[i]), sent - t0, request=request)
            outcomes.append(out)
            if request is None:
                out.status = SHED
            elif request.complete_s is not None:
                out.status, out.done_s = COMPLETED, back - t0
            elif getattr(request, "failed", False):
                out.status = FAILED
            else:
                waiting[id(request)] = out
            i += 1
            due_not_sent = bisect_right(due_s, back - t0, lo=i) - i
            backlog.append((back - t0, due_not_sent + len(waiting)))
            wake = target.next_event_time()
            continue
        if wake is not None and wake <= now + t0 - base:
            start = clock()
            answered = target.poll(start - base)
            back = clock()
            busy += back - start
            for request in answered:
                out = waiting.pop(id(request), None)
                if out is not None:
                    out.status, out.done_s = COMPLETED, back - t0
            wake = target.next_event_time()
            continue
        if i >= n:
            for key, out in list(waiting.items()):
                if getattr(out.request, "failed", False):
                    out.status = FAILED
                    del waiting[key]
            if not waiting or now > deadline:
                break
    return OpenLoopRun(outcomes, clock() - t0, busy, backlog)
