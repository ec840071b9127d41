"""Open- and closed-loop load generation over persistent connections.

Each connection is one thread owning one sender (``connect()`` returns
an object with ``send(request) -> (ok, tier, server_ms, body)`` and
``close()``).  Threads suffice: the server under test is another
process, so the generator's lock only serialises its own bookkeeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

#: Seconds between starting an open loop and its first due time, so
#: every connection is up before the schedule begins.
LEAD_S = 0.05


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    ok: bool
    tier: Optional[str]
    server_ms: Optional[float]
    body: Any

    @property
    def latency(self) -> float:
        """Seconds from when the request was due (open loop) or sent
        (closed loop) until its response was read."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


def _drive(
    plan: Sequence[Any],
    connect: Callable[[], Any],
    connections: int,
    due_at: Optional[Callable[[int], float]],
) -> List[Sample]:
    samples: List[Optional[Sample]] = [None] * len(plan)
    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []

    def worker() -> None:
        sender = connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(plan):
                    return
                if due_at is not None:
                    due = due_at(index)
                    wait = due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    sent = time.perf_counter()
                else:
                    due = sent = time.perf_counter()
                ok, tier, server_ms, body = sender.send(plan[index])
                samples[index] = Sample(
                    index, due, sent, time.perf_counter(), ok, tier,
                    server_ms, body,
                )
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)
        finally:
            sender.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples  # type: ignore[return-value]


def open_loop(
    plan: Sequence[Any],
    rate: float,
    connect: Callable[[], Any],
    connections: int = 2,
) -> List[Sample]:
    """Send ``plan[i]`` at ``start + i / rate`` regardless of replies.

    Latency is measured from the due time, so a stall also charges the
    requests that queued behind it; ``Sample.late`` is how far behind
    schedule the generator itself ran.
    """
    start = time.perf_counter() + LEAD_S
    return _drive(plan, connect, connections, lambda i: start + i / rate)


def closed_loop(
    plan: Sequence[Any],
    connect: Callable[[], Any],
    connections: int = 2,
) -> List[Sample]:
    """Each connection sends its next request when the last one returns."""
    return _drive(plan, connect, connections, None)
