"""The event queue of the batched execution loop.

The simulator's timing model is *analytic*: every component answers
"when does this finish?" with arithmetic, so there is no cycle loop to
tick.  The only genuinely sequential state is the SM frontend's
bounded window of outstanding completions — and that window is
exactly a min-heap of completion times, i.e. an event queue.  When the
window is full, the clock jumps directly to the next completion event
(``heappop``) instead of ever visiting the idle cycles in between;
that is the event-driven "idle-cycle skipping" of the simulator.

:class:`CompletionWindow` holds that queue with **public** slots so the
fused batch loop in :meth:`repro.sim.pipeline.MemoryPipeline.run_batch`
can hoist them into locals, run a whole kernel batch, and write the
state back.  Its method forms (:meth:`issue` / :meth:`complete` /
:meth:`drain`) are the reference semantics of that inlined arithmetic
— same float operations in the same order — and
``tests/sim/test_events.py`` pins ``run_batch`` against them.
"""

from __future__ import annotations

import heapq
from typing import List


class CompletionWindow:
    """Bounded window of outstanding completions (the event queue).

    Invariants:

    * access ``i`` may not issue before its program-order slot
      ``i * gap`` (the compute-rate floor);
    * with ``max_inflight`` completions outstanding, issue waits for
      the *earliest* completion event — ``freed = heappop(inflight)``
      — and stalls only by ``freed - ready`` when that event lies in
      the future.  A completion landing exactly on the ready slot
      (``freed == ready``) frees the slot just in time: zero stall.
    """

    __slots__ = ("max_inflight", "gap", "inflight", "seq", "stall_cycles",
                 "last_stall", "last_issue", "last_completion")

    def __init__(self, max_inflight: int, gap: float) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if gap <= 0:
            raise ValueError("gap must be positive")
        self.max_inflight = max_inflight
        self.gap = gap
        #: Outstanding completion times, a ``heapq`` min-heap: the
        #: event queue the clock jumps along when the window is full.
        self.inflight: List[float] = []
        self.seq = 0
        self.stall_cycles = 0.0
        #: Stall length of the most recent issue (0.0 when it issued
        #: on time) — read by the observability layer for stall spans.
        self.last_stall = 0.0
        self.last_issue = 0.0
        self.last_completion = 0.0

    def issue(self) -> float:
        """Cycle at which the next access issues."""
        ready = self.seq * self.gap
        self.seq += 1
        issue = ready
        stall = 0.0
        if len(self.inflight) >= self.max_inflight:
            freed = heapq.heappop(self.inflight)
            if freed > issue:
                stall = freed - issue
                self.stall_cycles += stall
                issue = freed
        self.last_stall = stall
        self.last_issue = issue
        return issue

    def complete(self, completion: float) -> None:
        """Register the completion event of the just-issued access."""
        heapq.heappush(self.inflight, completion)
        if completion > self.last_completion:
            self.last_completion = completion

    def drain(self) -> float:
        """All outstanding work finished."""
        return max(self.last_completion, self.last_issue)
