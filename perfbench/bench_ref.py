"""Host speed reference for the untraced runs.

On a shared host the speed of every op drifts by 10-20% over minutes with
the neighbours' load, slowly enough that a median over one run does not
average it out.  A fixed pure-Python kernel follows the drift.  It is
timed every SAMPLE_INTERVAL_S during each op's body, from a SIGALRM
handler whose time is taken out of the body's time, and in a block before
every op's set-ups.  The samples are evenly spaced in wall time, so the
body's host-second time times the mean of REF_NOMINAL_S / sample is its
time at nominal speed: a body's slowdown is the harmonic mean of its samples over
REF_NOMINAL_S.  The harmonic mean also shrugs off the odd sample that a
hiccup of the host stretched.  Set-ups last well under a second and run
right after a block, so that block alone gives their slowdown.

The timed metrics are divided by the slowdown, which gives "reference
seconds": the time the op would take on a host at which one kernel call
takes REF_NOMINAL_S.  The kernel is the benchmark's own code, so a change
to slasim moves only the op's side of the ratio.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_LOOPS = 25_000  # one kernel call, about 2 ms
BLOCK_CALLS = 40
SAMPLE_INTERVAL_S = 0.2
# Median of one kernel call on a 2-vCPU Xeon VM with Python 3.11.7.  It is
# the unit of the timed metrics and must not change, or runs stop being
# comparable.
REF_NOMINAL_S = 0.00217


def reference_kernel() -> int:
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return total


def timed_kernel() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


class HostSpeed:
    """Reference kernel timings around and during the ops of one run."""

    def __init__(self) -> None:
        self.blocks: list[float] = []  # median kernel seconds of each block
        self.samples: list[list[float]] = []  # kernel seconds during each op's body
        self.spent = 0.0  # seconds in the handler during the current body
        self._previous = None

    def block(self) -> None:
        self.blocks.append(statistics.median(timed_kernel() for _ in range(BLOCK_CALLS)))

    def start(self) -> None:
        """Start sampling during a body; stop() must follow on every path."""
        self.samples.append([])
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        seconds = timed_kernel()
        self.samples[-1].append(seconds)
        self.spent += seconds

    def setup_slowdown(self) -> float:
        """Slowdown of the set-ups that follow the block before the last
        op, after the block that follows the op."""
        return self.blocks[-2] / REF_NOMINAL_S

    def body_slowdown(self) -> float:
        """Slowdown of the last op's body; above 1 when the host ran slower
        than nominal.  A body too short to be sampled takes the blocks
        around it."""
        during = self.samples[-1]
        if not during:
            return (self.blocks[-2] + self.blocks[-1]) / 2.0 / REF_NOMINAL_S
        return statistics.harmonic_mean(during) / REF_NOMINAL_S
