"""A clock that counts the processor's work rather than wall time.

On a shared virtual machine the speed of pure-Python code drifts: a fixed
loop runs 10-30 % faster or slower from one second, and one minute, to the
next, and two vCPUs of the same machine drift apart.  Wall times taken a
few minutes apart then differ by more than a regression a benchmark should
catch.

RefClock measures that speed while the benchmark runs.  An interval timer
(SIGALRM) interrupts the work every PERIOD_S of wall time, and the signal
handler runs a short fixed probe: exponent-tuple keys and Fraction
arithmetic, the mix the package's polynomials are made of.  The handler runs
in the main thread, between two bytecodes of whatever is being timed, so the
probe sees the processor that work sees at that moment.

now() reads wall time with the probes' own time left out, each stretch
between two probes scaled by NOMINAL_PROBE_S divided by the median duration
of the last WINDOW probes.  A reading is thus in reference seconds: seconds
on a processor where one probe takes NOMINAL_PROBE_S, which is about what it
takes on the 2-vCPU x86-64 virtual machine the baseline comes from.  A change
to the package moves reference seconds as it moves wall seconds; a change of
the machine's speed moves wall seconds only.

Use it as a context manager: the clock runs from enter to exit, and holds
SIGALRM and the real interval timer for that time.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
WINDOW = 5
NOMINAL_PROBE_S = 3.5e-4

_KEYS = [(i % 5, i % 3, i % 2) for i in range(60)]


def probe() -> dict:
    """A fixed piece of pure-Python work, about NOMINAL_PROBE_S long."""
    terms: dict = {}
    for i, key in enumerate(_KEYS, 1):
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, i + 7) * Fraction(3, i + 1)
    return terms


class RefClock:
    def __init__(self):
        self.probes = 0
        self._recent: deque = deque(maxlen=WINDOW)
        self._running = False
        self._state = (0.0, perf_counter(), 1.0)  # (reading, wall time, scale)

    def now(self) -> float:
        """Reference seconds since the clock was entered."""
        t = perf_counter()
        reading, since, scale = self._state  # one read: a probe swaps it whole
        return reading + max(t - since, 0.0) * scale

    def _probe(self) -> tuple[float, float]:
        start = perf_counter()
        probe()
        end = perf_counter()
        self._recent.append(end - start)
        self.probes += 1
        return start, end

    def _tick(self, *_) -> None:
        start, end = self._probe()
        reading, since, _ = self._state
        scale = NOMINAL_PROBE_S / statistics.median(self._recent)
        # the stretch since the last probe runs at the speed just measured
        self._state = (reading + max(start - since, 0.0) * scale, end, scale)
        # one-shot timer, armed again here, so that ticks never nest; a tick
        # already pending when the clock is left must not arm it again
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> RefClock:
        for _ in range(WINDOW):
            self._probe()
        self._state = (0.0, perf_counter(), NOMINAL_PROBE_S / statistics.median(self._recent))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
