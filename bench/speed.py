"""Machine-speed calibration for every timing the benchmark reports.

The speed of a shared host drifts: on a 2-core Xeon box the same genus
pass took from 5.4 s to 7.0 s back to back, and medians of three passes
spread by 17% (interquartile distance over median) across ten runs.
A fixed pure-Python loop, timed right before each timed interval and
every few tens of milliseconds of CPU time inside it, tracks that
drift: scaling each query by the loop times around it cut the spread
of those runs to 4.5%, and the spread of wall_s over five seeds is
2-5% on every workload. So every interval is reported in reference
seconds:

    raw seconds * REFERENCE_S / (loop time around it)

REFERENCE_S is the loop's median time back to back on that box
(Intel Xeon, 2 cores, Python 3.11), so reference seconds read as
seconds there. Only ``time`` is imported at the top, so a worker can
calibrate before it imports ghg.
"""
import time

REFERENCE_S = 0.0008

# small ints only: the loop allocates nothing, so its time does not
# depend on the heap of the process it runs in
_OUTER = (0,) * 300
_INNER = tuple(range(100))


def loop_time() -> float:
    start = time.perf_counter()
    acc = 0
    for _ in _OUTER:
        for x in _INNER:
            acc = (acc + x) & 127
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for an interval between two
    loop times."""
    return 2.0 * REFERENCE_S / (before + after)


class Clock:
    """A timeline of loop times, against which raw intervals are scaled.

    ``tick()`` times the loop now. With a ``period``, a SIGPROF timer
    also ticks every ``period`` seconds of the process's CPU time, so
    that long intervals are tracked inside too; only the constructor and
    ``close`` tick by hand then, and ``on_tick``, if set, is called after
    each timer tick. ``scaled(a, b)`` converts the raw interval between
    two ``perf_counter`` readings to reference seconds: loop runs inside
    it are left out, and each piece between ticks is scaled by the loop
    times at its two ends. It needs a tick at or after ``b``, so call it
    after ``close``, or use ``elapsed(a)`` while the clock runs.
    """

    def __init__(self, period: float | None = None):
        self.period = period
        self.on_tick = None
        self.events: list[tuple[float, float, float]] = []  # (start, end, loop)
        self.tick()
        if period:
            import signal  # not at the top: it pulls in enum before ghg does

            signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, period, period)

    def _on_signal(self, signum, frame) -> None:
        self.tick()
        if self.on_tick is not None:
            self.on_tick()

    def tick(self) -> None:
        start = time.perf_counter()
        loop = loop_time()
        self.events.append((start, time.perf_counter(), loop))  # one append: signal-safe

    def close(self) -> None:
        if self.period:
            import signal

            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.tick()

    def scaled(self, a: float, b: float) -> float:
        import bisect

        events = self.events
        i = bisect.bisect_right(events, (a, float("inf"), 0.0))  # first tick after a
        total, t = 0.0, a
        while events[i][0] < b:
            total += (events[i][0] - t) * scale(events[i - 1][2], events[i][2])
            t = events[i][1]
            i += 1
        return total + (b - t) * scale(events[i - 1][2], events[i][2])

    def elapsed(self, a: float) -> float:
        """Reference seconds from ``a`` to the latest tick."""
        last = self.events[-1][0]
        return self.scaled(a, last) if last > a else 0.0
