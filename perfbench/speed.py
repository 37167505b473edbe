"""The host's speed, measured between pieces of the measured work.

On a shared virtual machine the speed of a vCPU moves by half within
seconds, as other tenants load the host core under it, and neither steal
time nor process CPU time shows it.  A timed region then reads fast or slow
by when it ran.  ``SpeedProbe`` runs a fixed piece of reference work at
least every ``period`` seconds of the measured work, from ticks placed
between its calls, and keeps when each piece ran and how long it took.
``scaled`` turns a wall-clock region into reference seconds: the pieces
inside it are taken out, and each stretch of work between two pieces is
scaled by the speed those two pieces measured, so that a region reads as
it would on a host that runs the reference work in exactly
``REFERENCE_LOOP_S`` (and ``REFERENCE_WALK_S``).  Code that gets twice as
fast reads half as long; a host that slows down does not move it.

A piece is pure Python, about 3.5 ms, in two timed parts: an integer
loop that stays in the core's own caches, then a walk in scattered order
over a list of Python ints larger than the private caches, which slows
down as other tenants load the shared cache.  ``scaled`` uses the loop
alone by default; ``walk=True`` adds the walk, which tracks stages that
build and traverse large graphs of Python objects better (see the
README).  The loop also runs in a fresh interpreter before that imports
anything (see ``bench.measure_setup``); ``CHILD_SOURCE`` is what such an
interpreter executes.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter

# Shared with the setup_s child interpreter, which must import nothing
# before it times the import of polyreg.
CHILD_SOURCE = '''
def reference_loop():
    x = 0
    for i in range(15000):
        x += i * i
    return x
'''
exec(CHILD_SOURCE)

_WALK_TABLE = [3 * i + 1 for i in range(1 << 18)]  # about 10 MiB of list and ints
_WALK_ORDER = [(i * 40503) % (1 << 18) for i in range(6000)]


def reference_walk():
    x = 0
    table = _WALK_TABLE
    for i in _WALK_ORDER:
        x += table[i]
    return x


# Seconds the reference work takes on the reference host: every scaled time
# is in seconds of that host.  It is about the median measured on the 2-vCPU
# Xeon virtual machine the README's figures come from; only ratios matter.
REFERENCE_LOOP_S = 0.0012
REFERENCE_WALK_S = 0.0020


class SpeedProbe:
    """Reference pieces run between pieces of measured work."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.loop_s: list[float] = []
        self.walk_s: list[float] = []
        self._last_end = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Run one reference piece if ``period`` has passed since the last
        one, or now if ``force``."""
        start = perf_counter()
        if not force and start - self._last_end < self.period:
            return
        reference_loop()  # noqa: F821 -- defined by exec(CHILD_SOURCE)
        middle = perf_counter()
        reference_walk()
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.loop_s.append(middle - start)
        self.walk_s.append(end - middle)
        self._last_end = end

    def scaled(self, t0: float, t1: float, walk: bool = False) -> float:
        """Reference seconds of the work done between ``t0`` and ``t1``,
        scaled by the loop, or by the loop and the walk if ``walk``.

        Needs a piece that ended by ``t0`` and one that starts at or after
        ``t1``: time regions with ``tick(force=True)`` on both sides.
        """
        starts, durations = self.starts, self.durations
        if walk:
            speeds = [a + b for a, b in zip(self.loop_s, self.walk_s)]
            reference = REFERENCE_LOOP_S + REFERENCE_WALK_S
        else:
            speeds, reference = self.loop_s, REFERENCE_LOOP_S
        i = bisect_left(starts, t0)
        j = bisect_left(starts, t1)
        if i == 0 or j == len(starts):
            raise ValueError("region not bracketed by reference pieces")
        total, cursor, before = 0.0, t0, speeds[i - 1]
        for k in range(i, j + 1):
            after = speeds[k]
            # The stretch of work up to the next piece, or to t1 at the end.
            stop = starts[k] if k < j else t1
            total += (stop - cursor) * 2.0 * reference / (before + after)
            cursor, before = starts[k] + durations[k], after
        return total


    def pieces_s(self, t0: float, t1: float) -> float:
        """Wall seconds of the pieces that started between ``t0`` and ``t1``."""
        return sum(self.durations[bisect_left(self.starts, t0) : bisect_left(self.starts, t1)])


def ticked(probe: SpeedProbe, fn):
    """``fn`` with a probe tick before each call."""

    def wrapper(*args, **kwargs):
        probe.tick()
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "ticked")
    return wrapper


def bracketed(probe: SpeedProbe, fn):
    """``fn`` with a reference piece right before and right after each call,
    so that any region timed inside the call can be scaled."""

    def wrapper(*args, **kwargs):
        probe.tick(force=True)
        try:
            return fn(*args, **kwargs)
        finally:
            probe.tick(force=True)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "bracketed")
    return wrapper
