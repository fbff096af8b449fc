"""Measurement helpers for the ddnpc benchmark: percentiles, solve intervals
from plant-step timestamps, host-speed normalisation and an in-memory span
tracer.

Nothing here imports numpy or ddnpc, so the helpers can be tested alone.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import statistics
import time
from collections import Counter, defaultdict

MIN_TAIL = 10  # samples that must lie beyond a reported percentile


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than ``MIN_TAIL`` samples lie beyond it,
    so a reported tail percentile always rests on enough samples. The median
    (``q = 50``) needs ``2 * MIN_TAIL`` samples in total.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it, "
            f"fewer than {MIN_TAIL}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]


# ---------------------------------------------------------------------------
# Solve latency seen from the plant
# ---------------------------------------------------------------------------


def solve_intervals(calls, returns, bootstrap: int, stride: int) -> list:
    """``(start, end)`` clock readings of every solve of one closed loop.

    ``calls[i]`` and ``returns[i]`` are the clock readings at the call and the
    return of the ``i``-th ``plant.step``. The loop first pre-rolls
    ``bootstrap`` steps without a solve, then alternates one solve with
    ``stride`` steps. A solve runs from the return of the last step before it
    to the call of the first step after it, so its latency covers warm start,
    the solve, any fallback and the loop's own bookkeeping.
    """
    n = len(calls)
    if len(returns) != n:
        raise ValueError("calls and returns differ in length")
    if bootstrap < 1 or stride < 1:
        raise ValueError("bootstrap and stride must be positive")
    if n < bootstrap or (n - bootstrap) % stride:
        raise ValueError(
            f"{n} steps do not split into {bootstrap} bootstrap steps and "
            f"strides of {stride}"
        )
    return [(returns[i - 1], calls[i]) for i in range(bootstrap, n, stride)]


class StepClock:
    """Wraps a plant step function and records call/return times.

    ``inside`` (if given) runs within each recorded step interval, ahead of
    the step itself, so it never falls into a solve interval."""

    def __init__(self, step, clock=time.perf_counter, inside=None):
        self._step = step
        self._clock = clock
        self._inside = inside
        self.calls = []
        self.returns = []
        self.last = None  # state returned by the latest step

    def __call__(self, x, u):
        self.calls.append(self._clock())
        if self._inside is not None:
            self._inside()
        out = self._step(x, u)
        self.returns.append(self._clock())
        self.last = out
        return out

    def take(self):
        """Return and clear the recorded ``(calls, returns)``."""
        out = (self.calls, self.returns)
        self.calls, self.returns = [], []
        return out


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


class HostSpeed:
    """Times a fixed reference kernel through a run and rescales measured
    intervals to a host on which that kernel takes ``ref_s``.

    A shared host's speed drifts by up to 2x over seconds to minutes, far
    more than the changes a benchmark must resolve. The kernel does not use
    the program under test, so its time follows the host alone, and an
    interval divided by the kernel's local slowdown follows the program.

    ``sample()`` times the kernel once; ``tick()`` does so on every
    ``every``-th call. The slowdown at a sample is the median kernel time of
    it and its ``SMOOTH`` neighbours on each side, over ``ref_s``. It holds
    from the middle of the gap to the previous sample to the middle of the
    gap to the next; the first and last samples extend to the whole run.
    One kernel time varies by about 15 % between back-to-back runs, so the
    median spans ten samples on each side, one to three seconds of a closed
    loop: of the spans tried, from two neighbours up to the whole run, none
    was clearly steadier over eight runs of each workload.
    """

    SMOOTH = 10

    def __init__(self, kernel, ref_s: float, every: int = 1, clock=time.perf_counter):
        self.kernel = kernel
        self.ref_s = ref_s
        self.every = every
        self.clock = clock
        self.starts = []
        self.ends = []
        self._ticks = 0
        self._pieces = None  # (bounds, slowdowns), rebuilt after a new sample

    def sample(self) -> None:
        """Time the kernel once, with the cyclic garbage collector paused so
        that it cannot charge the program's garbage to the kernel."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = self.clock()
            self.kernel()
            t1 = self.clock()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self._pieces = None

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks % self.every == 0:
            self.sample()

    def slowdowns(self) -> list:
        times = [e - s for s, e in zip(self.starts, self.ends)]
        k = self.SMOOTH
        return [
            statistics.median(times[max(0, j - k) : j + k + 1]) / self.ref_s
            for j in range(len(times))
        ]

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` at the reference speed. Time the kernel
        itself ran inside the interval is left out."""
        if not self.starts:
            raise ValueError("no kernel samples to normalise by")
        if self._pieces is None:
            bounds = [(e + s) / 2 for e, s in zip(self.ends[:-1], self.starts[1:])]
            self._pieces = (bounds, self.slowdowns())
        bounds, slow = self._pieces
        j = bisect.bisect_right(bounds, t0)
        total, lo = 0.0, t0
        while True:
            hi = min(t1, bounds[j]) if j < len(bounds) else t1
            kernel = max(0.0, min(hi, self.ends[j]) - max(lo, self.starts[j]))
            total += (hi - lo - kernel) / slow[j]
            if hi >= t1:
                return total
            lo, j = hi, j + 1


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.index)
        return False  # never swallow


class Tracer:
    """In-memory spans and counters.

    A span records its name, start, end and the index of the span open when
    it started. With ``enabled`` false no span or count is kept, but ``wrap``
    still records the text of every exception passing through it.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = Counter()
        self.errors = []  # (span name, exception text)
        self.grid_rows = None  # grid size of the certificate being built

    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(None)
        self.stack.append(index)
        self.starts.append(self.clock())
        return _Span(self, index)

    def _close(self, index):
        self.ends[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]} closed out of order")

    def count(self, name: str, n=1):
        if self.enabled:
            self.counts[name] += n

    def innermost(self, names):
        """Name of the innermost open span whose name is in ``names``."""
        for index in reversed(self.stack):
            if self.names[index] in names:
                return self.names[index]
        return None

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span named ``name`` (no span when tracing is off).

        ``before(args)`` runs ahead of the call and ``after(result)`` after
        it. The text of an exception raised by ``fn`` is recorded under
        ``name`` and the exception re-raised.
        """

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            try:
                if self.enabled:
                    with self.span(name):
                        out = fn(*args, **kwargs)
                else:
                    out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors.append((name, f"{type(exc).__name__}: {exc}"))
                raise
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.names)):
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children.get(i, ()), key=lambda j: self.starts[j]):
                s, e = self.starts[c], self.ends[c]
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append(self.ends[i] - self.starts[i] - covered)
        return out

    def totals(self) -> dict:
        """``name -> {"calls", "s", "self_s"}`` over every closed span."""
        if any(e is None for e in self.ends):
            raise RuntimeError("report requested with spans still open")
        selfs = self.self_times()
        agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            a = agg[name]
            a["calls"] += 1
            a["s"] += self.ends[i] - self.starts[i]
            a["self_s"] += selfs[i]
        return dict(agg)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {"i": i, "name": name, "start": self.starts[i],
                         "end": self.ends[i], "parent": self.parents[i]}
                    )
                    + "\n"
                )

