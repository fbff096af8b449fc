"""Unit tests of the benchmark helpers: ``python3 -m pytest bench``."""

import pytest

from harness import HostSpeed, StepClock, Tracer, percentile, samples_beyond, solve_intervals


# -- percentiles --------------------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(list(reversed(values)), 90) == 90


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError, match="fewer than 10"):
        percentile(list(range(99)), 90)


def test_median_needs_twenty_samples():
    percentile(list(range(20)), 50)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        percentile([], 50)


# -- spans ---------------------------------------------------------------------


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.parents == [-1, 0, 1, 0]
    assert tracer.self_times() == [5, 2, 1, 2]
    totals = tracer.totals()
    assert totals["outer"] == {"calls": 1, "s": 10, "self_s": 5}
    assert totals["a"]["self_s"] == 2


def test_self_time_aggregates_repeated_names():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6, 8, 9]))
    with tracer.span("loop"):
        for _ in range(3):
            with tracer.span("step"):
                pass
    # loop [0, 9] with steps [1, 2], [3, 5], [6, 8]
    totals = tracer.totals()
    assert totals["step"] == {"calls": 3, "s": 5, "self_s": 5}
    assert totals["loop"]["self_s"] == 4


def test_wrap_records_exception_text_and_reraises():
    for enabled in (True, False):
        tracer = Tracer(enabled=enabled)
        solve = tracer.wrap("solve", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            solve()
        assert tracer.errors == [("solve", "ZeroDivisionError: division by zero")]
        assert tracer.stack == []


def test_wrap_runs_before_and_after_hooks():
    tracer = Tracer()
    seen = []
    f = tracer.wrap("f", lambda x: x + 1, before=seen.append, after=seen.append)
    assert f(1) == 2
    assert seen == [(1,), 2]
    assert tracer.totals()["f"]["calls"] == 1


def test_disabled_tracer_keeps_no_spans_or_counts():
    tracer = Tracer(enabled=False)
    f = tracer.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    tracer.count("n")
    assert tracer.names == [] and not tracer.counts


# -- solve intervals from plant-step timestamps -------------------------------


def synthetic_steps(bootstrap, stride, solves, solve_times, step_time=0.5):
    """Times of a loop that steps ``bootstrap`` times, then alternates a
    solve of the given duration with ``stride`` steps."""
    t = 0.0
    calls, returns = [], []

    def step():
        nonlocal t
        calls.append(t)
        t += step_time
        returns.append(t)

    for _ in range(bootstrap):
        step()
    for k in range(solves):
        t += solve_times[k]
        for _ in range(stride):
            step()
    return calls, returns


def latencies(intervals):
    return [end - start for start, end in intervals]


@pytest.mark.parametrize("stride", [1, 2])
def test_solve_intervals_recover_solve_times(stride):
    solve_times = [3.0, 7.0, 11.0, 2.0]
    calls, returns = synthetic_steps(2, stride, 4, solve_times)
    assert len(calls) == 2 + 4 * stride
    assert latencies(solve_intervals(calls, returns, bootstrap=2, stride=stride)) == solve_times


def test_solve_intervals_ignore_step_time_and_bootstrap():
    # the first solve follows the bootstrap directly; steps are not counted
    calls, returns = synthetic_steps(3, 2, 2, [1.0, 4.0], step_time=9.0)
    intervals = solve_intervals(calls, returns, bootstrap=3, stride=2)
    assert intervals == [(27.0, 28.0), (46.0, 50.0)]


def test_solve_intervals_reject_ragged_series():
    calls, returns = synthetic_steps(2, 2, 3, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        solve_intervals(calls[:-1], returns[:-1], bootstrap=2, stride=2)
    with pytest.raises(ValueError):
        solve_intervals(calls, returns[:-1], bootstrap=2, stride=2)
    with pytest.raises(ValueError):
        solve_intervals(calls, returns, bootstrap=0, stride=2)


def test_step_clock_records_and_clears():
    clock = StepClock(lambda x, u: x + u, clock=FakeClock([1.0, 2.0, 3.0, 5.0]))
    assert clock(1, 2) == 3 and clock(3, 4) == 7
    assert clock.last == 7
    assert clock.take() == ([1.0, 3.0], [2.0, 5.0])
    assert clock.take() == ([], [])


def test_step_clock_runs_inside_hook_within_the_step_interval():
    readings = iter([1.0, 2.0, 3.0, 4.0])
    seen = []
    clock = StepClock(lambda x, u: seen.append("step") or x,
                      clock=lambda: next(readings), inside=lambda: seen.append("inside"))
    clock(0, 0)
    clock(0, 0)
    assert seen == ["inside", "step", "inside", "step"]
    assert clock.take() == ([1.0, 3.0], [2.0, 4.0])


# -- host speed ----------------------------------------------------------------


class ManualClock:
    """A clock that a fake kernel advances."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def host_with_samples(durations, gap=10.0, every=1):
    """A ``HostSpeed`` sampled once per ``gap`` seconds with the given kernel
    times (reference time 1.0), starting at t = 0."""
    clock = ManualClock()
    runs = iter(durations)

    def kernel():
        clock.t += next(runs)

    speed = HostSpeed(kernel, ref_s=1.0, every=every, clock=clock)
    speed.SMOOTH = 2
    for _ in durations:
        speed.sample()
        clock.t += gap
    return speed


def test_normalise_divides_by_the_local_slowdown():
    speed = host_with_samples([2.0, 2.0, 2.0, 2.0, 2.0])
    assert speed.slowdowns() == [2.0] * 5
    # between samples 1 and 2: sample 1 ends at 14, sample 2 starts at 24
    assert speed.normalise(15.0, 17.0) == pytest.approx(1.0)
    # before the first and after the last sample the nearest one holds
    assert speed.normalise(-5.0, -1.0) == pytest.approx(2.0)
    assert speed.normalise(100.0, 104.0) == pytest.approx(2.0)


def test_normalise_leaves_out_kernel_time_and_switches_at_gap_middles():
    # with SMOOTH = 2, samples three apart in the list do not mix
    speed = host_with_samples([1.0] * 3 + [3.0] * 3, gap=9.0)
    # sample starts 0, 10, 20, 30, 42, 54; ends 1, 11, 21, 33, 45, 57
    assert speed.slowdowns() == [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    # [22, 36] holds the gap end of sample 2 (slowdown 1) up to 25.5, then
    # sample 3's piece (slowdown 3), inside which the kernel ran [30, 33]
    expected = (25.5 - 22.0) / 1.0 + (36.0 - 25.5 - 3.0) / 3.0
    assert speed.normalise(22.0, 36.0) == pytest.approx(expected)


def test_slowdown_is_a_running_median():
    speed = host_with_samples([1.0, 1.0, 9.0, 1.0, 1.0])
    assert speed.slowdowns() == [1.0, 1.0, 1.0, 1.0, 1.0]


def test_tick_samples_every_nth_call_and_normalise_needs_a_sample():
    speed = host_with_samples([], every=3)
    with pytest.raises(ValueError):
        speed.normalise(0.0, 1.0)
    runs = []
    speed.kernel = lambda: runs.append(1)
    for _ in range(7):
        speed.tick()
    assert len(runs) == 2 and len(speed.starts) == 2
