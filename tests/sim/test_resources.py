"""Unit and property tests for water-filling fluid resources."""

import math
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import FluidResource
from repro.sim.stream import Kernel
from repro.sim.trace import TraceRecorder


def run_jobs(capacity, jobs, max_concurrent=None):
    """Submit (work, max_rate) jobs at t=0 and return completion times."""
    sim = Simulator()
    res = FluidResource(sim, capacity, max_concurrent=max_concurrent)
    done = {}
    for i, (work, max_rate) in enumerate(jobs):
        res.submit(work, (lambda i=i: done.setdefault(i, sim.now)), max_rate=max_rate)
    sim.run()
    return done, sim


def test_single_job_duration():
    done, sim = run_jobs(10.0, [(100.0, None)])
    assert done[0] == pytest.approx(10.0)


def test_job_capped_by_max_rate():
    done, _ = run_jobs(10.0, [(100.0, 2.0)])
    assert done[0] == pytest.approx(50.0)


def test_two_equal_jobs_share_capacity():
    done, _ = run_jobs(10.0, [(100.0, None), (100.0, None)])
    assert done[0] == pytest.approx(20.0)
    assert done[1] == pytest.approx(20.0)


def test_water_filling_gives_leftover_to_hungry_job():
    # Job 0 demands at most rate 2; job 1 takes the remaining 8.
    done, _ = run_jobs(10.0, [(20.0, 2.0), (80.0, None)])
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_departure_speeds_up_survivor():
    # Both share rate 5 until t=2 (job0 done: work 10), then job1 runs at 10.
    done, _ = run_jobs(10.0, [(10.0, None), (30.0, None)])
    assert done[0] == pytest.approx(2.0)
    assert done[1] == pytest.approx(2.0 + 20.0 / 10.0)


def test_fifo_with_max_concurrent_one():
    done, _ = run_jobs(10.0, [(10.0, None), (20.0, None), (30.0, None)], max_concurrent=1)
    assert done[0] == pytest.approx(1.0)
    assert done[1] == pytest.approx(3.0)
    assert done[2] == pytest.approx(6.0)


def test_zero_work_completes_immediately():
    done, sim = run_jobs(10.0, [(0.0, None)])
    assert done[0] == 0.0


def test_late_arrival_shares_remaining():
    sim = Simulator()
    res = FluidResource(sim, 10.0)
    done = {}
    res.submit(100.0, lambda: done.setdefault("a", sim.now))
    # At t=5 job a has 50 left; arrival makes both run at 5.
    sim.at(5.0, lambda: res.submit(25.0, lambda: done.setdefault("b", sim.now)))
    sim.run()
    assert done["b"] == pytest.approx(10.0)
    # a: 50 left at t=5, shares rate 5 until t=10 (25 left), then rate 10.
    assert done["a"] == pytest.approx(12.5)


def test_busy_time_accounting():
    sim = Simulator()
    res = FluidResource(sim, 10.0)
    res.submit(50.0, lambda: None, max_rate=5.0)
    sim.run()
    # Ran 10s at half capacity -> 5s of busy (capacity-normalized) time.
    assert res.busy_time == pytest.approx(5.0)
    assert res.served_work == pytest.approx(50.0)


def test_invalid_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        FluidResource(sim, 0.0)
    with pytest.raises(ValueError):
        FluidResource(sim, 1.0, max_concurrent=0)
    res = FluidResource(sim, 1.0)
    with pytest.raises(ValueError):
        res.submit(-1.0, lambda: None)
    with pytest.raises(ValueError):
        res.submit(1.0, lambda: None, max_rate=0.0)


def test_callback_submitting_followon_work():
    sim = Simulator()
    res = FluidResource(sim, 1.0)
    done = []

    def second():
        done.append(("second", sim.now))

    def first():
        done.append(("first", sim.now))
        res.submit(2.0, second)

    res.submit(3.0, first)
    sim.run()
    assert done == [("first", 3.0), ("second", 5.0)]


@settings(max_examples=60, deadline=None)
@given(
    works=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=8),
    capacity=st.floats(min_value=0.5, max_value=50.0),
)
def test_total_time_bounded_by_serial_and_ideal(works, capacity):
    """Makespan is at least total_work/capacity and at most serial time."""
    done, sim = run_jobs(capacity, [(w, None) for w in works])
    total = sum(works)
    assert sim.now >= total / capacity - 1e-6
    assert sim.now <= total / capacity + 1e-6  # equal sharing is work-conserving
    assert len(done) == len(works)


@settings(max_examples=60, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=50.0),
            st.floats(min_value=0.1, max_value=20.0),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_work_conservation_with_rate_caps(jobs):
    """All submitted work is eventually served, exactly once."""
    capacity = 10.0
    done, sim = run_jobs(capacity, jobs)
    assert len(done) == len(jobs)
    res_total = sum(w for w, _ in jobs)
    # Each job takes at least work/min(cap, max_rate); makespan covers max.
    longest = max(w / min(capacity, r) for w, r in jobs)
    assert sim.now >= longest - 1e-6


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=10),
    conc=st.integers(min_value=1, max_value=4),
)
def test_fifo_queue_respects_concurrency(works, conc):
    sim = Simulator()
    res = FluidResource(sim, 5.0, max_concurrent=conc)
    peak = {"v": 0}
    orig_reallocate = res._reallocate

    def spy():
        orig_reallocate()
        peak["v"] = max(peak["v"], res.active_jobs)

    res._reallocate = spy
    for w in works:
        res.submit(w, lambda: None)
    sim.run()
    assert peak["v"] <= conc


class TestNonFiniteInputs:
    """NaN and infinite work, rates, delays and times are refused up front.

    A NaN compares false with everything, so each of these used to slip
    past a ``< 0`` check: ``submit(nan)`` then spun forever in
    ``_reallocate`` (hence the alarm), and an infinite kernel finished
    right after its launch overhead."""

    @staticmethod
    @contextmanager
    def deadline(seconds=5.0):
        def expire(*_):
            raise TimeoutError

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        timed_out = False
        try:
            yield
        except TimeoutError:
            timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if timed_out:
            pytest.fail(f"still running after {seconds} s", pytrace=False)

    @pytest.mark.parametrize("work, max_rate", [
        (math.nan, None), (100.0, math.nan), (math.inf, None), (-1.0, None),
    ])
    def test_submit_refuses_non_finite_work_and_rates(self, work, max_rate):
        sim = Simulator()
        res = FluidResource(sim, 10.0)
        with self.deadline(), pytest.raises(ValueError):
            res.submit(work, lambda: None, max_rate=max_rate)
            sim.run()

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 0.0])
    def test_capacity_must_be_positive_and_finite(self, capacity):
        with pytest.raises(ValueError):
            FluidResource(Simulator(), capacity)

    def test_nan_delay_and_time_are_refused(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_kernel_needs_finite_seconds(self, seconds):
        with pytest.raises(ValueError):
            Kernel(1_000, work_seconds=seconds)

    @pytest.mark.parametrize("start, end, service", [
        (math.nan, 1.0, None), (0.0, math.nan, None), (0.0, 1.0, math.nan),
    ])
    def test_trace_refuses_nan_times(self, start, end, service):
        with pytest.raises(ValueError):
            TraceRecorder().record(start, end, "kernel", "s0", 1, service_start=service)
