"""Stream ordering, overlap, spray benefit, and device model tests."""

import threading

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.device import GPUDevice
from repro.sim.specs import DeviceSpec
from repro.sim.stream import StreamEvent


def make_device(**overrides):
    sim = Simulator()
    spec = DeviceSpec(**overrides)
    return sim, GPUDevice(sim, spec)


def test_ops_on_one_stream_serialize():
    sim, dev = make_device()
    s = dev.create_stream("s0")
    s.memcpy_h2d(6_000_000)  # 1 ms of DMA + 10 us setup
    s.kernel(2_000_000)      # 1 ms of work + 6 us launch
    dev.synchronize()
    copies = [i for i in dev.trace.intervals if i.category == "h2d"]
    kernels = [i for i in dev.trace.intervals if i.category == "kernel"]
    assert len(copies) == 1 and len(kernels) == 1
    assert kernels[0].start >= copies[0].end  # in-order within the stream


def test_copy_and_kernel_on_different_streams_overlap():
    sim, dev = make_device()
    nbytes = int(dev.spec.pcie_bandwidth / 100)  # 10 ms of DMA
    items = int(dev.spec.edge_rate_seq / 100)    # 10 ms of kernel
    dev.create_stream("a").memcpy_h2d(nbytes)
    dev.create_stream("b").kernel(items)
    dev.synchronize()
    # Full overlap: makespan ~ max of the two, not the sum.
    assert dev.trace.makespan() < 0.015


def test_h2d_and_d2h_are_full_duplex():
    sim, dev = make_device()
    nbytes = int(dev.spec.pcie_bandwidth / 100)
    dev.create_stream("a").memcpy_h2d(nbytes)
    dev.create_stream("b").memcpy_d2h(nbytes)
    dev.synchronize()
    assert dev.trace.makespan() == pytest.approx(0.01, rel=0.05)


def test_same_direction_copies_serialize_on_copy_engine():
    sim, dev = make_device()
    nbytes = int(dev.spec.pcie_bandwidth / 100)
    dev.create_stream("a").memcpy_h2d(nbytes)
    dev.create_stream("b").memcpy_h2d(nbytes)
    dev.synchronize()
    assert dev.trace.makespan() >= 0.02  # both 10ms DMAs share one engine


def test_spray_overlaps_setup_latency():
    """K sub-copies on K streams beat K sub-copies on one stream by
    roughly (K-1) * memcpy_setup -- the spray-stream effect."""
    n_sub, sub_bytes = 8, 600_000  # 100 us DMA each

    sim1, dev1 = make_device()
    s = dev1.create_stream()
    for _ in range(n_sub):
        s.memcpy_h2d(sub_bytes)
    dev1.synchronize()
    serial = dev1.trace.makespan()

    sim2, dev2 = make_device()
    for i in range(n_sub):
        dev2.create_stream().memcpy_h2d(sub_bytes)
    dev2.synchronize()
    sprayed = dev2.trace.makespan()

    spec = dev1.spec
    assert sprayed < serial
    saved = serial - sprayed
    assert saved == pytest.approx((n_sub - 1) * spec.memcpy_setup, rel=0.2)


def test_small_kernels_share_sm_pool():
    """Two sub-saturating kernels overlap (compute-compute scheme)."""
    sim, dev = make_device()
    items = 1000  # far below one full wave
    dev.create_stream("a").kernel(items)
    dev.create_stream("b").kernel(items)
    dev.synchronize()
    solo = dev.kernel_time(items)
    # Both finish in about one solo duration, not two.
    assert dev.trace.makespan() < 1.5 * solo


def test_two_saturating_kernels_serialize_in_effect():
    sim, dev = make_device()
    items = 20_000_000  # 10 ms each at full occupancy
    dev.create_stream("a").kernel(items)
    dev.create_stream("b").kernel(items)
    dev.synchronize()
    assert dev.trace.makespan() >= 0.02


def test_kernel_min_time_floor():
    sim, dev = make_device()
    dev.create_stream().kernel(1)
    dev.synchronize()
    spec = dev.spec
    assert dev.trace.makespan() == pytest.approx(
        spec.kernel_launch_overhead + spec.kernel_min_time, rel=0.01
    )


def test_event_orders_across_streams():
    sim, dev = make_device()
    ev = StreamEvent("gate")
    order = []
    a = dev.create_stream("a")
    b = dev.create_stream("b")
    b.wait_event(ev)
    b.callback(lambda: order.append("b"))
    a.kernel(2_000_000)
    a.callback(lambda: order.append("a"))
    a.record_event(ev)
    dev.synchronize()
    assert order == ["a", "b"]


def test_callback_runs_in_stream_order():
    sim, dev = make_device()
    ticks = []
    s = dev.create_stream()
    s.kernel(2_000_000)
    s.callback(lambda: ticks.append(sim.now))
    dev.synchronize()
    assert len(ticks) == 1
    assert ticks[0] > 0.0009


def test_synchronize_handles_callback_enqueued_work():
    sim, dev = make_device()
    s = dev.create_stream()
    s.callback(lambda: s.kernel(2_000_000))
    dev.synchronize()
    assert dev.trace.kernel_time() > 0


def test_hyperq_caps_concurrent_kernels():
    sim, dev = make_device(hyperq=2)
    for i in range(4):
        dev.create_stream().kernel(20_000_000)  # 10ms saturating each
    dev.synchronize()
    # With only 2 queues and saturating kernels: ~40ms regardless; but
    # the SM pool should never hold more than 2 active jobs.
    assert dev.sm_pool.max_concurrent == 2
    assert dev.trace.makespan() >= 0.04


def test_invalid_ops():
    sim, dev = make_device()
    s = dev.create_stream()
    with pytest.raises(ValueError):
        s.memcpy_h2d(-1)
    with pytest.raises(ValueError):
        s.kernel(-1)
    with pytest.raises(ValueError):
        s.kernel(1, kind="nope")
        dev.synchronize()


def test_analytic_helpers():
    sim, dev = make_device()
    spec = dev.spec
    assert dev.transfer_time(spec.pcie_bandwidth) == pytest.approx(
        1.0 + spec.memcpy_setup
    )
    assert dev.kernel_time(spec.edge_rate_seq) == pytest.approx(
        1.0 + spec.kernel_launch_overhead
    )


def test_synchronize_raises_on_an_event_never_recorded():
    """A stream waiting on an event nobody records can never drain:
    synchronize() names it instead of spinning forever."""
    sim, dev = make_device()
    s = dev.create_stream("s0")
    s.wait_event(StreamEvent("never"))
    s.memcpy_h2d(100)
    outcome = {}

    def target():
        try:
            dev.synchronize()
        except SimulationError as exc:
            outcome["error"] = str(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "synchronize() did not return"
    assert "s0" in outcome["error"] and "wait:never" in outcome["error"]
