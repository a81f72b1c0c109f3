"""Allocator and trace-recorder tests."""

import pytest

from repro.sim.memory import DeviceMemoryAllocator, DeviceOOMError
from repro.sim.trace import TraceRecorder


class TestAllocator:
    def test_alloc_free_roundtrip(self):
        mem = DeviceMemoryAllocator(100)
        mem.alloc("a", 40)
        mem.alloc("b", 60)
        assert mem.free_bytes == 0
        assert mem.free("a") == 40
        assert mem.free_bytes == 40
        mem.alloc("c", 30)
        assert mem.allocated == 90

    def test_oom_raises_with_details(self):
        mem = DeviceMemoryAllocator(100)
        mem.alloc("a", 80)
        with pytest.raises(DeviceOOMError) as exc:
            mem.alloc("b", 30)
        assert exc.value.requested == 30
        assert exc.value.free == 20
        assert exc.value.capacity == 100
        # Failed alloc must not leak accounting.
        assert mem.allocated == 80

    def test_duplicate_name_rejected(self):
        mem = DeviceMemoryAllocator(100)
        mem.alloc("a", 10)
        with pytest.raises(ValueError):
            mem.alloc("a", 10)

    def test_free_unknown_name(self):
        mem = DeviceMemoryAllocator(100)
        with pytest.raises(KeyError):
            mem.free("ghost")

    def test_high_water_mark(self):
        mem = DeviceMemoryAllocator(100)
        mem.alloc("a", 70)
        mem.free("a")
        mem.alloc("b", 30)
        assert mem.high_water == 70

    def test_exact_fit_allowed(self):
        mem = DeviceMemoryAllocator(100)
        mem.alloc("a", 100)
        assert mem.free_bytes == 0

    def test_zero_byte_alloc(self):
        mem = DeviceMemoryAllocator(10)
        mem.alloc("empty", 0)
        assert mem.contains("empty")
        assert mem.size_of("empty") == 0

    def test_negative_rejected(self):
        mem = DeviceMemoryAllocator(10)
        with pytest.raises(ValueError):
            mem.alloc("a", -1)
        with pytest.raises(ValueError):
            DeviceMemoryAllocator(0)

    def test_reset(self):
        mem = DeviceMemoryAllocator(10)
        mem.alloc("a", 5)
        mem.reset()
        assert mem.allocated == 0
        assert not mem.contains("a")


class TestTrace:
    def test_totals_by_category(self):
        tr = TraceRecorder()
        tr.record(0.0, 1.0, "h2d", "s0", 100)
        tr.record(1.0, 3.0, "d2h", "s0", 200)
        tr.record(0.5, 2.0, "kernel", "s1", 10)
        assert tr.total_duration("h2d") == pytest.approx(1.0)
        assert tr.memcpy_time() == pytest.approx(3.0)
        assert tr.kernel_time() == pytest.approx(1.5)
        assert tr.memcpy_bytes() == 300
        assert tr.makespan() == 3.0
        assert len(tr) == 3

    def test_busy_span_merges_overlaps(self):
        tr = TraceRecorder()
        tr.record(0.0, 2.0, "h2d", "a", 1)
        tr.record(1.0, 3.0, "h2d", "b", 1)
        tr.record(5.0, 6.0, "d2h", "a", 1)
        assert tr.busy_span("h2d", "d2h") == pytest.approx(4.0)
        assert tr.total_duration("h2d", "d2h") == pytest.approx(5.0)

    def test_breakdown_is_the_three_aggregates(self):
        tr = TraceRecorder()
        tr.record(0.0, 0.1, "h2d", "a", 1)
        tr.record(0.05, 0.3, "kernel", "a", 1, service_start=0.07)
        tr.record(0.2, 0.7, "d2h", "b", 1)
        tr.record(0.1, 0.2, "h2d", "b", 1)
        tr.record(0.0, 0.3, "storage", "c", 1)
        assert tr.breakdown() == (tr.memcpy_time(), tr.kernel_time(), tr.busy_span("h2d", "d2h"))
        assert TraceRecorder().breakdown() == (0, 0, 0)

    def test_busy_span_empty(self):
        assert TraceRecorder().busy_span() == 0.0

    def test_disabled_recorder_records_nothing(self):
        tr = TraceRecorder(enabled=False)
        tr.record(0.0, 1.0, "h2d", "s", 1)
        assert len(tr) == 0

    def test_invalid_category_and_interval(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError):
            tr.record(0.0, 1.0, "dma", "s", 1)
        with pytest.raises(ValueError):
            tr.record(2.0, 1.0, "h2d", "s", 1)

    def test_clear(self):
        tr = TraceRecorder()
        tr.record(0.0, 1.0, "h2d", "s", 1)
        tr.clear()
        assert len(tr) == 0
