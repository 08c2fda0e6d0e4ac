"""Unit tests for the discrete-event simulator core."""

import gc

import pytest

from repro.cluster import Simulator


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_same_time_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(2.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 3.0)]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, lambda: sim.schedule_at(2.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [4.0]  # past targets clamp to now

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until_ms=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_times_rejected(self):
        # nan < 0 is False: an unchecked NaN key breaks heap order (events
        # fire out of time order) and leaves sim.now = nan.
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0 and sim.clamped_schedules == 0

    def test_arguments_ride_on_the_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule_at(1.0, lambda a, b: fired.append((a, b)), "x", 2)
        sim.schedule(3.0, lambda: fired.append("closure"))  # the old spelling
        sim.run()
        assert fired == [("x", 2), "late", "closure"]

    def test_same_instant_fifo_is_by_sequence_not_by_payload(self):
        # Ties must never fall through to comparing callbacks or arguments
        # (unorderable, and it would make order depend on payload).
        sim = Simulator()
        fired = []
        for tag in ("c", "a", "b"):
            sim.schedule(1.0, fired.append, {"tag": tag})
        sim.schedule_at(1.0, fired.append, {"tag": "at"})
        sim.run()
        assert [f["tag"] for f in fired] == ["c", "a", "b", "at"]

    def test_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_loop_freezes_what_was_alive_and_thaws_it(self):
        sim = Simulator()
        frozen = []
        sim.schedule(1.0, lambda: frozen.append(gc.get_freeze_count() > 0))
        sim.run()
        assert frozen == [True] and gc.get_freeze_count() == 0
        sim.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert gc.get_freeze_count() == 0
        # A caller's own freeze is left exactly as it was.
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            sim.schedule(1.0, lambda: None)
            sim.run()
            assert gc.get_freeze_count() == before
        finally:
            gc.unfreeze()
