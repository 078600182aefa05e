"""Unit tests of the discrete-event simulation engine."""
from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationError
from repro.obs import MetricsRegistry, observe
from repro.sim import RandomSource, Simulator, derive_seed, spawn_streams
from repro.sim.engine import callback_label
from repro.sim.randomness import MAX_DERIVED_SEED


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in "abc":
            sim.schedule(5, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(5, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []
        assert not handle.pending()

    def test_run_until(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, seen.append, "early")
        sim.schedule(50, seen.append, "late")
        sim.run(until=10)
        assert seen == ["early"]
        assert sim.now == 10.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_until_in_the_past_never_rewinds_the_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(20, seen.append, "pending")
        assert sim.run(until=15) == 15.0
        assert sim.run(until=5) == 15.0
        assert sim.now == 15.0 and seen == []
        with pytest.raises(SimulationError):
            sim.schedule_at(7, seen.append, "in the past")
        sim.run()
        assert seen == ["pending"] and sim.now == 20.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(5, second)

        def second():
            seen.append(sim.now)

        sim.schedule(1, first)
        sim.run()
        assert seen == [1.0, 6.0]

    def test_empty(self):
        sim = Simulator()
        assert sim.empty()
        sim.schedule(3, lambda: None)
        assert not sim.empty()
        sim.run()
        assert sim.empty()

    def test_nan_times_are_rejected_not_fired_now(self):
        sim = Simulator()
        for schedule in (sim.schedule, sim.schedule_at):
            with pytest.raises(SimulationError, match="NaN"):
                schedule(math.nan, lambda: None)
        assert sim.empty()

    def test_infinite_loop_guard(self):
        sim = Simulator()

        def rescheduler():
            sim.schedule(0.0, rescheduler)

        sim.schedule(0.0, rescheduler)
        with pytest.raises(SimulationError):
            sim.run(max_events=1000)

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.processed_events == 5


class _Untouchable:
    """Stand-in for the event queue that fails on any access."""

    def __getattribute__(self, name):
        raise AssertionError("empty() must not inspect the event queue")


class TestPendingCounter:
    def test_empty_after_mass_cancellation(self):
        sim = Simulator()
        handles = [sim.schedule(5, lambda: None) for _ in range(5_000)]
        for handle in handles:
            handle.cancel()
        assert sim.empty()

    def test_empty_is_constant_time(self):
        # empty() must be answerable from the pending counter alone: replace
        # the queue structures with objects that explode on any access.
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        sim._buckets = _Untouchable()
        sim._times = _Untouchable()
        assert not sim.empty()
        handle.cancelled = True
        sim._pending -= 1
        assert sim.empty()

    def test_counter_tracks_schedule_cancel_and_fire(self):
        sim = Simulator()
        keep = sim.schedule(1, lambda: None)
        drop = sim.schedule(2, lambda: None)
        assert not sim.empty()
        drop.cancel()
        drop.cancel()  # double-cancel must not decrement twice
        assert not sim.empty()
        sim.run()
        assert sim.empty()
        assert keep.fired and not drop.fired


class TestBatchedDispatch:
    """Same-timestamp batches must be indistinguishable from stepping."""

    def test_mid_batch_scheduling_at_same_timestamp(self):
        sim = Simulator()
        order = []

        def b():
            order.append("b")
            # Same timestamp as the batch being fired: must run after it,
            # in schedule order, not be lost and not jump the queue.
            sim.schedule(0.0, order.append, "d")
            sim.schedule(0.0, order.append, "e")

        sim.schedule(5, order.append, "a")
        sim.schedule(5, b)
        sim.schedule(5, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c", "d", "e"]
        assert sim.now == 5.0

    def test_mid_batch_cancellation_is_honoured(self):
        sim = Simulator()
        order = []
        victim = None

        def killer():
            order.append("killer")
            victim.cancel()

        sim.schedule(5, killer)
        victim = sim.schedule(5, order.append, "victim")
        sim.schedule(5, order.append, "survivor")
        sim.run()
        assert order == ["killer", "survivor"]
        assert sim.empty()

    def test_step_and_run_agree_on_tie_order(self):
        def drive(runner):
            sim = Simulator()
            order = []
            for label in "abc":
                sim.schedule(7, order.append, label)
            sim.schedule(3, order.append, "first")
            runner(sim)
            return order

        stepped = drive(lambda sim: [sim.step() for _ in range(4)])
        ran = drive(lambda sim: sim.run())
        assert stepped == ran == ["first", "a", "b", "c"]

    def test_observed_and_unobserved_runs_fire_the_same_sequence(self):
        def drive(observed: bool):
            sim = Simulator()
            fired = []
            handles = {}

            def add(label, delay, action=None):
                def fire():
                    fired.append((sim.now, handles[label].seq, label))
                    if action is not None:
                        action()

                handles[label] = sim.schedule(delay, fire)

            def spawn_same_timestamp():
                add("d", 0.0)
                add("e", 0.0, lambda: add("f", 2.0))

            add("a", 5.0)
            add("b", 5.0, spawn_same_timestamp)
            add("killer", 5.0, lambda: handles["victim"].cancel())
            add("victim", 5.0)
            add("c", 5.0)
            add("late", 9.0)
            registry = MetricsRegistry()
            if observed:
                with observe(metrics=registry):
                    sim.run(until=8)
                    sim.run()
            else:
                sim.run(until=8)
                sim.run()
            return fired, registry.snapshot().get("engine.events_dispatched", 0)

        plain, plain_count = drive(observed=False)
        observed, observed_count = drive(observed=True)
        assert plain == observed
        assert [label for _t, _seq, label in plain] == [
            "a", "b", "killer", "c", "d", "e", "f", "late",
        ]
        assert plain == sorted(plain)  # (time, seq) order
        # The observed run really went through the instrumented dispatch.
        assert (plain_count, observed_count) == (0, len(observed))


class TestCallbackLabels:
    def test_plain_function_label(self):
        def my_callback():
            pass

        assert callback_label(my_callback).endswith("my_callback")

    def test_bound_method_label_cached_across_instances(self):
        class Thing:
            def cb(self):
                pass

        a, b = Thing(), Thing()
        label_a = callback_label(a.cb)
        label_b = callback_label(b.cb)
        assert label_a.endswith("Thing.cb")
        # Memoized on the code object: the exact same string comes back for
        # every instance and every repeated call.
        assert label_a is label_b
        assert callback_label(a.cb) is label_a


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(42), RandomSource(42)
        assert [a.uniform_int(0, 100) for _ in range(5)] == [
            b.uniform_int(0, 100) for _ in range(5)
        ]

    def test_uniform_int_bounds(self):
        rng = RandomSource(1)
        values = [rng.uniform_int(3, 7) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 7

    def test_gaussian_array_shape(self):
        assert RandomSource(0).gaussian_array(0, 1, 10).shape == (10,)

    def test_choice(self):
        assert RandomSource(0).choice(["only"]) == "only"

    def test_spawn_streams_are_independent_but_reproducible(self):
        s1 = [s.uniform() for s in spawn_streams(7, 3)]
        s2 = [s.uniform() for s in spawn_streams(7, 3)]
        assert s1 == s2
        assert len(set(s1)) == 3


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "fig9", 3) == derive_seed(0, "fig9", 3)

    def test_depends_on_every_component(self):
        base = derive_seed(0, "fig9", 3)
        assert derive_seed(1, "fig9", 3) != base
        assert derive_seed(0, "fig10", 3) != base
        assert derive_seed(0, "fig9", 4) != base

    def test_component_boundaries_matter(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_none_root_is_valid_and_stable(self):
        assert derive_seed(None, "x") == derive_seed(None, "x")
        assert derive_seed(None, "x") != derive_seed(0, "x")

    def test_range(self):
        for replicate in range(50):
            seed = derive_seed(0, "scenario", replicate)
            assert 0 <= seed < MAX_DERIVED_SEED

    def test_no_collisions_over_grid(self):
        seeds = {
            derive_seed(0, scenario, replicate)
            for scenario in ("a", "b", "c", "d")
            for replicate in range(250)
        }
        assert len(seeds) == 1000

    @given(
        root=st.none() | st.integers(min_value=-(2**70), max_value=2**70),
        components=st.lists(st.text() | st.integers() | st.floats(allow_nan=False), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_joined_hash_is_the_component_wise_hash(self, root, components):
        digest = hashlib.sha256(repr(root if root is None else int(root)).encode("utf-8"))
        for component in components:
            digest.update(b"\x1f")
            digest.update(repr(component).encode("utf-8"))
        expected = int.from_bytes(digest.digest()[:8], "big") % MAX_DERIVED_SEED
        assert derive_seed(root, *components) == expected

    def test_feeds_numpy_generator(self):
        a = RandomSource(derive_seed(0, "s", 0)).uniform()
        b = RandomSource(derive_seed(0, "s", 0)).uniform()
        assert a == b

    def test_derive_method_is_state_independent(self):
        source = RandomSource(42)
        source.uniform()  # advance the parent state
        child_after = source.derive("task", 1)
        child_fresh = RandomSource(42).derive("task", 1)
        assert child_after.uniform() == child_fresh.uniform()

    def test_derive_from_unseeded_source_stays_independent(self):
        # Entropy-seeded sources have no stable identity; their derived
        # children must not collapse onto the derive_seed(None, ...) constant.
        a = RandomSource().derive("workload")
        b = RandomSource().derive("workload")
        assert a.uniform() != b.uniform()
