"""Tests for the runtime lock sanitizer (repro.analysis.raceguard)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis.raceguard import (
    GuardedList,
    LockSanitizer,
    SanitizedLock,
    attach_engine,
)
from repro.cli import main as cli_main
from repro.engine import ShardedEngine
from repro.exceptions import (
    LockOrderViolationError,
    RaceGuardError,
    ReproError,
    UnguardedMutationError,
)
from repro.obs.clock import ManualClock


class TestSanitizedLock:
    def test_wraps_as_context_manager(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.RLock(), "L")
        assert isinstance(lock, SanitizedLock)
        with lock:
            assert lock_sanitizer.holds("L")
            assert lock_sanitizer.held_by_current_thread() == ("L",)
        assert not lock_sanitizer.holds("L")

    def test_events_stamped_on_injected_clock(self):
        clock = ManualClock()
        sanitizer = LockSanitizer(clock)
        lock = sanitizer.wrap(threading.RLock(), "L")
        with lock:
            clock.advance(1.5)
        kinds = [(e.kind, e.timestamp) for e in sanitizer.events]
        assert kinds == [("acquire", 0.0), ("release", 1.5)]

    def test_reentrant_acquisition_allowed(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.RLock(), "L")
        with lock:
            with lock:
                assert lock_sanitizer.held_by_current_thread() == ("L",)
            assert lock_sanitizer.holds("L")
        assert not lock_sanitizer.holds("L")

    def test_consistent_nesting_is_clean(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.RLock(), "a")
        b = lock_sanitizer.wrap(threading.RLock(), "b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert lock_sanitizer.violations == []

    def test_abba_inversion_raises(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.RLock(), "a")
        b = lock_sanitizer.wrap(threading.RLock(), "b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolationError) as excinfo:
                a.acquire()
        assert "latent ABBA deadlock" in str(excinfo.value)
        assert excinfo.value.__class__.__mro__[1:3] == (
            RaceGuardError,
            ReproError,
        )

    def test_inversion_detected_across_threads(self, lock_sanitizer):
        a = lock_sanitizer.wrap(threading.RLock(), "a")
        b = lock_sanitizer.wrap(threading.RLock(), "b")

        def forward():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        with b:
            with pytest.raises(LockOrderViolationError):
                a.acquire()

    def test_record_mode_collects_instead_of_raising(self):
        sanitizer = LockSanitizer(ManualClock(), strict=False)
        a = sanitizer.wrap(threading.RLock(), "a")
        b = sanitizer.wrap(threading.RLock(), "b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert len(sanitizer.violations) == 1
        assert isinstance(sanitizer.violations[0], LockOrderViolationError)
        assert sanitizer.report()[0].startswith("LockOrderViolationError")


class TestGuardedProxies:
    def test_guarded_list_requires_lock(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.RLock(), "L")
        shared = lock_sanitizer.guard_list([0, 0], "epochs", ("L",))
        assert isinstance(shared, GuardedList)
        with lock:
            shared[0] += 1
        with pytest.raises(UnguardedMutationError):
            shared[1] = 5
        assert shared[0] == 1 and shared[1] == 0

    def test_guarded_list_reads_pass_through(self, lock_sanitizer):
        shared = lock_sanitizer.guard_list([1, 2, 3], "epochs", ("L",))
        assert list(shared) == [1, 2, 3]
        assert len(shared) == 3
        assert 2 in shared
        assert shared == [1, 2, 3]

    def test_guarded_object_methods_checked(self, lock_sanitizer):
        lock = lock_sanitizer.wrap(threading.RLock(), "L")
        store = lock_sanitizer.guard_object({}, "cache", ("L",))
        with lock:
            store["a"] = 1
        with pytest.raises(UnguardedMutationError):
            store["b"] = 2
        with pytest.raises(UnguardedMutationError):
            store.clear()
        assert store["a"] == 1

    def test_violation_names_the_missing_lock(self, lock_sanitizer):
        shared = lock_sanitizer.guard_list([0], "epochs", ("engine._lock",))
        with pytest.raises(UnguardedMutationError, match="engine._lock"):
            shared[0] = 1


class TestEngineAttachment:
    def test_engine_serves_clean_under_sanitizer(self, lock_sanitizer):
        data = np.arange(64)
        with ShardedEngine.from_array(data, shards=4) as engine:
            attach_engine(engine, lock_sanitizer)
            assert engine.prefix_sum(20) == data[:21].sum()
            engine.add(3, 7)
            assert engine.prefix_sum(20) == data[:21].sum() + 7
            engine.add_many([(5, 1), (40, 2)])  # logs cells under the lock
            assert engine.prefix_sum(20) == data[:21].sum() + 8
        assert lock_sanitizer.violations == []
        assert any(e.kind == "acquire" for e in lock_sanitizer.events)
        assert lock_sanitizer.held_by_current_thread() == ()

    def test_attached_engine_catches_unguarded_epoch_write(self, lock_sanitizer):
        data = np.arange(16)
        with ShardedEngine.from_array(data, shards=2) as engine:
            attach_engine(engine, lock_sanitizer)
            with pytest.raises(UnguardedMutationError):
                engine._epochs[0] += 1
            with pytest.raises(UnguardedMutationError):
                engine._cache.clear()
            with pytest.raises(UnguardedMutationError):
                engine._cache.log_cell(0, 1, (0,))
            with pytest.raises(UnguardedMutationError):
                engine._cache.log_cells(0, 1, [(0,)])


class TestChaosSanitize:
    def test_sanitized_smoke_soak_is_clean(self, tmp_path):
        # The acceptance smoke: a short chaos soak with the sanitizer
        # attached completes with exit 0 (no mismatches, no violations).
        assert (
            cli_main(
                [
                    "chaos",
                    "--events",
                    "80",
                    "--shape",
                    "32",
                    "32",
                    "--sanitize",
                    "--json",
                    str(tmp_path / "chaos.json"),
                ]
            )
            == 0
        )
