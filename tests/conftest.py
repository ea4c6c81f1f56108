"""Shared fixtures for the test suite."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine.executor import ThreadFanout
from repro.methods import method_names


class PoolFanout(ThreadFanout):
    """``ThreadFanout`` over a bare thread pool: drives the fan-out's
    ordering, deadlines and cross-thread span parents without spawning
    the worker processes its one production subclass needs."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator per test."""
    return np.random.default_rng(0xDDC)


@pytest.fixture
def lock_sanitizer():
    """A strict LockSanitizer on a manual clock, for engine tests.

    Use with :func:`repro.analysis.raceguard.attach_engine` to make a
    test fail the moment the engine inverts a lock order or mutates
    shared state unguarded — the runtime twin of REP009/REP010.
    """
    from repro.analysis.raceguard import LockSanitizer
    from repro.obs.clock import ManualClock

    return LockSanitizer(ManualClock(), strict=True)


@pytest.fixture(
    params=[
        "naive",
        "ps",
        "rps",
        "fenwick",
        "segtree",
        "basic-ddc",
        "ddc",
        "vector",
    ]
)
def method_name(request) -> str:
    """Every registered range-sum method name."""
    return request.param


def pytest_configure(config) -> None:
    # Guard: the parametrised fixture above must stay in sync with the
    # registry; failing loudly here beats silently skipping a method.
    expected = {
        "naive",
        "ps",
        "rps",
        "fenwick",
        "segtree",
        "basic-ddc",
        "ddc",
        "vector",
    }
    assert expected == set(method_names()), (
        "method registry changed; update the method_name fixture"
    )
