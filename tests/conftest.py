"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.methods import method_names


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator per test."""
    return np.random.default_rng(0xDDC)


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
