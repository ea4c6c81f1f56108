"""Shared helpers for the benchmark harness.

Every bench module regenerates one of the paper's evaluation artifacts
(see the experiment index in DESIGN.md).  Tables are emitted through
:func:`report`, which persists them under ``benchmarks/results/`` and
queues them for the end-of-session terminal summary, so a plain
``pytest benchmarks/ --benchmark-only`` run prints every experiment
table after the timing table regardless of output capturing.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_SESSION_REPORTS: list[str] = []


def report(experiment: str, text: str) -> None:
    """Persist a result table and queue it for the terminal summary."""
    banner = f"\n{'=' * 72}\n[{experiment}]\n{'=' * 72}\n"
    _SESSION_REPORTS.append(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    with open(path, "a") as handle:
        handle.write(banner + text + "\n")


@pytest.fixture(scope="session", autouse=True)
def _fresh_results() -> None:
    """Start every benchmark session with a clean results directory."""
    if RESULTS_DIR.exists():
        for stale in RESULTS_DIR.glob("*.txt"):
            stale.unlink()


def pytest_terminal_summary(terminalreporter) -> None:
    """Print every experiment table collected during the session."""
    if not _SESSION_REPORTS:
        return
    terminalreporter.section("paper reproduction tables")
    for table in _SESSION_REPORTS:
        terminalreporter.write_line(table)
