"""Names kept for ``benchmarks/e2e/``, which must not change.

An engine's answer is exact or an error: a shard read's error
propagates unchanged to the caller (``docs/engine.md``, "Errors").  The
benchmark harness still builds its shadow engine with
``resilience=ResiliencePolicy(degradation="strict")`` (``served.py``)
and checks answers with :func:`is_partial` (``inproc.py``), so both
stay as inert shims until ROADMAP item 8(i) edits the harness and
deletes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["ResiliencePolicy", "is_partial"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Accepted by ``ShardedEngine(resilience=...)``, which ignores it.

    ``degradation`` must be ``"strict"``: a shard's error propagates.
    """

    degradation: str = "strict"

    def __post_init__(self) -> None:
        if self.degradation != "strict":
            raise ConfigurationError(
                f"degradation must be 'strict', got {self.degradation!r}"
            )


def is_partial(value) -> bool:
    """Always False: the engine never answers with part of a sum."""
    return False
