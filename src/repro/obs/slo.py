"""SLO watchdog: latency and error-budget rules over harvested metrics.

The serving roadmap wants a ``/healthz`` endpoint; this module computes
the status it will read.  Rules evaluate *the registry*, not live
traffic, so one watchdog covers the parent engine and — after a
:class:`~repro.obs.remote.MetricsHarvester` pass — the pool workers too:

* :class:`LatencySlo` — a quantile of a histogram family must stay
  under a threshold.  With several children (per-op, per-worker) the
  *worst* child decides, so one overloaded worker degrades the status
  even when the aggregate looks fine.
* :class:`ErrorBudgetSlo` — the ratio of an error tally to a request
  tally must stay within budget.

:class:`SloWatchdog.check` optionally harvests first (pass the
engine's ``harvest_worker_metrics``), evaluates every rule, and flips
:attr:`SloWatchdog.healthy`; :meth:`SloWatchdog.healthz` renders the
dict a health endpoint would serialise.  Rules with no data yet pass
vacuously — an idle engine is healthy, not unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..exceptions import ConfigurationError

__all__ = [
    "SloStatus",
    "LatencySlo",
    "ErrorBudgetSlo",
    "SloWatchdog",
    "default_slo_rules",
    "engine_watchdog",
    "evaluate_health",
]


@dataclass(frozen=True)
class SloStatus:
    """Outcome of one rule evaluation."""

    name: str
    ok: bool
    value: float
    threshold: float
    detail: str

    def render(self) -> str:
        """One status line: ``[ OK ] name value<=threshold detail``."""
        flag = " OK " if self.ok else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


def _matching_children(family, labels: dict | None):
    """``(labels, child)`` pairs of a family, filtered by a label subset."""
    for child_labels, child in family.samples():
        if labels and any(
            child_labels.get(key) != str(value) for key, value in labels.items()
        ):
            continue
        yield child_labels, child


def _family_total(family, labels: dict | None) -> float:
    """Sum a family's children: counter/gauge values, histogram counts."""
    total = 0.0
    for _, child in _matching_children(family, labels):
        if family.kind == "histogram":
            total += float(child.count)
        else:
            total += float(child.value)
    return total


@dataclass(frozen=True)
class LatencySlo:
    """``quantile(metric) <= threshold_seconds`` for every matching child."""

    name: str
    metric: str
    quantile: float
    threshold_seconds: float
    labels: dict | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ConfigurationError(
                f"SLO {self.name!r} quantile must be in (0, 1], "
                f"got {self.quantile}"
            )
        if self.threshold_seconds <= 0:
            raise ConfigurationError(
                f"SLO {self.name!r} threshold must be positive, "
                f"got {self.threshold_seconds}"
            )

    def evaluate(self, registry) -> SloStatus:
        family = registry.get(self.metric)
        percent = f"p{self.quantile * 100:g}"
        if family is None or family.kind != "histogram":
            return SloStatus(
                self.name, True, 0.0, self.threshold_seconds,
                f"{self.metric} {percent}: no data yet",
            )
        worst = 0.0
        worst_labels: dict = {}
        for child_labels, child in _matching_children(family, self.labels):
            if child.count == 0:
                continue
            estimate = child.quantile(self.quantile)
            if estimate > worst:
                worst = estimate
                worst_labels = child_labels
            else:
                worst_labels = worst_labels or child_labels
        ok = worst <= self.threshold_seconds
        where = (
            "{" + ", ".join(f"{k}={v}" for k, v in worst_labels.items()) + "}"
            if worst_labels
            else ""
        )
        detail = (
            f"{self.metric}{where} {percent}={worst * 1e3:.3f}ms "
            f"(budget {self.threshold_seconds * 1e3:.3f}ms)"
        )
        return SloStatus(self.name, ok, worst, self.threshold_seconds, detail)


@dataclass(frozen=True)
class ErrorBudgetSlo:
    """``errors / total <= budget`` across matching children."""

    name: str
    errors_metric: str
    total_metric: str
    budget: float
    errors_labels: dict | None = field(default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget < 1.0:
            raise ConfigurationError(
                f"SLO {self.name!r} budget must be in [0, 1), got {self.budget}"
            )

    def evaluate(self, registry) -> SloStatus:
        errors_family = registry.get(self.errors_metric)
        total_family = registry.get(self.total_metric)
        errors = (
            _family_total(errors_family, self.errors_labels)
            if errors_family is not None
            else 0.0
        )
        total = _family_total(total_family, None) if total_family is not None else 0.0
        ratio = errors / total if total > 0 else 0.0
        ok = ratio <= self.budget
        detail = (
            f"{self.errors_metric}/{self.total_metric} = "
            f"{errors:g}/{total:g} = {ratio:.4%} (budget {self.budget:.2%})"
        )
        return SloStatus(self.name, ok, ratio, self.budget, detail)


def default_slo_rules(p99_seconds: float = 0.05) -> list:
    """The engine's stock rule: request p99."""
    return [
        LatencySlo(
            "request_latency_p99",
            "repro_engine_request_seconds",
            0.99,
            p99_seconds,
        ),
    ]


class SloWatchdog:
    """Evaluates SLO rules against a registry and holds the verdict.

    Args:
        obs: the :class:`~repro.obs.Observability` facade whose registry
            the rules read.
        rules: rule objects with ``evaluate(registry) -> SloStatus``;
            defaults to :func:`default_slo_rules`.
        harvest: optional zero-argument callable run before each check —
            wire the engine's ``harvest_worker_metrics`` here so worker
            metrics are fresh when the rules read them.
    """

    def __init__(
        self,
        obs,
        rules: Sequence | None = None,
        harvest: Callable[[], object] | None = None,
    ) -> None:
        self.obs = obs
        self.rules = list(rules) if rules is not None else default_slo_rules()
        self._harvest = harvest
        self.statuses: list[SloStatus] = []
        self.checks = 0

    def check(self) -> list[SloStatus]:
        """Harvest (if wired), evaluate every rule, update the verdict."""
        if self._harvest is not None:
            self._harvest()
        registry = self.obs.metrics
        self.statuses = [rule.evaluate(registry) for rule in self.rules]
        self.checks += 1
        return self.statuses

    @property
    def healthy(self) -> bool:
        """True while every rule from the latest check passed."""
        return all(status.ok for status in self.statuses)

    def healthz(self) -> dict:
        """The health document a ``/healthz`` endpoint would serialise."""
        return {
            "status": "ok" if self.healthy else "degraded",
            "checks_run": self.checks,
            "rules": [
                {
                    "name": status.name,
                    "ok": status.ok,
                    "value": status.value,
                    "threshold": status.threshold,
                    "detail": status.detail,
                }
                for status in self.statuses
            ],
        }

    def render(self) -> str:
        """Multi-line status report (one line per rule + verdict)."""
        lines = [status.render() for status in self.statuses]
        verdict = "HEALTHY" if self.healthy else "DEGRADED"
        lines.append(f"slo: {verdict} ({self.checks} checks)")
        return "\n".join(lines)


def engine_watchdog(obs, engine, rules: Sequence | None = None) -> SloWatchdog:
    """The one construction path for an engine-backed watchdog.

    Wires the harvest hook to the engine's ``harvest_worker_metrics``
    (a no-op outside process mode) so worker metrics are fresh for
    every rule evaluation.  Both ``repro top`` and the serving
    front-end's ``/healthz`` build their watchdog here.
    """
    return SloWatchdog(obs, rules=rules, harvest=engine.harvest_worker_metrics)


def evaluate_health(watchdog: SloWatchdog) -> dict:
    """Run one health evaluation and return the full health document.

    This is the *single* verdict path shared by ``repro top --once``
    (exit code) and the serve ``/healthz`` endpoint (status code +
    body), so the two surfaces cannot drift: one ``watchdog.check()``
    over the shared rules.

    Returns the document a health endpoint serialises; ``healthy`` is
    the boolean verdict, ``status`` is ``"ok"`` or ``"degraded"``.
    """
    watchdog.check()
    document = watchdog.healthz()
    document["healthy"] = document["status"] == "ok"
    return document
