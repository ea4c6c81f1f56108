"""Calibration: fit measured cost series to the paper's model shapes.

The paper states each method's cost as a *shape* — ``n^d``, ``n^(d/2)``,
``(log2 n)^d`` — and the reproduction claim is that measured costs follow
those shapes up to implementation constants.  This module makes that
claim quantitative: given a measured ``(n, cost)`` series it

* fits a power law ``c * n^a`` (log-log least squares) and reports the
  empirical exponent ``a``,
* fits a polylog curve ``c * (log2 n)^b``,
* classifies which family fits better, with the residuals to prove it.

Used by the benchmark harness to print fitted exponents next to the
paper's theoretical ones, and available to users profiling their own
workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError, DimensionMismatchError

__all__ = [
    "PowerLawFit",
    "PolylogFit",
    "fit_power_law",
    "fit_polylog",
    "GrowthClassification",
    "classify_growth",
    "constant_factor",
]


@dataclass(frozen=True)
class PowerLawFit:
    """``cost ~ coefficient * n^exponent``."""

    coefficient: float
    exponent: float
    residual: float  # RMS error in log space

    def predict(self, n: float) -> float:
        return self.coefficient * n**self.exponent


@dataclass(frozen=True)
class PolylogFit:
    """``cost ~ coefficient * (log2 n)^exponent``."""

    coefficient: float
    exponent: float
    residual: float

    def predict(self, n: float) -> float:
        return self.coefficient * math.log2(n) ** self.exponent


def _validate_series(ns: Sequence[float], costs: Sequence[float]) -> tuple:
    ns = np.asarray(ns, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if ns.shape != costs.shape:
        raise DimensionMismatchError("ns and costs must have the same length")
    if len(ns) < 3:
        raise ConfigurationError("need at least 3 points to fit a growth curve")
    if np.any(ns <= 1) or np.any(costs <= 0):
        raise ConfigurationError("ns must be > 1 and costs > 0 for log-space fits")
    return ns, costs


def fit_power_law(ns: Sequence[float], costs: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``c * n^a`` in log-log space."""
    ns, costs = _validate_series(ns, costs)
    log_n = np.log(ns)
    log_cost = np.log(costs)
    exponent, intercept = np.polyfit(log_n, log_cost, 1)
    predicted = exponent * log_n + intercept
    residual = float(np.sqrt(np.mean((log_cost - predicted) ** 2)))
    return PowerLawFit(
        coefficient=float(np.exp(intercept)),
        exponent=float(exponent),
        residual=residual,
    )


def fit_polylog(ns: Sequence[float], costs: Sequence[float]) -> PolylogFit:
    """Least-squares fit of ``c * (log2 n)^b`` via scipy curve fitting.

    scipy is imported here, not at module load: nothing else in the
    package needs it, and importing it costs a served process about as
    much start-up time as the rest of ``repro`` and numpy together
    (``docs/serving.md``, "Cold start").
    """
    from scipy import optimize

    ns, costs = _validate_series(ns, costs)

    def curve(n, coefficient, exponent):
        return coefficient * np.log2(n) ** exponent

    (coefficient, exponent), _ = optimize.curve_fit(
        curve, ns, costs, p0=(1.0, 1.0), maxfev=20_000
    )
    predicted = curve(ns, coefficient, exponent)
    residual = float(
        np.sqrt(np.mean((np.log(costs) - np.log(np.maximum(predicted, 1e-300))) ** 2))
    )
    return PolylogFit(
        coefficient=float(coefficient), exponent=float(exponent), residual=residual
    )


@dataclass(frozen=True)
class GrowthClassification:
    """Which growth family a measured series belongs to."""

    family: str  # "polynomial" or "polylogarithmic"
    power_law: PowerLawFit
    polylog: PolylogFit

    @property
    def fitted_exponent(self) -> float:
        """Exponent of the winning family's fit."""
        if self.family == "polynomial":
            return self.power_law.exponent
        return self.polylog.exponent


def classify_growth(
    ns: Sequence[float], costs: Sequence[float], polynomial_threshold: float = 0.5
) -> GrowthClassification:
    """Decide whether a cost series grows polynomially or polylogarithmically.

    A series whose best power-law exponent falls below
    ``polynomial_threshold`` is sublinear enough to be polylog at the
    measured scales (a true polynomial keeps a stable exponent; a polylog
    series masquerading as ``n^a`` shows a small, shrinking ``a``);
    otherwise the better-fitting family (by log-space residual) wins.
    """
    power_law = fit_power_law(ns, costs)
    polylog = fit_polylog(ns, costs)
    if power_law.exponent < polynomial_threshold:
        family = "polylogarithmic"
    elif power_law.residual <= polylog.residual:
        family = "polynomial"
    else:
        family = "polylogarithmic"
    return GrowthClassification(family=family, power_law=power_law, polylog=polylog)


def constant_factor(
    measured: Sequence[float], modelled: Sequence[float]
) -> tuple[float, float]:
    """Geometric-mean ratio of measured to modelled costs, with spread.

    Returns ``(factor, log_spread)``: the implementation constant that
    separates a measured series from the paper's model, and the RMS of
    the log-ratios around it (0 means the series is an exact rescaling).
    """
    measured = np.asarray(measured, dtype=np.float64)
    modelled = np.asarray(modelled, dtype=np.float64)
    if measured.shape != modelled.shape or len(measured) == 0:
        raise DimensionMismatchError("series must be equal-length and non-empty")
    if np.any(measured <= 0) or np.any(modelled <= 0):
        raise ConfigurationError("series must be positive")
    log_ratio = np.log(measured / modelled)
    factor = float(np.exp(np.mean(log_ratio)))
    spread = float(np.sqrt(np.mean((log_ratio - np.mean(log_ratio)) ** 2)))
    return factor, spread
