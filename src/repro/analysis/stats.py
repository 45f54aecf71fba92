"""Statistical helpers used by the evaluation.

Thin, explicit wrappers so every test and bench computes moments the
same way the paper describes (kurtosis for Figure 3's fat tails, the
paired t-test for the 2023/2024 comparison).

Everything here is numpy and :mod:`math`: the t-test's p-value comes
from the regularised incomplete beta function (:func:`_betainc`), so
the runtime needs no scipy, whose ``stats`` import alone costs about a
second.  The tests pin each helper against its scipy counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return float(np.mean(values))


def std(values: list[float]) -> float:
    """Population standard deviation (matching the paper's Figure 2 text)."""
    if not values:
        raise ValueError("std of empty sequence")
    return float(np.std(values))


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    return float(np.median(values))


def excess_kurtosis(values: list[float]) -> float:
    """Fisher (excess) kurtosis: 0 for a normal distribution.

    The paper reports kurtosis 8.4 / 6.8 for the timedelta distributions
    and reads them as fat-tailed; any value well above 0 carries the
    same interpretation.

    The sample estimate is bias-corrected, equal to
    ``scipy.stats.kurtosis(values, fisher=True, bias=False)``:
    ``((n^2 - 1) m4 / m2^2 - 3 (n - 1)^2) / ((n - 2)(n - 3))`` over the
    central moments ``m2``, ``m4``; NaN for zero variance, like scipy.
    """
    if len(values) < 4:
        raise ValueError("kurtosis needs at least 4 samples")
    samples = np.asarray(values, dtype=float)
    n = samples.size
    squared = (samples - samples.mean()) ** 2
    m2 = squared.mean()
    if m2 <= (np.finfo(float).resolution * samples.mean()) ** 2:
        return math.nan
    m4 = (squared * squared).mean()
    corrected = ((n * n - 1.0) * m4 / m2**2 - 3.0 * (n - 1) ** 2) / ((n - 2) * (n - 3))
    return float(corrected)


@dataclass(frozen=True)
class PairedTTestResult:
    t_statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def paired_t_test(series_a: list[float], series_b: list[float]) -> PairedTTestResult:
    """Two-sided paired t-test, equal to scipy's ``ttest_rel``.

    ``t`` is the mean difference over its standard error, computed in
    scipy's order of operations, so the degenerate cases agree too:
    all-zero differences give ``nan``/``nan`` and constant non-zero ones
    ``±inf``/``0.0``.  With ``df = n - 1`` the two-sided p-value is the
    regularised incomplete beta ``I_{df/(df+t²)}(df/2, 1/2)``.
    """
    if len(series_a) != len(series_b):
        raise ValueError("paired t-test requires equal-length series")
    differences = np.asarray(series_a, dtype=float) - np.asarray(series_b, dtype=float)
    n = differences.size
    mean_difference = float(np.mean(differences))
    with np.errstate(divide="ignore", invalid="ignore"):
        squared = (differences - mean_difference) ** 2
        variance = np.mean(squared) * (np.float64(n) / (n - 1))
        t = float(np.divide(mean_difference, np.sqrt(variance / n)))
    df = n - 1
    p = math.nan if math.isnan(t) else _betainc(df / 2, 0.5, df / (df + t * t))
    return PairedTTestResult(t_statistic=t, p_value=p, mean_difference=mean_difference)


def _betainc(a: float, b: float, x: float) -> float:
    """The regularised incomplete beta function ``I_x(a, b)``.

    The continued fraction converges fast for ``x < (a + 1) / (a + b +
    2)``; above that the symmetry ``I_x(a, b) = 1 - I_{1-x}(b, a)``
    swaps into that region.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        a * math.log(x) + b * math.log1p(-x)
        + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The incomplete beta continued fraction, by the modified Lentz
    method (Numerical Recipes ``betacf``)."""
    tiny, eps = 1e-300, 1e-15
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return h


def rank_paired_t_test(series_a: list[float], series_b: list[float]) -> PairedTTestResult:
    """Paired t-test after sorting both series descending.

    The paper pairs the ten 2023 months with the ten 2024 months but does
    not state the pairing; pairing by within-year volume rank compares
    the month-volume *distributions* and is the variant we report (see
    EXPERIMENTS.md for the discussion).
    """
    return paired_t_test(sorted(series_a, reverse=True), sorted(series_b, reverse=True))


def histogram_days(values_hours: list[float], max_days: int = 90) -> list[int]:
    """Counts per whole day for values under ``max_days`` (Figure 3)."""
    counts = [0] * max_days
    for value in values_hours:
        day = int(value // 24)
        if 0 <= day < max_days:
            counts[day] += 1
    return counts


def fraction(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else math.nan
