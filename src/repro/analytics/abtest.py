"""A/B campaign statistics: Welch t-tests, difference-in-differences, arms.

The production evaluation (§5.3) runs a 10-day campaign: a 5-day AA phase to
measure the baseline difference between the experimental and the control
group, followed by a 5-day AB phase with LingXi enabled for the experimental
group.  The reported effect is the difference-in-differences of the daily
relative improvements, with a t-test on the per-day deltas.

Longitudinal campaigns (:mod:`repro.fleet.longitudinal`) add a second
protocol: two arms run the *same* K days with shared seeds, so their per-day
cohort metrics (DAU, retention rate, watch time, stall time, …) are paired
observations.  :func:`compare_arm_series` reports the paired per-day delta
with a confidence interval — the compounding analogue of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# ``scipy.stats`` costs most of a second to import, and only the t-tests
# below need it, so each one imports it on first use: ``import repro`` (and
# every fleet run that never compares arms) stays free of it.


@dataclass(frozen=True)
class ABTestResult:
    """Outcome of a difference-in-differences analysis for one metric."""

    metric: str
    pre_relative_improvements: tuple[float, ...]
    post_relative_improvements: tuple[float, ...]
    effect: float
    standard_error: float
    t_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """True at the conventional 5% level."""
        return self.p_value < 0.05

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.metric}: effect={self.effect * 100:+.3f}% "
            f"± {self.standard_error * 100:.3f}% "
            f"(t={self.t_statistic:.3f}, p={self.p_value:.4f})"
        )


@dataclass(frozen=True)
class ArmComparison:
    """Paired per-day comparison of one metric between two campaign arms."""

    metric: str
    treatment_daily: tuple[float, ...]
    control_daily: tuple[float, ...]
    #: Mean per-day difference ``treatment - control``.
    mean_delta: float
    #: ``mean_delta`` relative to the control mean (NaN when control sums to 0).
    relative_delta: float
    standard_error: float
    #: Two-sided confidence interval on ``mean_delta`` at ``confidence``.
    confidence_interval: tuple[float, float]
    confidence: float
    t_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """True when the interval's two-sided test rejects zero."""
        return self.p_value < 1.0 - self.confidence

    def summary(self) -> str:
        """One-line human-readable summary."""
        lo, hi = self.confidence_interval
        rel = (
            f" ({self.relative_delta * 100:+.2f}%)"
            if np.isfinite(self.relative_delta)
            else ""
        )
        return (
            f"{self.metric}: delta={self.mean_delta:+.4f}{rel} "
            f"CI{self.confidence * 100:.0f}=[{lo:+.4f}, {hi:+.4f}] "
            f"(t={self.t_statistic:.3f}, p={self.p_value:.4f})"
        )


def compare_arm_series(
    metric: str,
    treatment_daily: Sequence[float],
    control_daily: Sequence[float],
    confidence: float = 0.95,
) -> ArmComparison:
    """Paired t-test of per-day metric deltas between two shared-seed arms.

    Both series must cover the same days in order (one value per day).  The
    effect is the mean per-day ``treatment - control`` delta with a Student-t
    confidence interval over the daily deltas — days are the unit of
    replication, exactly as in the paper's campaign statistics.
    """
    treatment = np.asarray(treatment_daily, dtype=float)
    control = np.asarray(control_daily, dtype=float)
    if treatment.shape != control.shape:
        raise ValueError("treatment and control must cover the same days")
    if treatment.size < 2:
        raise ValueError("need at least two days per arm")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    deltas = treatment - control
    mean_delta = float(deltas.mean())
    control_mean = float(control.mean())
    relative_delta = (
        mean_delta / abs(control_mean) if control_mean != 0 else float("nan")
    )
    standard_error = float(deltas.std(ddof=1) / np.sqrt(deltas.size))
    df = deltas.size - 1
    if standard_error == 0:
        t_statistic = float("inf") if mean_delta != 0 else 0.0
        p_value = 0.0 if mean_delta != 0 else 1.0
        interval = (mean_delta, mean_delta)
    else:
        from scipy import stats

        t_statistic = mean_delta / standard_error
        p_value = float(2.0 * stats.t.sf(abs(t_statistic), df=df))
        half_width = float(stats.t.ppf(0.5 + confidence / 2.0, df=df)) * standard_error
        interval = (mean_delta - half_width, mean_delta + half_width)
    return ArmComparison(
        metric=metric,
        treatment_daily=tuple(float(v) for v in treatment),
        control_daily=tuple(float(v) for v in control),
        mean_delta=mean_delta,
        relative_delta=relative_delta,
        standard_error=standard_error,
        confidence_interval=interval,
        confidence=confidence,
        t_statistic=t_statistic,
        p_value=p_value,
    )


def welch_ttest(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t-test; returns ``(t_statistic, p_value)``."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two observations")
    from scipy import stats

    result = stats.ttest_ind(a, b, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def relative_improvement(treatment: Sequence[float], control: Sequence[float]) -> np.ndarray:
    """Per-day relative improvement ``(treatment - control) / control``."""
    treatment_arr = np.asarray(treatment, dtype=float)
    control_arr = np.asarray(control, dtype=float)
    if treatment_arr.shape != control_arr.shape:
        raise ValueError("treatment and control must have the same length")
    if np.any(control_arr == 0):
        raise ValueError("control values must be non-zero")
    return (treatment_arr - control_arr) / control_arr


def difference_in_differences(
    metric: str,
    treatment_pre: Sequence[float],
    control_pre: Sequence[float],
    treatment_post: Sequence[float],
    control_post: Sequence[float],
) -> ABTestResult:
    """Difference-in-differences on daily relative improvements.

    The AA phase (``*_pre``) measures the inherent bias between the groups;
    the AB phase (``*_post``) measures bias plus treatment effect.  The effect
    is the mean post-improvement minus the mean pre-improvement, with a
    one-sample t-test of the post-minus-pre-mean daily deltas against zero.
    """
    pre = relative_improvement(treatment_pre, control_pre)
    post = relative_improvement(treatment_post, control_post)
    if pre.size < 2 or post.size < 2:
        raise ValueError("need at least two pre and two post days")
    deltas = post - pre.mean()
    effect = float(deltas.mean())
    standard_error = float(deltas.std(ddof=1) / np.sqrt(deltas.size))
    if standard_error == 0:
        t_statistic = float("inf") if effect != 0 else 0.0
        p_value = 0.0 if effect != 0 else 1.0
    else:
        from scipy import stats

        t_statistic = effect / standard_error
        p_value = float(2.0 * stats.t.sf(abs(t_statistic), df=deltas.size - 1))
    return ABTestResult(
        metric=metric,
        pre_relative_improvements=tuple(float(v) for v in pre),
        post_relative_improvements=tuple(float(v) for v in post),
        effect=effect,
        standard_error=standard_error,
        t_statistic=t_statistic,
        p_value=p_value,
    )
