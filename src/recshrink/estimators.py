"""Point estimators for the exponential scales and the equal-scale pre-test.

The likelihood-ratio test of equal scales accepts when the MLE ratio
theta1_hat/theta2_hat falls strictly inside (c1, c2), the central F
quantiles at level alpha.  On acceptance the pooled estimate, or a
shrinkage compromise k*pooled + (1-k)*mle, replaces the single-sample MLE.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .records import DesignPair, check_positive
from .special import f_quantile


class Target(enum.Enum):
    """Which scale parameter an estimator is aimed at."""

    THETA1 = 1
    THETA2 = 2


@dataclass(frozen=True)
class EstimationInput:
    theta1_hat: float
    theta2_hat: float
    design: DesignPair

    def __post_init__(self):
        check_positive("theta1_hat", self.theta1_hat)
        check_positive("theta2_hat", self.theta2_hat)


@dataclass(frozen=True)
class TestDecision:
    c1: float
    c2: float
    ratio: float
    accepted: bool


@lru_cache(maxsize=8192)
def critical_values(design: DesignPair, alpha: float) -> tuple[float, float]:
    """(c1, c2) bounding the acceptance region of the MLE ratio.

    alpha = 1 collapses the region to a point, so the test always rejects.
    Within ~1e-14 of alpha = 1 the two quantiles can cross by rounding; the
    region is then collapsed to c1 as well.
    """
    check_alpha(alpha)
    if 0.5 * alpha == 0.0:
        raise ValueError(f"alpha/2 underflows to 0 at alpha={alpha}")
    d1, d2 = design.df
    c1 = f_quantile(0.5 * alpha, d1, d2)
    # the upper quantile by the reciprocal identity F_{d1,d2}^{-1}(1 - p) =
    # 1/F_{d2,d1}^{-1}(p): 1 - alpha/2 would round to 1 for alpha <= 2^-53;
    # a reciprocal quantile that underflows to 0 makes c2 infinite
    q = f_quantile(0.5 * alpha, d2, d1)
    return c1, max(c1, 1.0 / q if q > 0.0 else math.inf)


def equal_scale_test(inp: EstimationInput, alpha: float) -> TestDecision:
    """Pre-test decision; boundary ratios count as rejection."""
    c1, c2 = critical_values(inp.design, alpha)
    ratio = inp.theta1_hat / inp.theta2_hat
    return TestDecision(c1, c2, ratio, c1 < ratio < c2)


def pooled(inp: EstimationInput) -> float:
    """Count-weighted average of the two scale MLEs."""
    d = inp.design
    return (d.n1 * inp.theta1_hat + d.n2 * inp.theta2_hat) / (d.n1 + d.n2)


def preliminary_test(
    inp: EstimationInput, alpha: float, target: Target = Target.THETA1
) -> tuple[float, TestDecision]:
    """Pooled estimate on acceptance, single-sample MLE otherwise."""
    return shrinkage(inp, alpha, 1.0, target)


def check_k(k: float) -> None:
    """Reject a shrinkage coefficient outside [0, 1]; NaN fails too."""
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"k must lie in [0, 1], got {k}")


def check_alpha(alpha: float) -> None:
    """Reject a pre-test level outside (0, 1]; NaN fails too."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def check_level(alpha: float) -> None:
    """Reject a tuning's fixed pre-test level outside (0, 1); NaN fails too.

    The test itself takes alpha = 1, where it always rejects, but a K* at a
    level that never pools has nothing to tune.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def shrinkage(
    inp: EstimationInput, alpha: float, k: float, target: Target = Target.THETA1
) -> tuple[float, TestDecision]:
    """k-weighted compromise between pooling and the single-sample MLE.

    k = 1 recovers the pre-test estimator; k = 0 never moves off the MLE.
    """
    check_k(k)
    decision = equal_scale_test(inp, alpha)
    own = inp.theta1_hat if target is Target.THETA1 else inp.theta2_hat
    estimate = k * pooled(inp) + (1.0 - k) * own if decision.accepted else own
    return estimate, decision
