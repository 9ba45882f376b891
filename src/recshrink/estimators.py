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

from .records import DesignPair
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
        if not (0.0 < self.theta1_hat < math.inf and 0.0 < self.theta2_hat < math.inf):
            raise ValueError(
                f"scale estimates must be positive and finite, got "
                f"({self.theta1_hat}, {self.theta2_hat})"
            )


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
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    d1, d2 = design.df
    return f_quantile(0.5 * alpha, d1, d2), f_quantile(1.0 - 0.5 * alpha, d1, d2)


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


def shrinkage(
    inp: EstimationInput, alpha: float, k: float, target: Target = Target.THETA1
) -> tuple[float, TestDecision]:
    """k-weighted compromise between pooling and the single-sample MLE.

    k = 1 recovers the pre-test estimator; k = 0 never moves off the MLE.
    """
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"shrinkage coefficient must lie in [0, 1], got {k}")
    decision = equal_scale_test(inp, alpha)
    own = inp.theta1_hat if target is Target.THETA1 else inp.theta2_hat
    estimate = k * pooled(inp) + (1.0 - k) * own if decision.accepted else own
    return estimate, decision
