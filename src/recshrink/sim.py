"""Seeded Monte Carlo: the estimator-comparison study and the risk oracle.

Everything is reproducible from a single root seed.  ``mc_compare`` spawns
one child stream per theta2 cell (``numpy.random.SeedSequence.spawn``), so
cells may be computed in any order, or concurrently, without changing any
number; within a cell the draws happen in one fixed batch order.
``mc_oracle_risk`` simulates the estimators straight from their chi-square
pivot representations and is the independent check on every closed form in
``risk``.  ``convention_validation`` holds that check against the ratio
bound map ``risk`` uses and against the linear map that circulates in
print, which is defined here and nowhere else.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import critical_values
from .records import DesignPair, Variant
from .risk import coefficients_at_bounds, shrink_risk

CSV_COLUMNS = ("n1", "n2", "theta2", "bias_mle", "bias_pt", "bias_s", "eff_pt", "eff_s")


@dataclass(frozen=True)
class SimConfig:
    """One estimator-comparison run over a grid of theta2 values."""

    design: DesignPair
    theta2_grid: tuple[float, ...]
    seed: int
    theta1: float = 1.0
    alpha: float = 0.16
    k: float = 1.0
    replicates: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "theta2_grid", tuple(float(t) for t in self.theta2_grid))
        if not self.theta2_grid:
            raise ValueError("theta2_grid is empty")
        if not all(0.0 < t < math.inf for t in self.theta2_grid):
            raise ValueError("theta2 values must be positive and finite")
        if not 0.0 < self.theta1 < math.inf:
            raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 <= self.k <= 1.0):
            raise ValueError(f"k must lie in [0, 1], got {self.k}")
        if self.replicates < 1:
            raise ValueError(f"need at least one replicate, got {self.replicates}")


@dataclass(frozen=True)
class McRow:
    """Bias/MSE/efficiency estimates for one theta2 cell."""

    theta2: float
    bias_mle: float
    bias_pt: float
    bias_s: float
    se_bias_mle: float
    se_bias_pt: float
    se_bias_s: float
    mse_mle: float
    mse_pt: float
    mse_s: float
    se_mse_mle: float
    se_mse_pt: float
    se_mse_s: float
    eff_pt: float
    eff_s: float
    se_eff_pt: float
    se_eff_s: float


@dataclass(frozen=True)
class McReport:
    """All cells of a comparison run, with the config that produced them."""

    config: SimConfig
    rows: tuple[McRow, ...]

    def to_csv_rows(self):
        """Rows in the compact table layout (no standard errors)."""
        d = self.config.design
        out = [list(CSV_COLUMNS)]
        for r in self.rows:
            out.append([d.n1, d.n2, r.theta2, r.bias_mle, r.bias_pt, r.bias_s,
                        r.eff_pt, r.eff_s])
        return out

    def to_json_dict(self):
        """Full-precision dict including standard errors and the config."""
        cfg = self.config
        return {
            "design": {"n1": cfg.design.n1, "n2": cfg.design.n2,
                       "variant": cfg.design.variant.value},
            "theta1": cfg.theta1,
            "alpha": cfg.alpha,
            "k": cfg.k,
            "replicates": cfg.replicates,
            "seed": cfg.seed,
            "rows": [asdict(r) for r in self.rows],
        }


def _mle_batch(rng: np.random.Generator, n: int, scale: float, reps: int,
               variant: Variant) -> np.ndarray:
    """Replicated record-sample MLEs.

    Records are cumulative sums of inverse-CDF exponential gaps, matching
    ``records.sample_exponential_records``; the MLE only needs the gap sums,
    so the cumulative sum itself is never materialized.
    """
    gaps = -scale * np.log1p(-rng.random((reps, n)))
    if variant is Variant.KNOWN_LOCATION:
        return gaps.sum(axis=1) / n           # X_{U(n)} / n
    return gaps[:, 1:].sum(axis=1) / n        # (X_{U(n)} - X_{U(1)}) / n


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    m = float(x.mean())
    if x.size < 2:
        return m, math.nan
    return m, float(x.std(ddof=1) / math.sqrt(x.size))


def _ratio_se(num: np.ndarray, den: np.ndarray) -> float:
    """Delta-method SE of mean(num)/mean(den) from paired replicate values."""
    reps = num.size
    if reps < 2:
        return math.nan
    m1, m2 = num.mean(), den.mean()
    v11 = num.var(ddof=1) / reps
    v22 = den.var(ddof=1) / reps
    v12 = float(np.cov(num, den, ddof=1)[0, 1]) / reps
    var = (m1 / m2) ** 2 * (v11 / m1**2 + v22 / m2**2 - 2.0 * v12 / (m1 * m2))
    return math.sqrt(max(var, 0.0))


def mc_compare(config: SimConfig) -> McReport:
    """Bias, MSE, and MSE efficiency of the MLE, pre-test, and shrinkage rules.

    All three target theta1; efficiency is mse(mle)/mse(rule).  Identical
    configs produce bit-identical reports.
    """
    design = config.design
    c1, c2 = critical_values(design, config.alpha)
    children = np.random.SeedSequence(config.seed).spawn(len(config.theta2_grid))
    rows = []
    for theta2, child in zip(config.theta2_grid, children):
        rng = np.random.default_rng(child)
        t1 = _mle_batch(rng, design.n1, config.theta1, config.replicates, design.variant)
        t2 = _mle_batch(rng, design.n2, theta2, config.replicates, design.variant)
        ratio = t1 / t2
        accepted = (ratio > c1) & (ratio < c2)
        pool = (design.n1 * t1 + design.n2 * t2) / (design.n1 + design.n2)
        pt = np.where(accepted, pool, t1)
        sh = np.where(accepted, config.k * pool + (1.0 - config.k) * t1, t1)

        stats = {}
        for rule, est in (("mle", t1), ("pt", pt), ("s", sh)):
            err = est - config.theta1
            sq = err**2
            stats[f"bias_{rule}"], stats[f"se_bias_{rule}"] = _mean_se(err)
            stats[f"mse_{rule}"], stats[f"se_mse_{rule}"] = _mean_se(sq)
            if rule == "mle":
                sq_mle = sq
            else:
                stats[f"eff_{rule}"] = stats["mse_mle"] / stats[f"mse_{rule}"]
                stats[f"se_eff_{rule}"] = _ratio_se(sq_mle, sq)
        rows.append(McRow(theta2=theta2, **stats))
    return McReport(config, tuple(rows))


def mc_oracle_risk(
    design: DesignPair,
    delta: float,
    alpha: float,
    k: float,
    replicates: int,
    seed: int,
) -> tuple[float, float]:
    """(estimate, standard error) of the weighted-loss shrinkage risk.

    Draws the scale MLEs straight from their chi-square pivots
    (2*n_i*mle_i/theta_i ~ chi2 with the variant's df), applies the
    shrinkage rule, and averages the weighted squared error.  This path
    shares nothing with the closed forms in ``risk`` beyond the critical
    values, which is what makes it an oracle for them.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"k must lie in [0, 1], got {k}")
    if replicates < 2:
        raise ValueError("need at least two replicates for a standard error")
    m1, m2 = design.shapes
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t1 = rng.standard_gamma(m1, replicates) / design.n1          # theta1 = 1
    t2 = delta * rng.standard_gamma(m2, replicates) / design.n2
    c1, c2 = critical_values(design, alpha)
    ratio = t1 / t2
    accepted = (ratio > c1) & (ratio < c2)
    pool = (design.n1 * t1 + design.n2 * t2) / (design.n1 + design.n2)
    est = np.where(accepted, k * pool + (1.0 - k) * t1, t1)
    wse = (est - 1.0) ** 2
    return float(wse.mean()), float(wse.std(ddof=1) / math.sqrt(replicates))


@dataclass(frozen=True)
class ValidationCell:
    """Closed-form vs oracle comparison at one parameter point."""

    n1: int
    n2: int
    delta: float
    alpha: float
    k: float
    convention: str
    closed_form: float
    mc_estimate: float
    mc_se: float
    z: float
    ok: bool


# the validation grid, at known location, and its pass mark in oracle SEs
_VALIDATION_DESIGNS = ((2, 2), (5, 6), (10, 7))
_VALIDATION_DELTAS = (0.5, 1.0, 2.0)
_VALIDATION_ALPHAS = (0.16, 0.38)
_VALIDATION_KS = (0.21, 1.0)
_Z_LIMIT = 3.0


def _linear_bounds(design: DesignPair, delta: float, c1: float, c2: float) -> tuple:
    """(d1, d2) by the refuted linear map d_j = 1 - n2/(c_j*n1*delta), clipped into [0, 1]."""
    n1, n2 = design.n1, design.n2
    return tuple(min(max(1.0 - n2 / (c * n1 * delta), 0.0), 1.0) for c in (c1, c2))


def _linear_risk(design: DesignPair, delta: float, alpha: float, k: float) -> float:
    """Shrinkage risk with the acceptance bounds of the linear map."""
    c1, c2 = critical_values(design, alpha)
    h2, h1, h0 = coefficients_at_bounds(design, delta, *_linear_bounds(design, delta, c1, c2))
    return h2 * k * k + h1 * k + h0


def convention_validation(replicates: int = 200_000, seed: int = 20260811) -> dict:
    """Compare both bound maps against the Monte Carlo oracle.

    Every cell of a fixed known-location grid (3 designs, 3 deltas, 2 levels,
    2 coefficients) gets the closed-form risk under the linear map
    ("paper") and under the ratio map of ``risk`` ("derived").  Returns the
    per-cell results and the list of maps whose closed form stayed within
    ``z_limit`` oracle standard errors at every cell.  The MC estimate is
    shared between the maps, so the comparison is paired.
    """
    cells = []
    cell_seed = np.random.SeedSequence(seed).generate_state(1)[0]
    grid = itertools.product(
        _VALIDATION_DESIGNS, _VALIDATION_DELTAS, _VALIDATION_ALPHAS, _VALIDATION_KS
    )
    for idx, ((n1, n2), delta, alpha, k) in enumerate(grid):
        design = DesignPair(n1, n2)
        mc, se = mc_oracle_risk(design, delta, alpha, k, replicates, int(cell_seed) + idx)
        for name, cf in (
            ("paper", _linear_risk(design, delta, alpha, k)),
            ("derived", shrink_risk(design, delta, alpha, k)),
        ):
            z = (cf - mc) / se
            cells.append(ValidationCell(
                n1, n2, delta, alpha, k, name, cf, mc, se, z, abs(z) <= _Z_LIMIT
            ))
    surviving = [
        name for name in ("paper", "derived")
        if all(c.ok for c in cells if c.convention == name)
    ]
    return {
        "replicates": replicates,
        "seed": seed,
        "z_limit": _Z_LIMIT,
        "cells": cells,
        "surviving_conventions": surviving,
        "default_convention": "derived",
        "default_ok": "derived" in surviving,
    }
