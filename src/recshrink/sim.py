"""Seeded Monte Carlo: the estimator-comparison study and the risk oracle.

Everything is reproducible from a single root seed.  ``mc_compare`` spawns
one child stream per theta2 cell (``numpy.random.SeedSequence.spawn``), and
a cell's numbers depend only on its own child stream, so the order in which
cells are computed changes no number.  ``mc_compare`` therefore runs its
cells on one worker thread per usable CPU, at most one per cell, the calling
thread among them; numpy releases the interpreter lock while it draws and
while its loops run, so the cells overlap.  Each worker owns reps-length
arrays that its cells reuse in turn.  Within a cell the draws happen in one
fixed batch order, and each replicate's gaps are summed in record order, as
the scalar record route sums them.  A cell is simulated in units of theta1
and its bias and MSE are scaled back at the end.  Every statistic, the
efficiency SEs included, comes from elementwise numpy arithmetic and sums,
not from a BLAS kernel that may differ between CPUs.
``mc_oracle_risk`` simulates the estimators straight from their chi-square
pivot representations and is the independent check on every closed form in
``risk``.  ``convention_validation`` holds that check against the ratio
bound map ``risk`` uses and against the linear map that circulates in
print, which is defined here and nowhere else.
"""

import itertools
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .estimators import critical_values
from .records import DesignPair, Variant, check_positive
from .risk import RiskParams, coefficients_at_bounds, shrink_risk

CSV_COLUMNS = ("n1", "n2", "theta2", "bias_mle", "bias_pt", "bias_s", "eff_pt", "eff_s")
# the study's theta2 values (theta1 = 1): the default grid of `recshrink simulate`
THETA2_GRID = (0.1, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0)
# the study's root seed, and its replicates per cell in the comparison and the validation
STUDY_SEED = 20260811
STUDY_REPLICATES = 100_000
VALIDATION_REPLICATES = 200_000


def _check_replicates(replicates: int) -> None:
    """Reject fewer than two replicates, which leave every standard error undefined."""
    if replicates < 2:
        raise ValueError(f"need at least two replicates for a standard error, got {replicates}")


@dataclass(frozen=True)
class SimConfig:
    """One estimator-comparison run over a grid of theta2 values."""

    design: DesignPair
    theta2_grid: tuple[float, ...]
    seed: int
    theta1: float = 1.0
    alpha: float = 0.16
    k: float = 1.0
    replicates: int = STUDY_REPLICATES

    def __post_init__(self):
        object.__setattr__(self, "theta2_grid", tuple(float(t) for t in self.theta2_grid))
        if not self.theta2_grid:
            raise ValueError("theta2_grid is empty")
        for theta2 in self.theta2_grid:
            check_positive("theta2", theta2)
        # the closed forms' own alpha, k and theta1 checks
        RiskParams(self.design, 1.0, self.alpha, self.k, self.theta1)
        _check_replicates(self.replicates)


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
        cells = [asdict(r) | {"n1": d.n1, "n2": d.n2} for r in self.rows]
        return [list(CSV_COLUMNS)] + [[c[col] for col in CSV_COLUMNS] for c in cells]

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


# doubles in one block of drawn uniforms (256 KiB): a block's gaps are
# formed and summed while it is still in cache
_BLOCK = 1 << 15


def _mle_batch(rng: "np.random.Generator", n: int, scale: float, reps: int,
               variant: Variant, out: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Replicated record-sample MLEs, written into ``out`` and returned.

    Records are cumulative sums of inverse-CDF exponential gaps, matching
    ``records.sample_exponential_records``; the MLE only needs the gap sums,
    so the cumulative sum itself is never materialized.  The uniforms are
    drawn in blocks of whole replicates, at most ``_BLOCK`` doubles (or one
    replicate) at a time, into ``block``.  Each block's gaps are formed in
    place and summed column by column in record order into that block's rows
    of ``out`` while the block is still in cache.  ``Generator.random`` makes
    each double from one 64-bit draw of the bit generator and keeps nothing
    between calls, so the blocks, filled in turn, hold exactly the uniforms
    of one (reps, n) draw and leave the generator in the same state.  Each
    known-location row therefore equals ``records.mle_scale`` of the record
    sample drawn from the same generator state, bit for bit.
    """
    if block.size < n:
        block = np.empty(max(_BLOCK, n))
    rows = block.size // n
    first = 0 if variant is Variant.KNOWN_LOCATION else 1
    for start in range(0, reps, rows):
        total = out[start:start + rows]
        g = block[:total.size * n].reshape(total.size, n)
        rng.random(out=g)
        np.negative(g, out=g)
        np.log1p(g, out=g)
        g *= -scale
        np.copyto(total, g[:, first])
        for j in range(first + 1, n):
            total += g[:, j]
    out /= n                     # X_{U(n)} / n, or (X_{U(n)} - X_{U(1)}) / n
    return out


def _var(x: np.ndarray, mean, scratch: np.ndarray):
    """``x.var(ddof=1)`` about its mean, already computed, by numpy's own steps.

    Subtract, square, sum, divide by n - 1: the same values as ``x.var``,
    without the second pass for the mean (``var(mean=)`` needs numpy 2).
    The squared deviations go to ``scratch``, which may be ``x`` itself.
    """
    dev = np.subtract(x, mean, out=scratch)
    np.multiply(dev, dev, out=dev)
    return dev.sum() / (x.size - 1)


def _mean_se(x: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    m = x.mean()
    return float(m), float(np.sqrt(_var(x, m, scratch)) / math.sqrt(x.size))


def _ratio_se(num: np.ndarray, den: np.ndarray, m1: float, m2: float,
              scratch: np.ndarray) -> float:
    """Delta-method SE of m1/m2 from paired replicate values, m1 = mean(num), m2 = mean(den).

    The delta-method variance (r**2)*(v11/m1**2 + v22/m2**2 - 2*v12/(m1*m2)),
    with r = m1/m2, equals var(num - r*den)/(reps*m2**2).  The residual form
    sums squares where the three-term form cancels, and it needs no
    covariance, so no ``np.cov`` and its BLAS product chosen per CPU.  The
    caller has the two means already.  The residuals go to ``scratch``.
    """
    reps = num.size
    resid = np.multiply(den, m1 / m2, out=scratch)
    np.subtract(num, resid, out=resid)
    return math.sqrt(_var(resid, resid.mean(), resid) / reps) / abs(m2)


@np.errstate(all="raise")
def _compare_cell(config: SimConfig, c1: float, c2: float, theta2: float, child,
                  ws: tuple) -> McRow:
    """One theta2 cell of ``mc_compare``, simulated in units of theta1.

    t1 is drawn at scale 1 and t2 at delta = theta2/theta1, so every
    statistic is first computed for theta1 = 1.  Bias and its SE are then
    scaled by theta1, MSE and its SE by theta1**2; the efficiencies are
    ratios and need no scaling.  Leaving double precision anywhere, in
    delta, the draws or the scaled values, raises FloatingPointError.  theta1
    is a numpy scalar so that delta and each scaling are too: Python floats
    overflow and underflow without a signal, which ``np.errstate`` (a
    per-thread setting) cannot see.  ``ws`` holds the worker's arrays, which
    every cell it runs reuses: four reps-length floats (t1, t2, sh_all,
    sq_mle), two block-length masks and the draw block.  Every
    reps-length value is written into them, elementwise as if each
    expression had its own array: the test and the two rules run a block at
    a time through the draw block, the pool and then the pre-test rule
    overwrite t2, and each rule's error and squared error overwrite arrays
    no later step reads.
    """
    design = config.design
    n1, n2, k = design.n1, design.n2, config.k
    theta1 = np.float64(config.theta1)
    delta = theta2 / theta1
    rng = np.random.default_rng(child)
    reps, variant = config.replicates, design.variant
    (t1, t2, sh_all, sq_mle), (accepted_all, mask_all), block = ws
    t1 = _mle_batch(rng, n1, 1.0, reps, variant, t1, block)
    t2 = _mle_batch(rng, n2, delta, reps, variant, t2, block)
    for start in range(0, reps, _BLOCK):
        b1, b2, sh = (x[start:start + _BLOCK] for x in (t1, t2, sh_all))
        tmp, accepted, mask = (x[:b1.size] for x in (block, accepted_all, mask_all))
        ratio = np.divide(b1, b2, out=tmp)
        np.greater(ratio, c1, out=accepted)
        accepted &= np.less(ratio, c2, out=mask)
        # (n1*t1 + n2*t2) / (n1 + n2), in t2's place
        pool = np.multiply(b2, n2, out=b2)
        np.add(np.multiply(b1, n1, out=tmp), pool, out=pool)
        pool /= n1 + n2
        # k*pool + (1 - k)*t1 on every replicate, not only the accepted ones, so
        # an underflow raises wherever the whole-array expression raised
        blend = np.multiply(pool, k, out=tmp)
        blend += np.multiply(b1, 1.0 - k, out=sh)
        np.copyto(sh, b1)
        np.copyto(sh, blend, where=accepted)
        # the pre-test rule, in the pool's place
        np.copyto(pool, b1, where=np.logical_not(accepted, out=mask))

    stats = {}
    for rule, err, sq in (("mle", t1, sq_mle), ("pt", t2, t1), ("s", sh_all, t1)):
        np.subtract(err, 1.0, out=err)
        np.square(err, out=sq)
        bias, se_bias = _mean_se(err, err)
        mse, se_mse = _mean_se(sq, err)
        stats[f"bias_{rule}"] = bias * theta1
        stats[f"se_bias_{rule}"] = se_bias * theta1
        stats[f"mse_{rule}"] = mse * theta1 * theta1
        stats[f"se_mse_{rule}"] = se_mse * theta1 * theta1
        if rule == "mle":
            mse_mle = mse
        else:
            stats[f"eff_{rule}"] = mse_mle / mse
            stats[f"se_eff_{rule}"] = _ratio_se(sq_mle, sq, mse_mle, mse, err)
    return McRow(theta2=theta2, **{name: float(v) for name, v in stats.items()})


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity mask on this platform
        return os.cpu_count() or 1


def mc_compare(config: SimConfig) -> McReport:
    """Bias, MSE, and MSE efficiency of the MLE, pre-test, and shrinkage rules.

    All three target theta1; efficiency is mse(mle)/mse(rule).  Identical
    configs produce bit-identical reports, however many CPUs run them: the
    cells run on min(cells, usable CPUs) threads, the calling thread among
    them, worker w taking cells w, w + W, ... into its own workspace, and no
    cell's numbers depend on which worker ran it or when.  The rules are
    scale-equivariant, so each cell is simulated in units of theta1 and its
    bias and MSE are scaled back at the end: theta1 may range over about
    1e-154 to 1e154, where the MSE and its SE (about theta1**2) stay normal
    doubles.  Scales whose draws or statistics overflow or underflow double
    precision raise ValueError, naming the first such theta2 of the grid,
    never give an inf or NaN row.  Any other error of a cell is re-raised
    as it is, the first in grid order.
    """
    c1, c2 = critical_values(config.design, config.alpha)
    grid = config.theta2_grid
    children = np.random.SeedSequence(config.seed).spawn(len(grid))
    workers = min(len(grid), _usable_cpus())
    # one allocation per kind for all workers, on the calling thread: arrays
    # allocated one by one, or on the workers, keep glibc's dynamic mmap
    # threshold low, and every call then maps and faults in fresh pages
    spaces = list(zip(np.empty((workers, 4, config.replicates)),
                      np.empty((workers, 2, _BLOCK), dtype=bool), np.empty((workers, _BLOCK))))
    outcomes = [None] * len(grid)     # a row or an exception per cell

    def work(w):
        for i in range(w, len(grid), workers):
            try:
                outcomes[i] = _compare_cell(config, c1, c2, grid[i], children[i], spaces[w])
            except Exception as exc:  # raised below, in grid order
                outcomes[i] = exc
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for theta2, outcome in zip(grid, outcomes):
        if isinstance(outcome, FloatingPointError):
            raise ValueError(
                f"theta1={config.theta1:g}, theta2={theta2:g}: the simulated statistics "
                "leave double precision at these scales"
            ) from None
        if isinstance(outcome, Exception):
            raise outcome
    return McReport(config, tuple(outcomes))


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
    values and the argument checks, which is what makes it an oracle for them.
    """
    RiskParams(design, delta, alpha, k)   # the closed forms' own argument checks
    _check_replicates(replicates)
    m1, m2 = design.shapes
    n1, n2 = design.n1, design.n2
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t1 = rng.standard_gamma(m1, replicates)
    t1 /= n1                                                     # theta1 = 1
    c1, c2 = critical_values(design, alpha)
    # an extreme delta overflows t2 or the ratio only on draws the test
    # rejects, and those keep the finite t1; every array is formed in place,
    # elementwise as if each expression had its own
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t2 = rng.standard_gamma(m2, replicates)
        t2 *= delta
        t2 /= n2
        ratio = t1 / t2
        accepted = ratio > c1
        accepted &= ratio < c2
        # (n1*t1 + n2*t2) / (n1 + n2), in the ratio's place
        pool = np.multiply(t1, n1, out=ratio)
        pool += np.multiply(t2, n2, out=t2)
        pool /= n1 + n2
        # k*pool + (1 - k)*t1, in t2's place
        blend = np.multiply(pool, k, out=t2)
        blend += np.multiply(t1, 1.0 - k, out=pool)
        np.copyto(t1, blend, where=accepted)       # the estimate, in t1's place
    sq = np.subtract(t1, 1.0, out=t1)
    np.square(sq, out=sq)
    return _mean_se(sq, sq)


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


def convention_validation(replicates: int = VALIDATION_REPLICATES, seed: int = STUDY_SEED) -> dict:
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
