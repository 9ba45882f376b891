"""Minimax-regret tuning of the pre-test level alpha* and shrinkage weight K*.

Both tunings equalize the two local maxima of a regret curve in delta: the
regret of the tuned rule peaks once at delta_L below the upper edge delta2
of the central pooling window and once at delta_U above it, and the tuned
value is the root of reg_L(t) - reg_U(t).

For alpha*, regret measures the pre-test risk against the always-pool risk
r0 inside a central window and against the MLE risk r1 = 1/n1 outside.
The window's upper edge delta2 is the upper crossing of r0 with r1; its
lower edge is taken as 1/delta2 rather than the algebraic lower crossing,
which is nonpositive for small unbalanced designs.  The reciprocal window
is the one the tabulated reference grids equalize over and reproduces them
at every design; with the algebraic lower crossing the small-n2 column is
off by up to 0.05.

For K*, regret measures the risk at coefficient k against its pointwise
minimum over k in [0, 1] (an exact quadratic), and delta2 is the upper
crossing of the pre-test risk with 1/n1.

Every risk here uses the ratio form of the acceptance bounds, the one the
Monte Carlo validation selects (see ``risk``); tuning has no other.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .optim import brent_root, golden_section_max
from .records import DesignPair, Variant
from .risk import (
    boundary_risks,
    pooled_risk_quadratic,
    pt_risk,
    risk_k_coefficients,
    risk_k_coefficients_grid,
    shrink_risk,
)

_GRID_POINTS = 200
_LOWER_SPAN = 1e-4          # lower search grid starts at delta2 * this
_REFINE_XTOL = 1e-6
_SCAN = tuple(np.linspace(0.01, 0.99, 15))
_EQUALIZE_TOL = 1e-5
_MAX_DOUBLINGS = 60


class SearchError(RuntimeError):
    """A regret search failed to bracket what it was looking for."""


class TableCase(Enum):
    """Which tuning a reference-table run optimizes."""

    ALPHA = "alpha"
    K_FIXED_ALPHA = "k_fixed_alpha"
    K_OPTIMAL_ALPHA = "k_optimal_alpha"


@dataclass(frozen=True)
class RegretSolution:
    """An equalized minimax-regret tuning with its regret geometry."""

    tuned_value: float
    delta1: float
    delta2: float
    delta_L: float
    delta_U: float
    regret_at_L: float
    regret_at_U: float
    fallback: bool = False

    def __post_init__(self):
        if not self.delta1 < self.delta2:
            raise SearchError(f"window edges out of order: {self}")
        if not (self.delta_L <= self.delta2 <= self.delta_U):
            raise SearchError(f"regret maxima fall outside their regions: {self}")
        if not self.fallback and abs(self.regret_at_L - self.regret_at_U) > 1e-4:
            raise SearchError(f"regret maxima not equalized: {self}")


@dataclass(frozen=True)
class TableCell:
    """One design's entry of a reference-table reproduction."""

    n1: int
    n2: int
    alpha_star: float | None = None
    k_star: float | None = None
    regret_level: float | None = None
    delta_L: float | None = None
    delta_U: float | None = None
    error: str | None = None


def delta_intersections(design: DesignPair) -> tuple[float, float]:
    """Ascending real roots of r0(delta) = r1.

    The lower root is nonpositive whenever pooling beats the single-sample
    MLE at every small delta (all n2 = 2 designs, for instance); callers
    that need a positive window use ``pooling_region`` instead.
    """
    a, b, c = pooled_risk_quadratic(design)
    r1 = 1.0 / design.n1
    disc = b * b - 4.0 * a * (c - r1)
    if a <= 0.0 or disc <= 0.0:
        raise SearchError(f"pooled and MLE risks do not cross for {design}")
    root = math.sqrt(disc)
    lo = (-b - root) / (2.0 * a)
    hi = (-b + root) / (2.0 * a)
    if hi <= 0.0:
        raise SearchError(f"no positive pooling window for {design}")
    return lo, hi


def pooling_region(design: DesignPair) -> tuple[float, float]:
    """(lo, hi) window where alpha-regret is measured against the pooled risk."""
    d1, d2 = delta_intersections(design)
    return max(d1, 1.0 / d2), d2


def regret_pt(design: DesignPair, delta: float, alpha: float) -> float:
    """Excess pre-test risk over the better reference rule, floored at zero.

    The floor absorbs the few delta where the pre-test rule beats both
    references at once, which the two-reference regret counts as negative.
    """
    lo, hi = pooling_region(design)
    r0, r1 = boundary_risks(design, delta)
    ref = r0 if lo < delta < hi else r1
    return max(0.0, pt_risk(design, delta, alpha) - ref)


def _regret_pt_grid(design, deltas, alpha, region):
    lo, hi = region
    h2, h1, h0 = risk_k_coefficients_grid(design, deltas, alpha)
    risk = h2 + h1 + h0
    a, b, c = pooled_risk_quadratic(design)
    r0 = a * deltas * deltas + b * deltas + c
    ref = np.where((deltas > lo) & (deltas < hi), r0, 1.0 / design.n1)
    return np.maximum(0.0, risk - ref)


def _refine_max(grid, values, f):
    """Golden-section polish around the argmax of a sampled curve."""
    i = int(np.argmax(values))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x, fx = golden_section_max(f, lo, hi, xtol=_REFINE_XTOL)
    if values[i] > fx:
        return float(grid[i]), float(values[i])
    return x, fx


def _two_sided_sup(batch, scalar, edge):
    """Maxima of a regret curve below and above the window edge.

    The lower region is scanned on a log grid down to edge*1e-4; the upper
    grid expands geometrically (doubling from 4*edge) until its maximum is
    interior, so humps arbitrarily far out are still bracketed.
    """
    grid_lo = np.geomspace(edge * _LOWER_SPAN, edge, _GRID_POINTS)
    d_lo, r_lo = _refine_max(grid_lo, batch(grid_lo), scalar)
    top = 4.0 * edge
    for _ in range(_MAX_DOUBLINGS):
        grid_hi = np.geomspace(edge * (1.0 + 1e-9), top, _GRID_POINTS)
        vals = batch(grid_hi)
        if int(np.argmax(vals)) < len(grid_hi) - 1:
            d_hi, r_hi = _refine_max(grid_hi, vals, scalar)
            return d_lo, r_lo, d_hi, r_hi
        top *= 2.0
    raise SearchError(f"regret still rising at delta={top:g}; no interior maximum above {edge:g}")


def sup_regret_pt(design: DesignPair, alpha: float) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) for the pre-test regret at level alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    region = pooling_region(design)
    return _two_sided_sup(
        lambda g: _regret_pt_grid(design, g, alpha, region),
        lambda d: regret_pt(design, d, alpha),
        region[1],
    )


def _equalize(sups, domain_lo=0.01, domain_hi=0.99):
    """Root of reg_L - reg_U over the scan grid; golden fallback without one."""

    def g(t):
        _, r_lo, _, r_hi = sups(t)
        return r_lo - r_hi

    vals = [g(t) for t in _SCAN]
    for i in range(len(_SCAN) - 1):
        if vals[i] == 0.0:
            return float(_SCAN[i]), False
        if (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            return brent_root(g, float(_SCAN[i]), float(_SCAN[i + 1]), xtol=1e-7), False
    if vals[-1] == 0.0:
        return float(_SCAN[-1]), False

    def worst(t):
        _, r_lo, _, r_hi = sups(t)
        return -max(r_lo, r_hi)

    t, _ = golden_section_max(worst, domain_lo, domain_hi, xtol=1e-6)
    return t, True


def _solve(sup, window) -> RegretSolution:
    """Equalized solution over the window (delta1, delta2), in plain floats.

    ``sup`` maps the tuned value to (delta_L, reg_L, delta_U, reg_U); each
    value is evaluated once, since the final solution revisits the root.
    The root and the regrets come out of numpy as np.float64; casting here
    keeps them out of the solution and of the error messages it raises.
    """
    cache = {}

    def sups(t):
        if t not in cache:
            cache[t] = sup(t)
        return cache[t]

    root, fallback = _equalize(sups)
    d_lo, r_lo, d_hi, r_hi = sups(root)
    values = (root, *window, d_lo, d_hi, r_lo, r_hi)
    return RegretSolution(*(float(v) for v in values), fallback)


def optimal_alpha(design: DesignPair) -> RegretSolution:
    """Pre-test level equalizing the two regret maxima."""
    return _solve(lambda a: sup_regret_pt(design, a), pooling_region(design))


def _inf_quadratic(h2: float, h1: float, h0: float) -> tuple[float, float]:
    """Minimum of h2*k^2 + h1*k + h0 over k in [0, 1]; smallest k wins ties.

    A non-convex or degenerate quadratic (h2 <= 0) compares endpoints only.
    """
    best_k, best_r = 0.0, h0
    cands = []
    if h2 > 0.0:
        k0 = -h1 / (2.0 * h2)
        if 0.0 < k0 < 1.0:
            cands.append((k0, h0 - h1 * h1 / (4.0 * h2)))
    cands.append((1.0, h2 + h1 + h0))
    for k, r in sorted(cands):
        if r < best_r:
            best_k, best_r = k, r
    return best_k, best_r


def inf_k_risk(design: DesignPair, delta: float, alpha: float) -> tuple[float, float]:
    """(k, risk) minimizing the shrinkage risk over k in [0, 1] at this delta."""
    h2, h1, h0 = risk_k_coefficients(design, delta, alpha)
    return _inf_quadratic(h2, h1, h0)


def regret_shrink(design: DesignPair, delta: float, alpha: float, k: float) -> float:
    """Excess risk of shrinkage weight k over the best weight at this delta."""
    if not (0.0 <= k <= 1.0):
        raise ValueError(f"k must lie in [0, 1], got {k}")
    h2, h1, h0 = risk_k_coefficients(design, delta, alpha)
    _, rmin = _inf_quadratic(h2, h1, h0)
    return max(0.0, h2 * k * k + h1 * k + h0 - rmin)


def _regret_shrink_grid(design, deltas, alpha, k):
    h2, h1, h0 = risk_k_coefficients_grid(design, deltas, alpha)
    risk = h2 * k * k + h1 * k + h0
    rmin = np.minimum(h0, h2 + h1 + h0)
    pos = h2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.where(pos, -h1 / (2.0 * h2), -1.0)
        vertex = np.where(pos, h0 - h1 * h1 / (4.0 * h2), np.inf)
    interior = pos & (k0 > 0.0) & (k0 < 1.0)
    rmin = np.where(interior, np.minimum(rmin, vertex), rmin)
    return np.maximum(0.0, risk - rmin)


def pt_risk_crossings(design: DesignPair, alpha: float) -> tuple[float, float]:
    """(lo, hi) where the pre-test risk crosses the MLE risk 1/n1.

    lo is 0.0 when the risk never rises above 1/n1 below the dip.
    """
    r1 = 1.0 / design.n1

    def f(d):
        return pt_risk(design, d, alpha) - r1

    if not f(1.0) < 0.0:
        raise SearchError(f"no pooling advantage at delta=1 for {design}, alpha={alpha}")
    hi = 2.0
    for _ in range(_MAX_DOUBLINGS):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise SearchError(f"pre-test risk never re-crosses 1/n1 above the dip for {design}")
    upper = brent_root(f, 1.0, hi, xtol=1e-9)
    lower = 0.0
    lo = 0.5
    while lo > 1e-9:
        if f(lo) > 0.0:
            lower = brent_root(f, lo, 1.0, xtol=1e-9)
            break
        lo *= 0.5
    return lower, upper


def sup_regret_shrink(
    design: DesignPair,
    alpha: float,
    k: float,
    crossings: tuple[float, float] | None = None,
) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) for the shrinkage regret at weight k."""
    if crossings is None:
        crossings = pt_risk_crossings(design, alpha)
    return _two_sided_sup(
        lambda g: _regret_shrink_grid(design, g, alpha, k),
        lambda d: regret_shrink(design, d, alpha, k),
        crossings[1],
    )


def optimal_k(design: DesignPair, alpha: float) -> RegretSolution:
    """Shrinkage weight equalizing the two regret maxima at a fixed level alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    crossings = pt_risk_crossings(design, alpha)
    return _solve(lambda k: sup_regret_shrink(design, alpha, k, crossings), crossings)


TABLE_GRID = (2, 3, 4, 5, 7, 10)


def generate_tables(
    case: TableCase,
    designs=None,
    alpha: float = 0.16,
    variant: Variant = Variant.KNOWN_LOCATION,
) -> list[TableCell]:
    """Run the relevant optimizer over a design grid, one cell per design.

    A failed cell carries its error message and empty values; the rest of
    the table is unaffected.
    """
    if designs is None:
        designs = [DesignPair(n1, n2, variant) for n2 in TABLE_GRID for n1 in TABLE_GRID]
    cells = []
    for design in designs:
        try:
            if case is TableCase.ALPHA:
                sol = optimal_alpha(design)
                a_star, k_star = sol.tuned_value, None
            elif case is TableCase.K_FIXED_ALPHA:
                sol = optimal_k(design, alpha)
                a_star, k_star = alpha, sol.tuned_value
            else:
                sol_a = optimal_alpha(design)
                sol = optimal_k(design, sol_a.tuned_value)
                a_star, k_star = sol_a.tuned_value, sol.tuned_value
            cells.append(
                TableCell(
                    design.n1, design.n2,
                    alpha_star=a_star, k_star=k_star,
                    regret_level=0.5 * (sol.regret_at_L + sol.regret_at_U),
                    delta_L=sol.delta_L, delta_U=sol.delta_U,
                )
            )
        except (SearchError, ValueError, ArithmeticError) as exc:
            cells.append(TableCell(design.n1, design.n2, error=str(exc)))
    return cells
