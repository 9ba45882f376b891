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

Each side's supremum is searched on one fixed log grid in delta, 200 nodes
a decade: the lower side spans [delta2/1e4, delta2], the upper side
(delta2, 1e4*delta2].  For alpha the lower side is cut at delta1, where the
regret jumps up as its reference switches from 1/n1 to r0; the node
delta1*(1 + 1e-9) carries the right-hand limit.  A side's grid sup is its
argmax lifted to the vertex of the parabola in log delta, never taken
across a cut.  The 15-level scan and Brent's root of reg_L - reg_U run on
these grid sups.  For K* they are array arithmetic on one table of
(h2, h1, h0 - rmin), since no coefficient depends on k; for alpha* each
level costs one grid evaluation.  The golden-section polish with the scalar
regret runs only at the root, which then takes one Newton step on the
polished residual, and the polished sups at the corrected root are the
reported solution.

Every risk here uses the ratio form of the acceptance bounds, the one the
Monte Carlo validation selects (see ``risk``); tuning has no other.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .optim import brent_root, golden_section_max
from .records import DesignPair
from .risk import (
    boundary_risks,
    pooled_risk_quadratic,
    pt_risk,
    risk_k_coefficients,
    risk_k_coefficients_grid,
)

_SPAN = 1e4                 # each side's grid spans this factor from the edge
_PER_DECADE = 200           # grid nodes per decade of delta
_JUMP = 1e-9                # first node past a window edge: edge * (1 + _JUMP)
_TIE_MARGIN = 1e-2          # polish every grid hump this close to the best one
_DOMAIN = (0.01, 0.99)      # the tuned value's search interval
_SCAN = tuple(np.linspace(*_DOMAIN, 15))
_ROOT_XTOL = 1e-4           # Brent on the grid residual; the Newton step does the rest
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


def _fixed_grid(edge: float, split: float | None = None):
    """(deltas, segments): both sides' log-spaced nodes around ``edge``.

    ``segments`` holds (start, stop) index ranges into ``deltas``; the last
    one is the upper side (edge, _SPAN*edge], the others make up the lower
    side [edge/_SPAN, edge].  A cut at ``split`` (delta1) ends one segment
    there and starts the next at delta1*(1 + _JUMP), the right-hand limit
    of the alpha regret's jump.  Nothing interpolates across a segment end.
    """
    ends = [(edge / _SPAN, edge)]
    if split is not None and ends[0][0] < split < edge:
        ends = [(edge / _SPAN, split), (split * (1.0 + _JUMP), edge)]
    ends.append((edge * (1.0 + _JUMP), edge * _SPAN))
    pieces = [
        np.geomspace(a, b, max(3, math.ceil(_PER_DECADE * math.log10(b / a)) + 1))
        for a, b in ends
    ]
    stops = np.cumsum([len(p) for p in pieces]).tolist()
    return np.concatenate(pieces), tuple(zip([0] + stops[:-1], stops))


def _side_max(deltas, values, segments):
    """(node, delta, value) of the largest segment maximum on one side.

    Each segment's argmax is lifted to the vertex of the parabola through it
    and its two neighbours in log delta; an argmax at a segment end stays on
    its node.
    """
    best = None
    for start, stop in segments:
        i = start + int(np.argmax(values[start:stop]))
        delta, value = deltas[i], values[i]
        if start < i < stop - 1:
            fm, fp = values[i - 1], values[i + 1]
            curv = fm - 2.0 * value + fp
            if curv < 0.0:
                p = 0.5 * (fm - fp) / curv
                delta = delta * (deltas[i + 1] / delta) ** p
                value = value - 0.25 * (fm - fp) * p
        if best is None or value > best[2]:
            best = (i, delta, value)
    return best


def _grid_sups(grid, values) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) read off the grid by the vertex scan."""
    deltas, segments = grid
    _, d_lo, r_lo = _side_max(deltas, values, segments[:-1])
    _, d_hi, r_hi = _side_max(deltas, values, segments[-1:])
    return float(d_lo), float(r_lo), float(d_hi), float(r_hi)


def _polished_sups(grid, values, regret) -> tuple[float, float, float, float]:
    """Golden-section polish of each side's grid maxima with the scalar regret.

    Every local maximum of a segment whose node lies within _TIE_MARGIN of
    the node that wins the vertex scan is polished, since a kinked hump can
    sit below its true height on the grid; usually that is the argmax alone.
    A polish brackets its node by the neighbours inside the same segment,
    and the node itself wins if the polish finds nothing higher.
    """
    deltas, segments = grid
    out = []
    for side in (segments[:-1], segments[-1:]):
        floor = values[_side_max(deltas, values, side)[0]] * (1.0 - _TIE_MARGIN)
        best = None
        for start, stop in side:
            seg = values[start:stop]
            left = np.concatenate(([-np.inf], seg[:-1]))
            right = np.concatenate((seg[1:], [-np.inf]))
            for i in start + np.flatnonzero((seg > left) & (seg >= right) & (seg >= floor)):
                lo = float(deltas[max(i - 1, start)])
                hi = float(deltas[min(i + 1, stop - 1)])
                x, fx = golden_section_max(regret, lo, hi)
                if values[i] > fx:
                    x, fx = deltas[i], values[i]
                if best is None or fx > best[1]:
                    best = (x, fx)
        out += [float(best[0]), float(best[1])]
    return tuple(out)


def sup_regret_pt(design: DesignPair, alpha: float) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) for the pre-test regret at level alpha.

    The lower side is cut at the window's lower edge delta1, where the
    regret jumps up as its reference switches from 1/n1 to r0.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    region = pooling_region(design)
    grid = _fixed_grid(region[1], split=region[0])
    return _polished_sups(
        grid,
        _regret_pt_grid(design, grid[0], alpha, region),
        lambda d: regret_pt(design, d, alpha),
    )


def _equalize(sups):
    """Root of reg_L - reg_U over the scan grid; golden fallback without one."""

    def g(t):
        _, r_lo, _, r_hi = sups(t)
        return r_lo - r_hi

    vals = [g(t) for t in _SCAN]
    for i in range(len(_SCAN) - 1):
        if vals[i] == 0.0:
            return float(_SCAN[i]), False
        if (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            return brent_root(g, float(_SCAN[i]), float(_SCAN[i + 1]), xtol=_ROOT_XTOL), False
    if vals[-1] == 0.0:
        return float(_SCAN[-1]), False

    def worst(t):
        _, r_lo, _, r_hi = sups(t)
        return -max(r_lo, r_hi)

    t, _ = golden_section_max(worst, *_DOMAIN)
    return t, True


def _bracket_slope(sups: dict, root: float) -> float:
    """Secant slope of the grid residual reg_L - reg_U across Brent's last bracket.

    ``sups`` holds every grid evaluation of the search.  The far end is the
    point nearest the root whose residual has the opposite sign (any point
    if the root's residual is exactly 0), so no new level is evaluated.
    """
    g = {t: s[1] - s[3] for t, s in sups.items()}
    others = [t for t in g if t != root]
    far = min(
        [t for t in others if (g[t] > 0.0) != (g[root] > 0.0)] or others,
        key=lambda t: abs(t - root),
    )
    return (g[far] - g[root]) / (far - root)


def _solve(grid_sups, sup, window, what: str) -> RegretSolution:
    """Equalized solution over the window (delta1, delta2), in plain floats.

    ``grid_sups`` maps the tuned value to the vertex-scan sups on the fixed
    grid, and ``sup`` to the golden-polished sups.  The scan and Brent's root
    run on the grid sups, each value evaluated once.  The root then gets one
    Newton step: the residual of the polished sups over the slope of the grid
    residual across Brent's last bracket.  The polish runs only there and at
    the corrected root, whose polished sups are the reported solution.
    ``what`` names the inputs in a SearchError.
    """
    memo = {}

    def sups(t):
        if t not in memo:
            memo[t] = grid_sups(t)
        return memo[t]

    try:
        t, fallback = _equalize(sups)
        d_lo, r_lo, d_hi, r_hi = sup(t)
        slope = 0.0 if fallback else _bracket_slope(memo, t)
        if slope != 0.0:
            t -= (r_lo - r_hi) / slope
            d_lo, r_lo, d_hi, r_hi = sup(t)
        values = (t, *window, d_lo, d_hi, r_lo, r_hi)
        return RegretSolution(*(float(v) for v in values), fallback)
    except SearchError as exc:
        raise SearchError(f"{what}: {exc}") from exc


def _design_label(design: DesignPair) -> str:
    return f"design ({design.n1}, {design.n2}) {design.variant.value}"


def optimal_alpha(design: DesignPair) -> RegretSolution:
    """Pre-test level equalizing the two regret maxima."""
    region = pooling_region(design)
    grid = _fixed_grid(region[1], split=region[0])
    return _solve(
        lambda a: _grid_sups(grid, _regret_pt_grid(design, grid[0], a, region)),
        lambda a: sup_regret_pt(design, a),
        region,
        f"alpha* at {_design_label(design)}",
    )


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


def _shrink_terms(design, deltas, alpha):
    """(h2, h1, h0 - rmin) over deltas: the shrinkage regret is h2*k^2 + h1*k + that."""
    h2, h1, h0 = risk_k_coefficients_grid(design, deltas, alpha)
    rmin = np.minimum(h0, h2 + h1 + h0)
    pos = h2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.where(pos, -h1 / (2.0 * h2), -1.0)
        vertex = np.where(pos, h0 - h1 * h1 / (4.0 * h2), np.inf)
    interior = pos & (k0 > 0.0) & (k0 < 1.0)
    rmin = np.where(interior, np.minimum(rmin, vertex), rmin)
    return h2, h1, h0 - rmin


def _regret_shrink_table(terms, k):
    h2, h1, c = terms
    return np.maximum(0.0, h2 * k * k + h1 * k + c)


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
    grid = _fixed_grid(crossings[1])
    return _polished_sups(
        grid,
        _regret_shrink_table(_shrink_terms(design, grid[0], alpha), k),
        lambda d: regret_shrink(design, d, alpha, k),
    )


def optimal_k(design: DesignPair, alpha: float) -> RegretSolution:
    """Shrinkage weight equalizing the two regret maxima at a fixed level alpha.

    No coefficient depends on k, so one grid of (h2, h1, h0 - rmin) serves
    every k the search visits.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    crossings = pt_risk_crossings(design, alpha)
    grid = _fixed_grid(crossings[1])
    terms = _shrink_terms(design, grid[0], alpha)
    return _solve(
        lambda k: _grid_sups(grid, _regret_shrink_table(terms, k)),
        lambda k: sup_regret_shrink(design, alpha, k, crossings),
        crossings,
        f"K* at {_design_label(design)}, alpha={alpha}",
    )


TABLE_GRID = (2, 3, 4, 5, 7, 10)


def generate_tables(case: TableCase, designs, alpha: float = 0.16) -> list[TableCell]:
    """Run the relevant optimizer over a list of designs, one cell per design.

    A failed cell carries its error message and empty values; the rest of
    the table is unaffected.
    """
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
