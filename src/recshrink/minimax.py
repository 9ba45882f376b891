"""Minimax-regret tuning of the pre-test level alpha* and shrinkage weight K*.

Both tunings equalize the two local maxima of a regret curve in delta: the
regret of the tuned rule peaks once at delta_L below the upper edge delta2
of the central pooling window and once at delta_U above it, and the tuned
value is the root of reg_L(t) - reg_U(t).

For alpha*, regret measures the pre-test risk against the always-pool risk
r0 inside a central window and against the MLE risk r1 = 1/n1 outside.
The window's upper edge delta2 is the upper crossing of r0 with r1; its
lower edge delta1 is max(d1, 1/delta2), where d1 is the algebraic lower
crossing, which is nonpositive for small unbalanced designs.  At known
location 1/delta2 is always the larger, so the window is the reciprocal
one the tabulated reference grids equalize over, and it reproduces them at
every design; with d1 alone the small-n2 column is off by up to 0.05.
Under location-scale d1 is the larger at 11,084 of the 22,201 designs with
n1, n2 in 2..150.

For K*, regret measures the risk at coefficient k against its pointwise
minimum over k in [0, 1] (an exact quadratic), and delta2 is the upper
crossing of the pre-test risk with 1/n1.

Each tuned value is a root of reg_L(t) - reg_U(t), found by safeguarded
Newton on the two heights (``_newton``).  By Danskin's (1967) envelope
theorem a height's slope in t is the regret's slope at its argmax: the
alpha* regret's is d(h2 + h1)/d alpha (``risk.pt_risk_alpha_slope``), since
no reference depends on alpha, and the K* regret's is 2 h2 k + h1, wherever
the regret is positive.  When Newton fails before two levels differ in
sign, the residual at the two ends of the domain (0.01, 0.99) decides:
ends of opposite signs bracket the root, and ends of one sign mean there
is none, so golden-section search with parabolic steps minimizes the
larger height instead, and an end of the domain wins where it is lower.
The only other roots, the K* window's crossings with 1/n1, follow
``_first_root``: Brent's (1973) root in the first pair of rungs
delta = 2^(+-j/4), j = 0..120, read from 1 out, where the residual changes
sign, an exact 0 included.

Each side's supremum is searched on one fixed log grid in delta, 200 nodes
a decade: the lower side spans [delta2/1e4, delta2], the upper side
(delta2, 1e4*delta2].  For alpha the lower side is cut at delta1, where the
regret jumps up as its reference switches from 1/n1 to r0; the node
delta1*(1 + 1e-9) carries the right-hand limit.  A side's height on the
grid is its argmax's value lifted to the vertex of the parabola in log
delta, never taken across a cut.  Newton reads only these two heights,
reg_L and reg_U, and the slope at each side's argmax node; the end test
and the golden fallback read only the heights.  For K* they are array
arithmetic on one table of (h2, h1, h0 - rmin), since no coefficient
depends on k; for alpha* each level costs one grid evaluation.  The
polish with the scalar regret, Brent's golden-section search with
parabolic steps to sqrt(machine eps) relative in delta, runs only at the
root, which then takes one Newton step on the polished residual, with the
slopes at the two polished peaks, and a second if the first leaves the
polished sups apart by more than the equalization check allows.  The
polished sups at the last corrected root are the reported solution: the
peak positions delta_L and delta_U come from the polish alone.  A peak on
a segment's end node from which the regret falls into the segment, by
the sign of its slope in delta, is that node and is not polished: a
polish there would only close in on the node.  That slope is closed-form:
d(h2 + h1)/d delta (``risk.coefficients_delta_slope``), less r0'(delta)
inside the window, for alpha*, and for K*, by Danskin's theorem on the
inner minimum over weights, dh2 (k^2 - k'^2) + dh1 (k - k'), with k' the
best weight at that delta.  Each
solve, alpha* or K*, holds one search state: its window, grid, grid
regret, scalar regret, tail bound, both slopes, and the two heights, node
values, span and argmax nodes of every level it has read, so no level is
tabulated twice; only the polish looks for peaks, at the two levels it
reads.  A K* state also keeps the table of (h2, h1, h0 - rmin) and the
scalar (h2, h1, h0) of every delta a polish has visited, so its two
polishes build nothing twice; its slopes read the coefficients off the
table at a grid node and off those coefficients at a polished peak.

A level reads only the part of the grid that a closed-form tail bound
certifies (``risk._tail_bound``), for alpha* and K* alike.  Outside the
alpha window the regret is max(0, h2 + h1), and the K* regret is at most
|h2| + |h1| at every delta; the bound caps |h2| + |h1| at every delta
beyond a given one from power-law tails of the five brackets: it falls
like delta^-m2 above the edge and like delta^(m1+i+j) below it, with no
incomplete beta.  The grid sets the span each level reads first: each side
to 1e2 times the edge, and the alpha* lower side at least to delta1, since
inside the window the bound says nothing.  The K* bound holds at every
delta, so the K* search reads only the window's upper edge.  A side reads
the rest of its side of the grid if its argmax sits on its end node or the
bound at that node exceeds its largest node value.  Once the bound is at
or below that value, nothing beyond the end can exceed it, so a lesser
peak on the end node cannot change the side's polished sup.  Every node
read is a node of the whole grid, so a certified level has the whole
grid's sups and the solution its bits; and no level's span depends on the
levels read before it.  A K* level reads its nodes off the table built
once per solve; the bound does not depend on k, so each solve evaluates it
once per node it is asked at.

Every risk here uses the ratio form of the acceptance bounds, the one the
Monte Carlo validation selects (see ``risk``); tuning has no other.
"""

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .estimators import check_k, check_level
from .optim import brent_root, golden_section_max
from .records import DesignPair
from .risk import (
    _tail_bound,
    boundary_risks,
    coefficients_delta_slope,
    pooled_risk_quadratic,
    pt_risk,
    pt_risk_alpha_slope,
    risk_k_coefficients,
    risk_k_coefficients_grid,
)

_SPAN = 1e4                 # each side's grid spans this factor from the edge
_START_SPAN = 1e2           # each side's first span from the edge; alpha*'s lower reaches delta1
_PER_DECADE = 200           # grid nodes per decade of delta
_JUMP = 1e-9                # first node past a window edge: edge * (1 + _JUMP)
_TIE_MARGIN = 1e-2          # polish every grid hump this close to the best one
_DOMAIN = (0.01, 0.99)      # the tuned value's search interval
_ROOT_XTOL = 3e-5           # Newton stops at this step on the grid residual
_NEWTON_START = 0.25        # the Newton search's first level
_MAX_NEWTON = 50            # levels a Newton search reads at most
_LADDER = tuple(2.0 ** (j / 4) for j in range(121))  # crossing rungs up from delta = 1
_CROSSING_XTOL = 1e-9       # Brent's step tolerance on a crossing between two rungs


class SearchError(RuntimeError):
    """A regret search failed to bracket what it was looking for."""


class TableCase(Enum):
    """Which tuning a reference-table run optimizes."""

    ALPHA = "alpha"
    K_FIXED_ALPHA = "k_fixed_alpha"
    K_OPTIMAL_ALPHA = "k_optimal_alpha"


def _tied(reg_L: float, reg_U: float) -> bool:
    """Whether two regret maxima are equalized: |reg_L - reg_U| within 1e-4 relative.

    Relative to the regret level, which falls like 1/n, and never looser
    than the absolute 1e-4 for levels above 1.
    """
    return abs(reg_L - reg_U) <= 1e-4 * min(1.0, max(reg_L, reg_U))


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
        if not (self.fallback or _tied(self.regret_at_L, self.regret_at_U)):
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
    fallback: str | None = None


def delta_intersections(design: DesignPair) -> tuple[float, float]:
    """Ascending real roots of r0(delta) = r1.

    Every design has lo < 1 < hi: r0 opens upward, and at delta = 1 it is
    1/N at known location and (N + 2)/N^2 under location-scale, both below
    r1 = 1/n1.  The lower root is nonpositive whenever pooling beats the
    single-sample MLE at every small delta (all n2 = 2 designs, for
    instance); callers that need a positive window use ``pooling_region``
    instead.
    """
    a, b, c = pooled_risk_quadratic(design)
    r1 = 1.0 / design.n1
    disc = b * b - 4.0 * a * (c - r1)
    root = math.sqrt(disc)
    lo = (-b - root) / (2.0 * a)
    hi = (-b + root) / (2.0 * a)
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
    return _regret_pt(design, delta, alpha, pooling_region(design))


def _regret_pt(design, delta, alpha, region):
    lo, hi = region
    h2, h1, h0 = risk_k_coefficients(design, delta, alpha)
    ref = boundary_risks(design, delta)[0] if lo < delta < hi else h0
    return max(0.0, h2 + h1 + h0 - ref)


def _fixed_grid(edge: float, split: float | None = None):
    """(deltas, segments, span): both sides' log-spaced nodes around ``edge``.

    ``segments`` holds (start, stop) index ranges into ``deltas``; the last
    one is the upper side (edge, _SPAN*edge], the others make up the lower
    side [edge/_SPAN, edge].  A cut at ``split`` (delta1) ends one segment
    there and starts the next at delta1*(1 + _JUMP), the right-hand limit
    of the alpha regret's jump.  Nothing interpolates across a segment end.
    ``span`` is the (start, stop) index range every level reads first: from
    the first node at or above min(split, edge/_START_SPAN), so a side cut
    at delta1 starts at or below it, to the last node at or below
    _START_SPAN*edge*(1 + _JUMP).
    """
    ends = [(edge / _SPAN, edge)]
    if split is not None and ends[0][0] < split < edge:
        ends = [(edge / _SPAN, split), (split * (1.0 + _JUMP), edge)]
    ends.append((edge * (1.0 + _JUMP), edge * _SPAN))
    pieces = [
        np.geomspace(a, b, max(3, math.ceil(_PER_DECADE * math.log10(b / a)) + 1))
        for a, b in ends
    ]
    deltas = np.concatenate(pieces)
    stops = np.cumsum([len(p) for p in pieces]).tolist()
    low = edge / _START_SPAN if split is None else min(split, edge / _START_SPAN)
    span = (int(np.searchsorted(deltas, low)),
            int(np.searchsorted(deltas, edge * _START_SPAN * (1.0 + _JUMP), side="right")))
    return deltas, tuple(zip([0] + stops[:-1], stops)), span


def _side_scan(values, segments, lo, hi):
    """(height, top, node) of one side of a table, over its segments clipped to [lo, hi).

    ``height`` is the side's height on the grid, the largest segment
    maximum: each segment's argmax lifted to the vertex of the parabola
    through it and its two neighbours in log delta, whose nodes are evenly
    spaced, while an argmax at a segment end keeps its node value.  ``top``
    is the largest node value and ``node`` the index of the winning
    segment's argmax.  Values come out as plain floats.
    """
    best, top = None, -math.inf
    for start, stop in segments:
        start, stop = max(start, lo), min(stop, hi)
        seg = values[start:stop]
        j = int(seg.argmax())
        value = float(seg[j])
        top = max(top, value)
        if 0 < j < stop - start - 1:
            fm, _, fp = seg[j - 1:j + 2].tolist()
            curv = fm - 2.0 * value + fp
            if curv < 0.0:
                value -= 0.25 * (fm - fp) * (0.5 * (fm - fp) / curv)
        if best is None or value > best[0]:
            best = (value, start + j)
    return best[0], top, best[1]


@dataclass
class _Search:
    """What one solve of alpha* or K* at a fixed design reads, built once.

    ``window`` is the solution's (delta1, delta2) and ``grid`` the fixed
    grid around delta2, (deltas, segments, span) from ``_fixed_grid``;
    ``table(t, nodes)`` is the regret at tuned value t over
    ``grid[0][nodes]`` and ``regret(delta, t)`` the scalar regret the
    polish reads.  ``bound(t, delta, upper)`` bounds the regret at every
    delta' beyond delta (above it if ``upper``).  Every level first reads
    the grid's span, and a side reads the rest of its side of the grid if
    its argmax sits on its end node or the bound at that node exceeds its
    largest node value.  A side's nodes are thus a run of the whole grid's
    ending at the edge, read the same at any span, and a level reads the
    same whatever levels were read before it.  ``levels`` holds, for every
    level read so far, its two heights (reg_L, reg_U), its node values, its
    span (lo, hi) and each side's argmax node, so Newton, the end test, the
    golden fallback and the polish tabulate each level once.
    ``slope(t, delta)`` is the regret's slope in t at delta, which
    ``residual_slope`` reads at each side's peak, and
    ``delta_slope(t, delta)`` its slope in delta, which the polish reads at
    a peak on a segment's end node.  The state belongs to one solve: the
    next solve starts empty, as a fresh process would.
    """

    window: tuple[float, float]
    grid: tuple
    table: Callable[[float, object], np.ndarray]
    regret: Callable[[float, float], float]
    bound: Callable[[float, float, bool], float]
    slope: Callable[[float, float], float]
    delta_slope: Callable[[float, float], float]
    levels: dict = field(default_factory=dict, init=False)

    def grid_sups(self, t: float) -> tuple[float, float]:
        """(reg_L, reg_U): each side's height on the grid at level t, tabulated once."""
        if t in self.levels:
            return self.levels[t][0]
        deltas, segments, span = self.grid
        values = np.empty(len(deltas))  # a side's nodes sit at their grid indices
        span = list(span)
        values[slice(*span)] = self.table(t, slice(*span))
        sides = []
        for part, cap, end, upper in ((segments[:-1], 0, span[0], False),
                                      (segments[-1:], len(deltas), span[1] - 1, True)):
            _, top, node = side = _side_scan(values, part, *span)
            # node == end stays: the end's float regret can be noise above the bound
            if span[upper] != cap and (node == end
                                       or self.bound(t, float(deltas[end]), upper) > top):
                rest = slice(*sorted((span[upper], cap)))  # the rest of this side of the grid
                values[rest] = self.table(t, rest)
                span[upper] = cap
                side = _side_scan(values, part, *span)
            sides.append(side)
        heights, _, argmaxes = zip(*sides)
        self.levels[t] = (heights, values, tuple(span), argmaxes)
        return heights

    def polished_sups(self, t: float) -> tuple[float, float, float, float]:
        """Polish of each side's grid maxima with the scalar regret.

        A side's peaks are the local maxima of its segments, clipped to the
        level's span, within _TIE_MARGIN of its argmax node; a segment end
        counts its missing side as lower.  A peak on the first node of its
        clipped segment whose ``delta_slope`` is <= 0, or on the last whose
        slope is >= 0, is that node with its grid value: the regret falls
        from it into the segment, where a polish would only return toward
        it (the alpha* lower peak on delta1's jump, most often).  Every
        other peak is polished, since a kinked hump can sit below its true
        height on the grid; usually that is the argmax alone.  A polish
        brackets its node by its neighbours inside its segment, and the
        node itself wins if the polish finds nothing higher.  Each polish
        is ``golden_section_max``, golden-section search with parabolic
        steps: about 10 scalar regrets on a smooth hump, more at a kink,
        and a position to sqrt(machine eps) relative in delta, which is as
        close as the regret's rounding lets a flat hump's argmax be told
        apart.
        """
        self.grid_sups(t)
        _, values, (lo, hi), argmaxes = self.levels[t]
        deltas, segments, _ = self.grid
        out = []
        for part, node in zip((segments[:-1], segments[-1:]), argmaxes):
            floor = float(values[node]) * (1.0 - _TIE_MARGIN)
            found = []  # each peak's polish, if it has one, then its node
            for start, stop in part:
                start, stop = max(start, lo), min(stop, hi)
                seg = values[start:stop].tolist()
                for j in (values[start:stop] >= floor).nonzero()[0].tolist():
                    v, i = seg[j], start + j
                    first, last = j == 0, j == len(seg) - 1
                    if (first or v > seg[j - 1]) and (last or v >= seg[j + 1]):
                        if first or last:  # an end node the regret falls away from stays
                            dr = self.delta_slope(t, float(deltas[i]))
                            if (first and dr <= 0.0) or (last and dr >= 0.0):
                                found.append((deltas[i], v))
                                continue
                        found += [golden_section_max(lambda d: self.regret(d, t),
                                                     float(deltas[max(i - 1, start)]),
                                                     float(deltas[min(i + 1, stop - 1)])),
                                  (deltas[i], v)]
            # the first of the highest wins: a polish over its node, a peak over a later one
            out += [float(x) for x in max(found, key=lambda p: p[1])]
        return tuple(out)

    def residual_slope(self, t: float, peaks=None) -> float:
        """Slope in t of reg_L - reg_U at level t, from each side's peak (delta, height).

        By Danskin's envelope theorem a height moves with the regret's slope
        in t at its argmax; a height of 0 has slope 0.  Without ``peaks``,
        each side's peak is its argmax node at a level already read, with
        its height on the grid.
        """
        if peaks is None:
            peaks = zip(self.grid[0][list(self.levels[t][3])], self.levels[t][0])
        lo, hi = (float(self.slope(t, float(d))) if h > 0.0 else 0.0 for d, h in peaks)
        return lo - hi


def _alpha_search(design: DesignPair) -> _Search:
    """alpha* state: the pooling window, with the grid's lower side cut at delta1.

    The reference over the grid, r0 inside the window and r1 = 1/n1
    outside, is built once; a level tabulates only the nodes its certified
    span reads, and ``_tail_bound`` certifies them.
    """
    lo, hi = region = pooling_region(design)
    grid = _fixed_grid(hi, split=lo)
    deltas = grid[0]
    r0, r1 = boundary_risks(design, deltas)
    ref = np.where((deltas > lo) & (deltas < hi), r0, r1)

    def table(a, nodes):
        h2, h1, h0 = risk_k_coefficients_grid(design, deltas[nodes], a)
        return np.maximum(0.0, h2 + h1 + h0 - ref[nodes])

    a0, b0, _ = pooled_risk_quadratic(design)

    def delta_slope(a, d):
        # d(h2 + h1)/d delta, less r0'(delta) = 2 a0 delta + b0 inside the window
        dh2, dh1 = coefficients_delta_slope(design, d, a)
        return dh2 + dh1 - (2.0 * a0 * d + b0 if lo < d < hi else 0.0)

    return _Search(region, grid, table, lambda d, a: _regret_pt(design, d, a, region),
                   functools.partial(_tail_bound, design),
                   lambda a, d: pt_risk_alpha_slope(design, d, a), delta_slope)


def sup_regret_pt(
    design: DesignPair, alpha: float, search: _Search | None = None
) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) for the pre-test regret at level alpha.

    The lower side is cut at the window's lower edge delta1, where the
    regret jumps up as its reference switches from 1/n1 to r0.  ``search``
    is the state of an alpha* solve at this design, so a level it has read
    is polished without being tabulated again; without one, a fresh state
    is built.  The result is the same either way.
    """
    if search is None:
        search = _alpha_search(design)
    return search.polished_sups(alpha)


def _first_root(f, ladder) -> float | None:
    """Brent's root of f in the first pair of consecutive ladder points where f changes sign.

    An exact 0 counts as a change; None if no pair changes sign.  f is read
    once per point as the lazy ladder goes, and Brent reads its pair's ends
    again, so f should be memoized.  ``pt_risk_crossings`` finds the K*
    window's edges with it; the tunings' own root is ``_newton``'s.
    """
    for (t0, f0), (t1, f1) in itertools.pairwise((t, f(t)) for t in ladder):
        if min(f0, f1) <= 0.0 <= max(f0, f1):
            return brent_root(f, t0, t1, xtol=_CROSSING_XTOL)
    return None


def _newton(sups, slope) -> tuple[float, bool]:
    """(root, fallback) of reg_L - reg_U by safeguarded Newton on the grid heights.

    ``sups(t)`` is the pair of heights (reg_L, reg_U) at level t, memoized,
    and ``slope(t)`` the slope of their difference, each height's its
    envelope slope at the side's argmax node.  Once two levels differ in
    sign they bracket the root, and a step that leaves the bracket, or
    follows one that did not halve |reg_L - reg_U|, bisects it.  Before
    that, Newton fails if a step leaves _DOMAIN (a zero slope points out of
    it) or a level keeps the sign without halving the residual; then the
    residual at the two ends of _DOMAIN decides.  An exact 0 there is the
    root, ends of opposite signs bracket it with the last level read, and
    ends of one sign mean there is no root: the golden fallback minimizes
    the larger height inside _DOMAIN, and an end of _DOMAIN, read already,
    replaces golden's point only where its larger height is lower.  The
    root is the last level read, once the next step falls below _ROOT_XTOL.
    """

    def residual(t):
        r_lo, r_hi = sups(t)
        return r_lo - r_hi

    g, t, halved = residual(_NEWTON_START), _NEWTON_START, True
    last = {g > 0.0: t}  # the last level read on each side of the root
    for _ in range(_MAX_NEWTON):
        dg = slope(t)
        step = -g / dg if dg != 0.0 else math.inf
        if len(last) == 1 and not (halved and _DOMAIN[0] <= t + step <= _DOMAIN[1]):
            at_ends = [residual(end) for end in _DOMAIN]
            if 0.0 in at_ends:
                return _DOMAIN[at_ends.index(0.0)], False
            if (at_ends[0] > 0.0) == (at_ends[1] > 0.0):
                t = golden_section_max(lambda t: -max(sups(t)), *_DOMAIN)[0]
                return min((t, *_DOMAIN), key=lambda t: max(sups(t))), True
            # the end of the other sign joins t, which stays on its side
            last = {g_end > 0.0: end for end, g_end in zip(_DOMAIN, at_ends)} | last
        if len(last) == 2 and not (halved and min(last.values()) <= t + step <= max(last.values())):
            step = 0.5 * sum(last.values()) - t  # bisect the bracket
        if abs(step) < _ROOT_XTOL:
            return t, False
        t, g_new = t + step, residual(t + step)
        halved, g, last[g_new > 0.0] = abs(g_new) <= 0.5 * abs(g), g_new, t
    raise SearchError(f"no root of reg_L - reg_U in {_MAX_NEWTON} Newton levels")


def _solve(search: _Search, sup, what: str) -> RegretSolution:
    """Equalized solution over the search's window, in plain floats.

    Safeguarded Newton (``_newton``) finds the root of the two grid heights
    or, with none over _DOMAIN, the golden fallback.  A root then takes a
    Newton step on the polished sups ``sup``, their residual over the slope
    at the two polished peaks, clamped into _DOMAIN, and a second only if
    the first leaves them not ``_tied``.  The polish runs only at the grid
    root and at each corrected root; the last polished sups are the
    reported solution.  ``what`` names the inputs in a SearchError.
    """
    try:
        t, fallback = _newton(search.grid_sups, search.residual_slope)
        d_lo, r_lo, d_hi, r_hi = sup(t)
        for _ in range(0 if fallback else 2):
            dg = search.residual_slope(t, ((d_lo, r_lo), (d_hi, r_hi)))
            if dg == 0.0:
                break
            t = min(max(t - (r_lo - r_hi) / dg, _DOMAIN[0]), _DOMAIN[1])
            d_lo, r_lo, d_hi, r_hi = sup(t)
            if _tied(r_lo, r_hi):
                break
        return RegretSolution(*map(float, (t, *search.window, d_lo, d_hi, r_lo, r_hi)), fallback)
    except SearchError as exc:
        raise SearchError(f"{what}: {exc}") from exc


def _design_label(design: DesignPair) -> str:
    return f"design ({design.n1}, {design.n2}) {design.variant.value}"


def optimal_alpha(design: DesignPair) -> RegretSolution:
    """Pre-test level equalizing the two regret maxima.

    One search state serves every level the solve visits: Newton reads its
    two heights, and both polishes its memo of node values.
    """
    search = _alpha_search(design)
    return _solve(search, lambda a: sup_regret_pt(design, a, search),
                  f"alpha* at {_design_label(design)}")


def _inf_quadratic(h2: float, h1: float, h0: float) -> tuple[float, float]:
    """Minimum of h2*k^2 + h1*k + h0 over k in [0, 1]; smallest k wins ties.

    A non-convex or degenerate quadratic (h2 <= 0) compares endpoints only.
    The candidates are taken in ascending k, each by a strict comparison.
    """
    best_k, best_r = 0.0, h0
    if h2 > 0.0:
        k0 = -h1 / (2.0 * h2)
        if 0.0 < k0 < 1.0:
            r = h0 - h1 * h1 / (4.0 * h2)
            if r < best_r:
                best_k, best_r = k0, r
    r = h2 + h1 + h0
    if r < best_r:
        best_k, best_r = 1.0, r
    return best_k, best_r


def inf_k_risk(design: DesignPair, delta: float, alpha: float) -> tuple[float, float]:
    """(k, risk) minimizing the shrinkage risk over k in [0, 1] at this delta."""
    h2, h1, h0 = risk_k_coefficients(design, delta, alpha)
    return _inf_quadratic(h2, h1, h0)


def _shrink_regret(h2: float, h1: float, h0: float, k: float) -> float:
    """Excess of the risk h2*k^2 + h1*k + h0 over its minimum over weights."""
    _, rmin = _inf_quadratic(h2, h1, h0)
    return max(0.0, h2 * k * k + h1 * k + h0 - rmin)


def regret_shrink(design: DesignPair, delta: float, alpha: float, k: float) -> float:
    """Excess risk of shrinkage weight k over the best weight at this delta."""
    check_k(k)
    return _shrink_regret(*risk_k_coefficients(design, delta, alpha), k)


def pt_risk_crossings(design: DesignPair, alpha: float) -> tuple[float, float]:
    """(lo, hi) where the pre-test risk crosses the MLE risk 1/n1 around its dip at delta = 1.

    The dip is tested on ``pt_risk`` itself.  The crossings are roots of
    h2 + h1 from ``risk_k_coefficients``, pt_risk - 1/n1 without its
    rounding against 1/n1, on _LADDER read up from 1 for hi and on its
    reciprocals read down for lo; lo is 0.0 if none lies above 2^-30.
    """
    if not pt_risk(design, 1.0, alpha) < 1.0 / design.n1:
        raise SearchError(f"no pooling advantage at delta=1 for {design}, alpha={alpha}")

    @functools.cache  # Brent starts from two rungs the ladder has read
    def excess(d):
        h2, h1, _ = risk_k_coefficients(design, d, alpha)
        return h2 + h1

    upper = _first_root(excess, _LADDER)
    if upper is None:
        raise SearchError(f"pre-test risk never re-crosses 1/n1 above the dip for {design}")
    return _first_root(excess, (1.0 / d for d in _LADDER)) or 0.0, upper


def _shrink_search(design: DesignPair, alpha: float) -> _Search:
    """K* state at a fixed level alpha: the crossings' window and grid around the upper one.

    No coefficient depends on k, so every weight the solve visits shares
    the grid table of (h2, h1, h0 - rmin), of which a level reads only its
    certified nodes, and the scalar (h2, h1, h0) at each delta a polish has
    evaluated.  ``_tail_bound`` bounds the K* regret at every delta and not
    through k, so it is evaluated once per end node and side.
    """
    crossings = pt_risk_crossings(design, alpha)
    grid = _fixed_grid(crossings[1])
    h2, h1, h0 = risk_k_coefficients_grid(design, grid[0], alpha)
    rmin = np.minimum(h0, h2 + h1 + h0)
    pos = h2 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.where(pos, -h1 / (2.0 * h2), -1.0)
        vertex = np.where(pos, h0 - h1 * h1 / (4.0 * h2), np.inf)
    interior = pos & (k0 > 0.0) & (k0 < 1.0)
    c = h0 - np.where(interior, np.minimum(rmin, vertex), rmin)

    def table(k, nodes):
        # h2*k*k + h1*k + c, in place and in that order
        out = h2[nodes] * k
        out *= k
        out += h1[nodes] * k
        out += c[nodes]
        return np.maximum(0.0, out, out=out)

    coefficients = functools.cache(lambda delta: risk_k_coefficients(design, delta, alpha))

    def regret(delta, k):
        check_k(k)
        return _shrink_regret(*coefficients(delta), k)

    def at(delta):
        # (h2, h1, h0): off the table at a grid node, else from a polish's coefficients
        i = min(int(np.searchsorted(grid[0], delta)), len(grid[0]) - 1)
        return (h2[i], h1[i], h0) if grid[0][i] == delta else coefficients(delta)

    def slope(k, delta):
        a, b, _ = at(delta)
        return 2.0 * a * k + b

    def delta_slope(k, delta):
        # Danskin: the inner minimum at its minimizer k' moves as dh2 k'^2 + dh1 k'
        k_min, _ = _inf_quadratic(*at(delta))
        dh2, dh1 = coefficients_delta_slope(design, delta, alpha)
        return dh2 * (k * k - k_min * k_min) + dh1 * (k - k_min)

    tail = functools.cache(functools.partial(_tail_bound, design, alpha))
    return _Search(crossings, grid, table, regret, lambda k, d, upper: tail(d, upper), slope,
                   delta_slope)


def sup_regret_shrink(
    design: DesignPair,
    alpha: float,
    k: float,
    search: _Search | None = None,
) -> tuple[float, float, float, float]:
    """(delta_L, reg_L, delta_U, reg_U) for the shrinkage regret at weight k.

    ``search`` is the state of a K* solve at this design and alpha, so its
    two polishes share one grid table and each delta's coefficients;
    without one, a fresh state is built.  The result is the same either
    way.
    """
    check_k(k)  # a NaN table has no hump for the polish to check k in
    if search is None:
        search = _shrink_search(design, alpha)
    return search.polished_sups(k)


def optimal_k(design: DesignPair, alpha: float) -> RegretSolution:
    """Shrinkage weight equalizing the two regret maxima at a fixed level alpha.

    One search state serves every k the solve visits: Newton reads its two
    heights, and both polishes its table and memo of scalar coefficients.
    """
    check_level(alpha)
    search = _shrink_search(design, alpha)
    return _solve(search, lambda k: sup_regret_shrink(design, alpha, k, search),
                  f"K* at {_design_label(design)}, alpha={alpha}")


TABLE_GRID = (2, 3, 4, 5, 7, 10)


def generate_tables(case: TableCase, designs, alpha: float = 0.16) -> list[TableCell]:
    """Run the relevant optimizer over a list of designs, one cell per design.

    ``regret_level`` is the larger of the two regret maxima, and
    ``fallback`` names each solve that found no equalizer: "alpha*",
    "K* at alpha=<alpha>" or, in the chained case, "K*(alpha*)".  A failed
    cell carries its error message and empty values; the rest of the table
    is unaffected.  Table 2's level ``alpha`` is checked once, before any
    cell, and raises ValueError; the other cases tune their own alpha* and
    ignore it.
    """
    if case is TableCase.K_FIXED_ALPHA:
        check_level(alpha)
    cells = []
    for design in designs:
        try:
            if case is TableCase.ALPHA:
                sol = optimal_alpha(design)
                a_star, k_star, named = sol.tuned_value, None, {"alpha*": sol}
            elif case is TableCase.K_FIXED_ALPHA:
                sol = optimal_k(design, alpha)
                a_star, k_star, named = alpha, sol.tuned_value, {f"K* at alpha={alpha:g}": sol}
            else:
                sol_a = optimal_alpha(design)
                sol = optimal_k(design, sol_a.tuned_value)
                a_star, k_star = sol_a.tuned_value, sol.tuned_value
                named = {"alpha*": sol_a, "K*(alpha*)": sol}
            fallback = " and ".join(name for name, s in named.items() if s.fallback)
            cells.append(
                TableCell(
                    design.n1, design.n2,
                    alpha_star=a_star, k_star=k_star,
                    regret_level=max(sol.regret_at_L, sol.regret_at_U),
                    delta_L=sol.delta_L, delta_U=sol.delta_U,
                    fallback=fallback or None,
                )
            )
        except (SearchError, ValueError, ArithmeticError) as exc:
            cells.append(TableCell(design.n1, design.n2, error=str(exc)))
    return cells
