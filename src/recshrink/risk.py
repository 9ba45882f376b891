"""Exact bias, MSE, and weighted-loss risk of the pre-test and shrinkage rules.

Write G_i for the gamma pivot of series i, so mle_i = theta_i * G_i / n_i
with shape m_i (= n_i for a known location, n_i - 1 otherwise).  The
acceptance event {c1 < mle1/mle2 < c2} becomes {d1 < B < d2} for
B = G1/(G1+G2) ~ Beta(m1, m2), with

    d_j = c_j*n1*delta / (c_j*n1*delta + n2),       delta = theta2/theta1.

Truncated pivot moments then reduce to differences of the regularized
incomplete beta at shifted shapes, and under the weighted loss
L(d; t) = (d-t)^2/t^2 the risk of the shrinkage rule is an exact quadratic
in the coefficient k:

    risk(delta, k) = h2(delta)*k^2 + h1(delta)*k + h0,    h0 = 1/n1,

with k = 1 giving the pre-test rule and k = 0 the bare MLE.  h0 is exactly
the float 1/n1, the single-sample MLE risk r1.  The always-pool risk

    r0(delta) = (m1 + m2*delta^2 + (m2*delta + m1 - N)^2) / N^2,  N = n1 + n2,

needs only the pivot moments; ``boundary_risks`` returns both references.
The MSE in original units is theta1^2 times the risk; only the bias needs a
moment of its own.  This ratio form is the only bound map here.  The linear
map d_j = 1 - n2/(c_j*n1*delta) that circulates in print lives only in the
Monte Carlo validation in ``sim`` (``recshrink validate``), which rejects
it; it reaches the risk through ``coefficients_at_bounds``, which takes the
bounds themselves.

The five brackets I_{d2} - I_{d1} sit at the shifted shapes (m1+i, m2+j).
Each needs only the base values I_d(m1, m2) at the two bounds and the front
factor t = d^m1 (1-d)^m2 / B(m1, m2) there: by the recurrences
I_x(a+1, b) = I_x(a, b) - t/a and I_x(a, b+1) = I_x(a, b) + t/b
(Abramowitz & Stegun 26.5.16), every shift is a multiple of t.  A bracket is
the base difference plus the difference of its shift terms, so it stays an
exact 0 when both bounds coincide.

Floats and arrays of bounds share one arithmetic.  ``_brackets`` takes the
base difference and the front factors at both bounds, from two scalar
``reg_inc_beta`` calls and ``special._front`` for float bounds (a size-1 grid
call would cost more than ten times as much) or from one
``reg_inc_beta_grid`` call over both arrays, and forms the five brackets
elementwise; ``_coeffs`` turns them into (h2, h1, h0).  Both read the
per-design constants that ``_quadratic_constants`` caches.

``pt_risk_alpha_slope`` is d pt_risk/d alpha in closed form, with no
incomplete beta: each bound moves with its critical value, and the risk
moves with a bound by the Beta density there times a conditional moment.
``coefficients_delta_slope`` is d(h2, h1)/d delta at a float delta: the
delta weights of the brackets, plus the same bound terms, since each
bound moves with delta too.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimators import check_alpha, check_k, critical_values
from .records import DesignPair, check_positive
from .special import _front, beta_front, log_beta, reg_inc_beta, reg_inc_beta_grid


# shape shifts (i, j) of the regularized-beta brackets the moments need
_SHIFTS = ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))
_LOG_HUGE = 700.0  # math.exp overflows a little above 709.78


@dataclass(frozen=True)
class RiskParams:
    """Inputs of a single bias/MSE evaluation; risk itself is theta1-free."""

    design: DesignPair
    delta: float
    alpha: float
    k: float = 1.0
    theta1: float = 1.0

    def __post_init__(self):
        check_positive("delta", self.delta)
        check_alpha(self.alpha)
        check_k(self.k)
        check_positive("theta1", self.theta1)


def _beta_bound(c, n1: int, n2: int, delta: np.ndarray) -> np.ndarray:
    """Beta-scale acceptance bound for the critical value c over an array of delta.

    The ratio form t/(t + n2), t = c*n1*delta, lies in [0, 1]; above
    delta = 1 it is evaluated as c*n1/(c*n1 + n2/delta), so no term
    overflows and every finite delta > 0, subnormal ones included, gives a
    finite bound.  An infinite c (c2 at alpha ~ 1e-308) maps to exactly 1.
    ``d_bounds`` is the same formula in plain float arithmetic.
    """
    if c == math.inf:
        return np.ones_like(delta, dtype=float)
    t = c * n1 * np.minimum(delta, 1.0)
    return t / (t + n2 / np.maximum(delta, 1.0))


def d_bounds(design: DesignPair, delta: float, c1: float, c2: float) -> tuple[float, float]:
    """(d1, d2): Beta-scale acceptance bounds for the given critical values, within [0, 1].

    ``_beta_bound``'s formula in plain float arithmetic, which gives its
    bits at a fraction of the cost of the numpy ufuncs.
    """
    check_positive("delta", delta)
    if not 0.0 <= c1 <= c2:  # NaN fails it too
        raise ValueError(f"need 0 <= c1 <= c2, got ({c1}, {c2})")
    n1 = design.n1
    small, far = min(delta, 1.0), design.n2 / max(delta, 1.0)
    t = c1 * n1 * small
    d1 = 1.0 if c1 == math.inf else float(t / (t + far))
    t = c2 * n1 * small
    return d1, 1.0 if c2 == math.inf else float(t / (t + far))


@functools.lru_cache(maxsize=1024)
def _quadratic_constants(design: DesignPair) -> tuple:
    """Per-design constants of the risk quadratic; none depends on delta or alpha.

    The shapes, ln B(m1, m2) and the shift factors (m1+m2)/(m1+1),
    (m1+m2)/(m2+1) and (m1+m2)/m2 of ``_brackets``, then lam^2, 2 lam,
    q1 = m1 (m1+1)/n1^2, q12 = m1 m2/(n1 n2), 2 q12, q2 = m2 (m2+1)/n2^2,
    e1 = m1/n1, v2 = m2/n2 and h0 = 1/n1 of ``_coeffs``, each a factor of
    the risk quadratic as written, so lam^2 X is (lam * lam) * X.  Counts
    are taken as Python ints, so the constants are Python numbers whichever
    equal design (int or numpy-integer counts) filled the cache entry.
    """
    n1, n2 = int(design.n1), int(design.n2)
    m1, m2 = (int(m) for m in design.shapes)
    s = m1 + m2
    lam = float(design.lam)
    q12 = m1 * m2 / (n1 * n2)
    return (m1, m2, log_beta(m1, m2), s / (m1 + 1), s / (m2 + 1), s / m2,
            lam * lam, 2.0 * lam, m1 * (m1 + 1) / n1**2, q12, 2.0 * q12,
            m2 * (m2 + 1) / n2**2, m1 / n1, m2 / n2, 1.0 / n1)


def _brackets(consts: tuple, delta, d1, d2) -> tuple:
    """The five brackets I_{d2} - I_{d1} at (m1+i, m2+j), in ``_SHIFTS`` order, times delta^j.

    Bounds 0 <= d1 <= d2 <= 1 are floats or arrays of one shape, with delta
    a float or an array of that shape.  Float bounds take one scalar
    ``reg_inc_beta`` and one front factor each; arrays one grid call and
    one ``beta_front`` on the concatenated bounds.  The rest is elementwise:
    each bracket is the base difference plus the difference of its
    A&S 26.5.16 shift terms at the two bounds.  delta multiplies into a
    bracket before anything else does, so a bracket that is exactly 0 (both
    bounds at 1 for huge delta) contributes exactly 0 and no product
    overflows on its way there.
    """
    m1, m2, log_b, sa, sb, sab = consts[:6]
    if isinstance(d1, np.ndarray):
        n, shape = d1.size, d1.shape
        x = np.concatenate((d1, d2), axis=None)
        base, t = reg_inc_beta_grid(x, m1, m2), beta_front(x, m1, m2)
        base = (base[n:] - base[:n]).reshape(shape)
        t1, t2 = t[:n].reshape(shape), t[n:].reshape(shape)
    else:
        base = reg_inc_beta(d2, m1, m2) - reg_inc_beta(d1, m1, m2)
        t1, t2 = _front(d1, m1, m2, log_b), _front(d2, m1, m2, log_b)
    ta1, tb1, ta2, tb2 = t1 / m1, t1 / m2, t2 / m1, t2 / m2
    return (
        base + ((-ta2) - (-ta1)),
        delta * (base + (tb2 - tb1)),
        base + ((-ta2 - ta2 * d2 * sa) - (-ta1 - ta1 * d1 * sa)),
        delta * (delta * (base + ((tb2 + tb2 * (1.0 - d2) * sb)
                                  - (tb1 + tb1 * (1.0 - d1) * sb)))),
        delta * (base + ((-ta2 + ta2 * d2 * sab) - (-ta1 + ta1 * d1 * sab))),
    )


def _coeffs(consts: tuple, brackets: tuple) -> tuple:
    """(h2, h1, h0) of the risk quadratic from the delta-weighted ``_brackets``."""
    lam2, lam_2, q1, q12, q12_2, q2, e1, v2, h0 = consts[6:]
    b10, b01, b20, b02, b11 = brackets
    h2 = lam2 * (q1 * b20 - q12_2 * b11 + q2 * b02)
    h1 = lam_2 * (-q1 * b20 + q12 * b11 + e1 * b10 - v2 * b01)
    return h2, h1, h0


def _tail_bound(design: DesignPair, alpha: float, delta: float, upper: bool) -> float:
    """Bound on |h2| + |h1| at every delta' >= delta (``upper``) or every delta' <= delta.

    By the triangle inequality |h2| + |h1| is at most the sum over the five
    brackets B_ij (all >= 0) of delta^j B_ij, each weighted by the absolute
    values of its coefficients in h2 and h1, which ``_coeffs`` gives for a
    unit bracket: (lam^2 + 2 lam) q1, 2 (lam^2 + lam) q12, lam^2 q2,
    2 lam e1 and 2 lam v2.  With (a, b) = (m1+i, m2+j):

    - above, B_ij <= Q_{d1}(a, b) <= (1-d1)^b / (b B(a, b)) as a >= 1, and
      1 - d1 <= n2/(c1 n1 delta), so delta^j B_ij is at most
      (n2/(c1 n1))^b delta^-m2 / (b B(a, b)), which falls as delta grows;
    - below, B_ij <= I_{d2}(a, b) <= d2^a / (a B(a, b)) as b >= 1, and
      d2 <= c2 n1 delta/n2, so delta^j B_ij is at most
      (c2 n1/n2)^a delta^(a+j) / (a B(a, b)), which falls as delta shrinks.

    Outside the alpha window the regret is max(0, h2 + h1), since the
    reference there is r1 = h0, and the K* regret is at most |h2| + |h1| at
    every delta; so the bound at a grid end bounds the regret beyond it.
    It is evaluated in logs and needs no incomplete beta; it is +inf above
    when c1 = 0 and below when c2 = inf.  Per design and side, the weights
    and shape constants come from ``_tail_constants``.
    """
    c1, c2 = critical_values(design, alpha)
    if (c1 == 0.0) if upper else (c2 == math.inf):
        return math.inf
    n1, n2 = design.n1, design.n2
    log_ratio = math.log(n2 / (c1 * n1)) if upper else math.log(c2 * n1 / n2)
    log_delta = math.log(delta)
    total = 0.0
    for weight, p, q, log_p, log_b_ab in _tail_constants(design, upper):
        log_term = p * log_ratio + q * log_delta - log_p - log_b_ab
        total += weight * (math.exp(log_term) if log_term < _LOG_HUGE else math.inf)
    return total


@functools.lru_cache(maxsize=1024)
def _tail_constants(design: DesignPair, upper: bool) -> tuple:
    """(weight, p, q, log p, log B(a, b)) of each bracket's term in ``_tail_bound``.

    The term is weight * exp(p log_ratio + q log_delta - log p - log B(a, b))
    with (a, b) = (m1+i, m2+j): p = b, q = -m2 above and p = a, q = a + j
    below.  The weight is |h2| + |h1| of a unit bracket at delta = 1.
    None of it depends on alpha or delta.
    """
    m1, m2 = design.shapes
    consts = _quadratic_constants(design)
    out = []
    for i, j in _SHIFTS:
        h2, h1, _ = _coeffs(consts, tuple(float(ij == (i, j)) for ij in _SHIFTS))
        a, b = m1 + i, m2 + j
        p, q = (b, -m2) if upper else (a, a + j)
        out.append((abs(h2) + abs(h1), p, q, math.log(p), log_beta(a, b)))
    return tuple(out)


def coefficients_at_bounds(
    design: DesignPair, delta: float, d1: float, d2: float
) -> tuple[float, float, float]:
    """(h2, h1, h0) of the risk quadratic for the acceptance bounds 0 <= d1 <= d2 <= 1."""
    if not d1 <= d2:  # reg_inc_beta rejects a bound outside [0, 1]
        raise ValueError(f"need d1 <= d2, got ({d1}, {d2})")
    consts = _quadratic_constants(design)
    return _coeffs(consts, _brackets(consts, delta, d1, d2))


def risk_k_coefficients(
    design: DesignPair, delta: float, alpha: float
) -> tuple[float, float, float]:
    """(h2, h1, h0) with risk(delta, k) = h2*k^2 + h1*k + h0."""
    c1, c2 = critical_values(design, alpha)
    consts = _quadratic_constants(design)
    return _coeffs(consts, _brackets(consts, delta, *d_bounds(design, delta, c1, c2)))


def risk_k_coefficients_grid(design: DesignPair, deltas, alpha: float):
    """Vectorized risk_k_coefficients over an array of delta values."""
    dv = np.asarray(deltas, dtype=float)
    check_positive("delta", dv)
    c1, c2 = critical_values(design, alpha)
    n1, n2 = design.n1, design.n2
    consts = _quadratic_constants(design)
    return _coeffs(consts, _brackets(consts, dv, _beta_bound(c1, n1, n2, dv),
                                     _beta_bound(c2, n1, n2, dv)))


def _bound_terms(design: DesignPair, delta: float, c: float) -> tuple[float, float, float, int]:
    """(w, lam u, 2 d/n1, M + 1) at the bound d of the finite critical value c.

    Given B = G1/(G1 + G2) = d, the pivots are (d S, (1 - d) S) with
    S ~ Gamma(M), M = m1 + m2, independent of B, and Y = delta G2/n2 - G1/n1
    is S u with u = delta (1 - c)/(c n1 delta + n2).  So d(h2, h1)/dd2 at the
    upper bound d2 = d is the Beta density at d times the conditional means
    of lam^2 Y^2 and 2 lam (G1/n1 - 1) Y, and d(1 - d) times the density is
    the front factor t(d).  With w = t(d) lam u M, d(1 - d) dh2/dd2 is
    w lam u (M + 1) and d(1 - d) dh1/dd2 is w (2 d (M + 1)/n1 - 2).  The
    lower bound enters every bracket with the opposite sign.  u is read off
    1 - c, which the bound itself would lose to cancellation near c = 1.
    """
    m1, m2, log_b = _quadratic_constants(design)[:3]
    n1, lam, big_m = design.n1, design.lam, m1 + m2
    small, far = min(delta, 1.0), design.n2 / max(delta, 1.0)  # as in d_bounds
    t = c * n1 * small
    d, u = t / (t + far), (1.0 - c) * small / (t + far)
    return _front(d, m1, m2, log_b) * lam * u * big_m, lam * u, 2.0 * d / n1, big_m + 1


def _bound_slope(design: DesignPair, delta: float, c: float) -> float:
    """d(1 - d) times d(h2 + h1)/dd2 at the upper bound d2 = d of the finite critical value c.

    The sum of the two parts ``_bound_terms`` describes; it is also
    -d(1 - d) d(h2 + h1)/dd1 at d1 = d.
    """
    w, lam_u, two_d, m_1 = _bound_terms(design, delta, c)
    return w * ((lam_u + two_d) * m_1 - 2.0)


def coefficients_delta_slope(
    design: DesignPair, delta: float, alpha: float
) -> tuple[float, float]:
    """(dh2/d delta, dh1/d delta): the slopes in delta of the risk quadratic at a float delta.

    With the bounds held, delta moves only the weights ``_brackets`` puts
    on b01 and b11 (delta) and on b02 (delta^2), which gives
    lam^2 (2 q2 b02 - 2 q12 b11)/delta and 2 lam (q12 b11 - v2 b01)/delta.
    Each bound moves as dd_j/d delta = d_j (1 - d_j)/delta, so it adds
    ``_bound_terms``' two parts at d_j over delta, with the lower bound's
    opposite sign.  A zero c1 or an infinite c2 leaves its bound at 0 or 1,
    where the front factor vanishes, and contributes 0.
    """
    c1, c2 = critical_values(design, alpha)
    consts = _quadratic_constants(design)
    _, b01, _, b02, b11 = _brackets(consts, delta, *d_bounds(design, delta, c1, c2))
    lam2, lam_2, _, q12, q12_2, q2, _, v2, _ = consts[6:]
    dh2, dh1 = lam2 * (2.0 * q2 * b02 - q12_2 * b11), lam_2 * (q12 * b11 - v2 * b01)
    for sign, c in ((-1.0, c1), (1.0, c2)):
        if 0.0 < c < math.inf:
            w, lam_u, two_d, m_1 = _bound_terms(design, delta, c)
            dh2 += sign * (w * lam_u * m_1)
            dh1 += sign * (w * (two_d * m_1 - 2.0))
    return dh2 / delta, dh1 / delta


def _quantile_fronts(design: DesignPair, alpha: float) -> list[float]:
    """[t(x1), t(x2)]: the front factor at the Beta(m1, m2) quantiles behind c1 and c2.

    c_j = (m2/m1) x_j/(1 - x_j) with x_j the quantile at alpha/2 (j = 1) or
    1 - alpha/2 (j = 2), so x_j = c_j m1/(c_j m1 + m2) and dc_j/d alpha =
    +-c_j/(2 t(x_j)), + for c1 and - for c2.  A zero c1 or an infinite c2
    gives 0: alpha does not move it.
    """
    m1, m2, log_b = _quadratic_constants(design)[:3]
    return [0.0 if c == math.inf else _front(c * m1 / (c * m1 + m2), m1, m2, log_b)
            for c in critical_values(design, alpha)]


def pt_risk_alpha_slope(design: DesignPair, delta: float, alpha: float) -> float:
    """d pt_risk/d alpha = d(h2 + h1)/d alpha at delta, since h0 does not depend on alpha.

    Bound j moves as d_j (1 - d_j) d ln c_j/d alpha = +-d_j (1 - d_j)/(2 t(x_j)),
    which cancels the d_j (1 - d_j) of ``_bound_slope``; with the lower
    bound's opposite sign, both bounds add -``_bound_slope``/(2 t(x_j)).
    """
    fronts = zip(critical_values(design, alpha), _quantile_fronts(design, alpha))
    return sum((-0.5 * _bound_slope(design, delta, c) / f for c, f in fronts if f > 0.0), 0.0)


def shrink_risk(design: DesignPair, delta: float, alpha: float, k: float) -> float:
    """Weighted-loss risk of the shrinkage rule; free of theta1."""
    check_k(k)
    h2, h1, h0 = risk_k_coefficients(design, delta, alpha)
    return h2 * k * k + h1 * k + h0


def pt_risk(design: DesignPair, delta: float, alpha: float) -> float:
    """Weighted-loss risk of the pre-test rule (shrinkage at k = 1)."""
    return shrink_risk(design, delta, alpha, 1.0)


def shrink_risk_grid(design: DesignPair, deltas, alpha: float, k: float) -> np.ndarray:
    """Vectorized shrink_risk over an array of delta values."""
    check_k(k)
    h2, h1, h0 = risk_k_coefficients_grid(design, deltas, alpha)
    return h2 * k * k + h1 * k + h0


def shrink_moments(params: RiskParams) -> tuple[float, float]:
    """(bias, mse) of the shrinkage estimator in original units.

    The mse is theta1^2 times the weighted-loss risk, read off the same
    quadratic in k; only the bias needs its own first moment.
    """
    design = params.design
    th1, delta, k = params.theta1, params.delta, params.k
    c1, c2 = critical_values(design, params.alpha)
    consts = _quadratic_constants(design)
    br = _brackets(consts, delta, *d_bounds(design, delta, c1, c2))
    h2, h1, h0 = _coeffs(consts, br)
    # br[1] is delta*B01: delta multiplies into the bracket first, as in the
    # risk, so a zero bracket stays 0 even where theta2 = delta*theta1 would overflow
    e1, v2 = consts[12:14]
    bias = th1 * (e1 - 1.0 + k * design.lam * (v2 * br[1] - e1 * br[0]))
    return bias, th1 * th1 * (h2 * k * k + h1 * k + h0)


def pt_moments(params: RiskParams) -> tuple[float, float]:
    """(bias, mse) of the pre-test estimator; k in the params is ignored."""
    return shrink_moments(replace(params, k=1.0))


def pooled_risk_quadratic(design: DesignPair) -> tuple[float, float, float]:
    """(a, b, c) with r0(delta) = a*delta^2 + b*delta + c, the always-pool risk."""
    n = design.n1 + design.n2
    m1, m2 = design.shapes
    return m2 * (m2 + 1) / n**2, 2.0 * m2 * (m1 - n) / n**2, (m1 + (m1 - n) ** 2) / n**2


def boundary_risks(design: DesignPair, delta):
    """(r0, r1): risks of always pooling and of the single-sample MLE.

    delta may be a float or an array.  The pooled estimate is
    theta1*(G1 + delta*G2)/N, N = n1 + n2, so under both variants r0 is its
    variance plus its squared bias, (m1 + m2*delta^2 + bias^2)/N^2 with
    bias = m2*delta + m1 - N; at known location and delta = 1 that is 1/N
    exactly.  r1 = 1/n1 under both variants (the location-scale MLE trades
    bias for variance at no MSE cost); it is the risk quadratic's h0.
    """
    check_positive("delta", delta)
    n = design.n1 + design.n2
    m1, m2 = design.shapes
    bias = m2 * delta + (m1 - n)
    return (m1 + m2 * delta * delta + bias * bias) / n**2, 1.0 / design.n1
