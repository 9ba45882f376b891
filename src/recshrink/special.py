"""Regularized incomplete beta function, its inverse, and F quantiles.

Scalar routines are self-contained (stdlib ``math`` only) and accurate to
roughly 1e-13 absolute over the shape range this package needs (a, b up to
a few hundred).  ``reg_inc_beta_grid`` evaluates the same function over a
numpy array of x values; it backs the risk-curve and regret-search hot
paths, which only ever pass integer shapes, and is tested to agree with the
scalar route to 1e-13.

The route depends on the shapes alone.  When a and b are both integers
(ints or integer-valued floats; every shape the risk and the F quantiles
use is one), I_x(a, b) = P(Bin(a+b-1, x) >= a) is a finite binomial sum
(Abramowitz & Stegun §26.5): the tail beyond the mean is summed from its
largest term, and the other side is taken as one minus the opposite tail.
Any other shapes go through the modified-Lentz continued fraction; the grid
has no array form of it and takes such shapes point by point through the
scalar ``reg_inc_beta``.  Both routes start from the front factor
x^a (1-x)^b / B(a, b), and the risk module also builds its shifted-shape
recurrences from it: ``beta_front`` forms it over an array of x, and
``_front`` at a float x, from ln B(a, b) so that a caller holding it per
design (the risk module's scalar route) does not look it up again.  It is
0 at x = 0 and x = 1, so both routes give exactly 0 and 1 there.

The shapes are checked in one place, ``log_beta``: they must be positive
and finite.  Every other public routine reads ln B(a, b) before x or p,
so a bad shape is reported first, even where x or p is bad too, the x
array is empty or p is 0 or 1.
"""

import functools
import math

import numpy as np

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_CF_ITER = 500
_VEC_CHECK_EVERY = 8  # terms between stop tests in the array binomial sum


def _stirling_err(x: float) -> float:
    """lgamma(x) minus its Stirling approximation, for x >= 10."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0
            - r / 1188.0) * r) * r) * r) / x


@functools.lru_cache(maxsize=1024, typed=True)
def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln G(a) + ln G(b) - ln G(a+b).

    Large shapes go through Stirling-corrected forms: the plain lgamma
    difference loses digits to cancellation once the result is small against
    the individual terms (e.g. B(1e4, 0.5)).  Results are cached, since the
    risk path asks for the same design's shapes at every bound; ``typed``
    keeps an int and a float shape of equal value apart, so the result's
    type is always that of a fresh call.  This is the one shape rule of the
    module: a and b must be positive and finite.  A rejected pair is never
    cached, so every bad call reaches the check.
    """
    if not (0.0 < a < math.inf) or not (0.0 < b < math.inf):
        raise ValueError(f"beta shapes must be positive and finite, got a={a}, b={b}")
    if a < b:
        a, b = b, a
    if b >= 10.0:
        s = a + b
        return (
            0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(s)
            + (a - 0.5) * math.log(a / s) + (b - 0.5) * math.log(b / s)
            + _stirling_err(a) + _stirling_err(b) - _stirling_err(s)
        )
    if a >= 10.0:
        # lgamma(a+b) - lgamma(a), expanded so the b*ln(a) growth is explicit
        grow = (b * math.log(a) + (a + b - 0.5) * math.log1p(b / a) - b
                + _stirling_err(a + b) - _stirling_err(a))
        return math.lgamma(b) - grow
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _integer_shapes(a: float, b: float) -> bool:
    return float(a).is_integer() and float(b).is_integer()


def _binom_tail(a: int, b: int, t: float, r: float) -> float:
    """P(Bin(a+b-1, x) >= a) from its first term t = P(Bin = a) and r = x/(1-x).

    Needs x*(a+b-1) < a, where the terms fall from the first one on.
    """
    n = a + b - 1
    total = t
    for j in range(a, n):
        t *= (n - j) / (j + 1) * r
        total += t
        if t <= _EPS * total:
            break
    return total


def _binom_tail_vec(a: int, b: int, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_binom_tail`` over arrays of first terms and odds (same shapes a, b).

    The stop test is a reduction over the whole array, which costs more than
    a term, so it runs every ``_VEC_CHECK_EVERY`` terms; the few extra terms
    are below ``_EPS`` relative to the sum.
    """
    n = a + b - 1
    total = t.copy()
    for j in range(a, n):
        t = t * ((n - j) / (j + 1) * r)
        total += t
        if (j - a) % _VEC_CHECK_EVERY == _VEC_CHECK_EVERY - 1 and np.all(t <= _EPS * total):
            break
    return total


def _front(x: float, a: float, b: float, log_b: float) -> float:
    """The front factor at a float x, given log_b = ln B(a, b); 0 at x = 0 and x = 1.

    The one float form of the front factor: ``reg_inc_beta`` and the risk
    module's scalar route, which holds ln B per design, use it.
    """
    if x == 0.0 or x == 1.0:
        return 0.0
    return math.exp(a * math.log(x) + b * math.log1p(-x) - log_b)


def beta_front(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Front factor t = x^a (1-x)^b / B(a, b) of I_x(a, b) over an array of x.

    t also drives the shape recurrences I_x(a+1, b) = I_x(a, b) - t/a and
    I_x(a, b+1) = I_x(a, b) + t/b (A&S 26.5.16).  It is 0 at x = 0 and
    x = 1, without floating-point warnings.  A float x takes ``_front``.
    """
    with np.errstate(divide="ignore"):
        return np.exp(a * np.log(x) + b * np.log1p(-x) - log_beta(a, b))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x."""
    log_b = log_beta(a, b)   # the shape rule, before x is read
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    front = _front(x, a, b, log_b)
    if _integer_shapes(a, b):
        if x * (a + b - 1.0) < a:
            return _binom_tail(int(a), int(b), front / (a * (1.0 - x)), x / (1.0 - x))
        return 1.0 - _binom_tail(int(b), int(a), front / (b * x), (1.0 - x) / x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def reg_inc_beta_grid(x, a: float, b: float) -> np.ndarray:
    """I_x(a, b) over an array of x values in [0, 1].

    The front factor is 0 at both ends, so x = 0 and x = 1 come out of
    either branch as exactly 0 and 1 and need no masks of their own.
    """
    log_beta(a, b)   # the shape rule, before x is read
    xv = np.asarray(x, dtype=float)
    if not np.all((xv >= 0.0) & (xv <= 1.0)):  # NaN fails both comparisons
        raise ValueError("x values must lie in [0, 1]")
    xf = xv.reshape(-1)
    if not _integer_shapes(a, b):
        return np.array([reg_inc_beta(v, a, b) for v in xf.tolist()], dtype=float).reshape(xv.shape)
    front = beta_front(xf, a, b)
    lower = xf * (a + b - 1.0) < a
    out = np.empty_like(xf)
    xs, fr = xf[lower], front[lower]
    out[lower] = _binom_tail_vec(int(a), int(b), fr / (a * (1.0 - xs)), xs / (1.0 - xs))
    xs, fr = xf[~lower], front[~lower]
    out[~lower] = 1.0 - _binom_tail_vec(int(b), int(a), fr / (b * xs), (1.0 - xs) / xs)
    return out.reshape(xv.shape)


def inv_reg_inc_beta(p: float, a: float, b: float) -> float:
    """x solving I_x(a, b) = p, by safeguarded Newton with a bisection bracket.

    Probabilities above one half, 1 among them, are mirrored to the lower
    tail.  Newton runs on ln I against ln x, from the power-law tail term
    x^a / (a B(a, b)); a step that leaves the bracket bisects it in ln x, so
    subnormal quantiles are reached too.  It stops at |I_x - p| <= 1e-13 p or a one-ulp bracket.
    """
    lb = log_beta(a, b)   # the shape rule, before p is read
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p > 0.5:   # p = 1 too, as 1 - 0
        return 1.0 - inv_reg_inc_beta(1.0 - p, b, a)
    log_p = math.log(p)
    x = math.exp(min(math.log(0.5), (log_p + math.log(a) + lb) / a))
    if x == 0.0:   # the tail term underflows: x lies below half the smallest subnormal
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        val = reg_inc_beta(x, a, b)
        if val > p:
            hi = x
        else:
            lo = x
        if abs(val - p) <= 1e-13 * p or hi - lo <= 2.2e-16 * hi + 5e-324:
            break
        nxt = math.inf  # bisect where I or the slope x*pdf/I is 0
        if val > 0.0:
            log_val = math.log(val)
            slope = math.exp(a * math.log(x) + (b - 1.0) * math.log1p(-x) - lb - log_val)
            if slope > 0.0:
                nxt = x * math.exp(-max(-700.0, min(700.0, (log_val - log_p) / slope)))
        if not (lo < nxt < hi):
            nxt = 0.5 * hi if lo == 0.0 else math.exp(0.5 * (math.log(lo) + math.log(hi)))
        x = nxt
    return x


def f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the central F(d1, d2) distribution at probability p.

    Computed through the beta inverse: x = inv_reg_inc_beta(p, d1/2, d2/2)
    and q = d2*x / (d1*(1-x)).
    """
    if not (0.0 < d1 < math.inf) or not (0.0 < d2 < math.inf):
        raise ValueError(f"degrees of freedom must be positive and finite, got ({d1}, {d2})")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    x = inv_reg_inc_beta(p, 0.5 * d1, 0.5 * d2)
    if x >= 1.0:
        return math.inf
    return d2 * x / (d1 * (1.0 - x))
