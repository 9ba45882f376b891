"""The exact risk quadratic, in integer and rational arithmetic: a test reference.

Standard library only.  At integer shapes the regularized incomplete beta is
a binomial tail (Abramowitz & Stegun 26.5),

    I_x(a, b) = P(Bin(a + b - 1, x) >= a),

a polynomial in x with integer coefficients.  The critical values c1, c2
and delta are taken as the exact rationals of the doubles passed in, so the
acceptance bounds d_j = c_j n1 delta / (c_j n1 delta + n2), with
1 - d_j = n2 / (c_j n1 delta + n2) formed as its own fraction, the five
brackets I_{d2} - I_{d1} at the shifted shapes, and the coefficients
(h2, h1, h0) of the risk h2 k^2 + h1 k + h0 are exact rationals.  A float
risk compared against them is therefore checked on every rounding after
the F quantile; the quantile itself keeps its scipy check.

The coefficients come from the truncated pivot moments.  With G_i the gamma
pivots of shapes m_i and A the acceptance event {d1 < G1/(G1 + G2) < d2},
E[G1^i G2^j 1_A] = (m1)_i (m2)_j (I_{d2} - I_{d1})(m1 + i, m2 + j), where
(m)_i is the rising factorial, and the shrinkage estimate is
theta1 (G1/n1 + k lam 1_A (delta G2/n2 - G1/n1)) with lam = n2/(n1 + n2).

A bound enters h2 + h1 only through the brackets, and dI_d(a, b)/dd is the
Beta(a, b) density d^(a-1) (1 - d)^(b-1) (a + b - 1)!/((a - 1)! (b - 1)!), a
rational at a rational d, so ``exact_bound_slope`` and the slopes in delta,
``exact_delta_slope_terms``, are exact too.
"""

import math
from fractions import Fraction


def _bound(c: float, n1: int, n2: int, delta: float) -> tuple[int, int]:
    """(p, q): the bound d = p/q, with 1 - d = (q - p)/q; an infinite c gives d = 1."""
    if c == math.inf:
        return 1, 1
    t = Fraction(c) * n1 * Fraction(delta)
    return t.numerator, t.numerator + n2 * t.denominator


def _tail_sum(p: int, q: int, a: int, b: int) -> int:
    """q^n I_{p/q}(a, b), n = a + b - 1, for integers a, b >= 1: the binomial sum over k >= a.

    The sum is p^a times sum_j C(n, a + j) p^j r^(b - 1 - j), r = q - p,
    whose inner sum is taken by Horner's rule in p.
    """
    n, r = a + b - 1, q - p
    inner, r_power = 0, 1
    for k in range(n, a - 1, -1):  # inner = sum over j >= k - a, times r^(n - k)
        inner = inner * p + math.comb(n, k) * r_power
        r_power *= r
    return p**a * inner


def _bound_parts(n1: int, n2: int, known: bool, c: float,
                 delta: float) -> tuple[Fraction, Fraction]:
    """(dh2/dd2, dh1/dd2) at the upper bound d2 = d(c), exactly, at this delta.

    h2 = lam^2 E[Y^2 1_A] and h1 = 2 lam E[(X - 1) Y 1_A], with X and Y as in
    ``exact_coefficients``, so each bracket enters with its rising factorials
    over n1^i n2^j times its coefficient there, and its slope is the Beta
    density at the bound.  The lower bound enters every bracket with the
    opposite sign.  c must be finite.
    """
    m1, m2 = (n1, n2) if known else (n1 - 1, n2 - 1)
    d, t, lam = Fraction(*_bound(c, n1, n2, delta)), Fraction(delta), Fraction(n2, n1 + n2)
    coefficients = {  # (i, j): (in h2, in h1)
        (2, 0): (lam * lam, -2 * lam), (1, 1): (-2 * lam * lam * t, 2 * lam * t),
        (0, 2): (lam * lam * t * t, 0), (1, 0): (0, 2 * lam), (0, 1): (0, -2 * lam * t)}
    parts = [Fraction(0), Fraction(0)]
    for (i, j), weights in coefficients.items():
        a, b = m1 + i, m2 + j
        rising = math.prod(range(m1, a)) * math.prod(range(m2, b))
        density = (d ** (a - 1) * (1 - d) ** (b - 1) * math.factorial(a + b - 1)
                   / (math.factorial(a - 1) * math.factorial(b - 1)))
        for k, w in enumerate(weights):
            parts[k] += w * Fraction(rising, n1**i * n2**j) * density
    return parts[0], parts[1]


def exact_bound_slope(n1: int, n2: int, known: bool, c: float, delta: float) -> Fraction:
    """d(h2 + h1)/dd2 at the upper bound d2 = d(c), exactly, at this delta.

    The sum of ``_bound_parts``; d(h2 + h1)/dd1 at d1 = d(c) is its
    negative.  c must be finite.
    """
    return sum(_bound_parts(n1, n2, known, c, delta))


def _moments(n1: int, n2: int, known: bool, c1: float, c2: float, delta: float) -> tuple:
    """(e, scale): e[i, j] is scale * E[G1^i G2^j 1_A]/(n1^i n2^j) for each shift (i, j).

    Every bracket is carried as an integer times one common denominator,
    ``scale``, so a caller divides only its results by it.
    """
    m1, m2 = (n1, n2) if known else (n1 - 1, n2 - 1)
    (p1, q1), (p2, q2) = _bound(c1, n1, n2, delta), _bound(c2, n1, n2, delta)
    top = m1 + m2 + 1  # the largest n = a + b - 1 of the five shifted shapes
    q1_top, q2_top = q1**top, q2**top

    def moment(i, j):
        """A bracket times rising factorials, over n1^i n2^j, times scale."""
        a, b = m1 + i, m2 + j
        extra = top - (a + b - 1)
        bracket = (_tail_sum(p2, q2, a, b) * q2**extra * q1_top
                   - _tail_sum(p1, q1, a, b) * q1**extra * q2_top)
        rising = math.prod(range(m1, a)) * math.prod(range(m2, b))
        return Fraction(bracket * rising, n1**i * n2**j)

    return ({ij: moment(*ij) for ij in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))},
            q1_top * q2_top)


def exact_brackets(n1: int, n2: int, known: bool, c1: float, c2: float,
                   delta: float) -> list[Fraction]:
    """The five brackets I_{d2} - I_{d1} at (m1 + i, m2 + j), times delta^j, exactly.

    In ``risk._SHIFTS`` order, (1, 0), (0, 1), (2, 0), (0, 2), (1, 1): the
    float ``risk._brackets`` these are the exact values of.
    """
    m1, m2 = (n1, n2) if known else (n1 - 1, n2 - 1)
    e, scale = _moments(n1, n2, known, c1, c2, delta)
    d = Fraction(delta)
    return [e[i, j] * n1**i * n2**j * d**j
            / (math.prod(range(m1, m1 + i)) * math.prod(range(m2, m2 + j)) * scale)
            for i, j in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1))]


def exact_coefficients(n1: int, n2: int, known: bool, c1: float, c2: float,
                       delta: float) -> tuple[Fraction, Fraction, Fraction]:
    """(h2, h1, h0) of the weighted-loss shrinkage risk, exactly, at these c1, c2 and delta.

    ``known`` is a known location (shapes m_i = n_i) rather than a
    location-scale model (m_i = n_i - 1).  The moments share one common
    denominator, so the only gcds of big numbers are the three of the
    results.
    """
    m1 = n1 if known else n1 - 1
    e, scale = _moments(n1, n2, known, c1, c2, delta)
    d = Fraction(delta)
    lam = Fraction(n2, n1 + n2)
    # the estimate over theta1 is X + k lam 1_A Y with X = G1/n1, Y = delta G2/n2 - G1/n1;
    # each of these is scale times the expectation named
    xy = d * e[1, 1] - e[2, 0]                              # E[X Y 1_A]
    yy = d * d * e[0, 2] - 2 * d * e[1, 1] + e[2, 0]        # E[Y^2 1_A]
    y = d * e[0, 1] - e[1, 0]                               # E[Y 1_A]
    h0 = Fraction(m1 * (m1 + 1), n1 * n1) - Fraction(2 * m1, n1) + 1   # E[(X - 1)^2]
    return lam * lam * yy / scale, 2 * lam * (xy - y) / scale, h0


def exact_delta_slope_terms(n1: int, n2: int, known: bool, c1: float, c2: float,
                            delta: float) -> tuple[list[Fraction], list[Fraction]]:
    """The terms of dh2/d delta and of dh1/d delta, exactly: each slope is the sum of its list.

    First the interior term, delta moving inside the acceptance event:
    h2 = lam^2 E[Y^2 1_A] moves by 2 lam^2 E[Y G2/n2 1_A] and
    h1 = 2 lam E[(X - 1) Y 1_A] by 2 lam E[(X - 1) G2/n2 1_A].  Then one
    term per bound with a finite, nonzero c: ``_bound_parts`` times
    dd/d delta = d (1 - d)/delta, negated at the lower bound.  A bound at 0
    or 1 has no term.
    """
    e, scale = _moments(n1, n2, known, c1, c2, delta)
    d, lam = Fraction(delta), Fraction(n2, n1 + n2)
    dh2 = [2 * lam * lam * (d * e[0, 2] - e[1, 1]) / scale]
    dh1 = [2 * lam * (e[1, 1] - e[0, 1]) / scale]
    for sign, c in ((-1, c1), (1, c2)):
        if 0.0 < c < math.inf:
            p, q = _bound(c, n1, n2, delta)
            moves = Fraction(p * (q - p), q * q) / d
            part2, part1 = _bound_parts(n1, n2, known, c, delta)
            dh2.append(sign * part2 * moves)
            dh1.append(sign * part1 * moves)
    return dh2, dh1
