"""Scalar golden-section maximization and Brent root finding."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MACHEPS = 2.220446049250313e-16
_MAXITER = 200


def golden_section_max(f, lo: float, hi: float, xtol: float = 1e-6):
    """Maximize f on [lo, hi]; returns (x, f(x)).

    Narrows to a local maximum inside the bracket; the endpoints are also
    checked so monotone humps resolve to the better edge.
    """
    if not hi >= lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > xtol and it < _MAXITER:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        it += 1
    xm = 0.5 * (a + b)
    cands = [(f(xm), xm), (f(lo), lo), (f(hi), hi)]
    fbest, xbest = max(cands)
    return xbest, fbest


def brent_root(f, a: float, b: float, xtol: float = 1e-12) -> float:
    """Root of f on [a, b] by Brent's method; f(a), f(b) must differ in sign."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"brent_root needs a sign change: f({a})={fa}, f({b})={fb}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAXITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _MACHEPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b
