"""Scalar maximization by golden-section search with parabolic steps, and Brent root finding.

Both are Brent's (1973): ``golden_section_max`` is his ``localmin`` (ch. 5)
run on -f, and ``brent_root`` his ``zero`` (ch. 4).  The maximizer searches
only inside its bracket; a caller whose maximum may sit at an end compares
that end itself, as ``minimax._newton``'s fallback does.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MACHEPS = 2.220446049250313e-16
_MAXITER = 200
_SQRT_EPS = math.sqrt(_MACHEPS)  # the maximizer's step tolerance, relative to x
_XTOL_FLOOR = 1e-20             # its absolute floor, so a bracket at 0 still ends


def golden_section_max(f, lo: float, hi: float):
    """Maximize f on [lo, hi]; returns (x, f(x)).

    Brent's golden-section search with successive parabolic steps: each
    step fits a parabola through the best three points so far and takes its
    vertex when it lies well inside the bracket and moves less than half
    the step before last, else takes a golden step into the larger part.
    It narrows to a local maximum inside the bracket, to a tolerance of
    sqrt(machine eps)*|x| plus ``_XTOL_FLOOR``, and returns the best point
    it evaluated.  It reads neither end of the bracket, so on a monotone f
    that point lies within twice the tolerance of the higher end.
    """
    if not hi >= lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    x = w = v = a + (1.0 - _INVPHI) * (b - a)
    fx = fw = fv = -f(x)
    d = e = 0.0
    for _ in range(_MAXITER):
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + _XTOL_FLOOR
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:  # the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q, r, e = abs(q), e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:  # no vertex next to an end
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = (1.0 - _INVPHI) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, -fx


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
