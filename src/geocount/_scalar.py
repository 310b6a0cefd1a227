"""Scalar root finding and bounded minimisation, after Brent (1973).

Both routines are line-for-line ports of SciPy's, so that every iterate and
every result carries the same bits as ``scipy.optimize``, while the package
never imports ``scipy.optimize`` (and with it ``scipy.sparse``,
``scipy.spatial`` and ``scipy.special``) at start-up:

* ``brentq`` ports SciPy's C routine ``Zeros/brentq.c`` with its defaults and
  failure types.  Where the extrapolation's denominator, a product of two
  difference quotients and a difference, underflows to zero, C arithmetic
  gives +-inf or nan and the step falls back to bisection; ``_div`` keeps that behaviour where Python
  would raise ``ZeroDivisionError``.  The other denominators are
  differences of distinct floats, which are never zero.
* ``minimize_bounded`` ports ``_minimize_scalar_bounded`` (the routine behind
  ``minimize_scalar(method="bounded")`` and ``fminbound``) and returns the
  minimiser together with the function value it already holds there.

Brent, *Algorithms for Minimization Without Derivatives*, Prentice-Hall 1973,
chapters 4 and 5.  The SciPy originals are Copyright (c) 2001-2002 Enthought,
Inc. and 2003 SciPy Developers, distributed under the BSD 3-Clause license.
"""

from __future__ import annotations

import math

_EPS = 2.220446049250313e-16


def _div(num: float, den: float) -> float:
    """num / den with IEEE semantics for a zero denominator."""
    if den != 0.0:
        return num / den
    if num == 0.0 or num != num:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _call(f, x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * _EPS,
           maxiter: int = 100) -> float:
    """A root of f in the sign-changing bracket [a, b] (Brent's method).

    Raises ``ValueError`` when f(a) and f(b) have the same sign or f gives
    nan, and ``RuntimeError`` after ``maxiter`` iterations without
    convergence.  An exception raised by f propagates unchanged.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _call(f, xpre)
    fcur = _call(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; the product below can underflow to 0
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:  # C's MIN(a, b) is a < b ? a : b
                bound = abs(spre)
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _call(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _sign(v: float) -> float:
    """numpy.sign on one float."""
    return 1.0 if v > 0 else -1.0 if v < 0 else v


def minimize_bounded(f, lo: float, hi: float, xatol: float = 1e-5,
                     maxiter: int = 500) -> tuple:
    """(x, f(x)) at a local minimum of f on [lo, hi], lo < hi: golden
    section with parabolic steps, stopping at absolute tolerance ``xatol``
    or after ``maxiter`` evaluations of f."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (_sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        step = abs(rat)
        if step < tol1 or tol1 != tol1:  # numpy.maximum, where nan wins
            step = tol1
        x = xf + (_sign(rat) + (rat == 0)) * step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx
