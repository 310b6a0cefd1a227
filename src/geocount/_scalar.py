"""Scalar root finding after Brent (1973).

``brentq`` is a line-for-line port of SciPy's C routine ``Zeros/brentq.c``,
with its defaults and failure types, so that every iterate and every result
carries the same bits as ``scipy.optimize.brentq``, while the package never
imports ``scipy.optimize`` (and with it ``scipy.sparse``, ``scipy.spatial``
and ``scipy.special``) at start-up.  Where the extrapolation's denominator,
a product of two difference quotients and a difference, underflows to zero,
C arithmetic gives +-inf or nan and the step falls back to bisection;
``_div`` keeps that behaviour where Python would raise
``ZeroDivisionError``.  The other denominators are differences of distinct
floats, which are never zero.

Brent, *Algorithms for Minimization Without Derivatives*, Prentice-Hall 1973,
chapter 4.  The SciPy original is Copyright (c) 2001-2002 Enthought, Inc.
and 2003 SciPy Developers, distributed under the BSD 3-Clause license.
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
