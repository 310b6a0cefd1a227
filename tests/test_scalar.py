"""The Brent root finder against ``scipy.optimize``.

``geocount._scalar`` ports SciPy's ``brentq`` so that the package never
imports ``scipy.optimize``.  SciPy stays here as the oracle: every result
must carry the same bits, and every failure must raise the same exception
type.
"""

import math

import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import _scalar, solver
from geocount.geometry import BandExitError, MetricSpec

from test_solver import BARREL


def _outcome(call):
    try:
        return "ok", repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc), None


def _root_function(kind, root, scale, power, wiggle):
    if kind == 0:
        return lambda x: scale * (x - root)
    if kind == 1:
        return lambda x: scale * ((x - root) ** power + wiggle * (x - root) ** 3)
    if kind == 2:
        return lambda x: math.tanh(scale * (x - root)) + 1e-3 * wiggle
    return lambda x: math.sin(7.0 * x + wiggle) - 0.5 * root


@settings(max_examples=300)
@given(kind=st.integers(0, 3), root=st.floats(-1.0, 1.0),
       log_scale=st.floats(-250.0, 5.0), power=st.integers(1, 5),
       wiggle=st.floats(-2.0, 2.0), left=st.floats(-2.0, -0.5), right=st.floats(0.5, 2.0))
def test_brentq_matches_scipy_bit_for_bit(kind, root, log_scale, power, wiggle, left, right):
    f = _root_function(kind, root, 10.0 ** log_scale, power, wiggle)
    want = _outcome(lambda: scipy.optimize.brentq(f, left, right, xtol=1e-14))
    assert _outcome(lambda: _scalar.brentq(f, left, right, xtol=1e-14)) == want


def test_brentq_returns_a_root_at_an_endpoint():
    def f(x):
        return x - 0.25

    for a, b in ((0.25, 1.0), (-1.0, 0.25)):
        assert _scalar.brentq(f, a, b) == scipy.optimize.brentq(f, a, b) == 0.25


@pytest.mark.parametrize("f, kwargs, exc", [
    (lambda x: x * x + 1.0, {}, ValueError),             # same-sign bracket
    (lambda x: 1e-200 * (x + 2.0), {}, ValueError),      # same sign, f(a) f(b) underflows
    (lambda x: math.nan, {}, ValueError),                # nan
    # a jump at 0: shrinking the bracket to 1e-300 takes far more than 100 steps
    (lambda x: 1.0 if x > 0 else -1.0, {"xtol": 1e-300}, RuntimeError),
])
def test_brentq_fails_like_scipy(f, kwargs, exc):
    with pytest.raises(exc):
        scipy.optimize.brentq(f, -1.0, 1.0, **kwargs)
    with pytest.raises(exc):
        _scalar.brentq(f, -1.0, 1.0, **kwargs)


def test_brentq_survives_an_underflowing_extrapolation_denominator():
    # a product of two difference quotients near 1e-200 underflows to 0,
    # where C divides to inf or nan and Python would raise ZeroDivisionError
    f = lambda x: 1e-200 * (x - 0.3)  # noqa: E731
    got = _scalar.brentq(f, -1.0, 1.0, xtol=1e-14)
    assert got == scipy.optimize.brentq(f, -1.0, 1.0, xtol=1e-14) == 0.30000000000000016


def test_brentq_propagates_the_functions_exception():
    class Stop(Exception):
        pass

    stop = Stop()

    def f(x):
        raise stop

    with pytest.raises(Stop) as info:
        _scalar.brentq(f, -1.0, 1.0)
    assert info.value is stop
    # the bracket's low end, c = 0.30, gives an orbit that leaves the band
    with pytest.raises(BandExitError, match="leave the band"):
        solver.clairaut_find_closed(MetricSpec.revolution(*BARREL), 1, 1, (0.30, 0.62))

