"""Shared fixtures: small-mesh geodesics reused across the unit test modules.

Everything here is session scoped because census runs and Jacobi reports are
the expensive pieces; the tests only read from them.  Property tests run
under one ``hypothesis`` profile: no per-example deadline (timings on a busy
machine vary) and derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import settings

from geocount import geometry, jacobi, loops, solver

ELLIPSOID_AXES = (1.05, 1.0, 0.95)

settings.register_profile("geocount", deadline=None, derandomize=True)
settings.load_profile("geocount")


@pytest.fixture(scope="session")
def ellipsoid_spec():
    return geometry.MetricSpec.ellipsoid(ELLIPSOID_AXES)


@pytest.fixture(scope="session")
def ellipsoid_census(ellipsoid_spec):
    return solver.find_all(ellipsoid_spec, 7.0, mesh=128, planes=24, seed=7)


@pytest.fixture(scope="session")
def ellipsoid_reports(ellipsoid_census):
    return {
        entry.ident: jacobi.jacobi_report(entry.result, d_max=2)
        for entry in ellipsoid_census.entries
    }


@pytest.fixture(scope="session")
def sphere_spec():
    return geometry.MetricSpec.ellipsoid((1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def sphere_circle(sphere_spec):
    seed = loops.great_circle_seed(sphere_spec, np.eye(3)[0], np.eye(3)[1], 128)
    return solver.refine_to_geodesic(seed)


@pytest.fixture(scope="session")
def sphere_report(sphere_circle):
    return jacobi.jacobi_report(sphere_circle, d_max=4)


@pytest.fixture(scope="session")
def waist_result():
    # catenoid band: the waist circle is a closed geodesic with B identically -1
    spec = geometry.MetricSpec.revolution("cosh", (1.0, 0.0), (-0.8, 0.8))
    return solver.refine_to_geodesic(loops.parallel_circle(spec, 0.0, 128))


@pytest.fixture(scope="session")
def waist_report(waist_result):
    return jacobi.jacobi_report(waist_result, d_max=4)


@pytest.fixture(scope="session")
def spheroid_equator():
    # oblate spheroid whose equator has monodromy exactly -I (trace -2)
    spec = geometry.MetricSpec.ellipsoid((1.0, 1.0, 1.5))
    return solver.refine_to_geodesic(loops.principal_ellipse(spec, 0, 1, 128))


@pytest.fixture(scope="session")
def spheroid_report(spheroid_equator):
    return jacobi.jacobi_report(spheroid_equator, d_max=2)
