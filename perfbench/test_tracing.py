"""Tests of the benchmark's tracing code; run with

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from tracing import LAYERS, Tracer, aggregate, eig_work  # noqa: E402


class FakeClock:
    """Clock that advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.open("a")
    clock.advance(1.0)
    child = tr.open("b")
    clock.advance(2.0)
    grandchild = tr.open("c")
    clock.advance(0.5)
    tr.close(grandchild)
    tr.close(child)
    clock.advance(0.25)
    second = tr.open("b")
    clock.advance(1.0)
    tr.close(second)
    clock.advance(0.75)
    tr.close(outer)

    totals = aggregate(tr.names, tr.starts, tr.ends, tr.parents)
    assert totals["a"] == (1, 5.5, 2.0)        # 5.5 minus children 2.5 + 1.0
    assert totals["b"] == (2, 3.5, 3.0)        # first b holds 0.5 of c
    assert totals["c"] == (1, 0.5, 0.5)
    assert tr.parents == [-1, 0, 1, 0]


def test_wrap_spans_nested_module_calls_and_restores():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2     # resolved through the module, as in geocount

    mod.inner, mod.outer = inner, outer
    seen = []
    tr = Tracer()
    tr.wrap(mod, "inner", "fake.inner")
    tr.wrap(mod, "outer", "fake.outer",
            observe=lambda a, k, res, exc, s: seen.append((a, res, exc)))
    assert mod.outer(3) == 8
    assert tr.names == ["fake.outer", "fake.inner"]
    assert tr.parents == [-1, 0]
    assert seen == [((3,), 8, None)]

    tr.restore()
    assert mod.inner is inner and mod.outer is outer


def test_wrap_records_exceptions_and_still_raises():
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    seen = []
    tr = Tracer()
    tr.wrap(mod, "boom", "fake.boom",
            observe=lambda a, k, res, exc, s: seen.append(type(exc)))
    with pytest.raises(KeyError):
        mod.boom()
    tr.restore()
    assert seen == [KeyError]
    assert tr._stack == []


def test_install_restores_every_geocount_attribute():
    import importlib

    import geocount

    def current():
        out = {}
        for module_name, path, _ in LAYERS:
            owner = importlib.import_module(f"geocount.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            out[(module_name, path)] = owner.__dict__[attr]
        return out

    before = current()
    tr = Tracer()
    tr.install(geocount)
    during = current()
    assert all(during[key] is not before[key] for key in before)
    tr.restore()
    after = current()
    assert all(after[key] is before[key] for key in before)


def _hand_built_operator(nodes=16, p=1):
    from geocount import geometry, jacobi, loops

    spec = geometry.MetricSpec.ellipsoid((1.0, 1.0, 1.0))
    loop = loops.DiscreteLoop(spec, loops.circle_nodes(nodes, np.eye(3)[0], np.eye(3)[1]))
    b_unit = np.ones((nodes, p, p))
    frame = np.zeros((nodes, p, 3))
    frame[:, :, 2] = 1.0
    tangent = np.zeros((nodes, 3))
    return jacobi.JacobiOperatorData(spec, loop, 2.0 * np.pi, b_unit, frame, tangent)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eig_work_matches_matrix_sizes(d):
    from geocount import jacobi

    data = _hand_built_operator()
    cover = jacobi.quadratic_form_matrix(data, d)
    sector = jacobi.quadratic_form_matrix(data, d, sector=1j)
    assert eig_work(data, d, sector=False) == cover.shape[0] ** 3 == (d * 16) ** 3
    assert eig_work(data, d, sector=True) == sector.shape[0] ** 3 == 16 ** 3


def test_traced_eig_work_sums_the_eigensolves():
    import geocount
    from geocount import jacobi

    data = _hand_built_operator()
    tr = Tracer()
    tr.install(geocount)
    try:
        jacobi.sector_decomposition(data, 2)   # two sectors plus the 2-cover
    finally:
        tr.restore()
    metrics = tr.layer_metrics()
    assert metrics["jacobi.eig_work"] == 2 * 16 ** 3 + 32 ** 3
    assert metrics["jacobi.sector_index_nullity.calls"] == 2
    assert metrics["jacobi.index_nullity.calls"] == 1
