"""Discrete loop container: sampling, rotation alignment, covers, reversal."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given
from hypothesis import strategies as st

from geocount import _spectral, geometry, loops
from geocount.loops import DiscreteLoop, LoopError


@pytest.fixture(scope="module")
def sphere():
    return geometry.MetricSpec.ellipsoid((1.0, 1.0, 1.0))


def rotate(loop, k):
    """Shift the starting node: new node i is old node (i + k) mod N."""
    return DiscreteLoop(loop.metric, np.roll(loop.nodes, -int(k), axis=0))


def fractional_rotate(loop, s):
    """Rotate the parametrization by a real shift s in units of the period."""
    nodes = _spectral.fractional_shift(loop.nodes, float(s))
    return DiscreteLoop(loop.metric, geometry.surface_project(loop.metric, nodes))


def _equator(spec, n=64, radius=1.0, phase=0.0):
    ts = np.arange(n) / n + phase
    nodes = np.stack(
        [radius * np.cos(2 * np.pi * ts), radius * np.sin(2 * np.pi * ts),
         np.zeros(n)], axis=1)
    return DiscreteLoop(spec, nodes)


def test_circle_length_matches_circumference(sphere):
    loop = _equator(sphere)
    assert abs(loops.length(loop) - 2 * np.pi) < 1e-12


def test_resample_is_exact_for_bandlimited_loops(sphere):
    coarse = _equator(sphere, n=64)
    fine = loops.resample(coarse, 128)
    exact = _equator(sphere, n=128)
    assert np.max(np.abs(np.asarray(fine.nodes) - np.asarray(exact.nodes))) < 1e-12


@given(n=st.integers(8, 512), m=st.integers(8, 1024),
       shape=st.sampled_from([(), (3,), (4,), (2, 3)]), seed=st.integers(0, 2 ** 32 - 1))
def test_resample_matches_scipy_signal(n, m, shape, seed):
    values = np.random.default_rng(seed).normal(size=(n,) + shape)
    got = _spectral.resample(values, m)
    want = values if m == n else scipy.signal.resample(values, m, axis=0)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if m != n:   # same memory layout, so later reductions add in the same order
        assert got.strides == want.strides


def test_cli_import_leaves_out_unused_scipy_subpackages():
    # start-up loads numpy and scipy's banded LAPACK/BLAS extension modules only
    unused = ("scipy.linalg", "scipy.signal", "scipy.stats", "scipy.integrate",
              "scipy.optimize", "scipy.fft", "scipy.sparse", "scipy.special",
              "scipy.spatial")
    code = ("import sys, geocount.cli; "
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_rotate_shifts_base_point(sphere):
    loop = _equator(sphere)
    rot = rotate(loop, 5)
    assert np.allclose(np.asarray(rot.nodes)[0], np.asarray(loop.nodes)[5])
    assert abs(loops.length(rot) - loops.length(loop)) < 1e-12


def test_fractional_rotate_matches_exact_phase(sphere):
    loop = _equator(sphere, n=64)
    shifted = fractional_rotate(loop, 0.5 / 64)
    exact = _equator(sphere, n=64, phase=0.5 / 64)
    assert np.max(np.abs(np.asarray(shifted.nodes) - np.asarray(exact.nodes))) < 1e-10


def test_reverse_is_an_involution_fixing_the_base_point(sphere):
    loop = _equator(sphere)
    rev = loops.reverse(loop)
    assert np.allclose(np.asarray(rev.nodes)[0], np.asarray(loop.nodes)[0])
    assert abs(loops.length(rev) - loops.length(loop)) < 1e-12
    back = loops.reverse(rev)
    assert np.max(np.abs(np.asarray(back.nodes) - np.asarray(loop.nodes))) < 1e-12


def test_reversal_is_not_a_rotation_of_the_original(sphere):
    # traversal direction is part of the parametrized class; no rotation of
    # the loop reproduces its reversal
    loop = _equator(sphere)
    rev = loops.reverse(loop)
    assert loops.loop_distance(loop, rev) > 0.1
    # the correlation of a circle with its reversal is flat: the shift must
    # still be a finite rotation
    shift, _ = loops.align_rotation(loop, rev)
    assert 0.0 <= shift < 1.0


def test_cover_and_primitive_decompose(sphere):
    loop = _equator(sphere, n=64)
    double = loops.cover(loop, 2)
    assert double.n == 128
    assert abs(loops.length(double) - 2 * loops.length(loop)) < 1e-10
    dec = loops.primitive_decompose(double)
    assert dec.degree == 2
    assert dec.mismatch < 1e-10
    assert loops.loop_distance(dec.base, loop) < 1e-8


def test_primitive_loop_decomposes_trivially(sphere):
    dec = loops.primitive_decompose(_equator(sphere, n=64))
    assert dec.degree == 1


def test_align_rotation_recovers_shift(sphere):
    loop = _equator(sphere, n=64)
    other = fractional_rotate(loop, 0.3)
    shift, distance = loops.align_rotation(loop, other)
    assert 0.0 <= shift < 1.0
    assert distance <= 1e-12
    recovered = fractional_rotate(other, shift)
    assert np.max(np.abs(np.asarray(recovered.nodes) - np.asarray(loop.nodes))) <= 1e-12


def test_align_rotation_resamples_other_to_ref_nodes(sphere):
    loop = _equator(sphere, n=64)
    other = loops.resample(fractional_rotate(loop, 0.3), 96)
    shift, distance = loops.align_rotation(loop, other)
    assert abs(shift - 0.7) <= 1e-12
    assert distance <= 1e-12


def _wobbly_loop(spec, n, rng):
    """Generic loop of the unit sphere: a great circle plus random
    harmonics of degree 2 and 3, projected back onto the sphere."""
    t = 2 * np.pi * np.arange(n) / n
    nodes = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)
    for k in (2, 3):
        nodes += 0.2 * (np.outer(np.cos(k * t), rng.normal(size=3))
                        + np.outer(np.sin(k * t), rng.normal(size=3)))
    return DiscreteLoop(spec, geometry.surface_project(spec, nodes))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_align_rotation_maximises_the_correlation(sphere, seed):
    rng = np.random.default_rng(seed)
    n = 48
    a = _wobbly_loop(sphere, n, rng)
    b = fractional_rotate(a, rng.uniform())
    b = DiscreteLoop(sphere, geometry.surface_project(
        sphere, b.nodes + 0.05 * _wobbly_loop(sphere, n, rng).nodes))
    shift, distance = loops.align_rotation(a, b)
    assert 0.0 <= shift < 1.0

    def corr(s):
        return float(np.sum(a.nodes * _spectral.fractional_shift(b.nodes, s)))

    best = corr(shift)
    # a maximum of the trigonometric correlation: above every point of a
    # grid twice as fine as the scan, and above its own neighbours
    grid = max(corr(k / (8 * n)) for k in range(8 * n))
    assert best >= grid - 1e-12 * abs(grid)
    assert best >= max(corr(shift - 1e-5), corr(shift + 1e-5))
    shifted = _spectral.fractional_shift(b.nodes, shift)
    assert distance == float(np.max(np.linalg.norm(shifted - a.nodes, axis=1)))


def test_loop_distance_quotients_rotation(sphere):
    loop = _equator(sphere, n=64)
    assert loops.loop_distance(loop, rotate(loop, 17)) < 1e-10
    assert loops.loop_distance(loop, fractional_rotate(loop, 0.21)) < 1e-6
    tilted = DiscreteLoop(sphere, np.asarray(_equator(sphere, n=64).nodes)[:, [0, 2, 1]])
    assert loops.loop_distance(loop, tilted) > 0.1


def _tilted_circle(spec, n, frame, height, phase):
    """Circle of the unit sphere at signed height ``height`` along frame[0];
    its coordinates are trigonometric polynomials of degree 1."""
    ts = 2 * np.pi * (np.arange(n) / n + phase)
    rho = np.sqrt(1.0 - height * height)
    nodes = (height * frame[0]
             + rho * (np.cos(ts)[:, None] * frame[1] + np.sin(ts)[:, None] * frame[2]))
    return DiscreteLoop(spec, nodes)


@given(n4=st.integers(8, 16), seed=st.integers(0, 2 ** 32 - 1),
       tilt=st.floats(0.0, np.pi), k=st.integers(0, 63), s=st.floats(0.0, 1.0))
def test_loop_distance_ignores_rotation_and_joint_reversal(sphere, n4, seed, tilt, k, s):
    n = 4 * n4
    rng = np.random.default_rng(seed)
    frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    skew = rng.normal(size=(3, 3))
    tilted = frame @ scipy.linalg.expm(tilt * (skew - skew.T))
    height = rng.uniform(-0.5, 0.5)
    a = _tilted_circle(sphere, n, frame, height, rng.uniform())
    b = _tilted_circle(sphere, n, tilted, height + rng.uniform(-0.1, 0.1), rng.uniform())
    base = loops.loop_distance(a, b)
    for other in (loops.loop_distance(a, rotate(b, k)),
                  loops.loop_distance(a, fractional_rotate(b, s)),
                  loops.loop_distance(loops.reverse(a), loops.reverse(b))):
        assert abs(other - base) <= 1e-10


def test_seed_constructors_land_on_surface():
    ell = geometry.MetricSpec.ellipsoid((1.05, 1.0, 0.95))
    pe = loops.principal_ellipse(ell, 0, 2, 64)
    assert np.max(np.abs(geometry.constraint(ell, np.asarray(pe.nodes)))) < 1e-12
    rev = geometry.MetricSpec.revolution("poly", (0.8, 0.0, -0.4), (-0.6, 0.6))
    pc = loops.parallel_circle(rev, 0.25, 64)
    assert np.max(np.abs(geometry.constraint(rev, np.asarray(pc.nodes)))) < 1e-12
    assert np.allclose(np.asarray(pc.nodes)[:, 2], 0.25)


def test_loop_validation_errors(sphere):
    with pytest.raises(LoopError):
        DiscreteLoop(sphere, np.zeros((10, 3)))  # too few nodes
    with pytest.raises(LoopError):
        DiscreteLoop(sphere, np.zeros((66, 3)))  # not divisible by 4
    with pytest.raises(LoopError):
        DiscreteLoop(sphere, np.zeros((64, 2)))  # wrong ambient dimension
    bad = np.zeros((64, 3))
    bad[3, 1] = np.nan
    with pytest.raises(LoopError):
        DiscreteLoop(sphere, bad)
