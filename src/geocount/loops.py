"""Discrete free loops: storage, resampling, covers, alignment, decomposition.

A loop is N ambient points read as samples of a closed curve at the uniform
parameters theta_i = i/N on the unit interval.  All calculus on loops is
spectral (trigonometric interpolation), so smooth loops converge faster than
any power of the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _spectral, geometry
from .geometry import GeometryError, MetricSpec

MIN_NODES = 16
_SCAN_PAD = 4            # align_rotation's scan grid, per node
_ALIGN_NEWTON_ITER = 8   # its Newton polish of the scan's best point
_DECOMPOSE_TOL = 1e-7    # primitive_decompose's tiling test, per coordinate scale


class LoopError(ValueError):
    """Malformed node data for a discrete loop."""


@dataclass(frozen=True, eq=False)
class DiscreteLoop:
    """Closed polygonal-spectral loop on a metric surface.

    ``nodes`` has shape (N, m) with N >= 16 and divisible by 4 (the residual
    Jacobian coloring needs stencil-disjoint classes mod 4).  The array is
    frozen; all operations return new loops.
    """

    metric: MetricSpec
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2:
            raise LoopError("nodes must be a (N, m) array")
        n, m = nodes.shape
        if n < MIN_NODES or n % 4 != 0:
            raise LoopError(f"node count {n} must be >= {MIN_NODES} and divisible by 4")
        if m != self.metric.ambient_dim:
            raise LoopError(f"nodes have dimension {m}, metric expects {self.metric.ambient_dim}")
        if not np.all(np.isfinite(nodes)):
            raise LoopError("nodes must be finite")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]


def velocity(loop: DiscreteLoop) -> np.ndarray:
    """d gamma / d theta at the nodes (unit-interval parametrization)."""
    return _spectral.derivative(loop.nodes)


def speeds(loop: DiscreteLoop) -> np.ndarray:
    return geometry.speed(loop.metric, loop.nodes, velocity(loop))


def length(loop: DiscreteLoop) -> float:
    """Riemannian length by the periodic trapezoid rule.

    On a periodic uniform grid the trapezoid rule is spectrally accurate, so
    the discretization error is dominated by the node error of the loop
    itself, not by the quadrature.
    """
    return float(np.mean(speeds(loop)))


def resample(loop: DiscreteLoop, n: int) -> DiscreteLoop:
    """Band-limited change of node count, re-projected onto the surface."""
    nodes = _spectral.resample(loop.nodes, n)
    return DiscreteLoop(loop.metric, geometry.surface_project(loop.metric, nodes))


def reverse(loop: DiscreteLoop) -> DiscreteLoop:
    """Orientation-reversed loop through the same points, fixing node 0."""
    return DiscreteLoop(loop.metric, np.roll(loop.nodes[::-1], 1, axis=0))


def cover(loop: DiscreteLoop, d: int) -> DiscreteLoop:
    """The degree-d iterate: same geometric circle traversed d times.

    With uniform parameters the d-cover's nodes are an exact d-fold tile of
    the base nodes.
    """
    d = int(d)
    if d < 1:
        raise LoopError("cover degree must be >= 1")
    return DiscreteLoop(loop.metric, np.tile(loop.nodes, (d, 1)))


@dataclass(frozen=True)
class DecomposeResult:
    base: DiscreteLoop
    degree: int
    mismatch: float  # worst node deviation of the best tiling, absolute


def primitive_decompose(loop: DiscreteLoop) -> DecomposeResult:
    """Write the loop as the d-fold cover of a primitive base.

    Checks every divisor d of N in decreasing order: the loop is a d-cover
    when shifting by N/d nodes moves no coordinate by more than
    ``_DECOMPOSE_TOL`` times the largest coordinate.
    """
    nodes = loop.nodes
    n = loop.n
    scale = float(np.max(np.abs(nodes)))
    best_d, best_mis = 1, 0.0
    for d in range(n, 1, -1):
        if n % d != 0:
            continue
        step = n // d
        mis = float(np.max(np.abs(np.roll(nodes, -step, axis=0) - nodes)))
        if mis <= _DECOMPOSE_TOL * scale:
            base_nodes = nodes[:step]
            if step < MIN_NODES or step % 4 != 0:
                target = max(MIN_NODES, int(2 ** np.ceil(np.log2(step))))
                base_nodes = geometry.surface_project(
                    loop.metric, _spectral.resample(base_nodes, target))
            return DecomposeResult(DiscreteLoop(loop.metric, base_nodes), d, mis)
    return DecomposeResult(loop, best_d, best_mis)


def align_nodes(a: np.ndarray, b: np.ndarray):
    """Best continuous rotation of the node array ``b`` matching ``a``, of
    the same shape.

    Converged copies of one geodesic differ by an arbitrary fractional
    rotation of the parameter, so alignment cannot stop at integer node
    shifts.  The cross-correlation c(s) = sum_i a_i . b(theta_i + s) is a
    trigonometric polynomial in s whose coefficients are the cross-spectrum
    w_k = sum_j conj(A_kj) B_kj of the FFTs A and B of the nodes (the real
    part of the sum takes the even-N Nyquist term as the cosine that
    ``fractional_shift`` uses).  Its maximum, the L2-best rotation, is
    found by scanning c on a grid ``_SCAN_PAD`` times finer than the nodes
    and polishing the best grid point by Newton on c'(s) = 0.  Newton stops
    at round-off, or keeps its current point where c'' >= 0 (a flat
    correlation, as for a circle against its own reversal).

    Returns (shift, shifted), 0 <= shift < 1, with shifted =
    ``_spectral.fractional_shift(b, shift)``, the only shift of ``b`` made.
    """
    n = a.shape[0]
    w = np.sum(np.conj(np.fft.fft(a, axis=0)) * np.fft.fft(b, axis=0), axis=1)
    scan = _spectral.shifted_grids(np.fft.ifft(w).real, _SCAN_PAD * n, (0.0,))[0]
    s = int(np.argmax(scan)) / (_SCAN_PAD * n)
    iq = 2j * np.pi * _spectral.modes(n)
    for _ in range(_ALIGN_NEWTON_ITER):
        terms = w * np.exp(iq * s)
        d1 = float(np.sum(iq * terms).real)
        d2 = float(np.sum(iq * iq * terms).real)
        if not d2 < 0.0:
            break
        step = d1 / d2
        s -= step
        if abs(step) <= 1e-15:
            break
    s %= 1.0
    s = 0.0 if s == 1.0 else s
    return s, _spectral.fractional_shift(b, s)


def align_rotation(ref: DiscreteLoop, other: DiscreteLoop):
    """``align_nodes`` of ``ref`` and ``other`` resampled to its node count,
    as (shift, distance): the worst node distance at the L2-best rotation,
    which is rotation invariant and an upper bound on the max-norm distance
    up to rotation (for nearby loops the two agree far below any census
    tolerance)."""
    b = other.nodes if other.n == ref.n else _spectral.resample(other.nodes, ref.n)
    s, shifted = align_nodes(ref.nodes, b)
    return s, float(np.max(np.linalg.norm(shifted - ref.nodes, axis=1)))


def loop_distance(a: DiscreteLoop, b: DiscreteLoop) -> float:
    """Distance of two loops up to rotating the parametrization (same
    orientation): the worst node distance at the L2-best rotation, an upper
    bound on the max-norm distance up to rotation; see ``align_rotation``.
    """
    return align_rotation(a, b)[1]


# ---------------------------------------------------------------------------
# seed constructors
# ---------------------------------------------------------------------------

def circle_nodes(n: int, e1, e2) -> np.ndarray:
    """Nodes of theta -> cos(2 pi theta) e1 + sin(2 pi theta) e2."""
    t = 2.0 * np.pi * np.arange(n) / n
    return np.outer(np.cos(t), np.asarray(e1, float)) + np.outer(np.sin(t), np.asarray(e2, float))


def principal_ellipse(spec: MetricSpec, j: int, k: int, n: int = 256) -> DiscreteLoop:
    """Planar section of an ellipsoid by the coordinate plane span(e_j, e_k)."""
    if spec.family != "ellipsoid":
        raise GeometryError("principal ellipses are only defined for ellipsoids")
    m = spec.ambient_dim
    if not (0 <= j < m and 0 <= k < m and j != k):
        raise GeometryError("invalid principal plane indices")
    a = spec.data
    e1 = np.zeros(m)
    e1[j] = 1.0 / a[j]
    e2 = np.zeros(m)
    e2[k] = 1.0 / a[k]
    return DiscreteLoop(spec, circle_nodes(n, e1, e2))


def great_circle_seed(spec: MetricSpec, e1, e2, n: int = 256) -> DiscreteLoop:
    """Unit great circle in the plane span(e1, e2) on the surface: divided
    by the a_j on an ellipsoid sum (a_j x_j)^2 = 1, as it is on a conformal
    sphere.  Revolution seeds are parallels (``parallel_circle``)."""
    if spec.family == "revolution":
        raise GeometryError("revolution seeds come from parallels or shooting")
    e1 = np.asarray(e1, dtype=float)
    e2 = e2 - np.dot(np.asarray(e2, float), e1) / np.dot(e1, e1) * e1
    e1 = e1 / np.linalg.norm(e1)
    e2 = e2 / np.linalg.norm(e2)
    nodes = circle_nodes(n, e1, e2)
    if spec.family == "ellipsoid":
        nodes = nodes / np.asarray(spec.data)
    return DiscreteLoop(spec, geometry.surface_project(spec, nodes))


def parallel_circle(spec: MetricSpec, z: float, n: int = 256) -> DiscreteLoop:
    """Latitude circle of a revolution surface at height z."""
    if spec.family != "revolution":
        raise GeometryError("parallel circles require a revolution surface")
    geometry.check_band(spec, np.array([[0.0, 0.0, z]]))
    z = np.full(n, float(z))
    phi = 2.0 * np.pi * np.arange(n) / n
    r = spec.impl.profile(z, 0)[0]
    return DiscreteLoop(spec, np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1))
