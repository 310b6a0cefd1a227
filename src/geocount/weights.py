"""Counting weights for closed geodesics and the weighted count function.

Every closed geodesic enters the count through local weights attached to its
iterates.  For a super-rigid primitive geodesic (no Jacobi fields on the
primitive loop or its double cover) the weights are determined by the parity
of the Morse indices alone:

    eps_d = (-1)^iota(d),   n_1 = eps_1,   n_2 = (eps_2 - eps_1) / 2,

and every deeper iterate contributes zero.  The count function adds n_d over
all oriented closed geodesics of length at most L; the census stores
unoriented classes, and each class enters twice, once per orientation (a
closed geodesic is never a rotation of its own reversal: that would force a
zero of its velocity).

Degenerate families (round spheres and friends) have no well-defined
individual weights; their windowed counts are computed by perturbing the
metric, counting in the perturbed bumpy metric, and demanding agreement
across independent perturbation draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jacobi, loops, solver
from .geometry import GeometryError, MetricSpec


class NotSuperRigid(RuntimeError):
    """A weight was requested for a geodesic with a degenerate iterate.

    ``ident`` names the census class, when the caller gave one.
    """

    def __init__(self, message, ident=""):
        super().__init__(message)
        self.ident = ident


class AmbiguousWeight(RuntimeError):
    """Independent perturbation trials disagreed on a windowed count.

    ``values`` holds the windowed counts that were compared, one per trial
    or per perturbation strategy.
    """

    def __init__(self, message, values):
        super().__init__(message)
        self.values = tuple(values)


class SpectrumCollision(ValueError):
    """A count query landed on (or inside) an unresolved length cluster."""


@dataclass(frozen=True)
class WeightRecord:
    """Iterate weights of one primitive closed geodesic class."""

    ident: str
    length: float
    iota: tuple               # (iota(1), iota(2))
    nu: tuple                 # (nu(1), nu(2)), both zero by construction
    eps: tuple                # ((-1)^iota(1), (-1)^iota(2))
    n1: int
    n2: int
    routes_agree: bool


def weight(report: jacobi.JacobiReport, ident: str = "", length: float | None = None) -> WeightRecord:
    """Weights of a primitive geodesic from its stability report.

    Requires nu(1) = nu(2) = 0 (checked on both computational routes);
    deeper resonances d = 3, 4 do not obstruct the weights.
    """
    by_d = {r.d: r for r in report.indices}
    if 1 not in by_d or 2 not in by_d:
        raise ValueError("report must cover cover degrees 1 and 2")
    i1, i2 = by_d[1], by_d[2]
    floq1 = report.floquet_nullities.get(1)
    floq2 = report.floquet_nullities.get(2)
    if i1.nu != 0 or floq1 != 0:
        raise NotSuperRigid(
            f"primitive nullity is {i1.nu} (Floquet {floq1}); weights are undefined", ident)
    if i2.nu != 0 or floq2 != 0:
        raise NotSuperRigid(
            f"double-cover nullity is {i2.nu} (Floquet {floq2}); weights are undefined", ident)
    eps1 = -1 if i1.iota % 2 else 1
    eps2 = -1 if i2.iota % 2 else 1
    n2, rem = divmod(eps2 - eps1, 2)
    assert rem == 0
    ell = length if length is not None else loops.length(report.data.loop)
    return WeightRecord(
        ident=ident, length=ell, iota=(i1.iota, i2.iota), nu=(i1.nu, i2.nu),
        eps=(eps1, eps2), n1=eps1, n2=n2, routes_agree=report.routes_agree)


def weigh_result(result: solver.GeodesicResult, ident: str) -> WeightRecord:
    """Weights of a refined primitive geodesic, from its degree-2 report."""
    return weight(jacobi.jacobi_report(result, d_max=2), ident=ident, length=result.length)


@dataclass(frozen=True)
class CountRow:
    length: float             # length of the iterate (d * primitive length)
    ident: str
    d: int
    contribution: int         # 2 * n_d: both orientations
    cumulative: int


@dataclass(frozen=True)
class CountTable:
    metric: MetricSpec
    max_length: float
    rows: tuple
    records: tuple            # WeightRecord per census class
    collisions: tuple         # pairs of row indices closer than the resolution

    def total(self) -> int:
        return self.rows[-1].cumulative if self.rows else 0


_LENGTH_RESOLUTION = 1e-9


def build_count_table(census: solver.Census) -> CountTable:
    """Weighted count table of all iterates below the census length bound.

    Takes only the census: each class is weighed once here
    (``weigh_result``), and its iterates from ``solver.iterates`` are sorted
    by length, ties broken by ident and degree.  Raises NotSuperRigid if any
    class in range is degenerate (use the perturbation protocol instead).
    """
    records = [weigh_result(e.result, e.ident) for e in census.entries]
    by_ident = {r.ident: r for r in records}
    iterates = sorted(((e, d, d * e.result.length) for e, d in solver.iterates(census)),
                      key=lambda r: (r[2], r[0].ident, r[1]))

    rows = []
    cum = 0
    for entry, d, ell in iterates:
        rec = by_ident[entry.ident]
        contrib = 2 * (rec.n1 if d == 1 else rec.n2 if d == 2 else 0)
        cum += contrib
        rows.append(CountRow(length=ell, ident=entry.ident, d=d,
                             contribution=contrib, cumulative=cum))
    collisions = tuple(
        (i, i + 1) for i in range(len(rows) - 1)
        if rows[i + 1].length - rows[i].length <= _LENGTH_RESOLUTION * max(1.0, rows[i].length)
        and rows[i].ident != rows[i + 1].ident
    )
    return CountTable(metric=census.metric, max_length=census.max_length,
                      rows=tuple(rows), records=tuple(records), collisions=collisions)


def count_function(table: CountTable, ell: float) -> int:
    """N(ell): weighted number of oriented closed geodesics of length <= ell.

    Queries falling within the length resolution of a jump are refused: the
    step function is not well defined there.
    """
    if ell > table.max_length + 1e-12:
        raise ValueError("query exceeds the table's length bound")
    out = 0
    for row in table.rows:
        if abs(row.length - ell) <= _LENGTH_RESOLUTION * max(1.0, ell):
            raise SpectrumCollision(
                f"count query at {ell!r} lands on the jump of {row.ident} (d={row.d})")
        if row.length < ell:
            out = row.cumulative
        else:
            break
    return out


def set_weight(table: CountTable, window: tuple) -> int:
    """Sum of weighted contributions with iterate length inside the window."""
    lo, hi = window
    total = 0
    for row in table.rows:
        if lo < row.length < hi:
            total += row.contribution
    return total


# ---------------------------------------------------------------------------
# perturbation protocol for degenerate families
# ---------------------------------------------------------------------------

PERTURBATION_STRATEGIES = ("axis_jitter", "conformal_noise")
_MAX_REDRAWS = 5          # per perturbation trial, before the protocol gives up
_NOISE_TERMS = ((2, 0), (2, 1), (2, -1), (2, 2), (2, -2),
                (3, 0), (3, 1), (3, -1), (3, 2), (3, -2), (3, 3), (3, -3))


def perturb_metric(spec: MetricSpec, strategy: str, rng: np.random.Generator,
                   amplitude: float) -> MetricSpec:
    """One random bumpy perturbation of a (possibly symmetric) metric."""
    if strategy == "axis_jitter":
        if spec.family != "ellipsoid":
            raise GeometryError("axis_jitter requires an ellipsoid metric")
        axes = np.asarray(spec.data, dtype=float)
        jitter = 1.0 + amplitude * rng.uniform(-1.0, 1.0, size=axes.shape)
        return MetricSpec.ellipsoid(tuple(axes * jitter))
    if strategy == "conformal_noise":
        if spec.family == "conformal_sphere":
            base = list(spec.data)
        elif spec.family == "ellipsoid" and len(set(spec.data)) == 1 \
                and abs(spec.data[0] - 1.0) < 1e-12:
            base = []
        else:
            raise GeometryError(
                "conformal_noise requires a conformal sphere or the round sphere")
        draw = rng.uniform(-1.0, 1.0, size=len(_NOISE_TERMS))
        draw = draw / np.sum(np.abs(draw)) * amplitude  # sum|c| = amplitude
        terms = base + [(l, m, float(c)) for (l, m), c in zip(_NOISE_TERMS, draw)]
        return MetricSpec.conformal_sphere(terms)
    raise ValueError(f"unknown perturbation strategy {strategy!r}")


@dataclass(frozen=True)
class TrialOutcome:
    seed: int
    redraws: int
    value: int
    table: CountTable         # the table the trial counted, up to hi + pad


@dataclass(frozen=True)
class DegenerateWeightResult:
    value: int
    trials: tuple             # TrialOutcome per independent draw


def degenerate_weight(
    spec: MetricSpec,
    window: tuple,
    strategy: str = "axis_jitter",
    seed: int = 0,
    trials: int = 2,
    amplitude: float = 1e-2,
    mesh: int = 256,
    planes: int = 200,
    tol: float = 1e-10,
    dedup_tol: float = 1e-6,
) -> DegenerateWeightResult:
    """Windowed weighted count of a degenerate metric via perturbation.

    Each trial draws an independent perturbation, runs a census of the
    perturbed metric up to ``hi + pad``, with ``pad = 3 * amplitude *
    max(|lo|, |hi|, 1)``, and sums the iterate weights inside the window.  A
    draw is discarded and redrawn (up to ``_MAX_REDRAWS`` times) when an
    iterate length lies within ``pad`` of a window edge, or when some
    perturbed class is still not super-rigid.  Each census refines at
    ``tol`` and identifies classes at ``dedup_tol``, as ``solver.find_all``
    does.  Trials must agree exactly; disagreement raises AmbiguousWeight
    with the per-trial values attached, never an average.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be an increasing pair")
    pad = 3.0 * amplitude * max(abs(lo), abs(hi), 1.0)
    outcomes = []
    for t in range(trials):
        for redraws in range(_MAX_REDRAWS + 1):
            rng = np.random.default_rng((seed + 1) * 100003 + t * 7919 + redraws)
            pert = perturb_metric(spec, strategy, rng, amplitude)
            try:
                census = solver.find_all(pert, hi + pad, mesh=mesh, planes=planes,
                                         seed=seed + 31 * t, tol=tol, dedup_tol=dedup_tol)
                table = build_count_table(census)
            except NotSuperRigid:
                if redraws == _MAX_REDRAWS:
                    raise
                continue
            if not any(min(abs(row.length - lo), abs(row.length - hi)) < pad
                       for row in table.rows):
                break
        else:
            raise AmbiguousWeight(
                "iterate lengths keep landing near the window boundary",
                [o.value for o in outcomes])
        outcomes.append(TrialOutcome(seed=seed + 31 * t, redraws=redraws,
                                     value=set_weight(table, (lo, hi)), table=table))
    values = [o.value for o in outcomes]
    if len(set(values)) != 1:
        raise AmbiguousWeight(f"perturbation trials disagree: {sorted(set(values))}", values)
    return DegenerateWeightResult(value=values[0], trials=tuple(outcomes))
