"""Spans around geocount's public functions, recorded from outside the package.

A ``Tracer`` replaces module attributes (``solver.find_all``,
``cli.Out.flush``, ...) with timing wrappers and puts the originals back on
``restore``.  Calls inside a module resolve through its globals, so
``find_all -> refine_to_geodesic`` and ``jacobi_report -> index_nullity``
nest as parent and child spans.  Spans stay in memory until the traced run
ends; ``layer_metrics`` reduces them to calls, total and self time per name,
plus the counters the wrappers collect at the call boundary.

Private helpers (``solver._fd_jacobian``, ``continuation._corrector``,
``continuation._branch_tangent``) are not spanned: their time is part of the
self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, metric suffixes): "calls" and "s" always, plus
# "self_s" where the layer's own work sits between its spanned children.
LAYERS = (
    ("cli", "main", ()),
    ("cli", "load_config", ()),
    ("cli", "Out.flush", ()),
    ("solver", "find_all", ("self_s",)),
    ("solver", "refine_to_geodesic", ("self_s",)),
    ("solver", "residual_field", ()),
    ("geometry", "conformal_grad", ()),
    ("geometry", "constraint_grad", ()),
    ("geometry", "surface_project", ()),
    ("geometry", "gauss_curvature", ()),
    ("loops", "loop_distance", ()),
    ("loops", "primitive_decompose", ()),
    ("jacobi", "jacobi_report", ("self_s",)),
    ("jacobi", "build_operator", ()),
    ("jacobi", "index_nullity", ()),
    ("jacobi", "sector_decomposition", ("self_s",)),
    ("jacobi", "sector_index_nullity", ()),
    ("jacobi", "monodromy", ()),
    ("jacobi", "floquet_nullity", ()),
    ("jacobi", "detect_lambda_jacobi", ()),
    ("weights", "degenerate_weight", ("self_s",)),
    ("weights", "build_count_table", ("self_s",)),
    ("continuation", "continue_branch", ("self_s",)),
    ("continuation", "verify_invariance", ("self_s",)),
    ("continuation", "spawn_doubled_branch", ()),
)

# Counters collected at call boundaries; each repeats exactly for one seed.
COUNTERS = (
    "cli.out_bytes",
    "solver.refine.converged",
    "solver.refine.stalled",
    "solver.refine.diverged",
    "solver.refine.band_exit",
    "solver.refine.iterations",
    "jacobi.eig_work",
    "weights.trials",
    "weights.redraws",
    "continuation.points",
    "continuation.events",
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def eig_work(data, d: int, sector: bool) -> int:
    """n^3 of one dense Hermitian eigensolve of a degree-d index form.

    The direct cover form has n = d * N * p rows (N nodes, p normal
    directions); a Floquet sector form has n = N * p.
    """
    nodes, p = data.b_unit.shape[0], data.b_unit.shape[1]
    n = nodes * p if sector else d * nodes * p
    return n ** 3


class Tracer:
    """In-memory span recorder that wraps functions as module attributes."""

    def __init__(self, run_id: str = "", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> float:
        end = self.clock()
        self.ends[idx] = end
        self._stack.pop()
        return end - self.starts[idx]

    def spans(self):
        """(name, start, end, parent index, run id) per recorded span."""
        return [(self.names[i], self.starts[i], self.ends[i], self.parents[i],
                 self.run_id) for i in range(len(self.names))]

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until ``restore``.

        ``observe(args, kwargs, result, exc, seconds)`` runs after each call
        and feeds the counters; it sees the exception when the call raised.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                seconds = self.close(idx)
                if observe is not None:
                    observe(args, kwargs, result, exc, seconds)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, package) -> None:
        """Wrap every layer in ``LAYERS`` on the imported geocount package."""
        observers = self._observers(package)
        for module_name, path, _ in LAYERS:
            owner = importlib.import_module(f"{package.__name__}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = span_name(module_name, path)
            self.wrap(owner, attr, name, observers.get(name))

    def _observers(self, package):
        solver = importlib.import_module(f"{package.__name__}.solver")
        geometry = importlib.import_module(f"{package.__name__}.geometry")
        c = self.counters

        def refine(args, kwargs, result, exc, seconds):
            if exc is None:
                c["solver.refine.converged"] += 1
                c["solver.refine.iterations"] += result.iterations
            elif isinstance(exc, solver.StallError):
                c["solver.refine.stalled"] += 1
                c["solver.refine.stalled_s"] += seconds
            elif isinstance(exc, geometry.BandExitError):
                c["solver.refine.band_exit"] += 1
            elif isinstance(exc, solver.RefineError):
                c["solver.refine.diverged"] += 1

        def index_nullity(args, kwargs, result, exc, seconds):
            data = args[0] if args else kwargs["data"]
            d = args[1] if len(args) > 1 else kwargs.get("d", 1)
            c["jacobi.eig_work"] += eig_work(data, d, sector=False)

        def sector_index_nullity(args, kwargs, result, exc, seconds):
            data = args[0] if args else kwargs["data"]
            d = args[1] if len(args) > 1 else kwargs["d"]
            c["jacobi.eig_work"] += eig_work(data, d, sector=True)

        def degenerate_weight(args, kwargs, result, exc, seconds):
            if exc is None:
                c["weights.trials"] += len(result.trials)
                c["weights.redraws"] += sum(t.redraws for t in result.trials)

        def continue_branch(args, kwargs, result, exc, seconds):
            if exc is None:
                c["continuation.points"] += len(result.points)
                c["continuation.events"] += len(result.events)

        def flush(args, kwargs, result, exc, seconds):
            out = args[0]
            c["cli.out_bytes"] += sum(len(text.encode("utf-8"))
                                      for text in out.files.values())

        return {
            "solver.refine_to_geodesic": refine,
            "jacobi.index_nullity": index_nullity,
            "jacobi.sector_index_nullity": sector_index_nullity,
            "weights.degenerate_weight": degenerate_weight,
            "continuation.continue_branch": continue_branch,
            "cli.Out.flush": flush,
        }

    # -- reduction -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer calls, time and self time, plus the call counters."""
        totals = aggregate(self.names, self.starts, self.ends, self.parents)
        out = {}
        for module_name, path, extra in LAYERS:
            name = span_name(module_name, path)
            calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            if "self_s" in extra:
                out[f"{name}.self_s"] = self_s
        for key in COUNTERS:
            out[key] = int(self.counters.get(key, 0))
        calls = out["solver.refine_to_geodesic.calls"]
        out["solver.refine.useful_ratio"] = (
            out["solver.refine.converged"] / calls if calls else 0.0)
        out["solver.refine.stalled_s"] = self.counters.get("solver.refine.stalled_s", 0.0)
        out["trace.spans"] = len(self.names)
        return out


def aggregate(names, starts, ends, parents) -> dict:
    """name -> (calls, total seconds, self seconds) over a span forest.

    Self time is a span's duration minus the durations of its direct
    children.  Spans come from one thread, so children of one span never
    overlap, and no layer calls itself.
    """
    child_s = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_s[parent] += ends[i] - starts[i]
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_s[i]
    return {name: tuple(rec) for name, rec in out.items()}
