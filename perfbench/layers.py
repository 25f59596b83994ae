"""Per-layer tracing of omegapoly, done from outside the package.

Each wrapped public function is replaced by a timing wrapper in every
module of the package that binds it, so calls from one module to another
(``omega3_census`` calling ``polyhedra.convex_hull_facets``) and calls
inside one module (``polyhedra.is_face`` calling ``lp_solve``) all pass
through the wrapper.  Spans are kept as running sums in memory; a span's
self time is its duration minus the time covered by wrapped children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "omegapoly"

# Wrapped public functions, each with the end-to-end metric and workload
# it should move.
LAYERS = (
    ("polyhedra", "convex_hull_facets", "census wall_s"),
    ("polyhedra", "lp_solve", "faces op_p50_ms, op_p90_ms, wall_s"),
    ("polyhedra", "is_face", "faces op_p50_ms, op_p90_ms, wall_s"),
    ("polyhedra", "affine_rank", "verify wall_s, and a little of faces"),
    ("omega_core", "all_vertices", "verify wall_s"),
    ("omega_core", "check_equalities", "verify wall_s"),
    ("omega_core", "omega_dimension", "verify wall_s"),
    ("omega_core", "reduced_vertex_vrep", "census wall_s"),
    ("neighborly", "edge_certificate", "verify op_p50_ms, wall_s"),
    ("neighborly", "verify_certificate", "verify op_p50_ms, wall_s"),
    ("omega3_census", "facet_census",
     "census wall_s (self time is incidence plus orbits)"),
    ("graph2p", "graph_from_json", "cliques op_p50_ms, op_p90_ms"),
    ("graph2p", "find_clique", "cliques op_p50_ms, op_p90_ms"),
    ("graph2p", "to_2cnf", "cliques op_p50_ms, op_p90_ms"),
    ("graph2p", "solve_2sat", "cliques op_p50_ms, op_p90_ms"),
    ("cli", "main", "wall_s on census, verify and cliques "
                    "(self time is parsing, JSON and text output)"),
)

# Counts that repeat exactly, each with what it should move.  A ratio is
# the first count over the second; the second names a call count.
COUNTS = (
    ("polyhedra.convex_hull_facets.facets_out", None, "census wall_s"),
    ("polyhedra.lp_solve.status.optimal", None, "faces wall_s"),
    ("polyhedra.lp_solve.status.infeasible", None, "faces wall_s"),
    ("polyhedra.lp_solve.status.unbounded", None, "faces wall_s"),
    ("polyhedra.is_face.face_ratio", "polyhedra.is_face", "faces wall_s"),
    ("polyhedra.is_face.errors", None, "faces ok_ratio"),
    ("neighborly.verify_certificate.pass_ratio",
     "neighborly.verify_certificate", "verify ok_ratio"),
    ("graph2p.find_clique.sat_ratio", "graph2p.find_clique",
     "cliques op_p50_ms"),
)


def _count_hull(result, counts):
    counts["polyhedra.convex_hull_facets.facets_out"] += len(
        result.inequalities)


def _count_lp(result, counts):
    counts["polyhedra.lp_solve.status." + result.status] += 1


def _count_face(result, counts):
    counts["polyhedra.is_face.face_ratio"] += bool(result.is_face)


def _count_certificate(result, counts):
    counts["neighborly.verify_certificate.pass_ratio"] += bool(result)


def _count_clique(result, counts):
    counts["graph2p.find_clique.sat_ratio"] += result is not None


_OBSERVERS = {
    "polyhedra.convex_hull_facets": _count_hull,
    "polyhedra.lp_solve": _count_lp,
    "polyhedra.is_face": _count_face,
    "neighborly.verify_certificate": _count_certificate,
    "graph2p.find_clique": _count_clique,
}


def _patch(original, replacement):
    """Rebind every attribute of the package's modules that holds original.

    Returns what was rebound, for _unpatch.
    """
    done = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE
                                  or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                done.append((module, attr, original))
    return done


def _unpatch(done):
    for module, attr, original in reversed(done):
        setattr(module, attr, original)


def _module(name):
    return sys.modules["%s.%s" % (PACKAGE, name)]


class Tracer:
    """Context manager that wraps every function in LAYERS while active.

    Sums persist across activations, so one Tracer covers several passes.
    """

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._children = []  # child time of each open span, innermost last
        self._done = []

    def __enter__(self):
        for mod, fn, _ in LAYERS:
            original = getattr(_module(mod), fn)
            name = "%s.%s" % (mod, fn)
            self._done += _patch(original, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        _unpatch(self._done)
        self._done = []

    def _wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                duration = time.perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - child
            if observe is not None:
                observe(result, self.counts)
            return result

        return wrapper

    def metrics(self, passes: int) -> dict:
        """Per-pass layer metrics: (value, unit) by metric name."""
        out = {}
        for mod, fn, _ in LAYERS:
            name = "%s.%s" % (mod, fn)
            out[name + ".calls"] = (self.calls[name] / passes, "count")
            out[name + ".total_s"] = (self.total_s[name] / passes, "s")
            out[name + ".self_s"] = (self.self_s[name] / passes, "s")
        for name, base, _ in COUNTS:
            if base is None:
                out[name] = (self.counts[name] / passes, "count")
            else:
                calls = self.calls[base]
                out[name] = (self.counts[name] / calls if calls else 0.0,
                             "ratio")
        return out


class OpClock:
    """Times each operation from one function's entry to another's exit.

    ``omega verify`` certifies pair after pair inside one CLI call; with
    start = edge_certificate and end = verify_certificate every pair is
    one sample.  The cost is two clock reads per pair.  ``between`` is
    called before each operation's clock starts.
    """

    def __init__(self, module: str, start: str, end: str, between):
        self.module, self.start, self.end = module, start, end
        self.between = between
        self.ops = []
        self._t0 = 0.0
        self._done = []

    def __enter__(self):
        mod = _module(self.module)
        start_fn = getattr(mod, self.start)
        end_fn = getattr(mod, self.end)

        @functools.wraps(start_fn)
        def start(*args, **kwargs):
            self.between()
            self._t0 = time.perf_counter()
            return start_fn(*args, **kwargs)

        @functools.wraps(end_fn)
        def end(*args, **kwargs):
            result = end_fn(*args, **kwargs)
            self.ops.append(time.perf_counter() - self._t0)
            return result

        self._done = _patch(start_fn, start) + _patch(end_fn, end)
        return self

    def __exit__(self, *exc):
        _unpatch(self._done)
        self._done = []
