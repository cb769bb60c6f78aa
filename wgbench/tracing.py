"""Spans around the wgstate layers, recorded from the benchmark's own files.

Nothing inside the package is instrumented.  Instead each traced public
function is replaced, for the duration of a traced pass, by a wrapper at
every name a wgstate module looks it up under: ``measures.reduced_density``
and ``cli.reduced_density`` as well as ``rdm.reduced_density``, and the
method on its class for ``PhaseProfile.phase_row``.  A wrapper records a
span (name, parent span, start, end) and, at the same boundary, counts
computed from the call's arguments and return value, so counts repeat
exactly from run to run.

Spans stay in memory and are written out when the benchmark ends.  A span's
self time is its duration minus the time its child spans cover.  The time a
wrapper spends counting is charged to no span; it shows up in the residual
between the traced wall time and the sum of all self times.

If a traced name disappears (a refactor moved or renamed it), installing
the wrappers raises :class:`TraceError` rather than reporting zero.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# span name -> (defining module, attribute path).  The first part of the
# span name is the layer.
TARGETS = {
    "geometry.phase_row": ("wgstate.geometry", "PhaseProfile.phase_row"),
    "geometry.distances": ("wgstate.geometry", "Lattice.distances"),
    "rdm.environment_product": ("wgstate.rdm", "environment_product"),
    "rdm.reduced_density": ("wgstate.rdm", "reduced_density"),
    "measures.entropy": ("wgstate.measures", "entropy"),
    "measures.block_entropy": ("wgstate.measures", "block_entropy"),
    "measures.block_entropy_upper": ("wgstate.measures", "block_entropy_upper"),
    "measures.block_entropy_lower": ("wgstate.measures", "block_entropy_lower"),
    "measures.correlation_matrix": ("wgstate.measures", "correlation_matrix"),
    "measures.max_correlation": ("wgstate.measures", "max_correlation"),
    "measures.concurrence": ("wgstate.measures", "concurrence"),
    "measures.concurrence_of_assistance": ("wgstate.measures", "concurrence_of_assistance"),
    "measures.meyer_wallach": ("wgstate.measures", "meyer_wallach"),
    "graphstate.block_adjacency": ("wgstate.graphstate", "block_adjacency"),
    "graphstate.gf2_rank": ("wgstate.graphstate", "gf2_rank"),
    "graphstate.connected_vertex_count": ("wgstate.graphstate", "connected_vertex_count"),
    "cli.main": ("wgstate.cli", "main"),
}

class TraceError(RuntimeError):
    """A traced name no longer exists where the span table says it does."""


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for one span target; raises TraceError."""
    module = sys.modules.get(module_name)
    if module is None:
        raise TraceError(f"module {module_name} is not imported")
    owner_name, _, attr = path.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        if not isinstance(owner, type):
            raise TraceError(f"{module_name}.{owner_name} is no longer a class; "
                             "update TARGETS in wgbench/tracing.py")
        original = owner.__dict__.get(attr)
    else:
        original = getattr(module, attr, None)
    if not callable(original):
        raise TraceError(f"{module_name}.{path} no longer exists; "
                         "update TARGETS in wgbench/tracing.py")
    return owner, attr, original


def patch(make_wrapper, names=None):
    """Replace each target by ``make_wrapper(span_name, original)``.

    Module-level functions are replaced under every name any wgstate module
    binds them to.  Returns a function that restores the originals.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "wgstate" or n.startswith("wgstate."))]
    undo = []
    try:
        for span, (module_name, path) in TARGETS.items():
            if names is not None and span not in names:
                continue
            owner, attr, original = _resolve(module_name, path)
            wrapper = make_wrapper(span, original)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [(m, key) for m in modules
                            for key, value in vars(m).items() if value is original]
            for target, key in bindings:
                setattr(target, key, wrapper)
                undo.append((target, key, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo):
    for target, key, original in reversed(undo):
        setattr(target, key, original)
    undo.clear()


# ---------------------------------------------------------------------------
# Boundary counts
# ---------------------------------------------------------------------------

def _count_phase_row(counts, bound, result):
    counts["geometry.phase_row.elems"] += result.size
    counts["geometry.phase_row.zeros"] += int((result == 0.0).sum())


def _count_environment_product(counts, bound, result):
    args = bound.arguments
    env = args.get("environment")
    n_env = args["profile"].n_sites - len(args["sites"]) if env is None else len(env)
    counts["rdm.environment_product.site_classes"] += n_env * result.size


def _count_meyer_wallach(counts, bound, result):
    sites = bound.arguments.get("sites")
    counts["measures.meyer_wallach.sites"] += (
        bound.arguments["profile"].n_sites if sites is None else len(sites))


def _count_block_adjacency(counts, bound, result):
    counts["graphstate.block_adjacency.rows"] += result.n_rows


# span name -> (counter(counts, bound arguments or None, return value),
# whether the counter needs the bound arguments)
_COUNTERS = {
    "geometry.phase_row": (_count_phase_row, False),
    "rdm.environment_product": (_count_environment_product, True),
    "measures.meyer_wallach": (_count_meyer_wallach, True),
    "graphstate.block_adjacency": (_count_block_adjacency, True),
}


class Recorder:
    """Collects spans and boundary counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, counting_s)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    def wrap(self, name: str, fn):
        counter, needs_args = _COUNTERS.get(name, (None, False))
        signature = inspect.signature(fn) if needs_args else None
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs) if signature else None
                counter(self.counts, bound, result)
            self.spans.append((span_id, parent, name, start, end, clock() - end))
            return result

        return traced

    def install(self):
        return patch(self.wrap)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds) over the recorded spans."""
        covered = defaultdict(float)
        for _, parent, _, start, end, counting in self.spans:
            if parent is not None:
                covered[parent] += end - start + counting
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span_id, _, name, start, end, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - covered[span_id]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


def layer_metrics(recorder: Recorder, wall_s: float, rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the per_layer names of BENCHMARK.json)."""
    spans = recorder.self_times()
    counts = recorder.counts

    def calls(name):
        return float(spans.get(name, (0, 0.0))[0])

    def self_s(*names):
        return sum((spans.get(name, (0, 0.0))[1] for name in names), 0.0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    elems = counts["geometry.phase_row.elems"]
    site_classes = counts["rdm.environment_product.site_classes"]
    out = {
        "geometry.phase_row.calls": calls("geometry.phase_row"),
        "geometry.phase_row.elems": elems,
        "geometry.phase_row.self_s": self_s("geometry.phase_row"),
        "geometry.phase_row.ns_per_elem": ratio(self_s("geometry.phase_row"), elems, 1e9),
        "geometry.phase_row.zero_frac": ratio(counts["geometry.phase_row.zeros"], elems),
        "geometry.distances.self_s": self_s("geometry.distances"),
        "rdm.environment_product.calls": calls("rdm.environment_product"),
        "rdm.environment_product.self_s": self_s("rdm.environment_product"),
        "rdm.environment_product.site_classes": site_classes,
        "rdm.environment_product.ns_per_site_class": ratio(
            self_s("rdm.environment_product"), site_classes, 1e9),
        "rdm.reduced_density.self_s": self_s("rdm.reduced_density"),
        "rdm.sweeps_per_row": ratio(calls("rdm.environment_product"), rows),
        "measures.entropy.calls": calls("measures.entropy"),
        "measures.entropy.self_s": self_s("measures.entropy"),
        "measures.bounds.self_s": self_s("measures.block_entropy_upper",
                                         "measures.block_entropy_lower"),
        "measures.correlation_matrix.self_s": self_s("measures.correlation_matrix"),
        "measures.meyer_wallach.self_s": self_s("measures.meyer_wallach"),
        "measures.meyer_wallach.sites": counts["measures.meyer_wallach.sites"],
        "graphstate.block_adjacency.self_s": self_s("graphstate.block_adjacency"),
        "graphstate.block_adjacency.rows": counts["graphstate.block_adjacency.rows"],
        "graphstate.gf2_rank.self_s": self_s("graphstate.gf2_rank"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in ("geometry", "rdm", "measures", "graphstate"):
        out[f"{layer}.self_s"] = self_s(*(name for name in spans if name.startswith(layer + ".")))
    out["trace.residual_frac"] = ratio(wall_s - self_s(*spans), wall_s)
    return out
