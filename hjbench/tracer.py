"""Outside-in tracer: spans and counts recorded around the library's public calls.

Nothing here changes ``hjsing``'s source.  :func:`traced` replaces, for the
duration of a ``with`` block, every ``hjsing.*`` module attribute that is
one of the wrapped function objects (callers bind names at import, e.g.
``laxoleinik.minimize_paths``), ``GridFunction.__call__`` on the class, and
the model callables on the workload's own problem instances.  Everything
is restored on exit, so an untraced repetition runs the library unpatched.

Each wrapped call records one span (name, parent, start, end) in compact
arrays kept in memory; :meth:`Tracer.save` writes them out at the end.
Work counts (points, paths, queries, nfev, ...) are summed at the same
boundaries.  A layer's self time is its inclusive time minus the time its
child spans cover.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from hjsing import action, laxoleinik, singular, solver
from hjsing.laxoleinik import GridFunction


class Tracer:
    """Spans in memory plus per-boundary work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span named ``name``; ``after(tracer, args, kwargs, out)``
        adds work counts once the call has returned."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced_call(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced_call.__wrapped__ = fn
        return traced_call

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write the spans (name table, name id, parent index, start, end)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))

    @property
    def span_count(self) -> int:
        return len(self.start)


# ---------------------------------------------------------------------------
# work counts taken at each boundary

def _points(x, v) -> int:
    shape = np.broadcast_shapes(np.shape(x), np.shape(v))[:-1]
    return int(np.prod(shape)) if shape else 1


def _model_points(key):
    def after(tr, args, kwargs, out):
        tr.counts[key] += _points(args[1], args[2])
    return after


def _minimize_paths(tr, args, kwargs, out):
    conv = out["converged"]
    tr.counts["action.minimize_paths.paths"] += conv.size
    tr.counts["action.minimize_paths.nonconverged"] += int(conv.size - np.count_nonzero(conv))


def _straight_line_actions(tr, args, kwargs, out):
    tr.counts["action.straight_line_actions.paths"] += np.size(out)


def _localized_convolution(tr, args, kwargs, out):
    radius = kwargs["radius"] if "radius" in kwargs else args[5]
    tr.counts["laxoleinik.localized_convolution.queries"] += len(out)
    for res in out:
        pts = res.arg.argpoints
        tr.counts["laxoleinik.kept"] += len(pts)
        if pts and radius > 0:
            reach = max(float(np.linalg.norm(np.asarray(z) - res.arg.center)) for z in pts)
            tr.peaks["laxoleinik.arg_reach"] = max(tr.peaks["laxoleinik.arg_reach"],
                                                   reach / radius)


def _grid_eval(tr, args, kwargs, out):
    tr.counts["laxoleinik.grid_eval.points"] += np.size(out)


def _solve_discounted(tr, args, kwargs, out):
    report = out[1]
    tr.counts["solver.sweeps"] += report.iterations
    tr.peaks["solver.final_residual"] = max(tr.peaks["solver.final_residual"],
                                            float(report.final_residual))


def _solve_ivp(tr, args, kwargs, out):
    tr.counts["singular.ode.nfev"] += int(out.nfev)


# (module, attribute, span name, work hook); every hjsing.* module attribute
# bound to the same function object is replaced
FUNCTIONS = [
    (action, "minimize_paths", "action.minimize_paths", _minimize_paths),
    (action, "straight_line_actions", "action.straight_line_actions", _straight_line_actions),
    (action, "estimate_constants", "action.estimate_constants", None),
    (laxoleinik, "localized_convolution", "laxoleinik.localized_convolution",
     _localized_convolution),
    (solver, "solve_discounted", "solver.solve_discounted", _solve_discounted),
    (solver, "residual_check", "solver.residual_check", None),
    (singular, "cut_time", "singular.cut_time", None),
    (singular, "reachable_gradients", "singular.reachable_gradients", None),
    (singular, "propagation_step", "singular.propagation_step", None),
    (singular, "retraction", "singular.retraction", None),
]

LAGRANGIAN_CALLABLES = {"L": "model.L", "L_v": "model.grad", "L_x": "model.grad",
                        "L_vv": "model.grad"}
HAMILTONIAN_CALLABLES = ("H", "H_p", "H_x", "H_t")


def _hjsing_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hjsing" or name.startswith("hjsing."))]


@contextlib.contextmanager
def traced(tracer: Tracer, workload_modules):
    """Patch the library and the given workload modules for the block's duration.

    ``workload_modules`` are the benchmark modules that imported library
    functions by name; their bindings are replaced as well, so the
    workload's own calls are traced.
    """
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = _hjsing_modules() + list(workload_modules)
    for module, attr, name, hook in FUNCTIONS:
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    replace(m, key, wrapped)
    # scipy's solve_ivp, as called by the singular layer only
    replace(singular, "solve_ivp", tracer.wrap("singular.ode", singular.solve_ivp, _solve_ivp))
    replace(GridFunction, "__call__",
            tracer.wrap("laxoleinik.grid_eval", GridFunction.__call__, _grid_eval))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


@contextlib.contextmanager
def traced_models(tracer: Tracer, lagrangians, hamiltonians):
    """Wrap the model callables on the workload's own problem instances."""
    undo = []
    for model in {id(m): m for m in lagrangians}.values():
        for attr, name in LAGRANGIAN_CALLABLES.items():
            fn = getattr(model, attr)
            hook = _model_points(f"{name}.points")
            undo.append((model, attr, fn))
            setattr(model, attr, tracer.wrap(name, fn, hook))
    for model in {id(m): m for m in hamiltonians if m is not None}.values():
        for attr in HAMILTONIAN_CALLABLES:
            fn = getattr(model, attr)
            undo.append((model, attr, fn))
            setattr(model, attr, tracer.wrap("model.H", fn))
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer number the trace supports, by metric name."""
    t = tracer.layer_times()
    c, p = tracer.counts, tracer.peaks
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return t.get(name, zero)

    mp = span("action.minimize_paths")
    lc = span("laxoleinik.localized_convolution")
    queries = c["laxoleinik.localized_convolution.queries"]
    out = {
        "model.L.calls": span("model.L")["calls"],
        "model.L.points": int(c["model.L.points"]),
        "model.L.s": span("model.L")["s"],
        "model.grad.calls": span("model.grad")["calls"],
        "model.grad.points": int(c["model.grad.points"]),
        "model.grad.s": span("model.grad")["s"],
        "model.H.calls": span("model.H")["calls"],
        "model.H.s": span("model.H")["s"],
        "action.minimize_paths.calls": mp["calls"],
        "action.minimize_paths.paths": int(c["action.minimize_paths.paths"]),
        "action.minimize_paths.paths_per_call":
            c["action.minimize_paths.paths"] / mp["calls"] if mp["calls"] else 0.0,
        "action.minimize_paths.s": mp["s"],
        "action.minimize_paths.self_s": mp["self_s"],
        "action.minimize_paths.nonconverged": int(c["action.minimize_paths.nonconverged"]),
        "action.straight_line_actions.paths": int(c["action.straight_line_actions.paths"]),
        "action.straight_line_actions.s": span("action.straight_line_actions")["s"],
        "action.estimate_constants.calls": span("action.estimate_constants")["calls"],
        "action.estimate_constants.s": span("action.estimate_constants")["s"],
        "laxoleinik.localized_convolution.calls": lc["calls"],
        "laxoleinik.localized_convolution.queries": int(queries),
        "laxoleinik.localized_convolution.s": lc["s"],
        "laxoleinik.localized_convolution.self_s": lc["self_s"],
        # localized_convolution is the only caller of straight_line_actions
        "laxoleinik.scanned_per_query":
            c["action.straight_line_actions.paths"] / queries if queries else 0.0,
        "laxoleinik.kept_per_query": c["laxoleinik.kept"] / queries if queries else 0.0,
        "laxoleinik.arg_reach": p["laxoleinik.arg_reach"],
        "laxoleinik.grid_eval.calls": span("laxoleinik.grid_eval")["calls"],
        "laxoleinik.grid_eval.points": int(c["laxoleinik.grid_eval.points"]),
        "laxoleinik.grid_eval.s": span("laxoleinik.grid_eval")["s"],
        "solver.sweeps": int(c["solver.sweeps"]),
        "solver.final_residual": p["solver.final_residual"],
        "solver.residual_check.s": span("solver.residual_check")["s"],
    }
    for name in ("cut_time", "reachable_gradients", "propagation_step", "retraction"):
        out[f"singular.{name}.calls"] = span(f"singular.{name}")["calls"]
        out[f"singular.{name}.s"] = span(f"singular.{name}")["s"]
    out["singular.ode.calls"] = span("singular.ode")["calls"]
    out["singular.ode.nfev"] = int(c["singular.ode.nfev"])
    out["singular.ode.s"] = span("singular.ode")["s"]
    return out
