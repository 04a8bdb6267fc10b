"""The benchmark tracer still reads the library: it wraps the kernel and the
singular layer's entry points by name and takes the kernel's sixth
positional argument as a float radius."""

import importlib.util
from pathlib import Path

import numpy as np

from hjsing import GridFunction, catalog, singular, solver
from hjsing.laxoleinik import discounted_lax_oleinik_batch

TRACER = Path(__file__).resolve().parents[1] / "hjbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("hjbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kernel_calls():
    tracer = load_tracer()
    problem = catalog.discounted_problem("sine_kink", lam=1.0)
    free = catalog.free_particle(1)
    v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                   [(0.0, np.pi)], 16, periodic=True)
    u0 = GridFunction.from_callable(lambda p: -np.abs(p[..., 0]), [(-6.0, 6.0)], 97)
    field = solver.EvolutionaryField(free, u0)
    tr = tracer.Tracer()
    with tracer.traced(tr, []), tracer.traced_models(
            tr, [problem.lagrangian, free], [problem.hamiltonian, free.hamiltonian]):
        discounted_lax_oleinik_batch(problem, v, 1.0, v.nodes())
        field.values(1.0, np.array([[0.0], [0.5]]))
    metrics = tracer.layer_metrics(tr)
    assert metrics["laxoleinik.localized_convolution.calls"] == 2
    assert metrics["laxoleinik.localized_convolution.queries"] == 18
    assert 0 < metrics["laxoleinik.arg_reach"] <= 1


def test_traced_cut_locus_calls():
    # the steps of a cutlocus-1d repetition: a traced run counts the one
    # cut_time of the retraction's homotopy and the retraction itself, and
    # no calibrated flow goes through solve_ivp
    tracer = load_tracer()
    problem = catalog.discounted_problem("sine_kink", lam=1.0)
    v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                                   [(0.0, np.pi)], 16, periodic=True)
    field = solver.DiscountedField(problem, v)
    tr = tracer.Tracer()
    with tracer.traced(tr, []), tracer.traced_models(
            tr, [problem.lagrangian], [problem.hamiltonian]):
        cut_field = singular.cut_time_field(problem, v, 6.0)
        singular.aubry_candidates(field, 6.0, forward_tau=cut_field.tau.values.reshape(-1))
        singular.retraction(field, None, cut_field, [0.3], 1.0)
    metrics = tracer.layer_metrics(tr)
    assert metrics["singular.cut_time.calls"] == 1
    assert metrics["singular.retraction.calls"] == 1
    assert metrics["singular.ode.calls"] == 0
    assert metrics["model.H.calls"] > 0
