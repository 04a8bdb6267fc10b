"""The library loads scipy only for the shooting refine of
``fundamental_solution``: importing it and running the solve, cut-locus,
Aubry and retraction paths leave every scipy module unimported."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

import numpy as np

import hjsing
import hjsing.cli
from hjsing import GridFunction, catalog, singular, solver


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


problem = catalog.discounted_problem("sine_kink", lam=1.0)
solver.solve_discounted(problem, [(0.0, 2 * np.pi)], 16, tol=1e-2)
v = GridFunction.from_callable(lambda p: -np.abs(np.sin(p[..., 0])),
                               [(0.0, np.pi)], 16, periodic=True)
field = solver.DiscountedField(problem, v)
cut_field = singular.cut_time_field(problem, v, 6.0)
singular.aubry_candidates(field, 6.0, forward_tau=cut_field.tau.values.reshape(-1))
singular.retraction(field, None, cut_field, [0.3], 1.0)
before = scipy_modules()
singular.fundamental_solution(catalog.free_particle(1), 0.0, 1.0, [0.0], [1.0], refine=True)
print(json.dumps({"before": before, "after": scipy_modules()}))
"""


def test_only_the_shooting_refine_loads_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True, timeout=300,
                         text=True, stdout=subprocess.PIPE)
    modules = json.loads(run.stdout.splitlines()[-1])
    assert modules["before"] == []
    assert "scipy.integrate" in modules["after"]
