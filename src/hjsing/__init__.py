"""Hamilton-Jacobi solvers with singularity propagation and retraction.

Modules: ``model`` (problem data, Legendre transform), ``catalog``
(built-in problems), ``action`` (direct method, regularity constants),
``laxoleinik`` (grids and inf/sup-convolution operators), ``solver``
(discounted and evolutionary solutions), ``singular`` (characteristics,
fundamental solutions, singularity machinery), ``cli`` (command line).
"""

__version__ = "0.1.0"

from .action import ConvexityConstants, estimate_constants
from .errors import (
    BlowUp,
    BoundaryClipped,
    ConcavityFailure,
    ConfigError,
    DegenerateSample,
    ExponentOverflow,
    InvalidProblem,
    NoConvergence,
    NoMinimizer,
    NonUniqueArgmax,
    NotConvex,
    NumericsError,
    ScheduleStall,
)
from .laxoleinik import (
    ArgBall,
    GridFunction,
    discounted_lax_oleinik,
    lax_oleinik_minus,
    localization_radius,
    solution_lipschitz_bound,
)
from .model import (
    DiscountedProblem,
    GrowthData,
    HamiltonianModel,
    LagrangianModel,
    TonelliReport,
    check_tonelli,
    hamiltonian_from_lagrangian,
    legendre,
    to_evolutionary,
)
from .singular import (
    CutTimeField,
    ReachableGradientSet,
    SingularCurve,
    aubry_candidates,
    cut_time,
    cut_time_field,
    cut_times,
    fundamental_solution,
    homotopy,
    is_singular,
    lipschitz_certificate,
    propagation_step,
    reachable_gradients,
    reachable_gradients_batch,
    retraction,
    trace_singular_curve,
)
from .solver import (
    DiscountedField,
    EvolutionaryField,
    ResidualReport,
    SolveReport,
    bounds_K,
    residual_check,
    solve_discounted,
    solve_evolutionary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
