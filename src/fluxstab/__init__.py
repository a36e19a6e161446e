"""Solvers and experiments for flux stability of conservation laws.

The package measures how strongly the solution of ``u_t + f(u)_x = 0``
reacts to a change of the flux: exact Riemann and front-tracking solvers,
a variational evaluator for merely bounded data, the induced distance
between fluxes (scalar and for linear systems), and a pair of isothermal
momentum systems whose relativistic corrections vanish in the classical
limit.  Everything is deterministic; experiment output is reproducible
byte for byte.
"""

from .pwfun import PiecewiseConstantFn, l1_distance, total_variation
from .fluxes import (
    BUILTIN_FLUX_HELP,
    PiecewiseLinearFlux,
    ScalarFlux,
    burgers,
    convex_poly,
    linear_flux,
    make_flux,
    pl_sample,
    scaled_burgers,
    tilted_burgers,
)
from .riemann import (
    FluxDistanceReport,
    Rarefaction,
    RiemannFan,
    RiemannSampler,
    Shock,
    UnsupportedFluxError,
    eval_fan,
    hat_d_estimate,
    riemann_l1_diff,
    solve_riemann,
    validate_fan,
)
from .front_tracking import (
    FrontTrackingError,
    FrontTrackingState,
    evolution_window,
    ft_evolve,
    semigroup_l1_diff,
)
from .lax_oleinik import (
    LaxOleinikProblem,
    PeriodicSquareWave,
    RexpResult,
    ShockChars,
    StepData,
    lax_oleinik_eval,
    lax_oleinik_eval_many,
    linfty_bound_check,
    modified_datum,
    oleinik_tv_bound_check,
    one_sided_lipschitz_check,
    rexp_counterexample,
    sawtooth_datum,
)
from .linear_hd import (
    DecompositionError,
    EigenDecomposition,
    decompose,
    hat_d_lin,
    operator_norm,
    step_solution,
)
from .euler import (
    AdmissibilityError,
    ClassicalLimitResult,
    GridSolution,
    SystemFlux,
    classical_euler,
    classical_limit_experiment,
    fv_evolve,
    jacobian_gap,
    l1_state_distance,
    recover_velocity,
    relativistic_euler,
    riemann_grid,
)
from .metrics import (
    LerrestReport,
    PgeneralReport,
    StabilityReport,
    TmainReport,
    bundled_pairs,
    check_pgeneral,
    check_tmain,
    deriv_gap_sup,
    lerrest_diagnostic,
    stability_suite,
    sup_location,
)
from .report import read_csv, svg_line_plot, write_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # step functions
    "PiecewiseConstantFn", "l1_distance", "total_variation",
    # fluxes
    "ScalarFlux", "PiecewiseLinearFlux", "burgers", "scaled_burgers",
    "tilted_burgers", "linear_flux", "convex_poly", "pl_sample",
    "make_flux", "BUILTIN_FLUX_HELP",
    # Riemann machinery
    "Shock", "Rarefaction", "RiemannFan", "UnsupportedFluxError",
    "solve_riemann", "eval_fan", "validate_fan", "riemann_l1_diff",
    "RiemannSampler", "FluxDistanceReport", "hat_d_estimate",
    # front tracking
    "FrontTrackingError", "FrontTrackingState", "ft_evolve",
    "semigroup_l1_diff", "evolution_window",
    # variational solver
    "StepData", "PeriodicSquareWave", "sawtooth_datum", "LaxOleinikProblem",
    "lax_oleinik_eval", "lax_oleinik_eval_many", "RexpResult",
    "rexp_counterexample", "ShockChars", "modified_datum",
    "oleinik_tv_bound_check", "linfty_bound_check",
    "one_sided_lipschitz_check",
    # linear systems
    "DecompositionError", "EigenDecomposition", "decompose",
    "step_solution", "hat_d_lin", "operator_norm",
    # momentum systems
    "AdmissibilityError", "SystemFlux", "classical_euler",
    "relativistic_euler", "recover_velocity", "jacobian_gap",
    "GridSolution", "fv_evolve", "riemann_grid", "l1_state_distance",
    "ClassicalLimitResult", "classical_limit_experiment",
    # checks
    "deriv_gap_sup", "TmainReport", "check_tmain", "PgeneralReport",
    "check_pgeneral", "sup_location", "LerrestReport", "lerrest_diagnostic",
    "bundled_pairs", "StabilityReport", "stability_suite",
    # reporting
    "write_csv", "read_csv", "svg_line_plot",
]
