"""Tree-based solvers and verification tools for controlled stochastic
semi-discrete parabolic equations: staggered mesh calculus, Carleman-type
weights, exact binary-tree noise, forward/adjoint sweeps, penalized control
synthesis, and empirical inequality estimators."""

from .mesh import Mesh, build_mesh, integrate
from .discrete_calc import (GridFunction, DualGridFunction, apply_Dh, apply_Ah,
                            apply_Dh2, apply_Dh_dual, apply_Ah_dual,
                            leibniz_residuals, ibp_residuals, consistency_orders,
                            solve_drift_implicit, solve_tridiagonal)
from .weights import (WeightParams, CarlemanWeights, build_weights, validate_regime,
                      delta_schedule, schedule_h1, weight_problems)
from .noise_tree import ScenarioTree, build_tree, martingale_coeff, tree_inner, time_pairing
from .forward_solver import Coefficients, ControlPair, OmegaRegion, forward_step, solve_forward
from .backward_solver import (BackwardSolution, backward_step, solve_backward,
                              duality_residual)
from .hum import (HumProblem, HumSolution, CostReport, gramian_apply, solve_hum,
                  report_bounds, evaluate_functional, conjugate_gradient,
                  epsilon_from_mesh)
from .inequalities import (SourcePair, CarlemanTerms, FittedConstant, SweepRow,
                           SweepSettings, solve_w_equation, carleman_terms,
                           carleman_ratio_study, observability_sample, h_sweep)
from .harness import ExperimentConfig, cli, emit_csv, run_identity_checks
from .errors import (ConfigurationError, WeightConfigError, RegimeError,
                     ResourceLimitError, SingularSystemError, ConvergenceError)

__version__ = "0.1.0"
