"""Reconstruction of an unknown boundary flux from overdetermined Cauchy data.

The package solves the severely ill-posed problem of identifying the
conormal flux on the inaccessible top edge of a strip from Dirichlet and
Neumann data measured together on the bottom edge. Binary fluxes are
parametrized by a level-set profile and recovered either by a Tikhonov
gradient flow with a total-variation penalty or by transport of the profile
along a potential-flow velocity.
"""

from .config import ConfigError, RunConfig, load_config, parse_config
from .data import (add_noise, l2_norm_trace, synthesize_cauchy_data,
                   trace_inner, with_noise)
from .grid import (GAMMA1, GAMMA2, GAMMA3, BoundaryPart, Grid, TraceFn,
                   build_grid, prolong_trace, quadrature_weights,
                   restrict_trace, trace_from_function, zero_trace)
from .levelset import (component_count, curvature_term, init_levelset,
                       sharp_indicator, smoothed_heaviside,
                       smoothed_heaviside_deriv, solve_helmholtz_neumann)
from .operator import (CauchyData, OperatorContext, apply_adjoint,
                       apply_forward, compute_offset_z, decay_slope,
                       operator_context, singular_values)
from .pde import (Coefficient, Field, MixedSolver, SolverError,
                  neumann_trace)
from .record import RunRecord
from .tikhonov import (TikhonovParams, lift_matrix, run_tikhonov,
                       tikhonov_direction, tikhonov_step)
from .transport import (TransportParams, front_velocity, run_transport,
                        split_velocity, transport_step, upwind_step)

__all__ = [name for name in dir() if not name.startswith("_")]
