"""Rabinovich system toolkit.

Dynamics and closed-form equilibria of the three-dimensional Rabinovich
flow, a fixed-step RK4 integrator with a divergence guard, a gated
predictive feedback controller acting on the z-equation, a simulation
harness with measured convergence reports and (K, epsilon) sweeps, and a
CLI with bit-stable CSV output.
"""

from .config import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    default_config,
    parse_config,
    serialize_config,
)
from .control import (
    ControllerConfig,
    GainInterval,
    PredictionMode,
    StabilityVerdict,
    activation_gate,
    admissible_gain_interval,
    closed_loop_check,
    closed_loop_jacobian,
    closed_loop_scalar_coeff,
    control_input,
    control_term,
    delay_steps,
    eigen3,
)
from .dynamics import (
    EquilibriumSet,
    Params,
    State,
    equilibria,
    field_components,
    jacobian,
    residual_norm,
    vector_field,
)
from .harness import (
    DEFAULT_CAPTURE_RADIUS,
    DEFAULT_TAIL,
    ConvergenceReport,
    ReportSettings,
    SweepCell,
    SweepReport,
    Trajectory,
    convergence_report,
    run_controlled,
    run_uncontrolled,
    sweep,
)
from .integrator import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    IntegrationError,
    TimeGrid,
    integrate,
    rk4_step,
)
from .io import (
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    read_trajectory_csv,
    render_report,
    write_report,
    write_sweep_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dynamics
    "Params",
    "State",
    "EquilibriumSet",
    "field_components",
    "vector_field",
    "jacobian",
    "equilibria",
    "residual_norm",
    # integrator
    "TimeGrid",
    "IntegrationError",
    "DivergenceError",
    "DIVERGENCE_LIMIT",
    "rk4_step",
    "integrate",
    # control
    "PredictionMode",
    "ControllerConfig",
    "GainInterval",
    "StabilityVerdict",
    "control_term",
    "control_input",
    "delay_steps",
    "admissible_gain_interval",
    "closed_loop_scalar_coeff",
    "closed_loop_check",
    "closed_loop_jacobian",
    "eigen3",
    "activation_gate",
    # harness
    "Trajectory",
    "ReportSettings",
    "ConvergenceReport",
    "SweepCell",
    "SweepReport",
    "run_uncontrolled",
    "run_controlled",
    "convergence_report",
    "sweep",
    "DEFAULT_CAPTURE_RADIUS",
    "DEFAULT_TAIL",
    # config + io
    "RunConfig",
    "ConfigError",
    "parse_config",
    "serialize_config",
    "default_config",
    "CONFIG_KEYS",
    "TRAJECTORY_HEADER",
    "SWEEP_HEADER",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_sweep_csv",
    "render_report",
    "write_report",
]
