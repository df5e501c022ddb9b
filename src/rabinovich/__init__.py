"""Rabinovich system toolkit.

Dynamics and closed-form equilibria of the three-dimensional Rabinovich
flow, a fixed-step RK4 integrator with a divergence guard, a gated
predictive feedback controller acting on the z-equation, a simulation
harness with measured convergence reports and (K, epsilon) sweeps, and a
CLI with bit-stable CSV output.
"""

from . import config, control, dynamics, harness, integrator, io
from .config import *
from .control import *
from .dynamics import *
from .harness import *
from .integrator import *
from .io import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (dynamics, integrator, control, harness, config, io)
    for name in module.__all__
]
