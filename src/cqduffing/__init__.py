"""Analysis toolkit for the driven cubic-quintic Duffing oscillator."""

from .core import (
    Equilibrium,
    OscillatorParams,
    State,
    Trajectory,
    energy,
    equilibria,
)
from .elliptic import complete_k, jacobi_sn_cn_dn
from .odeint import IntegrationError, StepControl, integrate, integrate_delayed

__version__ = "0.1.0"

__all__ = [
    "OscillatorParams",
    "State",
    "Trajectory",
    "Equilibrium",
    "energy",
    "equilibria",
    "jacobi_sn_cn_dn",
    "complete_k",
    "StepControl",
    "integrate",
    "integrate_delayed",
    "IntegrationError",
    "__version__",
]
