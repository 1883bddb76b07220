"""Secrecy metrics for space-to-ground free-space optical links.

The package stacks a deterministic channel model (beam spreading and
pointing loss, molecular/aerosol extinction, cloud droplet extinction)
under Fisher-Snedecor F turbulence fading, and evaluates the standard
physical-layer secrecy quantities of the resulting wiretap channel:
average secrecy capacity, secrecy outage probability (exact and lower
bound) and the probability of strictly positive secrecy capacity.

Every metric is computable by quadrature of the defining integrals and
by Monte Carlo simulation on a seed-determined stream; all but the
exact outage also by closed forms built on a numerical Meijer-G
evaluator, though the ASC closed form shares its two cross terms with
the quadrature.
"""

from .errors import ConfigError, FsosecError, NonConvergent
from .fading import FFadingParams, SnrChannel
from .mc import McConfig, McEstimate
from .secrecy import WiretapScenario, evaluate_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FFadingParams",
    "FsosecError",
    "McConfig",
    "McEstimate",
    "NonConvergent",
    "SnrChannel",
    "WiretapScenario",
    "evaluate_scenario",
    "__version__",
]
