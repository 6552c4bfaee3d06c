"""kinlang: a numerical laboratory for coupled kinetic Langevin dynamics.

Model definitions, derived contraction constants, the glued phase-space
metrics, stochastic integrators for classical / mean-field / nonlinear /
unconfined dynamics, reflection-synchronous couplings, exact empirical
Wasserstein distances, and experiment drivers with a CLI.
"""

from .constants import ConstantsError, MetricConstants, derive_constants
from .coupling import (CoupledState, CouplingControl, marginal_check, pair_state,
                       rc_value, sc_value, simulate_coupled, step_coupled_pair)
from .dynamics import (BlowUpError, DynamicsError, Ensemble, IntegratorConfig,
                       Trajectory, default_step, dirac_ensemble, gaussian_ensemble,
                       simulate, step_classical, step_unconfined, track_moments)
from .metrics import GroundMetric, MetricError, ell1_ensemble, ensemble_dist, project_centered
from .model import (AssumptionReport, ExternalForce, InteractionForce, ModelError,
                    ModelSpec, eval_external, eval_interaction, validate_assumptions)
from .profile import ConcaveProfile, build_profile
from .transport import (TransportError, distance_curve, wasserstein_1d_sorted,
                        wasserstein_exact)

__version__ = "0.1.0"
