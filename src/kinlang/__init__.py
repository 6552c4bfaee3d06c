"""kinlang: a numerical laboratory for coupled kinetic Langevin dynamics.

Model definitions, derived contraction constants, the glued phase-space
metrics, stochastic integrators for classical / mean-field / nonlinear /
unconfined dynamics, reflection-synchronous couplings, exact empirical
Wasserstein distances, and experiment drivers with a CLI.

The public names are imported from their submodules on first use, so
``import kinlang`` loads none of them.
"""

from ._lazy import namespace

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = namespace(__name__, {
    "constants": ("ConstantsError", "MetricConstants", "derive_constants"),
    "coupling": ("CoupledState", "CouplingControl", "rc_value", "sc_value"),
    "dynamics": ("BlowUpError", "DynamicsError", "IntegratorConfig", "Trajectory",
                 "default_step", "dirac_ensemble", "gaussian_ensemble", "simulate",
                 "track_moments"),
    "metrics": ("GroundMetric", "MetricError", "project_centered"),
    "model": ("ExternalForce", "InteractionForce", "ModelError", "ModelSpec"),
    "profile": ("ConcaveProfile", "build_profile"),
    "transport": ("TransportError",),
})
