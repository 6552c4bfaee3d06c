from __future__ import annotations

import numpy as np
import pytest

from kinlang.constants import derive_constants
from kinlang.model import ExternalForce, InteractionForce, ModelSpec


@pytest.fixture(scope="session")
def dw_spec():
    """Double well with strong friction: the workhorse nonconvex model."""
    return ModelSpec(external=ExternalForce.double_well(1.0, dim=1),
                     interaction=InteractionForce.none(), gamma=10.0, u=1.0, dim=1)


@pytest.fixture(scope="session")
def dw_constants(dw_spec):
    return derive_constants(dw_spec)


@pytest.fixture(scope="session")
def quad_spec():
    """Unit quadratic well, gamma = 2: the exactly solvable reference."""
    return ModelSpec(external=ExternalForce.quadratic(np.eye(1)),
                     interaction=InteractionForce.none(), gamma=2.0, u=1.0, dim=1)


@pytest.fixture(scope="session")
def quad_constants(quad_spec):
    return derive_constants(quad_spec)


@pytest.fixture(scope="session")
def mild_spec():
    """Weak-force model whose profile keeps a moderate flattening exponent:
    useful when the double well's profile underflows every slope."""
    ext = ExternalForce.custom(
        force=lambda x: -0.1 * x + 0.02 * np.tanh(-x),
        k_matrix=0.1, lip_g=0.02, radius=1.0, dim=1)
    return ModelSpec(external=ext, interaction=InteractionForce.none(),
                     gamma=1.0, u=1.0, dim=1)


@pytest.fixture(scope="session")
def mild_constants(mild_spec):
    return derive_constants(mild_spec)


@pytest.fixture(scope="session")
def unconfined_spec():
    """Spring interaction with no external force."""
    return ModelSpec(external=ExternalForce.zero(1),
                     interaction=InteractionForce.linear_difference(1.0, dim=1),
                     gamma=2.0, u=1.0, dim=1)


@pytest.fixture(scope="session")
def unconfined_constants(unconfined_spec):
    return derive_constants(unconfined_spec)


@pytest.fixture(scope="session")
def first_nonfinite():
    """Per-state reference of a blow-up: step a copy of the start in place,
    test every state whole, and return the index and the state of the
    first one with a non-finite entry (None if all ``n + 1`` states are
    finite)."""
    def reference(step, state, n):
        state = tuple(np.array(a, dtype=float) for a in state)
        with np.errstate(all="ignore"):
            for k in range(n + 1):
                if not all(np.isfinite(a).all() for a in state):
                    return k, state
                if k < n:
                    step(k, state)
        return None

    return reference
