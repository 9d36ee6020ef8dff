"""Shared test fixtures that are plain functions."""

import numpy as np

from comotion.kinematics import NUM_JOINTS, STATE_DIM


def identity_state(base_pos=(0.0, 0.0, 0.0)) -> np.ndarray:
    """A human state at ``base_pos`` with every rotation the identity."""
    state = np.zeros(STATE_DIM)
    state[:3] = base_pos
    state[3:] = np.tile([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], NUM_JOINTS)
    return state
