"""gripsense: multimodal object-property estimation and reactive grip control.

A deterministic desk-scale simulator emits synchronized audio, tactile,
and joint streams while a hand shakes or rotates a granular container.
On top of it: MFCC audio classification of the contents, recurrent
slip/max-force prediction from haptic features, a reactive grip-torque
controller with material-specific model switching, and Bayesian motion
selection by expected information gain.
"""

from .materials import CONTAINER_MASS, MATERIAL_CLASSES, MaterialParams, material_table
from .motion import SIM_DT, MotionProfile, rotation_profile, shaking_profile
from .simulation import SimState, TrialRecord, initial_state, run_trial, step
from .controller import (ControllerConfig, EpisodeLog, GripState,
                         grip_update, run_baseline_episode, run_reactive_loop)
from .inference import (ActiveLog, MotionLikelihoodModel, Posterior,
                        expected_information_gain, run_active_loop,
                        select_motion, uniform_posterior, update_posterior)

__version__ = "0.1.0"

__all__ = [
    "CONTAINER_MASS", "MATERIAL_CLASSES", "MaterialParams", "material_table",
    "SIM_DT", "MotionProfile", "rotation_profile", "shaking_profile",
    "SimState", "TrialRecord", "initial_state", "run_trial", "step",
    "ControllerConfig", "EpisodeLog", "GripState", "grip_update",
    "run_baseline_episode", "run_reactive_loop",
    "ActiveLog", "MotionLikelihoodModel", "Posterior",
    "expected_information_gain", "run_active_loop", "select_motion",
    "uniform_posterior", "update_posterior",
    "__version__",
]
