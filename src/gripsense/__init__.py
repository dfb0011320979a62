"""gripsense: multimodal object-property estimation and reactive grip control.

A deterministic desk-scale simulator emits synchronized audio, tactile,
and joint streams while a hand shakes or rotates a granular container.
On top of it: MFCC audio classification of the contents, recurrent
slip/max-force prediction from haptic features, a reactive grip-torque
controller with material-specific model switching, and Bayesian motion
selection by expected information gain.
"""

__version__ = "0.1.0"
