"""Parametric motion profiles commanded to the simulated hand.

Two motion kinds exist: vertical shaking (an acceleration time series)
and rotation (an orientation time series following a sine). Profiles are
sampled on the simulator's 5 ms step grid; `samples` carries one value
per step plus the endpoint at t == duration, so a profile of n steps has
n + 1 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIM_DT = 0.005   # s, simulator step; 80 audio samples per step at 16 kHz
LEVER_ARM_M = 0.10  # m, wrist axis to container CoM; converts spin to tangential accel


@dataclass(frozen=True)
class MotionProfile:
    kind: str            # "shaking" | "rotation"
    duration: float      # s
    samples: np.ndarray  # shaking: accel m/s^2; rotation: orientation rad
    amplitude: float     # peak accel (shaking) or range rad (rotation)
    frequency: float     # Hz
    shake_count: int | None = None

    @property
    def n_steps(self) -> int:
        return len(self.samples) - 1

    def accelerations(self) -> np.ndarray:
        """Tangential acceleration per step, used by the slip model.

        Shaking profiles carry acceleration directly. For rotation the
        container CoM rides a lever arm off the wrist axis, and with a
        sinusoidal orientation the tangential acceleration is
        -lever * (2*pi*f)^2 * orientation.
        """
        if self.kind == "shaking":
            return self.samples[:-1]
        omega = 2.0 * np.pi * self.frequency
        return -LEVER_ARM_M * omega**2 * self.samples[:-1]


def shaking_profile(shake_count: int, peak_accel: float, freq: float) -> MotionProfile:
    """Vertical shaking: `shake_count` periods of mirrored raised-cosine lobes.

    Each period is one upward lobe followed by its exact negative, so the
    sampled acceleration sums to zero and the net velocity vanishes by
    construction. Samples are rescaled so the sampled peak equals
    peak_accel exactly.
    """
    if shake_count < 1:
        raise ValueError("shake_count must be >= 1")
    if peak_accel <= 0 or freq <= 0:
        raise ValueError("peak_accel and freq must be positive")
    n_half = max(1, round(1.0 / (2.0 * freq * SIM_DT)))
    lobe = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n_half) / n_half))
    period = np.concatenate([lobe, -lobe])
    samples = np.concatenate([np.tile(period, shake_count), [0.0]])
    samples *= peak_accel / np.max(np.abs(samples))
    duration = shake_count * 2 * n_half * SIM_DT
    return MotionProfile("shaking", duration, samples, peak_accel, freq, shake_count)


def rotation_profile(range_rad: float, freq: float, duration: float) -> MotionProfile:
    """Sinusoidal orientation sweep: orientation(t) = range * sin(2*pi*f*t)."""
    if range_rad <= 0 or freq <= 0 or duration <= 0:
        raise ValueError("range_rad, freq, and duration must be positive")
    n = round(duration / SIM_DT)
    if n < 1:
        raise ValueError("duration shorter than one step")
    t = np.arange(n + 1) * SIM_DT
    samples = range_rad * np.sin(2.0 * np.pi * freq * t)
    return MotionProfile("rotation", n * SIM_DT, samples, range_rad, freq, None)
