"""Default and material-specific predictor registry with logged fallback."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .predictor import SlipPredictor

log = logging.getLogger(__name__)


@dataclass
class ModelRegistry:
    default_models: dict[str, SlipPredictor] = field(default_factory=dict)
    material_models: dict[tuple[str, str], SlipPredictor] = field(default_factory=dict)
    fallback_events: list[tuple[str, str]] = field(default_factory=list)

    def register_default(self, motion: str, model: SlipPredictor) -> None:
        self.default_models[motion] = model

    def register_material(self, motion: str, material: str,
                          model: SlipPredictor) -> None:
        if motion not in self.default_models:
            raise ValueError(f"no default {motion!r} model is registered")
        self.material_models[(motion, material)] = model


def select_model(registry: ModelRegistry, motion: str,
                 material: str | None = None) -> SlipPredictor:
    """Material-specific model when available, else the motion's default.

    A requested-but-missing material is recorded as a fallback event."""
    if motion not in registry.default_models:
        raise KeyError(f"no models registered for motion {motion!r}")
    if material is not None:
        key = (motion, material)
        if key in registry.material_models:
            return registry.material_models[key]
        registry.fallback_events.append((motion, material))
        log.info("no %s model for material %r; falling back to default",
                 motion, material)
    return registry.default_models[motion]
