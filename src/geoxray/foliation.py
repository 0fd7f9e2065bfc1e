"""Strictly convex exhaustion functions whose level sets drive the sweep.

The offset-radial family (``radial-square`` is its member centred at the
origin) has circular leaves: the superlevel sets ``{phi >= c}`` are the
annuli between a centered circle and the boundary, so sweeping c from the
maximum down moves the leaf front inward from the boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SceneValidationError, config_numbers
from .geometry import MetricField, convexity_margin


class FoliationFunction:
    """Closed-form scalar function: ``value`` at points ``(..., 2)``, ``grad`` and ``hess`` at a point,
    the ``center`` of its leaf circles, ``leaf_radius(level)`` and its
    infimum ``floor()`` over the disk."""

    def certify(self, metric: MetricField, grid: int = 41) -> float:
        """Convexity margin over a disk grid; positive certifies strict convexity."""
        return convexity_margin(metric, self, grid)


class OffsetRadial(FoliationFunction):
    """``phi(x) = |x - c|^2`` with an interior center c; params ``[cx, cy]``,
    by default the origin."""

    family = "offset-radial"

    def __init__(self, params=(0.0, 0.0)):
        self.params = tuple(float(p) for p in params)
        if len(self.params) != 2:
            raise SceneValidationError("offset-radial takes [cx, cy]")
        self._center = np.array(self.params)
        if np.hypot(*self._center) >= 1.0:
            raise SceneValidationError("offset-radial center must be interior to the disk")

    def value(self, x):
        # float_power squares by C pow, as a float64 scalar's ** 2 does; an array's ** 2 multiplies
        d = np.float_power(np.asarray(x, dtype=float) - self._center, 2)
        return d[..., 0] + d[..., 1] if d.ndim > 1 else float(d[0] + d[1])

    def grad(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self._center)

    def hess(self, x):
        return 2.0 * np.eye(2)

    @property
    def center(self):
        return self._center.copy()

    def leaf_radius(self, level):
        return math.sqrt(max(level, 0.0))

    def floor(self):
        return 0.0


def RadialSquare(params=()) -> OffsetRadial:
    """``phi(x) = |x|^2``: the offset-radial function about the origin."""
    if tuple(params):
        raise SceneValidationError("radial-square takes no parameters")
    return OffsetRadial()


_FOLIATION_FAMILIES = {
    "radial-square": RadialSquare,
    "offset-radial": OffsetRadial,
}


def foliation_from_config(family: str, params=()) -> FoliationFunction:
    try:
        cls = _FOLIATION_FAMILIES[family]
    except (KeyError, TypeError):   # TypeError: a list or an object is no family name
        raise SceneValidationError(f"scene.foliation.family: unknown family {family!r}") from None
    return cls(config_numbers(params, "scene.foliation.params"))
