"""Matrix weight fields on the unit sphere bundle.

A weight assigns an ``m x k`` complex matrix to every (point, direction)
pair, continuously.  Families are closed form except ``attenuation``, whose
exponent is the integral of a scalar coefficient along the forward geodesic
to the boundary; the integral uses the same trapezoid quadrature as the
forward transform so the weight is consistent with the geometry.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import SceneValidationError, config_number
from .geometry import DEFAULT_STEP, GeodesicPath, MetricField, _hermite, trace_forward, unit_tangent


class WeightField:
    """Base class; subclasses implement ``at(x, v) -> (m, k) complex``."""

    family = "base"

    def __init__(self, k: int, m: int):
        if k < 1 or m < k:
            raise SceneValidationError(f"weight dims must satisfy m >= k >= 1, got k={k}, m={m}")
        self.k = int(k)
        self.m = int(m)

    def at(self, x, v) -> np.ndarray:
        raise NotImplementedError

    def along_path(self, path: GeodesicPath) -> "PathWeight":
        return PathWeight(self, path)


class PathWeight:
    """Weight values along one geodesic, evaluable at arbitrary arclength."""

    def __init__(self, weight: WeightField, path: GeodesicPath):
        self.weight = weight
        self.path = path
        self._samples = None

    @property
    def at_samples(self) -> np.ndarray:
        if self._samples is None:
            n = self.path.n_samples
            vals = np.empty((n, self.weight.m, self.weight.k), dtype=complex)
            for i in range(n):
                vals[i] = self.weight.at(self.path.x[i], self.path.v[i])
            self._samples = vals
        return self._samples

    def at_time(self, t: float) -> np.ndarray:
        x, v = self.path.state(t)
        return self.weight.at(x, v)


class IdentityWeight(WeightField):
    family = "identity"

    def __init__(self, k: int):
        super().__init__(k, k)
        self._eye = np.eye(k, dtype=complex)

    def at(self, x, v):
        return self._eye.copy()


class ConstantWeight(WeightField):
    family = "constant-matrix"

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2:
            raise SceneValidationError("constant weight must be a 2-d matrix")
        super().__init__(mat.shape[1], mat.shape[0])
        self.matrix = mat

    def at(self, x, v):
        return self.matrix.copy()


class AngularWeight(WeightField):
    """``W(x, v) = I + amplitude * B(order * theta(v))`` with ``theta`` the chart
    direction angle.  ``B`` is the plane rotation in the first two components
    (the cosine for k = 1), so the smallest singular value is at least
    ``1 - |amplitude|``.

    An optional radial modulation scales the amplitude by
    ``1 + radial_modulation * |x|^2``; straight geodesics keep a constant
    direction, so without it the weight would not vary along euclidean chords
    at all.
    """

    family = "angular"

    def __init__(self, k: int, order: int, amplitude: float, radial_modulation: float = 0.0):
        super().__init__(k, k)
        self.order = int(order)
        self.amplitude = float(amplitude)
        self.radial_modulation = float(radial_modulation)

    def at(self, x, v):
        phi = self.order * math.atan2(v[1], v[0])
        amp = self.amplitude * (1.0 + self.radial_modulation * (x[0] ** 2 + x[1] ** 2))
        w = np.eye(self.k, dtype=complex)
        c, s = math.cos(phi), math.sin(phi)
        if self.k == 1:
            w[0, 0] += amp * c
        else:
            w[0, 0] += amp * c
            w[0, 1] += -amp * s
            w[1, 0] += amp * s
            w[1, 1] += amp * c
            for i in range(2, self.k):
                w[i, i] += amp
        return w


_ATTENUATION_PROFILES = {
    "constant": lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]),
    "gaussian": lambda x: np.exp(-2.0 * (np.asarray(x, dtype=float)[..., 0] ** 2
                                         + np.asarray(x, dtype=float)[..., 1] ** 2)),
}


class AttenuationWeight(WeightField):
    """Scalar exponential weight ``exp(-strength * int_0^tau a(geodesic))``.

    The exponent integrates the coefficient from the evaluation point to the
    exit boundary along the geodesic in the evaluation direction, which is
    the standard attenuated-transform convention.  The weight binds the
    metric so the evaluation is geometry-consistent.
    """

    family = "attenuation"

    def __init__(self, metric: MetricField, coefficient: str, strength: float,
                 trace_step: float = DEFAULT_STEP):
        super().__init__(1, 1)
        if coefficient not in _ATTENUATION_PROFILES:
            raise SceneValidationError(f"unknown attenuation coefficient {coefficient!r}")
        self.metric = metric
        self.coefficient = coefficient
        self.profile = _ATTENUATION_PROFILES[coefficient]
        self.strength = float(strength)
        self.trace_step = float(trace_step)

    def _tail_integral(self, path: GeodesicPath) -> np.ndarray:
        a = self.profile(path.x)
        cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (a[1:] + a[:-1]) * np.diff(path.t))])
        return cumulative[-1] - cumulative

    def at(self, x, v):
        start = unit_tangent(self.metric, x, v)
        path = trace_forward(self.metric, start, self.trace_step)
        tail = self._tail_integral(path)[0]
        return np.array([[np.exp(-self.strength * tail)]], dtype=complex)

    def along_path(self, path: GeodesicPath) -> "PathWeight":
        return _AttenuationPathWeight(self, path)


class _AttenuationPathWeight(PathWeight):
    def __init__(self, weight: AttenuationWeight, path: GeodesicPath):
        super().__init__(weight, path)
        self._tail = weight._tail_integral(path)
        self._coef = weight.profile(path.x)

    @property
    def at_samples(self) -> np.ndarray:
        if self._samples is None:
            vals = np.exp(-self.weight.strength * self._tail)
            self._samples = vals.reshape(-1, 1, 1).astype(complex)
        return self._samples

    def at_time(self, t: float) -> np.ndarray:
        # Hermite interpolation of the cumulative integral: its derivative is
        # the (negated) coefficient, which we know exactly at the samples.
        ts = self.path.t
        i = self.path._bracket(t)
        h = ts[i + 1] - ts[i]
        s = (t - ts[i]) / h
        tail = _hermite(self._tail[i], -self._coef[i] * h, self._tail[i + 1], -self._coef[i + 1] * h, s)
        return np.array([[np.exp(-self.weight.strength * tail)]], dtype=complex)


class ProductWeight(WeightField):
    """Pointwise matrix product of two weights; 1x1 factors act as scalars."""

    family = "product"

    def __init__(self, left: WeightField, right: WeightField):
        if left.k == left.m == 1:
            k, m = right.k, right.m
        elif right.k == right.m == 1:
            k, m = left.k, left.m
        elif left.k == right.m:
            k, m = right.k, left.m
        else:
            raise SceneValidationError(
                f"product weight dims do not chain: left {left.m}x{left.k}, right {right.m}x{right.k}"
            )
        super().__init__(k, m)
        self.left = left
        self.right = right

    def at(self, x, v):
        a = self.left.at(x, v)
        b = self.right.at(x, v)
        if a.shape == (1, 1):
            return a[0, 0] * b
        if b.shape == (1, 1):
            return b[0, 0] * a
        return a @ b


def injectivity_margin(weight: WeightField, samples) -> float:
    """Minimum over the samples of the smallest singular value of the weight.

    A positive margin certifies injectivity (full column rank) at the sampled
    resolution; the recovery solvers divide by exactly this quantity.
    """
    samples = list(samples)
    if not samples:
        raise SceneValidationError("injectivity margin needs a non-empty sample set")
    margin = math.inf
    for ut in samples:
        sv = np.linalg.svd(weight.at(ut.x, ut.v), compute_uv=False)
        margin = min(margin, float(sv[-1]))
    return margin


def sphere_bundle_samples(metric: MetricField, n_points: int = 40, n_dirs: int = 8):
    """Deterministic (point, direction) grid for margin and continuity probes."""
    out = []
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(n_points):
        r = math.sqrt((i + 0.5) / n_points) * 0.999
        ang = golden * i
        x = np.array([r * math.cos(ang), r * math.sin(ang)])
        for j in range(n_dirs):
            theta = 2.0 * math.pi * j / n_dirs
            out.append(unit_tangent(metric, x, np.array([math.cos(theta), math.sin(theta)])))
    return out


def weight_from_config(cfg: dict, metric: MetricField, trace_step: float = DEFAULT_STEP) -> WeightField:
    """Build a weight from its scene description (the ``scene.weight`` object)."""
    return _weight(cfg, "scene.weight", metric, trace_step)


def _weight(cfg, key, metric, trace_step):
    if not isinstance(cfg, dict):
        raise SceneValidationError(f"{key}: expected an object, got {cfg!r}")
    family = cfg.get("family")

    def number(name, default, integer=False):
        return config_number(cfg.get(name, default), f"{key}.{name}", integer)

    if family == "identity":
        return IdentityWeight(number("k", 1, integer=True))
    if family == "constant-matrix":
        if cfg.get("matrix") is None:
            raise SceneValidationError("constant-matrix weight needs a 'matrix' entry")
        return ConstantWeight(complex_matrix(cfg["matrix"], f"{key}.matrix"))
    if family == "angular":
        return AngularWeight(number("k", 1, integer=True), number("order", 1, integer=True),
                             number("amplitude", 0.0), number("radial_modulation", 0.0))
    if family == "attenuation":
        return AttenuationWeight(metric, cfg.get("coefficient", "constant"), number("strength", 1.0), trace_step)
    if family == "product":
        return ProductWeight(_weight(cfg.get("left"), f"{key}.left", metric, trace_step),
                             _weight(cfg.get("right"), f"{key}.right", metric, trace_step))
    raise SceneValidationError(f"weight: unknown family {family!r}")


def complex_matrix(rows, key: str, cols: int = None) -> np.ndarray:
    """A scene's complex matrix: rows of ``cols`` entries (by default as many
    as the first row has), each a number or an ``[re, im]`` pair.  Anything
    else (ragged rows, a non-number, NaN) raises a SceneValidationError
    naming ``key``."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise SceneValidationError(f"{key}: expected a list of rows, got {rows!r}")
    if cols is None:
        cols = len(rows[0]) if rows else 0
    out = np.zeros((len(rows), cols), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise SceneValidationError(f"{key}[{i}]: expected {cols} entries, got {len(row)}")
        for j, entry in enumerate(row):
            try:
                re, im = entry if isinstance(entry, list) else (entry, 0.0)
                out[i, j] = z = complex(float(re), float(im))
            except (TypeError, ValueError, OverflowError):
                z = complex(math.nan)
            if not cmath.isfinite(z):
                raise SceneValidationError(
                    f"{key}[{i}][{j}]: expected a finite number or an [re, im] pair, got {entry!r}")
    return out
