"""Matrix weight fields on the unit sphere bundle.

A weight assigns an ``m x k`` complex matrix to every (point, direction)
pair, continuously.  Families are closed form except ``attenuation``, whose
exponent is the integral of a scalar coefficient along the forward geodesic
to the boundary; the integral uses the same trapezoid quadrature as the
forward transform so the weight is consistent with the geometry.  Along
the paths of a ``PathStack``, ``along`` evaluates a weight at the stack's
Hermite states, an attenuation from each path's own tail integral, and a
product factor by factor, so integrating a plan traces nothing more.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import SceneValidationError, config_number
from .geometry import DEFAULT_STEP, MetricField, PathStack, _trace_rows, unit_tangents, unwrap

# Largest width ``k`` of a scene's identity or angular weight, which holds a k x k matrix per sample
MAX_COMPONENTS = 64


class WeightField:
    """Base class; subclasses implement ``at``."""

    family = "base"

    def __init__(self, k: int, m: int):
        if k < 1 or m < k:
            raise SceneValidationError(f"weight dims must satisfy m >= k >= 1, got k={k}, m={m}")
        self.k = int(k)
        self.m = int(m)

    def at(self, x, v) -> np.ndarray:
        """Weights at chart points ``x`` with directions ``v``, both ``(..., 2)``:
        an ``(..., m, k)`` complex array."""
        raise NotImplementedError

    def along(self, stack: PathStack):
        """The weight along the paths of ``stack``: a function of path indices
        and arclengths of one shape that returns ``shape + (m, k)``."""
        return lambda path, t: self.at(*stack.states(path, t))


def _batch(x, v):
    """``x`` and ``v`` as float arrays broadcast to one shape ``(..., 2)``."""
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))


class ConstantWeight(WeightField):
    family = "constant-matrix"

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2:
            raise SceneValidationError("constant weight must be a 2-d matrix")
        super().__init__(mat.shape[1], mat.shape[0])
        self.matrix = mat

    def at(self, x, v):
        return np.broadcast_to(self.matrix, _batch(x, v)[0].shape[:-1] + self.matrix.shape).copy()

    def along(self, stack: PathStack):
        return lambda path, t: np.broadcast_to(self.matrix, np.shape(t) + self.matrix.shape)


class IdentityWeight(ConstantWeight):
    family = "identity"

    def __init__(self, k: int):
        super().__init__(np.eye(k, dtype=complex))


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
        x, v = _batch(x, v)
        phi = self.order * np.arctan2(v[..., 1], v[..., 0])
        amp = self.amplitude * (1.0 + self.radial_modulation * (x[..., 0] ** 2 + x[..., 1] ** 2))
        w = np.broadcast_to(np.eye(self.k, dtype=complex), amp.shape + (self.k, self.k)).copy()
        c, s = np.cos(phi), np.sin(phi)
        w[..., 0, 0] += amp * c
        if self.k > 1:
            w[..., 0, 1] += -amp * s
            w[..., 1, 0] += amp * s
            w[..., 1, 1] += amp * c
            for i in range(2, self.k):
                w[..., i, i] += amp
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

    def _tails(self, stack: PathStack) -> np.ndarray:
        """Trapezoid integrals of the coefficient from each sample of the stack to
        the last of its path: the path's total less its sum up to the sample,
        both summed in sample order, as ``np.cumsum`` of that path alone sums them."""
        a, counts = self.profile(stack.x), stack.stop - stack.first
        terms = 0.5 * (a[1:] + a[:-1]) * np.diff(stack.t)
        row = np.repeat(np.arange(len(counts)), counts)
        col = np.arange(len(stack.t)) - stack.first[row]
        joined = np.flatnonzero(col > 0)   # term j - 1 joins sample j - 1 to sample j of one row
        grid = np.zeros((len(counts), counts.max(initial=1)))
        grid[row[joined], col[joined]] = terms[joined - 1]
        cumulative = np.cumsum(grid, axis=1)   # past its last sample a row keeps its total
        return cumulative[row, -1] - cumulative[row, col]

    def at(self, x, v):
        """Points are normalized in one ``unit_tangents`` pass, the first row it rejects raising its
        error, and traced to the boundary together in one lockstep call."""
        x, v = _batch(x, v)
        starts = [unwrap(start) for start in unit_tangents(self.metric, x, v)]
        stack, paths = _trace_rows(self.metric, np.array([np.concatenate([s.x, s.v]) for s in starts]).reshape(-1, 4),
                                   self.trace_step)
        for path in paths:
            unwrap(path)
        tail = self._tails(stack)[stack.first]
        return self._weight(tail).reshape(x.shape[:-1] + (1, 1))

    def along(self, stack: PathStack):
        # Hermite interpolation of every path's tail integral along the path
        # itself: its derivative is minus the coefficient, known exactly at the samples.
        tail, slope = self._tails(stack), -self.profile(stack.x)
        return lambda path, t: self._weight(stack.hermite(stack.interval(path, t), t, tail, slope))[..., None, None]

    def _weight(self, tail):
        return np.exp(-self.strength * tail).astype(complex)


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
        return self._combine(self.left.at(x, v), self.right.at(x, v))

    def along(self, stack: PathStack):
        left, right = self.left.along(stack), self.right.along(stack)
        return lambda path, t: self._combine(left(path, t), right(path, t))

    @staticmethod
    def _combine(a, b):
        if a.shape[-2:] == (1, 1):
            return a[..., :1, :1] * b
        if b.shape[-2:] == (1, 1):
            return b[..., :1, :1] * a
        return a @ b


def injectivity_margin(weight: WeightField, samples) -> float:
    """Minimum over the samples of the smallest singular value of the weight.

    A positive margin certifies injectivity (full column rank) at the sampled
    resolution; the recovery solvers divide by exactly this quantity.
    """
    samples = list(samples)
    if not samples:
        raise SceneValidationError("injectivity margin needs a non-empty sample set")
    w = weight.at(np.array([ut.x for ut in samples]), np.array([ut.v for ut in samples]))
    return float(np.linalg.svd(w, compute_uv=False)[:, -1].min())


def sphere_bundle_samples(metric: MetricField, n_points: int = 40, n_dirs: int = 8):
    """Deterministic (point, direction) grid for margin and continuity probes, normalized in one
    ``unit_tangents`` pass."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i in range(n_points):
        r = math.sqrt((i + 0.5) / n_points) * 0.999
        ang = golden * i
        points.append([r * math.cos(ang), r * math.sin(ang)])
    thetas = [2.0 * math.pi * j / n_dirs for j in range(n_dirs)]
    dirs = [[math.cos(theta), math.sin(theta)] for theta in thetas]
    return [unwrap(start) for start in
            unit_tangents(metric, np.repeat(np.reshape(points, (-1, 2)), n_dirs, axis=0), np.tile(dirs, (n_points, 1)))]


def weight_from_config(cfg: dict, metric: MetricField, trace_step: float = DEFAULT_STEP) -> WeightField:
    """Build a weight from its scene description (the ``scene.weight`` object)."""
    return _weight(cfg, "scene.weight", metric, trace_step)


def _weight(cfg, key, metric, trace_step):
    if not isinstance(cfg, dict):
        raise SceneValidationError(f"{key}: expected an object, got {cfg!r}")
    family = cfg.get("family")

    def number(name, default, integer=False):
        return config_number(cfg.get(name, default), f"{key}.{name}", integer)

    def width():
        if (k := number("k", 1, integer=True)) > MAX_COMPONENTS:
            raise SceneValidationError(f"{key}.k: {k} components exceed the limit of {MAX_COMPONENTS}")
        return k

    if family == "identity":
        return IdentityWeight(width())
    if family == "constant-matrix":
        if cfg.get("matrix") is None:
            raise SceneValidationError("constant-matrix weight needs a 'matrix' entry")
        return ConstantWeight(complex_matrix(cfg["matrix"], f"{key}.matrix"))
    if family == "angular":
        return AngularWeight(width(), number("order", 1, integer=True),
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
