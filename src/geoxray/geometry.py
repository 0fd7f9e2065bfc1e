"""Metric families, geodesic tracing, parallel transport, convexity checks.

The chart domain is the closed unit disk.  All metric families are conformal
to the flat metric, ``g_ij(x) = exp(2*lam(x)) * delta_ij``, with the profile
``lam`` and its gradient available in closed form; no metric quantity is
ever differentiated numerically.

Geodesics are integrated with one fixed-step classical Runge-Kutta scheme,
``rk4``, in the state ``(x, v)``, in one lockstep loop, ``_lockstep``: the rows
of a call advance as one array, each to its own step count or to the step that
its caller's exit test marks.  The tracer's exits are then located together by
bisection on ``|x| - 1`` inside the steps that crossed, on the turns a Newton
guess predicts as far as the exit test, checking them all at once, agrees: the
guess decides no turn.  Parallel transport appends a vector ``w`` to the state.
Each row gets the arithmetic of a one-row run bit for bit, so a path does not
depend on what it was traced with.  Paths are unit speed in ``g``, so the curve
parameter is arclength.  One gather lays the paths of a call end to end in one
``PathStack``, and each GeodesicPath is a view of it; clipping and integration
read that stack as it is.  Paths are evaluated in one place, the stack: one
bisection finds every query's sample interval, for cubic Hermite interpolation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FanConstructionError,
    GeoxrayError,
    SceneValidationError,
    TrappingSuspectedError,
    config_numbers,
)

DISK_RADIUS = 1.0
BOUNDARY_TOL = 1e-9
# Bisection on |x| - 1 runs to this interval width; tighter than the 1e-10
# contract so that exit times are clean enough for order measurements.
EVENT_WIDTH = 1e-13
# Nontrapping cap: 100 times the chart diameter.
ARCLENGTH_CAP = 100.0 * (2.0 * DISK_RADIUS)
# Samples (rows times steps) a tracer call stores before it pauses the rows still inside, about 80 bytes
# each at the gather: so a trapped row costs no memory past it, only its steps up to the arclength cap.
MAX_TRACE_SAMPLES = 1 << 21
DEFAULT_STEP = 1e-2
# Largest |lam| for which the conformal factor exp(2 lam) is a finite float.
LAM_LIMIT = 0.5 * math.log(sys.float_info.max)
# rk4 steps up to this many rows (x, v) in Python floats, and more through numpy.  On a 2-vCPU host
# (numpy 2.4, CPython 3.11, medians of 15) a numpy step of 1-16 rows costs 19-21 us on euclidean,
# 41-49 us on conformal-radial and 68-93 us on conformal-gaussian, and a float row 1.3, 2.4 and
# 4.5 us (one np.exp per stage): the crossovers are at about 13, 20 and 18 rows.
FLOAT_ROWS = 16
# Midpoints per call of the exit check; at 8192 the demo plan's tracemalloc peak rises from 4.62 to 4.90 MB.
EXIT_BLOCK = 4096


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------

class MetricField:
    """A conformal metric ``exp(2*lam) * delta`` on the closed unit disk.

    Subclasses implement ``lam`` and ``lam_grad`` for batched chart points of
    shape ``(..., 2)``.
    """

    family = "base"

    def __init__(self, params=()):
        self.params = tuple(float(p) for p in params)

    # -- conformal profile, closed form per family -------------------------
    def lam(self, x):
        raise NotImplementedError

    def lam_grad(self, x):
        raise NotImplementedError

    # -- derived tensor quantities -----------------------------------------
    def matrix(self, x):
        """Metric matrix ``g_ij(x)``, shape ``(..., 2, 2)``."""
        x = np.asarray(x, dtype=float)
        factor = np.exp(2.0 * self.lam(x))
        eye = np.eye(2)
        return factor[..., None, None] * eye

    def christoffel(self, x):
        """Levi-Civita coefficients ``Gamma[..., i, j, k] = Gamma^i_{jk}`` at points ``(..., 2)``.

        For ``g = exp(2*lam) * delta`` they are ``delta_ij d_k + delta_ik d_j
        - delta_jk d_i`` with ``d = grad lam``.  Raises DomainError when a
        point lies outside the closed disk (a hair of tolerance is allowed so
        boundary points are usable).
        """
        x = np.asarray(x, dtype=float)
        outside = np.flatnonzero(np.hypot(x[..., 0], x[..., 1]) > DISK_RADIUS + BOUNDARY_TOL)
        if outside.size:
            raise DomainError(f"point {x.reshape(-1, 2)[outside[0]].tolist()} lies outside the chart domain")
        d = self.lam_grad(x)
        eye = np.eye(2)
        return (eye[:, :, None] * d[..., None, None, :] + eye[:, None, :] * d[..., None, :, None]
                - eye * d[..., :, None, None])

    def accel(self, x, v):
        """Geodesic acceleration ``-Gamma(v, v)``; no domain check."""
        d = self.lam_grad(x)
        dv = d[..., 0] * v[..., 0] + d[..., 1] * v[..., 1]
        vv = v[..., 0] ** 2 + v[..., 1] ** 2
        return -2.0 * dv[..., None] * v + vv[..., None] * d

    def grad_floats(self, x0, x1):
        """``lam_grad`` of one point in Python floats, by the same operations in the same order."""
        raise NotImplementedError

    def accel_floats(self, x0, x1, v0, v1):
        """``accel`` of one row in Python floats, bit for bit: squares are products, as numpy's are."""
        d0, d1 = self.grad_floats(x0, x1)
        dv, vv = d0 * v0 + d1 * v1, v0 * v0 + v1 * v1
        return -2.0 * dv * v0 + vv * d0, -2.0 * dv * v1 + vv * d1

    def transport_deriv(self, x, v, w):
        """Right-hand side ``-Gamma(v, w)`` of the parallel transport ODE."""
        d = self.lam_grad(x)
        dv = d[..., 0] * v[..., 0] + d[..., 1] * v[..., 1]
        dw = d[..., 0] * w[..., 0] + d[..., 1] * w[..., 1]
        vw = v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1]
        return -(dw[..., None] * v + dv[..., None] * w - vw[..., None] * d)

    # -- inner products and frames ------------------------------------------
    def inner(self, x, u, w):
        factor = math.exp(2.0 * float(self.lam(np.asarray(x, dtype=float))))
        return factor * float(u[0] * w[0] + u[1] * w[1])

    def norm(self, x, v):
        return math.sqrt(max(self.inner(x, v, v), 0.0))

    def unit(self, x, v):
        n = self.norm(x, v)
        if n == 0.0:
            raise SceneValidationError("cannot normalize a zero tangent vector")
        return np.asarray(v, dtype=float) / n

    def frame(self, x):
        """Matrix A with ``u = A @ d`` the g-orthonormal components of d."""
        factor = math.exp(float(self.lam(np.asarray(x, dtype=float))))
        return factor * np.eye(2)

    def rotate90(self, x, v, sign=1):
        """Rotate v by ``sign * pi/2`` in the g-orthonormal frame at x.

        For conformal metrics this coincides with the chart rotation and
        preserves the g-norm exactly.
        """
        a = self.frame(x)
        u = a @ np.asarray(v, dtype=float)
        u_rot = np.array([-sign * u[1], sign * u[0]])
        return np.linalg.solve(a, u_rot)


class EuclideanMetric(MetricField):
    family = "euclidean"

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def lam_grad(self, x):
        return np.zeros(np.asarray(x, dtype=float).shape)

    def accel(self, x, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def accel_floats(self, x0, x1, v0, v1):
        return 0.0, 0.0

    def transport_deriv(self, x, v, w):
        return np.zeros_like(np.asarray(w, dtype=float))


class RadialConformalMetric(MetricField):
    """Profile ``lam(x) = alpha * |x|^2``; params ``[alpha]``."""

    family = "conformal-radial"

    def __init__(self, params):
        super().__init__(params)
        if len(self.params) != 1:
            raise SceneValidationError("conformal-radial takes exactly one parameter")
        self.alpha = self.params[0]

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        return self.alpha * (x[..., 0] ** 2 + x[..., 1] ** 2)

    def lam_grad(self, x):
        return 2.0 * self.alpha * np.asarray(x, dtype=float)

    def grad_floats(self, x0, x1):
        c = 2.0 * self.alpha
        return c * x0, c * x1


class GaussianConformalMetric(MetricField):
    """Profile ``lam(x) = a * exp(-|x - c|^2 / w^2)``; params ``[a, cx, cy, w]``."""

    family = "conformal-gaussian"

    def __init__(self, params):
        super().__init__(params)
        if len(self.params) != 4:
            raise SceneValidationError("conformal-gaussian takes [amplitude, cx, cy, width]")
        self.amplitude, cx, cy, self.width = self.params
        # width^2 must be positive and finite, and so must |x - c|^2 / width^2 and 2 lam / width^2 on the disk
        r, w2 = abs(cx) + abs(cy) + 2.0, self.width * self.width
        if not (self.width > 0 and 0.0 < w2 < math.inf and (r * r + 2.0 * LAM_LIMIT) / w2 < math.inf):
            raise SceneValidationError(f"scene.metric.params: conformal-gaussian width {self.width:g} must be "
                                       f"positive, and with center ({cx:g}, {cy:g}) keep the profile finite")
        self.center = np.array([cx, cy])

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.amplitude * np.exp(-(d[..., 0] ** 2 + d[..., 1] ** 2) / self.width**2)

    def lam_grad(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.lam(x)[..., None] * (-2.0 / self.width**2) * d

    def grad_floats(self, x0, x1):
        # np.exp, not math.exp: the two differ in the last bit on some arguments
        _, cx, cy, w = self.params
        d0, d1 = x0 - cx, x1 - cy
        c = self.amplitude * float(np.exp(-(d0 * d0 + d1 * d1) / w**2)) * (-2.0 / w**2)
        return c * d0, c * d1


_METRIC_FAMILIES = {
    "euclidean": EuclideanMetric,
    "conformal-radial": RadialConformalMetric,
    "conformal-gaussian": GaussianConformalMetric,
}


def metric_from_config(family: str, params=()) -> MetricField:
    try:
        cls = _METRIC_FAMILIES[family]
    except (KeyError, TypeError):   # TypeError: a list or an object is no family name
        raise SceneValidationError(f"scene.metric.family: unknown family {family!r}") from None
    params = config_numbers(params, "scene.metric.params")
    if cls is EuclideanMetric:
        if params:
            raise SceneValidationError("metric: euclidean takes no parameters")
        return cls()
    metric = cls(params)
    # |lam| <= |params[0]| on the disk in both curved families; exp(2 lam) must be a float
    if abs(metric.params[0]) > LAM_LIMIT:
        raise SceneValidationError(f"scene.metric.params: |{metric.params[0]:g}| exceeds {LAM_LIMIT:.6g}, "
                                   "where the metric factor exp(2 lam) overflows")
    return metric


# ---------------------------------------------------------------------------
# tangent vectors and paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitTangent:
    """A chart point with a g-unit direction attached."""

    x: np.ndarray
    v: np.ndarray


def unit_tangent(metric: MetricField, x, v) -> UnitTangent:
    """Normalize ``v`` at ``x`` in ``g`` and package the pair."""
    x = np.asarray(x, dtype=float)
    if np.hypot(x[0], x[1]) > DISK_RADIUS + BOUNDARY_TOL:
        raise DomainError(f"base point {x.tolist()} outside the closed disk")
    v = metric.unit(x, v)
    # false for NaN too: a non-finite point, direction or metric stops here
    if not abs(metric.inner(x, v, v) - 1.0) <= 1e-12:
        raise SceneValidationError(f"tangent at {x.tolist()} has no finite unit length in the metric")
    return UnitTangent(x=x, v=v)


def unit_tangents(metric: MetricField, x, v):
    """``unit_tangent`` of the rows of ``x`` and ``v`` ``(N, 2)`` in one array pass: the points and
    their unit directions, ``(N, 2)`` each, row by row the scalar bits.  The factor ``exp(2 lam)``
    is ``math.exp`` per row, as ``inner`` takes it.  The first row ``unit_tangent`` rejects raises its error."""
    x, v = np.asarray(x, dtype=float).reshape(-1, 2), np.asarray(v, dtype=float).reshape(-1, 2)
    factor = np.array([math.exp(2.0 * lam) for lam in metric.lam(x).tolist()])
    n = np.sqrt(np.maximum(factor * (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / n[:, None]
    bad = (np.hypot(x[:, 0], x[:, 1]) > DISK_RADIUS + BOUNDARY_TOL) | (n == 0.0)
    bad |= ~(np.abs(factor * (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]) - 1.0) <= 1e-12)
    for r in np.flatnonzero(bad)[:1].tolist():
        unit_tangent(metric, x[r], v[r])
    return x, u


def boundary_tangent(metric: MetricField, boundary_angle: float, direction_angle: float) -> UnitTangent:
    """Unit tangent at a boundary point with a chart direction angle."""
    x = np.array([math.cos(boundary_angle), math.sin(boundary_angle)])
    v = np.array([math.cos(direction_angle), math.sin(direction_angle)])
    return unit_tangent(metric, x, v)


def boundary_tangents(metric: MetricField, descriptors) -> list:
    """``boundary_tangent`` of every (boundary angle, direction angle) pair, in one ``unit_tangents``
    pass: per pair the UnitTangent, bit for bit, or the error that ``boundary_tangent`` raises for it.
    Points and directions come from ``math.cos`` and ``math.sin``, as ``boundary_tangent`` takes them."""
    rows = np.array([[math.cos(a), math.sin(a), math.cos(d), math.sin(d)] for a, d in descriptors]).reshape(-1, 4)
    try:
        x, v = unit_tangents(metric, rows[:, :2], rows[:, 2:])
    except GeoxrayError:
        out = []   # some start cannot be built: each pair gets its own start or error
        for a, d in descriptors:
            try:
                out.append(boundary_tangent(metric, a, d))
            except GeoxrayError as exc:
                out.append(exc)
        return out
    return [UnitTangent(x=p, v=u) for p, u in zip(x, v)]


@dataclass(frozen=True)
class GeodesicPath:
    """A sampled unit-speed geodesic, path ``p`` of ``stack``.

    ``t`` is arclength from the first sample, ``x`` and ``v`` the per-sample
    positions and velocities, slices of the stack's.  ``endpoints_on_boundary``
    is set when both ends lie on the boundary circle within 1e-9.
    """

    stack: "PathStack" = field(repr=False)
    p: int

    t = property(lambda self: self.stack.t[self.stack.first[self.p]:self.stack.stop[self.p]])
    x = property(lambda self: self.stack.x[self.stack.first[self.p]:self.stack.stop[self.p]])
    v = property(lambda self: self.stack.v[self.stack.first[self.p]:self.stack.stop[self.p]])
    metric = property(lambda self: self.stack.metric)
    tau = property(lambda self: float(self.t[-1]))
    n_samples = property(lambda self: len(self.t))

    @property
    def endpoints_on_boundary(self) -> bool:
        return all(abs(math.hypot(*self.x[i]) - DISK_RADIUS) <= BOUNDARY_TOL for i in (0, -1))

    def position(self, t) -> np.ndarray:
        """Position at arclength ``t`` (a scalar or an array), by cubic Hermite interpolation."""
        if self.n_samples == 1:   # a path of one sample has no interval to interpolate on
            return np.broadcast_to(self.x[0], np.shape(t) + (2,)).copy()
        return self.stack.position(np.full(np.shape(t), self.p), np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PathStack:
    """The samples of several paths laid end to end, path ``p`` at rows
    ``first[p]:stop[p]``, so that a whole plan is clipped and integrated in
    one pass; ``trace_geodesics`` lays out the paths of a call in one.  Every
    evaluation along a path goes through here: ``search`` finds the sample
    interval of each query, and ``hermite`` interpolates per-sample values on it."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    first: np.ndarray
    stop: np.ndarray
    metric: MetricField = field(repr=False, compare=False, default=None)

    @classmethod
    def of(cls, paths) -> "PathStack":
        """The stack of ``paths`` if they are all its paths in order, else their samples copied end to end."""
        stack = paths[0].stack if paths else None
        if stack and [p.p if p.stack is stack else -1 for p in paths] == list(range(len(stack.first))):
            return stack
        counts = np.array([p.n_samples for p in paths], dtype=int)
        t = np.concatenate([np.zeros(0)] + [p.t for p in paths])   # the empty blocks shape an empty plan
        x, v = (np.concatenate([np.zeros((0, 2))] + [getattr(p, a) for p in paths]) for a in "xv")
        return cls(t, x, v, np.cumsum(counts) - counts, np.cumsum(counts), stack and stack.metric)

    def search(self, path, q) -> np.ndarray:
        """Per query, ``np.searchsorted(side="right")`` of arclength ``q`` on the times
        of path ``path``, as a stack row; one bisection serves every query."""
        lo, hi = self.first[path], self.stop[path]
        while (busy := lo < hi).any():
            mid = (lo + hi) // 2
            up = busy & (self.t[np.where(busy, mid, 0)] <= q)
            lo, hi = np.where(up, mid + 1, lo), np.where(busy & ~up, mid, hi)
        return lo

    def interval(self, path, q) -> np.ndarray:
        """Per query, the stack row of the sample that opens its Hermite interval."""
        return np.clip(self.search(path, q) - 1, self.first[path], self.stop[path] - 2)

    def hermite(self, i, q, values, slopes) -> np.ndarray:
        """Cubic Hermite interpolant of per-sample ``values`` with arclength
        derivatives ``slopes`` on sample intervals ``i`` at arclengths ``q``; at
        a sample time it returns that sample's value exactly."""
        return _hermite_at(self.t, i, q, values[i], slopes[i], values[i + 1], slopes[i + 1])

    def position(self, path, q) -> np.ndarray:
        """Positions at arclengths ``q`` on paths ``path``."""
        return self.hermite(self.interval(path, q), q, self.x, self.v)

    def states(self, path, q):
        """Positions and velocities ``(x, v)`` at arclengths ``q`` on paths ``path``; velocities
        take as slopes the exact accelerations at the two samples around each query."""
        i = self.interval(path, q)
        x, v = self.x[[i, i + 1]], self.v[[i, i + 1]]
        a = self.metric.accel(x, v)
        return (_hermite_at(self.t, i, q, x[0], v[0], x[1], v[1]),
                _hermite_at(self.t, i, q, v[0], a[0], v[1], a[1]))


def _hermite_at(t, i, q, p0, m0, p1, m1):
    """Cubic Hermite interpolant on sample interval ``i`` (an index per query) at
    arclengths ``q``, from the values ``p`` and arclength slopes ``m`` at its ends."""
    h = t[i + 1] - t[i]
    s = (q - t[i]) / h
    trailing = (Ellipsis,) + (None,) * (p0.ndim - np.ndim(i))
    h, s = h[trailing], s[trailing]
    return _hermite(p0, m0 * h, p1, m1 * h, s)


def _hermite(p0, m0, p1, m1, s):
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * p0
        + (s3 - 2 * s2 + s) * m0
        + (-2 * s3 + 3 * s2) * p1
        + (s3 - s2) * m1
    )


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def rk4(rhs, y, h):
    """One classical Runge-Kutta step of ``y' = rhs(y)`` (a ``_flow``) for every row of ``y``.

    ``y`` is ``(N, width)``, ``h`` a scalar or an ``(N, 1)`` column of per-row
    steps.  Rows do not mix: each gets the arithmetic of a one-row step.  Up to
    ``FLOAT_ROWS`` rows ``(x, v)`` are stepped in Python floats by the same
    operations, so with the same bits; wider rows and more rows go through numpy.
    """
    if len(y) <= FLOAT_ROWS and y.shape[1] == 4:
        return _rk4_floats(rhs.accel, y, h)
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_floats(accel, y, h):
    """``rk4`` of rows ``(x, v)`` one at a time in Python floats, with ``accel`` a
    ``MetricField.accel_floats``: numpy's operations element by element, in its order."""
    out = []
    for (x0, x1, v0, v1), h in zip(y.tolist(), h.ravel().tolist() if isinstance(h, np.ndarray) else [float(h)] * len(y)):
        hh, h6 = 0.5 * h, h / 6.0
        a0, a1 = accel(x0, x1, v0, v1)   # k1 = (v, a), then k2 = (q, b), k3 = (r, c), k4 = (s, e)
        q0, q1 = v0 + hh * a0, v1 + hh * a1
        b0, b1 = accel(x0 + hh * v0, x1 + hh * v1, q0, q1)
        r0, r1 = v0 + hh * b0, v1 + hh * b1
        c0, c1 = accel(x0 + hh * q0, x1 + hh * q1, r0, r1)
        s0, s1 = v0 + h * c0, v1 + h * c1
        e0, e1 = accel(x0 + h * r0, x1 + h * r1, s0, s1)
        out.append((x0 + h6 * (v0 + 2.0 * q0 + 2.0 * r0 + s0), x1 + h6 * (v1 + 2.0 * q1 + 2.0 * r1 + s1),
                    v0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + e0), v1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + e1)))
    return np.array(out).reshape(-1, 4)


def _flow(metric):
    """Right-hand side of the geodesic flow on rows ``(x, v)``; columns past
    the fourth hold a vector ``w`` carried along by parallel transport."""
    def rhs(y):
        x, v = y[:, :2], y[:, 2:4]
        parts = [v, metric.accel(x, v)]
        if y.shape[1] > 4:
            parts.append(metric.transport_deriv(x, v, y[:, 4:]))
        return np.concatenate(parts, axis=1)
    rhs.accel = metric.accel_floats
    return rhs


def _radius(x):
    """``|x|`` of every row, rounded as ``math.hypot`` rounds it: ``np.hypot``
    may differ in the last bit, which matters only next to the unit circle."""
    r = np.hypot(x[:, 0], x[:, 1])
    for i in np.flatnonzero(np.abs(r - DISK_RADIUS) < 1e-15):
        r[i] = math.hypot(x[i, 0], x[i, 1])
    return r


def _outside(x):
    """Which rows are on or past the unit circle, as ``_radius(x) >= DISK_RADIUS`` tells; None for no
    row when every row is more than 1e-15 inside it, where ``_radius`` keeps ``np.hypot``'s value: up
    to ``FLOAT_ROWS`` rows ``x0*x0 + x1*x1 < (1 - 2e-15)**2`` in Python floats tells, past them one
    ``np.hypot`` and one max.  A NaN row fails either test and takes the rule."""
    inside = (all(a * a + b * b < (1.0 - 2e-15) ** 2 for a, b in x[:, :2].tolist()) if len(x) <= FLOAT_ROWS
              else np.hypot(x[:, 0], x[:, 1]).max() < DISK_RADIUS - 1e-15)
    return None if inside else _radius(x) >= DISK_RADIUS


def _bisect_lanes(below, lo, hi, width, *lanes, guess=None):
    """Bisect every bracket ``[lo, hi]`` together until it is at most ``width`` wide.

    ``below(mid, *lanes)`` tells, lane by lane, whether the root lies below
    ``mid``; ``lanes`` are per-lane arrays it reads.  Lane by lane this is the
    scalar loop ``hi = mid if below else lo = mid`` while ``hi - lo > width``.
    Given a ``guess`` of each root, ``_verified_walk`` first takes each lane's turns up to the first
    the guess predicts wrong; then each pass takes two turns with one call of ``below``, on the midpoint
    and on both midpoints the next turn may need, so a pass costs few numpy calls however few lanes there
    are; finished lanes are dropped.  Every turn is ``below``'s.  Returns the final midpoints.
    """
    width = np.broadcast_to(width, np.shape(lo))
    lo, hi = (lo, hi) if guess is None else _verified_walk(below, lo, hi, width, guess, lanes)
    root = 0.5 * (lo + hi)
    ids, lanes3 = np.arange(len(root)), None
    busy = hi - lo > width
    while True:
        if lanes3 is None or not busy.all():
            root[ids[~busy]] = 0.5 * (lo[~busy] + hi[~busy])
            ids, lo, hi, width = ids[busy], lo[busy], hi[busy], width[busy]
            lanes = [a[busy] for a in lanes]
            lanes3 = [np.concatenate([a, a, a]) for a in lanes]
        if not ids.size:
            return root
        mid = 0.5 * (lo + hi)
        lo_mid, mid_hi = 0.5 * (lo + mid), 0.5 * (mid + hi)
        down, down_lo, down_hi = below(np.concatenate([mid, lo_mid, mid_hi]), *lanes3).reshape(3, -1)
        lo, hi = np.where(down, lo, mid), np.where(down, mid, hi)
        # the second turn, for the lanes it is due on
        mid, down = np.where(down, lo_mid, mid_hi), np.where(down, down_lo, down_hi)
        busy = hi - lo > width
        lo, hi = np.where(busy & ~down, mid, lo), np.where(busy & down, mid, hi)
        busy = hi - lo > width


def _verified_walk(below, lo, hi, width, guess, lanes):
    """Each lane's bracket after its turns up to the first that ``below`` contradicts, taken its way, or after
    all: walked in Python floats as the guess predicts (below where ``guess <= mid``), checked in blocks."""
    mids, ends = [], []
    for l, h, w, g in zip(lo.tolist(), hi.tolist(), width.tolist(), guess.tolist()):
        while h - l > w:   # a NaN guess predicts up at every turn
            m = 0.5 * (l + h)
            mids.append(m)
            l, h = (l, m) if g <= m else (m, h)
        ends.append(len(mids))
    if not mids:
        return lo, hi
    mid, ends, n = np.array(mids), np.array(ends), np.diff(ends, prepend=0)
    lane = np.repeat(np.arange(len(lo)), n)
    told = np.concatenate([below(mid[j:j + EXIT_BLOCK], *(a[lane[j:j + EXIT_BLOCK]] for a in lanes))
                           for j in range(0, len(mid), EXIT_BLOCK)])
    # a lane stops at its first contradicted turn, else its last, bounded by its last midpoints each way
    wrong = np.flatnonzero(told != (guess[lane] <= mid))
    first, stop = wrong[np.diff(lane[wrong], prepend=-1) != 0], ends - 1
    stop[lane[first]] = first
    last = (np.maximum.accumulate(np.where(told == d, np.arange(len(mid)), -1))[stop] for d in (False, True))
    return tuple(np.where((n > 0) & (i >= ends - n), mid[i], end) for i, end in zip(last, (lo, hi)))


def _exit_guess(rhs, y0, step):
    """Exit arclengths in ``[0, step]`` guessed by Newton on the RK4 step map: ``|x(s)|^2 = 1``, slope ``2 x.v``."""
    s = np.zeros(len(y0))
    with np.errstate(all="ignore"):   # a grazing row may divide by zero: the guess decides no turn
        for k in range(4):   # Newton steps: at 3, an exit at x.v = 0.07 was 4e-12 off and took 4 more passes
            x0, x1, v0, v1 = (rk4(rhs, y0, s[:, None]) if k else y0).T
            s = np.clip(s + (1.0 - x0 * x0 - x1 * x1) / (2.0 * (x0 * v0 + x1 * v1)), 0.0, step)
    return s


def _lockstep(metric, y, h, steps, past):
    """Step the rows ``(x, v, ...)`` of ``y`` together by RK4 steps of ``h``, a scalar or an ``(N, 1)``
    column, each row with the arithmetic of a one-row run.  Row ``i`` takes ``steps[i]`` steps, or stops
    at the first whose new state ``past`` marks (a row mask, or None for no row).  After each step it
    yields the rows that go on with their new states, and the rows that stopped with their old ones."""
    rhs, k, rows, per_row = _flow(metric), 0, np.flatnonzero(steps > 0), np.ndim(h) > 0
    cur, ends = y[rows], set(steps[rows].tolist())   # the step counts that rows end at
    none = rows[:0], y[:0]   # no row stopped at the step
    while rows.size:
        k += 1
        nxt = rk4(rhs, cur, h[rows] if per_row else h)
        gone, before = none
        stop = past(nxt)
        if stop is not None and stop.any():
            gone, before, rows, nxt = rows[stop], cur[stop], rows[~stop], nxt[~stop]
        yield rows, nxt, gone, before
        if k in ends:   # the rows whose count is done stop
            rows, nxt = rows[steps[rows] > k], nxt[steps[rows] > k]
        cur = nxt


def _trace_rows(metric, y, step, back=None):
    """Integrate every row ``(x, v)`` of ``y`` forward to the boundary, in lockstep.

    Rows leave the active set at the step that takes them out of the disk;
    the exits are then located together, by bisection on ``|x| - 1`` inside
    those steps.  Samples are stored per step for the rows still active, then
    gathered once into a PathStack.  A row is a path, or where ``back`` marks it
    the backward half of the next row's path: laid first, reversed, at arclength
    ``tau_b - t`` with ``v`` negated (``tau_b`` its exit time), sharing its start.
    Rows still inside past the arclength cap are suspected trapped.  Past ``MAX_TRACE_SAMPLES`` stored
    samples the rows still inside go on unstored to tell the trapped, and the others resume from there.
    Returns the stack and, per path, its GeodesicPath or its rows' first error.
    """
    back = np.zeros(len(y), dtype=bool) if back is None else back
    # a NaN step would never reach the arclength cap: the loop would not end
    ok = math.isfinite(step) and step > 0
    finite = np.isfinite(y).all(axis=1) & ok
    out = [None if f else SceneValidationError(f"geodesic start state {row.tolist()} is not finite") if ok
           else SceneValidationError("integrator step must be positive and finite") for f, row in zip(finite, y)]
    rows, t, z, budget = np.flatnonzero(finite), 0.0, y, MAX_TRACE_SAMPLES
    samples, exits, trapped = [], [(rows[:0], y[:0], t)], []
    while True:   # a second pass resumes the rows that the budget paused and that exit
        samples.append((rows, z[rows], t))
        budget, paused = budget - len(rows), None
        # _outside is _radius >= DISK_RADIUS: a row on the unit circle has left
        for rows, cur, gone, before in _lockstep(metric, z, step, np.isin(np.arange(len(y)), rows) * sys.maxsize,
                                                 _outside):
            if paused is None and gone.size:
                exits.append((gone, before, t))
            t = t + step
            if paused is None and len(rows) > budget:   # the rows go on unstored, to tell the trapped
                paused = rows, cur, t
            elif paused is None:
                samples.append((rows, cur, t))
                budget -= len(rows)
            if t > ARCLENGTH_CAP:
                break
        trapped.append(rows)
        if paused is None:
            break
        rows, cur, t = paused
        late = np.isin(rows, trapped[-1], invert=True)
        rows, z, budget = rows[late], y.copy(), math.inf
        z[rows] = cur[late]
    rows = np.concatenate(trapped)
    for i in rows:
        out[i] = TrappingSuspectedError(
            f"geodesic exceeded the arclength cap {ARCLENGTH_CAP:g} without exiting; the metric "
            "parameters likely violate the nontrapping assumption")
    if rows.size:   # in place, so that the gather copies only the samples of the other rows
        live = np.isin(np.arange(len(y)), rows, invert=True)
        for j, (r, cur, t0) in enumerate(samples):
            samples[j] = r[live[r]], cur[live[r]], t0
    rhs = _flow(metric)
    e_rows, e_y, e_t = (np.concatenate(c) for c in zip(*[(r, y0, np.full(len(r), t0)) for r, y0, t0 in exits]))
    # |x| <= 1 at lo by induction (the sample is inside or on the circle)
    def below(mid, y0):
        out = _outside(rk4(rhs, y0, mid[:, None]))
        return np.zeros(len(mid), dtype=bool) if out is None else out

    s = _bisect_lanes(below, np.zeros(len(e_rows)), np.full(len(e_rows), float(step)), EVENT_WIDTH, e_y,
                      guess=_exit_guess(rhs, e_y, step))
    kept = s > EVENT_WIDTH
    step_rows, step_y, step_t = zip(*samples)
    step_y += (rk4(rhs, e_y[kept], s[kept, None]),)
    x, v = (np.concatenate([y0[:, c] for y0 in step_y]) for c in (slice(2), slice(2, 4)))
    del samples, step_y   # before the gather copies the samples again
    rows = np.concatenate(step_rows + (e_rows[kept],))
    ts = np.concatenate([np.repeat(step_t, [len(r) for r in step_rows]), e_t[kept] + s[kept]])
    ts = np.where(back[rows], -ts, ts)
    path = np.cumsum(~back) - ~back
    errors = [out[r - 1] or out[r] if r and back[r - 1] else out[r] for r in np.flatnonzero(~back).tolist()]
    # sort by row, then by arclength negated along a backward row, so its samples come in reverse;
    # keep the samples of the paths that traced, less the forward start that ends a backward row
    order = np.lexsort((ts, rows))
    keep = np.array([e is None for e in errors], dtype=bool)[path][rows]
    order = order[(keep & ~((ts == 0.0) & np.append(False, back[:-1])[rows]))[order]]
    rows, ts = rows[order], ts[order]
    counts = (c := np.bincount(path[rows]))[c > 0]
    first = np.cumsum(counts) - counts
    x = x[order]
    v = v[order]
    v[back[rows]] *= -1.0
    ts -= np.repeat(ts[first], counts)   # tau_b - t as -t - (-tau_b), and tau_b + t: the same floats
    stack, good = PathStack(ts, x, v, first, first + counts, metric), iter(range(len(counts)))
    return stack, [GeodesicPath(stack, next(good)) if e is None else e for e in errors]


def unwrap(entry):
    """One entry of a batched call, raised instead when it is an error."""
    if isinstance(entry, GeoxrayError):
        raise entry
    return entry


def trace_geodesics(metric: MetricField, starts, step: float = DEFAULT_STEP) -> list:
    """Trace the maximal unit-speed geodesic through every start, all in lockstep.

    Returns one entry per start: the GeodesicPath that ``trace_geodesic``
    returns for it, or the error that ``trace_geodesic`` raises for it.
    Errors are returned, not raised, so that a caller working through a
    plan raises the one of the first failing member (see ``unwrap``).  A
    start that is already a GeodesicPath, or an error, is returned as it is;
    the traced paths are views of one PathStack, which ``clip_plan`` reads.
    """
    out, rows, back = [], [], []
    for start in starts:
        if isinstance(start, (GeodesicPath, GeoxrayError)):
            out.append(start)
            continue
        x, v = np.asarray(start.x, dtype=float), np.asarray(start.v, dtype=float)
        r = math.hypot(x[0], x[1])
        interior = not r >= DISK_RADIUS - BOUNDARY_TOL
        if r > DISK_RADIUS + BOUNDARY_TOL:
            out.append(DomainError(f"start point {x.tolist()} outside the closed disk"))
        elif not interior and (x[0] * v[0] + x[1] * v[1]) / max(r, 1e-300) > 1e-9:
            out.append(DomainError("boundary start must not point outward"))
        else:   # an interior start extends backwards to the boundary, then forwards
            rows += [np.concatenate([x, -v])] * interior + [np.concatenate([x, v])]
            back += [True] * interior + [False]
            out.append(None)
    traced = iter(_trace_rows(metric, np.array(rows), step, np.array(back))[1] if rows else [])
    return [next(traced) if o is None else o for o in out]


def trace_geodesic(metric: MetricField, start: UnitTangent, step: float = DEFAULT_STEP) -> GeodesicPath:
    """Trace the maximal unit-speed geodesic through ``start``.

    Parameters
    ----------
    metric : MetricField
    start : UnitTangent
        Base point in the closed disk.  A boundary base point must not point
        outward.
    step : float
        Fixed arclength step of the integrator.

    Returns
    -------
    GeodesicPath
        Samples ordered by arclength, parametrized in the direction of
        ``start.v``; interior base points are extended backwards to the
        boundary as well, so the path is maximal.

    Raises
    ------
    TrappingSuspectedError
        If the arclength exceeds 100 times the chart diameter.
    SceneValidationError
        If ``step`` is not a positive finite number, or the start is not
        finite.
    DomainError
        If the base point is outside the disk or points outward from the
        boundary.
    """
    return unwrap(trace_geodesics(metric, [start], step)[0])


def flow_with_frames(metric: MetricField, starts, frames, lengths, step: float = DEFAULT_STEP) -> list:
    """Advance every ``(x, v, w)`` its own arclength along its geodesic, in lockstep.

    Lane ``i`` starts at ``starts[i]`` with ``w = frames[i]`` and takes
    ``ceil(lengths[i] / step)`` equal steps; ``w`` obeys the parallel
    transport equation.  Returns one entry per lane: its final ``(x, v, w)``,
    or its error: a bad length or step, or an exit before the length is covered.
    A length above ``ARCLENGTH_CAP``, the tracer's trapping cap, is a bad length, and a step
    with which that cap takes more than 2**63 steps is a bad step.
    """
    out, n_steps = [None] * len(lengths), np.zeros(len(lengths), dtype=int)
    for i, length in enumerate(lengths):
        if not 0 < length <= ARCLENGTH_CAP:
            out[i] = SceneValidationError(f"transport length must be positive and at most {ARCLENGTH_CAP:g}")
        elif not (math.isfinite(step) and step > 0):
            out[i] = SceneValidationError("integrator step must be positive and finite")
        elif not ARCLENGTH_CAP / step < 2.0**63:
            # so that a lane of any length up to the cap counts its steps in int64
            out[i] = SceneValidationError(f"integrator step {step:g} is below {ARCLENGTH_CAP / 2.0**63:.3g}: "
                                          f"an arclength of {ARCLENGTH_CAP:g} would take more than 2**63 steps")
        else:
            n_steps[i] = max(1, int(math.ceil(length / step)))
    y = np.array([np.concatenate([s.x, s.v, np.asarray(w, dtype=float)])
                  for s, w in zip(starts, frames)]).reshape(-1, 6)
    h = (np.asarray(lengths, dtype=float) / np.maximum(n_steps, 1))[:, None]
    # a lane on the unit circle goes on: it has left only past it, _radius > DISK_RADIUS
    for rows, z, gone, _ in _lockstep(metric, y, h, n_steps, lambda z: _radius(z) > DISK_RADIUS):
        y[rows] = z
        for i in gone.tolist():
            out[i] = FanConstructionError(f"base geodesic exits the disk before reaching offset {lengths[i]:g}")
    return [(y[i, :2], y[i, 2:4], y[i, 4:]) if e is None else e for i, e in enumerate(out)]


# ---------------------------------------------------------------------------
# convexity certification
# ---------------------------------------------------------------------------

def disk_grid(n: int) -> np.ndarray:
    """Points of an n-by-n lattice over the bounding square kept inside the disk."""
    u = np.linspace(-1.0, 1.0, n)
    xx, yy = np.meshgrid(u, u)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= DISK_RADIUS]


def convexity_margin(metric: MetricField, phi, region) -> float:
    """Minimum eigenvalue of the covariant Hessian of ``phi`` over a grid.

    ``phi`` must provide closed-form ``grad`` and ``hess`` on ``(N, 2)``
    points.  ``region`` is either an integer grid resolution or an
    ``(N, 2)`` array of points.  A positive return certifies strict
    convexity at the sampled resolution; a negative return is a valid "not
    certified" answer.
    """
    pts = disk_grid(region) if isinstance(region, int) else np.asarray(region, dtype=float).reshape(-1, 2)
    hess = phi.hess(pts) - np.einsum("...kij,...k->...ij", metric.christoffel(pts), phi.grad(pts))
    return float(np.linalg.eigvalsh(hess)[..., 0].min(initial=math.inf))


def speed_defect(metric: MetricField, path: GeodesicPath) -> float:
    """Max deviation of ``g(v, v)`` from 1 over the path samples."""
    factor = np.exp(2.0 * metric.lam(path.x))
    speeds = factor * (path.v[:, 0] ** 2 + path.v[:, 1] ** 2)
    return float(np.max(np.abs(speeds - 1.0)))
