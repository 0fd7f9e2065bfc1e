"""Metric families, geodesic tracing, convexity checks.

The chart domain is the closed unit disk.  All metric families are conformal
to the flat metric, ``g_ij(x) = exp(2*lam(x)) * delta_ij``, with the profile
``lam`` and its gradient available in closed form; no metric quantity is
ever differentiated numerically.

Geodesics are integrated with one fixed-step classical Runge-Kutta scheme, ``rk4``, in the
state ``(x, v)``.  Its numpy state is component-major: one C-ordered ``(4, N)`` array of rows
``x0, x1, v0, v1``, a geodesic per column, which the tracer keeps from its first step through
the exit bisection.  The tracer's geodesics advance as that one array while more than
``FLOAT_ROWS`` are left; then each walks on alone to its exit in Python floats, as every lane of
``flow_geodesics`` walks to its own step count from the start.  That walk is one RK4 source, compiled
once per metric family with the family's gradient statements (``float_grad``) written into its stages.
The tracer's exits are located together by bisection on ``|x| - 1`` inside the steps that
crossed, on the turns a Newton guess predicts as far as the exit test, checking them all at
once, agrees: the guess decides no turn; the clipper's crossings take the same
``_bisect_lanes``.  Each row gets the arithmetic of a one-row run bit for bit, so a path
does not depend on what it was traced with.  Paths are unit speed in ``g``, so the curve
parameter is arclength.  One gather lays the paths of a call end to end in one
``PathStack``, and each GeodesicPath is a view of it; clipping and integration read that
stack as it is.  Paths are evaluated in one place, the stack: one ``searchsorted`` of
(path, arclength) keys finds every query's sample interval, for cubic Hermite interpolation.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FanConstructionError,
    GeoxrayError,
    SceneValidationError,
    TrappingSuspectedError,
    config_build,
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
# rk4 steps up to this many columns (x, v) in Python floats, and more through numpy; the tracer's numpy loop leaves
# this many or fewer to the float walk.  On a 2-vCPU host (numpy 2.4, CPython 3.11, medians of 101-301 timings) a
# numpy step of 8-32 columns of the (4, N) state costs 20 / 42 / 77 us on euclidean / conformal-radial /
# conformal-gaussian (26 / 52 / 89 us at 120), and a float row step 1.4-1.5 / 1.4-1.5 / 2.5-2.6 us: crossovers near
# 14, 29 and 30 rows.  End to end, in 10 alternating benchmark pairs against 24, 16 made fan-limit's wall_s 9.1%
# slower and 32 moved it by +0.4%, with the demo commands' per-round time ratios inside their spread: 24 stays
FLOAT_ROWS = 24
# Midpoints per call of the exit check, on the tracer's 4-value lanes (wider lanes take proportionally fewer); at
# 8192 the demo plan's tracemalloc peak rises from 4.62 to 4.90 MB.
EXIT_BLOCK = 4096
# _verified_walk walks up to this many lanes in Python floats, and more in numpy, on the same midpoints.  On the
# 2-vCPU host (medians of 201 alternations) a walk and its check take 0.33 / 0.72 ms (floats / numpy) on the
# forward-refined plan's 4 exits, 1.98 / 1.95 ms on reconstruct-demo's 60, 1.79 / 1.67 ms on fan-limit's 80
# and 8.5 / 6.1 ms on the 450 of the demo plan.  The clipper guesses only up to it: its edge test costs what the
# check does, and reconstruct-demo's 316 crossings took 4.9 ms bisected plainly, 6.1 / 7.1 ms guessed.
WALK_LANES = 64


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
        """Geodesic acceleration ``-Gamma(v, v)`` of ``x`` and ``v`` ``(2, ...)``, components first (rows ``(N, 2)``
        pass as ``accel(x.T, v.T).T``); no domain check."""
        d = self.lam_grad(x.T).T
        dv, vv = d * v, v * v
        return -2.0 * (dv[0] + dv[1]) * v + (vv[0] + vv[1]) * d

    # ``lam_grad`` at the point ``(p0, p1)`` as ``(d0, d1)`` in Python floats, by the same operations in the same
    # order: a line of statements that reads the metric's constants into locals, and one that ``_rk4_floats``
    # writes into each of its four stages
    float_grad = None

    # -- inner products and frames ------------------------------------------
    def inner(self, x, u, w):
        factor = math.exp(2.0 * float(self.lam(np.asarray(x, dtype=float))))
        return factor * float(u[0] * w[0] + u[1] * w[1])

    def frame(self, x):
        """Matrix A with ``u = A @ d`` the g-orthonormal components of d."""
        factor = math.exp(float(self.lam(np.asarray(x, dtype=float))))
        return factor * np.eye(2)

    def boundary_curvature(self, x):
        """Geodesic curvature ``exp(-lam) (1 + x . grad lam)`` in ``g`` of the unit circle at its point ``x``: the
        boundary is strictly convex there where it is positive."""
        x = np.asarray(x, dtype=float)
        return math.exp(-float(self.lam(x))) * (1.0 + float(x @ self.lam_grad(x)))

    def rotate90_rows(self, x, v, sign=1):
        """Rotate each row of ``v`` by ``sign * pi/2`` in the g-orthonormal frame at the row of ``x`` (``(N, 2)``
        each), in one array pass: per row ``frame``'s matrix ``A`` (``math.exp`` of ``lam``), ``u = A @ v``
        turned, and ``A`` solved for it, as one stacked ``@`` and one stacked ``np.linalg.solve``."""
        x, v = np.asarray(x, dtype=float).reshape(-1, 2), np.asarray(v, dtype=float).reshape(-1, 2)
        a = np.array([math.exp(lam) for lam in self.lam(x).tolist()])[:, None, None] * np.eye(2)
        u = (a @ v[:, :, None])[:, :, 0]
        return np.linalg.solve(a, np.stack([-sign * u[:, 1], sign * u[:, 0]], axis=1)[:, :, None])[:, :, 0]


class EuclideanMetric(MetricField):
    family = "euclidean"

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def lam_grad(self, x):
        return np.zeros(np.asarray(x, dtype=float).shape)

    def accel(self, x, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    float_grad = "", "d0, d1 = 0.0, 0.0"


class RadialConformalMetric(MetricField):
    """Profile ``lam(x) = alpha * |x|^2``; params ``[alpha]``."""

    family = "conformal-radial"

    def __init__(self, params):
        super().__init__(params)
        if len(self.params) != 1:
            raise SceneValidationError("conformal-radial takes exactly one parameter")
        self.alpha = self.params[0]
        self.slope = 2.0 * self.alpha

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        return self.alpha * (x[..., 0] ** 2 + x[..., 1] ** 2)

    def lam_grad(self, x):
        return self.slope * np.asarray(x, dtype=float)

    float_grad = "slope = metric.slope", "d0, d1 = slope * p0, slope * p1"


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
            raise SceneValidationError(f"conformal-gaussian width {self.width:g} must be "
                                       f"positive, and with center ({cx:g}, {cy:g}) keep the profile finite")
        self.center = np.array([cx, cy])
        self.width2, self.slope = self.width**2, -2.0 / self.width**2

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.amplitude * np.exp(-(d[..., 0] ** 2 + d[..., 1] ** 2) / self.width2)

    def lam_grad(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.lam(x)[..., None] * self.slope * d

    # np.exp, not math.exp: the two differ in the last bit on some arguments
    float_grad = ("exp, amp, (cx, cy), w2, slope = np.exp, metric.amplitude, metric.params[1:3], metric.width2, "
                  "metric.slope",
                  "g0, g1 = p0 - cx, p1 - cy; g = amp * float(exp(-(g0 * g0 + g1 * g1) / w2)) * slope; "
                  "d0, d1 = g * g0, g * g1")


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
            raise SceneValidationError("scene.metric.params: euclidean takes no parameters")
        return cls()
    metric = config_build("scene.metric.params", cls, params)
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
    """Normalize ``v`` at ``x`` in ``g`` and package the pair: the one-row form of ``unit_tangents``."""
    return unwrap(unit_tangents(metric, [x], [v])[0])


def unit_tangents(metric: MetricField, x, v) -> list:
    """Normalize each row of ``v`` at the row of ``x`` (``(N, 2)`` each) in ``g``, in one array pass.

    Returns one entry per row: its UnitTangent, or its error, in this order: a point outside the
    closed disk, a zero direction, a direction with no finite unit length (a non-finite point,
    direction or metric).  The factor ``exp(2 lam)`` is ``math.exp`` per row, as ``inner`` takes it.
    """
    x, v = np.asarray(x, dtype=float).reshape(-1, 2), np.asarray(v, dtype=float).reshape(-1, 2)
    # past LAM_LIMIT math.exp overflows: that row has no finite unit length
    factor = np.array([math.inf if lam > LAM_LIMIT else math.exp(2.0 * lam) for lam in metric.lam(x).tolist()])
    n = np.sqrt(np.maximum(factor * (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / n[:, None]
    outside = (np.hypot(x[:, 0], x[:, 1]) > DISK_RADIUS + BOUNDARY_TOL).tolist()
    # false for NaN too: a non-finite point, direction or metric stops here
    unit = (np.abs(factor * (u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]) - 1.0) <= 1e-12).tolist()
    return [DomainError(f"base point {p.tolist()} outside the closed disk") if out
            else SceneValidationError("cannot normalize a zero tangent vector") if zero
            else SceneValidationError(f"tangent at {p.tolist()} has no finite unit length in the metric") if not ok
            else UnitTangent(x=p, v=d) for p, d, out, zero, ok in zip(x, u, outside, (n == 0.0).tolist(), unit)]


def boundary_tangent(metric: MetricField, boundary_angle: float, direction_angle: float) -> UnitTangent:
    """Unit tangent at a boundary point with a chart direction angle: the one-row form of ``boundary_tangents``."""
    return unwrap(boundary_tangents(metric, [(boundary_angle, direction_angle)])[0])


def boundary_tangents(metric: MetricField, descriptors) -> list:
    """The unit tangent of every (boundary angle, direction angle) pair, in one ``unit_tangents`` pass:
    per pair its UnitTangent or its error.  Points and directions come from ``math.cos`` and ``math.sin``."""
    rows = np.array([[math.cos(a), math.sin(a), math.cos(d), math.sin(d)] for a, d in descriptors]).reshape(-1, 4)
    return unit_tangents(metric, rows[:, :2], rows[:, 2:])


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
    interval of each query by one ``searchsorted`` of complex (path, arclength)
    keys, and ``hermite`` interpolates per-sample values on it."""

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

    @functools.cached_property
    def _key(self) -> np.ndarray:
        """Each row's ``(path, t)`` as one complex number, sorted as numpy orders them: by path, then by time."""
        return _keys(np.repeat(np.arange(len(self.first)), self.stop - self.first), self.t)

    def search(self, path, q) -> np.ndarray:
        """Per query, ``np.searchsorted(side="right")`` of arclength ``q`` on the times of path ``path``, as a
        stack row: one search of the ``(path, q)`` keys serves every query; a NaN query gets its path's first row."""
        found = np.searchsorted(self._key, _keys(path, q), side="right")
        return np.where(np.isnan(q), self.first[path], found)   # numpy sorts p + nan*1j after every key

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
        a = self.metric.accel(x.T, v.T).T
        return (_hermite_at(self.t, i, q, x[0], v[0], x[1], v[1]),
                _hermite_at(self.t, i, q, v[0], a[0], v[1], a[1]))


def _keys(path, t) -> np.ndarray:
    """``path + t*1j`` as complex numbers, built without the product: ``1j * inf`` has a NaN real part."""
    return np.stack(np.broadcast_arrays(path, t), axis=-1, dtype=float).view(complex)[..., 0]


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

def rk4(metric, y, h):
    """One classical Runge-Kutta step of the geodesic flow for every column of ``y``, rows ``x0, x1, v0, v1``.

    ``h`` is a scalar or an ``(N,)`` row of per-column steps, as ``_exit_guess`` and the exit bisection take it.
    Columns do not mix: each gets the arithmetic of a one-column step.  Up to ``FLOAT_ROWS`` columns step in Python
    floats by the same operations, bit for bit.
    """
    if y.shape[1] <= FLOAT_ROWS:
        return _rk4_floats(metric, y.T, h).T
    def rhs(y):
        return np.concatenate([y[2:], metric.accel(y[:2], y[2:])])
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_floats(metric, y, h, stop=None, rule=None, arc=0.0, cap=math.inf, kept=None):
    """``rk4`` of rows ``(x, v)`` one at a time in Python floats: numpy's operations element by element in its order,
    ``accel`` as ``-2.0*dv*v + vv*d``, squares as products, the metric family's ``float_grad`` written into each
    stage; the stages are k1 = (v, a), k2 = (q, b), k3 = (r, c), k4 = (s, e).  Given per-row step counts ``stop``,
    each row walks alone: to its count, to the step whose new position ``rule`` puts outside the disk, keeping its
    state before it, or past ``cap`` with its arclength, ``arc`` plus ``h`` a step, appending each step's
    ``(arclength, x, v)`` to ``kept``, a bytearray, as float64s.  A position is outside where ``x0*x0 + x1*x1 <
    (1 - 2e-15)**2`` fails and ``rule(_radius(x), DISK_RADIUS)`` holds, as ``_outside`` tells for many rows.  Returns
    the last states and, given ``stop``, per row ``(left, arclength)``."""
    out, ends = _float_kernel(type(metric))(metric, y, h, stop, rule, arc, cap, kept)
    out = np.array(out).reshape(-1, 4)
    return out if stop is None else (out, ends)


# The loop of _rk4_floats, compiled once per metric family with the family's float_grad: a walked step makes no
# Python call for the gradient.
_RK4_FLOATS = """
def kernel(metric, y, h, stop, rule, arc, cap, kept):
    {setup}
    out, ends, pack = [], [], struct.Struct("5d").pack
    rows = zip(y.tolist(), h.ravel().tolist() if np.ndim(h) else [float(h)] * len(y), stop or [1] * len(y))
    for (x0, x1, v0, v1), h, n in rows:
        hh, h6, t, gone = 0.5 * h, h / 6.0, arc, False
        for _ in range(n):
            p0, p1 = x0, x1
            {grad}
            dv, vv = d0 * v0 + d1 * v1, v0 * v0 + v1 * v1
            a0, a1 = -2.0 * dv * v0 + vv * d0, -2.0 * dv * v1 + vv * d1
            q0, q1 = v0 + hh * a0, v1 + hh * a1
            p0, p1 = x0 + hh * v0, x1 + hh * v1
            {grad}
            dv, vv = d0 * q0 + d1 * q1, q0 * q0 + q1 * q1
            b0, b1 = -2.0 * dv * q0 + vv * d0, -2.0 * dv * q1 + vv * d1
            r0, r1 = v0 + hh * b0, v1 + hh * b1
            p0, p1 = x0 + hh * q0, x1 + hh * q1
            {grad}
            dv, vv = d0 * r0 + d1 * r1, r0 * r0 + r1 * r1
            c0, c1 = -2.0 * dv * r0 + vv * d0, -2.0 * dv * r1 + vv * d1
            s0, s1 = v0 + h * c0, v1 + h * c1
            p0, p1 = x0 + h * r0, x1 + h * r1
            {grad}
            dv, vv = d0 * s0 + d1 * s1, s0 * s0 + s1 * s1
            e0, e1 = -2.0 * dv * s0 + vv * d0, -2.0 * dv * s1 + vv * d1
            n0, n1 = x0 + h6 * (v0 + 2.0 * q0 + 2.0 * r0 + s0), x1 + h6 * (v1 + 2.0 * q1 + 2.0 * r1 + s1)
            if rule and not n0 * n0 + n1 * n1 < (1.0 - 2e-15) ** 2 and rule(_radius(np.array([[n0, n1]])), DISK_RADIUS)[0]:
                gone = True
                break
            x0, x1, t = n0, n1, t + h
            v0, v1 = v0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + e0), v1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + e1)
            if kept is not None:
                kept += pack(t, x0, x1, v0, v1)
            if t > cap:
                break
        out.append((x0, x1, v0, v1))
        ends.append((gone, t))
    return out, ends
"""


@functools.cache
def _float_kernel(cls):
    """The loop of ``_rk4_floats`` for metric class ``cls``, its ``float_grad`` written in."""
    if cls.float_grad is None:
        raise NotImplementedError(f"{cls.__name__} has no float_grad")
    setup, grad = cls.float_grad
    scope = {}
    exec(compile(_RK4_FLOATS.format(setup=setup, grad=grad), f"<rk4 floats: {cls.family}>", "exec"), globals(), scope)
    return scope["kernel"]


def _radius(x):
    """``|x|`` of every row, rounded as ``math.hypot`` rounds it: ``np.hypot``
    may differ in the last bit, which matters only next to the unit circle."""
    r = np.hypot(x[:, 0], x[:, 1])
    for i in np.flatnonzero(np.abs(r - DISK_RADIUS) < 1e-15):
        r[i] = math.hypot(x[i, 0], x[i, 1])
    return r


def _outside(x, rule=np.greater_equal):
    """Which rows have left the disk, as ``rule(_radius(x), DISK_RADIUS)`` tells: the tracer's ``>=`` or
    ``flow_geodesics``' ``>``.  None for no row when one ``np.hypot`` and one max put every row more than 1e-15
    inside the circle, where ``_radius`` keeps ``np.hypot``'s value.  A NaN row fails that test and takes the rule."""
    return None if np.hypot(x[:, 0], x[:, 1]).max() < DISK_RADIUS - 1e-15 else rule(_radius(x), DISK_RADIUS)


def _bisect_lanes(below, lo, hi, width, *lanes, guess=None):
    """Bisect every bracket ``[lo, hi]`` together until it is at most ``width`` wide.

    ``below(mid, *lanes)`` tells, lane by lane, whether the root lies below ``mid``; ``lanes`` are per-lane
    arrays it reads.  Lane by lane this is the scalar loop ``hi = mid if below else lo = mid`` while
    ``hi - lo > width``.  Given a ``guess`` of each root, ``_verified_walk`` first takes each lane's turns up
    to the first the guess predicts wrong; then each pass takes one turn with one call of ``below``, and
    finished lanes are dropped.  Every turn is ``below``'s.  Returns the final midpoints.
    """
    width = np.broadcast_to(width, np.shape(lo))
    lo, hi = (lo, hi) if guess is None else _verified_walk(below, lo, hi, width, guess, lanes)
    root, ids = 0.5 * (lo + hi), np.arange(len(lo))
    while (busy := hi - lo > width).any():
        if not busy.all():
            root[ids[~busy]] = 0.5 * (lo[~busy] + hi[~busy])
            ids, lo, hi, width, lanes = ids[busy], lo[busy], hi[busy], width[busy], [a[busy] for a in lanes]
        down = below(mid := 0.5 * (lo + hi), *lanes)
        lo, hi = np.where(down, lo, mid), np.where(down, mid, hi)
    root[ids] = 0.5 * (lo + hi)
    return root


def _verified_walk(below, lo, hi, width, guess, lanes):
    """Each lane's bracket after its turns up to the first that ``below`` contradicts, taken its way, or after
    all: walked as the guess predicts (below where ``guess <= mid``), in Python floats up to ``WALK_LANES``
    lanes and past them all lanes at once in numpy, on the same midpoints, checked in blocks: of ``EXIT_BLOCK``
    midpoints of the tracer's lanes ``(x, v)``, proportionally fewer of wider lanes."""
    if len(lo) <= WALK_LANES:
        mids, ends = array("d"), []   # 8 bytes a midpoint, against 32 in a list
        for l, h, w, g in zip(lo.tolist(), hi.tolist(), width.tolist(), guess.tolist()):
            while h - l > w:
                mids.append(m := 0.5 * (l + h))
                if g <= m:
                    h = m
                else:   # so a NaN guess predicts up at every turn
                    l = m
            ends.append(len(mids))
        mid, ends = np.frombuffer(mids), np.array(ends)
    else:   # turn by turn; a finished lane's bracket only narrows, so it stays finished
        l, h, turns, busy_at = lo, hi, [], []
        while (busy := h - l > width).any():
            turns.append(m := 0.5 * (l + h))
            busy_at.append(busy)
            l, h = np.where(guess <= m, l, m), np.where(guess <= m, m, h)
        busy = np.array(busy_at, dtype=bool).reshape(-1, len(lo)).T   # lane by lane, as the Python walk lays them
        mid, ends = np.array(turns).reshape(busy.T.shape).T[busy], np.cumsum(busy.sum(axis=1))
    if not mid.size:
        return lo, hi
    n = np.diff(ends, prepend=0)
    lane = np.repeat(np.arange(len(lo)), n)
    block = 4 * EXIT_BLOCK // max(1, sum(a.size for a in lanes) // len(lo))
    told = np.concatenate([below(mid[j:j + block], *(a[lane[j:j + block]] for a in lanes))
                           for j in range(0, len(mid), block)])
    # a lane stops at its first contradicted turn, else its last, bounded by its last midpoints each way
    wrong = np.flatnonzero(told != (guess[lane] <= mid))
    first, stop = wrong[np.diff(lane[wrong], prepend=-1) != 0], ends - 1
    stop[lane[first]] = first
    last = (np.maximum.accumulate(np.where(told == d, np.arange(len(mid)), -1))[stop] for d in (False, True))
    return tuple(np.where((n > 0) & (i >= ends - n), mid[i], end) for i, end in zip(last, (lo, hi)))


def _exit_guess(metric, y0, step):
    """Exit arclengths in ``[0, step]`` guessed by Newton on the RK4 step map: ``|x(s)|^2 = 1``, slope ``2 x.v``."""
    s = np.zeros(y0.shape[1])
    with np.errstate(all="ignore"):   # a grazing row may divide by zero: the guess decides no turn
        for k in range(4):   # Newton steps: at 3, an exit at x.v = 0.07 was 4e-12 off and took 4 more passes
            x0, x1, v0, v1 = rk4(metric, y0, s) if k else y0
            s = np.clip(s + (1.0 - x0 * x0 - x1 * x1) / (2.0 * (x0 * v0 + x1 * v1)), 0.0, step)
    return s


def _trace_rows(metric, y, step, back=None):
    """Integrate every row ``(x, v)`` of ``y`` forward to the boundary, as the columns of one ``(4, N)`` array.

    Rows leave the state at the step that takes them out of the disk; once ``FLOAT_ROWS`` or fewer
    are left, each walks on alone in Python floats.  The exits are then located together, by bisection
    on ``|x| - 1`` inside those steps.  Samples are stored per step in numpy and per row in the walk,
    then gathered once into a PathStack.  A row is a path, or where ``back`` marks it the backward half of
    the next row's path: laid first, reversed, at arclength ``tau_b - t`` with ``v`` negated (``tau_b`` its
    exit time), sharing its start.  Rows still inside past the arclength cap are suspected trapped.  Past
    ``MAX_TRACE_SAMPLES`` stored samples the rows still inside go on unstored to tell the trapped, and the
    others resume from there (the numpy loop's in a second pass, a walked row at once).
    Returns the stack and, per path, its GeodesicPath or its rows' first error.
    """
    back = np.zeros(len(y), dtype=bool) if back is None else back
    # a NaN step would never reach the arclength cap: the loop would not end
    ok = math.isfinite(step) and step > 0
    finite = np.isfinite(y).all(axis=1) & ok
    out = [None if f else SceneValidationError(f"geodesic start state {row.tolist()} is not finite") if ok
           else SceneValidationError("integrator step must be positive and finite") for f, row in zip(finite, y)]
    rows, t, budget = np.flatnonzero(finite), 0.0, MAX_TRACE_SAMPLES
    cur, samples, walked, exits, trapped = y[rows].T.copy(), [], [], [(rows[:0], np.zeros((4, 0)), t)], []
    def walk(y0, t0, n, kept):   # row y0 from arclength t0, up to n steps: its last state, if it left, its arclength
        (y1,), ((gone, t1),) = _rk4_floats(metric, y0[None], step, [n], np.greater_equal, t0, ARCLENGTH_CAP, kept)
        return y1, gone, t1
    while True:   # a second pass resumes the rows that the budget paused and that exit
        paused, budget = None, budget - len(rows)
        samples.append((rows, cur, t))
        while len(rows) > FLOAT_ROWS:   # the rows step as one array; a row on the unit circle has left (_outside's >=)
            nxt = rk4(metric, cur, step)
            gone = _outside(nxt.T)
            if gone is not None and gone.any():
                if paused is None:
                    exits.append((rows[gone], cur[:, gone], t))
                # compress keeps the state C-ordered; the index nxt[:, ~gone] is F-ordered, and slows the steps after it
                rows, nxt = rows[~gone], np.compress(~gone, nxt, axis=1)
            cur, t = nxt, t + step
            if paused is None and len(rows) > budget:   # the rows go on unstored, to tell the trapped
                paused = rows, cur, t
            elif paused is None:
                samples.append((rows, cur, t))
                budget -= len(rows)
            if t > ARCLENGTH_CAP:
                break
        else:   # FLOAT_ROWS rows or fewer are left: each walks on alone, storing up to the budget
            left = []
            for r, y0 in zip(rows.tolist(), cur.T):
                buf = bytearray()
                y1, gone, t1 = walk(y0, t, budget if paused is None else 0, buf)
                budget -= len(buf) // 40   # 5 float64s a sample
                # paused by the budget: it goes on unstored, and if it exits rather than pass the cap, resumes
                if not (gone or t1 > ARCLENGTH_CAP) and walk(y1, t1, sys.maxsize, None)[1]:
                    if paused is not None:
                        continue   # from the numpy loop's pause, in the second pass
                    y1, gone, t1 = walk(y1, t1, sys.maxsize, buf)
                if gone:
                    exits.append((np.array([r]), y1[:, None], t1))
                    walked.append((r, buf))
                else:
                    left.append(r)
            rows = np.array(left, dtype=int)
        trapped.append(rows)
        if paused is None:
            break
        rows, cur, t = paused
        late = np.isin(rows, trapped[-1], invert=True)
        rows, cur, budget = rows[late], np.compress(late, cur, axis=1), sys.maxsize
    rows = np.concatenate(trapped)
    for i in rows:
        out[i] = TrappingSuspectedError(
            f"geodesic exceeded the arclength cap {ARCLENGTH_CAP:g} without exiting; the metric "
            "parameters likely violate the nontrapping assumption")
    if rows.size:   # in place, so that the gather copies only the samples of the other rows
        live = np.isin(np.arange(len(y)), rows, invert=True)
        for j, (r, cur, t0) in enumerate(samples):
            samples[j] = r[live[r]], cur[:, live[r]], t0
    e_rows, e_y, e_t = (np.concatenate(c, axis=-1) for c in zip(*[(r, y0, np.full(len(r), t0)) for r, y0, t0 in exits]))
    # the rows x0, x1, v0, v1 of e_y are the lanes; |x| <= 1 at lo by induction (the sample is inside or on the circle)
    def below(mid, *y0):
        out = _outside(rk4(metric, np.array(y0), mid).T)
        return np.zeros(len(mid), dtype=bool) if out is None else out

    s = _bisect_lanes(below, np.zeros(len(e_rows)), np.full(len(e_rows), float(step)), EVENT_WIDTH, *e_y,
                      guess=_exit_guess(metric, e_y, step))
    kept = s > EVENT_WIDTH
    step_rows, step_y, step_t = zip(*samples)
    w = np.concatenate([np.zeros((0, 5))] + [np.frombuffer(buf).reshape(-1, 5) for _, buf in walked])   # (t, x, v)
    step_y += (w[:, 1:].T, rk4(metric, np.compress(kept, e_y, axis=1), s[kept]))
    x, v = (np.concatenate([y0[c] for y0 in step_y], axis=1).T for c in (slice(2), slice(2, 4)))
    w_rows = np.repeat(np.array([r for r, _ in walked], dtype=int), [len(buf) // 40 for _, buf in walked])
    del samples, step_y, walked   # before the gather copies the samples again
    rows = np.concatenate(step_rows + (w_rows, e_rows[kept]))
    ts = np.concatenate([np.repeat(step_t, [len(r) for r in step_rows]), w[:, 0], e_t[kept] + s[kept]])
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
    """Trace the maximal unit-speed geodesic through every start, all in one ``_trace_rows`` call.

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


def flow_geodesics(metric: MetricField, starts, lengths, step: float = DEFAULT_STEP) -> list:
    """Advance every start its own arclength along its geodesic, each lane walked alone in Python floats.

    Lane ``i`` starts at ``starts[i]`` and takes ``ceil(lengths[i] / step)`` equal steps.  Returns one
    entry per lane: its final ``(x, v)``, or its error: a bad length or step, or an exit before the
    length is covered.  A length above ``ARCLENGTH_CAP``, the tracer's trapping cap, is a bad length,
    and a step with which that cap takes more than 2**63 steps is a bad step.
    """
    out, n_steps = [None] * len(lengths), np.zeros(len(lengths), dtype=int)
    # each lane's error after a bad length; past 2**63 steps a lane up to the cap would not count its steps in int64
    bad_step = ("integrator step must be positive and finite" if not (math.isfinite(step) and step > 0) else
                f"integrator step {step:g} is below {ARCLENGTH_CAP / 2.0**63:.3g}: an arclength of "
                f"{ARCLENGTH_CAP:g} would take more than 2**63 steps" if not ARCLENGTH_CAP / step < 2.0**63 else None)
    for i, length in enumerate(lengths):
        if not 0 < length <= ARCLENGTH_CAP:
            out[i] = SceneValidationError(f"flow length must be positive and at most {ARCLENGTH_CAP:g}")
        elif bad_step:
            out[i] = SceneValidationError(bad_step)
        else:
            n_steps[i] = max(1, int(math.ceil(length / step)))
    y = np.array([np.concatenate([s.x, s.v]) for s in starts]).reshape(-1, 4)
    h = (np.asarray(lengths, dtype=float) / np.maximum(n_steps, 1))[:, None]
    # a lane on the unit circle goes on: it has left only past it, _radius > DISK_RADIUS
    rows = np.flatnonzero(n_steps > 0)
    y[rows], ends = _rk4_floats(metric, y[rows], h[rows], n_steps[rows].tolist(), np.greater)
    for i, (left, _) in zip(rows.tolist(), ends):
        if left:
            out[i] = FanConstructionError(f"base geodesic exits the disk before reaching offset {lengths[i]:g}")
    return [(y[i, :2], y[i, 2:]) if e is None else e for i, e in enumerate(out)]


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
