"""Metric families, geodesic tracing, parallel transport, convexity checks.

The chart domain is the closed unit disk.  All metric families are conformal
to the flat metric, ``g_ij(x) = exp(2*lam(x)) * delta_ij``, with the profile
``lam`` and its first two derivatives available in closed form; no metric
quantity is ever differentiated numerically.

Geodesics are integrated with a fixed-step classical Runge-Kutta scheme in
the state ``(x, v)``; the boundary crossing is located by bisection on
``|x| - 1`` inside the step that crossed.  Paths are unit speed in ``g``, so
the curve parameter is arclength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FanConstructionError,
    SceneValidationError,
    TrappingSuspectedError,
)

DISK_RADIUS = 1.0
BOUNDARY_TOL = 1e-9
# Bisection on |x| - 1 runs to this interval width; tighter than the 1e-10
# contract so that exit times are clean enough for order measurements.
EVENT_WIDTH = 1e-13
# Nontrapping cap: 100 times the chart diameter.
ARCLENGTH_CAP = 100.0 * (2.0 * DISK_RADIUS)
DEFAULT_STEP = 1e-2


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------

class MetricField:
    """A conformal metric ``exp(2*lam) * delta`` on the closed unit disk.

    Subclasses implement ``lam``, ``lam_grad`` and ``lam_hess`` for batched
    chart points of shape ``(..., 2)``.
    """

    family = "base"

    def __init__(self, params=()):
        self.params = tuple(float(p) for p in params)

    # -- conformal profile, closed form per family -------------------------
    def lam(self, x):
        raise NotImplementedError

    def lam_grad(self, x):
        raise NotImplementedError

    def lam_hess(self, x):
        raise NotImplementedError

    # -- derived tensor quantities -----------------------------------------
    def matrix(self, x):
        """Metric matrix ``g_ij(x)``, shape ``(..., 2, 2)``."""
        x = np.asarray(x, dtype=float)
        factor = np.exp(2.0 * self.lam(x))
        eye = np.eye(2)
        return factor[..., None, None] * eye

    def christoffel(self, x):
        """Levi-Civita coefficients ``Gamma[i, j, k] = Gamma^i_{jk}`` at x.

        Raises DomainError outside the closed disk (a hair of tolerance is
        allowed so boundary points are usable).
        """
        x = np.asarray(x, dtype=float)
        if float(np.hypot(x[0], x[1])) > DISK_RADIUS + BOUNDARY_TOL:
            raise DomainError(f"point {x.tolist()} lies outside the chart domain")
        d = self.lam_grad(x)
        gamma = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    gamma[i, j, k] = (
                        (d[k] if i == j else 0.0)
                        + (d[j] if i == k else 0.0)
                        - (d[i] if j == k else 0.0)
                    )
        return gamma

    def accel(self, x, v):
        """Geodesic acceleration ``-Gamma(v, v)``; no domain check."""
        d = self.lam_grad(x)
        dv = d[..., 0] * v[..., 0] + d[..., 1] * v[..., 1]
        vv = v[..., 0] ** 2 + v[..., 1] ** 2
        return -2.0 * dv[..., None] * v + vv[..., None] * d

    def transport_deriv(self, x, v, w):
        """Right-hand side ``-Gamma(v, w)`` of the parallel transport ODE."""
        d = self.lam_grad(x)
        dv = d[0] * v[0] + d[1] * v[1]
        dw = d[0] * w[0] + d[1] * w[1]
        vw = v[0] * w[0] + v[1] * w[1]
        return -(dw * v + dv * w - vw * d)

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

    def spd_margin(self, points):
        """Smallest metric eigenvalue over the sample points (> 0 certifies SPD)."""
        g = self.matrix(np.asarray(points, dtype=float))
        return float(np.min(np.linalg.eigvalsh(g)))


class EuclideanMetric(MetricField):
    family = "euclidean"

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def lam_grad(self, x):
        return np.zeros(np.asarray(x, dtype=float).shape)

    def lam_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))

    def accel(self, x, v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def transport_deriv(self, x, v, w):
        return np.zeros(2)


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

    def lam_hess(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.alpha * np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()


class GaussianConformalMetric(MetricField):
    """Profile ``lam(x) = a * exp(-|x - c|^2 / w^2)``; params ``[a, cx, cy, w]``."""

    family = "conformal-gaussian"

    def __init__(self, params):
        super().__init__(params)
        if len(self.params) != 4:
            raise SceneValidationError("conformal-gaussian takes [amplitude, cx, cy, width]")
        self.amplitude, cx, cy, self.width = self.params
        if self.width <= 0:
            raise SceneValidationError("conformal-gaussian width must be positive")
        self.center = np.array([cx, cy])

    def lam(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.amplitude * np.exp(-(d[..., 0] ** 2 + d[..., 1] ** 2) / self.width**2)

    def lam_grad(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        return self.lam(x)[..., None] * (-2.0 / self.width**2) * d

    def lam_hess(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        lam = self.lam(x)
        c = -2.0 / self.width**2
        outer = d[..., :, None] * d[..., None, :]
        eye = np.broadcast_to(np.eye(2), outer.shape)
        return lam[..., None, None] * (c * eye + (c**2) * outer)


_METRIC_FAMILIES = {
    "euclidean": EuclideanMetric,
    "conformal-radial": RadialConformalMetric,
    "conformal-gaussian": GaussianConformalMetric,
}


def metric_from_config(family: str, params=()) -> MetricField:
    try:
        cls = _METRIC_FAMILIES[family]
    except KeyError:
        raise SceneValidationError(f"metric: unknown family {family!r}") from None
    if cls is EuclideanMetric:
        if params:
            raise SceneValidationError("metric: euclidean takes no parameters")
        return cls()
    return cls(params)


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
    ut = UnitTangent(x=x, v=v)
    assert abs(metric.inner(x, v, v) - 1.0) <= 1e-12
    return ut


def boundary_point(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def inward_normal(metric: MetricField, boundary_angle: float) -> UnitTangent:
    """Inward g-unit normal of the boundary circle at the given angle.

    The boundary normal of a conformal disk metric is radial.
    """
    x = boundary_point(boundary_angle)
    return unit_tangent(metric, x, -x)


def boundary_tangent(metric: MetricField, boundary_angle: float, direction_angle: float) -> UnitTangent:
    """Unit tangent at a boundary point with a chart direction angle."""
    x = boundary_point(boundary_angle)
    v = np.array([math.cos(direction_angle), math.sin(direction_angle)])
    return unit_tangent(metric, x, v)


@dataclass(frozen=True)
class GeodesicPath:
    """A sampled unit-speed geodesic.

    ``t`` is arclength from the first sample, ``x`` and ``v`` the per-sample
    positions and velocities.  ``endpoints_on_boundary`` is set when both
    ends lie on the boundary circle within 1e-9.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    endpoints_on_boundary: bool
    metric: MetricField = field(repr=False, compare=False, default=None)

    @property
    def tau(self) -> float:
        return float(self.t[-1])

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    def _bracket(self, t: float) -> int:
        i = int(np.searchsorted(self.t, t, side="right") - 1)
        return min(max(i, 0), self.n_samples - 2)

    def position(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation of the position at arclength t."""
        if self.n_samples == 1:
            return self.x[0].copy()
        i = self._bracket(t)
        h = self.t[i + 1] - self.t[i]
        s = (t - self.t[i]) / h
        return _hermite(self.x[i], self.v[i] * h, self.x[i + 1], self.v[i + 1] * h, s)

    def velocity(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation of the velocity (uses exact accelerations)."""
        if self.n_samples == 1:
            return self.v[0].copy()
        i = self._bracket(t)
        h = self.t[i + 1] - self.t[i]
        s = (t - self.t[i]) / h
        a0 = self.metric.accel(self.x[i], self.v[i])
        a1 = self.metric.accel(self.x[i + 1], self.v[i + 1])
        return _hermite(self.v[i], a0 * h, self.v[i + 1], a1 * h, s)

    def state(self, t: float):
        return self.position(t), self.velocity(t)

    def max_spacing(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return float(np.max(np.diff(self.t)))


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

def _rhs(metric, y):
    return np.concatenate([y[2:], metric.accel(y[:2], y[2:])])


def _rk4_step(metric, y, h):
    k1 = _rhs(metric, y)
    k2 = _rhs(metric, y + 0.5 * h * k1)
    k3 = _rhs(metric, y + 0.5 * h * k2)
    k4 = _rhs(metric, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _radius_after(metric, y, s):
    z = _rk4_step(metric, y, s)
    return math.hypot(z[0], z[1]) - DISK_RADIUS


def _trace_half(metric, x, v, step):
    """Integrate forward from (x, v) until the boundary; return (t, x, v) arrays."""
    # a NaN step would never reach the arclength cap: the loop would not end
    if not (math.isfinite(step) and step > 0):
        raise SceneValidationError("integrator step must be positive and finite")
    y = np.concatenate([np.asarray(x, dtype=float), np.asarray(v, dtype=float)])
    ts = [0.0]
    ys = [y]
    t = 0.0
    while True:
        y_next = _rk4_step(metric, y, step)
        if math.hypot(y_next[0], y_next[1]) >= DISK_RADIUS:
            lo, hi = 0.0, step
            # f(lo) <= 0 by induction (current sample is inside or on the circle)
            while hi - lo > EVENT_WIDTH:
                mid = 0.5 * (lo + hi)
                if _radius_after(metric, y, mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            s_exit = 0.5 * (lo + hi)
            y_exit = _rk4_step(metric, y, s_exit)
            if s_exit > EVENT_WIDTH:
                ts.append(t + s_exit)
                ys.append(y_exit)
            break
        t += step
        ts.append(t)
        ys.append(y_next)
        y = y_next
        if t > ARCLENGTH_CAP:
            raise TrappingSuspectedError(
                f"geodesic exceeded the arclength cap {ARCLENGTH_CAP:g} without "
                "exiting; the metric parameters likely violate the nontrapping "
                "assumption"
            )
    arr = np.array(ys)
    return np.array(ts), arr[:, :2], arr[:, 2:]


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
        If ``step`` is not a positive finite number.
    DomainError
        If the base point is outside the disk or points outward from the
        boundary.
    """
    x = np.asarray(start.x, dtype=float)
    v = np.asarray(start.v, dtype=float)
    r = math.hypot(x[0], x[1])
    if r > DISK_RADIUS + BOUNDARY_TOL:
        raise DomainError(f"start point {x.tolist()} outside the closed disk")
    on_boundary = r >= DISK_RADIUS - BOUNDARY_TOL
    if on_boundary:
        outward = (x[0] * v[0] + x[1] * v[1]) / max(r, 1e-300)
        if outward > 1e-9:
            raise DomainError("boundary start must not point outward")
        t_f, x_f, v_f = _trace_half(metric, x, v, step)
        path = GeodesicPath(t=t_f, x=x_f, v=v_f,
                            endpoints_on_boundary=_ends_on_circle(x_f),
                            metric=metric)
        return path
    # interior start: extend backwards to the boundary, then forwards
    t_b, x_b, v_b = _trace_half(metric, x, -v, step)
    t_f, x_f, v_f = _trace_half(metric, x, v, step)
    tau_b = t_b[-1]
    t_all = np.concatenate([tau_b - t_b[::-1], tau_b + t_f[1:]])
    x_all = np.concatenate([x_b[::-1], x_f[1:]])
    v_all = np.concatenate([-v_b[::-1], v_f[1:]])
    return GeodesicPath(t=t_all, x=x_all, v=v_all,
                        endpoints_on_boundary=_ends_on_circle(x_all),
                        metric=metric)


def trace_forward(metric: MetricField, start: UnitTangent, step: float = DEFAULT_STEP) -> GeodesicPath:
    """Trace only forward from ``start`` to the boundary (no backward extension)."""
    t, x, v = _trace_half(metric, np.asarray(start.x, float), np.asarray(start.v, float), step)
    return GeodesicPath(t=t, x=x, v=v, endpoints_on_boundary=_ends_on_circle(x), metric=metric)


def _ends_on_circle(x: np.ndarray) -> bool:
    r0 = math.hypot(x[0, 0], x[0, 1])
    r1 = math.hypot(x[-1, 0], x[-1, 1])
    return abs(r0 - DISK_RADIUS) <= BOUNDARY_TOL and abs(r1 - DISK_RADIUS) <= BOUNDARY_TOL


def flow_with_frame(metric: MetricField, start: UnitTangent, w0, length: float,
                    step: float = DEFAULT_STEP):
    """Advance ``(x, v, w)`` a fixed arclength along the geodesic from start.

    ``w`` obeys the parallel transport equation.  Used to carry a normal
    vector to an interior anchor point.  Raises FanConstructionError if the
    geodesic leaves the disk before covering ``length``.
    """
    if not (math.isfinite(length) and length > 0):
        raise SceneValidationError("transport length must be positive and finite")
    if not (math.isfinite(step) and step > 0):
        raise SceneValidationError("integrator step must be positive and finite")
    n_steps = max(1, int(math.ceil(length / step)))
    h = length / n_steps
    y = np.concatenate([start.x, start.v, np.asarray(w0, dtype=float)])

    def rhs(y):
        x, v, w = y[:2], y[2:4], y[4:]
        return np.concatenate([v, metric.accel(x, v), metric.transport_deriv(x, v, w)])

    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if math.hypot(y[0], y[1]) > DISK_RADIUS:
            raise FanConstructionError(
                f"base geodesic exits the disk before reaching offset {length:g}"
            )
    return y[:2], y[2:4], y[4:]


# ---------------------------------------------------------------------------
# parallel transport along an existing path
# ---------------------------------------------------------------------------

def parallel_transport(metric: MetricField, path: GeodesicPath, w0) -> np.ndarray:
    """Transport ``w0`` along the path samples; returns an ``(n, 2)`` array.

    Integrates ``w' = -Gamma(x)(v, w)`` with two Runge-Kutta substeps per
    sample interval, interpolating the carrier state with cubic Hermite
    polynomials (same order as the tracer, so no accuracy is lost).
    """
    n = path.n_samples
    out = np.empty((n, 2))
    out[0] = np.asarray(w0, dtype=float)
    for i in range(n - 1):
        t0, t1 = path.t[i], path.t[i + 1]
        w = out[i]
        h = (t1 - t0) / 2.0
        t = t0
        for _ in range(2):
            w = _transport_rk4(metric, path, t, w, h)
            t += h
        out[i + 1] = w
    return out


def _transport_rk4(metric, path, t, w, h):
    def f(tt, ww):
        x, v = path.state(tt)
        return metric.transport_deriv(x, v, ww)

    k1 = f(t, w)
    k2 = f(t + 0.5 * h, w + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, w + 0.5 * h * k2)
    k4 = f(t + h, w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    ``phi`` must provide closed-form ``grad`` and ``hess``.  ``region`` is
    either an integer grid resolution or an ``(N, 2)`` array of points.  A
    positive return certifies strict convexity at the sampled resolution; a
    negative return is a valid "not certified" answer.
    """
    pts = disk_grid(region) if isinstance(region, int) else np.asarray(region, dtype=float)
    margin = math.inf
    for p in pts:
        gamma = metric.christoffel(p)
        grad = phi.grad(p)
        hess = phi.hess(p) - np.einsum("kij,k->ij", gamma, grad)
        margin = min(margin, float(np.linalg.eigvalsh(hess)[0]))
    return margin


def speed_defect(metric: MetricField, path: GeodesicPath) -> float:
    """Max deviation of ``g(v, v)`` from 1 over the path samples."""
    factor = np.exp(2.0 * metric.lam(path.x))
    speeds = factor * (path.v[:, 0] ** 2 + path.v[:, 1] ** 2)
    return float(np.max(np.abs(speeds - 1.0)))
