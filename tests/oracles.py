"""Independent oracles used by the tests.

Everything here derives expected values by a different route than the
library code under test: half-plane interval clipping instead of bisection
on sampled sign functions, central finite differences instead of closed-form
derivatives, plain quadrature instead of tangent differences, parallel
transport integrated as an ODE instead of the closed-form rotated velocity,
a bisection loop instead of one search of complex keys, a loop over
each row's terms by rank instead of one ``np.add.at``, the geodesic
step on rows ``(x, v)`` instead of on the tracer's component-major state,
and one tangent normalized in scalars instead of rows in one array pass.
"""

import math

import numpy as np

import geoxray as gx


def segment_triangle_interval(p0, d, coords):
    """Parameter interval of the line ``p0 + t*d`` inside a triangle.

    Liang-Barsky style: intersect the three half-plane constraints of the
    counterclockwise triangle.  Returns ``(t_in, t_out)`` with
    ``t_out <= t_in`` when the line misses the triangle.
    """
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(d, dtype=float)
    t_lo, t_hi = -math.inf, math.inf
    for k in range(3):
        a = coords[k]
        b = coords[(k + 1) % 3]
        ex, ey = b[0] - a[0], b[1] - a[1]
        # inside: cross(edge, x - a) >= 0 for CCW triangles
        c0 = ex * (p0[1] - a[1]) - ey * (p0[0] - a[0])
        c1 = ex * d[1] - ey * d[0]
        if abs(c1) < 1e-15:
            if c0 < 0:
                return (0.0, 0.0)
            continue
        t_cross = -c0 / c1
        if c1 > 0:
            t_lo = max(t_lo, t_cross)
        else:
            t_hi = min(t_hi, t_cross)
    return (t_lo, t_hi)


def chord_triangle_length(p0, d, coords):
    t_lo, t_hi = segment_triangle_interval(p0, d, coords)
    return max(0.0, t_hi - t_lo)


def chord_forward_value(p0, d, tiling, values):
    """Unweighted straight-chord transform: sum of value * intersection length."""
    total = np.zeros(values.shape[1], dtype=complex)
    for i in range(tiling.n_triangles):
        total += chord_triangle_length(p0, d, tiling.coords(i)) * values[i]
    return total


def fd_metric_derivative(metric, x, eps=1e-6):
    """Central finite differences of the metric matrix: ``dg[l, i, j] = d_l g_ij``."""
    x = np.asarray(x, dtype=float)
    dg = np.zeros((2, 2, 2))
    for l in range(2):
        e = np.zeros(2)
        e[l] = eps
        dg[l] = (metric.matrix(x + e) - metric.matrix(x - e)) / (2 * eps)
    return dg


def fd_christoffel(metric, x, eps=1e-6):
    """Levi-Civita coefficients from finite differences of the metric."""
    g = metric.matrix(np.asarray(x, dtype=float))
    g_inv = np.linalg.inv(g)
    dg = fd_metric_derivative(metric, x, eps)
    gamma = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                s = 0.0
                for l in range(2):
                    s += g_inv[i, l] * (dg[j, l, k] + dg[k, j, l] - dg[l, j, k])
                gamma[i, j, k] = 0.5 * s
    return gamma


def fd_covariant_hessian_min(metric, phi, points, eps=1e-5):
    """Min eigenvalue of the covariant Hessian, everything finite-differenced."""
    out = math.inf
    for p in points:
        grad = np.zeros(2)
        hess = np.zeros((2, 2))
        for i in range(2):
            ei = np.zeros(2)
            ei[i] = eps
            grad[i] = (phi.value(p + ei) - phi.value(p - ei)) / (2 * eps)
            hess[i, i] = (phi.value(p + ei) - 2 * phi.value(p) + phi.value(p - ei)) / eps**2
        e0 = np.array([eps, 0.0])
        e1 = np.array([0.0, eps])
        hess[0, 1] = hess[1, 0] = (
            phi.value(p + e0 + e1) - phi.value(p + e0 - e1)
            - phi.value(p - e0 + e1) + phi.value(p - e0 - e1)
        ) / (4 * eps**2)
        gamma = fd_christoffel(metric, p)
        cov = hess - np.einsum("kij,k->ij", gamma, grad)
        out = min(out, float(np.linalg.eigvalsh(cov)[0]))
    return out


def quadrature_sector_length(start, end, beta, n=200001):
    """Chord length of a sector by Simpson quadrature in the angle variable.

    Parametrizing the line by the direction angle theta of its points gives
    arclength density ``sec^2(theta - beta)``; integrate it over the sector
    clipped to the open half-plane of directions.
    """
    def wrap(a):
        a = math.fmod(a - beta + math.pi, 2 * math.pi)
        if a <= 0:
            a += 2 * math.pi
        return a - math.pi

    width = end - start
    s = wrap(start)
    pieces = [(s, min(s + width, math.pi))]
    if s + width > math.pi:
        pieces.append((-math.pi, s + width - 2 * math.pi))
    total = 0.0
    for lo, hi in pieces:
        lo = max(lo, -math.pi / 2 + 1e-12)
        hi = min(hi, math.pi / 2 - 1e-12)
        if hi <= lo:
            continue
        xs = np.linspace(lo, hi, n)
        ys = 1.0 / np.cos(xs) ** 2
        total += float(np.trapezoid(ys, xs))
    return total


def wrapped_sector_chord_lengths(sector_angles, beta, tol=1e-9):
    """``sector_chord_lengths`` as it was written before its closed form: each sector wrapped to start in
    (-pi, pi], split at pi when it runs past it, and each piece clipped to (-pi/2, pi/2) and summed.  Raises
    the same errors on the same sectors, ``tol`` of a cut being too near."""
    from geoxray.errors import NearParallelSectorError, SceneValidationError

    half_pi = 0.5 * math.pi
    out = np.zeros(len(sector_angles))
    for i, (a, b) in enumerate(sector_angles):
        width = b - a
        if not (0.0 < width < math.pi):
            raise SceneValidationError(f"sector {i} has invalid width {width:g}")
        s = math.fmod(a - beta + math.pi, 2.0 * math.pi)
        s = (s + 2.0 * math.pi if s <= 0 else s) - math.pi
        e = s + width
        for cut in (-half_pi, half_pi, 3.0 * half_pi):
            if s - tol <= cut <= e + tol:
                raise NearParallelSectorError(f"sector {i} touches the line direction at relative angle "
                                              f"{cut:.6g}; its chord is unbounded")
        pieces = [(s, min(e, math.pi))]
        if e > math.pi:
            pieces.append((-math.pi, e - 2.0 * math.pi))
        total = 0.0
        for lo, hi in pieces:
            lo_c = max(lo, -half_pi)
            hi_c = min(hi, half_pi)
            if hi_c > lo_c:
                total += math.tan(hi_c) - math.tan(lo_c)
        out[i] = total
    return out


def observed_order(values):
    """Convergence order from three values at steps h, h/2, h/4."""
    d1 = abs(values[0] - values[1])
    d2 = abs(values[1] - values[2])
    if d2 == 0:
        return math.inf
    return math.log2(d1 / d2)


def row_flow(metric, y):
    """Right-hand side of the geodesic flow on rows ``(x, v)``, ``x' = v`` and ``v' = -Gamma(v, v)``, as the tracer
    stepped it before its state went component-major: ``-2 (d.v) v + (v.v) d`` written out row by row from
    ``d = lam_grad``, which is 0 for the euclidean metric."""
    x, v = y[:, :2], y[:, 2:]
    d = metric.lam_grad(x)
    dv = d[:, 0] * v[:, 0] + d[:, 1] * v[:, 1]
    vv = v[:, 0] ** 2 + v[:, 1] ** 2
    return np.concatenate([v, -2.0 * dv[:, None] * v + vv[:, None] * d], axis=1)


def row_rk4(metric, y, h):
    """One classical Runge-Kutta step of ``row_flow`` for every row of ``y``; ``h`` a scalar or an ``(N, 1)``
    column of per-row steps."""
    k1 = row_flow(metric, y)
    k2 = row_flow(metric, y + 0.5 * h * k1)
    k3 = row_flow(metric, y + 0.5 * h * k2)
    k4 = row_flow(metric, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def transport_rhs(metric, y):
    """Geodesic flow with parallel transport on rows ``(x, v, w)``: ``x' = v``, ``v' = -Gamma(v, v)`` and
    ``w' = -Gamma(v, w)``, with ``Gamma^i_jk = delta_ij d_k + delta_ik d_j - delta_jk d_i`` of
    ``g = exp(2 lam) delta`` written out from ``d = lam_grad``."""
    x, v, w = y[:, :2], y[:, 2:4], y[:, 4:]
    d = metric.lam_grad(x)
    dv, dw, vv, vw = ((a * b).sum(axis=1, keepdims=True) for a, b in ((d, v), (d, w), (v, v), (v, w)))
    return np.concatenate([v, vv * d - 2.0 * dv * v, vw * d - dw * v - dv * w], axis=1)


def transport_step(metric, y, h):
    """One classical Runge-Kutta step of ``transport_rhs`` for every row of ``y``."""
    k1 = transport_rhs(metric, y)
    k2 = transport_rhs(metric, y + 0.5 * h * k1)
    k3 = transport_rhs(metric, y + 0.5 * h * k2)
    k4 = transport_rhs(metric, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def bisect_stack(t, first, stop, path, q):
    """Per query, the first row of ``first[path]:stop[path]`` whose time ``t`` exceeds ``q`` (else
    ``stop[path]``), by a vectorized bisection; a NaN query exceeds no time test and gets ``first[path]``."""
    lo, hi = first[path], stop[path]
    while (busy := lo < hi).any():
        mid = (lo + hi) // 2
        up = busy & (t[np.where(busy, mid, 0)] <= q)
        lo, hi = np.where(up, mid + 1, lo), np.where(busy & ~up, mid, hi)
    return lo


def add_by_rank(out, row, terms):
    """Add ``terms`` to ``out[row]`` in place, per row in term order (``row`` nondecreasing): one fancy-index
    add for each rank a term has within its row."""
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    for j in range(rank.max(initial=-1) + 1):
        sel = rank == j
        out[row[sel]] += terms[sel]
    return out


def scalar_unit_tangent(metric, x, v):
    """The g-unit tangent of ``v`` at one point ``x`` in scalars, as ``MetricField.inner``, ``norm`` and
    ``unit`` took it before tangents were normalized in rows: ``exp(2 lam)`` by ``math.exp`` of the point's
    ``lam``, the norm by ``math.sqrt``.  Raises, in this order, for a point outside the closed disk, a zero
    direction, and a direction with no finite unit length."""
    x = np.asarray(x, dtype=float)
    if np.hypot(x[0], x[1]) > gx.geometry.DISK_RADIUS + gx.geometry.BOUNDARY_TOL:
        raise gx.DomainError(f"base point {x.tolist()} outside the closed disk")
    factor = math.exp(2.0 * float(metric.lam(x)))
    v = np.asarray(v, dtype=float)
    n = math.sqrt(max(factor * float(v[0] * v[0] + v[1] * v[1]), 0.0))
    if n == 0.0:
        raise gx.SceneValidationError("cannot normalize a zero tangent vector")
    with np.errstate(invalid="ignore"):   # inf / inf
        u = v / n
    # false for NaN too: a non-finite point, direction or metric stops here
    if not abs(factor * float(u[0] * u[0] + u[1] * u[1]) - 1.0) <= 1e-12:
        raise gx.SceneValidationError(f"tangent at {x.tolist()} has no finite unit length in the metric")
    return gx.UnitTangent(x=x, v=u)
