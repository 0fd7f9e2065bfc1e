"""Forward transform, offset fan geodesics, and their tangent-plane limits.

The forward value of a geodesic is the weighted line integral of the field:
per clip interval the field is a constant vector, so only the weight matrix
needs quadrature; an endpoint-corrected trapezoid rule on the path samples
is used inside every interval.  A plan's paths are clipped as arrays on
one ``PathStack`` and integrated in one pass, the weight evaluated block by
block of the trapezoid sums, into one ``PlanOperator``: the transform's
matrix in block-CSR form, one ``m``-row block per path and one ``(m, k)``
block per triangle it meets.  Forward values (of one path: a plan of one), the
dense matrix and the reconstruction sweep's systems are array operations on it.

The fan family anchors at a boundary point x with inward direction v: the
geodesic through the point at arclength h along v, in the direction of the
parallel-transported normal of v, traced into a plan as any path.  As h shrinks,
the integral scaled by 1/h converges to a weighted line integral of the sector
fan on the tangent plane; both sides are here so the convergence can be measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FanConstructionError, GeoxrayError, IllPosedStepError, NearParallelSectorError, SceneValidationError
from .geometry import (
    BOUNDARY_TOL,
    DEFAULT_STEP,
    DISK_RADIUS,
    GeodesicPath,
    MetricField,
    PathStack,
    flow_geodesics,
    trace_geodesics,
    unit_tangent,
    unit_tangents,
    unwrap,
)
from .tiling import PiecewiseConstantField, SectorFan, Tiling, clip_plan, tangent_fan
from .weights import WeightField

# Inward cone about the normal inside which fan anchors are accepted.
FAN_CONE_HALF_ANGLE = math.radians(30.0) + 1e-9
NEAR_PARALLEL_TOL = 1e-9
# Padded nodes per block of the trapezoid sums: bounds their temporaries.
QUAD_BLOCK = 1024


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def per_triangle_weight_integrals(metric: MetricField, weight: WeightField,
                                  tiling: Tiling, path: GeodesicPath):
    """Weight matrix integrals of the path pieces inside each triangle.

    Returns ``{triangle_id: (matrix, length)}`` where ``matrix`` is the
    ``(m, k)`` integral of the weight over the pieces inside that triangle
    and ``length`` their total arclength: the one row of the path's
    PlanOperator.
    """
    op = _plan_operator(weight, tiling, [path]).require()
    return {tri: (mat, length) for tri, mat, length in zip(op.triangle.tolist(), op.block, op.length.tolist())}


@dataclass(frozen=True)
class PlanOperator:
    """The transform's matrix over a plan of paths, in block-CSR form.

    Row ``i`` is the ``m``-row block of path ``i``; its entries
    ``row_ptr[i]:row_ptr[i + 1]`` hold, in the order the path first enters
    them, a ``triangle``, the ``(m, k)`` weight integral ``block`` over the
    pieces inside it and their total ``length``.  ``errors[i]`` is what
    tracing or integrating path ``i`` raised (its row is then empty), or None.
    """

    row_ptr: np.ndarray
    triangle: np.ndarray
    block: np.ndarray
    length: np.ndarray
    errors: tuple
    n_triangles: int

    @property
    def n_rows(self) -> int:
        return len(self.errors)

    @property
    def row(self) -> np.ndarray:
        """Row index of every entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))

    def take(self, rows) -> "PlanOperator":
        """The operator of the given rows, in the given order."""
        counts = np.diff(self.row_ptr)[rows]
        row_ptr = np.concatenate([[0], np.cumsum(counts, dtype=int)])
        at = np.repeat(self.row_ptr[rows] - row_ptr[:-1], counts) + np.arange(row_ptr[-1])
        return PlanOperator(row_ptr, self.triangle[at], self.block[at], self.length[at],
                            tuple(self.errors[r] for r in rows), self.n_triangles)

    def require(self) -> "PlanOperator":
        """Raise the error of the first failed row, if there is one."""
        for error in self.errors:
            if error is not None:
                raise error
        return self

    def apply(self, field: PiecewiseConstantField) -> np.ndarray:
        """Forward values ``(n_rows, m)``: per row, ``np.add.at`` of its entries' ``block @ value`` in order."""
        _, m, k = self.require().block.shape
        if k != field.k:
            raise SceneValidationError(f"dimension mismatch: weight takes C^{k}, field values lie in C^{field.k}")
        out = np.zeros((self.n_rows, m), dtype=complex)
        np.add.at(out, self.row, np.matmul(self.block, field.values[self.triangle][..., None])[..., 0])
        return out

    def dense(self) -> np.ndarray:
        """The dense matrix: entry ``(i, j)`` is the block at row block ``i``, column block ``j``."""
        _, m, k = self.require().block.shape
        a = np.zeros((self.n_rows, m, self.n_triangles, k), dtype=complex)
        a[self.row, :, self.triangle, :] = self.block
        return a.reshape(self.n_rows * m, self.n_triangles * k)


def plan_weight_integrals(metric: MetricField, weight: WeightField, tiling: Tiling,
                          starts, step: float = DEFAULT_STEP) -> PlanOperator:
    """The PlanOperator of a plan of starts: UnitTangents, traced GeodesicPaths or errors.

    The UnitTangents are traced together in one ``trace_geodesics`` call, and
    all paths are clipped together and integrated in one pass.  An error
    becomes its row's.
    """
    return _plan_operator(weight, tiling, trace_geodesics(metric, starts, step=step))


def _plan_operator(weight: WeightField, tiling: Tiling, paths) -> PlanOperator:
    """The PlanOperator of traced paths or errors.

    The paths are clipped by one ``clip_plan`` call.  A piece inside a
    triangle is integrated by the trapezoid rule on its ends and the samples
    strictly inside it; a row's pieces inside one triangle add up, in path
    order by one ``np.add.at``, into the entry the path made on entering that
    triangle first.  A row whose weight integrals overflow gets an IllPosedStepError.
    """
    errors = [path if isinstance(path, GeoxrayError) else None for path in paths]
    try:
        tiling.require_valid()
    except GeoxrayError as exc:
        errors = [exc if e is None else e for e in errors]
    good = np.array([r for r, e in enumerate(errors) if e is None], dtype=int)
    stack, path, tri, t0, t1 = clip_plan(tiling, [paths[r] for r in good])
    inside = (tri >= 0) & (t1 - t0 > 0)
    path, tri, t0, t1 = path[inside], tri[inside], t0[inside], t1[inside]
    # the samples strictly inside each piece are its inner trapezoid nodes: from the
    # first at or after t0 + eps (the first after the float below it) to t1 - eps
    eps = 1e-13 * np.maximum(1.0, stack.t[stack.stop - 1][path])
    inner = stack.search(path, np.nextafter(t0 + eps, -np.inf))
    # a row's entries in the order it enters their triangles; each piece adds to its entry in path order
    row = good[path]
    _, first, entry = np.unique(row * tiling.n_triangles + tri, return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")   # stable like the other sorts: a quicksort pages in more numpy code
    first, entry = first[by_first], np.argsort(by_first, kind="stable")[entry]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is its row's error, below
        mats = _trapezoid_sums(weight, stack, path, t0, t1, inner, np.maximum(stack.search(path, t1 - eps) - inner, 0))
        # -0.0 starts each total as its first piece, as x + -0.0 == x for every x
        block = -np.zeros((len(first),) + mats.shape[1:], dtype=complex)
        np.add.at(block, entry, mats)
    length = -np.zeros(len(first))
    np.add.at(length, entry, t1 - t0)
    for r in row[first][~np.isfinite(block).all(axis=(1, 2))].tolist():
        errors[r] = IllPosedStepError(f"plan row {r}: the weight integrals are non-finite (the weight overflows)")
    return PlanOperator(row_ptr=np.searchsorted(row[first], np.arange(len(paths) + 1)), triangle=tri[first],
                        block=block, length=length, errors=tuple(errors), n_triangles=tiling.n_triangles)


def _trapezoid_sums(weight: WeightField, stack: PathStack, path, t0, t1, inner, count) -> np.ndarray:
    """Per piece, the trapezoid sum of the weight along stacked path ``path``
    over the nodes ``t0``, ``stack.t[inner:inner + count]`` and ``t1``, added
    up in node order.

    Pieces of similar node counts go together into one zero-padded (pieces,
    nodes) array of at most ``QUAD_BLOCK`` nodes, where the weight is
    evaluated and summed by one ``cumsum``; a padding term is -0.0, which
    leaves the running total as it is.
    """
    weight_at, t = weight.along(stack), stack.t
    out = np.empty((len(count), weight.m, weight.k), dtype=complex)
    order = np.argsort(count, kind="stable")
    start = 0
    while start < len(order):
        width = count[order[start:]] + 2
        q = order[start:start + max(1, np.count_nonzero(np.arange(1, len(width) + 1) * width <= QUAD_BLOCK))]
        start += len(q)
        col, n = np.arange(width[len(q) - 1]), count[q][:, None]
        at = np.where(col > n, t1[q][:, None], t[np.minimum(inner[q][:, None] + col - 1, len(t) - 1)])
        at[:, 0] = t0[q]
        terms = weight_at(np.broadcast_to(path[q][:, None], at.shape), at)
        terms = terms[:, :-1] + terms[:, 1:]
        np.multiply((0.5 * np.diff(at, axis=1))[..., None, None], terms, out=terms)
        terms[col[:-1] > n] = -np.zeros((), dtype=terms.dtype)
        out[q] = np.cumsum(terms, axis=1)[:, -1]
    return out


# ---------------------------------------------------------------------------
# fan geodesics
# ---------------------------------------------------------------------------

def fan_geodesics(metric: MetricField, x, members, sign: int = 1,
                  step: float = DEFAULT_STEP) -> list:
    """Build the offset geodesics of several ``(v, h)`` members at one anchor x.

    ``x`` must be a boundary point and each ``v`` an inward unit direction within 30 degrees of the
    inward normal.  The normal of ``v`` (rotated by ``sign * pi/2``) is parallel-transported to
    distance h, and the maximal geodesic through that point in the transported direction is traced.
    Each stage takes all members in one call: the anchors' ``unit_tangents``, the flows, the offset normals'
    ``unit_tangents`` and the traces.  Returns one entry per member: its traced GeodesicPath, or its error.
    """
    x = np.asarray(x, dtype=float)
    if abs(math.hypot(x[0], x[1]) - DISK_RADIUS) > BOUNDARY_TOL:
        raise SceneValidationError("fan anchor must sit on the boundary circle")
    nu, members = unit_tangent(metric, x, -x).v, list(members)
    anchors = unit_tangents(metric, np.tile(x, (len(members), 1)), [v for v, _ in members])
    out = [a if isinstance(a, GeoxrayError)
           else SceneValidationError("fan anchor direction lies outside the 30-degree cone about the inward normal")
           if metric.inner(x, a.v, nu) < math.cos(FAN_CONE_HALF_ANGLE)
           else SceneValidationError("fan offset h must be positive") if h <= 0 else None
           for a, (_, h) in zip(anchors, members)]
    live = [i for i, o in enumerate(out) if o is None]
    for i, flow in zip(live, flow_geodesics(metric, [anchors[i] for i in live], [members[i][1] for i in live], step)):
        out[i] = (FanConstructionError(f"offset point for h={members[i][1]:g} is not interior")
                  if not isinstance(flow, GeoxrayError) and math.hypot(*flow[0]) > DISK_RADIUS - 1e-12 else flow)
    # the rotation by sign * pi/2 is parallel on an oriented surface (do Carmo, Riemannian Geometry, ch. 2-3:
    # transport keeps angles and orientation), so the transported normal of v is the normal of v_h
    offset = [i for i, o in enumerate(out) if isinstance(o, tuple)]   # the (p, v_h) of a flow that stayed inside
    p, v_h = (np.array([out[i][j] for i in offset]).reshape(-1, 2) for j in (0, 1))
    normals = unit_tangents(metric, p, metric.rotate90_rows(p, v_h, sign))
    for i, normal in zip(offset, normals):
        out[i] = normal
    return trace_geodesics(metric, out, step=step)


# ---------------------------------------------------------------------------
# tangent-plane line integrals
# ---------------------------------------------------------------------------

def sector_chord_lengths(sector_angles, beta: float) -> np.ndarray:
    """Chord length of the line at direction angle beta through each sector.

    The line ``v + t*w`` (v at angle beta, w at beta + pi/2) meets the
    direction at angle ``beta + arctan(t)``; a sector ``[a, b]`` therefore
    contributes ``tan(min(b, cut) - beta) - tan(max(a, -cut) - beta)`` with
    the cuts at ``beta +- pi/2``.  Raises NearParallelSectorError when a
    sector edge is within 1e-9 of a cut.
    """
    half_pi = 0.5 * math.pi
    out = np.zeros(len(sector_angles))
    for i, (a, b) in enumerate(sector_angles):
        width = b - a
        if not (0.0 < width < math.pi):
            raise SceneValidationError(f"sector {i} has invalid width {width:g}")
        s = _wrap_angle(a - beta)
        e = s + width
        # the chord is unbounded if a cut direction touches the sector at all
        for cut in (-half_pi, half_pi, 3.0 * half_pi):
            if s - NEAR_PARALLEL_TOL <= cut <= e + NEAR_PARALLEL_TOL:
                raise NearParallelSectorError(
                    f"sector {i} touches the line direction at relative angle "
                    f"{cut:.6g}; its chord is unbounded"
                )
        # so [s, e] lies inside one of (-pi, -pi/2), (-pi/2, pi/2) and (pi/2, 3pi/2): only the middle one meets the line
        out[i] = math.tan(e) - math.tan(s) if -half_pi < s < half_pi else 0.0
    return out


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi


def tangent_line_integral(fan: SectorFan, beta: float) -> np.ndarray:
    """Integral of the fan's piecewise constant tangent function over the line.

    ``beta`` is the direction angle (in the fan's orthonormal frame) of the
    unit vector the line passes through at distance one from the vertex.
    """
    total = np.zeros(fan.values.shape[1], dtype=complex)
    for ell, value in zip(sector_chord_lengths(fan.angles.tolist(), beta), fan.values):
        total += ell * value
    return total


def frozen_limit(weight: WeightField, x, v, fan: SectorFan) -> np.ndarray:
    """Limit value of the scaled fan integrals: weight frozen at the anchor.

    Equals ``W(x, v_perp)`` applied to the tangent-plane line integral, with
    ``v_perp`` the +pi/2 rotation of v in the fan's orthonormal frame.
    """
    v = np.asarray(v, dtype=float)
    beta = fan.angle_of(v)
    u = fan.frame @ v
    u_perp = np.array([-u[1], u[0]])
    v_perp = np.linalg.solve(fan.frame, u_perp)
    w_mat = weight.at(np.asarray(x, dtype=float), v_perp)
    return w_mat @ tangent_line_integral(fan, beta)


# ---------------------------------------------------------------------------
# convergence scans
# ---------------------------------------------------------------------------

def limit_scan(metric: MetricField, weight: WeightField, tiling: Tiling,
               field: PiecewiseConstantField, anchor_angle: float,
               v_offsets, h_values, sign: int = 1, step: float = DEFAULT_STEP):
    """Compare scaled fan integrals against the frozen limit over (v, h) grids.

    The anchor is the boundary point at ``anchor_angle``; it must coincide
    with a tiling vertex, whose sector fan supplies the limit side.
    ``v_offsets`` are angles (radians) added to the inward normal direction.
    Returns a list of row dicts ``{h, v_angle, err, scaled, frozen}``.
    """
    x = np.array([math.cos(anchor_angle), math.sin(anchor_angle)])
    vertex_id = tiling.find_vertex(x)
    fan = tangent_fan(tiling, field, vertex_id, metric)
    members, stop = [], None
    directions = [_rotate_chart(metric, x, -x, offset) for offset in v_offsets]
    for start in unit_tangents(metric, np.tile(x, (len(directions), 1)), directions):
        try:
            v = unwrap(start).v
            frozen = frozen_limit(weight, x, v, fan)
        except GeoxrayError as exc:
            stop = exc   # raised after the members of the earlier offsets
            break
        members += [(v, h, frozen) for h in h_values]
    paths = fan_geodesics(metric, x, [(v, h) for v, h, _ in members], sign=sign, step=step)
    values = plan_weight_integrals(metric, weight, tiling, paths).apply(field)
    rows = []
    for (v, h, frozen), value in zip(members, values):
        scaled = value / h
        rows.append({
            "h": float(h),
            "v_angle": fan.angle_of(v),
            "err": float(np.linalg.norm(scaled - frozen)),
            "scaled": scaled,
            "frozen": frozen,
        })
    if stop is not None:
        raise stop
    return rows


def _rotate_chart(metric: MetricField, x, v, angle: float) -> np.ndarray:
    """Rotate v by ``angle`` in the g-orthonormal frame at x (chart output)."""
    a = metric.frame(np.asarray(x, dtype=float))
    u = a @ np.asarray(v, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    u_rot = np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])
    return np.linalg.solve(a, u_rot)
