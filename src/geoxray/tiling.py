"""Conforming triangulations of the disk, point location, sector fans, clipping.

Triangles are straight in chart coordinates.  The curved disk is covered up to a boundary band by
an inscribed polygon; piecewise constant fields are zero on that band and on the tiling skeleton
(edges and vertices).  A tiling keeps one numpy edge table, which refinement, validation and
clipping read.  Validation, point location and clipping test only the box pairs that meet, which
one blocked sort-and-sweep query, ``_box_pairs``, returns.  Validation clips a pair of triangles
only when no edge line of either separates them, a separating-axis test (Gottschalk, Lin and
Manocha, "OBBTree", 1996), so a conforming tiling in the disk clips none.

Clipping cuts sampled geodesics where their cubic Hermite interpolants cross an edge segment, a
whole plan of paths in one pass, the samples of all paths end to end in one ``PathStack``.  Each
sample interval is paired with the edges whose bounding boxes meet its Bezier control hull's box:
the boxes of runs of ``HULL_RUN`` intervals go through ``_box_pairs`` first, and only the
intervals of a run that meets an edge are tested against it.  On those pairs crossings are
bracketed on the sample grid, and a near-tangent interval that crosses an edge twice, with no
sign change on the grid, is split at the cubic's interior extremum.
One bisection advances the brackets of all paths in lockstep, up to ``WALK_LANES`` of them on the
turns a Newton guess on each one's edge-line cubic predicts, all checked at once as at the tracer's
exits; one point location, ``locate_points``, classifies the midpoints of all pieces.  Every lane does
the arithmetic of a one-path clip, so a path's pieces do not depend on the plan; ``clip_plan``
returns them as arrays.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SceneValidationError, TangencyWarning
from .geometry import DISK_RADIUS, WALK_LANES, MetricField, PathStack, _bisect_lanes, _hermite

BARY_TOL = 1e-12          # skeleton classification tolerance (barycentric)
MIN_AREA = 1e-12
CLIP_BISECT_WIDTH = 1e-14  # edge-crossing bisection width (contract is 1e-10)
TANGENCY_LENGTH = 1e-6
# Pairs per block of the tiling's searches, so that long plans and fine
# tilings do not raise peak memory: candidate box pairs in the sweep of
# _box_pairs; LOCATE_BLOCK (point, triangle) pairs, with more temporaries
# each, when locating.
CLIP_BLOCK = 6144
# Triangle pairs per block of validation's batched overlap clip.
OVERLAP_BLOCK = 384
# Clipping pairs the edges with CLIP_BLOCK // HULL_COST sample intervals at a
# time; each costs a few pairs' temporaries for its control hull and box, as
# only the runs of HULL_RUN intervals go through the sweep of _box_pairs.
HULL_COST = 4
# Sample intervals per run whose common box is paired with the edges before
# the intervals are: 8 steps of 0.01 span less than an edge of the tilings in
# use up to T = 384, so a run meets few edges that none of its intervals meet.
HULL_RUN = 8
LOCATE_BLOCK = 4096
# Widening of the control-hull box, so that rounding in the Hermite
# evaluation cannot push a crossing on an edge endpoint out of the box.
HULL_SLACK = 1e-12


LOCATE_KINDS = ("triangle", "skeleton", "outside")


@dataclass
class TilingReport:
    nondegenerate: bool
    inside_disk: bool
    conforming: bool
    disjoint: bool
    coverage_defect: float
    messages: list

    @property
    def ok(self) -> bool:
        return self.nondegenerate and self.inside_disk and self.conforming and self.disjoint


class Tiling:
    """Vertices, triangle index rows, their areas and barycentric inverses, and an edge table.

    Triangle rows are reoriented counterclockwise at construction.  The edge table and the
    clipper's edge arrays are built on first use.  The object is immutable; all queries are pure.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
        tris = np.asarray(triangles, dtype=int).reshape(-1, 3)
        if tris.size and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            raise SceneValidationError("tiling: triangle index out of range")
        # a vertex that is not finite, or huge, makes NaN areas and inverses, which validation reports
        with np.errstate(all="ignore"):
            d = self.vertices[tris[:, 1:]] - self.vertices[tris[:, :1]]    # rows b - a and c - a
            det = d[:, 0, 0] * d[:, 1, 1] - d[:, 1, 0] * d[:, 0, 1]
            inv = d[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / np.where(abs(det) < MIN_AREA, np.nan, det)[:, None, None]
        # orient counterclockwise: swapping b and c negates the area and swaps the inverse's rows, bit for bit
        areas = 0.5 * det
        self.triangles = np.where((areas < 0)[:, None], tris[:, [0, 2, 1]], tris)
        self.areas = np.where(areas < 0, -areas, areas)
        self._bary_inv = np.where((areas < 0)[:, None, None], inv[:, ::-1], inv)  # inverse of columns b - a, c - a
        self._report = None

    # -- construction helpers ------------------------------------------------
    @functools.cached_property
    def _edge_table(self):
        """The edges as sorted vertex pairs ``(E, 2)``, in the order that the triangle slots
        (a, b), (b, c), (c, a) first meet them, and each slot's edge ``(T, 3)``."""
        tris, nxt = self.triangles, self.triangles.take([1, 2, 0], axis=1)
        lo, hi = np.minimum(tris, nxt).ravel(), np.maximum(tris, nxt).ravel()
        key = lo * len(self.vertices) + hi
        order = np.argsort(key, kind="stable")
        head = np.empty_like(order)             # each slot's first slot with its edge
        head[order] = order[np.searchsorted(key[order], key[order])]
        firsts = np.flatnonzero(head == np.arange(len(head)))
        return np.column_stack([lo[firsts], hi[firsts]]), np.searchsorted(firsts, head).reshape(-1, 3)

    @functools.cached_property
    def _edges(self):
        """Each edge as ``a + s e`` (``s`` in [0, 1]) and its box's low and high corners, four ``(E, 2)``
        arrays sorted on low x, so that the sweep of ``_box_pairs`` sorts them at no cost."""
        ends = self.vertices[self._edge_table[0]]
        ends = ends[np.argsort(ends[:, :, 0].min(axis=1), kind="stable")]
        return ends[:, 0], ends[:, 1] - ends[:, 0], ends.min(axis=1), ends.max(axis=1)

    @functools.cached_property
    def _locate_boxes(self):
        """Low and high corners of the triangle boxes that ``locate_points`` pads, and their triangles."""
        corners, eps = self.vertices[self.triangles], np.finfo(float).eps
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        w = (hi - lo).max(axis=1)
        kappa = w * np.abs(self._bary_inv).max(axis=(1, 2))
        pad = w * (2.0 * BARY_TOL + 256.0 * eps * (kappa + 1.0)) + eps * np.abs(corners).max(axis=(1, 2))
        pad, ids = np.where(256.0 * eps * kappa < 1.0, pad, np.inf)[:, None], np.flatnonzero(~np.isnan(kappa))
        return lo[ids] - pad[ids], hi[ids] + pad[ids], ids

    # -- basic queries ---------------------------------------------------------
    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def coords(self, i: int) -> np.ndarray:
        return self.vertices[self.triangles[i]]

    def total_area(self) -> float:
        return sum(self.areas.tolist())

    def find_vertex(self, p, tol=1e-9) -> int:
        d = np.hypot(*(self.vertices - np.asarray(p, dtype=float)).T)
        i = int(np.argmin(d)) if len(d) else -1
        if i < 0 or d[i] > tol:
            raise SceneValidationError(f"no tiling vertex within {tol:g} of {np.asarray(p).tolist()}")
        return i

    # -- validation --------------------------------------------------------------
    def validate(self) -> TilingReport:
        if self._report is None:
            # NaN and inf from vertices that are not finite, or huge, are reported, not warned of
            with np.errstate(all="ignore"):
                self._report = _validate(self)
        return self._report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise SceneValidationError("tiling rejected: " + "; ".join(report.messages))
        return report


def _validate(tiling: Tiling) -> TilingReport:
    """Check the tiling, with a message per defect: degenerate triangles, vertices outside the disk,
    coincident vertices, edges of three triangles, T-junctions, and overlaps (clip areas above 1e-12
    of box-meeting pairs ``i < j``).  With every vertex in the disk, pairs of nondegenerate, so
    counterclockwise, triangles that ``_separated`` proves disjoint are not clipped: their exact
    overlap is at most a rounding-thin sliver along the separating line, and their clip area about
    1e-16.  Outside the disk rounding grows with the coordinates, so every pair is clipped."""
    v, areas = tiling.vertices, tiling.areas
    msgs = [f"triangle {i} is degenerate (area {areas[i]:.3e})" for i in np.flatnonzero(np.abs(areas) < MIN_AREA)]
    nondeg, before, finite = not msgs, len(msgs), np.isfinite(v).all(axis=1)
    msgs += [f"vertex {k} {v[k].tolist()} is not finite" for k in np.flatnonzero(~finite)]
    msgs += ["vertex outside the closed unit disk"] if (np.hypot(*v[finite].T) > DISK_RADIUS + 1e-9).any() else []
    inside = len(msgs) == before

    before = len(msgs)
    # coincident vertices break the equal-depth requirement; only vertices
    # within 2e-12 of each other on both axes can be closer than 1e-12
    i, j = _box_pairs(v, v, v - 2e-12, v + 2e-12).T
    near = (i < j) & (np.hypot(*(v[j] - v[i]).T) < 1e-12)
    msgs += [f"vertices {i} and {j} coincide" for i, j in zip(i[near].tolist(), j[near].tolist())]
    # an edge shared by more than two triangles cannot align depths
    edges, slot_edge = tiling._edge_table
    shared = np.bincount(slot_edge.ravel(), minlength=len(edges))
    msgs += [f"edge ({edges[e, 0]}, {edges[e, 1]}) shared by {shared[e]} triangles" for e in np.flatnonzero(shared > 2)]
    # T-junction: a vertex in the open interior of another triangle's edge;
    # only a vertex inside that triangle's bounding box can be one
    corners = v[tiling.triangles]                   # (T, 3, 2); edge k runs corner k -> k+1
    box_lo, box_hi = corners.min(axis=1), corners.max(axis=1)
    pairs = _box_pairs(v, v, box_lo - 1e-12, box_hi + 1e-12)
    pairs = pairs[(tiling.triangles[pairs[:, 1]] != pairs[:, :1]).all(axis=1)]
    if len(pairs):
        on_edge = np.nonzero(_on_open_edges(v[pairs[:, 0]], corners[pairs[:, 1]]))[0]
        msgs += [f"vertex {pairs[p, 0]} lies inside an edge of triangle {pairs[p, 1]}: "
                 "point depths disagree between the two triangles" for p in on_edge]
    conforming, before = len(msgs) == before, len(msgs)

    # only triangles whose bounding boxes meet can overlap; one triangle has no pair
    if tiling.n_triangles > 1:
        i, j = _box_pairs(box_lo, box_hi).T
        if inside:
            clip = ~(_separated(corners, i, j) & (areas[i] >= MIN_AREA) & (areas[j] >= MIN_AREA))
            i, j = i[clip], j[clip]
        overlap = _overlap_areas(corners, i, j)
        big = overlap > 1e-12
        msgs += [f"triangles {i} and {j} overlap (area {area:.3e})"
                 for i, j, area in zip(i[big].tolist(), j[big].tolist(), overlap[big].tolist())]
    return TilingReport(nondegenerate=nondeg, inside_disk=inside, conforming=conforming, disjoint=len(msgs) == before,
                        coverage_defect=math.pi * DISK_RADIUS**2 - tiling.total_area(), messages=msgs)


def _box_pairs(lo_a, hi_a, lo_b=None, hi_b=None) -> np.ndarray:
    """Index pairs ``(i, j)``, in row-major order, of closed boxes ``a[i]`` and ``b[j]`` that meet, ``(P, 2)``.
    Without ``b`` the boxes ``a`` are paired with themselves, and each meeting pair comes once, ``i < j``.

    Up to ``CLIP_BLOCK`` pairs are tested all against all.  Otherwise the ``b`` boxes are sorted on
    low x and swept (Ericson, *Real-Time Collision Detection*, ch. 7): the low x of each box meeting
    ``a[i]`` lies from ``lo_a[i] - reach`` to ``hi_a[i]``, ``reach`` an x extent no ``b`` box exceeds,
    so it is one run of the sorted boxes.  A set paired with itself needs no ``reach``: each pair is
    found from its box that sorts first, whose run starts just past it.  The runs are expanded in
    parts of about ``CLIP_BLOCK`` pairs.  A box with a NaN corner meets nothing.  Only ``b`` boxes
    of two sets may be unbounded.
    """
    one_set = lo_b is None
    if one_set:
        lo_b, hi_b = lo_a, hi_a
    if len(lo_a) * len(lo_b) <= CLIP_BLOCK:
        meet = (lo_a[:, None] <= hi_b) & (lo_b <= hi_a[:, None])
        meet = meet[..., 0] & meet[..., 1]
        return np.array(np.nonzero(np.triu(meet, 1) if one_set else meet)).T
    # column views, as gathers from one column are much faster than from rows
    (bx0, by0), (bx1, by1) = lo_b.T, hi_b.T
    order = np.argsort(bx0, kind="stable")
    x = bx0[order]
    if one_set:
        # row s is the box at sorted position s, and its run the boxes after it
        (ax0, ay0), (ax1, ay1) = lo_a[order].T, hi_a[order].T
        start = np.arange(1, len(order) + 1)
    else:
        (ax0, ay0), (ax1, ay1) = lo_a.T, hi_a.T
        # the widest box rounded up one float, so fl(lo_a - reach) is at most the low x of each box meeting a
        reach = np.nextafter(np.fmax.reduce(bx1 - bx0), np.inf)
        start = np.searchsorted(x, ax0 - reach)
    # a run may end before it starts (a NaN low x searches past every finite one); a NaN
    # high x searches past every box, and meets none
    count = np.maximum(np.searchsorted(x, ax1, side="right") - start, 0) * ~np.isnan(ax1)
    first = np.cumsum(count) - count
    shift = start - first
    # each part starts at the box that holds a multiple of CLIP_BLOCK pairs
    parts = (np.searchsorted(first, np.arange(0, count.sum(), CLIP_BLOCK), side="right") - 1).tolist()
    found = [np.zeros(0, dtype=int)]
    for p, q in zip(parts, parts[1:] + [len(lo_a)]):
        i = np.repeat(np.arange(p, q), count[p:q])
        j = np.arange(first[p], first[p] + len(i))
        j += shift[i]                           # in place, as these are the largest temporaries
        j = order[j]
        # bx0 <= ax1 holds on the whole run
        meet = ax0[i] <= bx1[j]
        meet &= (ay0[i] <= by1[j]) & (by0[j] <= ay1[i])
        i, j = i[meet], j[meet]
        if one_set:
            i = order[i]
            i, j = np.minimum(i, j), np.maximum(i, j)
        found.append(i * len(lo_b) + j)
    found = np.concatenate(found)               # the list goes, and the keys sort in place
    found.sort()
    pairs = np.empty((len(found), 2), dtype=int)
    np.divmod(found, len(lo_b), out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _on_open_edges(p, corners, tol=1e-12) -> np.ndarray:
    """Row-wise: which edges of triangle ``corners[r]`` hold ``p[r]`` in their open interior.

    ``p`` is ``(P, 2)`` and ``corners`` ``(P, 3, 2)``; edge k runs from
    corner k to corner k+1.  The point is projected on the edge line; it
    must fall strictly inside the edge and within ``tol`` of its projection.
    Returns a ``(P, 3)`` mask.
    """
    a = corners
    ab = corners[:, [1, 2, 0]] - a
    ap = p[:, None] - a
    L2 = ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (ap[..., 0] * ab[..., 0] + ap[..., 1] * ab[..., 1]) / L2
    off = p[:, None] - (a + s[..., None] * ab)
    return (L2 != 0) & (s > tol) & (s < 1.0 - tol) & (np.hypot(off[..., 0], off[..., 1]) < tol)


def _separated(corners, i, j) -> np.ndarray:
    """Which pairs of counterclockwise triangles ``corners[i]`` and ``corners[j]`` an edge line of
    either one separates: the three corners of the other lie on its closed outer side, with the
    arithmetic of ``_edge_side(...) <= 0.0``, the clipper's.  The edges of ``corners[i]`` are tried
    first, and those of ``corners[j]`` on the pairs left, in blocks of ``OVERLAP_BLOCK`` pairs."""
    # (corner, triangle) arrays, so that each operation runs over contiguous pairs
    x, y = np.ascontiguousarray(corners[..., 0].T), np.ascontiguousarray(corners[..., 1].T)
    ex, ey = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y     # edge k runs corner k -> k + 1

    def outside(p, q):
        # out[e, c]: corner c of q on the closed outer side of edge e of p, pair by pair
        out = ex[:, None, p] * (y[None, :, q] - y[:, None, p]) - ey[:, None, p] * (x[None, :, q] - x[:, None, p]) <= 0.0
        out = out[:, 0] & out[:, 1] & out[:, 2]
        return out[0] | out[1] | out[2]

    sep = np.zeros(len(i), dtype=bool)
    for k in range(0, len(i), OVERLAP_BLOCK):
        p, q = i[k:k + OVERLAP_BLOCK], j[k:k + OVERLAP_BLOCK]
        s = outside(p, q)
        s[~s] = outside(q[~s], p[~s])
        sep[k:k + OVERLAP_BLOCK] = s
    return sep


def _overlap_areas(corners, i, j) -> np.ndarray:
    """Areas of the intersections of triangles ``corners[i]`` and ``corners[j]``, pair by pair.

    Sutherland-Hodgman on blocks of ``OVERLAP_BLOCK`` pairs, held as ``(pairs, n, 2)`` closed polygons
    (the first vertex again after the last) with per-pair vertex counts; ``n`` follows the largest
    count, since in floats a clip can add more than one vertex.  Each pair does the arithmetic of a
    scalar clip and of its shoelace sum from 0.0 in vertex order, so its area has the scalar bits.
    """
    areas = np.empty(len(i))
    for k in range(0, len(i), OVERLAP_BLOCK):
        poly, tri = corners[i[k:k + OVERLAP_BLOCK]][:, [0, 1, 2, 0]], corners[j[k:k + OVERLAP_BLOCK]]
        count, rows = np.full(len(poly), 3), np.arange(len(poly))
        for e in range(3):
            a, d = tri[:, e, None], tri[:, (e + 1) % 3, None] - tri[:, e, None]
            s = d[..., 0] * (poly[..., 1] - a[..., 1]) - d[..., 1] * (poly[..., 0] - a[..., 0])
            # keep a vertex on or left of the line; add the crossing on a strict sign change
            sp, sq, valid = s[:, :-1], s[:, 1:], np.arange(s.shape[1] - 1) < count[:, None]
            keep, cut = valid & (sp >= 0), valid & (((sp > 0) & (sq < 0)) | ((sp < 0) & (sq > 0)))
            emits = keep + cut.astype(int)
            at = np.cumsum(emits, axis=1) - emits     # each vertex's first slot in the clipped polygon
            count = emits.sum(axis=1)
            clipped = np.zeros((len(poly), count.max() + 1, 2))
            r, c = np.nonzero(keep)
            clipped[r, at[r, c]] = poly[r, c]
            r, c = np.nonzero(cut)
            p, t = poly[r, c], sp[r, c] / (sp[r, c] - sq[r, c])
            clipped[r, at[r, c] + keep[r, c]] = p + t[:, None] * (poly[r, c + 1] - p)
            clipped[rows, count] = clipped[:, 0]
            poly = clipped
        terms = poly[:, :-1, 0] * poly[:, 1:, 1] - poly[:, :-1, 1] * poly[:, 1:, 0]
        terms = np.where(np.arange(terms.shape[1]) < count[:, None], terms, 0.0)   # cumsum adds left to right
        areas[k:k + OVERLAP_BLOCK] = np.abs(np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)[:, -1]) / 2.0
    return areas


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def polygon_fan_tiling(sides: int, rotation: float = 0.0) -> Tiling:
    """Fan triangulation of a regular polygon inscribed in the unit circle."""
    if sides < 3:
        raise SceneValidationError("polygon needs at least 3 sides")
    angles = rotation + 2.0 * math.pi * np.arange(sides) / sides
    rim = np.column_stack([np.cos(angles), np.sin(angles)])
    vertices = np.vstack([[0.0, 0.0], rim])
    triangles = [(0, 1 + i, 1 + (i + 1) % sides) for i in range(sides)]
    return Tiling(vertices, triangles)


def refine(tiling: Tiling) -> Tiling:
    """Uniform 4-way refinement; edge midpoints are shared, so conformity holds.  The midpoint of
    edge ``e`` of the edge table becomes vertex ``V + e``."""
    v, (edges, slot_edge) = tiling.vertices, tiling._edge_table
    corners = np.concatenate([tiling.triangles, len(v) + slot_edge], axis=1)     # a, b, c, ab, bc, ca
    triangles = corners[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3)
    return Tiling(np.concatenate([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])]), triangles)


# ---------------------------------------------------------------------------
# piecewise constant fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseConstantField:
    """Per-triangle constant values in C^k; zero on the skeleton and outside."""

    values: np.ndarray        # (n_triangles, k) complex
    k: int

    @staticmethod
    def from_values(values, k=None) -> "PiecewiseConstantField":
        arr = np.atleast_2d(np.asarray(values, dtype=complex))
        if k is not None and arr.shape[1] != k:
            raise SceneValidationError(f"field values have {arr.shape[1]} components, expected {k}")
        return PiecewiseConstantField(values=arr, k=arr.shape[1])

    @staticmethod
    def zero(n_triangles: int, k: int) -> "PiecewiseConstantField":
        return PiecewiseConstantField(values=np.zeros((n_triangles, k), dtype=complex), k=k)

    @staticmethod
    def random(n_triangles: int, k: int, rng, real=False, scale=1.0) -> "PiecewiseConstantField":
        re = rng.uniform(-scale, scale, size=(n_triangles, k))
        im = np.zeros((n_triangles, k)) if real else rng.uniform(-scale, scale, size=(n_triangles, k))
        return PiecewiseConstantField(values=re + 1j * im, k=k)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def locate_points(tiling: Tiling, points):
    """Classify chart points ``(P, 2)``, each as alone, into three ``(P,)`` integer arrays: the triangle
    (-1 for none), the kind as an index into ``LOCATE_KINDS`` and the depth (0 an open triangle interior,
    1 an open edge, 2 a vertex, -1 outside), at barycentric tolerance 1e-12, edges winning over
    interiors inside that band.  The lowest-numbered triangle whose interior holds a point wins, else
    the deepest skeleton match.  Only the (point, triangle) pairs of ``_box_pairs`` are tested, in
    blocks of ``LOCATE_BLOCK``, each with the arithmetic of a test of every pair.

    The padding of the triangle boxes loses no pair that the test finds inside.  With ``w`` a box's
    larger extent and ``kappa = w max|inv|``, rounding (three per product and sum, and the stored
    inverse's, within ``8 eps kappa`` of the exact one) moves a computed barycentric coordinate at
    most ``18 eps kappa`` times the coordinates' size, plus ``3 eps``.  Computed coordinates
    ``>= -BARY_TOL`` so mean exact ones ``>= -(BARY_TOL + 36 eps kappa + 3.1 eps)``, at most two
    negative: the point is at most twice that times ``w`` outside the box.  The pad ``w (2 BARY_TOL
    + 256 eps (kappa + 1)) + eps |corner|`` covers that and the rounding of the padded corners; where
    ``256 eps kappa >= 1`` the box is unbounded.  A degenerate triangle (NaN inverse) has no box.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    lo, hi, ids = tiling._locate_boxes
    pt, tri = _box_pairs(p, p, lo, hi).T
    a, inv = tiling.vertices[tiling.triangles[:, 0]], tiling._bary_inv
    first, deepest = np.full(len(p), tiling.n_triangles), np.full(len(p), -1)
    for k in range(0, len(pt), LOCATE_BLOCK):
        i, t = pt[k:k + LOCATE_BLOCK], ids[tri[k:k + LOCATE_BLOCK]]
        d0, d1 = p[i, 0] - a[t, 0], p[i, 1] - a[t, 1]
        lam1 = inv[t, 0, 0] * d0 + inv[t, 0, 1] * d1
        lam2 = d0 * inv[t, 1, 0] + d1 * inv[t, 1, 1]
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -BARY_TOL) & (lam1 >= -BARY_TOL) & (lam2 >= -BARY_TOL)
        zeros = sum((np.abs(lam) <= BARY_TOL).astype(int) for lam in (lam0, lam1, lam2))
        np.minimum.at(first, i[inside & (zeros == 0)], t[inside & (zeros == 0)])     # lowest interior
        np.maximum.at(deepest, i[inside], zeros[inside])                             # deepest skeleton
    hit = first < tiling.n_triangles
    return (np.where(hit, first, -1), np.where(hit, 0, np.where(deepest >= 0, 1, 2)),
            np.where(hit, 0, np.minimum(deepest, 2)))


# ---------------------------------------------------------------------------
# sector fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorFan:
    """Angular sectors of triangle cones at a vertex, with their field values.

    ``angles`` holds one ``(start, end)`` row per sector, sorted by start, in a
    g-orthonormal frame at the vertex (``start < end <= start + pi``);
    ``values`` holds the sectors' field values, ``(n, k)`` complex.  The frame
    matrix is kept so directions can be expressed consistently later.  Gaps
    between sectors carry the value zero.
    """

    angles: np.ndarray
    values: np.ndarray
    frame: np.ndarray

    def angle_of(self, direction) -> float:
        u = self.frame @ np.asarray(direction, dtype=float)
        return math.atan2(u[1], u[0])


def tangent_fan(tiling: Tiling, field: PiecewiseConstantField, vertex_id: int,
                metric: MetricField) -> SectorFan:
    """Sector fan of the triangles incident to a vertex.

    Each incident triangle contributes one sector spanning its two edge
    directions at the vertex, measured in the g-orthonormal frame; the
    sector carries the triangle's field value.
    """
    p = tiling.vertices[vertex_id]
    frame = metric.frame(p)
    sectors = []    # (start, end, triangle)
    for i in np.flatnonzero((tiling.triangles == vertex_id).any(axis=1)).tolist():
        ids = list(tiling.triangles[i])
        pos = ids.index(vertex_id)
        q = tiling.vertices[ids[(pos + 1) % 3]]
        r = tiling.vertices[ids[(pos + 2) % 3]]
        u1 = frame @ (q - p)
        u2 = frame @ (r - p)
        width = math.atan2(u1[0] * u2[1] - u1[1] * u2[0], u1 @ u2)
        if not (0.0 < width < math.pi):
            raise SceneValidationError(f"degenerate cone at vertex {vertex_id}, triangle {i}")
        start = math.atan2(u1[1], u1[0]) % (2.0 * math.pi)
        sectors.append((start, start + width, i))
    sectors.sort(key=lambda s: s[0])
    for a, b in zip(sectors, sectors[1:]):
        if b[0] < a[1] - 1e-10:
            raise SceneValidationError(f"overlapping sectors at vertex {vertex_id}")
    if len(sectors) > 1 and sectors[0][0] + 2.0 * math.pi < sectors[-1][1] - 1e-10:
        raise SceneValidationError(f"overlapping sectors at vertex {vertex_id} (wraparound)")
    if sum(end - start for start, end, _ in sectors) > 2.0 * math.pi + 1e-9:
        raise SceneValidationError(f"sector widths exceed a full turn at vertex {vertex_id}")
    return SectorFan(angles=np.array([s[:2] for s in sectors], dtype=float).reshape(-1, 2),
                     values=field.values[[s[2] for s in sectors]], frame=frame)


# ---------------------------------------------------------------------------
# geodesic clipping
# ---------------------------------------------------------------------------

def clip_plan(tiling: Tiling, paths):
    """Partition each path's parameter range by the triangle containing each piece.

    A path is the cubic Hermite interpolant of its samples.  Only (edge,
    sample interval) pairs whose closed boxes meet are searched: the
    interval's Bezier control hull box, widened by ``HULL_SLACK``, and the
    edge segment's box, found run by run of intervals (``_brackets``).  Such a pair brackets a crossing when the signed
    edge-line function changes sign across the interval, and cuts at a
    sample where that function is exactly zero.  A pair without a sign
    change whose control hull straddles the edge line is split at the
    cubic's interior extremum, so a near-tangent path that crosses an edge
    twice inside one interval is cut at both crossings.  The brackets of all
    paths are bisected together to width ``CLIP_BISECT_WIDTH``, and the
    sub-intervals of all paths are classified by locating their midpoints
    together.  A skeleton piece longer than 1e-6 raises a TangencyWarning
    (its field contribution is zero either way).

    Returns the paths' PathStack and, piece by piece in path order, arrays of the
    path index, the triangle (-1 on the skeleton or outside), ``t0`` and ``t1``.
    """
    stack = PathStack.of(paths)
    tau = stack.t[stack.stop - 1]
    if tiling.n_triangles == 0 or not (tau > 0).any():
        live = np.flatnonzero(tau > 0)
        return stack, live, np.full(len(live), -1), np.zeros(len(live)), tau[live]
    owner, cuts = _edge_crossings(tiling, stack)
    ids = np.arange(len(paths))
    owner = np.concatenate([ids, ids, owner])
    cuts = np.concatenate([np.zeros(len(paths)), tau, cuts])
    order = np.lexsort((cuts, owner))
    keep = order[_dedupe(owner[order], cuts[order])]
    owner, cuts = owner[keep], cuts[keep]
    # one piece between consecutive cuts of a path, classified by its midpoint
    piece = np.flatnonzero(owner[1:] == owner[:-1])
    owner, t0, t1 = owner[piece], cuts[piece], cuts[piece + 1]
    triangle, kind, _ = locate_points(tiling, stack.position(owner, 0.5 * (t0 + t1)))
    # merge neighbours of one path in one triangle, or both on the skeleton or outside
    first = np.flatnonzero(np.diff(owner, prepend=-1) | np.diff(triangle, prepend=-2) | np.diff(kind, prepend=-1))
    last = np.append(first[1:], len(owner)) - 1
    t0, t1 = t0[first], t1[last]
    along = (kind[first] == LOCATE_KINDS.index("skeleton")) & (t1 - t0 > TANGENCY_LENGTH)
    for length in (t1 - t0)[along].tolist():
        warnings.warn(f"geodesic runs along the tiling skeleton for length {length:.3g}", TangencyWarning)
    return stack, owner[first], triangle[first], t0, t1


def _edge_crossings(tiling: Tiling, stack: PathStack):
    """Times where the paths meet an edge, with the path of each: crossings
    bisected in one lockstep pass, and exact zeros at samples."""
    t = stack.t
    a_all, e_all = tiling._edges[:2]
    zeros, edge, i, *tangent = _brackets(tiling, stack)
    brackets = [(edge, i, t[i], t[i + 1])] + (_tangent_splits(stack, a_all, e_all, *tangent) if tangent[1].size else [])
    edge, i, lo, hi = (np.concatenate(col) for col in zip(*brackets))
    lanes = _lanes(stack, a_all[edge], e_all[edge], i)
    # keep the half whose ends differ in sign; moving lo never changes its sign.
    # Beyond arclength 64 the float spacing exceeds CLIP_BISECT_WIDTH, so such
    # a lane stops at adjacent floats instead of halving forever.
    crossings = _bisect_lanes(lambda mid, lo_negative, *lanes: (_side(mid, *lanes) < 0) != lo_negative,
                              lo, hi, np.maximum(CLIP_BISECT_WIDTH, np.spacing(hi)), _side(lo, *lanes) < 0, *lanes,
                              guess=_crossing_guess(lanes, lo, hi) if len(lo) <= WALK_LANES else None)
    return np.searchsorted(stack.stop, np.concatenate([zeros, i]), side="right"), np.concatenate([t[zeros], crossings])


def _brackets(tiling: Tiling, stack: PathStack):
    """Zeros and brackets of the edges on the sample intervals, on the (interval, edge) pairs whose
    control hull box and edge box meet.  The intervals go in blocks of ``CLIP_BLOCK // HULL_COST``;
    in each, the boxes of runs of ``HULL_RUN`` consecutive intervals go through one ``_box_pairs``
    query, and only the intervals of the runs that meet an edge are tested against it, with the
    closed comparisons of ``_box_pairs``, so the kept pairs are the ones it would find.  Returns the
    samples where such an edge's line function is exactly zero, and (edge, interval) pairs in no
    set order: the sign changes, and the intervals whose ends lie on one side of the edge line
    and whose control hull straddles it."""
    a, e, box_lo, box_hi = tiling._edges
    (ex0, ey0), (ex1, ey1) = box_lo.T, box_hi.T
    # an interval between two paths brackets nothing
    joint = np.zeros(len(stack.t) - 1, dtype=bool)
    joint[stack.stop[:-1] - 1] = True
    found = [(np.zeros(0, dtype=int),) * 5]
    for j in range(0, len(joint), CLIP_BLOCK // HULL_COST):
        n = min(CLIP_BLOCK // HULL_COST, len(joint) - j)
        hull = _control_hull(stack, slice(j, j + n), slice(j + 1, j + n + 1))
        # low and high corners of the interval boxes, NaN on joints and past the last interval: a NaN
        # box meets nothing, and the run boxes, fmin and fmax over runs, are those of the others
        box = np.full((2, -(-n // HULL_RUN) * HULL_RUN, 2), np.nan)
        box[0, :n], box[1, :n] = hull.min(axis=0) - HULL_SLACK, hull.max(axis=0) + HULL_SLACK
        box[:, np.flatnonzero(joint[j:j + n])] = np.nan
        runs = np.arange(0, n, HULL_RUN)
        run, c = _box_pairs(np.fmin.reduceat(box[0], runs), np.fmax.reduceat(box[1], runs), box_lo, box_hi).T
        lo, hi = box.reshape(2, -1, HULL_RUN, 2)[:, run]
        meet = ((lo[..., 0] <= ex1[c, None]) & (ex0[c, None] <= hi[..., 0])
                & (lo[..., 1] <= ey1[c, None]) & (ey0[c, None] <= hi[..., 1]))
        p, k = np.nonzero(meet)
        r, c = run[p] * HULL_RUN + k, c[p]
        f0, f1, f2, f3 = _edge_side(a[c], e[c], hull[:, r])
        prod = f0 * f3
        straddle = (prod > 0.0) & np.where(f0 > 0.0, np.minimum(f1, f2) < 0.0, np.maximum(f1, f2) > 0.0)
        i = j + r
        found.append((np.concatenate([i[f0 == 0.0], i[f3 == 0.0] + 1]),
                      c[prod < 0.0], i[prod < 0.0], c[straddle], i[straddle]))
    return tuple(np.concatenate(col) for col in zip(*found))


def _control_hull(stack: PathStack, i, i1):
    """Bezier control points ``(4, n, 2)`` of the Hermite segments from samples ``i`` to ``i1``."""
    x, v = stack.x, stack.v
    h3 = ((stack.t[i1] - stack.t[i]) / 3.0)[:, None]
    return np.stack([x[i], x[i] + v[i] * h3, x[i1] - v[i1] * h3, x[i1]])


def _lanes(stack: PathStack, a, e, i):
    """Per-lane arrays of ``_side``, one lane per (edge ``a + s e``, sample interval ``i``) pair."""
    t0 = stack.t[i]
    h = stack.t[i + 1] - t0
    return t0, h, stack.x[i], stack.v[i] * h[:, None], stack.x[i + 1], stack.v[i + 1] * h[:, None], a, e


def _side(tt, t0, h, p0, m0, p1, m1, a, e):
    """Signed edge-line function of the path at times ``tt``, lane by lane: the
    arithmetic of ``path.position`` and ``_edge_side``, so bit for bit the scalar value."""
    return _edge_side(a, e, _hermite(p0, m0, p1, m1, ((tt - t0) / h)[:, None]))


def _crossing_guess(lanes, lo, hi):
    """Crossing times in the brackets ``[lo, hi]``: four Newton steps from the midpoint, kept in the bracket, on the
    edge-line cubic ``c0 + c1 u + c2 u^2 + c3 u^3`` in ``u = (t - t0) / h``, whose Bernstein coefficients are its values
    at the four control points (Sederberg and Nishita, "Curve intersection using Bezier clipping", 1990)."""
    t0, h, p0, m0, p1, m1, a, e = lanes
    c0, c1, f1, d1 = _edge_side(np.zeros(2), e, np.stack([p0 - a, m0, p1 - a, m1]))
    c2, c3 = 3.0 * (f1 - c0) - 2.0 * c1 - d1, 2.0 * (c0 - f1) + c1 + d1
    u_lo, u_hi = (lo - t0) / h, (hi - t0) / h
    u, d2, d3 = 0.5 * (u_lo + u_hi), 2.0 * c2, 3.0 * c3
    with np.errstate(all="ignore"):   # a flat cubic may divide by zero: the guess decides no turn
        for _ in range(4):
            u = np.minimum(np.maximum(u - (((c3 * u + c2) * u + c1) * u + c0) / ((d3 * u + d2) * u + c1), u_lo), u_hi)
    return t0 + u * h


def _edge_side(a, e, p):
    """Signed edge-line function ``e x (p - a)``, row by row; ``p`` may have a
    leading axis, such as the four control points of each row."""
    return e[..., 0] * (p[..., 1] - a[..., 1]) - e[..., 1] * (p[..., 0] - a[..., 0])


def _tangent_splits(stack: PathStack, a_all, e_all, edge, i) -> list:
    """Brackets of double crossings of edges ``edge`` inside sample intervals ``i``.

    The ends of interval ``i`` lie on one side of the edge line, and its
    control hull straddles it.  There the edge-line function is a cubic with
    Bernstein coefficients ``f`` (its values at the four control points).
    The cubic's interior extremum is found, and if the path is on the far
    side there, the interval splits into two sign-change brackets.  Returns
    ``(edge, interval, lo, hi)`` lane arrays.
    """
    t = stack.t
    h = t[i + 1] - t[i]
    a, e = a_all[edge], e_all[edge]
    f0, f1, f2, f3 = _edge_side(a, e, _control_hull(stack, i, i + 1))
    # derivative / 3 = qa u^2 + qb u + qc on u in [0, 1]; roots by the stable formula
    d0, d1, d2 = f1 - f0, f2 - f1, f3 - f2
    qa, qb, qc = d0 - 2.0 * d1 + d2, 2.0 * (d1 - d0), d0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        roots = (q / qa, qc / q)
    lanes = _lanes(stack, a, e, i)
    t_lo = t[i]
    t_mid = np.full(len(i), np.nan)
    for u in roots:
        ok = (u > 0.0) & (u < 1.0) & np.isnan(t_mid)
        tc = np.where(ok, t_lo + u * h, t_lo)
        t_mid = np.where(ok & (_side(tc, *lanes) * f0 < 0.0), tc, t_mid)
    keep = ~np.isnan(t_mid)
    edge, i, t_mid = edge[keep], i[keep], t_mid[keep]
    return [(edge, i, t[i], t_mid), (edge, i, t_mid, t[i + 1])]


def _dedupe(owner, ts, tol=1e-11):
    """Which of the sorted cuts to keep: per path, each one more than ``tol``
    past the last one kept."""
    keep = np.ones(len(ts), dtype=bool)
    # a cut further than tol from its predecessor is kept whatever came before
    for i in np.flatnonzero((owner[1:] == owner[:-1]) & (ts[1:] - ts[:-1] <= tol)).tolist():
        last = i
        while not keep[last]:
            last -= 1
        keep[i + 1] = ts[i + 1] - ts[last] > tol
    return keep
