import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoxray as gx
from geoxray.geometry import PathStack
from geoxray.tiling import CLIP_BLOCK, HULL_COST, HULL_RUN, HULL_SLACK, _control_hull

from conftest import chord_start, clip_pieces, locate, run_bounded
from oracles import chord_triangle_length


def inscribed_triangle():
    angles = [0.0, 2.2, 4.1]
    return gx.Tiling([[math.cos(a), math.sin(a)] for a in angles], [[0, 1, 2]])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_single_inscribed_triangle_valid():
    t = inscribed_triangle()
    report = t.validate()
    assert report.ok
    assert abs(report.coverage_defect - (math.pi - t.total_area())) <= 1e-12
    assert report.coverage_defect > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_vertex_is_reported_by_index(bad):
    # a NaN vertex made NaN areas and radii that passed every test, and boxes that meet nothing,
    # so the tiling was valid; an infinite one read only as a vertex outside the disk.  Building
    # and validating either, or two of them, is reported and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gx.Tiling([[0, 0], [0.5, 0], [bad, 0.5], [0.5, 0.5]], [[0, 1, 2], [1, 3, 2]]).validate()
        two = gx.Tiling([[0, 0], [bad, 0], [bad, 0.5], [0.5, 0.5]], [[0, 1, 2], [1, 3, 2]]).validate()
    assert not report.ok and not report.inside_disk
    assert report.messages == [f"vertex 2 [{bad}, 0.5] is not finite"]
    assert two.messages == [f"vertex 1 [{bad}, 0.0] is not finite", f"vertex 2 [{bad}, 0.5] is not finite"]


def test_two_triangles_sharing_edge_conforming():
    t = gx.Tiling([[0, 0], [1, 0], [0.5, 0.7], [0.5, -0.7]], [[0, 1, 2], [0, 1, 3]])
    assert t.validate().ok


def test_t_junction_rejected():
    # vertex (0.5, 0) of the second triangle sits mid-edge of the first
    t = gx.Tiling(
        [[0, 0], [1, 0], [0, 0.9], [0.5, 0.0], [0.9, -0.5]],
        [[0, 1, 2], [3, 4, 1]],
    )
    report = t.validate()
    assert not report.conforming
    assert not report.ok
    assert any("depth" in m for m in report.messages)
    with pytest.raises(gx.SceneValidationError):
        t.require_valid()


def test_overlapping_triangles_rejected():
    t = gx.Tiling([[0, 0], [1, 0], [0, 1], [0.9, 0.9]], [[0, 1, 2], [0, 1, 3]])
    report = t.validate()
    assert not report.disjoint


def test_degenerate_triangle_rejected():
    t = gx.Tiling([[0, 0], [1, 0], [0.5, 0]], [[0, 1, 2]])
    assert not t.validate().nondegenerate


def _convex_overlap_area(tri_a, tri_b) -> float:
    """Area of the intersection of two triangles (Sutherland-Hodgman clip).

    The per-pair clipper that validation ran before the batched one, kept
    as the reference that ``_overlap_areas`` must equal bit for bit.
    """
    poly = [np.asarray(p, dtype=float) for p in tri_a]
    for k in range(3):
        a = tri_b[k]
        b = tri_b[(k + 1) % 3]
        edge = b - a
        out = []
        for i in range(len(poly)):
            p = poly[i]
            q = poly[(i + 1) % len(poly)]
            sp = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
            sq = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0])
            if sp >= 0:
                out.append(p)
            if (sp > 0 > sq) or (sp < 0 < sq):
                t = sp / (sp - sq)
                out.append(p + t * (q - p))
        poly = out
        if not poly:
            return 0.0
    area = 0.0
    for i in range(len(poly)):
        p = poly[i]
        q = poly[(i + 1) % len(poly)]
        area += p[0] * q[1] - p[1] * q[0]
    return abs(area) / 2.0


# near-collinear pairs whose clipped polygon has 7 and 8 vertices in floats,
# more than the 6 of exact arithmetic (found by a seeded random search)
MANY_VERTEX_PAIRS = [
    ([[0.6291561398088863, -0.5060670566840185], [0.6384924722053348, -0.0059860754876991384],
      [0.6165466208631407, -1.1814693816055968]],
     [[0.6448454035884384, 0.3342953138878412], [0.6292945016063164, -0.4986559984139349],
      [0.6204842763600559, -0.9705571581655423]]),
    ([[0.9556755773575896, -0.16173962359334232], [0.8765122008178493, -0.6809860725582411],
      [0.7771639918741771, -1.3326283718117118]],
     [[0.8694268298967305, -0.7274602611439593], [0.9155127973000368, -0.42517433086575845],
      [0.7763615240619468, -1.3378918987116797]]),
]


def overlap_test_pairs(rng, n):
    """``(tri_a, tri_b)``, each ``(P, 3, 2)``: ``n`` pairs of each kind, random
    and corner-permuted, that share an edge or a vertex, are identical, hold a
    zero-area triangle or a near-collinear sliver."""
    def tris():
        return rng.uniform(-1.0, 1.0, size=(n, 3, 2))

    def near(tri, scale):
        return tri + rng.normal(scale=scale, size=tri.shape)

    def on_edge(tri, off):
        # the third corner at ``off`` (relative) from the line of the first two
        e = tri[:, 1] - tri[:, 0]
        s = rng.uniform(-0.5, 1.5, size=(n, 1))
        return np.stack([tri[:, 0], tri[:, 1], tri[:, 0] + s * e + off * np.stack([-e[:, 1], e[:, 0]], axis=1)], axis=1)

    a, b = tris(), tris()
    sliver = on_edge(a, rng.choice([1e-6, 1e-9, 1e-12, 1e-15], size=(n, 1)))
    kinds = [
        (a, b),                                                    # random
        (a, np.concatenate([a[:, :2], b[:, 2:]], axis=1)),         # a shared edge, either side
        (a, np.concatenate([a[:, 1::-1], b[:, 2:]], axis=1)),
        (a, np.concatenate([a[:, :1], b[:, 1:]], axis=1)),         # a shared vertex
        (a, a), (a, a[:, [2, 0, 1]]), (a, a[:, ::-1]),             # identical
        (on_edge(a, 0.0), b), (a, on_edge(b, 0.0)),                # zero area
        (sliver, a), (a, sliver), (sliver, near(sliver, 1e-13)),   # near-collinear slivers
        (near(a, 1e-13), a),
        tuple(np.array(MANY_VERTEX_PAIRS).transpose(1, 0, 2, 3)),
    ]
    return np.concatenate([k[0] for k in kinds]), np.concatenate([k[1] for k in kinds])


def test_batched_overlap_matches_scalar_clip():
    # more pairs than one block holds, so every block boundary is crossed
    tri_a, tri_b = overlap_test_pairs(np.random.default_rng(11), 120)
    assert len(tri_a) > 4 * gx.tiling.OVERLAP_BLOCK
    n = len(tri_a)
    got = gx.tiling._overlap_areas(np.concatenate([tri_a, tri_b]), np.arange(n), np.arange(n, 2 * n))
    want = np.array([_convex_overlap_area(p, q) for p, q in zip(tri_a, tri_b)])
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(want) > n // 4 and np.count_nonzero(want == 0.0) > n // 4


def test_refine_preserves_validity_and_area(hexagon24):
    report = hexagon24.validate()
    assert report.ok
    base = gx.polygon_fan_tiling(6)
    assert abs(hexagon24.total_area() - base.total_area()) <= 1e-12
    assert hexagon24.n_triangles == 24


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def test_locate_centroid(hexagon24):
    for tri in (0, 7, 23):
        c = hexagon24.coords(tri).mean(axis=0)
        assert locate(hexagon24, c) == ("triangle", tri, 0)


def test_locate_edge_midpoint(hexagon24):
    a, b = hexagon24.coords(0)[0], hexagon24.coords(0)[1]
    kind, _, depth = locate(hexagon24, 0.5 * (a + b))
    assert kind == "skeleton"
    assert depth == 1


def test_locate_vertex(hexagon24):
    kind, _, depth = locate(hexagon24, hexagon24.vertices[0])
    assert kind == "skeleton"
    assert depth == 2


def test_locate_outside(hexagon24):
    assert locate(hexagon24, np.array([0.999, 0.999]))[0] == "outside"


# ---------------------------------------------------------------------------
# tangent fans
# ---------------------------------------------------------------------------

def test_fan_four_right_angles(euclidean):
    t = gx.Tiling(
        [[0, 0], [0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]],
    )
    f = gx.PiecewiseConstantField.from_values([[1.0], [2.0], [3.0], [4.0]])
    fan = gx.tangent_fan(t, f, 0, euclidean)
    assert fan.angles.shape == (4, 2) and fan.values.shape == (4, 1)
    widths = (fan.angles[:, 1] - fan.angles[:, 0]).tolist()
    assert np.allclose(widths, math.pi / 2)
    assert abs(sum(widths) - 2 * math.pi) <= 1e-9


def test_fan_boundary_vertex_single_sector(euclidean, anchor_triangle_tiling):
    f = gx.PiecewiseConstantField.from_values([[1.0]])
    fan = gx.tangent_fan(anchor_triangle_tiling, f, 0, euclidean)
    assert fan.angles.shape == (1, 2) and fan.values.shape == (1, 1)
    assert abs(fan.angles[0, 1] - fan.angles[0, 0] - math.radians(20)) <= 1e-12


def test_fan_angles_conformal_equal_euclidean(hexagon24, euclidean, conformal05):
    f = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 1)
    for vid in (0, 3, 10):
        fan_e = gx.tangent_fan(hexagon24, f, vid, euclidean)
        fan_c = gx.tangent_fan(hexagon24, f, vid, conformal05)
        for (se, ee), (sc, ec) in zip(fan_e.angles.tolist(), fan_c.angles.tolist()):
            # conformal rescaling preserves angles
            assert abs(se - sc) <= 1e-10
            assert abs((ee - se) - (ec - sc)) <= 1e-10


def test_fan_completeness_interior_vertices(hexagon24, conformal05):
    f = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 1)
    radii = np.hypot(hexagon24.vertices[:, 0], hexagon24.vertices[:, 1])
    for vid in range(len(hexagon24.vertices)):
        if radii[vid] >= math.cos(math.pi / 6) - 1e-9:
            continue  # rim corner or rim-edge midpoint: open fan
        fan = gx.tangent_fan(hexagon24, f, vid, conformal05)
        assert abs(sum((fan.angles[:, 1] - fan.angles[:, 0]).tolist()) - 2 * math.pi) <= 1e-9


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def test_clip_chord_single_triangle_matches_analytic(euclidean):
    t = inscribed_triangle()
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        a, b = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin(0.5 * (a - b))) < 0.05:
            continue
        start = chord_start(euclidean, a, b)
        path = gx.trace_geodesic(euclidean, start, step=1e-2)
        expected = chord_triangle_length(path.x[0], path.v[0], t.coords(0))
        got = sum(t1 - t0 for tri, t0, t1 in clip_pieces(t, [path])[0] if tri == 0)
        assert abs(got - expected) <= 1e-9
        checked += 1
    assert checked >= 15


def test_clip_partition_sums_to_tau(hexagon24, conformal05):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin(0.5 * (a - b))) < 0.05:
            continue
        start = chord_start(conformal05, a, b)
        path = gx.trace_geodesic(conformal05, start, step=1e-2)
        intervals = clip_pieces(hexagon24, [path])[0]
        assert abs(sum(t1 - t0 for _, t0, t1 in intervals) - path.tau) <= 1e-8
        # disjoint and ordered
        for u, w in zip(intervals, intervals[1:]):
            assert abs(u[2] - w[1]) <= 1e-12
        # midpoint of each triangle interval locates to that triangle
        for tri, t0, t1 in intervals:
            if tri is not None:
                assert locate(hexagon24, path.position(0.5 * (t0 + t1))) == ("triangle", tri, 0)


def test_clip_diameter_along_shared_edge_warns(euclidean):
    t = gx.Tiling([[-1, 0], [1, 0], [0, 1], [0, -1]], [[0, 1, 2], [0, 1, 3]])
    path = gx.trace_geodesic(euclidean, gx.boundary_tangent(euclidean, math.pi, 0.0), step=1e-2)
    with pytest.warns(gx.TangencyWarning):
        intervals = clip_pieces(t, [path])[0]
    assert all(tri is None for tri, _, _ in intervals)
    assert abs(sum(t1 - t0 for _, t0, t1 in intervals) - path.tau) <= 1e-12


def test_clip_matches_golden_pieces():
    # tests/golden/clip_pieces.json holds the pieces of the scalar line-bisection
    # clipper (see make_clip_pieces.py); triangles must agree exactly, times to 1e-12
    cases = json.loads((Path(__file__).parent / "golden" / "clip_pieces.json").read_text())["cases"]
    tilings = {}
    for case in cases:
        levels = case["refine"]
        if levels not in tilings:
            tiling = gx.polygon_fan_tiling(6)
            for _ in range(levels):
                tiling = gx.refine(tiling)
            tilings[levels] = tiling
        tiling = tilings[levels]
        assert tiling.n_triangles == case["n_triangles"]
        metric = gx.metric_from_config(case["metric"], case["params"])
        a, direction = case["descriptor"]
        path = gx.trace_geodesic(metric, gx.boundary_tangent(metric, a, direction), step=case["step"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gx.TangencyWarning)
            pieces = clip_pieces(tiling, [path])[0]
        assert [tri for tri, _, _ in pieces] == [g[0] for g in case["pieces"]]
        got = np.array([[t0, t1] for _, t0, t1 in pieces])
        want = np.array([g[1:] for g in case["pieces"]])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_plan_clipper_matches_per_path_golden():
    # tests/golden/plan_clips.json holds digests of the pieces that the per-path
    # clipper gave, path by path, on whole plans (see make_plan_clips.py): the
    # three demo scenes' plans, 40 chords at T = 384, a near-tangent double
    # crossing and chords through vertices; clip_plan must give them bit for bit
    from golden.make_plan_clips import OUT, digest, plans

    want = json.loads(OUT.read_text())
    for name, tiling, paths in plans():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gx.TangencyWarning)
            _, *pieces = gx.tiling.clip_plan(tiling, paths)
        assert len(paths) == want[name]["paths"] and len(pieces[0]) == want[name]["pieces"], name
        assert digest(len(paths), *pieces) == want[name]["sha256"], name
    assert set(want) == {name for name, _, _ in plans()}


@pytest.mark.parametrize("walk", ["floats", "numpy"])
def test_crossings_do_not_depend_on_the_guess(tmp_path, monkeypatch, walk):
    # the Newton guess only predicts the bisection's turns, which _side then checks: on every plan of
    # make_plan_clips.py (the near-tangent double crossing and the chords through vertices too) and the
    # forward-refined plan, with the guess on every lane count, walked in Python floats or in numpy, the
    # guess itself, NaN, either bracket end or a random point in the bracket give the crossings of plain
    # bisection byte for byte; and plain bisection gives the golden pieces
    from golden.make_plan_clips import OUT, digest, plans

    want_digests = json.loads(OUT.read_text())
    (refined, refined_paths), = workload_plans("forward-refined", tmp_path, monkeypatch)
    rng = np.random.default_rng(4)
    guesses = [gx.tiling._crossing_guess, lambda lanes, lo, hi: np.full(len(lo), np.nan),
               lambda lanes, lo, hi: lo, lambda lanes, lo, hi: hi, lambda lanes, lo, hi: rng.uniform(lo, hi)]
    monkeypatch.setattr(gx.geometry, "WALK_LANES", sys.maxsize if walk == "floats" else 0)
    for name, tiling, paths in [*plans(), ("forward-refined", refined, refined_paths)]:
        stack = PathStack.of(paths)
        monkeypatch.setattr(gx.tiling, "WALK_LANES", 0)   # past the gate: no guess
        want = [a.tobytes() for a in gx.tiling._edge_crossings(tiling, stack)]
        if name in want_digests:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", gx.TangencyWarning)
                assert digest(len(paths), *gx.tiling.clip_plan(tiling, paths)[1:]) == want_digests[name]["sha256"]
        monkeypatch.setattr(gx.tiling, "WALK_LANES", sys.maxsize)
        for guess in guesses:
            monkeypatch.setattr(gx.tiling, "_crossing_guess", guess)
            assert [a.tobytes() for a in gx.tiling._edge_crossings(tiling, stack)] == want, name


def test_crossings_are_located_with_one_check_per_block(tmp_path, monkeypatch):
    # the 40 crossing lanes of the 4 forward-refined chords: the 1,600 midpoints of their predicted walks
    # are checked in two calls of below, and no lane is contradicted; two-turn plain passes took 20 calls
    (tiling, paths), = workload_plans("forward-refined", tmp_path, monkeypatch)
    bisect, lanes, calls = gx.tiling._bisect_lanes, [], []

    def counted(below, lo, hi, width, *args, guess=None):
        lanes.append(len(lo))
        return bisect(lambda *a: calls.append(1) or below(*a), lo, hi, width, *args, guess=guess)
    monkeypatch.setattr(gx.tiling, "_bisect_lanes", counted)
    gx.tiling.clip_plan(tiling, paths)
    assert lanes == [40] and len(calls) <= 2


def test_plan_clipper_peak_memory_is_bounded(tmp_path, monkeypatch):
    # the four forward-refined chords at T = 384 in one plan, and the fan-limit
    # plan (40 paths, 14,798 samples, one triangle): the blocked searches keep the
    # tracemalloc peak at or below, for the chords, that of the largest
    # single-path clip before plan-level clipping (371,348 bytes) and, for the
    # fan, that of the dense (edge, sample) scan before the sort-and-sweep
    # search (853,294 bytes), both numpy 2.4 on Python 3.11
    import tracemalloc

    from geoxray.scene import random_chord_descriptors

    metric = gx.metric_from_config("conformal-radial", [0.05])
    tiling = gx.polygon_fan_tiling(6)
    for _ in range(3):
        tiling = gx.refine(tiling)
    starts = [gx.boundary_tangent(metric, a, d) for a, d in random_chord_descriptors(4, np.random.default_rng(0))]
    (fan, fan_paths), = workload_plans("fan-limit", tmp_path, monkeypatch)
    for tiling, paths, bound in ((tiling, gx.trace_geodesics(metric, starts, step=0.01), 371_348),
                                 (fan, fan_paths, 853_294)):
        gx.tiling.clip_plan(tiling, paths)
        tracemalloc.start()
        try:
            pieces = gx.tiling.clip_plan(tiling, paths)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pieces) > 40
        assert peak <= bound


def test_validation_peak_memory_is_bounded():
    # validating the forward-refined tiling (T = 384): the overlap pairs are
    # clipped in blocks, so the tracemalloc peak stays near that of the per-pair
    # loop before the batched clipper (280,306 bytes, numpy 2.4 on Python 3.11);
    # at T = 1536 the blocked pair query keeps it at or below that of the dense
    # box test before it (913,994 bytes, measured the same way)
    import tracemalloc

    from geoxray.tiling import _validate

    tiling = gx.polygon_fan_tiling(6)
    for levels, bound in ((3, 350_000), (4, 913_994)):
        while tiling.n_triangles < 6 * 4**levels:
            tiling = gx.refine(tiling)
        _validate(tiling)
        tracemalloc.start()
        try:
            report = _validate(tiling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and tiling.n_triangles == 6 * 4**levels
        assert peak <= bound


def test_locate_points_matches_locate(hexagon24):
    # interior, open-edge, vertex and outside points, more of them than one block
    # holds, classified in one call as a call on each point alone classifies it
    corners = hexagon24.vertices[hexagon24.triangles]
    edges = 0.5 * (corners + corners[:, [1, 2, 0]])
    points = np.concatenate([corners.mean(axis=1), edges.reshape(-1, 2), hexagon24.vertices,
                             [[0.999, 0.999], [-1.2, 0.0], [0.0, 0.7071]]])
    points = np.concatenate([points] * 3)
    assert len(points) > gx.tiling.LOCATE_BLOCK // hexagon24.n_triangles
    triangle, kind, depth = gx.locate_points(hexagon24, points)
    for p, tri, k, d in zip(points, triangle, kind, depth):
        assert locate(hexagon24, p) == (gx.tiling.LOCATE_KINDS[k], tri, d)
    n_tri, n_edge, n_vert = len(corners), edges.size // 2, len(hexagon24.vertices)
    assert np.array_equal(triangle[:n_tri], np.arange(n_tri)) and np.all(depth[:n_tri] == 0)
    assert np.all(depth[n_tri:n_tri + n_edge] == 1) and np.all(depth[n_tri + n_edge:n_tri + n_edge + n_vert] == 2)
    assert gx.tiling.LOCATE_KINDS[kind[n_tri + n_edge + n_vert]] == "outside"


def test_locate_points_keeps_first_and_deepest_match():
    # overlapping triangles: the lowest-numbered interior wins; a vertex of one
    # triangle on the open edge of another: the deepest skeleton match wins
    overlap = gx.Tiling([[0, 0], [0.8, 0], [0, 0.8], [0.6, 0.6]], [[0, 1, 3], [0, 1, 2]])
    triangle, kind, depth = gx.locate_points(overlap, [[0.3, 0.1], [0.1, 0.6]])
    assert triangle.tolist() == [0, 1] and depth.tolist() == [0, 0]
    t_junction = gx.Tiling([[0, 0], [1, 0], [0, 0.9], [0.5, 0.0], [0.9, -0.5]], [[0, 1, 2], [3, 4, 1]])
    triangle, kind, depth = gx.locate_points(t_junction, [[0.5, 0.0], [0.7, 0.0]])
    assert triangle.tolist() == [-1, -1] and depth.tolist() == [2, 1]
    assert [gx.tiling.LOCATE_KINDS[k] for k in kind] == ["skeleton", "skeleton"]
    assert locate(t_junction, [0.5, 0.0]) == ("skeleton", -1, 2)


def _dense_brackets(tiling, stack):
    """Every edge against every sample interval, in (edge block x sample block)
    masks: the search that clipping ran before the box-pair query, kept as
    the reference for ``_brackets``.  Returns sets of the (edge, sample) pairs
    where the edge-line function is exactly zero, the (edge, interval) pairs
    whose boxes meet, the brackets and the tangent candidates."""
    owner = np.repeat(np.arange(len(stack.first)), stack.stop - stack.first)
    a_all, e_all, box_lo, box_hi = tiling._edges
    rows = min(len(a_all), 64)
    cols = max(1, 6144 // (rows + 16))
    found = []
    for j in range(0, len(stack.t) - 1, cols):
        n = min(cols, len(stack.t) - 1 - j)
        hull = _control_hull(stack, slice(j, j + n), slice(j + 1, j + n + 1))
        hull_lo, hull_hi = hull.min(axis=0) - HULL_SLACK, hull.max(axis=0) + HULL_SLACK
        # an interval between two paths brackets nothing: its box meets no edge
        hull_lo[owner[j + 1:j + n + 1] != owner[j:j + n]] = np.inf
        for k in range(0, len(a_all), rows):
            edges = slice(k, k + rows)
            a, e, lo, hi = a_all[edges], e_all[edges], box_lo[edges], box_hi[edges]
            X = stack.x[j:j + n + 1]
            s = X[:, 1] - a[:, 1:2]
            s *= e[:, 0:1]
            other = X[:, 0] - a[:, 0:1]
            other *= e[:, 1:2]
            s -= other
            near = ((hull_lo[:, 0] <= hi[:, 0:1]) & (hull_hi[:, 0] >= lo[:, 0:1])
                    & (hull_lo[:, 1] <= hi[:, 1:2]) & (hull_hi[:, 1] >= lo[:, 1:2]))
            prod = s[:, :-1] * s[:, 1:]
            ej, ij = np.nonzero(near & (prod > 0.0))
            f0 = s[ej, ij]
            f1, f2 = (e[ej, 0] * (p[ij, 1] - a[ej, 1]) - e[ej, 1] * (p[ij, 0] - a[ej, 0]) for p in hull[1:3])
            straddle = np.where(f0 > 0.0, np.minimum(f1, f2) < 0.0, np.maximum(f1, f2) > 0.0)
            for kind, (edge, i) in enumerate([np.nonzero(s == 0.0), np.nonzero(near),
                                              np.nonzero(near & (prod < 0.0)), (ej[straddle], ij[straddle])]):
                found.append((kind, k + edge, j + i))
    return tuple({pair for kind, edge, i in found if kind == want for pair in zip(edge.tolist(), i.tolist())}
                 for want in range(4))


# the scenes of the benchmark workloads, with random field values: the plans
# do not depend on the field
RADIAL = {"family": "conformal-radial", "params": [0.05]}
WORKLOAD_SCENES = {
    "fan-limit": ("cmd_limit_check", {
        "quadrature_step": 0.002,
        "tiling": {"vertices": [[1.0, 0.0], [0.21215043371796743, 0.13891854213354424],
                                [0.21215043371796743, -0.13891854213354424]], "triangles": [[0, 1, 2]]},
        "field": {"k": 1, "random": {}},
        "weight": {"family": "angular", "k": 1, "order": 2, "amplitude": 0.3},
        "plans": {"fan_limit": {"anchor_angle": 0.0, "v_offsets_deg": [-28, -14, 0, 14, 28],
                                "h_exponents": list(range(3, 11))}}}),
    "forward-refined": ("cmd_forward", {
        "quadrature_step": 0.01,
        "tiling": {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 3}},
        "field": {"k": 2, "random": {}},
        "weight": {"family": "constant-matrix", "matrix": [[1.0, 0.2], [0.1, 1.0], [0.4, 0.6]]},
        "plans": {"chords": {"mode": "random", "count": 4}}}),
    "reconstruct-demo": ("cmd_reconstruct", {
        "quadrature_step": 0.01,
        "tiling": {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 1}},
        "field": {"k": 2, "random": {}},
        "weight": {"family": "constant-matrix", "matrix": [[1.0, 0.2], [0.1, 1.0], [0.4, 0.6]]},
        "foliation": {"family": "radial-square", "params": []},
        "plans": {"chords": {"mode": "frontier", "rotations": 4, "levels_per_batch": 5}}}),
}


def workload_plans(name, tmp_path, monkeypatch):
    """``(tiling, paths)`` of every ``clip_plan`` call of a workload's command."""
    import geoxray.cli
    import geoxray.transform

    command, raw = WORKLOAD_SCENES[name]
    plans = []
    clip = geoxray.transform.clip_plan
    with monkeypatch.context() as patch:
        patch.setattr(geoxray.transform, "clip_plan",
                      lambda tiling, paths: plans.append((tiling, list(paths))) or clip(tiling, paths))
        getattr(geoxray.cli, command)(gx.scene.build_scene({"schema": "geoxray-scene/1", "metric": RADIAL, **raw}),
                                      str(tmp_path))
    return plans


def euclidean_chord_plan():
    """Euclidean chords on the T = 24 fan: through the center; from a rim vertex
    past a spoke midpoint to a rim vertex; through the center and two rim-edge
    midpoints; and along the spoke lines at angles 0 and pi/3."""
    metric = gx.metric_from_config("euclidean")
    starts = [gx.boundary_tangent(metric, a, d) for a, d in [
        (0.3, 0.3 + math.pi), (0.0, 5.0 * math.pi / 6), (math.pi / 6, math.pi / 6 + math.pi),
        (0.0, math.pi), (math.pi / 3, 4.0 * math.pi / 3)]]
    return gx.refine(gx.polygon_fan_tiling(6)), gx.trace_geodesics(metric, starts, step=0.01)


def near_tangent_plan():
    from golden.make_plan_clips import near_tangent_tiling

    metric = gx.metric_from_config("conformal-radial", [0.3])
    path = gx.trace_geodesic(metric, chord_start(metric, 0.4, 2.9), step=0.01)
    return near_tangent_tiling(path), [path]


def touching_box_plan():
    """Edges whose boxes touch one sample interval's control hull box from each
    side, at the hull box's slack or at half of it, on lines that cross the
    interval: each bracket there needs closed comparisons and the slack."""
    metric = gx.metric_from_config("euclidean")
    path = gx.trace_geodesic(metric, gx.boundary_tangent(metric, 1.25 * math.pi, 0.25 * math.pi), step=0.01)
    i = path.n_samples // 2
    hull = _control_hull(PathStack.of([path]), [i], [i + 1])[:, 0]
    lo, hi = hull.min(axis=0), hull.max(axis=0)
    mid = path.position(0.5 * (path.t[i] + path.t[i + 1]))
    corners = []
    for slack in (HULL_SLACK, 0.5 * HULL_SLACK):
        for p in ([lo[0] - slack, mid[1]], [hi[0] + slack, mid[1]], [mid[0], lo[1] - slack], [mid[0], hi[1] + slack]):
            out = (p - mid) / np.hypot(*(p - mid))
            corners.append([p, p + 0.1 * out, p + 0.1 * out + 0.05 * np.array([-out[1], out[0]])])
    return gx.Tiling(np.reshape(corners, (-1, 2)), np.arange(3 * len(corners)).reshape(-1, 3)), [path]


def run_layout_plan(count, layout):
    """``count`` seeded chords on the T = 96 fan, whose sample intervals, as ``_brackets`` takes
    them in runs of ``HULL_RUN`` and blocks of ``CLIP_BLOCK // HULL_COST``, have the layout that
    ``layout(intervals, joints)`` asserts; ``joints`` are the intervals between two paths."""
    from geoxray.scene import random_chord_descriptors

    metric = gx.metric_from_config("conformal-radial", [0.05])
    starts = [gx.boundary_tangent(metric, a, d) for a, d in random_chord_descriptors(count, np.random.default_rng(3))]
    paths = gx.trace_geodesics(metric, starts, step=0.01)
    stack = PathStack.of(paths)
    assert layout(len(stack.t) - 1, stack.stop[:-1] - 1)
    return gx.refine(gx.refine(gx.polygon_fan_tiling(6))), paths


BLOCK = CLIP_BLOCK // HULL_COST
BRACKET_PLANS = {
    **{name: functools.partial(workload_plans, name) for name in WORKLOAD_SCENES},
    "euclidean-chords": lambda *_: [euclidean_chord_plan()],
    "near-tangent": lambda *_: [near_tangent_plan()],
    "touching-boxes": lambda *_: [touching_box_plan()],
    # one block whose last run is short
    "run-tail": lambda *_: [run_layout_plan(1, lambda n, joints: n < BLOCK and n % HULL_RUN != 0)],
    # a run holding the last interval of one path, the joint and the first ones of the next
    "run-joint": lambda *_: [run_layout_plan(2, lambda n, joints: 0 < joints[0] % HULL_RUN < HULL_RUN - 1)],
    # more than one block, the last one short
    "blocks": lambda *_: [run_layout_plan(16, lambda n, joints: n > BLOCK and n % BLOCK % HULL_RUN != 0)],
}


@pytest.mark.parametrize("name", sorted(BRACKET_PLANS))
def test_sweep_brackets_match_dense_scan(name, tmp_path, monkeypatch):
    # the box-pair search keeps the brackets and tangent candidates of the
    # dense scan, and its exact zeros are the dense scan's on box-meeting pairs
    for tiling, paths in BRACKET_PLANS[name](tmp_path, monkeypatch):
        stack = PathStack.of([p for p in paths if p.tau > 0])
        zeros, edge, i, tangent_edge, tangent_i = gx.tiling._brackets(tiling, stack)
        want_zeros, near, brackets, tangents = _dense_brackets(tiling, stack)
        assert brackets and set(zip(edge.tolist(), i.tolist())) == brackets
        assert set(zip(tangent_edge.tolist(), tangent_i.tolist())) == tangents
        assert set(zeros.tolist()) == {m for k, m in want_zeros if (k, m - 1) in near or (k, m) in near}


def test_clip_finds_near_tangent_double_crossing():
    # A curved geodesic crosses the shared edge twice inside one sample interval,
    # so the sample grid shows no sign change; the dip into the far triangle is
    # about 1e-7 deep and 0.4 of the interval long.
    metric = gx.metric_from_config("conformal-radial", [0.3])
    path = gx.trace_geodesic(metric, chord_start(metric, 0.4, 2.9), step=0.01)
    i = path.n_samples // 2
    t0, h = path.t[i], path.t[i + 1] - path.t[i]
    p, q = path.position(t0 + 0.3 * h), path.position(t0 + 0.7 * h)
    u = (q - p) / np.hypot(*(q - p))
    n = np.array([-u[1], u[0]])
    a, b = p - 0.15 * u, q + 0.15 * u
    mid = 0.5 * (a + b)
    tiling = gx.Tiling([a, b, mid + 0.2 * n, mid - 0.2 * n], [[0, 1, 2], [0, 1, 3]])
    assert tiling.validate().ok
    pieces = clip_pieces(tiling, [path])[0]
    tris = [tri for tri, _, _ in pieces]
    assert len(pieces) == 5 and tris[0] is None and tris[4] is None
    assert tris[1] == tris[3] and {tris[1], tris[2]} == {0, 1}
    assert abs(pieces[2][1] - (t0 + 0.3 * h)) <= 1e-9
    assert abs(pieces[2][2] - (t0 + 0.7 * h)) <= 1e-9
    for tri, a, b in pieces[1:4]:
        assert locate(tiling, path.position(0.5 * (a + b))) == ("triangle", tri, 0)


def test_clip_finishes_for_crossings_beyond_arclength_64():
    # past t = 64 the float spacing (1.4e-14) exceeds the bisection width, so a
    # bracket there can never shrink to it; the clip must still end
    done = run_bounded(
        "import math, geoxray as gx\n"
        "m = gx.metric_from_config('conformal-radial', [6.0])\n"
        "c = 0.1 + math.pi\n"
        "path = gx.trace_geodesic(m, gx.boundary_tangent(m, 0.1, c), step=0.01)\n"
        "corner = lambda r, a: [r * math.cos(a), r * math.sin(a)]\n"
        "t = gx.Tiling([corner(1, c - 0.05), corner(1, c + 0.05), corner(0.9, c + 0.2)], [[0, 1, 2]])\n"
        "_, _, tri, t0, t1 = gx.tiling.clip_plan(t, [path])\n"
        "print(path.tau, (tri == 0).sum(), t0[tri == 0][0])\n",
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    tau, count, t0 = done.stdout.split()
    assert float(tau) > 64 and int(count) == 1 and 64 < float(t0) < float(tau)


# messages of the pairwise validation loops before they were vectorised
SEED_VALIDATION_MESSAGES = {
    "t-junction": (
        [[0, 0], [1, 0], [0, 0.9], [0.5, 0.0], [0.9, -0.5]], [[0, 1, 2], [3, 4, 1]],
        ["vertex outside the closed unit disk",
         "vertex 3 lies inside an edge of triangle 0: point depths disagree between the two triangles"],
    ),
    "overlap": (
        [[0, 0], [0.8, 0], [0, 0.8], [0.6, 0.6], [0.1, 0.1]], [[0, 1, 2], [0, 1, 3], [4, 1, 2]],
        ["vertex 4 lies inside an edge of triangle 1: point depths disagree between the two triangles",
         "triangles 0 and 1 overlap (area 1.600e-01)",
         "triangles 0 and 2 overlap (area 2.400e-01)",
         "triangles 1 and 2 overlap (area 1.200e-01)"],
    ),
    "degenerate": (
        [[0, 0], [1, 0], [0.5, 0], [0, 0.5]], [[0, 1, 2], [0, 1, 3]],
        ["triangle 0 is degenerate (area 0.000e+00)",
         "vertex 2 lies inside an edge of triangle 1: point depths disagree between the two triangles"],
    ),
    "coincident": (
        [[0, 0], [0.5, 0], [0, 0.5], [0.5, 0], [0.5, 0.5], [0, 0]], [[0, 1, 2], [3, 4, 2], [5, 3, 2]],
        ["vertices 0 and 5 coincide",
         "vertices 1 and 3 coincide",
         "triangles 0 and 2 overlap (area 1.250e-01)"],
    ),
}


@pytest.mark.parametrize("name", sorted(SEED_VALIDATION_MESSAGES))
def test_validation_messages_unchanged(name):
    vertices, triangles, messages = SEED_VALIDATION_MESSAGES[name]
    assert gx.Tiling(vertices, triangles).validate().messages == messages


def test_validation_matches_golden_areas():
    # tests/golden/validation_areas.json holds the messages and a digest of the
    # box-pair overlap areas that the per-pair clipper gave (see
    # make_validation_areas.py) on the refined fans up to T = 1536 and 300
    # defective tilings; validation must give them bit for bit
    from golden.make_validation_areas import OUT, digest, overlap_areas, tilings

    want = json.loads(OUT.read_text())
    for name, tiling in tilings():
        areas = overlap_areas(tiling)
        assert tiling.validate().messages == want[name]["messages"], name
        assert (len(areas), digest(areas)) == (want[name]["pairs"], want[name]["sha256"]), name
    assert set(want) == {name for name, _ in tilings()}


def test_refined_fans_match_golden():
    # tests/golden/refined_fans.json holds digests of the vertices, triangles and
    # edge arrays that the dict-based refine and edge list gave (see
    # make_refined_fans.py) on fans up to T = 6144; they must come out bit for bit
    from golden.make_refined_fans import OUT, entry, tilings

    want = json.loads(OUT.read_text())
    for name, tiling in tilings():
        assert entry(tiling) == want[name], name
    assert set(want) == {name for name, _ in tilings()}


def _dense_box_pairs(lo_a, hi_a, lo_b, hi_b, rows=64):
    """Every box of ``a`` against every box of ``b``, ``rows`` of ``a`` at a
    time: the pair search that validation ran before the sweep query, kept as
    the reference for ``_box_pairs``.  Returns the ``(P, 2)`` pairs in
    row-major order."""
    blocks = [np.zeros((0, 2), dtype=int)]
    for k in range(0, len(lo_a), rows):
        meet = lo_a[k:k + rows, None, 0] <= hi_b[:, 0]
        meet &= lo_b[:, 0] <= hi_a[k:k + rows, None, 0]
        meet &= lo_a[k:k + rows, None, 1] <= hi_b[:, 1]
        meet &= lo_b[:, 1] <= hi_a[k:k + rows, None, 1]
        pairs = np.argwhere(meet)
        pairs[:, 0] += k
        blocks.append(pairs)
    return np.concatenate(blocks)


def box_pair_cases():
    """``(name, lo_a, hi_a, lo_b, hi_b)`` for the pair query's reference test."""
    rng = np.random.default_rng(20190115)
    lo = rng.uniform(-1.0, 1.0, size=(700, 2))
    hi = lo + rng.exponential(0.05, size=(700, 2)) * (rng.random((700, 1)) < 0.9)
    yield "random, all against all", lo, hi, lo, hi
    yield "random, several blocks", lo[:400], lo[:400] + 0.4, lo[400:], hi[400:] + 0.3
    # a NaN corner meets nothing, in either set and on either axis
    for name, k, axis in (("low x", 0, 0), ("high x", 1, 0), ("high y", 1, 1)):
        nan = [lo.copy(), hi.copy()]
        nan[k][::7, axis] = np.nan
        yield f"NaN {name} in a", *nan, lo, hi
        yield f"NaN {name} in b", lo, hi, *nan
    unbounded = [lo.copy(), hi.copy()]
    unbounded[0][::50] = -np.inf
    unbounded[0][25::50, 0] = -np.inf
    unbounded[1][::50] = np.inf
    unbounded[1][10::50, 1] = np.inf
    yield "unbounded boxes in b", lo, hi, *unbounded
    wide = hi.copy()
    wide[350, 0] += 30.0 * (hi - lo)[:, 0].max()
    yield "one box 30 times wider", lo, hi, lo, wide
    yield "one box 30 times wider in a", lo, wide, lo, hi
    shared = lo.copy()
    shared[::2, 0] = 0.25
    yield "many boxes sharing one low x", shared, hi, shared, np.maximum(hi, shared)
    # unit squares on an integer lattice touch their neighbours on exactly one coordinate
    corner = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), axis=-1).reshape(-1, 2)
    yield "touching lattice", corner, corner + 1.0, corner, corner + 1.0
    yield "lattice points on lattice squares", corner, corner, corner + 0.5, corner + 1.5
    points = np.repeat(rng.uniform(-1.0, 1.0, size=(60, 2)), 3, axis=0)
    yield "duplicate zero-width boxes", points, points, points, points
    yield "zero-width against boxes", points, points, lo, hi
    yield "one box", lo[:1], hi[:1], lo, hi
    yield "against one box", lo, hi, lo[:1], hi[:1]
    empty = np.zeros((0, 2))
    yield "empty first", empty, empty, lo, hi
    yield "empty second", lo, hi, empty, empty
    yield "both empty", empty, empty, empty, empty
    from golden.make_validation_areas import tilings

    for name, tiling in tilings():
        v = tiling.vertices
        corners = v[tiling.triangles]
        box_lo, box_hi = corners.min(axis=1), corners.max(axis=1)
        yield f"{name} vertex-vertex", v, v, v - 2e-12, v + 2e-12
        yield f"{name} vertex-triangle", v, v, box_lo - 1e-12, box_hi + 1e-12
        yield f"{name} triangle-triangle", box_lo, box_hi, box_lo, box_hi


def test_box_pairs_match_dense_reference():
    # the sweep query gives the dense search's pairs, row for row, on random
    # boxes over several expansion blocks, NaN corners, unbounded boxes, one very wide box,
    # boxes sharing one low x, exactly touching boxes, zero-width and duplicate
    # boxes, one box, no boxes and the boxes that validation pairs on every
    # golden tiling; both the dense and the sweep branch run
    from geoxray.tiling import CLIP_BLOCK, _box_pairs

    branches = set()
    for name, lo_a, hi_a, lo_b, hi_b in box_pair_cases():
        got, want = _box_pairs(lo_a, hi_a, lo_b, hi_b), _dense_box_pairs(lo_a, hi_a, lo_b, hi_b)
        assert got.shape == want.shape and got.dtype.kind == "i", name
        assert np.array_equal(got, want), name
        branches.add(len(lo_a) * len(lo_b) > CLIP_BLOCK)
    assert branches == {False, True}
    several = [case for case in box_pair_cases() if case[0] == "random, several blocks"][0]
    assert len(_dense_box_pairs(*several[1:])) > 2 * CLIP_BLOCK


def test_box_pairs_of_one_set_match_dense_reference():
    # a box set paired with itself gives the dense search's pairs with i < j,
    # row for row, on each box set of the reference cases; both branches run
    from geoxray.tiling import CLIP_BLOCK, _box_pairs

    branches = set()
    for name, *boxes in box_pair_cases():
        for lo, hi in (boxes[:2], boxes[2:]):
            want = _dense_box_pairs(lo, hi, lo, hi)
            want = want[want[:, 0] < want[:, 1]]
            got = _box_pairs(lo, hi)
            assert got.shape == want.shape and got.dtype.kind == "i", name
            assert np.array_equal(got, want), name
            branches.add(len(lo) ** 2 > CLIP_BLOCK)
    assert branches == {False, True}


def _validate_reference(tiling):
    """``validate``'s messages, with the overlap messages (they come last) as validation wrote
    them before the separating-axis pass, which clipped every box-meeting pair ``i < j``; kept
    as the pass's reference."""
    from geoxray.tiling import _overlap_areas

    corners = tiling.vertices[tiling.triangles]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pairs = _dense_box_pairs(lo, hi, lo, hi)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    areas = _overlap_areas(corners, *pairs.T)
    return ([m for m in tiling.validate().messages if not m.startswith("triangles ")]
            + [f"triangles {i} and {j} overlap (area {area:.3e})"
               for (i, j), area in zip(pairs.tolist(), areas.tolist()) if area > 1e-12])


def test_separating_axes_leave_no_pair_of_refined_fans_to_clip(monkeypatch):
    # every box-meeting pair of a conforming fan shares an edge, a vertex or
    # nothing, and an edge line separates it on its closed outer side; the
    # tilings with an extra overlapping triangle keep a pair to clip
    from geoxray import tiling as module
    from golden.make_validation_areas import tilings

    clipped, clip = [], module._overlap_areas
    monkeypatch.setattr(module, "_overlap_areas", lambda corners, i, j: clipped.append(len(i)) or clip(corners, i, j))

    def validate(tiling):
        """The report's ``ok`` and the number of pairs clipped."""
        clipped.clear()
        return module._validate(tiling).ok, sum(clipped)

    tiling = gx.polygon_fan_tiling(6)
    for _ in range(4):
        tiling = gx.refine(tiling)
        assert validate(tiling) == (True, 0), tiling.n_triangles
    extra = [tiling for name, tiling in tilings() if name.startswith("extra_")]
    assert len(extra) == 50
    for tiling in extra:
        ok, count = validate(tiling)
        assert not ok and count > 0


def test_separating_axes_try_the_edges_of_both_triangles():
    # only the long edge of a separates it from b, whose corners are all on or
    # beyond that edge's line; no edge line of b has every corner of a outside
    from geoxray.tiling import _separated

    a, b = [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]], [[0.165, 0.165], [0.9, -0.3], [-0.3, 0.9]]
    tiling = gx.Tiling(a + b, [[0, 1, 2], [3, 4, 5]])
    corners = tiling.vertices[tiling.triangles]
    assert _separated(corners, np.array([0, 1]), np.array([1, 0])).tolist() == [True, True]
    assert tiling.validate().messages == _validate_reference(tiling) == []
    # b's apex pushed across the line: now the pair overlaps and is clipped
    b[0] = [0.14, 0.14]
    tiling = gx.Tiling(a + b, [[0, 1, 2], [3, 4, 5]])
    assert _separated(tiling.vertices[tiling.triangles], np.array([0]), np.array([1])).tolist() == [False]
    assert tiling.validate().messages == _validate_reference(tiling) != []


def test_every_pair_is_clipped_outside_the_disk():
    # two triangles on one edge whose shared corners differ in the last bits: an
    # edge line separates them, and the clip leaves a rounding-level area.  Powers
    # of two scale every rounding exactly: by 2**-1 the pair is inside the disk and
    # goes unclipped; by 2**30 it is not, and its area passes 1e-12.
    from geoxray.tiling import _overlap_areas, _separated

    corners = np.array([[-0.42232195801998, 0.5294750915195797], [0.4038038958946938, -0.6731709937425667],
                        [0.8682445700734599, 0.530929890753554], [0.4038038958946939, -0.6731709937425666],
                        [-0.42232195801998, 0.5294750915195796], [-0.5653112105742037, 0.37544948920998067]])
    for scale, message in ((0.5, []), (2.0**30, ["triangles 0 and 1 overlap (area 2.720e+02)"])):
        tiling = gx.Tiling(scale * corners, [[0, 1, 2], [3, 4, 5]])
        pair = tiling.vertices[tiling.triangles], np.array([0]), np.array([1])
        assert _separated(*pair).tolist() == [True] and _overlap_areas(*pair)[0] == 2.3592239273284576e-16 * scale**2
        assert tiling.validate().inside_disk == (scale < 1.0)
        assert [m for m in tiling.validate().messages if m.startswith("triangles ")] == message
        assert tiling.validate().messages == _validate_reference(tiling)


@st.composite
def in_disk_tilings(draw):
    """Jittered fans, refined or not, with extra triangles on shared edges or
    vertices and slivers 1e-6 to 1e-15 off collinear, scaled into the disk."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiling = gx.polygon_fan_tiling(draw(st.integers(3, 8)), rotation=draw(st.floats(0.0, math.pi)))
    if draw(st.booleans()):
        tiling = gx.refine(tiling)
    v, tris = tiling.vertices.copy(), tiling.triangles.tolist()
    jitter = draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-4, 0.05]))
    v += rng.normal(scale=jitter, size=v.shape) * (rng.random((len(v), 1)) < 0.5)
    for _ in range(draw(st.integers(0, 3))):
        a, b, c = tris[int(rng.integers(len(tris)))]
        kind = draw(st.sampled_from(["apex", "vertices", "sliver"]))
        if kind == "apex":      # a new triangle on a shared edge, on either side of it
            v = np.vstack([v, 0.5 * (v[a] + v[b]) + rng.normal(scale=0.3, size=2)])
            tris.append([a, b, len(v) - 1])
        elif kind == "vertices":    # three vertices of the tiling
            tris.append(rng.choice(len(v), 3, replace=False).tolist())
        else:                   # the third corner a hair off the opposite edge, either side
            e = v[b] - v[a]
            off = draw(st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15])) * rng.choice([-1.0, 1.0])
            v = np.vstack([v, v[a] + float(rng.random()) * e + off * np.array([-e[1], e[0]])])
            tris[tris.index([a, b, c])] = [a, b, len(v) - 1]
    v /= max(1.0, float(np.hypot(v[:, 0], v[:, 1]).max()))
    return gx.Tiling(v, tris)


@settings(max_examples=40, deadline=None)
@given(in_disk_tilings())
def test_separating_axes_keep_every_overlap_message(tiling):
    # inside the disk, the pairs that an edge line separates and go unclipped
    # would overlap by a rounding-level area at most, under the 1e-12 of a message
    assert tiling.validate().messages == _validate_reference(tiling)


def _coincidences(vertices):
    """Messages of the O(V^2) loop that found coincident vertices before the
    pair query, kept as its reference."""
    v, msgs = np.asarray(vertices, dtype=float), []
    for i in range(len(v) - 1):
        d = np.hypot(v[i + 1:, 0] - v[i, 0], v[i + 1:, 1] - v[i, 1])
        msgs += [f"vertices {i} and {i + 1 + int(j)} coincide" for j in np.flatnonzero(d < 1e-12)]
    return msgs


def _shared_edges(triangles):
    """Messages of the adjacency dict that found edges of more than two
    triangles before the edge table, kept as its reference."""
    adjacency = {}
    for i, tri in enumerate(np.asarray(triangles).tolist()):
        for k in range(3):
            adjacency.setdefault(tuple(sorted((tri[k], tri[(k + 1) % 3]))), []).append(i)
    return [f"edge {e} shared by {len(t)} triangles" for e, t in adjacency.items() if len(t) > 2]


def coincidence_tilings():
    """``(name, tiling)``: vertex pairs at and around the 1e-12 threshold
    along x, y and the diagonal, among enough vertices for the sweep, and
    tilings whose vertices share x exactly."""
    rng = np.random.default_rng(20190116)
    base = rng.uniform(-0.9, 0.9, size=(12, 2))
    steps = [0.0, 5e-13, 9.99e-13, 1e-12, 1.5e-12]
    directions = [(1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5))]
    moved = [base + s * np.array(d) for s in steps for d in directions]
    for n_extra in (0, 200):
        v = np.concatenate([base] + moved + [rng.uniform(-0.9, 0.9, size=(n_extra, 2))])
        yield f"thresholds, {len(v)} vertices", gx.Tiling(v, [[0, 1, 2]])
    fan = gx.Tiling([[1.0, 0.0], [0.21215043371796743, 0.13891854213354424],
                     [0.21215043371796743, -0.13891854213354424]], [[0, 1, 2]])
    yield "fan-limit triangle", fan
    column = np.column_stack([np.full(120, 0.25), np.repeat(np.arange(60) * 1e-3, 2) + np.tile([0.0, 7e-13], 60)])
    yield "one column of shared x", gx.Tiling(column, [[0, 2, 4]])
    tiling = gx.polygon_fan_tiling(6)
    for _ in range(3):
        tiling = gx.refine(tiling)
    v = np.concatenate([tiling.vertices, tiling.vertices[::7] + [0.0, 8e-13]])
    yield "refined fan with near copies", gx.Tiling(v, tiling.triangles)


@pytest.mark.parametrize("name", [name for name, _ in coincidence_tilings()])
def test_coincident_vertex_messages_match_pairwise_loop(name):
    tiling = dict(coincidence_tilings())[name]
    got = [m for m in tiling.validate().messages if m.startswith("vertices ")]
    assert got == _coincidences(tiling.vertices)
    assert (len(got) > 0) == (name != "fan-limit triangle")


def test_shared_edge_messages_keep_first_appearance_order():
    # edge (5, 6) by four triangles, met before edge (0, 1) by three, and a
    # degenerate row that meets its own edge twice; orders must follow the slots
    v = np.random.default_rng(3).uniform(-0.5, 0.5, size=(14, 2))
    triangles = [[9, 5, 6], [0, 1, 2], [6, 5, 7], [1, 0, 3], [5, 6, 8], [0, 4, 1], [10, 6, 5], [11, 12, 12]]
    tiling = gx.Tiling(v, triangles)
    got = [m for m in tiling.validate().messages if m.startswith("edge ")]
    assert got == _shared_edges(tiling.triangles)
    assert got[:2] == ["edge (5, 6) shared by 4 triangles", "edge (0, 1) shared by 3 triangles"]
    assert got == _shared_edges(triangles)


def _dense_locate(tiling, points, block=4096):
    """Every point against every triangle, in blocks of about ``block``
    (point, triangle) pairs: the point location before the pair query, kept
    as the reference for ``locate_points``."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    triangle, kind, depth = np.full(len(p), -1), np.full(len(p), 2), np.full(len(p), -1)
    a, inv, tol = tiling.vertices[tiling.triangles[:, 0]], tiling._bary_inv, gx.tiling.BARY_TOL
    rows = max(1, block // max(tiling.n_triangles, 1))
    for k in range(0, len(p) if tiling.n_triangles else 0, rows):
        d0, d1 = p[k:k + rows, 0:1] - a[:, 0], p[k:k + rows, 1:2] - a[:, 1]
        lam1 = inv[:, 0, 0] * d0 + inv[:, 0, 1] * d1
        lam2 = d0 * inv[:, 1, 0] + d1 * inv[:, 1, 1]
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -tol) & (lam1 >= -tol) & (lam2 >= -tol)
        zeros = sum((np.abs(lam) <= tol).astype(np.int8) for lam in (lam0, lam1, lam2))
        interior = inside & (zeros == 0)
        skeleton, hit = inside.any(axis=1), interior.any(axis=1)
        triangle[k:k + rows] = np.where(hit, interior.argmax(axis=1), -1)
        kind[k:k + rows] = np.where(hit, 0, np.where(skeleton, 1, 2))
        depth[k:k + rows] = np.where(hit, 0, np.where(skeleton, np.minimum((zeros * inside).max(axis=1), 2), -1))
    return triangle, kind, depth


def location_cases():
    """``(name, tiling, points)``: the T = 384 and 1536 fans at centroids, edge
    midpoints, vertices, outside points and 10,000 seeded random points; the
    near-collinear slivers of the golden defective tilings at points on and
    a hair off their corners and edges; and a sliver so ill-conditioned that
    its box is unbounded."""
    rng = np.random.default_rng(20190117)
    tiling = gx.polygon_fan_tiling(6)
    for levels in range(1, 5):
        tiling = gx.refine(tiling)
        if levels >= 3:
            corners = tiling.vertices[tiling.triangles]
            points = np.concatenate([corners.mean(axis=1), (0.5 * (corners + corners[:, [1, 2, 0]])).reshape(-1, 2),
                                     tiling.vertices, [[0.999, 0.999], [-1.2, 0.0], [3.0, -4.0]],
                                     rng.uniform(-1.05, 1.05, size=(10_000, 2))])
            yield f"fan_{tiling.n_triangles}", tiling, points
    from golden.make_validation_areas import tilings

    for name, tiling in tilings():
        if name.startswith("sliver"):
            corners = tiling.vertices[tiling.triangles]
            s = rng.random((len(corners), 3, 1))
            on_edges = corners + s * (corners[:, [1, 2, 0]] - corners)
            near = np.concatenate([corners.reshape(-1, 2), on_edges.reshape(-1, 2)])
            offsets = rng.normal(size=(4,) + near.shape) * np.array([1e-15, 1e-13, 1e-11, 1e-9])[:, None, None]
            yield name, tiling, np.concatenate([near, (near + offsets).reshape(-1, 2), corners.mean(axis=1)])
    # 40 slivers of area 1.1e-12 to 5e-12 and points on their edge lines, up to 1e-2 of the
    # edge beyond its ends: rounding puts some in a sliver though outside its box grown by BARY_TOL
    angle, length, s = rng.uniform(0, math.pi, 40), rng.uniform(0.3, 1.5, 40), rng.uniform(-0.5, 1.5, 40)
    e = length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    a = rng.uniform(-0.5, 0.5, size=(40, 2))
    height = rng.choice([2.2e-12, 4e-12, 1e-11], 40) / length
    c = a + s[:, None] * e + height[:, None] * np.column_stack([-e[:, 1], e[:, 0]]) / length[:, None]
    along = np.concatenate([-np.logspace(-9, -2, 100), 1.0 + np.logspace(-9, -2, 100)])
    points = (a[:, None] + along[:, None] * e[:, None] + rng.normal(size=(40, 200, 1)) * 1e-15).reshape(-1, 2)
    yield "edge-line slivers", gx.Tiling(np.stack([a, a + e, c], axis=1).reshape(-1, 2), np.arange(120).reshape(-1, 3)), points
    bad = gx.Tiling([[0.0, 0.0], [8.0, 0.0], [4.0, 3e-13], [0.0, 1.0]], [[0, 1, 2], [0, 1, 3]])
    points = np.concatenate([[[4.0, 1e-13], [2.0, 0.0], [8.0, 0.0], [4.0, 2.9e-13], [1e3, 1e3]],
                             rng.uniform(-1.0, 9.0, size=(400, 2)) * [1.0, 1e-12]])
    yield "unbounded sliver", bad, points


@pytest.mark.parametrize("name", ["fan_384", "fan_1536", "slivers", "edge-line slivers", "unbounded sliver"])
def test_locate_points_matches_dense_scan(name):
    # the padded triangle boxes lose no (point, triangle) pair that the dense
    # scan finds inside or on the skeleton, so every array is the dense one
    cases = [case for case in location_cases() if case[0] == name or (name == "slivers" and "sliver_" in case[0])]
    assert len(cases) == (50 if name == "slivers" else 1)
    for case, tiling, points in cases:
        got, want = gx.locate_points(tiling, points), _dense_locate(tiling, points)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), case
        if case.startswith("fan"):
            assert {0, 1, 2} <= set(want[1].tolist()) and {0, 1, 2} <= set(want[2].tolist())
    if name == "unbounded sliver":
        assert (want[0] == 0).sum() >= 2
    if name == "edge-line slivers":
        # points the scan finds in a sliver though outside its box grown by 2 BARY_TOL w: the
        # padding's rounding term is what keeps their pairs
        corners = tiling.vertices[tiling.triangles]
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        grown = 2 * gx.tiling.BARY_TOL * (hi - lo).max(axis=1)[:, None]
        tri = np.repeat(np.arange(40), 200)
        outside = ((points < lo[tri] - grown[tri]) | (points > hi[tri] + grown[tri])).any(axis=1)
        assert np.count_nonzero(outside & (want[1] < 2)) >= 10
