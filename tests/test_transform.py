import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoxray as gx
from geoxray.geometry import flow_geodesics, unwrap
from geoxray.tiling import Sector, SectorFan
from geoxray.transform import sector_chord_lengths

from conftest import chord_start, forward
from oracles import add_by_rank, chord_forward_value, quadrature_sector_length, wrapped_sector_chord_lengths


def make_fan(sector_specs, k=1):
    sectors = tuple(Sector(start=a, end=b, value=np.asarray(v, dtype=complex).reshape(k))
                    for a, b, v in sector_specs)
    return SectorFan(vertex=np.zeros(2), sectors=sectors, frame=np.eye(2), k=k)


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def test_forward_zero_field(euclidean, hexagon24):
    field = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 2)
    w = gx.ConstantWeight(np.array([[1, 0], [0, 1], [1, 1]], dtype=complex))
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.1, 2.0), step=1e-2)
    assert np.all(forward(euclidean, w, hexagon24, field, path) == 0.0)


def test_forward_single_triangle_clipping_oracle(euclidean):
    t = gx.Tiling([[math.cos(a), math.sin(a)] for a in (0.3, 2.1, 4.4)], [[0, 1, 2]])
    c = 0.83 - 0.21j
    field = gx.PiecewiseConstantField.from_values([[c]])
    w = gx.IdentityWeight(1)
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin(0.5 * (a - b))) < 0.05:
            continue
        path = gx.trace_geodesic(euclidean, chord_start(euclidean, a, b), step=1e-2)
        expected = chord_forward_value(path.x[0], path.v[0], t, field.values)
        got = forward(euclidean, w, t, field, path)
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_forward_attenuated_diameter_closed_form(euclidean):
    # Hexagon triangulated from one corner, so the horizontal diameter runs
    # through triangle interiors only; field constant on all of it.
    corners = [[math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6)] for i in range(6)]
    t = gx.Tiling(corners, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 0)])
    c = 0.7 + 0.2j
    a = 0.8
    field = gx.PiecewiseConstantField.from_values([[c]] * 4)
    w = gx.AttenuationWeight(euclidean, "constant", a, trace_step=1e-3)
    path = gx.trace_geodesic(euclidean, gx.boundary_tangent(euclidean, math.pi, 0.0), step=1e-3)
    expected = c * (1.0 - math.exp(-a * path.tau)) / a
    got = forward(euclidean, w, t, field, path)
    assert abs(got[0] - expected) <= 1e-6


def test_forward_rejects_invalid_tiling(euclidean):
    bad = gx.Tiling([[0, 0], [1, 0], [0, 1], [0.9, 0.9]], [[0, 1, 2], [0, 1, 3]])
    field = gx.PiecewiseConstantField.zero(2, 1)
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.0, 3.0), step=1e-2)
    with pytest.raises(gx.SceneValidationError):
        forward(euclidean, gx.IdentityWeight(1), bad, field, path)


def test_forward_rejects_dim_mismatch(euclidean, hexagon24):
    field = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 2)
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.0, 3.0), step=1e-2)
    with pytest.raises(gx.SceneValidationError):
        forward(euclidean, gx.IdentityWeight(1), hexagon24, field, path)


def test_forward_linearity(euclidean, hexagon24):
    rng = np.random.default_rng(21)
    f = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, rng)
    g = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, rng)
    alpha, beta = 0.7 - 0.1j, -1.3 + 0.4j
    combo = gx.PiecewiseConstantField.from_values(alpha * f.values + beta * g.values)
    w = gx.ConstantWeight(np.array([[1, 0.2], [0.1, 1], [0.4, 0.6]], dtype=complex))
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 1.0, 4.0), step=1e-2)
    lhs = forward(euclidean, w, hexagon24, combo, path)
    rhs = (alpha * forward(euclidean, w, hexagon24, f, path)
           + beta * forward(euclidean, w, hexagon24, g, path))
    scale = max(np.max(np.abs(lhs)), 1.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_forward_quadrature_step_convergence(conformal05, hexagon24):
    rng = np.random.default_rng(31)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 1, rng)
    w = gx.AngularWeight(1, order=2, amplitude=0.4, radial_modulation=0.5)
    start = chord_start(conformal05, 0.8, 3.6)
    vals = {}
    for s in (2e-2, 1e-2, 5e-3):
        path = gx.trace_geodesic(conformal05, start, step=s)
        vals[s] = forward(conformal05, w, hexagon24, field, path)
    err_coarse = np.max(np.abs(vals[2e-2] - vals[5e-3]))
    err_fine = np.max(np.abs(vals[1e-2] - vals[5e-3]))
    # second-order quadrature: halving the step cuts the error by about 4
    assert err_fine <= 0.35 * err_coarse + 1e-13


# ---------------------------------------------------------------------------
# the plan operator
# ---------------------------------------------------------------------------

def test_plan_is_clipped_with_one_bisection_and_one_locate(monkeypatch, conformal05, hexagon24):
    # the crossing brackets of every path go through one lockstep bisection, and the
    # piece midpoints of every path through one point location
    import geoxray.tiling
    from geoxray.scene import random_chord_descriptors

    calls = {"_bisect_lanes": 0, "locate_points": 0}

    def counted(name):
        fn = getattr(geoxray.tiling, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(geoxray.tiling, name, counted(name))
    descriptors = random_chord_descriptors(30, np.random.default_rng(4))
    starts = [gx.boundary_tangent(conformal05, a, d) for a, d in descriptors]
    starts.append(gx.unit_tangent(conformal05, [0.1, -0.2], [1.0, 0.4]))
    weight = gx.ConstantWeight(np.array([[1, 0.2], [0.1, 1], [0.4, 0.6]], dtype=complex))
    op = gx.plan_weight_integrals(conformal05, weight, hexagon24, starts, step=1e-2)
    assert calls == {"_bisect_lanes": 1, "locate_points": 1}
    assert op.n_rows == 31 and len(op.triangle) > 100 and not any(op.errors)


MATRIX_32 = np.array([[1, 0.2], [0.1, 1], [0.4, 0.6]], dtype=complex)
# the attenuation weights bind the conformal05 fixture's metric
ATTENUATION = gx.AttenuationWeight(gx.metric_from_config("conformal-radial", [0.05]), "gaussian", 0.8)


def plan_starts(metric, rng):
    """Ten boundary chords, an interior start and a start outside the disk."""
    from geoxray.scene import random_chord_descriptors

    starts = [gx.boundary_tangent(metric, a, d) for a, d in random_chord_descriptors(10, rng)]
    return starts + [gx.unit_tangent(metric, [0.1, -0.2], [1.0, 0.4]),
                     gx.UnitTangent(x=np.array([1.5, 0.0]), v=np.array([-1.0, 0.0]))]


@pytest.mark.parametrize("weight", [
    gx.ConstantWeight(MATRIX_32),
    gx.AngularWeight(2, order=2, amplitude=0.4, radial_modulation=0.5),
    ATTENUATION,
    gx.ProductWeight(ATTENUATION, gx.ConstantWeight(MATRIX_32)),
])
def test_plan_operator_rows_are_the_per_path_integrals(conformal05, hexagon24, weight):
    # row i holds the N = 1 per-triangle integrals of path i, bit for bit and in
    # key order (for attenuation, so are the tail integrals of the stacked paths);
    # apply sums block @ value per row in that order, as forward does
    rng = np.random.default_rng(8)
    starts = plan_starts(conformal05, rng)
    op = gx.plan_weight_integrals(conformal05, weight, hexagon24, starts, step=1e-2)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, weight.k, rng)
    assert isinstance(op.errors[-1], gx.DomainError) and op.row_ptr[-2] == op.row_ptr[-1]
    with pytest.raises(gx.DomainError):
        op.apply(field)
    good = op.take(np.arange(len(starts) - 1))
    values, dense = good.apply(field), good.dense()
    m, k = weight.m, weight.k
    for i, start in enumerate(starts[:-1]):
        path = gx.trace_geodesic(conformal05, start, step=1e-2)
        want = gx.transform.per_triangle_weight_integrals(conformal05, weight, hexagon24, path)
        entries = slice(op.row_ptr[i], op.row_ptr[i + 1])
        assert op.triangle[entries].tolist() == list(want)
        assert np.array_equal(op.block[entries], np.array([mat for mat, _ in want.values()]).reshape(-1, m, k))
        assert op.length[entries].tolist() == [length for _, length in want.values()]
        total = np.zeros(m, dtype=complex)
        for tri, (mat, _length) in want.items():
            total += mat @ field.values[tri]
        assert np.array_equal(values[i], total)
        assert np.array_equal(values[i], forward(conformal05, weight, hexagon24, field, path))
        row = np.zeros((m, hexagon24.n_triangles, k), dtype=complex)
        for tri, (mat, _length) in want.items():
            row[:, tri, :] = mat
        assert np.array_equal(dense[i * m:(i + 1) * m], row.reshape(m, -1))


def test_scatter_add_matches_the_rank_loop():
    # np.add.at adds each row's terms in term order, as the loop over ranks did, so from the same -0.0 or 0.0
    # start every sum keeps its bits: complex (n, m, k) blocks and real lengths, rows repeated up to 29 times,
    # terms of magnitudes 1e-8 to 1e16, signed zeros, rows that get no term, and 1 + 1e16 - 1e16, which is 1
    # in any other order.  The rows come sorted, and interleaved (a row's terms still in order), as a plan's
    # pieces come to their entries: the reference sums the stably sorted terms
    rng = np.random.default_rng(24)
    row = np.repeat(np.arange(40), rng.integers(0, 30, 40))
    n = len(row)
    shuffled = rng.permutation(n)
    blocks = rng.standard_normal((n, 3, 2)) + 1j * rng.standard_normal((n, 3, 2))
    blocks *= 10.0 ** rng.integers(-8, 17, (n, 1, 1))
    lengths = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 17, n)
    for terms in (blocks, lengths):
        terms[rng.random(n) < 0.1] = -0.0
        terms[rng.random(n) < 0.05] = 0.0
        for rows, row_terms in ((row, terms), (row[shuffled], terms[shuffled])):
            by_row = np.argsort(rows, kind="stable")
            for start in (-0.0, 0.0):
                want = np.full((40,) + terms.shape[1:], start, dtype=terms.dtype)
                want = add_by_rank(want, rows[by_row], row_terms[by_row])
                got = np.full_like(want, start)
                np.add.at(got, rows, row_terms)
                assert got.view(np.uint8).tobytes() == want.view(np.uint8).tobytes()
    ordered, got = np.array([1.0, 1e16, -1e16]), -np.zeros(1)
    np.add.at(got, np.zeros(3, dtype=int), ordered)
    assert got.tolist() == add_by_rank(-np.zeros(1), np.zeros(3, dtype=int), ordered).tolist() == [0.0]


def test_product_with_identity_is_the_bare_attenuation(conformal05, hexagon24):
    # one weight, one transform: the product integrates its attenuation factor
    # along the path, as the bare weight does, so the operators agree bit for bit
    starts = plan_starts(conformal05, np.random.default_rng(8))
    bare = gx.plan_weight_integrals(conformal05, ATTENUATION, hexagon24, starts, step=1e-2)
    product = gx.plan_weight_integrals(conformal05, gx.ProductWeight(ATTENUATION, gx.IdentityWeight(1)),
                                       hexagon24, starts, step=1e-2)
    for name in ("row_ptr", "triangle", "block", "length"):
        assert getattr(bare, name).tobytes() == getattr(product, name).tobytes(), name
    assert len(bare.triangle) > 40


def test_product_attenuation_integrates_without_tracing(monkeypatch, conformal05, hexagon24):
    # the attenuation factor of a product reads the tail integrals of the traced
    # paths, so integrating them traces no further geodesic
    import geoxray.geometry
    import geoxray.weights

    paths = gx.trace_geodesics(conformal05, plan_starts(conformal05, np.random.default_rng(8))[:-1], step=1e-2)
    calls = []
    trace_rows = geoxray.geometry._trace_rows

    def counting(metric, y, *args):
        calls.append(len(y))
        return trace_rows(metric, y, *args)

    for module in (geoxray.geometry, geoxray.weights):
        monkeypatch.setattr(module, "_trace_rows", counting)
    weight = gx.ProductWeight(ATTENUATION, gx.ConstantWeight(MATRIX_32))
    op = gx.plan_weight_integrals(conformal05, weight, hexagon24, paths)
    assert calls == [] and op.n_rows == 11 and not any(op.errors)


def test_plan_integration_peak_memory_is_bounded(tmp_path, monkeypatch):
    # the fan-limit plan (40 traced paths, 14,798 samples, one triangle): the
    # weight is evaluated inside the blocks of the trapezoid sums, with
    # accelerations only at the samples around each node, so no per-plan weight
    # array is held; tracemalloc peak 772.6 KB before the one-stack integration
    # and 842.1 KB with it, against a bound of 1.5 times the former.  The
    # 450-chord demo plan (59,640 samples), traced from its starts: the tracer
    # lays the samples out once, in the stack that clipping and integration
    # read; peak 7.18 MB while the traced paths were copied into a new stack,
    # 4.62 MB without (numpy 2.4 on Python 3.11)
    import tracemalloc

    from geoxray.scene import scene_chord_descriptors
    from test_tiling import RADIAL, WORKLOAD_SCENES, workload_plans

    (tiling, paths), = workload_plans("fan-limit", tmp_path, monkeypatch)
    scene = gx.scene.build_scene({"schema": "geoxray-scene/1", "metric": RADIAL, **WORKLOAD_SCENES["fan-limit"][1]})
    assert len(paths) == 40 and sum(p.n_samples for p in paths) == 14_798
    demo = gx.load_scene(str(Path(__file__).resolve().parents[1] / "scenes" / "demo_reconstruct.json"))
    starts = [gx.boundary_tangent(demo.metric, a, d) for a, d in scene_chord_descriptors(demo)]
    assert len(starts) == 450
    for scene, tiling, plan, bound in ((scene, tiling, paths, 1_160_000), (demo, demo.tiling, starts, 6_200_000)):
        gx.plan_weight_integrals(scene.metric, scene.weight, tiling, plan, step=scene.step)
        tracemalloc.start()
        try:
            op = gx.plan_weight_integrals(scene.metric, scene.weight, tiling, plan, step=scene.step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.n_rows == len(plan) and not any(op.errors)
        assert peak <= bound


# ---------------------------------------------------------------------------
# fan geodesics
# ---------------------------------------------------------------------------

def test_fan_geodesic_flat_vertical_chord(euclidean):
    path = unwrap(gx.fan_geodesics(euclidean, [1.0, 0.0], [([-1.0, 0.0], 0.1)], step=1e-3)[0])
    # path is the vertical chord through (0.9, 0)
    assert np.max(np.abs(path.x[:, 0] - 0.9)) <= 1e-12
    anchor = gx.unit_tangent(euclidean, [1.0, 0.0], [-1.0, 0.0])
    p, v_h = unwrap(flow_geodesics(euclidean, [anchor], [0.1], step=1e-3)[0])
    assert abs(abs(euclidean.rotate90(p, v_h)[1]) - 1.0) <= 1e-12
    assert path.endpoints_on_boundary


def test_fan_geodesic_flat_any_direction_orthogonal_line(euclidean):
    v = np.array([math.cos(math.pi + 0.3), math.sin(math.pi + 0.3)])
    path = unwrap(gx.fan_geodesics(euclidean, [1.0, 0.0], [(v, 0.2)], step=1e-3)[0])
    p0 = np.array([1.0, 0.0]) + 0.2 * v
    offsets = (path.x - p0) @ v
    assert np.max(np.abs(offsets)) <= 1e-10


def test_fan_geodesic_conformal_orthogonality(conformal05):
    anchor = gx.unit_tangent(conformal05, [1.0, 0.0], [-1.0, 0.0])
    p, v_h = unwrap(flow_geodesics(conformal05, [anchor], [0.15], step=1e-3)[0])
    for sign in (1, -1):
        path = unwrap(gx.fan_geodesics(conformal05, [1.0, 0.0], [([-1.0, 0.0], 0.15)], sign=sign, step=1e-3)[0])
        w_h = conformal05.rotate90(p, v_h, sign=sign)
        # the member is the geodesic through the transported point along the transported normal
        (at,) = np.flatnonzero((path.x == p).all(axis=1))
        assert np.array_equal(path.v[at], gx.unit_tangent(conformal05, p, w_h).v)
        assert abs(conformal05.inner(p, w_h, v_h)) <= 1e-8
        assert abs(math.sqrt(conformal05.inner(p, w_h, w_h)) - 1.0) <= 1e-8


def test_fan_geodesic_rejects_too_large_offset(euclidean):
    with pytest.raises(gx.FanConstructionError):
        unwrap(gx.fan_geodesics(euclidean, [1.0, 0.0], [([-1.0, 0.0], 2.5)], step=1e-2)[0])


@pytest.mark.parametrize("offsets_deg, h_values, error, message", [
    ([0, 50], [2.5], gx.FanConstructionError, "before reaching offset 2.5"),
    ([50, 0], [2.5], gx.SceneValidationError, "30-degree cone"),
    ([0], [-1.0, 2.5], gx.SceneValidationError, "h must be positive"),
])
def test_limit_scan_raises_first_failing_member_in_plan_order(euclidean, anchor_triangle_tiling,
                                                              offsets_deg, h_values, error, message):
    # the (offset, h) members are built together; the error raised is the one of
    # the first failing member in plan order, as when they were built one by one
    field = gx.PiecewiseConstantField.from_values([[1.0]])
    with pytest.raises(error, match=message):
        gx.transform.limit_scan(euclidean, gx.IdentityWeight(1), anchor_triangle_tiling, field, 0.0,
                                [math.radians(d) for d in offsets_deg], h_values, step=1e-2)


def test_fan_geodesic_rejects_wide_anchor_cone(euclidean):
    v = np.array([math.cos(math.pi + 1.0), math.sin(math.pi + 1.0)])  # 57 deg off normal
    with pytest.raises(gx.SceneValidationError):
        unwrap(gx.fan_geodesics(euclidean, [1.0, 0.0], [(v, 0.1)])[0])


def _boundary_offset(metric, step):
    """The largest offset along the diameter from (1, 0) whose flow at ``step`` stays in the disk: its end lies
    within rounding of the circle.  Bisected among offsets of one step count, where the end moves smoothly."""
    anchor = gx.unit_tangent(metric, [1.0, 0.0], [-1.0, 0.0])
    lo = 1.9
    while not isinstance(flow_geodesics(metric, [anchor], [lo + step], step=step)[0], gx.GeoxrayError):
        lo += step
    hi = lo + step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if isinstance(flow_geodesics(metric, [anchor], [mid], step=step)[0], gx.GeoxrayError):
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("family, params", [("euclidean", []), ("conformal-radial", [0.05])])
def test_fan_members_keep_their_own_errors_and_bits(family, params, sign):
    # one call with good members among one member of each error kind: each failing member gets its own error
    # in member order, and each good member's path has the bits of a one-member call
    metric, step = gx.metric_from_config(family, params), 0.01
    x = np.array([1.0, 0.0])

    def inward(deg):
        return np.array([math.cos(math.pi + math.radians(deg)), math.sin(math.pi + math.radians(deg))])

    edge = _boundary_offset(metric, step)
    members = [
        (inward(10), 0.1, None),
        ([0.0, 0.0], 0.1, (gx.SceneValidationError, "cannot normalize a zero tangent vector")),
        (inward(-20), 0.3, None),
        (inward(50), 0.1, (gx.SceneValidationError, "30-degree cone")),
        (inward(0), 0.0, (gx.SceneValidationError, "h must be positive")),
        (inward(5), math.nan, (gx.SceneValidationError, "flow length must be positive")),
        (inward(0), 2.5, (gx.FanConstructionError, "before reaching offset 2.5")),
        (inward(0), edge, (gx.FanConstructionError, f"offset point for h={edge:g} is not interior")),
        (inward(-5), 0.05, None),
    ]
    entries = gx.fan_geodesics(metric, x, [(v, h) for v, h, _ in members], sign=sign, step=step)
    assert len(entries) == len(members)
    for (v, h, error), entry in zip(members, entries):
        if error is None:
            (single,) = gx.fan_geodesics(metric, x, [(v, h)], sign=sign, step=step)
            assert [getattr(entry, a).tobytes() for a in "txv"] == [getattr(single, a).tobytes() for a in "txv"]
        else:
            assert type(entry) is error[0] and error[1] in str(entry)


# ---------------------------------------------------------------------------
# tangent-plane line integrals
# ---------------------------------------------------------------------------

def test_tangent_line_symmetric_sector():
    beta = 0.8
    fan = make_fan([(beta - math.pi / 4, beta + math.pi / 4, [1.0])])
    val = gx.tangent_line_integral(fan, beta)
    assert abs(val[0] - 2.0) <= 1e-12


def test_tangent_line_sector_behind_is_zero():
    beta = 0.0
    fan = make_fan([(math.pi - 0.3, math.pi + 0.3, [5.0])])
    assert gx.tangent_line_integral(fan, beta) == 0.0


def test_tangent_line_two_adjacent_sectors():
    beta = 2.1
    c1, c2 = 1.5 - 0.5j, -0.7 + 0.2j
    fan = make_fan([(beta - math.pi / 6, beta, [c1]), (beta, beta + math.pi / 6, [c2])])
    val = gx.tangent_line_integral(fan, beta)
    expected = math.tan(math.pi / 6) * (c1 + c2)
    assert abs(val[0] - expected) <= 1e-12


def test_tangent_line_near_parallel_sector_raises():
    beta = 0.0
    fan = make_fan([(0.1, math.pi / 2 + 1e-12, [1.0])])
    with pytest.raises(gx.NearParallelSectorError):
        gx.tangent_line_integral(fan, beta)


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(0.0, 2 * math.pi),
    start=st.floats(0.0, 2 * math.pi),
    width=st.floats(0.05, 2.8),
)
def test_sector_lengths_match_quadrature_oracle(beta, start, width):
    half_pi = math.pi / 2
    rel_start = math.remainder(start - beta, 2 * math.pi)
    for cut in (-half_pi, half_pi, 3 * half_pi):
        if rel_start - 1e-3 <= cut <= rel_start + width + 1e-3:
            return  # chord unbounded or nearly so; covered by the raise test
    got = sector_chord_lengths([(start, start + width)], beta)[0]
    expected = quadrature_sector_length(start, start + width, beta)
    assert abs(got - expected) <= 1e-5 * max(1.0, abs(expected))


def test_sector_lengths_match_the_wrapped_loop_bit_for_bit():
    # the closed form against the loop it replaced: random sectors, sectors that run past pi, and sectors whose
    # start or end lies just outside or just inside NEAR_PARALLEL_TOL of each cut, on either side of it
    rng = np.random.default_rng(2301)
    half_pi = 0.5 * math.pi
    cases = [(s, w) for s, w in zip(rng.uniform(-math.pi, math.pi, 4000), rng.uniform(1e-6, math.pi - 1e-6, 4000))]
    cases += [(s, w) for s, w in zip(rng.uniform(0.5 * math.pi, math.pi, 500), rng.uniform(2.0, 3.1, 500))]
    for cut in (-half_pi, half_pi, 3.0 * half_pi):
        for d in (-2e-9, -1.1e-9, -1e-9, -0.9e-9, 0.0, 0.9e-9, 1e-9, 1.1e-9, 2e-9):
            for w in rng.uniform(1e-3, math.pi - 1e-3, 20).tolist():
                cases += [(cut + d, w), (cut + d - w, w)]   # start, then end, at d from the cut
    betas = rng.uniform(-10.0, 10.0, len(cases)).tolist()
    betas[:2] = [0.0, -0.0]
    outcomes, past_pi = set(), 0
    for (s, w), beta in zip(cases, betas):
        sector = [(beta + s, beta + s + w)]
        got, want = [], []
        for fn, into in ((sector_chord_lengths, got), (wrapped_sector_chord_lengths, want)):
            try:
                into.append(fn(sector, beta).tobytes())
            except gx.GeoxrayError as exc:
                into.append((type(exc), str(exc)))
        assert got == want, (s, w, beta)
        outcomes.add(type(got[0]))
        past_pi += isinstance(got[0], bytes) and s + w > math.pi
    assert outcomes == {bytes, tuple} and past_pi > 100


def test_sector_straddling_the_cut_raises():
    with pytest.raises(gx.NearParallelSectorError):
        sector_chord_lengths([(1.0, 2.0)], 0.0)  # cut pi/2 lies inside


# ---------------------------------------------------------------------------
# frozen limits
# ---------------------------------------------------------------------------

def test_frozen_limit_identity_embedding():
    beta = 1.0
    fan = make_fan([(beta - 0.4, beta + 0.3, [0.7 + 0.1j])])
    w = gx.IdentityWeight(1)
    lim = gx.frozen_limit(w, np.array([1.0, 0.0]), np.array([math.cos(beta), math.sin(beta)]), fan)
    assert np.allclose(lim, gx.tangent_line_integral(fan, beta))


def test_frozen_limit_zero_fan():
    fan = make_fan([(0.5, 0.9, [0.0])])
    w = gx.ConstantWeight(np.array([[2, 0], [0, 2], [1, 1]], dtype=complex)[:, :1])
    lim = gx.frozen_limit(w, np.array([1.0, 0.0]), np.array([1.0, 0.0]), fan)
    assert np.all(lim == 0.0)


def test_frozen_limit_constant_matrix_composition():
    beta = 2.0
    value = np.array([0.4 - 0.2j, 1.1 + 0.5j])
    fan = make_fan([(beta - 0.3, beta + 0.2, value)], k=2)
    mat = np.array([[1, 2], [0, 1], [3, 1]], dtype=complex)
    w = gx.ConstantWeight(mat)
    lim = gx.frozen_limit(w, np.zeros(2), np.array([math.cos(beta), math.sin(beta)]), fan)
    ell = sector_chord_lengths([(beta - 0.3, beta + 0.2)], beta)[0]
    assert np.max(np.abs(lim - mat @ (ell * value))) <= 1e-12


# ---------------------------------------------------------------------------
# limit convergence (scaled integrals against the frozen value)
# ---------------------------------------------------------------------------

def test_limit_exact_for_flat_constant_weight(euclidean, anchor_triangle_tiling):
    field = gx.PiecewiseConstantField.from_values([[1.0 - 0.5j]])
    w = gx.ConstantWeight(np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)[:, :1])
    rows = gx.transform.limit_scan(euclidean, w, anchor_triangle_tiling, field,
                                   anchor_angle=0.0,
                                   v_offsets=[math.radians(d) for d in (-20, 0, 15)],
                                   h_values=[2.0 ** -e for e in range(3, 11)],
                                   step=2e-3)
    assert all(r["err"] <= 1e-9 for r in rows)


def test_scaled_integral_normal_direction_closed_form(euclidean, anchor_triangle_tiling):
    # cone [170, 190] deg seen along the inward normal: chord of the unit-offset
    # line is tan(10 deg) - tan(-10 deg), independent of h by similarity
    field = gx.PiecewiseConstantField.from_values([[1.0]])
    w = gx.IdentityWeight(1)
    expected = 2.0 * math.tan(math.radians(10))
    for h in (0.1, 0.02):
        path = unwrap(gx.fan_geodesics(euclidean, np.array([1.0, 0.0]), [(np.array([-1.0, 0.0]), h)], step=2e-3)[0])
        val = forward(euclidean, w, anchor_triangle_tiling, field, path) / h
        assert abs(val[0] - expected) <= 1e-10


def test_limit_decreasing_for_varying_weight(conformal05, anchor_triangle_tiling):
    field = gx.PiecewiseConstantField.from_values([[1.0]])
    w = gx.AngularWeight(1, order=2, amplitude=0.3)
    rows = gx.transform.limit_scan(conformal05, w, anchor_triangle_tiling, field,
                                   anchor_angle=0.0, v_offsets=[0.0],
                                   h_values=[2.0 ** -e for e in range(3, 11)],
                                   step=2e-3)
    errs = [r["err"] for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-3


def test_tangent_line_passes_through_direction_point():
    # the line v + t*w at direction angle beta meets direction beta + arctan(t)
    # at parameter t, so the sector [beta, beta + arctan(2)] holds a chord of length 2
    beta = 0.7
    lengths = gx.transform.sector_chord_lengths([(beta, beta + math.atan(2.0))], beta)
    assert abs(lengths[0] - 2.0) <= 1e-15
    lengths = gx.transform.sector_chord_lengths([(beta - 0.3, beta + 0.2)], beta)
    assert abs(lengths[0] - (math.tan(0.2) + math.tan(0.3))) <= 1e-15


def test_limit_sign_independence_on_symmetric_fan(euclidean, anchor_triangle_tiling):
    field = gx.PiecewiseConstantField.from_values([[0.9 + 0.4j]])
    w = gx.IdentityWeight(1)
    x = np.array([1.0, 0.0])
    v = np.array([-1.0, 0.0])
    plus, minus = (forward(euclidean, w, anchor_triangle_tiling, field,
                           unwrap(gx.fan_geodesics(euclidean, x, [(v, 0.05)], sign=sign, step=2e-3)[0])) / 0.05
                   for sign in (1, -1))
    assert np.max(np.abs(plus - minus)) <= 1e-9
