import json
import math
from pathlib import Path

import numpy as np
import pytest

import geoxray as gx
from geoxray.geometry import (FLOAT_ROWS, _flow, _outside, _radius, _rk4_floats, _trace_rows, boundary_tangents,
                              disk_grid, flow_with_frames, rk4, speed_defect)

from conftest import chord_start, run_bounded
from golden.make_paths import TRACERS, digest
from oracles import fd_christoffel, fd_covariant_hessian_min, observed_order


# ---------------------------------------------------------------------------
# christoffel symbols
# ---------------------------------------------------------------------------

def test_christoffel_euclidean_vanishes(euclidean):
    gamma = euclidean.christoffel(np.array([0.3, 0.1]))
    assert np.all(gamma == 0.0)


def test_christoffel_radial_center_vanishes(conformal10):
    gamma = conformal10.christoffel(np.array([0.0, 0.0]))
    assert np.allclose(gamma, 0.0, atol=1e-15)


def test_christoffel_radial_closed_form(conformal10):
    # alpha = 0.1 at (0.5, 0): d(lam) = (0.1, 0)
    gamma = conformal10.christoffel(np.array([0.5, 0.0]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 0.1
    expected[0, 1, 1] = -0.1
    expected[1, 0, 1] = expected[1, 1, 0] = 0.1
    assert np.allclose(gamma, expected, atol=1e-15)


@pytest.mark.parametrize("family,params,point", [
    ("conformal-radial", [0.1], [0.5, 0.0]),
    ("conformal-radial", [0.05], [-0.2, 0.6]),
    ("conformal-gaussian", [0.3, 0.1, -0.2, 0.5], [0.3, 0.2]),
])
def test_christoffel_matches_finite_difference_oracle(family, params, point):
    metric = gx.metric_from_config(family, params)
    gamma = metric.christoffel(np.array(point))
    oracle = fd_christoffel(metric, np.array(point))
    assert np.max(np.abs(gamma - oracle)) < 1e-8
    # symmetry in the lower pair
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_outside_domain_rejected(conformal10):
    with pytest.raises(gx.DomainError):
        conformal10.christoffel(np.array([1.2, 0.0]))


def test_metric_is_spd_on_disk():
    for family, params in [("euclidean", []), ("conformal-radial", [0.1]),
                           ("conformal-gaussian", [0.4, 0.2, 0.1, 0.6])]:
        metric = gx.metric_from_config(family, params)
        assert np.min(np.linalg.eigvalsh(metric.matrix(disk_grid(25)))) > 0.0


# ---------------------------------------------------------------------------
# geodesic tracing
# ---------------------------------------------------------------------------

def test_euclidean_diameter(euclidean):
    path = gx.trace_geodesic(euclidean, gx.boundary_tangent(euclidean, math.pi, 0.0), step=1e-3)
    assert abs(path.tau - 2.0) <= 1e-9
    assert path.endpoints_on_boundary


def test_euclidean_chord_length_oracle(euclidean):
    # chord at distance 0.5 from the origin: length 2*sqrt(1 - 0.25) = sqrt(3)
    d = 0.5
    half = math.acos(d)
    start = chord_start(euclidean, half, -half)
    path = gx.trace_geodesic(euclidean, start, step=1e-3)
    assert abs(path.tau - math.sqrt(3.0)) <= 1e-8


def test_conformal_tau_self_convergence(conformal05):
    start = gx.boundary_tangent(conformal05, math.pi, 0.0)
    tau_h = gx.trace_geodesic(conformal05, start, step=1e-3).tau
    tau_h2 = gx.trace_geodesic(conformal05, start, step=5e-4).tau
    assert abs(tau_h - tau_h2) <= 1e-6


def test_interior_start_gives_maximal_path(euclidean):
    start = gx.unit_tangent(euclidean, [0.2, 0.1], [1.0, 0.0])
    path = gx.trace_geodesic(euclidean, start, step=1e-2)
    assert path.endpoints_on_boundary
    # the maximal horizontal line through y = 0.1 has length 2*sqrt(1 - 0.01)
    assert abs(path.tau - 2.0 * math.sqrt(1.0 - 0.01)) <= 1e-9


def test_outward_boundary_start_rejected(euclidean):
    with pytest.raises(gx.DomainError):
        gx.trace_geodesic(euclidean, gx.UnitTangent(np.array([1.0, 0.0]), np.array([1.0, 0.0])))


GOLDEN_PATHS = json.loads((Path(__file__).parent / "golden" / "paths.json").read_text())["cases"]


def test_paths_match_golden_digests():
    # tests/golden/paths.json holds digests of the per-ray tracer (see make_paths.py);
    # each start traced on its own must give the same samples bit for bit
    for case in GOLDEN_PATHS:
        metric = gx.metric_from_config(case["metric"], case["params"])
        start = gx.unit_tangent(metric, case["point"], case["direction"])
        path = TRACERS[case["tracer"]](metric, start, step=case["step"])
        assert (path.n_samples, path.tau, digest(path)) == (case["n_samples"], case["tau"], case["sha256"])


def test_batched_paths_match_golden_digests():
    # the maximal starts of one metric and step, traced together in one lockstep call
    groups = {}
    for case in GOLDEN_PATHS:
        if case["tracer"] == "maximal":
            groups.setdefault((case["metric"], tuple(case["params"]), case["step"]), []).append(case)
    for (family, params, step), cases in groups.items():
        metric = gx.metric_from_config(family, params)
        starts = [gx.unit_tangent(metric, c["point"], c["direction"]) for c in cases]
        for case, path in zip(cases, gx.trace_geodesics(metric, starts, step=step)):
            assert (path.n_samples, path.tau, digest(path)) == (case["n_samples"], case["tau"], case["sha256"])


def test_batched_trace_keeps_each_start_error_in_place(euclidean, hexagon24):
    # the paths of one call are views of one PathStack, which clipping takes as it is
    good = gx.boundary_tangent(euclidean, 0.0, math.pi + 0.3)
    outward = gx.UnitTangent(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    not_finite = gx.UnitTangent(np.array([math.nan, 0.0]), np.array([1.0, 0.0]))
    interior = gx.unit_tangent(euclidean, [0.2, -0.1], [0.6, 0.8])
    interior_not_finite = gx.UnitTangent(np.array([0.2, -0.1]), np.array([math.inf, 0.8]))
    boundary = gx.boundary_tangent(euclidean, 2.0, 2.0 + math.pi - 0.5)
    starts = [good, outward, not_finite, good, interior, interior_not_finite, boundary]
    entries = gx.trace_geodesics(euclidean, starts, step=1e-2)
    assert isinstance(entries[1], gx.DomainError)
    for k in (2, 5):
        assert isinstance(entries[k], gx.SceneValidationError) and "not finite" in str(entries[k])
    paths = [entries[k] for k in (0, 3, 4, 6)]
    for k, path in zip((0, 3, 4, 6), paths):
        single = gx.trace_geodesic(euclidean, starts[k], step=1e-2)
        assert [getattr(path, a).tobytes() for a in "txv"] == [getattr(single, a).tobytes() for a in "txv"]
    assert all(path.stack is paths[0].stack for path in paths) and paths[2].endpoints_on_boundary
    assert gx.tiling.clip_plan(hexagon24, paths)[0] is paths[0].stack


def test_boundary_tangents_match_boundary_tangent():
    # the starts of the demo plans in one array pass, bit for bit as built one by
    # one; a descriptor that cannot be built keeps its own error at its row
    from golden.make_plan_clips import SCENES
    from geoxray.recovery import frontier_plan

    plans = []
    for name in ("demo_reconstruct", "demo_spectrum"):
        scene = gx.load_scene(SCENES / f"{name}.json")
        plans.append((scene.metric, gx.scene.scene_chord_descriptors(scene)))
        if scene.foliation is not None:
            _, candidates = frontier_plan(scene.tiling, scene.foliation, scene.chords.frontier)
            descriptors = [desc for batch in candidates for desc in batch]
            plans.append((scene.metric, descriptors))
            plans.append((gx.metric_from_config("conformal-gaussian", [0.4, 0.2, -0.1, 0.5]), descriptors))
    for metric, descriptors in plans:
        starts = boundary_tangents(metric, descriptors)
        assert len(starts) == len(descriptors) > 20
        for (a, d), start in zip(descriptors, starts):
            want = gx.boundary_tangent(metric, a, d)
            assert (start.x.tobytes(), start.v.tobytes()) == (want.x.tobytes(), want.v.tobytes())
    metric, descriptors = plans[1]      # a NaN point has no unit tangent in a curved metric
    bad = list(descriptors)
    bad[3] = (math.nan, bad[3][1])
    starts = boundary_tangents(metric, bad)
    with pytest.raises(gx.SceneValidationError) as want:
        gx.boundary_tangent(metric, *bad[3])
    assert type(starts[3]) is type(want.value) and str(starts[3]) == str(want.value)
    for k in (2, 4, len(bad) - 1):
        want = gx.boundary_tangent(metric, *bad[k])
        assert (starts[k].x.tobytes(), starts[k].v.tobytes()) == (want.x.tobytes(), want.v.tobytes())


def test_exit_test_matches_radius_rule():
    # the tracer's exit test is _radius(y) >= 1 row by row; rows within 1e-15 of
    # the circle take math.hypot's rounding, which np.hypot may miss by a bit
    theta = np.linspace(0.0, 2.0 * math.pi, 4001)
    rows = {r: np.column_stack([r * np.cos(theta), r * np.sin(theta)])
            for r in (0.5, 1.0 - 2e-15, 1.0 - 1e-16, 1.0, 1.0 + 1e-16)}
    for r, x in rows.items():
        near = np.abs(np.hypot(x[:, 0], x[:, 1]) - 1.0) < 1e-15
        assert near.all() if r in (1.0 - 1e-16, 1.0, 1.0 + 1e-16) else not near.any()
        assert _radius(x)[near].tolist() == [math.hypot(*row) for row in x[near].tolist()]
    assert any(math.hypot(*row) != np.hypot(*row) for row in rows[1.0].tolist())
    x = np.concatenate(list(rows.values()) + [[[math.nan, 0.0], [0.1, 0.2]]])
    rng = np.random.default_rng(0)
    for rows_at in [rng.permutation(len(x))[:n] for n in (1, 7, 300, len(x))] + [np.arange(4001)]:
        got, want = _outside(x[rows_at]), _radius(x[rows_at]) >= 1.0
        assert np.array_equal(np.zeros(len(rows_at), dtype=bool) if got is None else got, want)
    # rows all more than 1e-15 inside: one np.hypot and one max tell, and none leaves
    assert _outside(np.concatenate([rows[0.5], rows[1.0 - 2e-15]])) is None
    assert _outside(np.array([[math.nan, 0.0], [0.1, 0.2]])).tolist() == [False, False]


def test_trapping_cap_raises():
    metric = gx.metric_from_config("conformal-radial", [-2.5])
    start = gx.unit_tangent(metric, [0.5, 0.0], [0.0, 1.0])
    with pytest.raises(gx.TrappingSuspectedError):
        gx.trace_geodesic(metric, start, step=1e-2)


def test_trapped_rows_store_no_samples_past_the_budget():
    # on conformal-radial -2.5, r exp(lam) is above its boundary value 0.082 for 0.1 < r < 0.95, so a
    # geodesic that starts tangent to a circle of radius 0.2 to 0.8 never reaches the boundary.  Up to
    # the arclength cap these 240 rows take 4.8e6 samples (a tracer without the budget peaked at 84.7 MB
    # for 60 of them); past MAX_TRACE_SAMPLES they go on unstored and exit 6 at a tracemalloc peak of
    # 69.2 MB (numpy 2.4, Python 3.11)
    done = run_bounded(
        "import math, tracemalloc, numpy as np, geoxray as gx\n"
        "m = gx.metric_from_config('conformal-radial', [-2.5])\n"
        "a, r = np.linspace(0.0, 2.0 * math.pi, 120), np.linspace(0.2, 0.8, 120)\n"
        "starts = [gx.unit_tangent(m, [c * math.cos(b), c * math.sin(b)], [-math.sin(b), math.cos(b)])\n"
        "          for b, c in zip(a, r)]\n"
        "tracemalloc.start()\n"
        "out = gx.trace_geodesics(m, starts, step=1e-2)\n"
        "print(tracemalloc.get_traced_memory()[1], *sorted({getattr(o, 'exit_code', 0) for o in out}))\n",
        timeout=60)
    assert done.returncode == 0, done.stderr
    peak, *codes = done.stdout.split()
    assert codes == ["6"] and int(peak) <= 80_000_000


@pytest.mark.parametrize("budget", [1, 60, 200, 400])
def test_sample_budget_keeps_each_path(monkeypatch, budget):
    # the budget pauses the rows still inside, at any step of the call: the ones that exit resume
    # from there, so each start traces as it does alone, and only a row past its own cap is trapped
    metric = gx.metric_from_config("conformal-radial", [-2.5])
    starts = [gx.unit_tangent(metric, [0.9, 0.0], [math.cos(a), math.sin(a)]) for a in np.linspace(0.0, 1.5, 7)]
    starts += [gx.unit_tangent(metric, [0.6, 0.0], [math.cos(0.5), math.sin(0.5)]),
               gx.boundary_tangent(metric, 2.0, 2.0 + math.pi - 0.3)]
    alone = [gx.trace_geodesics(metric, [start], step=0.05)[0] for start in starts]
    assert sum(isinstance(a, gx.TrappingSuspectedError) for a in alone) == 2
    monkeypatch.setattr(gx.geometry, "MAX_TRACE_SAMPLES", budget)
    for got, want in zip(gx.trace_geodesics(metric, starts, step=0.05), alone):
        assert type(got) is type(want)
        if isinstance(want, gx.GeodesicPath):
            assert [getattr(got, a).tobytes() for a in "txv"] == [getattr(want, a).tobytes() for a in "txv"]


@pytest.mark.parametrize("x0, exits_in_step, transported", [
    (0.625, True, True), (0.625 - 2.0**-53, False, True), (0.625 + 2.0**-52, True, False)])
def test_exit_rules_on_the_unit_circle(euclidean, x0, exits_in_step, transported):
    # one euclidean step of 0.375 along the x axis lands exactly on 1 - 2**-53, 1 or 1 + 2**-52:
    # a row on the circle has left the tracer (>=), but goes on in the transport (>)
    (path,) = _trace_rows(euclidean, np.array([[x0, 0.0, 1.0, 0.0]]), 0.375)[1]
    assert (path.t[-1] < 0.375) == exits_in_step and path.n_samples == 2
    (lane,) = flow_with_frames(euclidean, [gx.unit_tangent(euclidean, [x0, 0.0], [1.0, 0.0])], [[0.0, 1.0]],
                               [0.375], step=0.375)
    if transported:
        assert lane[0].tolist() == [x0 + 0.375, 0.0]
    else:
        assert isinstance(lane, gx.FanConstructionError)


FAMILIES = [("euclidean", []), ("conformal-radial", [0.3]), ("conformal-gaussian", [0.5, 0.1, -0.2, 0.4])]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_float_kernel_matches_numpy_step(family, params):
    # rk4 steps a few rows in Python floats: each row must get numpy's bits, for a scalar step and for a
    # column of steps.  Python's v ** 2 differs from numpy's square on about 1 value in 1,200 and math.exp
    # from np.exp on a few percent, so 100,000 random rows in the disk, and 1,000 rows whose one speed
    # component squares differently by pow, catch a kernel written with either
    rng = np.random.default_rng(17)
    n = 100_000
    r, a, b = np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
    speed = rng.uniform(0.1, 2.0, n)
    y = np.column_stack([r * np.cos(a), r * np.sin(a), speed * np.cos(b), speed * np.sin(b)])
    odd = [s for s in rng.uniform(-2.0, 2.0, 2_000_000).tolist() if s ** 2 != s * s][:1000]
    y[:len(odd), 2:] = np.column_stack([odd, np.zeros(len(odd))])
    rhs = _flow(gx.metric_from_config(family, params))
    assert len(odd) == 1000 and len(y) > FLOAT_ROWS
    for h in (0.01, rng.uniform(0.0, 0.05, (n, 1))):
        assert np.array_equal(_rk4_floats(rhs.accel, y, h), rk4(rhs, y, h))
    assert np.array_equal(rk4(rhs, y[:FLOAT_ROWS], 0.01), rk4(rhs, y, 0.01)[:FLOAT_ROWS])


@pytest.mark.parametrize("family,params", FAMILIES)
def test_paths_do_not_depend_on_the_rows_in_flight(family, params):
    # 40 chords of spread lengths and 2 interior starts: rk4 takes numpy while more than FLOAT_ROWS rows are
    # in flight and Python floats after, and the exits of all are bisected together, on numpy; alone,
    # each row steps in floats throughout.  Each path must be the one its start traces alone, byte for byte
    metric = gx.metric_from_config(family, params)
    starts = [gx.boundary_tangent(metric, a, a + math.pi - d)
              for a, d in zip(np.linspace(0.0, 6.0, 40), np.linspace(0.0, 1.45, 40))]
    starts += [gx.unit_tangent(metric, [0.3, -0.2], [0.6, 0.8]), gx.unit_tangent(metric, [-0.7, 0.1], [0.2, 1.0])]
    paths = gx.trace_geodesics(metric, starts, step=0.01)
    assert len({path.n_samples for path in paths}) > 2 * FLOAT_ROWS
    for start, path in zip(starts, paths):
        alone = gx.trace_geodesic(metric, start, step=0.01)
        assert [getattr(path, a).tobytes() for a in "txv"] == [getattr(alone, a).tobytes() for a in "txv"]


def test_unit_speed_preserved(conformal10):
    start = gx.boundary_tangent(conformal10, 0.3, math.pi + 0.5)
    path = gx.trace_geodesic(conformal10, start, step=1e-2)
    assert speed_defect(conformal10, path) <= 1e-8


def test_reversibility(conformal10):
    start = gx.boundary_tangent(conformal10, 0.7, 0.7 + math.pi - 0.4)
    path = gx.trace_geodesic(conformal10, start, step=5e-3)
    back = gx.trace_geodesic(
        conformal10, gx.unit_tangent(conformal10, path.x[-1], -path.v[-1]), step=5e-3)
    assert np.hypot(*(back.x[-1] - path.x[0])) <= 1e-6


def test_flat_reduction_straight_chord(euclidean):
    start = chord_start(euclidean, 1.0, -2.0)
    path = gx.trace_geodesic(euclidean, start, step=1e-2)
    a, b = path.x[0], path.x[-1]
    d = (b - a) / np.hypot(*(b - a))
    # distance of every sample to the chord line
    offsets = (path.x - a) @ np.array([-d[1], d[0]])
    assert np.max(np.abs(offsets)) <= 1e-9


def test_tau_step_halving_order():
    metric = gx.metric_from_config("conformal-radial", [0.3])
    start = gx.boundary_tangent(metric, 0.9, 0.9 + math.pi + 0.3)
    taus = [gx.trace_geodesic(metric, start, step=s).tau for s in (1e-2, 5e-3, 2.5e-3)]
    assert observed_order(taus) >= 3.5


def test_sample_spacing_bounded(conformal05):
    path = gx.trace_geodesic(conformal05, gx.boundary_tangent(conformal05, 0.0, math.pi), step=1e-2)
    assert np.diff(path.t).max() <= 1e-2 + 1e-12


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

def parallel_transport(metric, path, w0):
    """Transport ``w0`` along the path samples; returns an ``(n, 2)`` array.

    On each sample interval ``(x, v, w)`` starts from the sample's ``(x, v)``
    and takes two ``rk4`` substeps of the geodesic flow with ``w`` carried by
    ``w' = -Gamma(x)(v, w)``, so no accuracy is lost against the tracer.
    """
    rhs = _flow(metric)
    out = np.empty((path.n_samples, 2))
    out[0] = np.asarray(w0, dtype=float)
    for i, h in enumerate(np.diff(path.t) / 2.0):
        y = np.concatenate([path.x[i], path.v[i], out[i]])[None]
        out[i + 1] = rk4(rhs, rk4(rhs, y, h), h)[0, 4:]
    return out


def test_transport_lanes_do_not_interact(conformal05):
    # lanes of different lengths, one that leaves the disk before its length and one
    # with a bad length, in one call: each is, bit for bit, a call on it alone
    starts = [gx.boundary_tangent(conformal05, a, a + math.pi - d)
              for a, d in ((0.3, 0.2), (1.9, 0.5), (4.0, 1.2), (2.5, 0.1), (5.1, 0.0))]
    frames = [conformal05.rotate90(s.x, s.v) for s in starts]
    lengths = [0.0537, 0.7123, 3.5, -1.0, 1.3049]
    lanes = flow_with_frames(conformal05, starts, frames, lengths, step=0.01)
    assert isinstance(lanes[2], gx.FanConstructionError) and isinstance(lanes[3], gx.SceneValidationError)
    for lane, start, frame, length in zip(lanes, starts, frames, lengths):
        (alone,) = flow_with_frames(conformal05, [start], [frame], [length], step=0.01)
        if isinstance(alone, gx.GeoxrayError):
            assert (type(lane), str(lane)) == (type(alone), str(alone))
        else:
            assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]


def test_transport_flat_is_constant(euclidean):
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.5, 2.5), step=1e-2)
    w = parallel_transport(euclidean, path, np.array([0.0, 1.0]))
    assert np.max(np.abs(w - np.array([0.0, 1.0]))) <= 1e-12


@pytest.mark.parametrize("family,params", [("euclidean", []), ("conformal-radial", [0.1])])
def test_transport_of_velocity_is_velocity(family, params):
    metric = gx.metric_from_config(family, params)
    path = gx.trace_geodesic(metric, gx.boundary_tangent(metric, 1.2, 1.2 + math.pi - 0.3), step=5e-3)
    w = parallel_transport(metric, path, path.v[0])
    assert np.max(np.abs(w - path.v)) <= 1e-8


def test_transport_preserves_orthogonality(conformal10):
    path = gx.trace_geodesic(conformal10, gx.boundary_tangent(conformal10, 2.0, 2.0 + math.pi + 0.4),
                             step=5e-3)
    w0 = conformal10.rotate90(path.x[0], path.v[0])
    w = parallel_transport(conformal10, path, w0)
    inners = [conformal10.inner(path.x[i], w[i], path.v[i]) for i in range(path.n_samples)]
    norms = [conformal10.norm(path.x[i], w[i]) for i in range(path.n_samples)]
    assert max(abs(v) for v in inners) <= 1e-8
    assert max(abs(n - 1.0) for n in norms) <= 1e-8


# ---------------------------------------------------------------------------
# convexity margin
# ---------------------------------------------------------------------------

def test_convexity_margin_flat_radial(euclidean):
    phi = gx.RadialSquare()
    assert abs(gx.convexity_margin(euclidean, phi, 50) - 2.0) <= 1e-9


def test_convexity_margin_linear_function(euclidean):
    class Linear:
        def value(self, x):
            return float(x[0])

        def grad(self, x):
            return np.array([1.0, 0.0])

        def hess(self, x):
            return np.zeros((2, 2))

    assert abs(gx.convexity_margin(euclidean, Linear(), 50)) <= 1e-9


def test_convexity_margin_conformal_vs_fd_oracle(conformal05):
    phi = gx.RadialSquare()
    pts = disk_grid(15)
    margin = gx.convexity_margin(conformal05, phi, pts)
    assert margin > 0.0
    assert abs(margin - fd_covariant_hessian_min(conformal05, phi, pts)) <= 1e-5
