import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoxray as gx
from geoxray.geometry import (EVENT_WIDTH, EXIT_BLOCK, FLOAT_ROWS, PathStack, _bisect_lanes, _outside,
                              _radius, _rk4_floats, _trace_rows, boundary_tangents, disk_grid, flow_geodesics, rk4,
                              speed_defect, unit_tangents, unwrap)
from geoxray.scene import random_chord_descriptors, scene_chord_descriptors

from conftest import chord_start, run_bounded
from golden.make_paths import TRACERS, digest
from oracles import (bisect_stack, fd_christoffel, fd_covariant_hessian_min, observed_order, row_flow, row_rk4,
                     scalar_rotate90, scalar_unit_tangent, transport_step)


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


def _entry(normalize, metric, x, v):
    try:
        return normalize(metric, x, v)
    except gx.GeoxrayError as exc:
        return exc


def _same_entry(got, want):
    if isinstance(want, gx.GeoxrayError):
        return type(got) is type(want) and str(got) == str(want)
    return (got.x.tobytes(), got.v.tobytes()) == (want.x.tobytes(), want.v.tobytes())


def test_boundary_tangents_match_boundary_tangent():
    # the starts of the demo plans in one array pass, bit for bit as the scalar oracle normalizes them one by
    # one; a row that cannot be normalized keeps its own error, type and text, at its place
    from golden.make_plan_clips import SCENES
    from geoxray.recovery import frontier_plan

    plans = []
    for name in ("demo_reconstruct", "demo_spectrum"):
        scene = gx.load_scene(SCENES / f"{name}.json")
        plans.append((scene.metric, gx.scene.scene_chord_descriptors(scene)))
        if scene.foliation is not None:
            _, candidates = frontier_plan(scene.tiling, scene.foliation, scene.chords)
            descriptors = [desc for batch in candidates for desc in batch]
            plans.append((scene.metric, descriptors))
            plans.append((gx.metric_from_config("conformal-gaussian", [0.4, 0.2, -0.1, 0.5]), descriptors))
    for metric, descriptors in plans:
        starts = boundary_tangents(metric, descriptors)
        assert len(starts) == len(descriptors) > 20
        for (a, d), start in zip(descriptors, starts):
            want = scalar_unit_tangent(metric, [math.cos(a), math.sin(a)], [math.cos(d), math.sin(d)])
            assert _same_entry(start, want) and _same_entry(gx.boundary_tangent(metric, a, d), want)
    metric, descriptors = plans[1]      # a NaN point has no unit tangent in a curved metric
    bad = list(descriptors)
    bad[3] = (math.nan, bad[3][1])
    starts = boundary_tangents(metric, bad)
    for k in (2, 3, 4, len(bad) - 1):
        a, d = bad[k]
        want = _entry(scalar_unit_tangent, metric, [math.cos(a), math.sin(a)], [math.cos(d), math.sin(d)])
        assert isinstance(want, gx.GeoxrayError) == (k == 3) and _same_entry(starts[k], want)
    # rows of each error kind among good rows, in one unit_tangents call and one by one; a point outside the disk
    # with a zero direction takes the first error of the three
    x = [[0.2, 0.1], [math.nan, 0.0], [0.3, -0.4], [1.2, 0.0], [0.0, -0.5], [0.6, 0.8], [0.1, 0.1], [-1.5, 0.0]]
    v = [[1.0, 0.3], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-0.2, 0.7], [-0.6, 0.1], [math.inf, 0.0], [0.0, 0.0]]
    kinds = [gx.UnitTangent, gx.SceneValidationError, gx.SceneValidationError, gx.DomainError, gx.UnitTangent,
             gx.UnitTangent, gx.SceneValidationError, gx.DomainError]
    for metric in (plans[0][0], plans[2][0]):
        rows = unit_tangents(metric, x, v)
        assert len(rows) == len(x)
        for row, p, d, kind in zip(rows, x, v, kinds):
            want = _entry(scalar_unit_tangent, metric, p, d)
            assert type(want) is kind and _same_entry(row, want)
            assert _same_entry(_entry(gx.unit_tangent, metric, p, d), want)


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
        # flow_geodesics' rule: a row on the circle has not left
        got, want = _outside(x[rows_at], np.greater), _radius(x[rows_at]) > 1.0
        assert np.array_equal(np.zeros(len(rows_at), dtype=bool) if got is None else got, want)
    # rows all more than 1e-15 inside: one np.hypot and one max tell, and none leaves
    assert _outside(np.concatenate([rows[0.5], rows[1.0 - 2e-15]])) is None
    # the few rows of a bisection call take the same one test: np.hypot and max, however few the rows
    for chunk in np.array_split(x[rng.permutation(len(x))], len(x) // FLOAT_ROWS + 1):
        got = _outside(chunk)
        assert len(chunk) <= FLOAT_ROWS and (got is None) == (np.hypot(chunk[:, 0], chunk[:, 1]).max() < 1.0 - 1e-15)
        assert np.array_equal(np.zeros(len(chunk), dtype=bool) if got is None else got, _radius(chunk) >= 1.0)
        got = _outside(chunk, np.greater)
        assert np.array_equal(np.zeros(len(chunk), dtype=bool) if got is None else got, _radius(chunk) > 1.0)
    # a row less than 1e-15 inside the circle is not declared inside: it takes the rule
    assert _outside(rows[0.5][:FLOAT_ROWS]) is None and _outside(rows[1.0 - 1e-16][:1]) is not None
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
    # from there, so each start traces as it does alone, and only a row past its own cap is trapped.
    # The 9 starts (17 rows) walk from the start; of the 2 * FLOAT_ROWS starts (56 rows), which take
    # two lockstep steps, the budgets of 1 and 60 pause the lockstep, and those of 200 and 400 the walk
    metric = gx.metric_from_config("conformal-radial", [-2.5])
    starts = [gx.unit_tangent(metric, [0.9, 0.0], [math.cos(a), math.sin(a)]) for a in np.linspace(0.0, 1.5, 7)]
    starts += [gx.unit_tangent(metric, [0.6, 0.0], [math.cos(0.5), math.sin(0.5)]),
               gx.boundary_tangent(metric, 2.0, 2.0 + math.pi - 0.3)]
    more = 2 * FLOAT_ROWS - len(starts)
    starts += [gx.boundary_tangent(metric, a, a + math.pi - d)
               for a, d in zip(np.linspace(0.5, 6.0, more), np.linspace(0.0, 1.4, more))]
    alone = [gx.trace_geodesics(metric, [start], step=0.05)[0] for start in starts]
    assert sum(isinstance(a, gx.TrappingSuspectedError) for a in alone) == 2
    monkeypatch.setattr(gx.geometry, "MAX_TRACE_SAMPLES", budget)
    for n in (9, len(starts)):
        for got, want in zip(gx.trace_geodesics(metric, starts[:n], step=0.05), alone):
            assert type(got) is type(want)
            if isinstance(want, gx.GeodesicPath):
                assert [getattr(got, a).tobytes() for a in "txv"] == [getattr(want, a).tobytes() for a in "txv"]


def plain_bisect(below, lo, hi, width, *lanes, guess=None):
    """The scalar loop of ``_bisect_lanes`` lane by lane, one ``below`` call per turn; with a ``guess``,
    also each lane's turns on the walk its guess predicts and its turns after the first it predicts wrong."""
    roots, walks, after = [], [], []
    for i, g in enumerate(np.full(len(lo), np.nan) if guess is None else guess):
        l, h, turns, wrong = lo[i], hi[i], 0, None
        while h - l > width[i]:
            m = 0.5 * (l + h)
            down = bool(below(np.array([m]), *(a[i:i + 1] for a in lanes))[0])
            wrong = turns if wrong is None and down != (g <= m) else wrong
            l, h, turns = (l, m, turns + 1) if down else (m, h, turns + 1)
        roots.append(0.5 * (l + h))
        after.append(0 if wrong is None else turns - wrong - 1)
        l, h, walk = lo[i], hi[i], 0
        while h - l > width[i]:
            m, walk = 0.5 * (l + h), walk + 1
            l, h = (l, m) if g <= m else (m, h)
        walks.append(walk)
    return np.array(roots), walks, after


def noisy_below(mid, root, band):
    """The root lies below ``mid`` past ``root``, except within ``band`` of it, where a hash of the
    bits of ``mid`` tells: monotone outside the band, and the same answer for the same ``mid``."""
    noise = (mid.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(63) == 1
    return np.where(np.abs(mid - root) <= band, noise, mid > root)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 4.0), st.floats(1e-9, 1.0), st.floats(-5.0, 5.0),
                          st.floats(0.0, 1.0), st.one_of(st.floats(), st.floats(-5.0, 5.0))), min_size=1, max_size=6),
       st.integers(1, 40))
def test_bisect_lanes_does_not_depend_on_the_guess(lanes, block):
    # below is monotone but for a noisy band about each root: whatever the guess, and however few
    # midpoints a check takes, every lane ends where the scalar loop ends
    lo, span, width, root, band, guess = (np.array(c) for c in zip(*lanes))
    hi = lo + span
    want = plain_bisect(noisy_below, lo, hi, width, root, band)[0]
    saved = gx.geometry.EXIT_BLOCK, gx.geometry.WALK_LANES
    try:
        gx.geometry.EXIT_BLOCK = block
        # the lane count on either side of the switch: walked in Python floats, then in numpy
        for gx.geometry.WALK_LANES in (len(lo), len(lo) - 1):
            for g in (None, guess, root, lo, hi, np.full(len(lo), np.nan)):
                assert _bisect_lanes(noisy_below, lo, hi, width, root, band, guess=g).tobytes() == want.tobytes()
    finally:
        gx.geometry.EXIT_BLOCK, gx.geometry.WALK_LANES = saved


def guess_plans():
    """Plans whose exits are hard to guess or many: the fan-limit members at h = 2**-10, boundary
    starts within 1e-9 of tangent, random chords, and chords whose walks fill more than two checks."""
    metric = gx.metric_from_config("conformal-radial", [0.05])
    offsets = np.radians([-28.0, -14.0, 0.0, 14.0, 28.0])
    fan = [(np.array([-math.cos(o), -math.sin(o)]), 2.0 ** -10) for o in offsets]
    tangent = [gx.boundary_tangent(metric, a, a + side * (0.5 * math.pi + d))
               for a in (0.0, 1.0, 2.5) for side in (1, -1) for d in (0.0, -1e-12, -1e-10, -1e-9)]
    many = 3 * EXIT_BLOCK // int(math.log2(0.01 / EVENT_WIDTH))
    return {
        "fan": lambda: gx.fan_geodesics(metric, [1.0, 0.0], fan, step=0.002),
        "tangent": lambda: gx.trace_geodesics(metric, tangent, step=0.01),
        "chords": lambda: gx.trace_geodesics(metric, [gx.boundary_tangent(metric, a, d) for a, d in
                                                      random_chord_descriptors(40, np.random.default_rng(3))]),
        "many": lambda: gx.trace_geodesics(metric, [gx.boundary_tangent(metric, a, d) for a, d in
                                                    random_chord_descriptors(many, np.random.default_rng(5))]),
    }


@pytest.mark.parametrize("plan", ["fan", "tangent", "chords", "many"])
def test_exit_times_do_not_depend_on_the_guess(monkeypatch, plan):
    # the guess only predicts the bisection's turns, which below then checks: NaN, the bracket's ends
    # or a random point in it must give the stack of the Newton guess, byte for byte
    trace = guess_plans()[plan]
    paths = trace()
    assert all(isinstance(p, gx.GeodesicPath) for p in paths)
    want = [getattr(paths[0].stack, a).tobytes() for a in ("t", "x", "v", "first", "stop")]
    rng = np.random.default_rng(8)
    for guess in (lambda s, n: np.full(n, np.nan), lambda s, n: np.zeros(n), lambda s, n: np.full(n, s),
                  lambda s, n: rng.uniform(0.0, s, n)):
        monkeypatch.setattr(gx.geometry, "_exit_guess", lambda metric, y0, step: guess(step, y0.shape[1]))
        stack = trace()[0].stack
        assert [getattr(stack, a).tobytes() for a in ("t", "x", "v", "first", "stop")] == want


@pytest.mark.parametrize("plan", ["forward-refined", "demo"])
def test_exits_are_located_with_one_check_per_block(monkeypatch, plan):
    # every midpoint of every lane's predicted walk is checked EXIT_BLOCK to a call of below, and only
    # the lanes it contradicts go on in passes of one turn: plain bisection takes 37 calls on these plans.
    # The 4 chords take one check; the 450 take 5 checks of their 16,650 midpoints and one pass for the 4
    # lanes contradicted on their last turn but one, 3.6e-14 from the root
    metric = gx.metric_from_config("conformal-radial", [0.05])
    descriptors = random_chord_descriptors(4, np.random.default_rng(0))
    if plan == "demo":
        demo = gx.load_scene(str(Path(__file__).resolve().parents[1] / "scenes" / "demo_reconstruct.json"))
        metric, descriptors = demo.metric, scene_chord_descriptors(demo)
    bisect, calls, expected = gx.geometry._bisect_lanes, [], []

    def counted(below, lo, hi, width, *lanes, guess=None):
        _, walks, after = plain_bisect(below, lo, hi, np.broadcast_to(width, lo.shape), *lanes, guess=guess)
        expected.append(-(-sum(walks) // EXIT_BLOCK) + max(after))
        return bisect(lambda *a: calls.append(1) or below(*a), lo, hi, width, *lanes, guess=guess)
    monkeypatch.setattr(gx.geometry, "_bisect_lanes", counted)
    gx.trace_geodesics(metric, [gx.boundary_tangent(metric, a, d) for a, d in descriptors], step=0.01)
    assert len(calls) == expected[0] and len(expected) == 1
    assert len(calls) == (1 if plan == "forward-refined" else 6)


@pytest.mark.parametrize("x0, exits_in_step, flowed", [
    (0.625, True, True), (0.625 - 2.0**-53, False, True), (0.625 + 2.0**-52, True, False)])
def test_exit_rules_on_the_unit_circle(euclidean, x0, exits_in_step, flowed):
    # one euclidean step of 0.375 along the x axis lands exactly on 1 - 2**-53, 1 or 1 + 2**-52:
    # a row on the circle has left the tracer (>=), but goes on in flow_geodesics (>)
    (path,) = _trace_rows(euclidean, np.array([[x0, 0.0, 1.0, 0.0]]), 0.375)[1]
    assert (path.t[-1] < 0.375) == exits_in_step and path.n_samples == 2
    (lane,) = flow_geodesics(euclidean, [gx.unit_tangent(euclidean, [x0, 0.0], [1.0, 0.0])], [0.375], step=0.375)
    if flowed:
        assert lane[0].tolist() == [x0 + 0.375, 0.0]
    else:
        assert isinstance(lane, gx.FanConstructionError)


FAMILIES = [("euclidean", []), ("conformal-radial", [0.3]), ("conformal-gaussian", [0.5, 0.1, -0.2, 0.4])]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_float_kernel_matches_numpy_step(family, params):
    # rk4 steps the columns of a (4, N) state, and a few of them in Python floats: each must get the bits of the
    # row-major numpy step of the reference oracle, signed zeros included, for a scalar step and for a step per
    # row, from a C-ordered or an F-ordered state.  Python's v ** 2 differs from numpy's square on about 1 value
    # in 1,200 and math.exp from np.exp on a few percent, so 100,000 random rows in the disk, 1,000 rows whose one
    # speed component squares differently by pow, and 1,000 rows with signed zeros catch a kernel written with
    # either or reassociated; the step of 0.5 carries a last-bit slip at a later stage into the result, where
    # 0.01 rounds it away
    rng = np.random.default_rng(17)
    n = 100_000
    r, a, b = np.sqrt(rng.uniform(0.0, 1.0, n)), *rng.uniform(0.0, 2.0 * math.pi, (2, n))
    speed = rng.uniform(0.1, 2.0, n)
    y = np.column_stack([r * np.cos(a), r * np.sin(a), speed * np.cos(b), speed * np.sin(b)])
    odd = [s for s in rng.uniform(-2.0, 2.0, 2_000_000).tolist() if s ** 2 != s * s][:1000]
    y[:1000, 2:] = np.column_stack([odd, np.zeros(len(odd))])
    zeros = rng.uniform(size=(1000, 4)) < 0.3
    y[2000:3000][zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, 0.0, -0.0)
    metric = gx.metric_from_config(family, params)
    assert len(odd) == 1000 and len(y) > FLOAT_ROWS and np.signbit(y[2000:3000][zeros]).any()
    for h in (0.01, 0.5, rng.uniform(0.0, 0.05, (n, 1))):
        want = row_rk4(metric, y, h)
        assert _rk4_floats(metric, y, h).tobytes() == want.tobytes()
        row = h if np.ndim(h) == 0 else h[:, 0]
        for state in (np.ascontiguousarray(y.T), y.T):
            assert state.flags.c_contiguous != state.flags.f_contiguous
            assert rk4(metric, state, row).T.tobytes() == want.tobytes()
            # as rk4 takes them a few at a time: the signed-zero rows, and the first ones of each kind
            for i in (*range(2000, 3000, FLOAT_ROWS), 0, 1000):
                few = rk4(metric, state[:, i:i + FLOAT_ROWS], row if np.ndim(h) == 0 else row[i:i + FLOAT_ROWS])
                assert few.T.tobytes() == want[i:i + FLOAT_ROWS].tobytes()


@pytest.mark.parametrize("family,params", FAMILIES)
def test_accel_takes_components_first(family, params):
    # MetricField.accel takes x and v components first, (2, N), and returns (2, N): transposed, it must give the
    # bits of the reference's row-major acceleration on rows (N, 2), and rows pass as accel(x.T, v.T).T
    rng = np.random.default_rng(29)
    r, a, b = np.sqrt(rng.uniform(0.0, 1.0, 1000)), *rng.uniform(0.0, 2.0 * math.pi, (2, 1000))
    y = np.column_stack([r * np.cos(a), r * np.sin(a), np.cos(b), np.sin(b)])
    metric = gx.metric_from_config(family, params)
    want = row_flow(metric, y)[:, 2:]
    assert metric.accel(y[:, :2].T, y[:, 2:].T).shape == (2, len(y))
    assert metric.accel(y[:, :2].T, y[:, 2:].T).T.tobytes() == want.tobytes()
    assert metric.accel(y[:1, :2].T, y[:1, 2:].T).T.tobytes() == want[:1].tobytes()


def rows_in_flight_starts(metric):
    """80 chords of spread lengths and 2 interior starts."""
    starts = [gx.boundary_tangent(metric, a, a + math.pi - d)
              for a, d in zip(np.linspace(0.0, 6.0, 80), np.linspace(0.0, 1.45, 80))]
    return starts + [gx.unit_tangent(metric, [0.3, -0.2], [0.6, 0.8]),
                     gx.unit_tangent(metric, [-0.7, 0.1], [0.2, 1.0])]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_paths_do_not_depend_on_the_rows_in_flight(family, params):
    # 80 chords of spread lengths and 2 interior starts: they step in lockstep on numpy while more than
    # FLOAT_ROWS rows are in flight, and the rest walk on one at a time in Python floats, and the exits of all
    # are located together; alone, each row walks throughout.  Each path must be the one its start traces
    # alone, byte for byte
    metric = gx.metric_from_config(family, params)
    starts = rows_in_flight_starts(metric)
    paths = gx.trace_geodesics(metric, starts, step=0.01)
    assert len({path.n_samples for path in paths}) > 2 * FLOAT_ROWS
    alone = [gx.trace_geodesic(metric, start, step=0.01) for start in starts]
    for path, want in zip(paths, alone):
        assert [getattr(path, a).tobytes() for a in "txv"] == [getattr(want, a).tobytes() for a in "txv"]
    # exactly FLOAT_ROWS rows walk from the start; one more take a lockstep step first
    for n in (FLOAT_ROWS, FLOAT_ROWS + 1):
        for path, want in zip(gx.trace_geodesics(metric, starts[:n], step=0.01), alone):
            assert [getattr(path, a).tobytes() for a in "txv"] == [getattr(want, a).tobytes() for a in "txv"]


@pytest.mark.parametrize("family,params", FAMILIES)
def test_numpy_steps_take_a_c_ordered_state(monkeypatch, family, params):
    # the tracer's numpy state is one C-ordered (4, N) array from the first step through the exit bisection and
    # the last exit step: an F-ordered one, as the index that drops exited columns returns, steps 1.5 times as long
    metric = gx.metric_from_config(family, params)
    contiguous = []

    def recording(metric, y, h):
        if y.shape[1] > FLOAT_ROWS:
            contiguous.append(y.flags.c_contiguous)
        return rk4(metric, y, h)
    monkeypatch.setattr(gx.geometry, "rk4", recording)
    gx.trace_geodesics(metric, rows_in_flight_starts(metric), step=0.01)
    assert len(contiguous) > 100 and all(contiguous)


def test_few_rows_are_stepped_without_a_lockstep_pass(monkeypatch):
    # the 4 forward-refined chords walk to their exits in Python floats: rk4 is called only to locate
    # the exits (Newton guess, checked turns, exit samples), 5 times, not once per numpy step (189)
    metric = gx.metric_from_config("conformal-radial", [0.05])
    starts = [gx.boundary_tangent(metric, a, d) for a, d in random_chord_descriptors(4, np.random.default_rng(0))]
    calls = []
    monkeypatch.setattr(gx.geometry, "rk4", lambda *a: calls.append(a[1].shape[1]) or rk4(*a))
    paths = gx.trace_geodesics(metric, starts, step=0.01)
    assert sum(p.n_samples for p in paths) > 190 and 0 < len(calls) <= 10


@pytest.mark.parametrize("family,params", FAMILIES)
def test_tangent_boundary_start_is_a_one_sample_path(family, params, hexagon24):
    # a start on the circle, tangent to it, leaves at once: its path is the start alone, with no interval to
    # interpolate on, so it sits at the start at every arclength and meets no triangle
    metric = gx.metric_from_config(family, params)
    start = gx.unit_tangent(metric, [1.0, 0.0], [0.0, 1.0])
    path = gx.trace_geodesic(metric, start)
    assert path.n_samples == 1 and path.tau == 0.0
    for t in (0.0, 0.5, -1.0, np.linspace(0.0, 1.0, 7), np.zeros((2, 3))):
        got = path.position(t)
        assert got.shape == np.shape(t) + (2,) and (got == start.x).all()
    field = gx.PiecewiseConstantField.from_values((np.arange(1.0, 25.0) + 0.5j)[:, None])
    (row,) = gx.plan_weight_integrals(metric, gx.IdentityWeight(1), hexagon24, [start]).apply(field)
    assert (row == 0.0).all()


def test_stack_search_matches_the_bisection():
    # one searchsorted of (path, arclength) keys gives the bisection's rows on every plan of make_plan_clips.py,
    # on a one-sample path among others and on an empty stack: for random arclengths, every sample time, signed
    # zeros and infinities, past each path's end and NaN (its path's first row, where numpy sorts it last)
    from golden.make_plan_clips import plans

    metric = gx.metric_from_config("conformal-radial", [0.05])
    tangent = gx.trace_geodesic(metric, gx.unit_tangent(metric, [1.0, 0.0], [0.0, 1.0]))
    chords = [unwrap(p) for p in gx.trace_geodesics(metric, [chord_start(metric, a, b) for a, b in ((0.3, 2.5), (4, 1))])]
    stacks = [PathStack.of(paths) for _, _, paths in plans()]
    stacks += [PathStack.of([tangent]), PathStack.of([chords[0], tangent, chords[1]])]
    rng = np.random.default_rng(24)
    for stack in stacks:
        path, q = [], []
        for p, (a, b) in enumerate(zip(stack.first.tolist(), stack.stop.tolist())):
            tau = stack.t[b - 1]
            times = [rng.uniform(-0.1, tau + 0.1, 16), stack.t[a:b], [0.0, -0.0, np.inf, -np.inf, tau + 1.0, np.nan]]
            q += times
            path.append(np.full(sum(map(len, times)), p))
        path, q = np.concatenate(path), np.concatenate(q)
        shuffle, even = rng.permutation(len(q)), len(q) // 2 * 2
        for path_q in ((path, q), (path[shuffle], q[shuffle]), (path[:even].reshape(2, -1), q[:even].reshape(2, -1))):
            want = bisect_stack(stack.t, stack.first, stack.stop, *path_q)
            got = stack.search(*path_q)
            assert got.shape == want.shape and (got == want).all()
        assert (stack.search(path[np.isnan(q)], q[np.isnan(q)]) == stack.first).all()
    empty = PathStack.of([])
    assert empty.search(np.zeros(0, dtype=int), np.zeros(0)).shape == (0,)


def hypothesis_start(metric, spec):
    """A boundary start ``("boundary", angle, turn)``, pointing inward at ``turn`` from the diameter, or an
    interior start ``("interior", radius, angle, direction)``."""
    if spec[0] == "boundary":
        _, a, d = spec
        return gx.boundary_tangent(metric, a, a + math.pi - d)
    _, r, b, c = spec
    return gx.unit_tangent(metric, [r * math.cos(b), r * math.sin(b)], [math.cos(c), math.sin(c)])


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FAMILIES), st.lists(st.one_of(
    st.tuples(st.just("boundary"), st.floats(0.0, 2.0 * math.pi), st.floats(-1.5, 1.5)),
    st.tuples(st.just("interior"), st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi),
              st.floats(0.0, 2.0 * math.pi))), min_size=1, max_size=2 * FLOAT_ROWS + 4))
def test_batched_path_is_the_path_traced_alone(family, specs):
    # any batch of boundary and interior starts (an interior start is two rows), stepped in lockstep, walked
    # one row at a time, or first one then the other: each path must be the one its start traces alone
    metric = gx.metric_from_config(*family)
    starts = [hypothesis_start(metric, spec) for spec in specs]
    for path, start in zip(gx.trace_geodesics(metric, starts, step=0.05), starts):
        alone = gx.trace_geodesics(metric, [start], step=0.05)[0]
        assert type(path) is type(alone)
        if isinstance(alone, gx.GeodesicPath):
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
    and takes two substeps of the oracle's RK4 ``transport_step``, with ``w``
    carried by ``w' = -Gamma(x)(v, w)``, so no accuracy is lost against the tracer.
    """
    out = np.empty((path.n_samples, 2))
    out[0] = np.asarray(w0, dtype=float)
    for i, h in enumerate(np.diff(path.t) / 2.0):
        y = np.concatenate([path.x[i], path.v[i], out[i]])[None]
        out[i + 1] = transport_step(metric, transport_step(metric, y, h), h)[0, 4:]
    return out


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("family,params", [
    ("euclidean", []), ("conformal-radial", [0.05]), ("conformal-radial", [1.0]),
    ("conformal-gaussian", [1.0, 0.0, 0.0, 0.5])])
def test_transported_normal_is_the_rotated_velocity(family, params, sign):
    # fan_geodesics takes the transported normal as rotate90_rows(x, v, sign): the rotation by sign * pi/2 is
    # parallel, and the RK4 stages of w = Jv are J of the stages of v, so the oracle's joint transport of the
    # rotated v0 at x0 stays the rotated v at x at every step up to rounding
    metric = gx.metric_from_config(family, params)
    rng = np.random.default_rng(5)
    r, a, b = np.sqrt(rng.uniform(0.0, 0.36, 30)), *rng.uniform(0.0, 2.0 * math.pi, (2, 30))
    starts = unit_tangents(metric, np.column_stack([r * np.cos(a), r * np.sin(a)]),
                           np.column_stack([np.cos(b), np.sin(b)]))
    x, v = np.array([s.x for s in starts]), np.array([s.v for s in starts])
    y = np.column_stack([x, v, [metric.rotate90_rows([p], [u], sign)[0] for p, u in zip(x, v)]])
    w0 = y[:, 4:].copy()
    for _ in range(30):
        y = transport_step(metric, y, 0.01)
        normal = np.array([metric.rotate90_rows([row[:2]], [row[2:4]], sign)[0] for row in y])
        assert np.abs(y[:, 4:] - normal).max() <= 1e-15
    # the normal turned in the chart wherever the metric is curved
    assert (np.abs(y[:, 4:] - w0).max() > 1e-3) == (family != "euclidean")


@pytest.mark.parametrize("family,params", FAMILIES)
def test_rotated_rows_match_one_row_rotations(family, params):
    # fan_geodesics turns all its offset velocities in one rotate90_rows pass: each row must get the bits of a
    # one-row call and of a 2x2 solve of that row alone (scalar_rotate90), for either sign, on random rows
    # with zero and negative-zero velocity components, some rows all zero
    metric = gx.metric_from_config(family, params)
    rng = np.random.default_rng(41)
    n = 2000
    r, a = np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2.0 * math.pi, n)
    x, v = np.column_stack([r * np.cos(a), r * np.sin(a)]), rng.uniform(-2.0, 2.0, (n, 2))
    zeros = rng.uniform(size=(n, 2)) < 0.2
    v[zeros] = np.where(rng.uniform(size=zeros.sum()) < 0.5, 0.0, -0.0)
    assert np.signbit(v[zeros]).any() and not np.signbit(v[zeros]).all() and zeros.all(axis=1).sum() > 20
    for sign in (1, -1):
        rows = metric.rotate90_rows(x, v, sign)
        assert rows.shape == (n, 2)
        for p, u, row in zip(x, v, rows):
            one = metric.rotate90_rows([p], [u], sign)[0]
            assert row.tobytes() == one.tobytes() == scalar_rotate90(metric, p, u, sign).tobytes()


def test_transport_lanes_do_not_interact(conformal05):
    # lanes of different lengths, one that leaves the disk before its length and one
    # with a bad length, in one call: each is, bit for bit, a call on it alone
    starts = [gx.boundary_tangent(conformal05, a, a + math.pi - d)
              for a, d in ((0.3, 0.2), (1.9, 0.5), (4.0, 1.2), (2.5, 0.1), (5.1, 0.0))]
    lengths = [0.0537, 0.7123, 3.5, -1.0, 1.3049]
    lanes = flow_geodesics(conformal05, starts, lengths, step=0.01)
    assert isinstance(lanes[2], gx.FanConstructionError) and isinstance(lanes[3], gx.SceneValidationError)
    for lane, start, length in zip(lanes, starts, lengths):
        (alone,) = flow_geodesics(conformal05, [start], [length], step=0.01)
        if isinstance(alone, gx.GeoxrayError):
            assert (type(lane), str(lane)) == (type(alone), str(alone))
        else:
            assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]


def spread_lanes(metric):
    """2 * FLOAT_ROWS boundary starts and lengths spread so that some lanes leave the disk first; the last two
    lanes run along the x axis."""
    starts = [gx.boundary_tangent(metric, a, a + math.pi - d)
              for a, d in zip(np.linspace(0.0, 6.0, 2 * FLOAT_ROWS - 2), np.linspace(0.0, 1.45, 2 * FLOAT_ROWS - 2))]
    starts += [gx.boundary_tangent(metric, 0.0, math.pi), gx.boundary_tangent(metric, math.pi, 0.0)]
    return starts, np.linspace(0.05, 1.9, len(starts)).tolist()


@pytest.mark.parametrize("family,params", FAMILIES)
def test_transport_lanes_do_not_depend_on_the_lanes_in_flight(family, params):
    # more than FLOAT_ROWS lanes of spread lengths, some of which leave the disk first, flowed in one call: each
    # lane must get the bits and the error it gets flowed alone, whatever else is in flight
    metric = gx.metric_from_config(family, params)
    starts, lengths = spread_lanes(metric)
    lanes = flow_geodesics(metric, starts, lengths, step=0.01)
    assert sum(isinstance(lane, tuple) for lane in lanes) > FLOAT_ROWS
    assert any(isinstance(lane, gx.FanConstructionError) for lane in lanes)
    for lane, start, length in zip(lanes, starts, lengths):
        (alone,) = flow_geodesics(metric, [start], [length], step=0.01)
        if isinstance(alone, gx.GeoxrayError):
            assert (type(lane), str(lane)) == (type(alone), str(alone))
        else:
            assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]


def test_flow_lanes_walk_without_a_numpy_step(monkeypatch):
    # every lane of a flow walks alone in Python floats, however many are in flight: no rk4 call
    metric = gx.metric_from_config(*FAMILIES[1])
    starts, lengths = spread_lanes(metric)
    calls = []
    monkeypatch.setattr(gx.geometry, "rk4", lambda *a: calls.append(a[1].shape[1]) or rk4(*a))
    lanes = flow_geodesics(metric, starts, lengths, step=0.01)
    assert len(lanes) == 2 * FLOAT_ROWS and sum(isinstance(lane, tuple) for lane in lanes) > FLOAT_ROWS
    assert calls == []


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
    w0 = conformal10.rotate90_rows([path.x[0]], [path.v[0]])[0]
    w = parallel_transport(conformal10, path, w0)
    inners = [conformal10.inner(path.x[i], w[i], path.v[i]) for i in range(path.n_samples)]
    norms = [math.sqrt(conformal10.inner(path.x[i], w[i], w[i])) for i in range(path.n_samples)]
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
