import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import geoxray as gx
from geoxray.recovery import (
    ADMISSIBLE_LENGTH_TOL,
    TIE_TOL,
    _solve_stacked,
    batch_descriptors,
    chord_descriptor,
    frontier_plan,
    triangle_levels,
)
from geoxray.transform import sector_chord_lengths
from geoxray.weights import sphere_bundle_samples

from conftest import chord_start
from oracles import stacked_fan_system

INJECTIVE_32 = np.array([[1.0, 0.2], [0.1, 1.0], [0.4, 0.6]], dtype=complex)
SMALL_PLAN = gx.ChordPlan(rotations=18, levels_per_batch=3)


# ---------------------------------------------------------------------------
# local sector-value recovery
# ---------------------------------------------------------------------------

def synthetic_limit_samples(weight_matrix, sector_angles, truth, betas):
    samples = []
    for b in betas:
        ell = sector_chord_lengths(sector_angles, b)
        total = sum(ell[i] * truth[i] for i in range(len(sector_angles)))
        samples.append((b, weight_matrix @ total))
    return samples


def test_recover_single_sector_exact():
    angles = [(math.pi - 0.2, math.pi + 0.2)]
    truth = np.array([[0.8 - 0.3j]])
    samples = synthetic_limit_samples(np.eye(1, dtype=complex), angles, truth,
                                      [math.pi - 0.3, math.pi, math.pi + 0.25])
    values, residual, cond = gx.recover_fan_values(lambda a: np.eye(1, dtype=complex),
                                                   angles, samples)
    assert np.max(np.abs(values - truth)) <= 1e-12
    assert residual <= 1e-12


def test_recover_three_sectors_roundtrip():
    rng = np.random.default_rng(42)
    center = math.pi
    width = math.radians(20)
    angles = [(center - 1.5 * width + i * width, center - 0.5 * width + i * width)
              for i in range(3)]
    truth = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
    samples = synthetic_limit_samples(INJECTIVE_32, angles, truth,
                                      [center + math.radians(d) for d in np.linspace(-25, 25, 9)])
    values, residual, cond = gx.recover_fan_values(lambda a: INJECTIVE_32, angles, samples)
    assert np.max(np.abs(values - truth)) <= 1e-10
    assert cond < 1e4


def test_recover_builds_the_blockwise_system_bit_for_bit():
    # the stacked system is one product of the chord-length table and the weight stack; each entry is the
    # same float times complex product as block by block, so the solve sees the same bits
    rng = np.random.default_rng(3)
    angles = [(math.pi - 0.5, math.pi - 0.2), (math.pi - 0.2, math.pi + 0.1), (math.pi + 0.1, math.pi + 0.45)]

    def weight(a):   # varies with the direction, so a block in the wrong row would show
        return INJECTIVE_32 * (1.0 + 0.3 * math.sin(a)) + 0.1j * math.cos(2 * a)

    samples = [(b, rng.normal(size=3) + 1j * rng.normal(size=3))
               for b in math.pi + np.linspace(-0.4, 0.35, 7) + rng.uniform(-0.01, 0.01, 7)]
    a, b = stacked_fan_system(weight, angles, samples)
    expected = _solve_stacked(a, b, gx.recovery.COND_CAP, gx.IllPosedSamplingError)
    values, residual, cond = gx.recover_fan_values(weight, angles, samples)
    assert np.array_equal(values, expected[0].reshape(3, 2))
    assert (residual, cond) == expected[1:]


def test_recover_rank_deficient_weight_raises():
    angles = [(math.pi - 0.3, math.pi), (math.pi, math.pi + 0.3)]
    bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    samples = synthetic_limit_samples(bad, angles, np.zeros((2, 2)),
                                      [math.pi - 0.2, math.pi + 0.1, math.pi + 0.3])
    with pytest.raises(gx.NonInjectiveWeightError):
        gx.recover_fan_values(lambda a: bad, angles, samples)


def test_recover_underdetermined_sampling_raises():
    angles = [(math.pi - 0.3, math.pi), (math.pi, math.pi + 0.3)]
    samples = synthetic_limit_samples(np.eye(1, dtype=complex)[:, :1], angles,
                                      np.zeros((2, 1)), [math.pi])
    with pytest.raises(gx.IllPosedSamplingError):
        gx.recover_fan_values(lambda a: np.eye(1, dtype=complex), angles, samples)


def test_recover_condition_cap_enforced():
    angles = [(math.pi - 0.3, math.pi), (math.pi, math.pi + 0.3)]
    samples = synthetic_limit_samples(np.eye(1, dtype=complex), angles,
                                      np.array([[1.0], [2.0]]),
                                      [math.pi - 0.2, math.pi + 0.1, math.pi + 0.2])
    with pytest.raises(gx.IllPosedSamplingError):
        gx.recover_fan_values(lambda a: np.eye(1, dtype=complex), angles, samples,
                              cond_cap=1.0000001)


# ---------------------------------------------------------------------------
# frontier ordering
# ---------------------------------------------------------------------------

def test_frontier_hexagon_fan():
    tiling = gx.polygon_fan_tiling(6)
    phi = gx.RadialSquare()
    batches = gx.order_frontier(tiling, phi)
    # every fan triangle touches the rim: one batch with all six
    assert len(batches) == 1 and sorted(batches[0]) == list(range(6))


def test_frontier_single_triangle():
    t = gx.Tiling([[0.9, 0], [-0.3, 0.4], [-0.3, -0.5]], [[0, 1, 2]])
    assert gx.order_frontier(t, gx.RadialSquare()) == [[0]]


def test_frontier_refined_hexagon_batches(hexagon24):
    phi = gx.RadialSquare()
    batches = gx.order_frontier(hexagon24, phi)
    sizes = [len(b) for b in batches]
    levels = triangle_levels(hexagon24, phi)[[b[0] for b in batches]]
    assert sizes == [12, 6, 6]
    assert np.allclose(levels, [1.0, 0.75, 0.25])


def frontier_loop(tiling, phi):
    """``order_frontier`` one triangle at a time: each corner's level a float64 scalar's ``d ** 2``, the
    triangles sorted in Python; also each triangle's level."""
    levels = [max(float(d[0] ** 2 + d[1] ** 2) for d in tiling.coords(i) - phi.center)
              for i in range(tiling.n_triangles)]
    batches = []
    for i in sorted(range(tiling.n_triangles), key=lambda i: -levels[i]):
        if batches and abs(levels[batches[-1][0]] - levels[i]) <= TIE_TOL:
            batches[-1].append(i)
        else:
            batches.append([i])
    return batches, levels


@pytest.mark.parametrize("refines", [1, 2, 3, 4])
def test_frontier_matches_the_loop_on_refined_fans(refines):
    # the levels of all corners come from one phi.value call: batches, ties and the batch levels that aim
    # the chords must be those of the loop over triangles, bit for bit, on the T = 24 to 1536 fans
    tiling = gx.polygon_fan_tiling(6, 0.1)
    for _ in range(refines):
        tiling = gx.refine(tiling)
    plan = gx.ChordPlan(rotations=3, levels_per_batch=2)
    for phi in (gx.RadialSquare(), gx.OffsetRadial([0.1, -0.2]), gx.OffsetRadial([0.31, 0.27])):
        batches, levels = frontier_loop(tiling, phi)
        assert gx.order_frontier(tiling, phi) == batches and len(batches) > 1
        bounds = [levels[b[0]] for b in batches] + [phi.floor()]
        want = [batch_descriptors(phi, lo, hi, plan) for hi, lo in zip(bounds, bounds[1:])]
        assert frontier_plan(tiling, phi, plan) == (batches, want)
        assert triangle_levels(tiling, phi).tobytes() == np.array(levels).tobytes()


def test_frontier_containment_predicate(hexagon24):
    # brute force: a triangle strictly inside another's min-radius disk comes later
    phi = gx.RadialSquare()
    batches = gx.order_frontier(hexagon24, phi)
    position = {}
    for rank, batch in enumerate(batches):
        for tri in batch:
            position[tri] = rank
    for i in range(hexagon24.n_triangles):
        ri_max = max(np.hypot(*p) for p in hexagon24.coords(i))
        for j in range(hexagon24.n_triangles):
            rj_min = min(np.hypot(*p) for p in hexagon24.coords(j))
            if ri_max < rj_min - 1e-12:
                assert position[i] >= position[j]


# ---------------------------------------------------------------------------
# chord planning
# ---------------------------------------------------------------------------

def test_chord_descriptor_geometry():
    desc = chord_descriptor(np.zeros(2), 0.5, 1.2)
    assert desc is not None
    ba, da = desc
    p = np.array([math.cos(ba), math.sin(ba)])
    d = np.array([math.cos(da), math.sin(da)])
    # distance of the chord line from the origin is the requested radius
    assert abs(abs(p[0] * d[1] - p[1] * d[0]) - 0.5) <= 1e-12


def test_chord_descriptor_missing_disk():
    assert chord_descriptor(np.zeros(2), 1.2, 0.3) is None


def test_batch_descriptors_respect_level_window():
    phi = gx.RadialSquare()
    for ba, da in batch_descriptors(phi, 0.25, 0.75, gx.ChordPlan(rotations=8, levels_per_batch=3)):
        p = np.array([math.cos(ba), math.sin(ba)])
        d = np.array([math.cos(da), math.sin(da)])
        dist = abs(p[0] * d[1] - p[1] * d[0])
        assert 0.25 < dist**2 < 0.75


# ---------------------------------------------------------------------------
# layer stripping
# ---------------------------------------------------------------------------

def test_reconstruct_zero_field(euclidean, hexagon24):
    weight = gx.ConstantWeight(INJECTIVE_32)
    field = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 2)
    oracle = gx.SyntheticOracle(weight, field)
    report = gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(),
                            plan=SMALL_PLAN)
    assert np.max(np.abs(report.values)) <= 1e-12
    assert np.max(report.per_triangle_residual) <= 1e-12


def test_reconstruct_hexagon_k1_roundtrip(euclidean, hexagon24):
    rng = np.random.default_rng(6)
    weight = gx.IdentityWeight(1)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 1, rng, real=True)
    oracle = gx.SyntheticOracle(weight, field)
    report = gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(),
                            plan=SMALL_PLAN)
    err = np.max(np.abs(report.values - field.values)) / np.max(np.abs(field.values))
    assert err <= 1e-6
    assert sorted(report.processing_order) == list(range(hexagon24.n_triangles))


def test_reconstruct_overdetermined_channels(euclidean, hexagon24):
    rng = np.random.default_rng(8)
    weight = gx.ConstantWeight(INJECTIVE_32)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, rng)
    oracle = gx.SyntheticOracle(weight, field)
    report = gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(),
                            plan=SMALL_PLAN)
    err = np.max(np.abs(report.values - field.values)) / np.max(np.abs(field.values))
    assert err <= 1e-6


def test_reconstruct_clips_each_candidate_chord_once(monkeypatch, euclidean, hexagon24):
    # the sweep and the synthetic oracle share one clip per candidate chord, all
    # clipped in plan-level calls (counted by the paths of the stacks they return)
    import geoxray.recovery
    import geoxray.transform

    counts = {"clips": 0, "candidates": 0}

    def counted(fn, key, size):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += size(out)
            return out
        return wrapper

    monkeypatch.setattr(geoxray.transform, "clip_plan",
                        counted(geoxray.tiling.clip_plan, "clips", lambda out: len(out[0].first)))
    monkeypatch.setattr(geoxray.recovery, "batch_descriptors", counted(batch_descriptors, "candidates", len))
    weight = gx.ConstantWeight(INJECTIVE_32)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, np.random.default_rng(3))
    oracle = gx.SyntheticOracle(weight, field)
    report = gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(), plan=SMALL_PLAN)
    assert sum(report.geodesics_per_batch) < counts["candidates"] == counts["clips"]


def test_reconstruct_traces_its_whole_plan_in_one_call(monkeypatch, euclidean, hexagon24):
    # the candidates of every batch are planned together, so one lockstep trace serves the sweep
    import geoxray.transform

    traced = []

    def counted(metric, starts, step):
        traced.append(len(starts))
        return gx.trace_geodesics(metric, starts, step=step)

    monkeypatch.setattr(geoxray.transform, "trace_geodesics", counted)
    weight = gx.ConstantWeight(INJECTIVE_32)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, np.random.default_rng(3))
    report = gx.reconstruct(euclidean, weight, hexagon24, gx.SyntheticOracle(weight, field),
                            gx.RadialSquare(), plan=SMALL_PLAN)
    assert len(report.batches) > 1
    assert traced == [sum(len(c) for c in frontier_plan(hexagon24, gx.RadialSquare(), SMALL_PLAN)[1])]


SMALL_FAN = {"metric": {"family": "conformal-radial", "params": [0.1]},
             "tiling": {"generator": {"kind": "polygon-fan", "sides": 5, "refine": 1}},
             "plans": {"chords": {"mode": "frontier", "rotations": 24, "levels_per_batch": 4}}}


@pytest.mark.parametrize("changes, tol", [
    ({}, ADMISSIBLE_LENGTH_TOL),
    (SMALL_FAN, ADMISSIBLE_LENGTH_TOL),
    (SMALL_FAN, 1e-3),   # three pieces fall under it, and batch 0 keeps 53 chords instead of 54
])
def test_admissible_rows_are_block_lower_triangular(monkeypatch, changes, tol):
    # the layer-stripping argument as a matrix: rows ordered by batch and columns in
    # frontier order, the admissible rows are block lower triangular and each
    # diagonal block has full column rank, so forward substitution recovers the field;
    # a piece no longer than the tolerance does not count as meeting its triangle
    monkeypatch.setattr(gx.recovery, "ADMISSIBLE_LENGTH_TOL", tol)
    with open(Path(__file__).resolve().parents[1] / "scenes" / "demo_reconstruct.json", encoding="utf-8") as fh:
        scene = gx.build_scene(dict(json.load(fh), **changes))
    metric, weight, tiling, phi = scene.metric, scene.weight, scene.tiling, scene.foliation
    batches, candidates = frontier_plan(tiling, phi, scene.chords)
    op = gx.plan_weight_integrals(metric, weight, tiling,
                                  [gx.boundary_tangent(metric, a, d) for c in candidates for a, d in c],
                                  step=scene.step)
    short = op.length <= tol
    # no piece is too short to count as meeting, unless the tolerance was raised for the filter to act
    assert short.any() == (tol > ADMISSIBLE_LENGTH_TOL)
    known, rows, first = set(), [], 0
    for batch, batch_candidates in zip(batches, candidates):
        chosen = []
        for r in range(first, first + len(batch_candidates)):
            entries = slice(op.row_ptr[r], op.row_ptr[r + 1])
            hits = set(op.triangle[entries][~short[entries]].tolist())
            if hits & set(batch) and hits <= known | set(batch):
                chosen.append(r)
        rows.append(chosen)
        known |= set(batch)
        first += len(batch_candidates)
    op = dataclasses.replace(op, block=np.where(short[:, None, None], 0, op.block))
    m, k = weight.m, weight.k
    columns = [t * k + q for batch in batches for t in batch for q in range(k)]
    a = op.take([r for chosen in rows for r in chosen]).dense()[:, columns]
    row_edges = np.cumsum([0] + [len(chosen) * m for chosen in rows])
    col_edges = np.cumsum([0] + [len(batch) * k for batch in batches])
    for i in range(len(batches)):
        block_rows = a[row_edges[i]:row_edges[i + 1]]
        assert not np.any(block_rows[:, col_edges[i + 1]:])
        assert np.linalg.matrix_rank(block_rows[:, col_edges[i]:col_edges[i + 1]]) == len(batches[i]) * k
    report = gx.reconstruct(metric, weight, tiling, gx.SyntheticOracle(weight, scene.field),
                            phi, plan=scene.chords, step=scene.step)
    assert report.geodesics_per_batch == [len(chosen) for chosen in rows]


def test_reconstruct_deleted_batch_levels_coverage_error(euclidean, hexagon24):
    # no plan levels inside the middle window (0.25, 0.75): batch 2 starves
    weight = gx.IdentityWeight(1)
    field = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 1)
    oracle = gx.SyntheticOracle(weight, field)
    plan = gx.ChordPlan(rotations=18, levels=(0.8, 0.85, 0.9, 0.95, 0.05, 0.1, 0.15, 0.2))
    with pytest.raises(gx.CoverageError):
        gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(), plan=plan)


def test_reconstruct_non_injective_weight_raises(euclidean, hexagon24):
    weight = gx.ConstantWeight(np.array([[1, 0], [1, 0], [0, 0]], dtype=complex))
    field = gx.PiecewiseConstantField.zero(hexagon24.n_triangles, 2)
    oracle = gx.SyntheticOracle(weight, field)
    with pytest.raises(gx.NonInjectiveWeightError):
        gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(), plan=SMALL_PLAN)


def test_reconstruct_recorded_oracle_missing_row(euclidean, hexagon24):
    weight = gx.IdentityWeight(1)
    oracle = gx.RecordedOracle({}, 1)
    with pytest.raises(gx.CoverageError):
        gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(), plan=SMALL_PLAN)


def test_reconstruct_with_noise_diagnostic(euclidean, hexagon24):
    rng = np.random.default_rng(14)
    weight = gx.IdentityWeight(1)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 1, rng, real=True)
    sigma = 1e-4
    oracle = gx.SyntheticOracle(weight, field,
                                noise_sigma=sigma, rng=np.random.default_rng(99))
    report = gx.reconstruct(euclidean, weight, hexagon24, oracle, gx.RadialSquare(),
                            plan=SMALL_PLAN)
    err = np.max(np.abs(report.values - field.values))
    # the solve stays stable: error within a modest factor of the noise floor
    assert 0.0 < err <= 100.0 * sigma
    assert np.max(report.per_triangle_residual) > 0.0


def test_reconstruct_weight_covariance(euclidean, hexagon24):
    rng = np.random.default_rng(12)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 2, rng)
    b = np.array([[2.0, 0.1, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.5]], dtype=complex)
    w1 = gx.ConstantWeight(INJECTIVE_32)
    w2 = gx.ConstantWeight(b @ INJECTIVE_32)
    rep1 = gx.reconstruct(euclidean, w1, hexagon24,
                          gx.SyntheticOracle(w1, field),
                          gx.RadialSquare(), plan=SMALL_PLAN)
    rep2 = gx.reconstruct(euclidean, w2, hexagon24,
                          gx.SyntheticOracle(w2, field),
                          gx.RadialSquare(), plan=SMALL_PLAN)
    assert np.max(np.abs(rep1.values - rep2.values)) <= 1e-8


# ---------------------------------------------------------------------------
# operator assembly and spectrum
# ---------------------------------------------------------------------------

def test_assemble_empty_tiling(euclidean):
    t = gx.Tiling(np.zeros((0, 2)), np.zeros((0, 3), dtype=int))
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.0, 3.0), step=1e-2)
    a = gx.plan_weight_integrals(euclidean, gx.IdentityWeight(1), t, [path]).dense()
    assert a.shape == (1, 0)
    assert len(gx.singular_spectrum(a)) == 0
    assert math.isnan(gx.spectral_summary(gx.singular_spectrum(a))[2])


def test_assemble_single_triangle_single_chord(euclidean):
    from oracles import chord_triangle_length

    t = gx.Tiling([[math.cos(a), math.sin(a)] for a in (0.5, 2.4, 4.2)], [[0, 1, 2]])
    path = gx.trace_geodesic(euclidean, chord_start(euclidean, 0.2, 3.4), step=1e-2)
    a = gx.plan_weight_integrals(euclidean, gx.IdentityWeight(1), t, [path]).dense()
    assert a.shape == (1, 1)
    expected = chord_triangle_length(path.x[0], path.v[0], t.coords(0))
    assert abs(a[0, 0] - expected) <= 1e-9


def test_spectrum_rank_dichotomy(euclidean, hexagon24):
    from geoxray.scene import grid_chord_descriptors

    descriptors = grid_chord_descriptors(6, 20)
    paths = [gx.trace_geodesic(euclidean, gx.boundary_tangent(euclidean, ba, da), step=1e-2)
             for ba, da in descriptors]
    a_good = gx.plan_weight_integrals(euclidean, gx.ConstantWeight(INJECTIVE_32), hexagon24, paths).dense()
    ratio_good = gx.spectral_summary(gx.singular_spectrum(a_good))[2]
    assert ratio_good > 1e-6
    bad = gx.ConstantWeight(np.array([[1, 0], [1, 0], [0, 0]], dtype=complex))
    a_bad = gx.plan_weight_integrals(euclidean, bad, hexagon24, paths).dense()
    ratio_bad = gx.spectral_summary(gx.singular_spectrum(a_bad))[2]
    assert ratio_bad < 1e-12


def test_margin_sampling_grid_inside_disk(euclidean):
    for ut in sphere_bundle_samples(euclidean, 30, 4):
        assert np.hypot(*ut.x) < 1.0
