"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import geoxray as gx
from geoxray import cli
from geoxray.errors import EXIT_COVERAGE, EXIT_NON_INJECTIVE, EXIT_TRAPPING
from geoxray.geometry import speed_defect
from geoxray.recovery import triangle_levels
from geoxray.scene import grid_chord_descriptors, random_chord_descriptors
from geoxray.transform import limit_scan, sector_chord_lengths

from conftest import forward
from oracles import chord_forward_value, observed_order

INJECTIVE_32 = np.array([[1.0, 0.2], [0.1, 1.0], [0.4, 0.6]], dtype=complex)


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{name}]: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def anchor_triangle():
    r = 0.8
    p0 = np.array([1.0, 0.0])
    p1 = p0 + r * np.array([math.cos(math.radians(170)), math.sin(math.radians(170))])
    p2 = p0 + r * np.array([math.cos(math.radians(190)), math.sin(math.radians(190))])
    return gx.Tiling([p0, p1, p2], [[0, 1, 2]])


def test_criterion_1_euclidean_exactness():
    t0 = time.perf_counter()
    metric = gx.metric_from_config("euclidean")
    tiling = gx.polygon_fan_tiling(10)          # 10 triangles
    rng = np.random.default_rng(101)
    field = gx.PiecewiseConstantField.random(tiling.n_triangles, 1, rng, real=True)
    weight = gx.IdentityWeight(1)
    worst = 0.0
    for ba, da in random_chord_descriptors(100, rng):
        start = gx.boundary_tangent(metric, ba, da)
        path = gx.trace_geodesic(metric, start, step=1e-2)
        got = forward(metric, weight, tiling, field, path)[0]
        expected = chord_forward_value(path.x[0], path.v[0], tiling, field.values)[0]
        # relative to the chord value with a unit floor for near-zero data
        worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
    elapsed = time.perf_counter() - t0
    report(1, "euclidean-exactness", worst <= 1e-8 and elapsed < 5.0, elapsed,
           f"max relative error {worst:.3e} over 100 chords")


def test_criterion_2_fan_limit_suite():
    t0 = time.perf_counter()
    tiling = anchor_triangle()
    field = gx.PiecewiseConstantField.from_values([[1.0 - 0.4j]])
    offsets = [math.radians(d) for d in (-25, -12, 0, 12, 25)]
    h_values = [2.0 ** -e for e in range(3, 11)]
    scenes = [
        ("euclidean", [], gx.ConstantWeight(np.array([[1.0], [0.3 + 0.2j]])), "exact"),
        ("euclidean", [], gx.AngularWeight(1, 2, 0.3, radial_modulation=0.5), "decreasing"),
        ("conformal-radial", [0.05], gx.AngularWeight(1, 2, 0.3), "decreasing"),
    ]
    ok = True
    detail = []
    for family, params, weight, regime in scenes:
        metric = gx.metric_from_config(family, params)
        rows = limit_scan(metric, weight, tiling, field, 0.0, offsets, h_values, step=2e-3)
        by_v = {}
        for row in rows:
            by_v.setdefault(round(row["v_angle"], 12), []).append((row["h"], row["err"]))
        worst_final = 0.0
        for errs in by_v.values():
            errs.sort(key=lambda p: -p[0])
            vals = [e for _h, e in errs]
            if regime == "exact":
                if max(vals) > 1e-9:
                    ok = False
            else:
                if not all(b < a for a, b in zip(vals, vals[1:])):
                    ok = False
                if vals[-1] > 1e-3:
                    ok = False
                worst_final = max(worst_final, vals[-1])
        detail.append(f"{family}/{weight.family}: "
                      + (f"max err {max(e for r in by_v.values() for _h, e in r):.2e}"
                         if regime == "exact" else f"final err {worst_final:.2e}"))
    elapsed = time.perf_counter() - t0
    report(2, "fan-limit-suite", ok and elapsed < 60.0, elapsed, "; ".join(detail))


def test_criterion_3_local_recovery(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    center = math.pi
    width = math.radians(20)
    angles = [(center - 1.5 * width + i * width, center - 0.5 * width + i * width)
              for i in range(3)]
    truth = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
    betas = [center + math.radians(d) for d in np.linspace(-25, 25, 12)]
    samples = []
    for b in betas:
        ell = sector_chord_lengths(angles, b)
        samples.append((b, INJECTIVE_32 @ sum(ell[i] * truth[i] for i in range(3))))
    values, _residual, _cond = gx.recover_fan_values(lambda a: INJECTIVE_32, angles, samples)
    err = float(np.max(np.abs(values - truth)))

    # rank-one weight drives the command to the non-injective exit code
    scene = {
        "schema": "geoxray-scene/1", "seed": 1, "quadrature_step": 0.01,
        "metric": {"family": "euclidean", "params": []},
        "tiling": {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 0}},
        "field": {"k": 2, "random": {}},
        "weight": {"family": "constant-matrix", "matrix": [[1, 0], [1, 0]]},
        "foliation": {"family": "radial-square", "params": []},
        "plans": {"chords": {"mode": "frontier", "rotations": 12, "levels_per_batch": 2}},
    }
    spath = tmp_path / "rank1.json"
    spath.write_text(json.dumps(scene), encoding="utf-8")
    code = cli.main(["reconstruct", "--scene", str(spath), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    report(3, "local-recovery", err <= 1e-8 and code == EXIT_NON_INJECTIVE and elapsed < 5.0,
           elapsed, f"recovery error {err:.3e}; rank-1 exit code {code}")


def test_criterion_4_layer_stripping_roundtrip():
    t0 = time.perf_counter()
    tiling = gx.refine(gx.polygon_fan_tiling(6))
    assert tiling.n_triangles == 24
    phi = gx.RadialSquare()
    weight = gx.ConstantWeight(INJECTIVE_32)
    rng = np.random.default_rng(404)
    field = gx.PiecewiseConstantField.random(tiling.n_triangles, 2, rng)
    ok = True
    details = []
    for family, params in (("euclidean", []), ("conformal-radial", [0.05])):
        metric = gx.metric_from_config(family, params)
        oracle = gx.SyntheticOracle(weight, field)
        rep = gx.reconstruct(metric, weight, tiling, oracle, phi, step=1e-2)
        err = float(np.max(np.abs(rep.values - field.values)) / np.max(np.abs(field.values)))
        levels = triangle_levels(tiling, phi)[rep.processing_order].tolist()
        ordered = all(a >= b - 1e-9 for a, b in zip(levels, levels[1:]))
        ok = ok and err <= 1e-6 and ordered
        details.append(f"{family}: err {err:.3e} order-ok {ordered}")
    elapsed = time.perf_counter() - t0
    report(4, "layer-stripping-roundtrip", ok and elapsed < 120.0, elapsed, "; ".join(details))


def test_reconstruct_converges_on_data_recorded_at_a_finer_step(tmp_path):
    # data from the same discretized operator it inverts tells nothing of the step (the inverse crime);
    # data recorded by forward at step 0.00125 does: the sweep's error falls at fourth order with its step
    t0 = time.perf_counter()
    scene = Path(__file__).resolve().parents[1] / "scenes" / "demo_reconstruct.json"
    assert cli.main(["forward", "--scene", str(scene), "--out", str(tmp_path / "fine"), "--step", "0.00125"]) == 0
    field = gx.load_scene(scene).field.values
    errors = []
    for step in ("0.02", "0.01", "0.005"):
        out = tmp_path / step
        assert cli.main(["reconstruct", "--scene", str(scene), "--out", str(out), "--step", step,
                         "--data", str(tmp_path / "fine" / "forward.csv")]) == 0
        with open(out / "reconstruction_values.csv", encoding="utf-8", newline="") as fh:
            rows = [[float(c) for c in row] for row in list(csv.reader(fh))[1:]]
        values = np.array([[complex(re, im) for re, im in zip(row[1:-1:2], row[2:-1:2])] for row in rows])
        errors.append(float(np.max(np.abs(values - field))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    print(f"recorded-data roundtrip: errors {errors}, orders {orders} ({elapsed:.1f}s)")
    assert values.shape == field.shape
    assert min(orders) >= 3.5 and errors[1] <= 1e-9 and elapsed < 5.0


def test_criterion_5_spectral_injectivity_proxy():
    t0 = time.perf_counter()
    metric = gx.metric_from_config("euclidean")
    tiling = gx.refine(gx.polygon_fan_tiling(6))
    descriptors = grid_chord_descriptors(10, 30)      # 300 chords
    paths = [gx.trace_geodesic(metric, gx.boundary_tangent(metric, ba, da), step=1e-2)
             for ba, da in descriptors]
    good = gx.plan_weight_integrals(metric, gx.ConstantWeight(INJECTIVE_32), tiling, paths).dense()
    ratio_good = gx.spectral_summary(gx.singular_spectrum(good))[2]
    rank_deficient = gx.ConstantWeight(np.array([[1, 0], [1, 0], [0, 0]], dtype=complex))
    bad = gx.plan_weight_integrals(metric, rank_deficient, tiling, paths).dense()
    ratio_bad = gx.spectral_summary(gx.singular_spectrum(bad))[2]
    elapsed = time.perf_counter() - t0
    ok = len(descriptors) == 300 and ratio_good > 1e-6 and ratio_bad < 1e-12
    report(5, "spectral-injectivity-proxy", ok and elapsed < 60.0, elapsed,
           f"injective ratio {ratio_good:.3e}, rank-deficient ratio {ratio_bad:.3e}")


def test_criterion_6_geometry_self_convergence():
    t0 = time.perf_counter()
    metric = gx.metric_from_config("conformal-radial", [0.3])
    rng = np.random.default_rng(303)
    worst_order = math.inf
    worst_defect = 0.0
    for _ in range(20):
        ba = rng.uniform(0.0, 2.0 * math.pi)
        da = ba + math.pi + rng.uniform(-1.0, 1.0)
        start = gx.boundary_tangent(metric, ba, da)
        taus = []
        for step in (1e-2, 5e-3, 2.5e-3):
            path = gx.trace_geodesic(metric, start, step=step)
            worst_defect = max(worst_defect, speed_defect(metric, path))
            taus.append(path.tau)
        worst_order = min(worst_order, observed_order(taus))
    elapsed = time.perf_counter() - t0
    ok = worst_order >= 3.5 and worst_defect <= 1e-8
    report(6, "geometry-self-convergence", ok and elapsed < 30.0, elapsed,
           f"min observed order {worst_order:.2f}, max speed defect {worst_defect:.2e}")


def test_criterion_7_designed_failures(tmp_path):
    t0 = time.perf_counter()
    # T-junction rejection
    tjunction = gx.Tiling(
        [[0, 0], [1, 0], [0, 0.9], [0.5, 0.0], [0.9, -0.5]],
        [[0, 1, 2], [3, 4, 1]],
    )
    t_rejected = not tjunction.validate().ok

    # deleted batch levels: coverage exit code
    scene = {
        "schema": "geoxray-scene/1", "seed": 2, "quadrature_step": 0.01,
        "metric": {"family": "euclidean", "params": []},
        "tiling": {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 1}},
        "field": {"k": 1, "random": {}},
        "weight": {"family": "identity", "k": 1},
        "foliation": {"family": "radial-square", "params": []},
        "plans": {"chords": {"mode": "frontier", "rotations": 12,
                             "levels": [0.8, 0.9, 0.95, 0.1, 0.2]}},
    }
    spath = tmp_path / "starved.json"
    spath.write_text(json.dumps(scene), encoding="utf-8")
    coverage_code = cli.main(["reconstruct", "--scene", str(spath), "--out", str(tmp_path)])

    # trapping cap on a deliberately extreme conformal parameter
    limit_scene = {
        "schema": "geoxray-scene/1", "seed": 3, "quadrature_step": 0.01,
        "metric": {"family": "conformal-radial", "params": [-2.5]},
        "tiling": {"vertices": [[1.0, 0.0], [0.2, 0.14], [0.2, -0.14]],
                   "triangles": [[0, 1, 2]]},
        "field": {"k": 1, "values": [[1.0]]},
        "weight": {"family": "identity", "k": 1},
        "plans": {"fan_limit": {"anchor_angle": 0.0, "v_offsets_deg": [0],
                                "h_exponents": [3]}},
    }
    lpath = tmp_path / "extreme.json"
    lpath.write_text(json.dumps(limit_scene), encoding="utf-8")
    trapping_code = cli.main(["limit-check", "--scene", str(lpath), "--out", str(tmp_path)])

    elapsed = time.perf_counter() - t0
    ok = (t_rejected and coverage_code == EXIT_COVERAGE and trapping_code == EXIT_TRAPPING)
    report(7, "designed-failures", ok and elapsed < 10.0, elapsed,
           f"t-junction rejected {t_rejected}, coverage exit {coverage_code}, "
           f"trapping exit {trapping_code}")
