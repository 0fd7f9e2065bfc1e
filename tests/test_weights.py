import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoxray as gx
from geoxray import geometry, weights
from geoxray.weights import sphere_bundle_samples

from conftest import chord_start, clip_pieces, forward
from golden.make_weight_integrals import WEIGHTS


def ut(metric, x, v):
    return gx.unit_tangent(metric, x, v)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_identity_weight(euclidean):
    w = gx.IdentityWeight(2)
    s = ut(euclidean, [0.2, 0.3], [1.0, 0.5])
    val = w.at(s.x, s.v)
    assert np.array_equal(val, np.eye(2, dtype=complex))


def test_constant_matrix_weight(euclidean):
    mat = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)
    w = gx.ConstantWeight(mat)
    assert w.m == 3 and w.k == 2
    for x, v in [([0, 0], [1, 0]), ([0.5, -0.2], [0, 1])]:
        s = ut(euclidean, x, v)
        assert np.array_equal(w.at(s.x, s.v), mat)


def test_angular_weight_singular_value_bound(euclidean):
    w = gx.AngularWeight(2, order=3, amplitude=0.3)
    worst = min(np.linalg.svd(w.at(s.x, s.v), compute_uv=False)[-1]
                for s in sphere_bundle_samples(euclidean, 20, 16))
    assert worst >= 1.0 - 0.3 - 1e-12


def test_weight_dims_validated():
    with pytest.raises(gx.SceneValidationError):
        gx.ConstantWeight(np.zeros((1, 2)))  # m < k


def test_attenuation_scalar_form(euclidean):
    # constant coefficient: W(x, v) = exp(-s * distance to exit)
    w = gx.AttenuationWeight(euclidean, "constant", strength=0.5, trace_step=1e-3)
    s = ut(euclidean, [0.0, 0.0], [1.0, 0.0])
    val = w.at(s.x, s.v)
    assert abs(val[0, 0] - math.exp(-0.5 * 1.0)) <= 1e-9


def test_product_weight_scalar_times_matrix(euclidean):
    mat = np.array([[1, 2], [0, 1], [1, 0]], dtype=complex)
    w = gx.ProductWeight(gx.AttenuationWeight(euclidean, "constant", 1.0, 1e-3),
                         gx.ConstantWeight(mat))
    assert (w.m, w.k) == (3, 2)
    s = ut(euclidean, [0.0, 0.0], [0.0, 1.0])
    val = w.at(s.x, s.v)
    assert np.max(np.abs(val - math.exp(-1.0) * mat)) <= 1e-9


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_batched_at_matches_per_point_calls(conformal05, name):
    # every family evaluates (..., 2) arrays in one call, bit for bit as point by point
    w = gx.weight_from_config(WEIGHTS[name], conformal05, 1e-2)
    samples = sphere_bundle_samples(conformal05, 6, 4)
    x, v = np.array([s.x for s in samples]), np.array([s.v for s in samples])
    batched = w.at(x, v)
    assert batched.shape == (24, w.m, w.k)
    assert np.array_equal(batched, np.stack([w.at(p, d) for p, d in zip(x, v)]))
    assert np.array_equal(w.at(x.reshape(4, 6, 2), v.reshape(4, 6, 2)), batched.reshape(4, 6, w.m, w.k))


# ---------------------------------------------------------------------------
# injectivity margin
# ---------------------------------------------------------------------------

def test_margin_identity(euclidean):
    samples = sphere_bundle_samples(euclidean, 10, 4)
    assert gx.injectivity_margin(gx.IdentityWeight(3), samples) == 1.0


def test_margin_rank_deficient_is_zero(euclidean):
    w = gx.ConstantWeight(np.array([[1, 0], [1, 0]], dtype=complex))
    samples = sphere_bundle_samples(euclidean, 10, 4)
    assert gx.injectivity_margin(w, samples) <= 1e-15


def test_margin_attenuation_exp_lower_bound(euclidean):
    # coefficient bounded by 1 on a diameter-2 disk: margin >= exp(-2 * strength)
    strength = 0.7
    w = gx.AttenuationWeight(euclidean, "constant", strength, trace_step=5e-3)
    samples = sphere_bundle_samples(euclidean, 15, 6)
    margin = gx.injectivity_margin(w, samples)
    assert margin >= math.exp(-2.0 * strength) - 1e-9


def test_attenuation_margin_traces_all_samples_in_one_call(monkeypatch, conformal05):
    calls = []
    trace_rows = geometry._trace_rows

    def counting(metric, y, *args):
        calls.append(len(y))
        return trace_rows(metric, y, *args)

    for module in (geometry, weights):
        monkeypatch.setattr(module, "_trace_rows", counting, raising=False)
    w = gx.AttenuationWeight(conformal05, "gaussian", 0.8)
    gx.injectivity_margin(w, sphere_bundle_samples(conformal05))
    assert calls == [320]


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    x0=st.floats(-0.6, 0.6), y0=st.floats(-0.6, 0.6),
    ang=st.floats(0.0, 2 * math.pi),
    dx=st.floats(-1e-3, 1e-3), dy=st.floats(-1e-3, 1e-3),
    dang=st.floats(-1e-3, 1e-3),
)
def test_closed_form_weights_are_lipschitz(x0, y0, ang, dx, dy, dang):
    weights_and_bounds = [
        (gx.IdentityWeight(2), 0.1),
        (gx.ConstantWeight(np.array([[1, 2], [3, 4]], dtype=complex)), 0.1),
        (gx.AngularWeight(2, order=3, amplitude=0.3, radial_modulation=0.5), 10.0),
    ]
    x = np.array([x0, y0])
    v = np.array([math.cos(ang), math.sin(ang)])
    x2 = x + np.array([dx, dy])
    ang2 = ang + dang
    v2 = np.array([math.cos(ang2), math.sin(ang2)])
    dist = math.hypot(dx, dy) + abs(dang)
    for w, L in weights_and_bounds:
        gap = np.linalg.norm(w.at(x, v) - w.at(x2, v2), 2)
        assert gap <= L * dist + 1e-12


def test_attenuation_continuity_along_nearby_points(euclidean):
    w = gx.AttenuationWeight(euclidean, "gaussian", 0.8, trace_step=2e-3)
    base = np.array([0.1, -0.3])
    v = np.array([0.6, 0.8])
    ref = w.at(base, v)[0, 0]
    for eps in (1e-3, 1e-4):
        moved = w.at(base + np.array([eps, 0.0]), v)[0, 0]
        assert abs(moved - ref) <= 5.0 * eps + 1e-8


# ---------------------------------------------------------------------------
# interaction with the transform
# ---------------------------------------------------------------------------

def test_identity_weight_gives_unweighted_transform(euclidean, hexagon24):
    rng = np.random.default_rng(2)
    field = gx.PiecewiseConstantField.random(hexagon24.n_triangles, 1, rng)
    w = gx.IdentityWeight(1)
    start = chord_start(euclidean, 0.4, 2.9)
    path = gx.trace_geodesic(euclidean, start, step=1e-2)
    value = forward(euclidean, w, hexagon24, field, path)
    unweighted = sum((t1 - t0) * field.values[tri, 0]
                     for tri, t0, t1 in clip_pieces(hexagon24, [path])[0] if tri is not None)
    assert abs(value[0] - unweighted) <= 1e-10


# ---------------------------------------------------------------------------
# golden integrals and margins
# ---------------------------------------------------------------------------

def test_weight_integrals_match_golden():
    # tests/golden/weight_integrals.json holds the per-triangle weight integrals
    # and the margins of the code that evaluated weights one point at a time
    # (see make_weight_integrals.py): triangle keys exactly and in order,
    # numbers to rtol 1e-12 of the largest magnitude of their matrix.
    from golden.make_weight_integrals import OUT, compute

    want = json.loads(OUT.read_text())
    got = json.loads(json.dumps(compute()))
    assert [len(got[key]) for key in want] == [len(want[key]) for key in want]
    for g, w in zip(got["integrals"], want["integrals"]):
        name = (w["metric"], w["weight"], w["path"])
        assert [row[0] for row in g["rows"]] == [row[0] for row in w["rows"]], name
        for (_, g_re, g_im, g_len), (_, w_re, w_im, w_len) in zip(g["rows"], w["rows"]):
            g_mat, w_mat = np.array(g_re) + 1j * np.array(g_im), np.array(w_re) + 1j * np.array(w_im)
            assert np.all(np.abs(g_mat - w_mat) <= 1e-12 * np.max(np.abs(w_mat))), name
            assert abs(g_len - w_len) <= 1e-12 * w_len, name
    for key in ("injectivity", "certify"):
        for g, w in zip(got[key], want[key]):
            assert {**g, "margin": 0} == {**w, "margin": 0}
            assert abs(g["margin"] - w["margin"]) <= 1e-12 * abs(w["margin"]), w
