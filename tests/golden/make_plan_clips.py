"""Write ``plan_clips.json``: digests of the clip pieces of whole plans.

Each plan is a tiling and a list of traced paths: the geodesics that the
three demo scenes' commands clip (the fan members of ``limit-check``, the
candidate chords of ``reconstruct`` and the grid chords of ``spectrum``),
40 seeded chords on the T = 384 refined fan, a near-tangent double
crossing (two crossings of one edge inside one sample interval) and three
euclidean chords through tiling vertices of the T = 24 fan.  A plan's
entry holds its path count, its piece count and the SHA-256 of every
path's ``clip_plan`` pieces as ``triangle, t0.hex(), t1.hex()`` text.
The committed file was written by the per-path clipper that preceded the
plan-level one, so ``test_plan_clipper_matches_per_path_golden`` checks
``clip_plan`` against it bit for bit; running this script on a later
version only reproduces that version's pieces.

    PYTHONPATH=src python tests/golden/make_plan_clips.py
"""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

import geoxray as gx
from geoxray.recovery import frontier_plan
from geoxray.scene import random_chord_descriptors, scene_chord_descriptors
from geoxray.transform import _rotate_chart

OUT = Path(__file__).with_name("plan_clips.json")
SCENES = Path(__file__).resolve().parents[2] / "scenes"
SEED = 20190113


def _traced(metric, starts, step):
    return [gx.geometry.unwrap(p) for p in gx.trace_geodesics(metric, starts, step=step)]


def _scene_plans():
    scene = gx.load_scene(SCENES / "demo_limit_check.json")
    metric, plan = scene.metric, scene.fan_plan
    x = np.array([math.cos(plan.anchor_angle), math.sin(plan.anchor_angle)])
    members = [(gx.unit_tangent(metric, x, _rotate_chart(metric, x, -x, offset)).v, h)
               for offset in plan.v_offsets for h in plan.h_values]
    fans = gx.fan_geodesics(metric, x, members, sign=plan.sign, step=scene.step)
    yield "demo_limit_check", scene.tiling, [gx.geometry.unwrap(f) for f in fans]
    scene = gx.load_scene(SCENES / "demo_reconstruct.json")
    _, candidates = frontier_plan(scene.tiling, scene.foliation, scene.chords)
    starts = [gx.boundary_tangent(scene.metric, a, d) for c in candidates for a, d in c]
    yield "demo_reconstruct", scene.tiling, _traced(scene.metric, starts, scene.step)
    scene = gx.load_scene(SCENES / "demo_spectrum.json")
    starts = [gx.boundary_tangent(scene.metric, a, d) for a, d in scene_chord_descriptors(scene)]
    yield "demo_spectrum", scene.tiling, _traced(scene.metric, starts, scene.step)


def near_tangent_tiling(path):
    """Two triangles on an edge that the path crosses twice inside one sample
    interval, at 0.3 and 0.7 of it, about 1e-7 deep."""
    i = path.n_samples // 2
    t0, h = path.t[i], path.t[i + 1] - path.t[i]
    p, q = path.position(t0 + 0.3 * h), path.position(t0 + 0.7 * h)
    u = (q - p) / np.hypot(*(q - p))
    n = np.array([-u[1], u[0]])
    a, b = p - 0.15 * u, q + 0.15 * u
    mid = 0.5 * (a + b)
    return gx.Tiling([a, b, mid + 0.2 * n, mid - 0.2 * n], [[0, 1, 2], [0, 1, 3]])


def plans():
    """``(name, tiling, paths)`` of every plan."""
    yield from _scene_plans()
    metric = gx.metric_from_config("conformal-radial", [0.05])
    tiling = gx.polygon_fan_tiling(6)
    for _ in range(3):
        tiling = gx.refine(tiling)
    starts = [gx.boundary_tangent(metric, a, d)
              for a, d in random_chord_descriptors(40, np.random.default_rng(SEED))]
    yield "refined_fan_384", tiling, _traced(metric, starts, 0.01)
    metric = gx.metric_from_config("conformal-radial", [0.3])
    a, b = np.array([math.cos(0.4), math.sin(0.4)]), np.array([math.cos(2.9), math.sin(2.9)])
    path = gx.trace_geodesic(metric, gx.unit_tangent(metric, a, b - a), step=0.01)
    yield "near_tangent", near_tangent_tiling(path), [path]
    metric = gx.metric_from_config("euclidean")
    # through the center; from a rim vertex past a spoke midpoint to a rim vertex;
    # through the center and two rim-edge midpoints
    starts = [gx.boundary_tangent(metric, 0.3, 0.3 + math.pi),
              gx.boundary_tangent(metric, 0.0, 5.0 * math.pi / 6),
              gx.boundary_tangent(metric, math.pi / 6, math.pi / 6 + math.pi)]
    yield "vertex_hits", gx.refine(gx.polygon_fan_tiling(6)), _traced(metric, starts, 0.01)


def digest(n_paths, path, triangle, t0, t1) -> str:
    """SHA-256 of the ``clip_plan`` pieces of ``n_paths`` paths, path by path, ``None`` off the triangles."""
    text = [[] for _ in range(n_paths)]
    for p, tri, a, b in zip(path.tolist(), triangle.tolist(), t0.tolist(), t1.tolist()):
        text[p].append(f"{None if tri < 0 else tri},{a.hex()},{b.hex()}")
    return hashlib.sha256("\n".join(";".join(pieces) for pieces in text).encode()).hexdigest()


def main():
    record = {}
    for name, tiling, paths in plans():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gx.TangencyWarning)
            _, *pieces = gx.tiling.clip_plan(tiling, paths)
        record[name] = {"paths": len(paths), "pieces": len(pieces[0]), "sha256": digest(len(paths), *pieces)}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{OUT}: {len(record)} plans, {sum(r['pieces'] for r in record.values())} pieces")


if __name__ == "__main__":
    main()
