"""Write ``validation_areas.json``: the messages and overlap areas of tiling validation.

The tilings are the refined hexagon fans at T = 24, 96, 384 and 1536, and
300 seeded defective tilings made from small fans: jittered vertices, an
extra overlapping triangle, a collapsed triangle, a near-collinear sliver,
a duplicated vertex and an identical triangle, 50 of each.  A tiling's
entry holds its ``Tiling.validate()`` message list, the number of its
box-meeting triangle pairs ``(i, j)``, ``i < j``, and the SHA-256 of
their overlap areas' float64 bytes, in pair order.  The committed file was
written by the per-pair Python clipper that preceded the batched one, so
``test_validation_matches_golden_areas`` checks the batched clipper against
it bit for bit; running this script on a later version only reproduces that
version's areas.

    PYTHONPATH=src python tests/golden/make_validation_areas.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import geoxray as gx
from geoxray.tiling import _box_pairs, _overlap_areas

OUT = Path(__file__).with_name("validation_areas.json")
SEED = 20190114
DEFECTS = ("jitter", "extra", "collapse", "sliver", "duplicate-vertex", "identical")
PER_DEFECT = 50


def refined_fan(levels: int) -> gx.Tiling:
    tiling = gx.polygon_fan_tiling(6)
    for _ in range(levels):
        tiling = gx.refine(tiling)
    return tiling


def defective(kind: str, rng) -> gx.Tiling:
    """A small fan (3-8 sides, refined once half the time) with one defect of ``kind``."""
    base = gx.polygon_fan_tiling(int(rng.integers(3, 9)), rotation=float(rng.uniform(0.0, math.pi)))
    if rng.random() < 0.5:
        base = gx.refine(base)
    v, tris = base.vertices.copy(), base.triangles.tolist()
    t = int(rng.integers(len(tris)))
    a, b, c = tris[t]
    if kind == "jitter":
        moved = rng.random(len(v)) < 0.5
        v[moved] += rng.normal(scale=float(rng.choice([0.02, 0.1, 0.3])), size=(int(moved.sum()), 2))
    elif kind == "extra":
        # a triangle around a point of triangle t, so it overlaps t at least
        w = rng.dirichlet(np.ones(3))
        centre = w @ v[[a, b, c]]
        angles = rng.uniform(0.0, 2.0 * math.pi, 3)
        radius = float(rng.uniform(0.05, 0.4))
        v = np.vstack([v, centre + radius * np.column_stack([np.cos(angles), np.sin(angles)])])
        tris.append([len(v) - 3, len(v) - 2, len(v) - 1])
    elif kind == "collapse":
        # the third corner onto its opposite edge (zero area) or onto a corner
        s = float(rng.choice([0.0, 0.5, float(rng.random())]))
        v = np.vstack([v, v[a] + s * (v[b] - v[a])])
        tris[t] = [a, b, len(v) - 1]
    elif kind == "sliver":
        # the third corner a hair off its opposite edge
        s, off = float(rng.random()), float(rng.choice([1e-6, 1e-9, 1e-12, 1e-14]))
        e = v[b] - v[a]
        v = np.vstack([v, v[a] + s * e + off * np.array([-e[1], e[0]])])
        tris[t] = [a, b, len(v) - 1]
    elif kind == "duplicate-vertex":
        v = np.vstack([v, v[c]])
        tris[t] = [a, b, len(v) - 1]
    elif kind == "identical":
        tris.append(list(rng.permutation([a, b, c])) if rng.random() < 0.5 else [a, b, c])
    return gx.Tiling(v, tris)


def tilings():
    """``(name, tiling)`` of every tiling."""
    for levels in range(4):
        tiling = refined_fan(levels)
        yield f"refined_fan_{tiling.n_triangles}", tiling
    rng = np.random.default_rng(SEED)
    for kind in DEFECTS:
        for n in range(PER_DEFECT):
            yield f"{kind}_{n}", defective(kind, rng)


def overlap_pairs(tiling: gx.Tiling) -> np.ndarray:
    """The ``(P, 2)`` box-meeting triangle pairs ``(i, j)``, ``i < j``, in the order validation visits them."""
    corners = tiling.vertices[tiling.triangles]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pairs = _box_pairs(lo, hi, lo, hi)
    return pairs[pairs[:, 0] < pairs[:, 1]]


def overlap_areas(tiling: gx.Tiling) -> np.ndarray:
    return _overlap_areas(tiling.vertices[tiling.triangles], *overlap_pairs(tiling).T)


def digest(areas) -> str:
    return hashlib.sha256(np.ascontiguousarray(areas, dtype="<f8").tobytes()).hexdigest()


def main():
    record = {}
    for name, tiling in tilings():
        areas = overlap_areas(tiling)
        record[name] = {"messages": tiling.validate().messages, "pairs": len(areas), "sha256": digest(areas)}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{OUT}: {len(record)} tilings, {sum(r['pairs'] for r in record.values())} pairs, "
          f"{sum(len(r['messages']) for r in record.values())} messages")


if __name__ == "__main__":
    main()
