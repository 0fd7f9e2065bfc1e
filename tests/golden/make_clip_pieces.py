"""Write ``clip_pieces.json``: the clip pieces of seeded chords on refined fans.

Each case traces one random boundary chord and records every
``clip_plan`` piece as ``[triangle, t0, t1]`` (``triangle`` is null on
the skeleton or outside).  The committed file was written by the scalar
line-bisection clipper that preceded the segment-filtered one, so
``test_clip_golden.py`` checks the current clipper against it; running this
script on a later version only reproduces that version's pieces.

    PYTHONPATH=src python tests/golden/make_clip_pieces.py
"""

import json
import warnings
from pathlib import Path

import numpy as np

import geoxray as gx
from geoxray.scene import random_chord_descriptors
from geoxray.tiling import clip_plan

OUT = Path(__file__).with_name("clip_pieces.json")
STEP = 0.01
SEED = 20190111
CHORDS_PER_CASE = 5
METRICS = (("euclidean", []), ("conformal-radial", [0.05]))
REFINE_LEVELS = (1, 2, 3)        # T = 24, 96, 384


def main():
    rng = np.random.default_rng(SEED)
    cases = []
    for levels in REFINE_LEVELS:
        tiling = gx.polygon_fan_tiling(6)
        for _ in range(levels):
            tiling = gx.refine(tiling)
        for family, params in METRICS:
            metric = gx.metric_from_config(family, params)
            for a, direction in random_chord_descriptors(CHORDS_PER_CASE, rng):
                path = gx.trace_geodesic(metric, gx.boundary_tangent(metric, a, direction), step=STEP)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", gx.TangencyWarning)
                    _, _, triangle, t0, t1 = clip_plan(tiling, [path])
                cases.append({
                    "metric": family,
                    "params": params,
                    "refine": levels,
                    "n_triangles": tiling.n_triangles,
                    "step": STEP,
                    "descriptor": [float(a), float(direction)],
                    "pieces": [[None if tri < 0 else tri, a, b]
                               for tri, a, b in zip(triangle.tolist(), t0.tolist(), t1.tolist())],
                })
    OUT.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"{OUT}: {len(cases)} cases, {sum(len(c['pieces']) for c in cases)} pieces")


if __name__ == "__main__":
    main()
