"""Write ``weight_integrals.json``: per-triangle weight integrals and margins.

Six weights on three metrics.  Each (weight, metric) case records the
``per_triangle_weight_integrals`` of four seeded boundary chords and of one
interior start on the hexagon fan refined once (T = 24), as
``[triangle, re, im, length]`` rows in the order of the returned dict, and
the weight's ``injectivity_margin`` over ``sphere_bundle_samples(metric)``.
Each metric also records the ``certify`` margin of both foliation families.
The committed file was written by the code that evaluated weights, states
and Christoffel symbols one point at a time, so
``test_weight_integrals_match_golden`` checks the batched evaluation against
it; running this script on a later version only reproduces that version's
values.

    PYTHONPATH=src python tests/golden/make_weight_integrals.py
"""

import json
import warnings
from pathlib import Path

import numpy as np

import geoxray as gx
from geoxray.scene import random_chord_descriptors
from geoxray.transform import per_triangle_weight_integrals
from geoxray.weights import sphere_bundle_samples

OUT = Path(__file__).with_name("weight_integrals.json")
STEP = 0.01
SEED = 20190112
CHORDS = 4
INTERIOR = ([0.15, -0.1], [0.6, 0.8])
METRICS = (("euclidean", []), ("conformal-radial", [0.05]), ("conformal-gaussian", [0.3, 0.1, -0.2, 0.5]))
FOLIATIONS = (("radial-square", []), ("offset-radial", [0.1, -0.05]))
_MATRIX = [[1.0, [0.0, 1.0]], [0.5, -1.0], [[2.0, -0.5], 0.25]]
_ATTENUATION = {"family": "attenuation", "coefficient": "gaussian", "strength": 0.8}
WEIGHTS = {
    "identity-2": {"family": "identity", "k": 2},
    "constant-3x2": {"family": "constant-matrix", "matrix": _MATRIX},
    "angular-1": {"family": "angular", "k": 1, "order": 2, "amplitude": 0.4, "radial_modulation": 0.5},
    "angular-3": {"family": "angular", "k": 3, "order": 3, "amplitude": 0.3, "radial_modulation": 0.5},
    "attenuation": _ATTENUATION,
    "product": {"family": "product", "left": _ATTENUATION,
                "right": {"family": "constant-matrix", "matrix": _MATRIX}},
}


def compute() -> dict:
    """The record of the installed code: ``integrals``, ``injectivity`` and ``certify`` lists."""
    tiling = gx.refine(gx.polygon_fan_tiling(6))
    descriptors = random_chord_descriptors(CHORDS, np.random.default_rng(SEED))
    integrals, injectivity, certify = [], [], []
    for family, params in METRICS:
        metric = gx.metric_from_config(family, params)
        starts = [gx.boundary_tangent(metric, a, d) for a, d in descriptors]
        starts.append(gx.unit_tangent(metric, *INTERIOR))
        paths = [gx.trace_geodesic(metric, s, step=STEP) for s in starts]
        for name, cfg in WEIGHTS.items():
            weight = gx.weight_from_config(cfg, metric, STEP)
            for path_id, path in enumerate(paths):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", gx.TangencyWarning)
                    pieces = per_triangle_weight_integrals(metric, weight, tiling, path)
                integrals.append({"metric": family, "weight": name, "path": path_id,
                                  "rows": [[tri, mat.real.tolist(), mat.imag.tolist(), length]
                                           for tri, (mat, length) in pieces.items()]})
            injectivity.append({"metric": family, "weight": name,
                                "margin": gx.injectivity_margin(weight, sphere_bundle_samples(metric))})
        for fol, fol_params in FOLIATIONS:
            certify.append({"metric": family, "foliation": fol,
                            "margin": gx.foliation_from_config(fol, fol_params).certify(metric)})
    return {"integrals": integrals, "injectivity": injectivity, "certify": certify}


def write(record):
    """One JSON line per entry, so a diff of the file names the entries that moved."""
    OUT.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
        for key, entries in record.items()) + "\n}\n")


def main():
    record = compute()
    write(record)
    print(f"{OUT}: " + ", ".join(f"{len(v)} {k}" for k, v in record.items()))


if __name__ == "__main__":
    main()
