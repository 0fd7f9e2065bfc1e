"""Write ``paths.json``: digests of traced geodesics over seeded starts.

Each case traces one start and records the sample count, ``tau`` and the
SHA-256 of the bytes of the sample arrays ``t``, ``x`` and ``v`` (in that
order, float64, C order).  The cases cover the three metric families at
steps 0.002 and 0.01, with boundary chords, near-tangent chords (the two
boundary angles a few hundredths apart), and interior starts traced both
ways (``trace_geodesic``) or forward only (``trace_forward`` below).  The
committed file was written by the per-ray tracer that preceded the lockstep
one, so ``test_paths_match_golden_digests`` checks the current tracer
against it bit for bit; running this script on a later version only
reproduces that version's paths.

    PYTHONPATH=src python tests/golden/make_paths.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import geoxray as gx
from geoxray.geometry import DEFAULT_STEP, _trace_rows, unwrap

OUT = Path(__file__).with_name("paths.json")
SEED = 20190112
METRICS = (("euclidean", []),
           ("conformal-radial", [0.05]),
           ("conformal-gaussian", [0.3, 0.2, -0.1, 0.5]))
STEPS = (0.002, 0.01)


def trace_forward(metric, start, step=DEFAULT_STEP):
    """Trace only forward from ``start`` to the boundary (no backward extension)."""
    row = np.concatenate([np.asarray(start.x, float), np.asarray(start.v, float)])
    return unwrap(_trace_rows(metric, row[None], step)[1][0])


TRACERS = {"maximal": gx.trace_geodesic, "forward": trace_forward}


def digest(path) -> str:
    h = hashlib.sha256()
    for a in (path.t, path.x, path.v):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def starts(rng):
    """Ten ``(tracer, point, direction)`` starts for one metric and step."""
    out = []
    for gap in rng.uniform(0.5, math.pi, size=3):             # boundary chords
        a = rng.uniform(0.0, 2.0 * math.pi)
        out.append(("maximal", a, a + gap))
    for gap in (0.05, 0.01):                                   # near-tangent chords
        a = rng.uniform(0.0, 2.0 * math.pi)
        out.append(("maximal", a, a + gap))
    cases = []
    for kind, a, b in out:
        p, q = np.array([math.cos(a), math.sin(a)]), np.array([math.cos(b), math.sin(b)])
        cases.append((kind, p.tolist(), (q - p).tolist()))
    for kind in ("maximal",) * 3 + ("forward",) * 2:          # interior starts
        r, phi, beta = rng.uniform(0.0, 0.9), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        cases.append((kind, [r * math.cos(phi), r * math.sin(phi)], [math.cos(beta), math.sin(beta)]))
    return cases


def main():
    rng = np.random.default_rng(SEED)
    cases = []
    for family, params in METRICS:
        metric = gx.metric_from_config(family, params)
        for step in STEPS:
            for kind, point, direction in starts(rng):
                path = TRACERS[kind](metric, gx.unit_tangent(metric, point, direction), step=step)
                cases.append({
                    "metric": family,
                    "params": params,
                    "step": step,
                    "tracer": kind,
                    "point": point,
                    "direction": direction,
                    "n_samples": path.n_samples,
                    "tau": path.tau,
                    "sha256": digest(path),
                })
    OUT.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"{OUT}: {len(cases)} cases, {sum(c['n_samples'] for c in cases)} samples")


if __name__ == "__main__":
    main()
