"""Write ``refined_fans.json``: digests of refined fan tilings and their edge tables.

The tilings are the hexagon fan refined 0-5 times (T = 6 ... 6144) and a few
``polygon_fan_tiling(sides, rotation)`` fans refined 0-2 times.  A tiling's
entry holds its triangle count and the SHA-256 of the bytes of its
``vertices`` and ``triangles`` and of the four arrays of ``Tiling._edges``
(each edge's start and direction, and its box's low and high corners).
The committed file was written by the dict-based ``refine`` and edge list
that preceded the numpy edge table, so ``test_refined_fans_match_golden``
checks the table against them bit for bit; running this script on a later
version only reproduces that version's arrays.

    PYTHONPATH=src python tests/golden/make_refined_fans.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import geoxray as gx

OUT = Path(__file__).with_name("refined_fans.json")
FANS = ((6, 0.0, 5), (3, 0.0, 2), (5, 0.3, 2), (8, 1.0, 2), (12, math.pi / 7, 2))


def tilings():
    """``(name, tiling)`` of every fan at every refinement level."""
    for sides, rotation, levels in FANS:
        tiling = gx.polygon_fan_tiling(sides, rotation)
        for level in range(levels + 1):
            yield f"fan_{sides}_{rotation:.4f}_refine_{level}", tiling
            if level < levels:
                tiling = gx.refine(tiling)


def digest(array) -> str:
    array = np.asarray(array)
    dtype = "<f8" if array.dtype.kind == "f" else "<i8"
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def entry(tiling: gx.Tiling) -> dict:
    a, e, lo, hi = tiling._edges
    return {"triangles": tiling.n_triangles,
            "sha256": {"vertices": digest(tiling.vertices), "triangles": digest(tiling.triangles),
                       "edge_a": digest(a), "edge_e": digest(e), "edge_lo": digest(lo), "edge_hi": digest(hi)}}


def main():
    record = {name: entry(tiling) for name, tiling in tilings()}
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{OUT}: {len(record)} tilings, up to T = {max(r['triangles'] for r in record.values())}")


if __name__ == "__main__":
    main()
