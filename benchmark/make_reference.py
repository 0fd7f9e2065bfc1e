"""Write the stored outputs the benchmark checks against.

    python3 benchmark/make_reference.py [workload ...]

Runs each workload's command at the check seed on the code in ``src/`` and
writes ``reference/<workload>.json``.  Run it only on code whose outputs are
known to be right: every later run is checked against these files.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import CHECK_SEED, WORKLOADS, reference_path


def forward_lengths(scene) -> list:
    """Per chord, the ``[triangle, length]`` pieces of the forward plan."""
    from geoxray.geometry import boundary_tangent, trace_geodesic
    from geoxray.scene import scene_chord_descriptors
    from geoxray.transform import per_triangle_weight_integrals

    out = []
    for desc in scene_chord_descriptors(scene):
        path = trace_geodesic(scene.metric, boundary_tangent(scene.metric, desc[0], desc[1]),
                              step=scene.step)
        integrals = per_triangle_weight_integrals(scene.metric, scene.weight, scene.tiling, path)
        out.append([[int(tri), float(length)] for tri, (_mat, length) in sorted(integrals.items())])
    return out


def dumps(reference: dict) -> str:
    """JSON with one top-level key, or one row of a table, per line."""
    items = []
    for key, value in reference.items():
        if isinstance(value, list) and value and isinstance(value[0], list):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            items.append(f"{json.dumps(key)}: [\n  {rows}\n]")
        else:
            items.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def make(name: str, tracer):
    import geoxray.cli
    import geoxray.scene

    workload = WORKLOADS[name]
    work = run.OUT / f"reference-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scene_path = work / "scene.json"
        scene_path.write_text(json.dumps(workload.scene(CHECK_SEED), indent=1))
        scene = geoxray.scene.load_scene(str(scene_path))
        scene.tiling.validate()
        lo = tracer.mark()
        tracer.enabled = True
        workload.run(geoxray.cli, scene, str(work))
        tracer.enabled = False
        section = run.tr.Section(tracer, lo, tracer.mark())
        reference = {"workload": name, "seed": CHECK_SEED}
        reference.update(workload.outputs(str(work), CHECK_SEED))
        if name == "reconstruct-demo":
            reference["candidates"] = section.counted("recovery.batch_descriptors")
        if name == "forward-refined":
            reference["lengths"] = forward_lengths(scene)
        problems = workload.check(str(work), CHECK_SEED, reference)
        if problems:
            raise SystemExit(f"{name}: outputs fail their own checks: {problems}")
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            fh.write(dumps(reference))
        print(f"{name}: wrote {reference_path(name)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv) -> int:
    run.import_geoxray()
    tracer = run.tr.Tracer("reference")
    run.tr.install(tracer)
    for name in argv or list(WORKLOADS):
        make(name, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
