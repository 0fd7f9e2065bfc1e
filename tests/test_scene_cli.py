import json
import math
from pathlib import Path

import numpy as np
import pytest

import geoxray as gx
from geoxray import cli
from geoxray.errors import (
    EXIT_COVERAGE,
    EXIT_ILL_POSED,
    EXIT_NON_INJECTIVE,
    EXIT_TRAPPING,
    EXIT_VALIDATION,
)

from conftest import run_bounded
from oracles import chord_forward_value

INJECTIVE_32 = [[1.0, 0.2], [0.1, 1.0], [0.4, 0.6]]


def anchor_tiling_json():
    r = 0.8
    p0 = [1.0, 0.0]
    p1 = [1.0 + r * math.cos(math.radians(170)), r * math.sin(math.radians(170))]
    p2 = [1.0 + r * math.cos(math.radians(190)), r * math.sin(math.radians(190))]
    return {"vertices": [p0, p1, p2], "triangles": [[0, 1, 2]]}


def write_scene(tmp_path, name, scene):
    path = tmp_path / name
    path.write_text(json.dumps(scene, indent=1), encoding="utf-8")
    return str(path)


def reconstruct_scene(seed=5):
    return {
        "schema": "geoxray-scene/1",
        "seed": seed,
        "quadrature_step": 0.01,
        "metric": {"family": "euclidean", "params": []},
        "tiling": {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 1}},
        "field": {"k": 2, "random": {}},
        "weight": {"family": "constant-matrix", "matrix": INJECTIVE_32},
        "foliation": {"family": "radial-square", "params": []},
        "plans": {"chords": {"mode": "frontier", "rotations": 18, "levels_per_batch": 3}},
    }


def read_csv_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# ---------------------------------------------------------------------------
# scene loading
# ---------------------------------------------------------------------------

def test_scene_roundtrip(tmp_path):
    path = write_scene(tmp_path, "s.json", reconstruct_scene())
    scene = gx.load_scene(path)
    assert scene.tiling.n_triangles == 24
    assert scene.weight.m == 3 and scene.field.k == 2
    assert scene.step == 0.01
    assert scene.chords == gx.ChordPlan(rotations=18, levels_per_batch=3)   # frontier is the default mode


def test_scene_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "geoxray-scene/1",\n  "seed": }\n', encoding="utf-8")
    with pytest.raises(gx.SceneValidationError) as err:
        gx.load_scene(str(path))
    assert ":2:" in str(err.value)


def test_scene_wrong_schema(tmp_path):
    path = write_scene(tmp_path, "s.json", {"schema": "nope/9"})
    with pytest.raises(gx.SceneValidationError):
        gx.load_scene(path)


def test_scene_dim_mismatch(tmp_path):
    scene = reconstruct_scene()
    scene["field"] = {"k": 1, "random": {}}
    path = write_scene(tmp_path, "s.json", scene)
    with pytest.raises(gx.SceneValidationError):
        gx.load_scene(path)


def test_scene_value_row_count_checked(tmp_path):
    scene = reconstruct_scene()
    scene["field"] = {"k": 2, "values": [[0, 0]]}
    path = write_scene(tmp_path, "s.json", scene)
    with pytest.raises(gx.SceneValidationError) as err:
        gx.load_scene(path)
    assert "field.values" in str(err.value)


@pytest.mark.parametrize("key, value, named", [
    ("seed", "abc", "scene.seed"),
    ("weight.matrix", [[1.0, 0.2], [0.1], [0.4, 0.6]], "scene.weight.matrix[1]"),
    ("weight.matrix", [[1.0, math.nan], [0.1, 1.0], [0.4, 0.6]], "scene.weight.matrix[0][1]"),
    ("noise", {"sigma": "x"}, "scene.noise.sigma"),
    ("plans.chords.rotations", "x", "scene.plans.chords.rotations"),
    ("metric", ["euclidean"], "scene.metric"),
    ("foliation", ["radial-square"], "scene.foliation"),
    ("tiling", dict(anchor_tiling_json(), triangles=[[0, 1.5, 2]]), "scene.tiling.triangles"),
    ("tiling", dict(anchor_tiling_json(), triangles=[[0, 1, 3]]), "scene.tiling.triangles:"),
    ("metric", {"family": "conformal-radial", "params": [0.1, 0.2]}, "scene.metric.params:"),
    ("metric", {"family": "conformal-gaussian", "params": [0.1]}, "scene.metric.params:"),
    ("metric", {"family": "euclidean", "params": [0.1]}, "scene.metric.params:"),
    ("foliation", {"family": "offset-radial", "params": [0.1]}, "scene.foliation.params:"),
    ("foliation", {"family": "offset-radial", "params": [1.0, 0.5]}, "scene.foliation.params:"),
    ("foliation", {"family": "radial-square", "params": [0.1]}, "scene.foliation.params:"),
    ("weight", {"family": "nope"}, "scene.weight.family:"),
    ("weight", {"family": "constant-matrix"}, "scene.weight.matrix:"),
    ("weight", {"family": "constant-matrix", "matrix": []}, "scene.weight.matrix:"),
    ("weight", {"family": "constant-matrix", "matrix": [[1, 0, 0], [0, 1, 0]]}, "scene.weight.matrix:"),
    ("weight", {"family": "identity", "k": 0}, "scene.weight.k:"),
    ("weight", {"family": "attenuation", "coefficient": "nope"}, "scene.weight.coefficient:"),
    ("weight", {"family": "attenuation", "coefficient": []}, "scene.weight.coefficient:"),
    ("weight", {"family": "product", "left": {"family": "constant-matrix", "matrix": INJECTIVE_32},
                "right": {"family": "constant-matrix", "matrix": INJECTIVE_32}}, "scene.weight:"),
    ("weight", {"family": "product", "left": {"family": "identity", "k": 0},
                "right": {"family": "constant-matrix", "matrix": INJECTIVE_32}}, "scene.weight.left.k:"),
    ("weight", {"family": "product", "left": {"family": "constant-matrix", "matrix": INJECTIVE_32},
                "right": {"family": "nope"}}, "scene.weight.right.family:"),
    ("plans.chords", None, "scene.plans.chords:"),
    ("foliation", None, "scene.foliation:"),
    ("plans.chords.rotations", 0, "scene.plans.chords.rotations:"),
    ("plans.chords.levels_per_batch", 0, "scene.plans.chords.levels_per_batch:"),
    ("plans.chords.levels_per_batch", -2, "scene.plans.chords.levels_per_batch:"),
    ("noise", {"sigma": -1}, "scene.noise.sigma:"),
    ("metrc", {}, "scene.metrc:"),
    ("tiling.generator.refinee", 3, "scene.tiling.generator.refinee:"),
    ("plans.chords.rotation", 3, "scene.plans.chords.rotation:"),
    ("plans.chords.levels", [], "scene.plans.chords.levels:"),
    ("field.random.real", "no", "scene.field.random.real:"),
])
def test_bad_scene_value_exits_with_validation_code(tmp_path, capsys, key, value, named):
    # each command that reads the value rejects it, naming its key once; forward reads the
    # chord plan and the foliation as reconstruct does
    scene = reconstruct_scene()
    *parents, last = key.split(".")
    node = scene
    for name in parents:
        node = node[name]
    node[last] = value
    path = write_scene(tmp_path, "s.json", scene)
    for command in ("reconstruct", "forward"):
        assert cli.main([command, "--scene", path, "--out", str(tmp_path)]) == EXIT_VALIDATION, command
        assert capsys.readouterr().err.count(named) == 1, command


@pytest.mark.parametrize("key, value, flags, named", [
    ("seed", -1, (), "scene.seed"),
    ("seed", 5, ("--seed", "-3"), "scene.seed"),
    ("metric", {"family": "conformal-radial", "params": [1e300]}, (), "scene.metric.params"),
    ("tiling.generator.refine", -1, (), "scene.tiling.generator.refine"),
    ("metric", {"family": "conformal-gaussian", "params": [1, 0, 0, 1e-200]}, (), "scene.metric.params"),
    ("metric", {"family": "conformal-gaussian", "params": [1, 0, 0, 1e300]}, (), "scene.metric.params"),
    ("metric", {"family": "conformal-gaussian", "params": [1, 1e300, 0, 0.5]}, (), "scene.metric.params"),
    ("metric", {"family": "conformal-gaussian", "params": [1, 0, 0, 1e-155]}, (), "scene.metric.params"),
    ("tiling.generator.sides", 2, (), "scene.tiling.generator.sides"),
    ("plans.fan_limit", {"v_offsets_deg": [0], "h_exponents": [3], "sign": 0}, (), "scene.plans.fan_limit.sign"),
    ("plans.fan_limit", {"v_offsets_deg": [0], "h_exponents": [3], "sign": 2}, (), "scene.plans.fan_limit.sign"),
])
def test_out_of_range_scene_value_exits_with_one_error_line(tmp_path, capsys, key, value, flags, named):
    # a negative seed or refine count, an overflowing metric factor, a gaussian
    # width or center whose square, or 1 / width^2, is 0 or overflows, a fan of
    # fewer than 3 sides and a fan-limit sign other than +-1 are rejected at load,
    # with one line naming the key, before numpy, math.exp or the fan builder can raise
    scene = reconstruct_scene()
    *parents, last = key.split(".")
    node = scene
    for name in parents:
        node = node[name]
    node[last] = value
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["reconstruct", "--scene", path, "--out", str(tmp_path), *flags]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("geoxray: error: ") and err.count("\n") == 1 and named in err


def demo_scene_path(tmp_path, name, key, value):
    """``scenes/<name>.json`` with the value at the dotted ``key`` replaced, written under ``tmp_path``."""
    from golden.make_demo_outputs import SCENES

    scene = json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))
    *parents, last = key.split(".")
    node = scene
    for part in parents:
        node = node[part]
    node[last] = value
    return write_scene(tmp_path, "s.json", scene)


@pytest.mark.parametrize("name, command, key, value", [
    ("demo_reconstruct", "reconstruct", "metric.family", []),
    ("demo_reconstruct", "reconstruct", "metric.family", {}),
    ("demo_reconstruct", "reconstruct", "foliation.family", []),
    ("demo_reconstruct", "reconstruct", "foliation.family", {}),
    ("demo_reconstruct", "reconstruct", "field.k", True),
    ("demo_reconstruct", "reconstruct", "field.k", -1),
    ("demo_reconstruct", "reconstruct", "field.k", 1e308),
    ("demo_reconstruct", "reconstruct", "field.random.scale", -1),
    ("demo_reconstruct", "reconstruct", "field.random.scale", 1e308),
    ("demo_limit_check", "limit-check", "tiling.triangles", [1, 2]),
    ("demo_limit_check", "limit-check", "tiling.triangles", -1),
    ("demo_limit_check", "limit-check", "tiling.vertices", True),
])
def test_mistyped_demo_scene_key_exits_with_one_error_line(tmp_path, capsys, name, command, key, value):
    # each of these ended in a TypeError, ValueError or OverflowError traceback from a dict
    # lookup, numpy's random generator or a reshape; now one line names the key
    path = demo_scene_path(tmp_path, name, key, value)
    assert cli.main([command, "--scene", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("geoxray: error: ") and err.count("\n") == 1 and f"scene.{key}" in err


@pytest.mark.parametrize("name, command, key, value", [
    ("demo_reconstruct", "forward", "plans.chords.rotations", 1e30),
    ("demo_reconstruct", "reconstruct", "plans.chords.levels_per_batch", 1e30),
    ("demo_reconstruct", "reconstruct", "plans.chords.levels_per_batch", 1e308),
    ("demo_spectrum", "spectrum", "plans.chords.distances", 1e30),
    ("demo_spectrum", "spectrum", "plans.chords.rotations", 1e30),
    ("demo_spectrum", "forward", "plans.chords", {"mode": "random", "count": 1e30}),
])
def test_plan_over_the_step_limit_exits_at_load(tmp_path, name, command, key, value):
    # each ran past a 20 s timeout building or tracing its chords; the planned rays times the
    # steps of a ray up to the arclength cap are bounded at load, and the error names the key
    path = demo_scene_path(tmp_path, name, key, value)
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       command, "--scene", path, "--out", str(tmp_path / "out"), timeout=20)
    assert done.returncode == EXIT_VALIDATION
    named = key if key.count(".") == 2 else "plans.chords.count"
    assert done.stderr.startswith("geoxray: error: ") and done.stderr.count("\n") == 1
    assert f"scene.{named}" in done.stderr and f"{gx.scene.MAX_PLAN_STEPS:.0e}" in done.stderr


HUGE_K = 10**9


@pytest.mark.parametrize("weight, named", [
    ({"family": "identity", "k": HUGE_K}, "weight.k"),
    ({"family": "angular", "k": HUGE_K, "order": 1, "amplitude": 0.5}, "weight.k"),
    ({"family": "product", "left": {"family": "identity", "k": 1},
      "right": {"family": "angular", "k": HUGE_K, "order": 1, "amplitude": 0.5}}, "weight.right.k"),
    ({"family": "product", "left": {"family": "identity", "k": HUGE_K},
      "right": {"family": "identity", "k": 1}}, "weight.left.k"),
])
def test_weight_over_the_component_limit_exits_at_load(tmp_path, weight, named):
    # spectrum of the demo scene at k = 10**9 exited 1 under a 3 GB address space limit, identity with "array is
    # too big" and angular with a MemoryError for 179 GiB; the weight's width is bounded at load, and the error
    # names the key.  The child keeps the same limit, so a missing bound cannot take the host's memory
    scene = json.loads(Path(demo_scene_path(tmp_path, "demo_spectrum", "weight", weight)).read_text(encoding="utf-8"))
    scene["field"]["k"] = HUGE_K
    path = write_scene(tmp_path, "s.json", scene)
    done = run_bounded("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                       "from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "spectrum", "--scene", path, "--out", str(tmp_path / "out"), timeout=20)
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("geoxray: error: ") and done.stderr.count("\n") == 1
    assert f"scene.{named}:" in done.stderr and str(gx.weights.MAX_COMPONENTS) in done.stderr
    for family in ("identity", "angular"):   # the bound itself loads
        bound = {"family": family, "k": gx.weights.MAX_COMPONENTS}
        assert gx.weight_from_config(bound, gx.metric_from_config("euclidean")).k == gx.weights.MAX_COMPONENTS


def test_spectrum_over_the_dense_limit_exits_before_tracing(tmp_path):
    # the demo spectrum plan (300 chords, m = 3, k = 2) on a 16-sided fan refined 6 times (T = 65,536) asks
    # for 117,964,800 dense entries, 1.8 GiB of complex128 before the SVD's own; the command counts them once
    # its chords are planned and exits before it traces one.  The child keeps a 3 GiB address space limit
    path = demo_scene_path(tmp_path, "demo_spectrum", "tiling", {"generator": {"kind": "polygon-fan", "sides": 16,
                                                                              "refine": 6}})
    done = run_bounded("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
                       "from geoxray import cli, transform\n"
                       "transform.trace_geodesics = None   # a traced chord is a TypeError, exit 1\n"
                       "sys.exit(cli.main(sys.argv[1:]))",
                       "spectrum", "--scene", path, "--out", str(tmp_path / "out"), timeout=60)
    assert done.returncode == EXIT_VALIDATION, done.stderr
    assert done.stderr.startswith("geoxray: error: scene.plans.chords: ") and done.stderr.count("\n") == 1
    assert str(300 * 3 * 65536 * 2) in done.stderr and str(cli.MAX_DENSE_ENTRIES) in done.stderr
    assert cli.MAX_DENSE_ENTRIES == 2**26 and not (tmp_path / "out").exists()


def test_demo_plans_at_the_smallest_step_load():
    # the frontier bound takes the sweep's batch count (3 for the demo) where one batch per
    # triangle (24) would be over the limit
    from golden.make_demo_outputs import SCENES

    small = gx.scene.ARCLENGTH_CAP / gx.scene.MAX_TRACE_STEPS
    for name in ("demo_reconstruct", "demo_spectrum"):
        assert gx.load_scene(SCENES / f"{name}.json", step_override=small).step == small


@pytest.mark.parametrize("tiling, named", [
    ({"generator": {"kind": "polygon-fan", "sides": 6, "refine": 11}}, "scene.tiling.generator.refine"),
    ({"generator": {"kind": "polygon-fan", "sides": 6, "refine": 10**9}}, "scene.tiling.generator.refine"),
    ({"generator": {"kind": "polygon-fan", "sides": 70_000}}, "scene.tiling.generator.sides"),
    (dict(anchor_tiling_json(), triangles=[[0, 1, 2]] * 65_537), "scene.tiling.triangles"),
])
def test_tiling_over_the_triangle_limit_exits_before_refining(tmp_path, tiling, named):
    # a hexagon refined 11 times (25 million triangles) ran past a 20 s timeout
    # with no output; the scene's triangle count is checked before any
    # refinement or validation runs, and names the key
    scene = reconstruct_scene()
    scene["tiling"] = tiling
    path = write_scene(tmp_path, "s.json", scene)
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "forward", "--scene", path, "--out", str(tmp_path), timeout=20)
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("geoxray: error: ") and done.stderr.count("\n") == 1 and named in done.stderr
    assert str(gx.scene.MAX_TRIANGLES) in done.stderr


def test_largest_fans_under_the_triangle_limit_load():
    from geoxray.scene import MAX_TRIANGLES, _build_tiling

    assert MAX_TRIANGLES == 65_536
    assert _build_tiling({"generator": {"kind": "polygon-fan", "sides": 4, "refine": 7}}).n_triangles == MAX_TRIANGLES


@pytest.mark.parametrize("flag, kind", [
    ("--scene", "directory"), ("--scene", "latin-1 file"), ("--data", "directory"), ("--out", "file"),
    ("--out", "path under a file"),
])
def test_unusable_path_argument_exits_with_validation_code(tmp_path, capsys, flag, kind):
    args = {"--scene": write_scene(tmp_path, "s.json", reconstruct_scene()), "--out": str(tmp_path / "out")}
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    elif kind == "latin-1 file":
        bad.write_bytes('{"schema": "g\xe9oxray"}'.encode("latin-1"))
    else:
        bad.write_text("not a directory\n")
    args[flag] = str(bad / "sub" if kind == "path under a file" else bad)
    assert cli.main(["reconstruct"] + [x for pair in args.items() for x in pair]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("geoxray: error: ") and err.count("\n") == 1 and str(bad) in err


def test_seed_and_step_overrides(tmp_path):
    path = write_scene(tmp_path, "s.json", reconstruct_scene(seed=5))
    a = gx.load_scene(path, seed_override=9, step_override=0.02)
    assert a.seed == 9 and a.step == 0.02


@pytest.mark.parametrize("where", ["flag", "scene"])
def test_nan_step_exits_with_validation_code(tmp_path, where):
    scene = reconstruct_scene()
    extra = ["--step", "nan"]
    if where == "scene":
        scene["quadrature_step"] = float("nan")
        extra = []
    path = write_scene(tmp_path, "s.json", scene)
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "forward", "--scene", path, "--out", str(tmp_path), *extra)
    assert done.returncode == EXIT_VALIDATION
    assert "quadrature_step" in done.stderr


@pytest.mark.parametrize("trace", ["trace_geodesic", "trace_forward"])
def test_nan_step_rejected_by_tracer(trace):
    # trace_forward is the forward-only tracer of tests/golden/make_paths.py
    done = run_bounded(
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import geoxray as gx\n"
        "from golden.make_paths import trace_forward\n"
        "m = gx.metric_from_config('euclidean')\n"
        "start = gx.unit_tangent(m, [0.0, 0.0], [1.0, 0.0])\n"
        "trace = {'trace_geodesic': gx.trace_geodesic, 'trace_forward': trace_forward}[sys.argv[1]]\n"
        "try:\n"
        "    trace(m, start, step=float('nan'))\n"
        "except gx.SceneValidationError as exc:\n"
        "    print(exc)\n",
        trace,
    )
    assert done.returncode == 0
    assert "step must be positive and finite" in done.stdout


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_metric_parameter_exits_with_validation_code(tmp_path, value, flags):
    scene = reconstruct_scene()
    scene["metric"] = {"family": "conformal-radial", "params": [value]}
    path = write_scene(tmp_path, "s.json", scene)
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "forward", "--scene", path, "--out", str(tmp_path), flags=flags)
    assert done.returncode == EXIT_VALIDATION
    assert "metric.params" in done.stderr


@pytest.mark.parametrize("flags", [(), ("-O",)])
@pytest.mark.parametrize("param, points, normalized", [
    ("math.nan", [[0.0, 0.0]], []),
    # exp(2 lam) = exp(784.08) overflows math.exp: that row's own error, not an OverflowError
    ("400.0", [[0.99, 0.0]], []),
    # a batch where only one row overflows: the other still normalizes, lam = 0 at the origin
    ("400.0", [[0.99, 0.0], [0.0, 0.0]], [1])], ids=["nan", "overflow", "overflow-in-batch"])
def test_unit_tangent_rejects_non_finite_metric(flags, param, points, normalized):
    # built past metric_from_config's check; an assert would vanish under -O and
    # the tracer would then run to the arclength cap
    done = run_bounded(
        "import math, geoxray as gx\n"
        f"m = gx.geometry.RadialConformalMetric([{param}])\n"
        f"for row in gx.geometry.unit_tangents(m, {points}, [[1.0, 0.0]] * {len(points)}):\n"
        "    print(row.v.tolist() if isinstance(row, gx.UnitTangent) else f'{type(row).__name__}: {row}')\n"
        "try:\n"
        f"    gx.unit_tangent(m, {points[0]}, [1.0, 0.0])\n"
        "except gx.SceneValidationError as exc:\n"
        "    print(exc)\n",
        flags=flags,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert len(rows) == len(points) + 1 and "no finite unit length" in rows[-1]
    for i, row in enumerate(rows[:-1]):
        assert row == ("[1.0, 0.0]" if i in normalized else
                       f"SceneValidationError: tangent at {points[i]} has no finite unit length in the metric")


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_tracer_rejects_non_finite_start(flags):
    done = run_bounded(
        "import math, numpy as np, geoxray as gx\n"
        "m = gx.metric_from_config('conformal-radial', [0.05])\n"
        "start = gx.UnitTangent(np.array([math.nan, 0.0]), np.array([1.0, 0.0]))\n"
        "try:\n"
        "    gx.trace_geodesic(m, start)\n"
        "except gx.SceneValidationError as exc:\n"
        "    print(exc)\n",
        flags=flags,
    )
    assert done.returncode == 0
    assert "is not finite" in done.stdout


@pytest.mark.parametrize("length, step", [(math.nan, 0.01), (0.1, math.nan), (math.inf, 0.01), (0.1, math.inf)])
def test_flow_with_frame_rejects_non_finite(length, step):
    m = gx.metric_from_config("euclidean")
    start = gx.unit_tangent(m, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(gx.SceneValidationError):
        gx.geometry.unwrap(gx.geometry.flow_geodesics(m, [start], [length], step=step)[0])


@pytest.mark.parametrize("length, error", [
    (150.0, "FanConstructionError"), (1024.0, "SceneValidationError"),
    (2.0 ** 60, "SceneValidationError"), (2.0 ** 1023, "SceneValidationError"),
])
def test_long_transport_ends_with_its_lane_error(length, error):
    # once every lane had left the disk, the flow kept stepping no lanes up
    # to ceil(length / step) times, and a huge length overflowed the step count;
    # a lane that exits ends the loop, and a length above ARCLENGTH_CAP is an error
    done = run_bounded(
        "import sys, geoxray as gx\n"
        "m = gx.metric_from_config('euclidean')\n"
        "start = gx.unit_tangent(m, [0.0, 0.0], [1.0, 0.0])\n"
        "(out,) = gx.geometry.flow_geodesics(m, [start], [float(sys.argv[1])], step=1e-4)\n"
        "print(type(out).__name__)\n",
        repr(length), timeout=15)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [error]


# ---------------------------------------------------------------------------
# forward command
# ---------------------------------------------------------------------------

def forward_scene(tiling, weight, field, count=20, seed=3):
    return {
        "schema": "geoxray-scene/1",
        "seed": seed,
        "quadrature_step": 0.01,
        "metric": {"family": "euclidean", "params": []},
        "tiling": tiling,
        "field": field,
        "weight": weight,
        "plans": {"chords": {"mode": "random", "count": count}},
    }


def test_forward_zero_field_all_rows_zero(tmp_path):
    scene = forward_scene(anchor_tiling_json(), {"family": "identity", "k": 1},
                          {"k": 1, "zero": True})
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["forward", "--scene", spath, "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "forward.csv")
    assert len(rows) == 20
    for row in rows:
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0


def test_forward_matches_clipping_oracle(tmp_path):
    c = [0.4, -0.7]
    scene = forward_scene(anchor_tiling_json(), {"family": "identity", "k": 1},
                          {"k": 1, "values": [[c]]}, count=25)
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["forward", "--scene", spath, "--out", str(tmp_path)]) == 0
    loaded = gx.load_scene(spath)
    _, rows = read_csv_rows(tmp_path / "forward.csv")
    for row in rows:
        ba, da = float(row[0]), float(row[1])
        p0 = np.array([math.cos(ba), math.sin(ba)])
        d = np.array([math.cos(da), math.sin(da)])
        expected = chord_forward_value(p0, d, loaded.tiling, loaded.field.values)
        assert abs(complex(float(row[2]), float(row[3])) - expected[0]) <= 1e-8


def test_forward_embedding_preserves_components(tmp_path):
    field = {"k": 2, "random": {}}
    tiling = {"generator": {"kind": "polygon-fan", "sides": 6, "refine": 0}}
    s1 = forward_scene(tiling, {"family": "identity", "k": 2}, field, count=10, seed=11)
    s2 = forward_scene(tiling, {"family": "constant-matrix",
                                "matrix": [[1, 0], [0, 1], [0, 0]]}, field, count=10, seed=11)
    p1 = write_scene(tmp_path, "s1.json", s1)
    p2 = write_scene(tmp_path, "s2.json", s2)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["forward", "--scene", p1, "--out", str(out1)]) == 0
    assert cli.main(["forward", "--scene", p2, "--out", str(out2)]) == 0
    _, rows1 = read_csv_rows(out1 / "forward.csv")
    _, rows2 = read_csv_rows(out2 / "forward.csv")
    for r1, r2 in zip(rows1, rows2):
        assert r1[:6] == r2[:6]  # descriptors and first k = 2 complex components
        assert float(r2[6]) == 0.0 and float(r2[7]) == 0.0


def test_forward_deterministic_bytes(tmp_path):
    scene = forward_scene(anchor_tiling_json(), {"family": "identity", "k": 1},
                          {"k": 1, "random": {}})
    spath = write_scene(tmp_path, "s.json", scene)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["forward", "--scene", spath, "--out", str(out1)]) == 0
    assert cli.main(["forward", "--scene", spath, "--out", str(out2)]) == 0
    assert (out1 / "forward.csv").read_bytes() == (out2 / "forward.csv").read_bytes()


def test_forward_validation_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["forward", "--scene", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# limit-check command
# ---------------------------------------------------------------------------

def limit_scene(metric, weight, field_values, h_exponents=range(3, 11), step=2e-3):
    return {
        "schema": "geoxray-scene/1",
        "seed": 0,
        "quadrature_step": step,
        "metric": metric,
        "tiling": anchor_tiling_json(),
        "field": {"k": 1, "values": [[field_values]]},
        "weight": weight,
        "plans": {"fan_limit": {"anchor_angle": 0.0,
                                "v_offsets_deg": [-25, -12, 0, 12, 25],
                                "h_exponents": list(h_exponents)}},
    }


def test_limit_check_flat_constant_weight(tmp_path):
    scene = limit_scene({"family": "euclidean", "params": []},
                        {"family": "identity", "k": 1}, [1.0, -0.5])
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", spath, "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "limit_check.csv")
    assert len(rows) == 5 * 8
    assert all(float(r[2]) <= 1e-9 for r in rows)


def test_limit_check_decreasing_for_continuous_weight(tmp_path):
    scene = limit_scene({"family": "conformal-radial", "params": [0.05]},
                        {"family": "angular", "k": 1, "order": 2, "amplitude": 0.3},
                        [1.0, 0.0])
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", spath, "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "limit_check.csv")
    by_v = {}
    for r in rows:
        by_v.setdefault(r[1], []).append((float(r[0]), float(r[2])))
    for errs in by_v.values():
        errs.sort(key=lambda t: -t[0])
        vals = [e for _h, e in errs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_limit_check_zero_field(tmp_path):
    scene = limit_scene({"family": "euclidean", "params": []},
                        {"family": "identity", "k": 1}, [0.0, 0.0],
                        h_exponents=[3, 5], step=5e-3)
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", spath, "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "limit_check.csv")
    assert all(float(r[2]) == 0.0 for r in rows)


def test_limit_check_anchor_not_a_vertex_exit(tmp_path):
    scene = limit_scene({"family": "euclidean", "params": []},
                        {"family": "identity", "k": 1}, [1.0, 0.0],
                        h_exponents=[3], step=1e-2)
    scene["plans"]["fan_limit"]["anchor_angle"] = 1.0  # no tiling vertex there
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", spath, "--out", str(tmp_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("exponent", [-10, -30, -60, -1023, -1024, 1075])
def test_fan_offset_out_of_range_exits_with_one_error_line(tmp_path, exponent):
    # h = 2^10 and 2^30 ran past a 15 s timeout, 2^60, 2^1023 and 2^1024 ended in
    # OverflowError tracebacks, and h = 0 failed naming no key; an offset must
    # lie in (0, ARCLENGTH_CAP]
    scene = limit_scene({"family": "euclidean", "params": []},
                        {"family": "identity", "k": 1}, [1.0, 0.0], h_exponents=[3, exponent])
    path = write_scene(tmp_path, "s.json", scene)
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "limit-check", "--scene", path, "--out", str(tmp_path), timeout=15)
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("geoxray: error: ") and done.stderr.count("\n") == 1
    assert "scene.plans.fan_limit.h_exponents" in done.stderr


@pytest.mark.parametrize("step", ["1e-20", "1e-300", "1e-15", "2.2e-17"])
def test_step_too_small_to_count_exits_with_one_error_line(tmp_path, step):
    # the flow of each fan member to its offset counts its steps in int64: the first two
    # steps ended in OverflowError tracebacks with exit 1, and the last two, whose
    # counts fit in int64 but take years, hung; the scene's step is now checked
    # against MAX_TRACE_STEPS at load, before anything is traced
    path = str(Path(__file__).resolve().parents[1] / "scenes" / "demo_limit_check.json")
    done = run_bounded("import sys; from geoxray import cli; sys.exit(cli.main(sys.argv[1:]))",
                       "limit-check", "--scene", path, "--out", str(tmp_path), "--step", step, timeout=15)
    assert done.returncode == EXIT_VALIDATION
    assert done.stderr.startswith("geoxray: error: integrator step ") and done.stderr.count("\n") == 1
    assert "scene.quadrature_step / --step" in done.stderr


def test_limit_check_trapping_exit_code(tmp_path):
    # the anchor is convex (geodesic curvature 0.948), but the h = 0.5 fan member is trapped: r exp(lam)
    # falls below its r = 0.5 value near r = 0.6
    scene = limit_scene({"family": "conformal-gaussian", "params": [2, 0, 0, 0.4]},
                        {"family": "identity", "k": 1}, [1.0, 0.0],
                        h_exponents=[1], step=1e-2)
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", spath, "--out", str(tmp_path)]) == EXIT_TRAPPING


@pytest.mark.parametrize("metric, h_exponents, curvature", [
    ({"family": "conformal-gaussian", "params": [2, 0.5, 0, 0.3]}, range(5, 13), "-0.337"),
    ({"family": "conformal-gaussian", "params": [2, 0.5, 0, 0.3]}, range(3, 11), "-0.337"),
    ({"family": "conformal-radial", "params": [-2.5]}, [3], "-48.7"),   # concave everywhere
])
def test_limit_check_on_a_concave_anchor_exits_with_validation_code(tmp_path, capsys, metric, h_exponents,
                                                                    curvature):
    # the fan's short chords need a strictly convex boundary at the anchor; on the bump's concave stretch
    # limit-check exited 0 with err growing to 1.27e4 as h shrank (h = 2^-5..2^-12), or exited 6 blaming the
    # metric's nontrapping (2^-3..2^-10)
    path = demo_scene_path(tmp_path, "demo_reconstruct", "metric", metric)
    scene = json.loads(Path(path).read_text(encoding="utf-8"))
    scene["plans"] = {"fan_limit": {"anchor_angle": 0.0, "v_offsets_deg": [-25, -12, 0, 12, 25],
                                    "h_exponents": list(h_exponents)}}
    path = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["limit-check", "--scene", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("geoxray: error: scene.plans.fan_limit.anchor_angle: ") and err.count("\n") == 1
    assert f"geodesic curvature {curvature})" in err and not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# reconstruct command
# ---------------------------------------------------------------------------

def test_reconstruct_roundtrip_and_recorded_identical(tmp_path):
    spath = write_scene(tmp_path, "s.json", reconstruct_scene())
    out_syn = tmp_path / "syn"
    assert cli.main(["reconstruct", "--scene", spath, "--out", str(out_syn)]) == 0
    scene = gx.load_scene(spath)
    _, rows = read_csv_rows(out_syn / "reconstruction_values.csv")
    truth = scene.field.values
    worst = 0.0
    for i, row in enumerate(rows):
        got = np.array([complex(float(row[1]), float(row[2])),
                        complex(float(row[3]), float(row[4]))])
        worst = max(worst, float(np.max(np.abs(got - truth[i]))))
    assert worst / np.max(np.abs(truth)) <= 1e-6

    out_fwd = tmp_path / "fwd"
    assert cli.main(["forward", "--scene", spath, "--out", str(out_fwd)]) == 0
    out_rec = tmp_path / "rec"
    assert cli.main(["reconstruct", "--scene", spath,
                     "--data", str(out_fwd / "forward.csv"),
                     "--out", str(out_rec)]) == 0
    assert ((out_syn / "reconstruction_values.csv").read_bytes()
            == (out_rec / "reconstruction_values.csv").read_bytes())
    assert ((out_syn / "reconstruction_report.txt").read_bytes()
            == (out_rec / "reconstruction_report.txt").read_bytes())


def test_recorded_descriptor_given_twice_keeps_its_last_row(tmp_path):
    # a --data file may give a descriptor twice: the later row is the one read, so zeros first and the
    # forward values after them reconstruct the bytes of the synthetic run
    spath = write_scene(tmp_path, "s.json", reconstruct_scene())
    assert cli.main(["forward", "--scene", spath, "--out", str(tmp_path / "fwd")]) == 0
    assert cli.main(["reconstruct", "--scene", spath, "--out", str(tmp_path / "syn")]) == 0
    header, *rows = (tmp_path / "fwd" / "forward.csv").read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    zeros = ",".join(cells[:2] + ["0.0"] * (len(cells) - 2))
    data = tmp_path / "data.csv"
    data.write_text("\n".join([header, zeros, *rows]) + "\n", encoding="utf-8")
    assert cli.main(["reconstruct", "--scene", spath, "--data", str(data), "--out", str(tmp_path / "rec")]) == 0
    for name in ("reconstruction_values.csv", "reconstruction_report.txt"):
        assert (tmp_path / "rec" / name).read_bytes() == (tmp_path / "syn" / name).read_bytes()


def test_commands_that_draw_nothing_leave_numpy_random_unimported(tmp_path):
    # a scene builds a random generator only where it draws (a random field, random chords, noise):
    # limit-check on the demo scene and a noise-free reconstruct on a values field draw nothing
    from golden.make_demo_outputs import SCENES

    scene = reconstruct_scene()
    scene["field"] = {"k": 2, "values": [[[1.0, 0.5], [-0.25, 2.0]]] * 24}
    for command, path in (("limit-check", str(SCENES / "demo_limit_check.json")),
                          ("reconstruct", write_scene(tmp_path, "s.json", scene))):
        done = run_bounded("import sys; from geoxray import cli; code = cli.main(sys.argv[1:]); "
                           "print('numpy.random' in sys.modules); sys.exit(code)",
                           command, "--scene", path, "--out", str(tmp_path / command), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("row, line", [
    ("abc,0,1,0,1,0,1,0", 2),
    ("0.1,0.2,1,0,1,0", 2),
    ("0.1,0.2,1,0,nan,0,1,0", 2),
    ("0.1,0.2,1,0,1,0,1,0\n0.3,inf,1,0,1,0,1,0", 3),
    ("", None),
    ("boundary_angle,direction_angle," + ",".join(cli._complex_header("value", 2)) + "\n0.1,0.2,1,0,1,0", None),
])
def test_bad_recorded_data_exits_with_validation_code(tmp_path, capsys, row, line):
    # the demo weight is 3 x 2: two descriptor columns and three complex values per row; with no
    # line, the row is the whole file, and its header (none, or one of 6 columns) is rejected
    spath = write_scene(tmp_path, "s.json", reconstruct_scene())
    data = tmp_path / "data.csv"
    data.write_text(row if line is None else "boundary_angle,direction_angle,"
                    + ",".join(cli._complex_header("value", 3)) + "\n" + row + "\n")
    assert cli.main(["reconstruct", "--scene", spath, "--data", str(data), "--out", str(tmp_path)]) == EXIT_VALIDATION
    named = f"data file {data}: expected 8 columns for m=3" if line is None else f"data file {data}, line {line}:"
    assert named in capsys.readouterr().err


def test_reconstruct_deleted_batch_coverage_exit(tmp_path):
    scene = reconstruct_scene()
    scene["plans"]["chords"] = {"mode": "frontier", "rotations": 18,
                                "levels": [0.8, 0.85, 0.9, 0.95, 0.05, 0.1, 0.2]}
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["reconstruct", "--scene", spath, "--out", str(tmp_path)]) == EXIT_COVERAGE


@pytest.mark.parametrize("chords", [{"mode": "random", "count": 5}, {"mode": "grid", "distances": 3, "rotations": 4}])
@pytest.mark.parametrize("data", [None, "missing.csv"])
def test_reconstruct_rejects_a_plan_not_in_frontier_mode(tmp_path, capsys, chords, data):
    # reconstruct sweeps a frontier plan only; the mode is checked before the data file is read,
    # so a --data file that does not exist gives the same one line
    path = demo_scene_path(tmp_path, "demo_reconstruct", "plans.chords", chords)
    flags = [] if data is None else ["--data", str(tmp_path / data)]
    assert cli.main(["reconstruct", "--scene", path, "--out", str(tmp_path / "out")] + flags) == EXIT_VALIDATION
    assert capsys.readouterr().err == "geoxray: error: scene.plans.chords: frontier mode required by reconstruct\n"


def test_reconstruct_non_injective_exit(tmp_path):
    scene = reconstruct_scene()
    scene["weight"] = {"family": "constant-matrix", "matrix": [[1, 0], [1, 0], [0, 0]]}
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["reconstruct", "--scene", spath, "--out", str(tmp_path)]) == EXIT_NON_INJECTIVE


def test_reconstruct_overflowing_weight_is_ill_posed(tmp_path, capsys):
    # a weight entry of 1e308 overflows the trapezoid sums to inf: the SVD of that system gave NaN
    # singular values, which passed the condition cap, and lstsq raised LinAlgError
    path = demo_scene_path(tmp_path, "demo_reconstruct", "weight.matrix", [[1e308, 0.2], [0.1, 1.0], [0.4, 0.6]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["reconstruct", "--scene", path, "--out", str(tmp_path / "out")]) == EXIT_ILL_POSED
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, output", [("forward", "forward.csv"), ("spectrum", "spectrum.csv")])
def test_overflowing_weight_exits_ill_posed(tmp_path, capfd, command, output):
    # the same entry made forward print numpy's overflow warnings and write nan values, and spectrum
    # hand LAPACK's scaling routine non-finite entries too; each exited 0.  Now the plan row whose
    # integrals overflow carries the error: one line, exit 4, no warning (they are errors here) and no file
    path = demo_scene_path(tmp_path, "demo_spectrum", "weight.matrix", [[1e308, 0.2], [0.1, 1.0], [0.4, 0.6]])
    assert cli.main([command, "--scene", path, "--out", str(tmp_path / "out")]) == EXIT_ILL_POSED
    out, err = capfd.readouterr()
    assert out == "" and err == "geoxray: error: plan row 0: the weight integrals are non-finite (the weight overflows)\n"
    assert not (tmp_path / "out" / output).exists()


def test_unexpected_exception_exits_with_one_line(tmp_path, capsys, monkeypatch):
    # an exception that is no GeoxrayError is a fault of the program: one line naming its type, exit 1
    def broken(scene, out_dir):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(cli, "cmd_forward", broken)
    path = demo_scene_path(tmp_path, "demo_spectrum", "seed", 1)
    assert cli.main(["forward", "--scene", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "geoxray: internal error: RuntimeError: broken on purpose\n")


def test_reconstruct_condition_cap_exit(tmp_path):
    scene = reconstruct_scene()
    scene["tolerances"] = {"condition_cap": 1.0000001}
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["reconstruct", "--scene", spath, "--out", str(tmp_path)]) == EXIT_ILL_POSED


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------

def spectrum_scene(weight):
    scene = reconstruct_scene()
    scene["weight"] = weight
    scene["plans"] = {"chords": {"mode": "grid", "distances": 6, "rotations": 20}}
    return scene


def test_spectrum_injective_vs_rank_deficient(tmp_path):
    p_good = write_scene(tmp_path, "good.json",
                         spectrum_scene({"family": "constant-matrix", "matrix": INJECTIVE_32}))
    p_bad = write_scene(tmp_path, "bad.json",
                        spectrum_scene({"family": "constant-matrix",
                                        "matrix": [[1, 0], [1, 0], [0, 0]]}))
    out_good, out_bad = tmp_path / "good", tmp_path / "bad"
    assert cli.main(["spectrum", "--scene", p_good, "--out", str(out_good)]) == 0
    assert cli.main(["spectrum", "--scene", p_bad, "--out", str(out_bad)]) == 0
    _, summary_good = read_csv_rows(out_good / "spectrum_summary.csv")
    _, summary_bad = read_csv_rows(out_bad / "spectrum_summary.csv")
    assert float(summary_good[0][2]) > 1e-6
    assert float(summary_bad[0][2]) < 1e-12


def test_spectrum_empty_support_header_only(tmp_path):
    scene = spectrum_scene({"family": "identity", "k": 1})
    scene["tiling"] = {"vertices": [], "triangles": []}
    scene["field"] = {"k": 1, "values": []}
    spath = write_scene(tmp_path, "s.json", scene)
    assert cli.main(["spectrum", "--scene", spath, "--out", str(tmp_path)]) == 0
    header, rows = read_csv_rows(tmp_path / "spectrum.csv")
    assert header == ["index", "sigma"] and rows == []


def test_threads_flag_matches_serial(tmp_path):
    scene = forward_scene(anchor_tiling_json(), {"family": "identity", "k": 1},
                          {"k": 1, "random": {}}, count=8)
    spath = write_scene(tmp_path, "s.json", scene)
    out1, out2 = tmp_path / "serial", tmp_path / "pooled"
    assert cli.main(["forward", "--scene", spath, "--out", str(out1)]) == 0
    assert cli.main(["forward", "--scene", spath, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "forward.csv").read_bytes() == (out2 / "forward.csv").read_bytes()


# ---------------------------------------------------------------------------
# golden demo outputs
# ---------------------------------------------------------------------------

def test_demo_outputs_match_golden(tmp_path):
    # tests/golden/demo holds the outputs of the four commands on scenes/*.json,
    # written before the commands shared one plan-to-operator layer (see
    # make_demo_outputs.py): same files, same lines and text, headers exact,
    # numbers to rtol 1e-12 of the largest magnitude in their column.
    from golden.make_demo_outputs import OUT, numbered_lines, run_demo

    files = run_demo(tmp_path)
    assert files == sorted(p.relative_to(OUT).as_posix() for p in OUT.rglob("*") if p.is_file())
    for name in files:
        got = numbered_lines((tmp_path / name).read_text(encoding="utf-8"))
        want = numbered_lines((OUT / name).read_text(encoding="utf-8"))
        assert [text for text, _ in got] == [text for text, _ in want], name
        if name.endswith(".csv"):
            assert (tmp_path / name).read_text().split("\n", 1)[0] == (OUT / name).read_text().split("\n", 1)[0]
        scale = {}
        for text, numbers in want:
            for j, w in enumerate(numbers):
                scale[text, j] = max(scale.get((text, j), 0.0), abs(w))
        for line, ((text, g_numbers), (_, w_numbers)) in enumerate(zip(got, want)):
            assert len(g_numbers) == len(w_numbers), (name, line)
            for j, (g, w) in enumerate(zip(g_numbers, w_numbers)):
                assert g == w or abs(g - w) <= 1e-12 * max(abs(w), scale[text, j]), (name, line, j, g, w)
