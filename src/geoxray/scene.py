"""Scene files: a versioned JSON description of one complete experiment.

A scene pins the metric, tiling, field, weight, foliation, geodesic plans,
quadrature step and seed, so that every command is reproducible from the
file alone.  Parse errors are reported with the JSON line; semantic errors
name the offending key path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneValidationError, config_build, config_keys, config_number, config_numbers, read_text
from .foliation import FoliationFunction, foliation_from_config
from .geometry import ARCLENGTH_CAP, MetricField, metric_from_config
from .recovery import ChordPlan, _ring_descriptors, order_frontier, reconstruction_descriptors
from .tiling import PiecewiseConstantField, Tiling, polygon_fan_tiling, refine
from .weights import WeightField, complex_matrix, weight_from_config

SCHEMA = "geoxray-scene/1"
DEFAULT_QUADRATURE_STEP = 1e-2
# The most triangles a scene's tiling may have (sides * 4**refine for a fan), checked before refining.
MAX_TRIANGLES = 1 << 16
# The most integrator steps a geodesic may take before the tracer's arclength cap ends it as
# trapped: a scene's step is at least ARCLENGTH_CAP / MAX_TRACE_STEPS (2e-4).
MAX_TRACE_STEPS = 10**6
# The most integrator steps a scene's chord plan may take, its planned rays each up to the arclength cap:
# 50,000 rays at step 0.01, 1,000 at 2e-4.  A plan past it (1e30 rotations, say) would run for ever.
MAX_PLAN_STEPS = 10**9


@dataclass
class FanLimitPlan:
    anchor_angle: float
    v_offsets: list          # radians, relative to the inward normal
    h_values: list
    sign: int = 1


@dataclass
class Scene:
    """All built objects of one scene, ready for the commands."""

    seed: int
    step: float
    metric: MetricField
    tiling: Tiling
    field: PiecewiseConstantField
    weight: WeightField
    foliation: FoliationFunction | None
    fan_plan: FanLimitPlan | None
    chords: ChordPlan | None
    noise_sigma: float
    cond_cap: float

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def load_scene(path, step_override=None, seed_override=None) -> Scene:
    try:
        raw = json.loads(read_text(path, "scene"))
    except json.JSONDecodeError as exc:
        raise SceneValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    return build_scene(raw, step_override=step_override, seed_override=seed_override)


def build_scene(raw: dict, step_override=None, seed_override=None) -> Scene:
    if not isinstance(raw, dict):
        raise SceneValidationError("scene: top level must be an object")
    schema = raw.get("schema")
    if schema != SCHEMA:
        raise SceneValidationError(f"scene.schema: expected {SCHEMA!r}, got {schema!r}")
    config_keys(raw, "scene", ("schema", "seed", "quadrature_step", "metric", "tiling", "field", "weight",
                               "foliation", "plans", "noise", "tolerances"))
    seed = config_number(raw.get("seed", 0) if seed_override is None else seed_override,
                         "scene.seed", integer=True, minimum=0)
    step = config_number(raw.get("quadrature_step", DEFAULT_QUADRATURE_STEP) if step_override is None
                         else step_override, "scene.quadrature_step")
    if not step > 0:
        raise SceneValidationError("scene.quadrature_step: must be positive and finite")
    if ARCLENGTH_CAP / step > MAX_TRACE_STEPS:
        raise SceneValidationError(f"integrator step {step:g} (scene.quadrature_step / --step) is below "
                                   f"{ARCLENGTH_CAP / MAX_TRACE_STEPS:g}: a geodesic up to the arclength cap "
                                   f"{ARCLENGTH_CAP:g} would take more than {MAX_TRACE_STEPS:,} steps")

    metric_cfg = _section(raw, "metric", required=True, keys=("family", "params"))
    metric = metric_from_config(metric_cfg.get("family"), metric_cfg.get("params", ()))
    tiling = _build_tiling(_section(raw, "tiling", required=True))
    weight = weight_from_config(_section(raw, "weight", required=True), metric, trace_step=step)
    field = _build_field(_section(raw, "field", required=True), tiling, weight, seed)

    foliation = None
    if raw.get("foliation") is not None:
        cfg = _section(raw, "foliation", keys=("family", "params"))
        foliation = foliation_from_config(cfg.get("family"), cfg.get("params", ()))

    fan_plan, chords = _build_plans(_section(raw, "plans", keys=("fan_limit", "chords")))
    _check_plan_size(chords, step, tiling, foliation)

    noise_sigma = config_number(_section(raw, "noise", keys=("sigma",)).get("sigma", 0.0), "scene.noise.sigma",
                                minimum=0.0)

    cond_cap = config_number(_section(raw, "tolerances", keys=("condition_cap",)).get("condition_cap", 1e8),
                             "scene.tolerances.condition_cap")
    if cond_cap <= 0:
        raise SceneValidationError("scene.tolerances.condition_cap: must be positive")

    return Scene(seed=seed, step=step, metric=metric, tiling=tiling, field=field,
                 weight=weight, foliation=foliation, fan_plan=fan_plan, chords=chords,
                 noise_sigma=noise_sigma, cond_cap=cond_cap)


def _section(cfg: dict, name: str, key: str = "scene", required: bool = False, keys=None) -> dict:
    """The object ``cfg[name]``; ``{}`` when it is absent or null, unless ``required``.  Its keys must be
    among ``keys`` when those are given."""
    value = cfg.get(name)
    if not value and required:
        raise SceneValidationError(f"{key}.{name}: missing")
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SceneValidationError(f"{key}.{name}: expected an object, got {value!r}")
    if keys is not None:
        config_keys(value, f"{key}.{name}", keys)
    return value


def _build_tiling(cfg) -> Tiling:
    if "generator" in cfg:
        config_keys(cfg, "scene.tiling", ("generator",))
        gen = _section(cfg, "generator", "scene.tiling", keys=("kind", "sides", "refine", "rotation"))
        kind = gen.get("kind")
        if kind != "polygon-fan":
            raise SceneValidationError(f"scene.tiling.generator.kind: unknown {kind!r}")
        sides = config_number(gen.get("sides", 6), "scene.tiling.generator.sides", integer=True, minimum=3)
        levels = config_number(gen.get("refine", 0), "scene.tiling.generator.refine", integer=True, minimum=0)
        if sides << 2 * min(levels, 32) > MAX_TRIANGLES:
            raise SceneValidationError(f"scene.tiling.generator.{'refine' if levels else 'sides'}: {sides} sides "
                                       f"refined {levels} times exceed the limit of {MAX_TRIANGLES} triangles")
        tiling = polygon_fan_tiling(sides, config_number(gen.get("rotation", 0.0), "scene.tiling.generator.rotation"))
        for _ in range(levels):
            tiling = refine(tiling)
        return tiling
    if "vertices" in cfg and "triangles" in cfg:
        config_keys(cfg, "scene.tiling", ("vertices", "triangles"))
        try:
            vertices = np.asarray(cfg["vertices"], dtype=float)
            triangles = np.asarray(cfg["triangles"])
        except (TypeError, ValueError):
            raise SceneValidationError(
                "scene.tiling: vertices must be [x, y] rows and triangles [i, j, k] rows of numbers") from None
        if vertices.size and (vertices.ndim != 2 or vertices.shape[1] != 2):
            raise SceneValidationError(f"scene.tiling.vertices: expected [x, y] rows, got {cfg['vertices']!r}")
        if triangles.size and (triangles.ndim != 2 or triangles.shape[1] != 3):
            raise SceneValidationError(f"scene.tiling.triangles: expected [i, j, k] rows, got {cfg['triangles']!r}")
        if not np.isfinite(vertices).all():
            raise SceneValidationError("scene.tiling.vertices: must be finite")
        if triangles.dtype.kind != "i" and not (triangles.dtype.kind == "f"
                                                 and np.all(np.mod(triangles, 1.0) == 0.0)):
            raise SceneValidationError("scene.tiling.triangles: vertex indices must be integers")
        if triangles.size > 3 * MAX_TRIANGLES:
            raise SceneValidationError(f"scene.tiling.triangles: more than the limit of {MAX_TRIANGLES} triangles")
        return config_build("scene.tiling.triangles", Tiling, vertices, triangles)
    raise SceneValidationError("scene.tiling: give a generator or vertices+triangles")


def _build_field(cfg, tiling, weight, seed) -> PiecewiseConstantField:
    k = config_number(cfg.get("k", weight.k), "scene.field.k", integer=True)
    if k != weight.k:
        raise SceneValidationError(f"scene.field.k: field k={k:g} does not match weight k={weight.k}")
    if "values" in cfg:
        config_keys(cfg, "scene.field", ("k", "values"))
        rows = cfg["values"]
        if isinstance(rows, list) and len(rows) != tiling.n_triangles:
            raise SceneValidationError(
                f"scene.field.values: {len(rows)} rows for {tiling.n_triangles} triangles"
            )
        return PiecewiseConstantField(values=complex_matrix(rows, "scene.field.values", k), k=k)
    if "random" in cfg:
        config_keys(cfg, "scene.field", ("k", "random"))
        rcfg = _section(cfg, "random", "scene.field", keys=("scale", "real"))
        scale = config_number(rcfg.get("scale", 1.0), "scene.field.random.scale", minimum=0.0)
        if not 2.0 * scale < math.inf:
            raise SceneValidationError(f"scene.field.random.scale: {scale:g} overflows the width of [-scale, scale]")
        if not isinstance(real := rcfg.get("real", False), bool):
            raise SceneValidationError(f"scene.field.random.real: expected true or false, got {real!r}")
        return PiecewiseConstantField.random(tiling.n_triangles, k, np.random.default_rng(seed),
                                             real=real, scale=scale)
    if cfg.get("zero"):
        config_keys(cfg, "scene.field", ("k", "zero"))
        return PiecewiseConstantField.zero(tiling.n_triangles, k)
    raise SceneValidationError("scene.field: give values, random, or zero")


def _build_plans(cfg):
    fan_plan = None
    chords = None
    if cfg.get("fan_limit") is not None:
        f = _section(cfg, "fan_limit", "scene.plans", keys=("anchor_angle", "v_offsets_deg", "h_exponents", "sign"))
        offsets = f.get("v_offsets_deg")
        if offsets is None:
            raise SceneValidationError("scene.plans.fan_limit.v_offsets_deg: missing")
        exponents = f.get("h_exponents")
        if exponents is None:
            raise SceneValidationError("scene.plans.fan_limit.h_exponents: missing")
        h_values = []
        for e in config_numbers(exponents, "scene.plans.fan_limit.h_exponents", integer=True):
            h = 2.0 ** -min(e, 1075) if e > -1024 else math.inf     # 2**-e, without overflow
            if not 0.0 < h <= ARCLENGTH_CAP:
                raise SceneValidationError(f"scene.plans.fan_limit.h_exponents: the offset h = 2^-e must be "
                                           f"positive and at most {ARCLENGTH_CAP:g}, got e = {e}")
            h_values.append(h)
        sign = config_number(f.get("sign", 1), "scene.plans.fan_limit.sign", integer=True)
        if sign not in (1, -1):
            raise SceneValidationError(f"scene.plans.fan_limit.sign: expected 1 or -1, got {sign!r}")
        fan_plan = FanLimitPlan(
            anchor_angle=config_number(f.get("anchor_angle", 0.0), "scene.plans.fan_limit.anchor_angle"),
            v_offsets=[math.radians(d) for d in config_numbers(offsets, "scene.plans.fan_limit.v_offsets_deg")],
            h_values=h_values, sign=sign,
        )
    if cfg.get("chords") is not None:
        c = _section(cfg, "chords", "scene.plans")
        mode = c.get("mode")
        if not isinstance(mode, str) or mode not in ChordPlan.SIZES:
            raise SceneValidationError("scene.plans.chords.mode: expected random, grid, or frontier")
        config_keys(c, "scene.plans.chords", ("mode", *ChordPlan.SIZES[mode]) + ("levels",) * (mode == "frontier"))
        sizes = {name: config_number(c.get(name, getattr(ChordPlan, name)), f"scene.plans.chords.{name}", integer=True)
                 for name in ChordPlan.SIZES[mode]}   # each key's value, ChordPlan's default when it is absent
        levels = c.get("levels")
        if levels is not None:
            levels = tuple(config_numbers(levels, "scene.plans.chords.levels"))
            if not levels:
                raise SceneValidationError("scene.plans.chords.levels: expected at least one level, got []")
        for name, n in sizes.items():
            if n <= 0 and not (name == "levels_per_batch" and levels is not None):   # pinned levels waive it
                raise SceneValidationError(f"scene.plans.chords.{name}: must be positive")
        chords = ChordPlan(mode, **sizes, levels=levels)
    return fan_plan, chords


def _check_plan_size(plan, step, tiling, foliation):
    """Reject a chord plan whose rays, each stepped up to the arclength cap, could take more than
    ``MAX_PLAN_STEPS`` steps, naming the key of its largest factor.  A frontier plan aims
    ``rotations`` chords at each level: ``levels_per_batch`` per batch, or each pinned level once."""
    if plan is None:
        return
    factors = {name: getattr(plan, name) for name in ChordPlan.SIZES[plan.mode]}
    batches = 1
    if plan.levels is not None:
        del factors["levels_per_batch"]
        factors["levels"] = len(plan.levels)
    elif plan.mode == "frontier":   # a batch per triangle at most; the batch count itself only where that bound is over
        batches = tiling.n_triangles
    rays = math.prod(float(min(max(n, 0), 1e308)) for n in factors.values())   # a float, inf past its range
    steps = rays * (ARCLENGTH_CAP / step)
    if steps * batches > MAX_PLAN_STEPS and batches > 1 and foliation is not None:
        batches = len(order_frontier(tiling, foliation))
    if steps * batches > MAX_PLAN_STEPS:
        raise SceneValidationError(
            f"scene.plans.chords.{max(factors, key=factors.get)}: {rays * batches:.3g} planned rays at step "
            f"{step:g} could take {steps * batches:.3g} integrator steps, over the limit of {MAX_PLAN_STEPS:.0e}")


# ---------------------------------------------------------------------------
# descriptor generation for the chord plans
# ---------------------------------------------------------------------------

def random_chord_descriptors(count: int, rng) -> list:
    """Random boundary chords: two independent uniform boundary angles."""
    out = []
    while len(out) < count:
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if abs(math.cos(a) - math.cos(b)) < 1e-9 and abs(math.sin(a) - math.sin(b)) < 1e-9:
            continue
        direction = math.atan2(math.sin(b) - math.sin(a), math.cos(b) - math.cos(a))
        out.append((a, direction))
    return out


def grid_chord_descriptors(distances: int, rotations: int) -> list:
    """Deterministic chord grid: distance shells times rotations."""
    out = []
    for i in range(distances):
        out += _ring_descriptors(np.zeros(2), (i + 0.5) / distances,
                                 [2.0 * math.pi * j / rotations + 0.1 * (i + 1) / distances for j in range(rotations)])
    return out


def scene_chord_descriptors(scene: Scene) -> list:
    """The scene's planned chords, per its chord mode."""
    chords = scene.chords
    if chords is None:
        raise SceneValidationError("scene.plans.chords: missing (required by forward and spectrum)")
    if chords.mode == "random":
        return random_chord_descriptors(chords.count, scene.rng())
    if chords.mode == "grid":
        return grid_chord_descriptors(chords.distances, chords.rotations)
    if scene.foliation is None:
        raise SceneValidationError("scene.foliation: missing (required by frontier chords)")
    return reconstruction_descriptors(scene.tiling, scene.foliation, chords)
