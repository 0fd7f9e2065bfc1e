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

from .errors import SceneValidationError
from .foliation import FoliationFunction, foliation_from_config
from .geometry import MetricField, metric_from_config
from .recovery import ChordPlan
from .tiling import PiecewiseConstantField, Tiling, polygon_fan_tiling, refine
from .weights import WeightField, weight_from_config

SCHEMA = "geoxray-scene/1"
DEFAULT_QUADRATURE_STEP = 1e-2


@dataclass
class FanLimitPlan:
    anchor_angle: float
    v_offsets: list          # radians, relative to the inward normal
    h_values: list
    sign: int = 1


@dataclass
class Scene:
    """All built objects of one scene, ready for the commands."""

    schema: str
    seed: int
    step: float
    metric: MetricField
    tiling: Tiling
    field: PiecewiseConstantField
    weight: WeightField
    foliation: FoliationFunction | None
    fan_plan: FanLimitPlan | None
    chord_plan: ChordPlan | None
    chord_mode: str | None    # "random" | "grid" | "frontier"
    random_count: int
    grid_distances: int
    grid_rotations: int
    noise_sigma: float
    cond_cap: float

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def load_scene(path, step_override=None, seed_override=None) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise SceneValidationError(f"scene file not found: {path}") from None
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
    seed = int(raw.get("seed", 0)) if seed_override is None else int(seed_override)
    step = float(raw.get("quadrature_step", DEFAULT_QUADRATURE_STEP))
    if step_override is not None:
        step = float(step_override)
    if not (math.isfinite(step) and step > 0):
        raise SceneValidationError("scene.quadrature_step: must be positive and finite")

    metric = _build_metric(raw.get("metric"))
    tiling = _build_tiling(raw.get("tiling"))
    weight = _build_weight(raw.get("weight"), metric, step)
    rng = np.random.default_rng(seed)
    field = _build_field(raw.get("field"), tiling, weight, rng)
    if field.k != weight.k:
        raise SceneValidationError(
            f"scene: field k={field.k} does not match weight k={weight.k}"
        )

    foliation = None
    if raw.get("foliation") is not None:
        cfg = raw["foliation"]
        foliation = foliation_from_config(cfg.get("family"), cfg.get("params", ()))

    fan_plan, chord_plan, chord_mode, random_count, grid_d, grid_r = _build_plans(raw.get("plans"))

    noise_sigma = 0.0
    if raw.get("noise") is not None:
        noise_sigma = float(raw["noise"].get("sigma", 0.0))
        if noise_sigma < 0:
            raise SceneValidationError("scene.noise.sigma: must be nonnegative")

    tolerances = raw.get("tolerances", {}) or {}
    cond_cap = float(tolerances.get("condition_cap", 1e8))
    if cond_cap <= 0:
        raise SceneValidationError("scene.tolerances.condition_cap: must be positive")

    return Scene(
        schema=schema,
        seed=seed,
        step=step,
        metric=metric,
        tiling=tiling,
        field=field,
        weight=weight,
        foliation=foliation,
        fan_plan=fan_plan,
        chord_plan=chord_plan,
        chord_mode=chord_mode,
        random_count=random_count,
        grid_distances=grid_d,
        grid_rotations=grid_r,
        noise_sigma=noise_sigma,
        cond_cap=cond_cap,
    )


def _build_metric(cfg) -> MetricField:
    if not cfg:
        raise SceneValidationError("scene.metric: missing")
    return metric_from_config(cfg.get("family"), cfg.get("params", ()))


def _build_tiling(cfg) -> Tiling:
    if not cfg:
        raise SceneValidationError("scene.tiling: missing")
    if "generator" in cfg:
        gen = cfg["generator"]
        kind = gen.get("kind")
        if kind != "polygon-fan":
            raise SceneValidationError(f"scene.tiling.generator.kind: unknown {kind!r}")
        tiling = polygon_fan_tiling(int(gen.get("sides", 6)), float(gen.get("rotation", 0.0)))
        for _ in range(int(gen.get("refine", 0))):
            tiling = refine(tiling)
        return tiling
    if "vertices" in cfg and "triangles" in cfg:
        return Tiling(np.asarray(cfg["vertices"], dtype=float), cfg["triangles"])
    raise SceneValidationError("scene.tiling: give a generator or vertices+triangles")


def _build_weight(cfg, metric, step) -> WeightField:
    if not cfg:
        raise SceneValidationError("scene.weight: missing")
    return weight_from_config(cfg, metric, trace_step=step)


def _build_field(cfg, tiling, weight, rng) -> PiecewiseConstantField:
    if not cfg:
        raise SceneValidationError("scene.field: missing")
    k = int(cfg.get("k", weight.k))
    if "values" in cfg:
        rows = cfg["values"]
        if len(rows) != tiling.n_triangles:
            raise SceneValidationError(
                f"scene.field.values: {len(rows)} rows for {tiling.n_triangles} triangles"
            )
        values = np.zeros((len(rows), k), dtype=complex)
        for i, row in enumerate(rows):
            if len(row) != k:
                raise SceneValidationError(f"scene.field.values[{i}]: expected {k} components")
            for j, entry in enumerate(row):
                if isinstance(entry, (list, tuple)):
                    values[i, j] = complex(entry[0], entry[1])
                else:
                    values[i, j] = complex(entry)
        return PiecewiseConstantField(values=values, k=k)
    if "random" in cfg:
        rcfg = cfg["random"] or {}
        return PiecewiseConstantField.random(
            tiling.n_triangles, k, rng,
            real=bool(rcfg.get("real", False)),
            scale=float(rcfg.get("scale", 1.0)),
        )
    if cfg.get("zero"):
        return PiecewiseConstantField.zero(tiling.n_triangles, k)
    raise SceneValidationError("scene.field: give values, random, or zero")


def _build_plans(cfg):
    fan_plan = None
    chord_plan = None
    chord_mode = None
    random_count = 0
    grid_d = 0
    grid_r = 0
    cfg = cfg or {}
    if cfg.get("fan_limit") is not None:
        f = cfg["fan_limit"]
        offsets = f.get("v_offsets_deg")
        if offsets is None:
            raise SceneValidationError("scene.plans.fan_limit.v_offsets_deg: missing")
        exponents = f.get("h_exponents")
        if exponents is None:
            raise SceneValidationError("scene.plans.fan_limit.h_exponents: missing")
        fan_plan = FanLimitPlan(
            anchor_angle=float(f.get("anchor_angle", 0.0)),
            v_offsets=[math.radians(float(d)) for d in offsets],
            h_values=[2.0 ** (-int(e)) for e in exponents],
            sign=int(f.get("sign", 1)),
        )
    if cfg.get("chords") is not None:
        c = cfg["chords"]
        chord_mode = c.get("mode")
        if chord_mode not in ("random", "grid", "frontier"):
            raise SceneValidationError(
                "scene.plans.chords.mode: expected random, grid, or frontier"
            )
        if chord_mode == "random":
            random_count = int(c.get("count", 0))
            if random_count <= 0:
                raise SceneValidationError("scene.plans.chords.count: must be positive")
        elif chord_mode == "grid":
            grid_d = int(c.get("distances", 10))
            grid_r = int(c.get("rotations", 30))
            if grid_d <= 0 or grid_r <= 0:
                raise SceneValidationError("scene.plans.chords: grid sizes must be positive")
        else:
            levels = c.get("levels")
            chord_plan = ChordPlan(
                rotations=int(c.get("rotations", 30)),
                levels_per_batch=int(c.get("levels_per_batch", 5)),
                levels=tuple(float(l) for l in levels) if levels is not None else None,
            )
    return fan_plan, chord_plan, chord_mode, random_count, grid_d, grid_r


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
    from .recovery import chord_descriptor

    out = []
    for i in range(distances):
        d = (i + 0.5) / distances
        for j in range(rotations):
            psi = 2.0 * math.pi * j / rotations + 0.1 * (i + 1) / distances
            desc = chord_descriptor(np.zeros(2), d, psi)
            if desc is not None:
                out.append(desc)
    return out


def scene_chord_descriptors(scene: Scene) -> list:
    """The scene's planned chords, per its chord mode."""
    from .recovery import reconstruction_descriptors

    if scene.chord_mode == "random":
        return random_chord_descriptors(scene.random_count, scene.rng())
    if scene.chord_mode == "grid":
        return grid_chord_descriptors(scene.grid_distances, scene.grid_rotations)
    if scene.chord_mode == "frontier":
        if scene.foliation is None:
            raise SceneValidationError("scene: frontier chords need a foliation")
        return reconstruction_descriptors(scene.tiling, scene.foliation, scene.chord_plan)
    raise SceneValidationError("scene: no chord plan configured")
