"""Batch command line: scene files in, CSV and report artifacts out.

Commands: ``forward``, ``limit-check``, ``reconstruct``, ``spectrum``.
Outputs use fixed 17-significant-digit float formatting, UTF-8 and LF line
endings, and are written atomically (temp file + rename), so identical
scenes produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import GeoxrayError, SceneValidationError, config_build, read_text
from .geometry import boundary_tangents, unwrap
from .recovery import RecordedOracle, SyntheticOracle, descriptor_key, reconstruct, singular_spectrum, spectral_summary
from .scene import Scene, load_scene, scene_chord_descriptors
from .transform import limit_scan, plan_weight_integrals, require_fan_anchor

# Largest dense operator ``spectrum`` assembles, in complex entries (rows x m by triangles x k): 1 GiB of complex128
MAX_DENSE_ENTRIES = 2**26


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """Atomic CSV write: header + rows, LF endings, 17 significant digits."""
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else fmt(c) for c in row])
    _write_atomic(path, write)


def write_text(path, text):
    _write_atomic(path, lambda fh: fh.write(text))


def _write_atomic(path, write):
    """Call ``write`` on a UTF-8, LF temp file beside ``path``, then rename it to ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _complex_header(prefix, m):
    cols = []
    for i in range(m):
        cols += [f"{prefix}{i}_re", f"{prefix}{i}_im"]
    return cols


def _complex_cells(vec):
    cells = []
    for z in vec:
        cells += [z.real, z.imag]
    return cells


def _plan(scene: Scene, descriptors):
    """The PlanOperator of the scene's chords with the given descriptors."""
    starts = [unwrap(start) for start in boundary_tangents(scene.metric, descriptors)]
    return plan_weight_integrals(scene.metric, scene.weight, scene.tiling, starts, scene.step)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_forward(scene: Scene, out_dir: str) -> str:
    """One CSV row per planned geodesic with its transform value."""
    descriptors = scene_chord_descriptors(scene)
    values = _plan(scene, descriptors).apply(scene.field)
    rows = [[d[0], d[1]] + _complex_cells(value) for d, value in zip(descriptors, values)]
    out = os.path.join(out_dir, "forward.csv")
    write_csv(out, ["boundary_angle", "direction_angle"] + _complex_header("value", scene.weight.m), rows)
    return out


def cmd_limit_check(scene: Scene, out_dir: str) -> str:
    """Scaled fan integrals against the frozen limit over the (v, h) plan."""
    if scene.fan_plan is None:
        raise SceneValidationError("scene.plans.fan_limit: missing (required by limit-check)")
    plan = scene.fan_plan
    config_build("scene.plans.fan_limit.anchor_angle", require_fan_anchor, scene.metric,
                 [math.cos(plan.anchor_angle), math.sin(plan.anchor_angle)])
    rows_out = []
    scan = limit_scan(scene.metric, scene.weight, scene.tiling, scene.field,
                      plan.anchor_angle, plan.v_offsets, plan.h_values,
                      sign=plan.sign, step=scene.step)
    for row in scan:
        rows_out.append([row["h"], row["v_angle"], row["err"]]
                        + _complex_cells(row["scaled"]) + _complex_cells(row["frozen"]))
    out = os.path.join(out_dir, "limit_check.csv")
    write_csv(out, ["h", "v_angle", "err"]
              + _complex_header("scaled", scene.weight.m)
              + _complex_header("frozen", scene.weight.m), rows_out)
    return out


def read_recorded_csv(path, m) -> RecordedOracle:
    table = {}   # a descriptor given twice keeps its last row
    reader = csv.reader(io.StringIO(read_text(path, "data")))
    header = next(reader, None)
    if header is None or len(header) != 2 + 2 * m:
        raise SceneValidationError(
            f"data file {path}: expected {2 + 2 * m} columns for m={m}"
        )
    for rec in reader:
        try:
            cells = [float(c) for c in rec]
        except ValueError:
            cells = []
        if len(cells) != 2 + 2 * m or not all(math.isfinite(c) for c in cells):
            raise SceneValidationError(
                f"data file {path}, line {reader.line_num}: expected {2 + 2 * m} finite numbers, got {rec!r}"
            )
        table[descriptor_key(cells[:2])] = np.array([complex(*c) for c in zip(cells[2::2], cells[3::2])])
    return RecordedOracle(table, m)


def cmd_reconstruct(scene: Scene, out_dir: str, data_path=None) -> str:
    """Layer-stripping reconstruction; report plus per-triangle value CSV."""
    if scene.foliation is None:
        raise SceneValidationError("scene.foliation: missing (required by reconstruct)")
    if scene.chords is None or scene.chords.mode != "frontier":
        raise SceneValidationError("scene.plans.chords: frontier mode required by reconstruct")
    if data_path is not None:
        oracle = read_recorded_csv(data_path, scene.weight.m)
    else:
        oracle = SyntheticOracle(scene.weight, scene.field, noise_sigma=scene.noise_sigma,
                                 rng=scene.rng() if scene.noise_sigma > 0 else None)
    report = reconstruct(scene.metric, scene.weight, scene.tiling, oracle, scene.foliation,
                         plan=scene.chords, step=scene.step, cond_cap=scene.cond_cap)
    report_path = os.path.join(out_dir, "reconstruction_report.txt")
    write_text(report_path, report.to_text())
    rows = []
    for i in range(len(report.values)):
        rows.append([float(i)] + _complex_cells(report.values[i]) + [report.per_triangle_residual[i]])
    values_path = os.path.join(out_dir, "reconstruction_values.csv")
    write_csv(values_path, ["triangle"] + _complex_header("value", scene.weight.k) + ["residual"], rows)
    return report_path


def cmd_spectrum(scene: Scene, out_dir: str) -> str:
    """Singular values of the assembled operator over the chord plan."""
    descriptors = scene_chord_descriptors(scene)
    entries = len(descriptors) * scene.weight.m * scene.tiling.n_triangles * scene.weight.k
    if entries > MAX_DENSE_ENTRIES:
        raise SceneValidationError(f"scene.plans.chords: the dense operator of {len(descriptors)} chords would hold "
                                   f"{entries} entries, over the limit of {MAX_DENSE_ENTRIES}")
    spectrum = singular_spectrum(_plan(scene, descriptors).dense())
    out = os.path.join(out_dir, "spectrum.csv")
    write_csv(out, ["index", "sigma"], [[float(i), s] for i, s in enumerate(spectrum)])
    smin, smax, ratio = spectral_summary(spectrum)
    summary = os.path.join(out_dir, "spectrum_summary.csv")
    write_csv(summary, ["sigma_min", "sigma_max", "ratio"],
              [[smin, smax, ratio]] if len(spectrum) else [])
    return out


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geoxray",
        description="Weighted geodesic ray transforms of piecewise constant fields on disk geometries.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_data in (("forward", False), ("limit-check", False),
                             ("reconstruct", True), ("spectrum", False)):
        p = sub.add_parser(name)
        p.add_argument("--scene", required=True, help="scene JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--step", type=float, default=None, help="override the quadrature step")
        p.add_argument("--seed", type=int, default=None, help="override the scene seed")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored (all geodesics of a command are traced together); kept for old scripts")
        if needs_data:
            p.add_argument("--data", default=None, help="recorded data CSV (default: synthetic)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = os.path.abspath(args.out)   # the outputs go under its nearest existing ancestor
        while not os.path.exists(out):
            out = os.path.dirname(out)
        if not os.path.isdir(out):
            raise SceneValidationError(f"output directory {args.out}: {out} exists and is not a directory")
        scene = load_scene(args.scene, step_override=args.step, seed_override=args.seed)
        if args.command == "forward":
            out = cmd_forward(scene, args.out)
        elif args.command == "limit-check":
            out = cmd_limit_check(scene, args.out)
        elif args.command == "reconstruct":
            out = cmd_reconstruct(scene, args.out, data_path=args.data)
        else:
            out = cmd_spectrum(scene, args.out)
    except GeoxrayError as exc:
        print(f"geoxray: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:   # a fault of the program, not of the scene: one line, no traceback
        print(f"geoxray: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
