"""Benchmark of the geoxray CLI commands, run in-process on seeded scenes.

    python3 benchmark/run.py --workload fan-limit --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one thread, one caller in a closed loop.  A run sets
the scene up (``load_scene`` plus an explicit ``Tiling.validate()``) a few
times, then runs the workload's command, checking every command's output
files, while the next command is expected to end within ``--seconds`` of
the start.

Every timed step is followed by a block of calibration kernels, and its
time is scaled to a fixed host speed (see ``Host``).  ``--trace 0`` prints
the end-to-end metrics: the mean set-up time and the mean command time,
both scaled, rays traced per second of the command time, and the peak
memory of the process.  ``--trace 1`` runs the command once to
warm up, once untraced and twice traced (see ``tracer.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run metadata.  Spans of a traced run are written
to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tr
from workloads import WORKLOADS, reference_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is repeated at least this often and until this much time is spent,
# so that the cheap set-ups of small tilings still give a steady figure.
SETUP_MIN_SAMPLES = 3
SETUP_MIN_S = 1.0
# One set-up sample is a burst of back-to-back set-ups lasting at least this.
SETUP_BURST_S = 0.1
# Commands per untraced run, at the least; more while they fit in --seconds.
MIN_COMMANDS = 3
# No command starts after this, whatever --seconds asks for.
RUN_CAP_S = 120.0
COVERAGE_FLOOR = 0.90
# Times are reported at the host speed at which one calibration kernel takes
# this long: about its fastest time on the 2-vCPU Xeon VM the bounds were set on.
KERNEL_REF_MS = 35.0
# Kernel time after each timed step, as a share of that step's time.
KERNEL_SHARE = 0.25


def import_geoxray():
    if not (SRC / "geoxray" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no geoxray package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import geoxray

    if Path(geoxray.__file__).resolve().parent != (SRC / "geoxray").resolve():
        raise SystemExit(f"run.py: imported geoxray from {geoxray.__file__}, not from {SRC}")
    return geoxray


def _accel(x, v):
    r2 = float(x @ x)
    g = 0.1 * x / (1.0 + 0.05 * r2)
    return -2.0 * float(g @ v) * v + float(v @ v) * g


def kernel_ms() -> float:
    """Milliseconds of a fixed RK4 integration on 2-vectors.

    It is the mix of Python and small numpy calls the commands spend their
    time in, and it never changes, so its time measures the host, not the
    program.
    """
    t0 = time.perf_counter()
    x, v, h = np.array([0.1, 0.2]), np.array([0.6, 0.3]), 1e-3
    for _ in range(1000):
        k1x, k1v = v, _accel(x, v)
        k2x, k2v = v + 0.5 * h * k1v, _accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, _accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, _accel(x + h * k3x, v + h * k3v)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return 1e3 * (time.perf_counter() - t0)


class Host:
    """Measures the host's speed around each timed step and scales the step to it.

    The host's speed switches up to twofold within seconds and drifts by
    tens of percent over minutes, on each CPU separately; CPU time follows
    wall time, so it does not help.  No statistic within one run removes
    drift between runs.  So the process stays on one CPU, a block of
    calibration kernels runs after each timed step (and one before the
    first), and ``scaled`` turns the steps' wall times and the kernel times
    around them into the time a step would take on a host that runs the
    kernel in ``KERNEL_REF_MS``.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        best = min(self.cpus, key=lambda cpu: self._on(cpu))
        os.sched_setaffinity(0, {best})
        self.kernels: list = []
        self.last = self.block(0.2)

    @staticmethod
    def _on(cpu) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(kernel_ms() for _ in range(2))

    def block(self, seconds: float) -> float:
        """Mean kernel milliseconds over at least two kernels and ``seconds``."""
        times, start = [], time.perf_counter()
        while len(times) < 2 or time.perf_counter() - start < seconds:
            times.append(kernel_ms())
        self.kernels.extend(times)
        return statistics.fmean(times)

    def timed(self, fn):
        """Run ``fn()``; return its result, its wall time and the mean kernel
        milliseconds of the blocks on either side of it."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        before, self.last = self.last, self.block(KERNEL_SHARE * wall)
        return out, wall, 0.5 * (before + self.last)

    def calib_ms(self) -> float:
        return statistics.median(self.kernels) if self.kernels else 0.0


def scaled(walls, kernels) -> float:
    """Mean step time at the reference host speed: the mean wall time times
    ``KERNEL_REF_MS`` over the mean kernel time around the steps."""
    if not walls:
        return 0.0
    return statistics.fmean(walls) * KERNEL_REF_MS / statistics.fmean(kernels)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Rep:
    """One command: its wall time, the kernel time around it, the problems its
    outputs show, their digest."""

    def __init__(self):
        self.wall = 0.0
        self.kernel = 0.0
        self.problems: list = []
        self.digest = ""


def set_up(scene_mod, scene_path: Path, host, min_samples=1, min_seconds=0.0, burst_s=0.0):
    """Load and validate the scene until enough samples are taken.

    One sample is a burst of back-to-back set-ups lasting at least
    ``burst_s``, timed as one step and divided by its count.  Returns the
    last scene, the set-up times and the kernel times around them.  Validation
    is done here so that the commands do not pay for it lazily on their
    first query.
    """
    walls, kernels, spent = [], [], 0.0

    def burst():
        count, t0 = 0, time.perf_counter()
        while True:
            scene = scene_mod.load_scene(str(scene_path))
            report = scene.tiling.validate()
            count += 1
            if not report.ok:
                raise RuntimeError("tiling rejected: " + "; ".join(report.messages))
            if time.perf_counter() - t0 >= burst_s:
                return scene, count

    while True:
        (scene, count), wall, kernel = host.timed(burst)
        walls.append(wall / count)
        kernels.append(kernel)
        spent += wall
        if len(walls) >= min_samples and spent >= min_seconds:
            return scene, walls, kernels


def command(workload, cli, scene, host, out_dir: Path, seed: int, reference: dict,
            tracer=None) -> Rep:
    """Run the command once, timed, and check its outputs."""
    rep = Rep()
    out_dir.mkdir(parents=True, exist_ok=True)

    def call():
        try:
            workload.run(cli, scene, str(out_dir))
        finally:
            if tracer is not None:
                tracer.enabled = False

    try:
        _, rep.wall, rep.kernel = host.timed(call)
        rep.problems = workload.check(str(out_dir), seed, reference)
        rep.digest = output_digest(out_dir)
    except Exception as exc:  # a failing command is counted, not fatal
        rep.problems.append(f"{type(exc).__name__}: {exc}")
    return rep


def layer_metrics(sections, reps, base, calib_ms):
    """Per-layer metrics from the span sections of the traced commands.

    Layer times are raw span times; ``trace.overhead_frac`` compares the
    scaled times of the traced commands ``reps`` and the untraced ``base``.
    """
    trace = ("geometry.trace_geodesic", "geometry.trace_forward")
    clip = "tiling.clip_path"

    def med(fn):
        return float(statistics.median(fn(s) for s in sections))

    first = sections[0]
    trace_pct, trace_tail = tr.tail([1e3 * d for d in first.durations(trace)])
    clip_pct, clip_tail = tr.tail([1e3 * d for d in first.durations(clip)])
    trace_calls = first.calls(trace)
    clip_calls = first.calls(clip)
    candidates = first.counted("recovery.batch_descriptors")
    admissible = first.counted("recovery.reconstruct")
    traced_wall = statistics.median(r.wall for r in reps)
    m = {
        "geometry.trace_s": (med(lambda s: s.total(trace)), "s"),
        "geometry.trace_calls": (trace_calls, "count"),
        "geometry.trace_ms_p50": (float(np.median(first.durations(trace) or [0.0])) * 1e3, "ms"),
        "geometry.trace_ms_tail": (trace_tail, "ms"),
        "geometry.trace_tail_pct": (trace_pct, "%"),
        "geometry.samples": (first.counted(trace[0]) + first.counted(trace[1]), "count"),
        "geometry.flow_s": (med(lambda s: s.total("geometry.flow_with_frame")), "s"),
        "tiling.clip_s": (med(lambda s: s.total(clip)), "s"),
        "tiling.clip_calls": (clip_calls, "count"),
        "tiling.clip_ms_p50": (float(np.median(first.durations(clip) or [0.0])) * 1e3, "ms"),
        "tiling.clip_ms_tail": (clip_tail, "ms"),
        "tiling.clip_tail_pct": (clip_pct, "%"),
        "tiling.pieces": (first.counted(clip), "count"),
        "tiling.clips_per_ray": (clip_calls / trace_calls if trace_calls else 0.0, "ratio"),
        "tiling.validate_s": (med(lambda s: s.total("tiling.validate")), "s"),
        "transform.quadrature_s": (med(lambda s: s.own("transform.per_triangle_weight_integrals")), "s"),
        "recovery.oracle_s": (med(lambda s: s.total("recovery.query")), "s"),
        "recovery.solve_s": (med(lambda s: s.own("recovery.reconstruct")), "s"),
        "recovery.candidates": (candidates, "count"),
        "recovery.admissible": (admissible, "count"),
        "recovery.admissible_ratio": (admissible / candidates if candidates else 0.0, "ratio"),
        "weights.injectivity_s": (med(lambda s: s.total("weights.injectivity_margin")), "s"),
        "foliation.certify_s": (med(lambda s: s.total("foliation.certify")), "s"),
        "scene.load_s": (med(lambda s: s.total("scene.load_scene")), "s"),
        "cli.write_s": (med(lambda s: s.total(("cli.write_csv", "cli.write_text"))), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (scaled([r.wall for r in reps], [r.kernel for r in reps])
                                / scaled([base.wall], [base.kernel]) - 1.0, "ratio"),
        "trace.coverage_frac": (min(s.coverage for s in sections), "ratio"),
        "host.calib_ms": (calib_ms, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    geoxray = import_geoxray()
    import geoxray.cli
    import geoxray.scene

    with open(reference_path(workload.name), "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    run_id = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work = OUT / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scene_path = work / "scene.json"
    scene_bytes = json.dumps(workload.scene(args.seed), indent=1).encode()
    scene_path.write_bytes(scene_bytes)
    rays = workload.rays(reference)
    host = Host()
    start = time.perf_counter()
    reps, setups, setup_kernels, problems, extra = [], [], [], [], {}
    cmd_span = "cli.cmd_" + workload.command.replace("-", "_")
    try:
        if not args.trace:
            scene, setups, setup_kernels = set_up(geoxray.scene, scene_path, host,
                                                  SETUP_MIN_SAMPLES, SETUP_MIN_S, SETUP_BURST_S)
            while True:
                reps.append(command(workload, geoxray.cli, scene, host, work / f"rep{len(reps)}",
                                    args.seed, reference))
                elapsed = time.perf_counter() - start
                next_s = (1.0 + KERNEL_SHARE) * reps[-1].wall
                if len(reps) >= MIN_COMMANDS and (elapsed + next_s > args.seconds
                                                  or elapsed > RUN_CAP_S):
                    break
        else:
            scene, setups, setup_kernels = set_up(geoxray.scene, scene_path, host)
            for i in (0, 1):  # a warm-up, then the untraced command
                reps.append(command(workload, geoxray.cli, scene, host, work / f"rep{i}",
                                    args.seed, reference))
            tracer = tr.Tracer(run_id)
            tr.install(tracer)
            sections = []
            for i in (2, 3):
                lo = tracer.mark()
                tracer.enabled = True
                scene, _, _ = set_up(geoxray.scene, scene_path, host)
                rep = command(workload, geoxray.cli, scene, host, work / f"rep{i}", args.seed,
                              reference, tracer=tracer)
                reps.append(rep)
                sections.append(tr.Section(tracer, lo, tracer.mark(), cmd_span, rep.wall))
            counts = [s.counts() for s in sections]
            if counts[0] != counts[1]:
                diff = sorted(k for k in set(counts[0]) | set(counts[1])
                              if counts[0].get(k) != counts[1].get(k))
                problems.append(f"self-test: counts differ between traced runs: {diff}")
            coverage = min(s.coverage for s in sections)
            if coverage < COVERAGE_FLOOR:
                problems.append(f"self-test: layer self times cover {coverage:.3f} "
                                f"of traced wall, below {COVERAGE_FLOOR}")
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path, [(f"rep{i + 2}", s.lo, s.hi) for i, s in enumerate(sections)])
            extra = {"spans": str(spans_path.relative_to(ROOT)), "counts": counts[0]}
    except Exception as exc:  # set-up failed: the run counts one failed command
        reps.append(Rep())
        problems.append(f"set-up: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_ms = host.calib_ms()

    digests = {r.digest for r in reps if r.digest}
    if len(digests) > 1:
        problems.append("outputs differ between commands at one seed")
    for i, r in enumerate(reps):
        for p in r.problems:
            problems.append(f"rep{i}: {p}")
    failed = sum(1 for r in reps if r.problems)
    if problems and not failed:
        failed = 1

    if args.trace and len(reps) == 4:
        metrics = layer_metrics(sections, reps[2:], reps[1], calib_ms)
    else:
        # Scaled to the reference host speed (see Host); the raw times are
        # in the metadata line.
        done = [r for r in reps if r.kernel > 0]
        wall = scaled([r.wall for r in done], [r.kernel for r in done])
        setup = scaled(setups, setup_kernels)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "rays_per_s": {"value": rays / wall if wall > 0 else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    for p in problems:
        print(f"{workload.name}: {p}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed}: {len(reps)} commands, "
          f"failed_frac {failed / len(reps):.3f}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    meta = {
        "workload": workload.name, "command": workload.command, "seed": args.seed,
        "trace": args.trace, "geoxray": geoxray.__version__, "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(host.cpus), "blas_threads": BLAS_THREADS,
        "scene_sha256": hashlib.sha256(scene_bytes).hexdigest(), "src_lines": src_lines(),
        "calib_ms": calib_ms, "commands": len(reps), "rays_per_command": rays,
        "walls_s": [r.wall for r in reps], "wall_kernels_ms": [r.kernel for r in reps],
        "setups_s": setups, "setup_kernels_ms": setup_kernels,
        "failed_frac": failed / len(reps), **extra,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
