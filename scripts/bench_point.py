"""Make or check a BENCH point: the end-to-end benchmark of a change against its parent.

    python3 scripts/bench_point.py make --parent DIR --change DIR --parent-commit SHA --change-commit ID \
        --label pr26 --seed 11 --out BENCH_pr26.json
    python3 scripts/bench_point.py check BENCH_*.json [--summary FILE]

``make`` runs ``benchmark/run.py --workload all --seconds 6 --trace 0`` in the two source checkouts ``--parent`` and
``--change``, in ``PAIRS`` pairs whose order alternates (parent first in even pairs), and keeps each end-to-end
metric and the host's ``calib_ms`` per run.  Then it times the four demo commands in process, on the demo scenes of
each checkout, ``REPS`` times each, in one worker process per checkout: each run on one side is followed at once
by the same run on the other, and the side that goes first alternates.  The point holds, per side, the median and
the interquartile range of every figure, how many pairs the change won on each metric, both commit ids and both
``src/`` line counts.

``check`` loads each point and exits 1 on a missing key or a non-finite number; it prints the latest point's
parent -> change table (by ``date``), and appends it to ``--summary`` when given.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fan-limit", "forward-refined", "reconstruct-demo")
PAIRS = 10   # alternating harness pairs per point
REPS = 30    # timed runs of each demo command per side, after one warm-up
# end-to-end metric: (unit, True when lower is better), as BENCHMARK.json declares them
METRICS = {"setup_s": ("s", True), "wall_s": ("s", True), "rays_per_s": ("1/s", False), "peak_rss_mb": ("MB", True)}
DEMO = (("forward", "demo_reconstruct.json"), ("limit-check", "demo_limit_check.json"),
        ("reconstruct", "demo_reconstruct.json"), ("spectrum", "demo_spectrum.json"))
SIDES = ("parent", "change")
SIDE_KEYS = ("commit", "src_lines")
STAT_KEYS = ("median", "iqr")

# a worker on one checkout: per line "command scene" on stdin, runs that demo command once in process and prints
# its seconds; the first run of each command is a warm-up, reported as failed when it does not exit 0
DEMO_WORKER = """
import contextlib, io, os, sys, tempfile, time
root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "src"))
from geoxray import cli
with tempfile.TemporaryDirectory() as tmp:
    for line in sys.stdin:
        command, scene = line.split()
        argv = [command, "--scene", os.path.join(root, "scenes", scene), "--out", os.path.join(tmp, command)]
        with contextlib.redirect_stdout(io.StringIO()):   # the command lists the files it wrote
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        print(seconds if code == 0 else "failed", flush=True)
"""


def stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "iqr": q3 - q1}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py")))


def bench_run(root: Path, seed: int) -> tuple:
    """One harness run in ``root``: {workload.metric: value} and the median calib_ms of its workloads."""
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "all", "--seed", str(seed),
                           "--seconds", "6", "--trace", "0"], cwd=root, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    last = lines[-1]
    if not (last["correct"] is True and last["failed"] == 0):
        raise SystemExit(f"bench_point.py: {root}: a command failed or gave wrong outputs")
    calib = statistics.median(line["meta"]["calib_ms"] for line in lines if "meta" in line)
    return {k: v["value"] for k, v in last["metrics"].items()}, calib


def make(args) -> dict:
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for root in roots.values():   # fresh bytecode on both sides, so that no run compiles: it would move peak_rss_mb
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmark"], cwd=root, check=True)
    runs = {side: [] for side in SIDES}
    calib = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            metrics, ms = bench_run(roots[side], args.seed)
            runs[side].append(metrics)
            calib[side].append(ms)
            print(f"pair {i}: {side} fan-limit.wall_s {metrics['fan-limit.wall_s'] * 1e3:.2f} ms", file=sys.stderr)
    end_to_end = {}
    for workload in WORKLOADS:
        for metric, (unit, lower) in METRICS.items():
            key = f"{workload}.{metric}"
            pairs = zip(*([run[key] for run in runs[side]] for side in SIDES))
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            end_to_end[key] = {"unit": unit, "better": "lower" if lower else "higher", "change_wins": wins,
                               **{side: stats([run[key] for run in runs[side]]) for side in SIDES}}
    demo = {command: {side: [] for side in SIDES} for command, _ in DEMO}
    workers = {side: subprocess.Popen([sys.executable, "-c", DEMO_WORKER, str(roots[side])], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=dict(os.environ, OPENBLAS_NUM_THREADS="1")) for side in SIDES}
    try:   # each command runs on one side, then at once on the other, the side that goes first alternating
        for i in range(REPS + 1):
            for j, (command, scene) in enumerate(DEMO):
                for side in SIDES if (i + j) % 2 == 0 else SIDES[::-1]:
                    workers[side].stdin.write(f"{command} {scene}\n")
                    workers[side].stdin.flush()
                    seconds = workers[side].stdout.readline().strip()
                    if seconds in ("", "failed"):
                        raise SystemExit(f"bench_point.py: {roots[side]}: demo {command} failed")
                    if i:   # the first round warms up
                        demo[command][side].append(float(seconds) * 1e3)
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    return {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "harness": f"benchmark/run.py --workload all --seed {args.seed} --seconds 6 --trace 0",
        "pairs": PAIRS,
        **{side: {"commit": commits[side], "src_lines": src_lines(roots[side])} for side in SIDES},
        "calib_ms": {side: stats(calib[side]) for side in SIDES},
        "end_to_end": end_to_end,
        "demo_ms": {command: {"change_wins": sum(c < p for p, c in zip(*(times[side] for side in SIDES))),
                              **{side: stats(times[side]) for side in SIDES}} for command, times in demo.items()},
    }


def problems(point: dict) -> list:
    """Every missing key and non-finite number of a point, as messages."""
    out = []

    def need(node, keys, where):
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                out.append(f"{where}: missing {key!r}")

    def numbers(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                numbers(value, f"{where}.{key}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool) and not math.isfinite(node):
            out.append(f"{where}: {node!r} is not finite")

    need(point, ("label", "date", "harness", "pairs", *SIDES, "calib_ms", "end_to_end", "demo_ms"), "point")
    for side in SIDES:
        need(point.get(side), SIDE_KEYS, side)
        need(point.get("calib_ms", {}).get(side), STAT_KEYS, f"calib_ms.{side}")
    for workload in WORKLOADS:
        for metric in METRICS:
            key = f"{workload}.{metric}"
            entry = point.get("end_to_end", {}).get(key)
            need(entry, ("change_wins", *SIDES), f"end_to_end.{key}")
            for side in SIDES:
                need((entry or {}).get(side), STAT_KEYS, f"end_to_end.{key}.{side}")
    for command, _ in DEMO:
        entry = point.get("demo_ms", {}).get(command)
        need(entry, ("change_wins", *SIDES), f"demo_ms.{command}")
        for side in SIDES:
            need((entry or {}).get(side), STAT_KEYS, f"demo_ms.{command}.{side}")
    numbers(point, "point")
    return out


def table(point: dict) -> str:
    """The point's parent -> change medians as a markdown table."""
    rows = [f"BENCH point `{point['label']}` ({point['date']}), {point['pairs']} pairs of `{point['harness']}`: "
            f"`{point['parent']['commit']}` ({point['parent']['src_lines']} src lines) -> "
            f"`{point['change']['commit']}` ({point['change']['src_lines']} src lines)", "",
            "| figure | parent | change | difference | change wins |", "|---|---|---|---|---|"]
    figures = [(key, e["unit"], e, e["change_wins"]) for key, e in point["end_to_end"].items()]
    figures += [(f"demo {c}", "ms", e, e["change_wins"]) for c, e in point["demo_ms"].items()]
    figures.append(("calib_ms", "ms", point["calib_ms"], ""))
    for key, unit, e, wins in figures:
        p, c = e["parent"]["median"], e["change"]["median"]
        rows.append(f"| {key} ({unit}) | {p:.4g} ± {e['parent']['iqr']:.2g} | {c:.4g} ± {e['change']['iqr']:.2g} | "
                    f"{(c - p) / p * 100 if p else 0.0:+.1f}% | {wins} |")
    return "\n".join(rows) + "\n"


def check(args) -> int:
    points, bad = [], 0
    for name in args.points:
        try:
            point = json.loads(Path(name).read_text(encoding="utf-8"))   # NaN and Infinity load, and are reported
        except (OSError, ValueError) as exc:
            print(f"{name}: {exc}")
            bad += 1
            continue
        found = problems(point)
        for message in found:
            print(f"{name}: {message}")
        bad += bool(found)
        points.append((point.get("date", ""), name, point))
    if not points:
        print("no BENCH point to check")
        return 1
    if bad:
        return 1
    text = table(max(points)[2])
    print(text)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as summary:
            summary.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    mk = sub.add_parser("make")
    for name in ("--parent", "--change", "--parent-commit", "--change-commit", "--label", "--out"):
        mk.add_argument(name, required=True)
    mk.add_argument("--seed", type=int, required=True)
    ck = sub.add_parser("check")
    ck.add_argument("points", nargs="+")
    ck.add_argument("--summary")
    args = parser.parse_args(argv)
    if args.action == "check":
        return check(args)
    point = make(args)
    Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(table(point))
    return 0


if __name__ == "__main__":
    sys.exit(main())
