import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import bench_point  # noqa: E402


def committed_points():
    return sorted(ROOT.glob("BENCH_*.json"))


def test_a_missing_key_or_a_nan_is_reported(tmp_path, capsys):
    point = json.loads(committed_points()[0].read_text(encoding="utf-8"))
    del point["end_to_end"]["fan-limit.wall_s"]["change"]["iqr"]
    point["demo_ms"]["spectrum"]["parent"]["median"] = math.nan
    assert bench_point.problems(point) == ["end_to_end.fan-limit.wall_s.change: missing 'iqr'",
                                           "point.demo_ms.spectrum.parent.median: nan is not finite"]
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text(json.dumps(point), encoding="utf-8")
    assert bench_point.main(["check", str(broken)]) == 1
    assert "not finite" in capsys.readouterr().out


def test_a_demo_ratio_is_recorded_and_checked(tmp_path, capsys):
    # each round runs both sides back to back, so its change/parent ratio cancels a slow stretch of the host
    entry = bench_point.demo_entry({"parent": [10.0, 20.0, 30.0, 40.0, 50.0], "change": [9.0, 22.0, 27.0, 40.0, 45.0]})
    assert entry["change_wins"] == 3 and entry["ratio"] == {"median": 0.9, "iqr": 1.0 - 0.9}
    point = json.loads(committed_points()[0].read_text(encoding="utf-8"))
    assert all("ratio" not in e for e in point["demo_ms"].values())   # points made before the ratios still check
    assert bench_point.problems(point) == []
    point["demo_ms"]["forward"] = entry
    assert bench_point.problems(point) == []
    assert "| 0.900 ± 0.1 |" in bench_point.table(point)
    point["demo_ms"]["spectrum"]["ratio"] = {"median": -0.5, "iqr": 0.1}
    point["demo_ms"]["reconstruct"]["ratio"] = {"median": 1.0}
    assert bench_point.problems(point) == ["demo_ms.reconstruct.ratio: missing 'iqr'",
                                           "demo_ms.spectrum.ratio: the median change/parent ratio must be positive"]
    point["demo_ms"]["spectrum"]["ratio"]["median"] = math.nan
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text(json.dumps(point), encoding="utf-8")
    assert bench_point.main(["check", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "ratio must be positive" in out and "demo_ms.spectrum.ratio.median: nan is not finite" in out
