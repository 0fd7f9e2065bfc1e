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
