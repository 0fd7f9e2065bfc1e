import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import output_diff  # noqa: E402
from golden.make_demo_outputs import numbered_lines  # noqa: E402


def write(tree, name, text):
    path = tree / "tests" / "golden" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_a_moved_file_must_be_named(tmp_path):
    # one number one ulp apart, a file only the head has and a file that keeps its bytes: the two that differ are
    # reported with their largest differences, and each counts as named once the CHANGES.md lines name it
    base, head = tmp_path / "base", tmp_path / "head"
    x = 0.1 + 0.2
    write(base, "demo/forward/forward.csv", f"a,b\n1,{x!r}\n")
    write(head, "demo/forward/forward.csv", f"a,b\n1,{math.nextafter(x, 1.0)!r}\n")
    write(head, "new.json", "[1.0]\n")
    for tree in (base, head):
        write(tree, "paths.json", '{"t": [0.5, 1e-17]}\n')
        write(tree, "make_paths.py", "# a generator is not an output\n")
    assert sorted(output_diff.outputs(head)) == ["demo/forward/forward.csv", "new.json", "paths.json"]
    rows = output_diff.compare(base, head, "", numbered_lines)
    assert rows == [("demo/forward/forward.csv", math.ulp(x), math.ulp(x) / math.nextafter(x, 1.0), False),
                    ("new.json", math.inf, math.inf, False)]
    named = output_diff.compare(base, head, "- `forward.csv` moved\n- `tests/golden/new.json` is new", numbered_lines)
    assert [row[3] for row in named] == [True, True]
    assert "| `new.json` | inf | inf | **no** |" in output_diff.table(rows, 3)
    assert output_diff.difference("x 1\n", "y 1\n", numbered_lines) == (math.inf, math.inf)
