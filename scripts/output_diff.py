"""Compare the outputs of two source trees: the golden generators' files, and name each file that moved.

    python3 scripts/output_diff.py BASE HEAD --base-commit SHA [--summary FILE]

Runs every ``tests/golden/make_*.py`` of each tree in that tree, with its own ``src`` and ``tests`` first on the
path; ``make_demo_outputs.py`` among them runs the four commands on the demo scenes (``run_demo``).  Then compares
every non-Python file under the two ``tests/golden`` directories, line by line with ``numbered_lines``: the text of
each line with its numbers taken out, and the largest absolute and relative difference of the numbers.  A file that
differs must be named, by its path under ``tests/golden`` or by its file name, on a line that
``git diff SHA -- CHANGES.md`` in HEAD adds.  Prints the table, appends it to ``--summary`` when given, and exits 1
when a file differs that is not named.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path


def generate(tree: Path) -> None:
    """Run each golden generator of ``tree`` in it; a generator that fails raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    for script in sorted((tree / "tests" / "golden").glob("make_*.py")):
        subprocess.run([sys.executable, str(script)], cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def outputs(tree: Path) -> dict:
    """Every non-Python file under ``tests/golden``, by its path there."""
    root = tree / "tests" / "golden"
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts}


def difference(base: str, head: str, numbered_lines) -> tuple:
    """Largest absolute and relative difference of the numbers of two texts; both infinite when their lines,
    or the text between their numbers, differ."""
    a, b = numbered_lines(base), numbered_lines(head)
    if len(a) != len(b) or any(ta != tb or len(na) != len(nb) for (ta, na), (tb, nb) in zip(a, b)):
        return math.inf, math.inf
    largest, relative = 0.0, 0.0
    for (_, na), (_, nb) in zip(a, b):
        for x, y in zip(na, nb):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            d = abs(x - y)
            largest, relative = max(largest, d), max(relative, d / max(abs(x), abs(y)))
    return largest, relative


def compare(base: Path, head: Path, added: str, numbered_lines) -> list:
    """Per file that is not the same bytes in both trees: ``(name, largest, relative, named)``; a file that only
    one tree has differs infinitely."""
    old, new = outputs(base), outputs(head)
    rows = []
    for name in sorted(old.keys() | new.keys()):
        if name in old and name in new:
            if old[name].read_bytes() == new[name].read_bytes():
                continue
            largest, relative = difference(old[name].read_text(encoding="utf-8"),
                                           new[name].read_text(encoding="utf-8"), numbered_lines)
        else:
            largest = relative = math.inf
        rows.append((name, largest, relative, name in added or Path(name).name in added))
    return rows


def table(rows: list, files: int) -> str:
    lines = [f"Differential outputs: {len(rows)} of {files} files differ from the base tree", ""]
    if rows:
        lines += ["| file | largest difference | relative | named in CHANGES.md |", "|---|---|---|---|"]
        lines += [f"| `{name}` | {largest:.3g} | {relative:.3g} | {'yes' if named else '**no**'} |"
                  for name, largest, relative, named in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--base-commit", required=True)
    parser.add_argument("--summary")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    for tree in (base, head):
        generate(tree)
    sys.path[:0] = [str(head / "src"), str(head / "tests")]
    from golden.make_demo_outputs import numbered_lines

    diff = subprocess.run(["git", "diff", args.base_commit, "--", "CHANGES.md"], cwd=head, check=True,
                          capture_output=True, text=True).stdout
    added = "\n".join(line[1:] for line in diff.splitlines() if line.startswith("+") and not line.startswith("+++"))
    rows = compare(base, head, added, numbered_lines)
    text = table(rows, len(outputs(base).keys() | outputs(head).keys()))
    print(text, end="")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    return int(not all(named for *_, named in rows))


if __name__ == "__main__":
    sys.exit(main())
