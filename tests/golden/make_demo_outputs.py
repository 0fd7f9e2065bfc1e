"""Write ``demo/``: the output files of the four commands on the demo scenes.

Each command runs in-process through ``cli.main`` on its scene under
``scenes/`` and writes into ``demo/<command>/``: ``forward`` and
``reconstruct`` on ``demo_reconstruct.json``, ``limit-check`` on
``demo_limit_check.json`` and ``spectrum`` on ``demo_spectrum.json``.  The
committed files were written by the code that preceded the shared
plan-to-operator layer (one trace, clip and quadrature per planned chord),
so ``test_demo_outputs_match_golden`` checks the current commands against
them; running this script on a later version only reproduces that
version's outputs.

    PYTHONPATH=src python tests/golden/make_demo_outputs.py
"""

import re
from pathlib import Path

from geoxray import cli

OUT = Path(__file__).with_name("demo")
SCENES = Path(__file__).resolve().parents[2] / "scenes"
COMMANDS = (("forward", "demo_reconstruct.json"),
            ("limit-check", "demo_limit_check.json"),
            ("reconstruct", "demo_reconstruct.json"),
            ("spectrum", "demo_spectrum.json"))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")


def run_demo(out_root) -> list:
    """Run the four commands into ``out_root/<command>``; returns the written files, relative."""
    out_root = Path(out_root)
    for command, scene in COMMANDS:
        code = cli.main([command, "--scene", str(SCENES / scene), "--out", str(out_root / command)])
        if code != 0:
            raise RuntimeError(f"{command} on {scene} exited {code}")
    return sorted(p.relative_to(out_root).as_posix() for p in out_root.rglob("*") if p.is_file())


def numbered_lines(text: str):
    """Each line split into its text (numbers replaced by ``#``) and its numbers."""
    return [(_NUMBER.sub("#", line), [float(v) for v in _NUMBER.findall(line)])
            for line in text.splitlines()]


def main():
    files = run_demo(OUT)
    lines = sum(len((OUT / f).read_text(encoding="utf-8").splitlines()) for f in files)
    print(f"{OUT}: {len(files)} files, {lines} lines")


if __name__ == "__main__":
    main()
