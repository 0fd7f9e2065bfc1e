import re
from pathlib import Path

from conftest import run_bounded

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the README's python block is the documented API: run it as written
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    done = run_bounded(blocks[0], timeout=60)
    assert done.returncode == 0, done.stderr
    forward_gap, reconstruction_error = done.stdout.split()
    assert forward_gap == "0.0"
    assert float(reconstruction_error) <= 1e-12
