import copy
import json
import re
from pathlib import Path

import pytest

import geoxray as gx
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


def dict_paths(node, path=()):
    """The key path of every object in a scene, its top level first."""
    if isinstance(node, dict):
        yield path
        for name, child in node.items():
            yield from dict_paths(child, path + (name,))


def test_readme_names_every_scene_key():
    # an unknown key in any object of a scene exits naming its key path and the keys that object takes; every key
    # so named, over scenes that reach each reader, chord mode and weight family, is in the README's scene notes
    text = README.read_text(encoding="utf-8")
    notes = text[text.index("## Scene files"):text.index("## Library example")]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", notes))))
    base = json.loads(re.search(r"```json\n(.*?)```", notes, re.S).group(1))
    matrix = base["weight"]["matrix"]
    variants = [
        {"plans": {"chords": {"mode": "random", "count": 3}}, "noise": {"sigma": 0.1},
         "tolerances": {"condition_cap": 1e6}},
        {"plans": {"chords": {"mode": "grid", "distances": 2, "rotations": 3}},
         "weight": {"family": "angular", "k": 2, "order": 1, "amplitude": 0.5, "radial_modulation": 0.1}},
        {"plans": {"chords": {"mode": "frontier", "rotations": 3, "levels_per_batch": 2, "levels": [0.5]},
                   "fan_limit": {"anchor_angle": 0, "v_offsets_deg": [0], "h_exponents": [3], "sign": 1}},
         "field": {"k": 1, "random": {"scale": 1.0, "real": True}},
         "weight": {"family": "attenuation", "coefficient": "constant", "strength": 1.0}},
        {"tiling": {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]]}, "field": {"k": 2, "zero": True},
         "weight": {"family": "product", "left": {"family": "identity", "k": 3},
                    "right": {"family": "constant-matrix", "matrix": matrix}}},
        {"field": {"k": 2, "values": [[0, 0]] * 24}},
    ]
    known = set()
    for scene in [base] + [dict(base, **variant) for variant in variants]:
        gx.scene.build_scene(scene)
        for path in dict_paths(scene):
            bad = copy.deepcopy(scene)
            node = bad
            for name in path:
                node = node[name]
            node["unknown"] = 0
            with pytest.raises(gx.SceneValidationError) as err:
                gx.scene.build_scene(bad)
            found = re.fullmatch(r"(\S+)\.unknown: unknown key \(expected one of (.*)\)", str(err.value))
            assert found and found.group(1) == ".".join(("scene",) + path), str(err.value)
            known.update(found.group(2).split(", "))
    assert len(known) == 48 and known <= named, sorted(known - named)
