import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import geoxray as gx


@pytest.fixture(scope="session")
def euclidean():
    return gx.metric_from_config("euclidean")


@pytest.fixture(scope="session")
def conformal05():
    return gx.metric_from_config("conformal-radial", [0.05])


@pytest.fixture(scope="session")
def conformal10():
    return gx.metric_from_config("conformal-radial", [0.1])


@pytest.fixture(scope="session")
def hexagon24():
    """Hexagon fan refined once: 24 triangles."""
    return gx.refine(gx.polygon_fan_tiling(6))


@pytest.fixture()
def anchor_triangle_tiling():
    """One triangle with a vertex on the boundary at angle 0, cone [170, 190] deg."""
    r = 0.8
    p0 = np.array([1.0, 0.0])
    p1 = p0 + r * np.array([math.cos(math.radians(170)), math.sin(math.radians(170))])
    p2 = p0 + r * np.array([math.cos(math.radians(190)), math.sin(math.radians(190))])
    return gx.Tiling([p0, p1, p2], [[0, 1, 2]])


def chord_start(metric, boundary_angle, exit_angle):
    """Unit tangent of the chord between two boundary angles."""
    a = np.array([math.cos(boundary_angle), math.sin(boundary_angle)])
    b = np.array([math.cos(exit_angle), math.sin(exit_angle)])
    return gx.unit_tangent(metric, a, b - a)


def clip_pieces(tiling, paths):
    """Per path, its ``clip_plan`` pieces as ``(triangle, t0, t1)``, the triangle None off the triangles."""
    pieces = [[] for _ in paths]
    for p, tri, t0, t1 in zip(*(a.tolist() for a in gx.tiling.clip_plan(tiling, paths)[1:])):
        pieces[p].append((None if tri < 0 else tri, t0, t1))
    return pieces


def locate(tiling, point):
    """``locate_points`` of one point: its kind's name, its triangle (-1 for none) and its depth (-1 outside)."""
    (triangle,), (kind,), (depth,) = gx.locate_points(tiling, np.reshape(point, (1, 2)))
    return gx.tiling.LOCATE_KINDS[kind], int(triangle), int(depth)


def forward(metric, weight, tiling, field, path):
    """The forward value of one traced path: the one row of a plan of one."""
    return gx.plan_weight_integrals(metric, weight, tiling, [path]).apply(field)[0]


def run_bounded(code, *args, timeout=30, flags=()):
    """Run Python code in a child process, so a loop that never ends fails the
    test on the timeout instead of stalling the suite.  ``flags`` go to the
    interpreter, e.g. ``("-O",)`` to run with assertions stripped."""
    env = dict(os.environ, PYTHONPATH=str(Path(gx.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *flags, "-c", code, *args], env=env, timeout=timeout,
                          capture_output=True, text=True)
