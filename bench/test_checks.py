"""Self-tests of the benchmark's checks: each accepts a correct output and
rejects a doctored one.  Run with ``python3 -m pytest bench/test_checks.py``
from the root of the repository (a few seconds)."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from principal_config import catalog  # noqa: E402

A, B, C = 3.0, 2.0, 1.0


@pytest.fixture(scope="module")
def ellipsoid():
    return catalog.ellipsoid_chart(A, B, C)


def _umbilic_uv():
    """Chart point of the umbilic at x > 0, z > 0 of the colatitude chart
    x = a cos u sin v, y = b sin u sin v, z = c cos v."""
    sv = math.sqrt((A * A - B * B) / (A * A - C * C))
    cv = math.sqrt((B * B - C * C) / (A * A - C * C))
    return 0.0, math.atan2(sv, cv)


def test_umbilic_curvature_gap_accepts_and_rejects_a_shift(ellipsoid):
    u, v = _umbilic_uv()
    assert checks.check_umbilic_gaps(ellipsoid.point, [(u, v)]) == []
    assert checks.check_umbilic_gaps(ellipsoid.point, [(u + 1e-4, v)])


def test_principal_gap_matches_a_sphere_and_a_cylinder():
    sphere = catalog.sphere_chart(2.0)
    assert checks.principal_gap(sphere.point, 1.0, 1.2) < 1e-8

    def cylinder(u, v):       # k = 0 and 1 / 2
        return [2.0 * math.cos(u), 2.0 * math.sin(u), v]

    assert abs(checks.principal_gap(cylinder, 0.3, 0.1) - 1.0) < 1e-8


def test_index_sum():
    assert checks.check_index_sum(["D1", "D1", "D2", "D1"]) == []
    assert checks.check_index_sum(["D1", "D1", "D3", "D1"])
    assert checks.check_index_sum(["D1", "D1", "unclassified", "D1"])


def test_torus_parallel_rejects_a_length_off_by_1e_4():
    R, r, v0 = 2.0, 1.0, 0.9
    radius = R + r * math.cos(v0)
    anchor = [radius * math.cos(0.3), radius * math.sin(0.3), r * math.sin(v0)]
    length = 2.0 * math.pi * radius
    assert checks.check_torus_parallel(length, anchor, 1.0) == []
    assert checks.check_torus_parallel(length * (1 + 1e-4), anchor, 1.0)
    assert checks.check_torus_parallel(length, anchor, 1.0 + 1e-5)


def test_tprime_estimators_reject_a_log_gap_of_1e_2():
    log_t = 0.0731
    good = {"tprime_fd": math.exp(log_t), "log_integral_dH": log_t,
            "log_integral_dk2": log_t, "sign_branch": 1}
    assert checks.check_tprime_estimators(good) == []
    bad = dict(good, tprime_fd=math.exp(log_t + 1e-2))
    assert checks.check_tprime_estimators(bad)
    split = dict(good, log_integral_dk2=log_t + 1e-5)
    assert checks.check_tprime_estimators(split)


def test_mirror_pair_rejects_a_difference_of_1e_6():
    assert checks.check_mirror_pair(0.05, 0.2978713040260361,
                                    0.2978713040260361) == []
    assert checks.check_mirror_pair(0.05, 0.2978713040260361,
                                    0.2978713040260361 + 1e-6)


def test_rotation_row():
    assert checks.check_rotation_row(0.0, {"mean_rotation": 6.6e-9,
                                           "crossing_count": 88}) == []
    assert checks.check_rotation_row(0.0, {"mean_rotation": 1e-3,
                                           "crossing_count": 88})
    assert checks.check_rotation_row(0.05, {"mean_rotation": None,
                                            "crossing_count": 88})
    assert checks.check_rotation_row(0.05, {"mean_rotation": 0.3,
                                            "crossing_count": 0})
