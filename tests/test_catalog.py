import math
from dataclasses import replace

import numpy as np
import pytest

from principal_config import catalog, cycles, foliation
from principal_config.catalog import (ConfocalCoordinates, QuadricSpec,
                                      confocal_coordinates, dupin_drift,
                                      make_surface, quadric_stratum,
                                      rho_sweep, rotation_estimate,
                                      section_seeds, stability_report)
from principal_config.errors import (DegenerateRoots, ParamError,
                                     UnsupportedSurfaceError)
from principal_config.geometry import MAXIMAL, MINIMAL, chart_bundle


def test_make_surface_registry():
    s = make_surface("ellipsoid", (3, 2, 1))
    assert s.name == "ellipsoid" and s.euler_characteristic == 2
    t = make_surface("torus", (2, 1))
    assert t.euler_characteristic == 0
    imp = make_surface("s_rho", (0.05, 3, 2))
    assert imp.name == "s_rho"
    e = make_surface("E_theta", (0.3,))
    assert e.params["theta"] == 0.3


@pytest.mark.parametrize("name,params", [
    ("sphere", (-1,)),
    ("ellipsoid", (3, -2, 1)),
    ("torus", (1, 2)),
    ("perturbed_torus", (2, 1, 0.5)),
    ("s_rho", (0.5, 3, 2)),
    ("s_rho", (0.05, 1, 2)),      # (a-1)(b-1)(a-b) = 0
    ("nosuch", ()),
    ("ellipsoid", (3,)),
])
def test_make_surface_param_errors(name, params):
    with pytest.raises(ParamError):
        make_surface(name, params)


def test_s_rho_zero_recovers_quadric():
    s = catalog.cubic_levelset_surface(0.0, 3.0, 2.0)
    p = np.array([1.2, 1.1, 0.55])
    direct = p[0] ** 2 / 9 + p[1] ** 2 / 4 + p[2] ** 2 - 1.0
    assert float(s.value(p)) == pytest.approx(direct, abs=1e-14)


def test_s_rho_derivative_consistency(rng):
    s = catalog.cubic_levelset_surface(0.08, 3.0, 2.0)
    h = 1e-6
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 3)
        g = np.asarray(s.grad(p))
        H = np.asarray(s.hess(p))
        assert np.allclose(H, H.T)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (s.f(p + e) - s.f(p - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            fd_row = (np.asarray(s.grad(p + e))
                      - np.asarray(s.grad(p - e))) / (2 * h)
            assert np.allclose(H[i], fd_row, rtol=1e-6, atol=1e-8)


def test_confocal_on_surface_root_is_zero(ellipsoid):
    # its own generator, so the points do not depend on the tests run
    # before; the first point once gave lam3 one ulp off, residual 1.47e-10
    rng = np.random.default_rng(20260808)
    points = [(1.5727394633452052, 1.859106946892293)]
    points += [(rng.uniform(0.3, 5.9), rng.uniform(0.3, 2.8))
               for _ in range(50)]
    for u, v in points:
        p = ellipsoid.point(u, v)
        try:
            cc = confocal_coordinates(p, (3, 2, 1))
        except DegenerateRoots:
            continue
        assert isinstance(cc, ConfocalCoordinates)
        assert abs(cc.lam1) < 1e-10 * 8.0
        assert max(cc.residuals) < 1e-10
        assert cc.lam1 < 1.0 < cc.lam2 < 4.0 < cc.lam3 < 9.0


def test_confocal_roots_near_symmetry_planes_are_float_optimal(ellipsoid):
    # near x = 0 or y = 0 a root sits next to a pole of the rational form,
    # steep enough there that the smallest residual a float lam can reach
    # is up to about 1e-7; each root must reach it: no neighbouring float
    # has a smaller residual
    def residual(p, lam):
        x2 = [float(x) ** 2 for x in p]
        return abs((x2[0] / (9.0 - lam) + x2[1] / (4.0 - lam)
                    + x2[2] / (1.0 - lam)) - 1.0)

    rng = np.random.default_rng(20261018)
    decided = 0
    for u0 in (0.5 * math.pi, math.pi, 1.5 * math.pi):
        for _ in range(20):
            u = u0 + rng.uniform(-1e-3, 1e-3)
            p = ellipsoid.point(u, rng.uniform(0.3, 2.8))
            try:
                cc = confocal_coordinates(p, (3, 2, 1))
            except DegenerateRoots:
                continue
            decided += 1
            for lam, res in zip(cc.as_array(), cc.residuals):
                assert res == residual(p, lam)
                for side in (-np.inf, np.inf):
                    assert res <= residual(p, np.nextafter(lam, side))
    assert decided >= 50


def test_confocal_degenerate_axis_point():
    with pytest.raises(DegenerateRoots):
        confocal_coordinates(np.array([3.0, 0.0, 0.0]), (3, 2, 1))


def test_dupin_drift_positive_and_negative(ellipsoid):
    traj = foliation.trace(ellipsoid, (0.8, 1.1), MAXIMAL,
                           foliation.TraceOptions(rel_tol=1e-10))
    dd = dupin_drift(ellipsoid, traj)
    assert dd.drift < 1e-6
    assert dd.family in ("one_sheet", "two_sheet")

    class Fake:
        points_xyz = np.array([ellipsoid.point(0.8 + t, 1.1 + 0.5 * t)
                               for t in np.linspace(0, 0.7, 50)])

    assert dupin_drift(ellipsoid, Fake()).drift > 1e-3


def test_dupin_refuses_sphere():
    s = catalog.sphere_chart(1.0)

    class Fake:
        points_xyz = np.zeros((5, 3))

    with pytest.raises((UnsupportedSurfaceError, DegenerateRoots)):
        dupin_drift(s, Fake())


def test_quadric_strata_tags():
    cases = [
        (np.diag([1 / 9, 1 / 4, 1.0]), "E3_triaxial"),
        (np.diag([1.0, 1.0, 1 / 4]), "E2_revolution"),
        (np.diag([1 / 4, 1.0, 1.0]), "E2_revolution"),
        (np.eye(3), "Sphere"),
        (np.diag([1.0, 1.0, -1.0]), "NonCompact"),
        (np.diag([1.0, 1.0, 0.0]), "Degenerate"),
    ]
    for M, tag in cases:
        assert quadric_stratum(QuadricSpec(M)).tag == tag


def test_quadric_stratum_rigid_motion_invariance(rng):
    from scipy.stats import special_ortho_group
    q = QuadricSpec(np.diag([1 / 9, 1 / 4, 1.0]))
    for _ in range(25):
        R = special_ortho_group.rvs(3, random_state=rng)
        t = rng.uniform(-3, 3, 3)
        moved = q.transformed(R, t)
        st = quadric_stratum(moved)
        assert st.tag == "E3_triaxial"
        assert st.semi_axes == pytest.approx((3.0, 2.0, 1.0), rel=1e-9)


def test_quadric_spec_validation():
    with pytest.raises(ParamError):
        QuadricSpec(np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(ParamError):
        QuadricSpec(np.zeros((3, 3)))


def test_e_theta_equatorial_band_is_rotation_symmetric():
    s = catalog.rotated_cap_ellipsoid_chart(0.7)
    us = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    b = chart_bundle(s, us, np.zeros_like(us))
    assert np.ptp(b["k1"]) < 1e-9
    assert np.ptp(b["k2"]) < 1e-9


def test_e_theta_zero_matches_unrotated_everywhere(rng):
    s0 = catalog.rotated_cap_ellipsoid_chart(0.0)
    for _ in range(20):
        u = rng.uniform(0, 2 * math.pi)
        v = rng.uniform(-1.5, 1.5)
        b = chart_bundle(s0, u, v)
        c = chart_bundle(s0, 2 * math.pi - u, v)   # mirror y -> -y
        assert b["k1"] == pytest.approx(float(c["k1"]), rel=1e-10)
        assert b["k2"] == pytest.approx(float(c["k2"]), rel=1e-10)


@pytest.mark.parametrize("surface,drawn", [
    (catalog.ellipsoid_chart(3.0, 2.0, 1.0), [
        (3.864459409186529, 3.2839571388603543),
        (1.848490296214461, 2.410601503194151),
        (5.1103968412732454, 1.5372458675279488),
        (3.0944277283011767, 0.663890231861745),
        (1.0784586153291082, -0.20946540380445594),
        (4.340365160387892, 2.4801167895447636),
        (2.324396047415824, 1.6067611538785613),
        (5.586302592474608, 0.7334055182123593),
        (3.570333479502539, -0.13995011745384633)]),
    (catalog.rotated_cap_ellipsoid_chart(0.3), [
        (3.864459409186529, 1.7131608120654587),
        (1.848490296214461, 0.8398051763992549),
        (5.1103968412732454, -0.03355045926694755),
        (3.0944277283011767, -0.9069060949331516),
        (1.0784586153291082, -1.7802617305993527),
        (4.340365160387892, 0.9093204627498679),
        (2.324396047415824, 0.035964827083664996),
        (5.586302592474608, -0.8373908085825372),
        (3.570333479502539, -1.710746444248743)]),
])
def test_low_discrepancy_seeds_fold_out_of_pole_strips(surface, drawn):
    # ``drawn``: the same draws before folding; three lie past a pole
    seeds = catalog._low_discrepancy_seeds(surface, 9,
                                           np.random.default_rng(0), [])
    assert len(seeds) == len(drawn)
    for (u, v), (du, dv) in zip(seeds, drawn):
        assert surface.fold(u, v) == (u, v)
        assert np.linalg.norm(surface.point(u, v)
                              - surface.point(du, dv)) < 1e-12
        # both charts have positive curvatures where the normal is kept
        assert chart_bundle(surface, u, v)["k1"] > 0.0


def test_rotation_estimate_torus_meridian_section(torus):
    sec = foliation.DomainSection("meridian", "u", 0.0)
    seeds = section_seeds(torus, sec, 3)
    est = rotation_estimate(
        torus, sec, seeds, MAXIMAL,
        foliation.TraceOptions(detect_closure=False, max_length=140.0,
                               max_crossings=10))
    assert est.mean_rotation == pytest.approx(0.0, abs=1e-9)


def test_rho_sweep_reproducible():
    t1 = rho_sweep([0.0, 0.05], n_seeds=2)
    t2 = rho_sweep([0.0, 0.05], n_seeds=2)
    for r1, r2 in zip(t1, t2):
        assert r1["rho"] == r2["rho"]
        assert np.array_equal(r1["estimate"].increments,
                              r2["estimate"].increments)
        assert r1["estimate"].mean_rotation == r2["estimate"].mean_rotation
    assert t1[0]["estimate"].mean_rotation < 1e-6
    assert t1[1]["estimate"].mean_rotation > 0.05


def test_stability_report_rejects_implicit():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    with pytest.raises(UnsupportedSurfaceError):
        stability_report(s)


def test_stability_report_sphere_degenerate():
    rep = stability_report(catalog.sphere_chart(1.0),
                           catalog.StabilityBudget(grid=20, cycle_seeds=2,
                                                   omega_seeds=1,
                                                   trace_length_factor=5))
    assert rep.condition_a.status == "fail"
    assert rep.overall == "FailWitness"


def test_condition_c_passes_only_when_every_separatrix_is_decided():
    miss = foliation.SeparatrixGap(0, MINIMAL, 0.1, near=1, gap=3e-5,
                                   bound=1e-7)
    hit = foliation.SeparatrixGap(1, MAXIMAL, 0.2, near=0, gap=1e-13,
                                  bound=4e-11)
    open_end = foliation.SeparatrixGap(1, MINIMAL, 0.3)
    decided = catalog._connection_verdict(
        foliation.ConnectionScanResult([], [], 1, [miss]))
    assert decided.status == "pass" and "3.00e-05" in decided.detail
    partial = catalog._connection_verdict(foliation.ConnectionScanResult(
        [], [(1, MINIMAL, 0.3, "MaxLength")], 2, [miss, open_end]))
    assert partial.status == "inconclusive"
    assert "1 of 2 separatrices undetermined" in partial.detail
    connected = catalog._connection_verdict(foliation.ConnectionScanResult(
        [(0, 1, MAXIMAL)], [], 2, [miss, hit]))
    assert connected.status == "fail"
    assert len(connected.witnesses) == 1
    assert "1.00e-13" in connected.witnesses[0]
    assert "4.00e-11" in connected.witnesses[0]


def test_condition_b_quotes_dropped_seeds_by_reason():
    log = cycles.SearchLog(dropped=[
        (MINIMAL, (0.1, 0.2), "no root of the return displacement"),
        (MAXIMAL, (0.3, 0.4), "closing trace ended HitUmbilic"),
        (MAXIMAL, (0.1, 0.2), "no root of the return displacement")])
    drops = ["2 seed(s) dropped: no root of the return displacement",
             "1 seed(s) dropped: closing trace ended HitUmbilic"]
    undecided = catalog._cycle_verdict([], log)
    assert undecided.status == "inconclusive"
    assert undecided.detail == ("0 cycle(s) found, all hyperbolic, but 3 "
                                "of 3 seed(s) gave no cycle")
    assert undecided.witnesses == drops
    flat = cycles.PrincipalCycle(MAXIMAL, None, 6.0, (0.3, 0.9),
                                 np.zeros(3), np.zeros(3),
                                 tprime_fd=1.0, tprime_fd_error=1e-9)
    failed = catalog._cycle_verdict([flat], log)
    assert failed.status == "fail"
    assert failed.witnesses == ["maximal cycle, log T' = 0.000e+00"] + drops
    # a seed that found an earlier cycle again is decided
    steep = replace(flat, tprime_fd=2.0, hyperbolic=True)
    duplicate = cycles.SearchLog(
        dropped=[(MAXIMAL, (0.3, 0.4), cycles.DUPLICATE_SEED)])
    passed = catalog._cycle_verdict([steep], duplicate)
    assert passed.status == "pass"
    assert passed.witnesses == [
        "1 seed(s) dropped: duplicate of an earlier cycle"]


def test_condition_d_passes_only_when_every_line_is_decided():
    def res(verdict, evidence=False):
        return foliation.OmegaLimitResult(verdict, evidence, "detail")

    decided = [res("Umbilic"), res("Umbilic"), res("Cycle")]
    passed = catalog._omega_verdict(decided)
    assert passed.status == "pass"
    assert passed.detail == ("no recurrence witness: of 3 trace(s), 2 reach "
                             "an umbilic, 1 a cycle and 0 are undetermined")
    open_line = catalog._omega_verdict(decided + [
        res("RecurrentOrUndetermined")])
    assert open_line.status == "inconclusive"
    assert open_line.detail == ("no recurrence witness: of 4 trace(s), 2 "
                                "reach an umbilic, 1 a cycle and 1 are "
                                "undetermined")
    recurrent = catalog._omega_verdict(decided + [
        res("RecurrentOrUndetermined"),
        res("RecurrentOrUndetermined", True)])
    assert recurrent.status == "fail"
    assert recurrent.witnesses == ["detail"]
