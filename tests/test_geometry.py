import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from principal_config import catalog, foliation, geometry
from principal_config.errors import (ConvergenceError, CriticalPointError,
                                     RegularityError, UmbilicReferenceError)
from principal_config.geometry import (chart_bundle, chart_forms,
                                       curvature_gradients, frame_operator,
                                       implicit_principal_data,
                                       normal_curvature, principal_at,
                                       principal_direction_fast)
from fd_chart import FiniteDifferenceChart


def forms_at(surface, u, v):
    """E, F, G, e, f, g of :func:`chart_bundle` at one point, as floats."""
    b = chart_bundle(surface, u, v)
    return SimpleNamespace(**{k: float(b[k]) for k in "EFGefg"})


def test_sphere_equator_forms():
    s = catalog.sphere_chart(1.0)
    f = forms_at(s, 0.3, math.pi / 2)
    assert f.E == pytest.approx(1.0, abs=1e-12)
    assert f.F == pytest.approx(0.0, abs=1e-12)
    assert f.G == pytest.approx(1.0, abs=1e-12)
    assert f.e == pytest.approx(1.0, abs=1e-12)   # inward normal convention
    assert f.f == pytest.approx(0.0, abs=1e-12)
    assert f.g == pytest.approx(1.0, abs=1e-12)


def test_plane_graph_second_form_vanishes():
    flat = catalog.monge_graph_chart(0.0, 0.0, 0.0, 0.0)
    f = forms_at(flat, 0.1, -0.2)
    assert f.e == 0.0 and f.f == 0.0 and f.g == 0.0


def test_paraboloid_origin_forms():
    g = catalog.monge_graph_chart(1.0, 0.0, 0.0, 0.0)
    f = forms_at(g, 0.0, 0.0)
    assert (f.E, f.F, f.G) == (1.0, 0.0, 1.0)
    assert f.e == pytest.approx(1.0) and f.g == pytest.approx(1.0)
    assert f.f == pytest.approx(0.0)


def test_sphere_principal_data_umbilic():
    s = catalog.sphere_chart(2.0)
    pd = principal_at(s, 1.0, 1.2)
    assert pd.k1 == pytest.approx(0.5, rel=1e-12)
    assert pd.k2 == pytest.approx(0.5, rel=1e-12)
    assert not pd.directions_defined
    with pytest.raises(UmbilicReferenceError):
        normal_curvature(pd, 0.3)


def cylinder_chart():
    """Hand-built cylinder of radius 2 with inward-style normal: harmonic
    factors in u, a Poly factor in v."""
    from principal_config.jets import Const, Poly, Wave, wave_sin
    return geometry.SurfaceChart(
        [(Wave(1.0, amp=2.0), Const(1.0), np.array([1.0, 0, 0])),
         (wave_sin(1.0, amp=2.0), Const(1.0), np.array([0, 1.0, 0])),
         (Const(1.0), Poly([0.0, 1.0]), np.array([0, 0, 1.0]))],
        ((0, 2 * math.pi), (-1.0, 1.0)), periodic_u=True, orientation=-1,
        name="cylinder", diameter_hint=4.0)


def test_cylinder_principal_values():
    pd = principal_at(cylinder_chart(), 0.7, 0.1)
    assert pd.k1 == pytest.approx(0.0, abs=1e-12)
    assert pd.k2 == pytest.approx(0.5, rel=1e-12)
    # axis direction pairs with curvature 0
    assert abs(pd.d1_xyz @ np.array([0, 0, 1.0])) == pytest.approx(1.0)


def test_ellipsoid_symmetry_point_directions(ellipsoid):
    pd = principal_at(ellipsoid, 0.0, math.pi / 2)   # world point (3,0,0)
    assert pd.k1 == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert pd.k2 == pytest.approx(3.0, rel=1e-12)
    assert abs(pd.d1_xyz @ np.array([0, 1.0, 0])) == pytest.approx(1.0)
    assert abs(pd.d2_xyz @ np.array([0, 0, 1.0])) == pytest.approx(1.0)


def test_ellipsoid_directions_match_normal_curvature_scan(ellipsoid):
    # independent oracle: scan normal curvature over directions; extremes
    # must sit at the reported principal directions
    u, v = 0.0, math.pi / 2
    f = forms_at(ellipsoid, u, v)
    pd = principal_at(ellipsoid, u, v)
    thetas = np.linspace(0, math.pi, 720, endpoint=False)
    vals = []
    for th in thetas:
        w = math.cos(th) * pd.d1_uv + math.sin(th) * pd.d2_uv
        num = f.e * w[0] ** 2 + 2 * f.f * w[0] * w[1] + f.g * w[1] ** 2
        den = f.E * w[0] ** 2 + 2 * f.F * w[0] * w[1] + f.G * w[1] ** 2
        vals.append(num / den)
    vals = np.array(vals)
    assert vals.min() == pytest.approx(pd.k1, rel=1e-6)
    assert vals.max() == pytest.approx(pd.k2, rel=1e-6)
    assert thetas[np.argmin(vals)] == pytest.approx(0.0, abs=0.01)


def test_euler_formula_against_forms_ratio(ellipsoid, torus, rng):
    # normal_curvature(theta) must equal II(w,w)/I(w,w) for w at angle theta
    for surf in (ellipsoid, torus):
        (u0, u1), (v0, v1) = surf.domain
        for _ in range(100):
            u = rng.uniform(u0 + 0.2, u1 - 0.2)
            v = rng.uniform(v0 + 0.2, v1 - 0.2)
            f = forms_at(surf, u, v)
            pd = principal_at(surf, u, v)
            if not pd.directions_defined:
                continue
            th = rng.uniform(0, 2 * math.pi)
            w = math.cos(th) * pd.d1_uv + math.sin(th) * pd.d2_uv
            num = f.e * w[0] ** 2 + 2 * f.f * w[0] * w[1] + f.g * w[1] ** 2
            den = f.E * w[0] ** 2 + 2 * f.F * w[0] * w[1] + f.G * w[1] ** 2
            kn = normal_curvature(pd, th)
            assert kn == pytest.approx(num / den, rel=1e-9, abs=1e-12)


def test_normal_curvature_endpoints_and_umbilic_limit():
    g = catalog.monge_graph_chart(1.0, 1.5, 1.0, 0.2)
    pd = principal_at(g, 0.3, 0.2)
    assert normal_curvature(pd, 0.0) == pytest.approx(pd.k1)
    assert normal_curvature(pd, math.pi / 2) == pytest.approx(pd.k2)
    c = 0.5 * (pd.k1 + pd.k2)
    mid = normal_curvature(pd, math.pi / 4)
    assert mid == pytest.approx(c, rel=1e-12)


def test_orthogonality_and_hk_identities(ellipsoid, rng):
    for _ in range(60):
        u = rng.uniform(0.2, 6.0)
        v = rng.uniform(0.2, 2.9)
        f = forms_at(ellipsoid, u, v)
        pd = principal_at(ellipsoid, u, v)
        # metric inner product of the two directions
        ip = (f.E * pd.d1_uv[0] * pd.d2_uv[0]
              + f.F * (pd.d1_uv[0] * pd.d2_uv[1]
                       + pd.d1_uv[1] * pd.d2_uv[0])
              + f.G * pd.d1_uv[1] * pd.d2_uv[1])
        assert abs(ip) < 1e-9
        assert pd.H == pytest.approx(0.5 * (pd.k1 + pd.k2), rel=1e-12)
        assert pd.K == pytest.approx(pd.k1 * pd.k2, rel=1e-12)
        assert pd.H ** 2 - pd.K >= -1e-15


def test_orientation_flip_swaps_curvatures(ellipsoid, rng):
    flipped = ellipsoid.with_orientation(-1)
    for _ in range(20):
        u = rng.uniform(0.2, 6.0)
        v = rng.uniform(0.2, 2.9)
        pd = principal_at(ellipsoid, u, v)
        qd = principal_at(flipped, u, v)
        assert qd.k1 == -pd.k2 and qd.k2 == -pd.k1
        # direction roles exchange (up to the free sign of a line)
        assert min(np.linalg.norm(qd.d1_xyz - pd.d2_xyz),
                   np.linalg.norm(qd.d1_xyz + pd.d2_xyz)) < 1e-11
        assert min(np.linalg.norm(qd.d2_xyz - pd.d1_xyz),
                   np.linalg.norm(qd.d2_xyz + pd.d1_xyz)) < 1e-11


def test_regularity_error_at_chart_pole(ellipsoid):
    with pytest.raises(RegularityError):
        chart_bundle(ellipsoid, 0.3, 0.0)


def test_curvature_gradients_are_not_finite_at_the_pole(ellipsoid):
    with pytest.raises(RegularityError):
        curvature_gradients(ellipsoid, 0.3, 0.0)
    g = curvature_gradients(ellipsoid, np.array([0.7, 0.3]),
                            np.array([1.2, 0.0]))
    for key, value in g.items():
        assert np.isfinite(value[0]) and np.isnan(value[1]), key


def test_principal_at_reads_chart_bundle(ellipsoid, rng):
    for surf in (ellipsoid, ellipsoid.with_orientation(-1),
                 catalog.sphere_chart(2.0)):
        for _ in range(10):
            u, v = rng.uniform(0.2, 6.0), rng.uniform(0.2, 2.9)
            b = chart_bundle(surf, u, v)
            pd = principal_at(surf, u, v)
            for key in ("k1", "k2", "H", "K", "d1_uv", "d2_uv"):
                assert np.array_equal(getattr(pd, key), b[key]), key
            assert pd.directions_defined == bool(
                b["umbilic_deviation"] > b["direction_tol"])


@pytest.mark.parametrize("orientation", [1, -1])
def test_chart_forms_on_floats_is_the_batch(orientation):
    # 200 points on each chart: the float path must be the batch path bit
    # for bit, and the scalar tracer's direction the lanes' within libm's
    # atan2, cos and sin against numpy's
    rng = np.random.default_rng(25)
    for make in (lambda: catalog.perturbed_torus_chart(2.0, 1.0, 0.05),
                 lambda: catalog.rotated_cap_ellipsoid_chart(0.3),
                 lambda: catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0),
                 lambda: catalog.monge_graph_chart(1.0, 4.0, 1.0, 0.0)):
        chart = make().with_orientation(orientation)
        (u0, u1), (v0, v1) = chart.domain
        u, v = rng.uniform(u0, u1, 200), rng.uniform(v0, v1, 200)
        minimal = rng.random(200) < 0.5
        J, n, _, bad, forms = chart_forms(chart, u, v)
        assert not bad.any()
        w, frame = frame_operator(*forms)
        vel = foliation._lane_field(chart, np.column_stack([u, v]),
                                    minimal, None)[0]
        for i in range(200):
            Ji, ni, _, _, forms_i = chart_forms(chart, float(u[i]),
                                                float(v[i]))
            w_i, frame_i = frame_operator(*forms_i)
            assert all(type(x) is float for x in ni + forms_i)
            for got, want in ((ni, n), (forms_i, forms), (w_i, w),
                              (frame_i, frame)):
                assert [x.hex() for x in got] == [
                    float(x[i]).hex() for x in want]
            duv = principal_direction_fast(chart, float(u[i]), float(v[i]),
                                           bool(minimal[i]))[0]
            assert (np.linalg.norm(np.subtract(duv, vel[i]))
                    <= 1e-14 * np.linalg.norm(vel[i]))
    # the pole raises on floats and is NaN in the batch
    ellipsoid = catalog.ellipsoid_chart(3.0, 2.0, 1.0)
    with pytest.raises(RegularityError):
        chart_forms(ellipsoid, 0.3, 0.0)
    bad = chart_forms(ellipsoid, np.array([0.7, 0.3]), np.array([1.2, 0.0]))[3]
    assert bad.tolist() == [False, True]
    vel, _, _, nrm = foliation._lane_field(
        ellipsoid, np.array([[0.7, 1.2], [0.3, 0.0]]), np.array([True, True]),
        None)
    assert np.all(np.isfinite(vel[0])) and np.all(np.isnan(vel[1]))
    assert np.all(np.isnan(nrm[1]))


def _assert_scalar_paths_match_bundle(s, u, v):
    b = chart_bundle(s, u, v)
    pd = principal_at(s, u, v)
    assert pd.k1 == pytest.approx(float(b["k1"]), rel=1e-12)
    assert pd.k2 == pytest.approx(float(b["k2"]), rel=1e-12)
    for minimal, kx, d in ((True, "d1_xyz", pd.d1_xyz),
                           (False, "d2_xyz", pd.d2_xyz)):
        duv, r, dxyz, n = principal_direction_fast(s, u, v, minimal)
        assert np.allclose(r, b["r"], atol=1e-13)
        assert np.allclose(n, b["normal"], atol=1e-12)
        for vec in (dxyz, d):
            assert min(np.linalg.norm(vec - b[kx]),
                       np.linalg.norm(vec + b[kx])) < 1e-10


def test_fast_direction_path_matches_bundle(perturbed_torus, rng):
    for _ in range(25):
        _assert_scalar_paths_match_bundle(
            perturbed_torus, rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 2 * math.pi))
    # a local generator leaves the session rng's later draws where they were
    local = np.random.default_rng(7)
    for s, v_lo, v_hi in (
            (catalog.ellipsoid_chart(3.0, 2.0, 1.0), 0.2, 2.9),
            (catalog.torus_chart(2.0, 1.0), 0.0, 2 * math.pi),
            (catalog.perturbed_ellipsoid_chart(3.0, 2.0, 1.0, 0.008, 0),
             0.2, 2.9)):
        for _ in range(25):
            _assert_scalar_paths_match_bundle(
                s, local.uniform(0, 2 * math.pi), local.uniform(v_lo, v_hi))


def test_implicit_sphere_and_paraboloid():
    # f, grad and hess take a float triple and return a float, a 3-tuple
    # and a 3x3 nested tuple
    def f(p):
        x, y, z = p
        return x * x + y * y + z * z - 1.0

    def grad(p):
        x, y, z = p
        return 2.0 * x, 2.0 * y, 2.0 * z

    def hess(p):
        return (2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)

    sph = geometry.ImplicitSurface(f, grad, hess, orientation=-1,
                                   name="unit-sphere")
    pd = implicit_principal_data(sph, np.array([0.0, 0.0, 1.0]))
    assert pd.k1 == pytest.approx(1.0) and pd.k2 == pytest.approx(1.0)
    assert not pd.directions_defined
    # value takes any array-like point
    assert sph.value((0.0, 0.6, 0.8)) == sph.value(np.array([0.0, 0.6, 0.8]))

    # z = (x^2 + y^2)/2 as the level set z - (x^2+y^2)/2 = 0
    def f2(p):
        x, y, z = p
        return z - 0.5 * (x * x + y * y)

    def grad2(p):
        x, y, _ = p
        return -x, -y, 1.0

    def hess2(p):
        return (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 0.0)

    par = geometry.ImplicitSurface(f2, grad2, hess2, orientation=1,
                                   name="paraboloid")
    pd2 = implicit_principal_data(par, np.zeros(3))
    assert pd2.k1 == pytest.approx(1.0) and pd2.k2 == pytest.approx(1.0)


def test_implicit_critical_point_rejected():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    with pytest.raises(CriticalPointError):
        implicit_principal_data(s, np.zeros(3))
    # the tracer's frame skips the on-surface check but keeps the floor
    with pytest.raises(CriticalPointError):
        geometry.implicit_frame(s, (0.0, 0.0, 0.0))
    with pytest.raises(CriticalPointError):
        implicit_principal_data(s, np.array([1.0, 1.0, 1.0]))


def test_level_set_derivatives_and_bundle_are_python_floats():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    p = s.project(np.array([1.2, 1.1, 0.5]))

    def is_float_triple(t):
        return (type(t) is tuple and len(t) == 3
                and all(type(x) is float for x in t))

    assert type(s.f(p.tolist())) is float
    assert is_float_triple(s.grad(p.tolist()))
    hess = s.hess(p.tolist())
    assert (type(hess) is tuple and len(hess) == 3
            and all(is_float_triple(row) for row in hess))
    b = geometry.implicit_bundle(s, p)
    for key in ("normal", "d1_xyz", "d2_xyz"):
        assert is_float_triple(b[key]), key


def test_implicit_kernel_is_exact_under_mirror_and_orientation():
    s_plus = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    s_minus = catalog.cubic_levelset_surface(-0.05, 3.0, 2.0)
    flipped = dataclasses.replace(s_plus, orientation=-s_plus.orientation)
    mirror = np.array([1.0, 1.0, -1.0])
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = rng.normal(size=3)
        p = s_plus.project(1.5 * d / np.linalg.norm(d))
        a = implicit_principal_data(s_plus, p)
        # z -> -z maps S_rho onto S_-rho
        b = implicit_principal_data(s_minus, mirror * p)
        assert (b.k1, b.k2) == (a.k1, a.k2)
        assert np.array_equal(b.normal, mirror * a.normal)
        for da, db in ((a.d1_xyz, b.d1_xyz), (a.d2_xyz, b.d2_xyz)):
            assert (np.array_equal(db, mirror * da)
                    or np.array_equal(db, -mirror * da))
        c = implicit_principal_data(flipped, p)
        assert (c.k1, c.k2) == (-a.k2, -a.k1)
        frame = np.array([a.d1_xyz, a.d2_xyz, a.normal])
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-14


def test_implicit_kernel_matches_an_independent_eigen_solve():
    # the tangential eigenpairs of -o P Hf P / |grad f|, P = I - n n^T,
    # from a 3x3 eigh: no frame rule and no 2x2 closed form
    rng = np.random.default_rng(23)
    for rho in (0.05, 0.0):
        s = catalog.cubic_levelset_surface(rho, 3.0, 2.0)
        for _ in range(40):
            d = rng.normal(size=3)
            p = s.project(1.5 * d / np.linalg.norm(d))
            g = np.asarray(s.grad(p))
            gn = np.linalg.norm(g)
            n = s.orientation * g / gn
            P = np.eye(3) - np.outer(n, n)
            Hf = np.asarray(s.hess(p))
            lam, vec = np.linalg.eigh(-s.orientation * P @ Hf @ P / gn)
            tangential = np.argsort(np.abs(vec.T @ n))[:2]
            order = tangential[np.argsort(lam[tangential])]
            pd = implicit_principal_data(s, p)
            scale = max(abs(pd.k1), abs(pd.k2), 1.0)
            assert abs(pd.k1 - lam[order[0]]) <= 1e-12 * scale
            assert abs(pd.k2 - lam[order[1]]) <= 1e-12 * scale
            for mine, ref in ((pd.d1_xyz, vec[:, order[0]]),
                              (pd.d2_xyz, vec[:, order[1]])):
                assert min(np.abs(mine - ref).max(),
                           np.abs(mine + ref).max()) <= 1e-10


def test_project_raises_when_newton_does_not_converge():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    with pytest.raises(ConvergenceError):
        s.project(np.zeros(3))
    p = s.project(np.array([3.1, 0.1, 0.05]))
    assert abs(float(s.value(p))) < 1e-12 * s.diameter()


def test_chart_vs_implicit_cross_check(ellipsoid, rng):
    s_rho = catalog.cubic_levelset_surface(0.0, 3.0, 2.0)
    for _ in range(20):
        u = rng.uniform(0.3, 5.9)
        v = rng.uniform(0.3, 2.8)
        p = ellipsoid.point(u, v)
        pdc = principal_at(ellipsoid, u, v)
        pdi = implicit_principal_data(s_rho, p)
        assert pdi.k1 == pytest.approx(pdc.k1, abs=1e-8)
        assert pdi.k2 == pytest.approx(pdc.k2, abs=1e-8)
        if pdc.directions_defined:
            assert abs(abs(pdc.d1_xyz @ pdi.d1_xyz) - 1.0) < 1e-8


def test_curvature_gradients_match_finite_differences(ellipsoid):
    h = 1e-5
    for (u, v) in [(0.7, 1.0), (2.2, 1.9), (4.4, 0.8)]:
        g = curvature_gradients(ellipsoid, u, v)

        def H_at(uu, vv):
            b = chart_bundle(ellipsoid, uu, vv)
            return float(b["H"]), float(b["K"])

        Hu = (H_at(u + h, v)[0] - H_at(u - h, v)[0]) / (2 * h)
        Kv = (H_at(u, v + h)[1] - H_at(u, v - h)[1]) / (2 * h)
        assert float(g["H_u"]) == pytest.approx(Hu, rel=1e-5, abs=1e-8)
        assert float(g["K_v"]) == pytest.approx(Kv, rel=1e-5, abs=1e-8)


def test_finite_difference_chart_fallback(torus):
    # user-supplied point function; partials from stencils
    R, r = 2.0, 1.0

    def fn(u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        return np.stack([(R + r * np.cos(v)) * np.cos(u),
                         (R + r * np.cos(v)) * np.sin(u),
                         r * np.sin(v)], axis=-1)

    fd = FiniteDifferenceChart(
        fn, ((0, 2 * math.pi), (0, 2 * math.pi)), periodic_u=True,
        periodic_v=True, diameter_hint=6.0)
    J_fd = fd.jet(1.1, 0.7)
    J_an = torus.jet(1.1, 0.7)
    assert np.allclose(J_fd[1, 0], J_an[1, 0], atol=1e-8)
    assert np.allclose(J_fd[2, 0], J_an[2, 0], atol=1e-6)
    assert np.allclose(J_fd[3, 0], J_an[3, 0], atol=1e-4)
    assert np.allclose(J_fd[2, 1], J_an[2, 1], atol=1e-4)


def _fd_torus():
    def point(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        rad = 2.0 + np.cos(v)
        return np.stack([rad * np.cos(u), rad * np.sin(u), np.sin(v)],
                        axis=-1)
    return FiniteDifferenceChart(
        point, ((0, 2 * math.pi), (0, 2 * math.pi)), periodic_u=True,
        periodic_v=True, name="fd-torus")


@pytest.mark.parametrize("make", [
    lambda: catalog.torus_chart(2.0, 1.0),
    lambda: catalog.ellipsoid_chart(3.0, 2.0, 1.0),
    lambda: catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0),
    lambda: catalog.rotated_cap_ellipsoid_chart(0.3),
    lambda: catalog.monge_graph_chart(1.0, 0.5, 1.0, 0.2),
    _fd_torus,
])
def test_with_orientation_keeps_class_and_state(make):
    chart = make()
    flipped = chart.with_orientation(-chart.orientation)
    assert type(flipped) is type(chart)
    assert flipped.orientation == -chart.orientation
    for u, v in ((0.3, 0.4), (1.1, -0.2), (2.5, 0.7)):
        assert np.array_equal(flipped.jet(u, v), chart.jet(u, v))
        a, b = chart_bundle(chart, u, v), chart_bundle(flipped, u, v)
        assert np.array_equal(b["normal"], -a["normal"])
        assert b["k1"] == -a["k2"] and b["k2"] == -a["k1"]
        if hasattr(chart, "fold"):
            for w in (v, v + 2.0, v - 2.0):
                assert flipped.fold(u, w) == chart.fold(u, w)
    assert chart.with_orientation(chart.orientation).orientation \
        == chart.orientation
    with pytest.raises(ValueError):
        chart.with_orientation(0)


@pytest.mark.parametrize("make", [
    lambda: catalog.ellipsoid_chart(3.0, 2.0, 1.0),
    lambda: catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0),
    lambda: catalog.perturbed_torus_chart(2.0, 1.0, 0.05),
    lambda: catalog.rotated_cap_ellipsoid_chart(0.3),
    lambda: catalog.torus_chart(2.0, 1.0),
    lambda: catalog.monge_graph_chart(1.0, 0.5, 1.0, 0.2),
    cylinder_chart,
])
def test_batch_point_is_bit_identical_to_the_point_alone(make):
    # 48 points in the domain box, then 16 outside it: negative u and v
    # (the Monge chart's power rows at negative coordinates) and u > 2 pi
    chart = make()
    rng = np.random.default_rng(11)
    u = np.concatenate((rng.uniform(0.0, 2 * math.pi, 48),
                        rng.uniform(-2 * math.pi, -0.1, 8),
                        rng.uniform(2 * math.pi, 4 * math.pi, 8)))
    v = np.concatenate((rng.uniform(-0.4, 1.4, 48),
                        rng.uniform(-3.0, -0.1, 16)))
    jet = chart.jet(u, v)
    bundle = chart_bundle(chart, u, v, strict=False)
    for i in range(len(u)):
        one = u[i:i + 1], v[i:i + 1]
        floats = float(u[i]), float(v[i])
        assert np.array_equal(jet[..., i, :], chart.jet(*one)[..., 0, :])
        assert np.array_equal(jet[..., i, :], chart.jet(u[i], v[i]))
        assert np.array_equal(jet[..., i, :], chart.jet(*floats))
        assert np.array_equal(jet[0, 0, i], chart.point(*floats))
        alone = chart_bundle(chart, *one, strict=False)
        for key, value in bundle.items():
            assert np.array_equal(value[i], alone[key][0], equal_nan=True), key


# chart_bundle keys that a failed point fills with NaN
_NAN_FILLED = ("normal", "E", "F", "G", "e", "f", "g", "k1", "k2", "H", "K",
               "d1_uv", "d2_uv", "d1_xyz", "d2_xyz", "umbilic_deviation")


def test_bundle_nan_rows_only_at_a_failed_point(ellipsoid):
    u = np.array([0.7, 0.3, 1.9, 4.0])
    v = np.array([1.2, 0.0, 2.5, 0.4])        # point 1 is the pole
    bundle = chart_bundle(ellipsoid, u, v, strict=False)
    alone = {i: chart_bundle(ellipsoid, u[i:i + 1], v[i:i + 1])
             for i in (0, 2, 3)}
    for key, value in bundle.items():
        if key in _NAN_FILLED:
            assert np.all(np.isnan(value[1])), key
        for i, one in alone.items():
            assert not np.any(np.isnan(value[i])), key
            assert np.array_equal(value[i], one[key][0]), key
    with pytest.raises(RegularityError):
        chart_bundle(ellipsoid, u, v, strict=True)


@pytest.mark.parametrize("make", [
    lambda: catalog.ellipsoid_chart(3.0, 2.0, 1.0),
    lambda: catalog.monge_graph_chart(1.0, 0.5, 1.0, 0.2),
    lambda: catalog.rotated_cap_ellipsoid_chart(0.3),
])
def test_bundle_of_no_points(make):
    bundle = chart_bundle(make(), np.empty(0), np.empty(0))
    vectors = ("r", "ru", "rv", "normal", "d1_xyz", "d2_xyz")
    for key, value in bundle.items():
        want = ((0, 2) if key in ("d1_uv", "d2_uv")
                else (0, 3) if key in vectors else (0,))
        assert value.shape == want, key
