import math

import numpy as np
import pytest

from principal_config import catalog, umbilics
from principal_config.errors import (ConvergenceError, FrameError,
                                     InconclusiveError, RegularityError)
from principal_config.foliation import (TERM_HIT_UMBILIC, TraceOptions,
                                        chart_point_near, chart_points_near,
                                        separatrix_connection_scan, trace)
from principal_config.geometry import MAXIMAL, MINIMAL, chart_bundle
from principal_config.umbilics import (AllUmbilicSurface, classify,
                                       classify_direct, classify_umbilic,
                                       index_sum_check, locate_umbilics,
                                       monge_form, refine_umbilic_record,
                                       rotate_monge_cubic, winding_index)
from fd_chart import FiniteDifferenceChart

DARBOUXIAN_CASES = [
    ((4.0, 1.0, 0.0), "D1"),
    ((1.5, 1.0, 0.0), "D2"),
    ((0.5, 1.0, 0.0), "D3"),
    ((3.0, 1.0, 0.8), "D1"),
    ((1.7, 1.0, 0.5), "D2"),
    ((-0.4, 1.0, 0.3), "D3"),
    ((1.2, 1.0, -0.6), "D2"),
]


def test_ellipsoid_umbilics_match_closed_form(ellipsoid, ellipsoid_records):
    expected = catalog.ellipsoid_umbilic_points(3.0, 2.0, 1.0)
    assert len(ellipsoid_records) == 4
    for rec in ellipsoid_records:
        best = min(np.linalg.norm(rec.xyz - e["xyz"]) for e in expected)
        assert best < 1e-8
        assert rec.hk_residual < 1e-20


def test_ellipsoid_umbilics_cross_checked_by_grid_minimization(ellipsoid):
    # independent oracle: dense grid minimization of H^2 - K
    from principal_config.geometry import chart_bundle
    uu, vv = np.meshgrid(np.linspace(0, 2 * math.pi, 240, endpoint=False),
                         np.linspace(0.05, math.pi - 0.05, 140),
                         indexing="ij")
    b = chart_bundle(ellipsoid, uu, vv, strict=False)
    S = np.square(0.5 * b["umbilic_deviation"])
    expected = catalog.ellipsoid_umbilic_points(3.0, 2.0, 1.0)
    order = np.argsort(S, axis=None)
    pts = b["r"].reshape(-1, 3)[order[:40]]
    for e in expected:
        assert min(np.linalg.norm(pts - e["xyz"], axis=1)) < 0.06


def test_sphere_is_all_umbilic():
    marker = locate_umbilics(catalog.sphere_chart(1.0), grid=24)
    assert isinstance(marker, AllUmbilicSurface)


def test_torus_has_no_umbilics(torus):
    assert locate_umbilics(torus, grid=24) == []


def _local_minima_loop(S, periodic_u, periodic_v):
    """The cells that no neighbour of the 8 undercuts, cell by cell."""
    n, m = S.shape
    filled = np.where(np.isfinite(S), S, np.inf)
    out = []
    for i in range(n):
        for j in range(m):
            if not np.isfinite(filled[i, j]):
                continue
            neighbours = []
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if periodic_u:
                        ii %= n
                    if periodic_v:
                        jj %= m
                    if (di or dj) and 0 <= ii < n and 0 <= jj < m:
                        neighbours.append(filled[ii, jj])
            if all(x >= filled[i, j] for x in neighbours):
                out.append((i, j))
    return out


def test_local_minima_are_the_neighbour_loop():
    # small integer values make ties; NaN and inf cells are never minima
    rng = np.random.default_rng(31)
    for _ in range(400):
        S = rng.integers(0, 4, size=rng.integers(2, 12, size=2)).astype(float)
        S[rng.random(S.shape) < 0.15] = np.nan
        S[rng.random(S.shape) < 0.05] = np.inf
        for pu in (False, True):
            for pv in (False, True):
                got = [tuple(map(int, row))
                       for row in umbilics._local_minima(S, pu, pv)]
                assert got == _local_minima_loop(S, pu, pv)


def test_monge_form_synthetic_graph_exact():
    g = catalog.monge_graph_chart(1.0, 4.0, 1.0, 0.0, extent=0.6)
    rec = refine_umbilic_record(g, (0.0, 0.0))
    m = monge_form(g, rec)
    assert m.k == pytest.approx(1.0, abs=1e-12)
    assert (m.a, m.b, m.c) == (pytest.approx(4.0, abs=1e-10),
                               pytest.approx(1.0, abs=1e-10),
                               pytest.approx(0.0, abs=1e-10))
    assert m.rotation == pytest.approx(0.0, abs=1e-9)
    assert m.residual_x2y < 1e-9
    assert m.quadratic_defect < 1e-12


def test_monge_form_rotated_graph_recovers_coefficients():
    # build the graph pre-rotated by 17 degrees in the parameter plane;
    # the 2D rotation of the cubic is the independent oracle
    from principal_config.geometry import SurfaceChart
    from principal_config.jets import Const, Poly

    k, a, b, c = 1.0, 4.0, 1.0, 0.0
    phi = math.radians(17.0)
    cp, sp = math.cos(phi), math.sin(phi)

    def height_coeffs():
        # cubic coefficients of z expressed in the rotated chart (s, t):
        # x = cp s - sp t, y = sp s + cp t
        out = {}
        for (i, j), coef in (((3, 0), a / 6), ((1, 2), b / 2),
                             ((0, 3), c / 6)):
            # expand (cp s - sp t)^i (sp s + cp t)^j
            from math import comb
            for p in range(i + 1):
                for q in range(j + 1):
                    key = (p + q, i + j - p - q)
                    val = (coef * comb(i, p) * cp ** p * (-sp) ** (i - p)
                           * comb(j, q) * sp ** q * cp ** (j - q))
                    out[key] = out.get(key, 0.0) + val
        return out

    terms = [(Poly([0.0, cp]), Const(1.0), np.array([1.0, 0, 0])),
             (Const(1.0), Poly([0.0, -sp]), np.array([1.0, 0, 0])),
             (Poly([0.0, sp]), Const(1.0), np.array([0, 1.0, 0])),
             (Const(1.0), Poly([0.0, cp]), np.array([0, 1.0, 0])),
             (Poly([0.0, 0.0, k / 2]), Const(1.0), np.array([0, 0, 1.0])),
             (Const(1.0), Poly([0.0, 0.0, k / 2]), np.array([0, 0, 1.0]))]
    for (i, j), coef in height_coeffs().items():
        cu = [0.0] * (i + 1)
        cu[i] = coef
        cv = [0.0] * (j + 1)
        cv[j] = 1.0
        terms.append((Poly(cu), Poly(cv), np.array([0, 0, 1.0])))
    rotated = SurfaceChart(terms, ((-0.6, 0.6), (-0.6, 0.6)),
                           name="rotated-graph", diameter_hint=1.7)

    rec = refine_umbilic_record(rotated, (0.0, 0.0))
    m = monge_form(rotated, rec)
    assert m.residual_x2y < 1e-9
    assert m.k == pytest.approx(1.0, abs=1e-10)
    # oracle: the extraction's own net frame rotation applied to the true
    # cubic by plain 2D algebra must reproduce the reported coefficients
    net = m.rotation + phi
    aa, c21, bb, cc = rotate_monge_cubic(a, b, c, net)
    assert abs(c21) < 1e-9
    assert m.a == pytest.approx(aa, abs=1e-9)
    assert m.b == pytest.approx(bb, abs=1e-9)
    assert m.c == pytest.approx(cc, abs=1e-9)


def test_rotate_monge_cubic_is_a_frame_change(rng):
    # evaluating the rotated cubic at new-frame coordinates must equal the
    # original cubic at the corresponding old-frame point
    for _ in range(10):
        a, b, c = rng.uniform(-3, 3, 3)
        phi = rng.uniform(0, math.pi)
        aa, c21, bb, cc = rotate_monge_cubic(a, b, c, phi)
        for _ in range(5):
            xn, yn = rng.uniform(-1, 1, 2)
            xo = math.cos(phi) * xn - math.sin(phi) * yn
            yo = math.sin(phi) * xn + math.cos(phi) * yn
            old = a / 6 * xo ** 3 + b / 2 * xo * yo * yo + c / 6 * yo ** 3
            new = (aa / 6 * xn ** 3 + c21 * xn * xn * yn
                   + bb / 2 * xn * yn * yn + cc / 6 * yn ** 3)
            assert new == pytest.approx(old, abs=1e-12)


@pytest.mark.parametrize("abc,want", DARBOUXIAN_CASES)
def test_classifier_and_roundtrip(abc, want):
    a, b, c = abc
    g = catalog.monge_graph_chart(1.0, a, b, c, extent=0.6)
    rec = refine_umbilic_record(g, (0.0, 0.0))
    rec = classify_umbilic(g, rec)
    assert rec.type == want
    assert classify_direct(a, b, c) == want


def test_classify_examples_from_inequalities():
    class M:
        pass

    for abc, want in (((4, 1, 0), "D1"), ((1.5, 1, 0), "D2"),
                      ((0.5, 1, 0), "D3")):
        m = M()
        m.a, m.b, m.c = abc
        typ, margin = classify(m)
        assert typ == want and margin > 0
    m = M()
    m.a, m.b, m.c = 1.0, 0.0, 0.5
    assert classify(m)[0] == "NonTransversal"
    m.a, m.b, m.c = 2.0, 1.0, 0.0      # a = 2b inside D2
    assert classify(m)[0] == "NearBoundary"


def test_classification_scale_and_branch_invariance(rng):
    # uniform scaling multiplies (k, a, b, c) consistently; ratio-based
    # classification can not change, nor across kill-rotation branches
    for _ in range(25):
        a = rng.uniform(-2, 4)
        b = rng.uniform(0.3, 1.5) * (1 if rng.uniform() < 0.5 else -1)
        c = rng.uniform(-2, 2)

        class M:
            pass

        m = M()
        m.a, m.b, m.c = a, b, c
        base = classify(m)[0]
        lam = rng.uniform(0.2, 5.0)
        m2 = M()
        m2.a, m2.b, m2.c = lam * a, lam * b, lam * c
        assert classify(m2)[0] == base
        A1 = (a / 6 - b / 2) / 4
        A2 = (c / 6) / 4
        B1 = (3 * a / 6 + b / 2) / 4
        B2 = -(3 * c / 6) / 4
        roots = umbilics.kill_rotation_angles(A1, A2, B1, B2)
        assert roots[0] < 1e-12      # the input is in normal form already
        for phi in roots:
            aa, c21, bb, cc = rotate_monge_cubic(a, b, c, phi)
            assert abs(c21) < 1e-9
            m3 = M()
            m3.a, m3.b, m3.c = aa, bb, cc
            if base in ("D1", "D2", "D3"):
                assert classify(m3)[0] == base


def test_kill_rotation_angles_find_every_root(rng):
    # oracle: the sign changes of the rotated x^2 y coefficient on a fine
    # grid of [0, pi); near-double roots are skipped
    grid = np.linspace(0.0, math.pi, 20001)
    checked = 0
    for _ in range(200):
        A1, A2, B1, B2 = rng.normal(size=4)
        c21 = -3 * (A2 * np.cos(3 * grid) + A1 * np.sin(3 * grid)) \
            - (B2 * np.cos(grid) + B1 * np.sin(grid))
        roots = umbilics.kill_rotation_angles(A1, A2, B1, B2)
        if len(roots) > 1 and min(np.diff(roots)) < 1e-3:
            continue
        assert len(roots) == np.count_nonzero(np.diff(np.sign(c21)))
        for phi in roots:
            assert 0.0 <= phi < math.pi
            assert abs(-3 * (A2 * math.cos(3 * phi) + A1 * math.sin(3 * phi))
                       - (B2 * math.cos(phi) + B1 * math.sin(phi))) < 1e-12
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("extent", [0.6, 0.8])
def test_every_umbilic_of_a_graph_gets_a_normal_form(extent):
    # the graph's second umbilic, at (0.5, 0), is in normal form to
    # roundoff: the one kill angle lies a roundoff distance below 0, which
    # is below pi in [0, pi) and folds to 0
    g = catalog.monge_graph_chart(1.0, 4.0, 1.0, 0.0, extent=extent)
    recs = umbilics.analyze_umbilics(g, grid=32)
    assert sorted(round(r.uv[0], 6) for r in recs) == [0.0, 0.5]
    for rec in recs:
        assert rec.type == "D1"
        assert rec.monge.residual_x2y < 1e-9
        assert [len(rec.separatrices[f]) for f in (MINIMAL, MAXIMAL)] == [1, 1]


@pytest.mark.parametrize("abc,count", [((4.0, 1.0, 0.0), 1),
                                       ((1.5, 1.0, 0.0), 2),
                                       ((0.5, 1.0, 0.0), 3),
                                       ((-0.4, 1.0, 0.3), 3),
                                       ((1.7, 1.0, 0.5), 2),
                                       ((2.5, 1.0, 2.0), 2)])
def test_separatrix_counts_match_subscript(abc, count):
    g = catalog.monge_graph_chart(1.0, *abc, extent=0.6)
    rec = refine_umbilic_record(g, (0.0, 0.0))
    rec = classify_umbilic(g, rec)
    for fol in ("minimal", "maximal"):
        assert len(rec.separatrices[fol]) == count
    # the two half-lines of each separatrix line, one per foliation
    back = sorted((a + math.pi) % (2 * math.pi)
                  for a in rec.separatrices["minimal"])
    assert np.allclose(back, rec.separatrices["maximal"], atol=1e-12)
    if count == 3:
        angs = rec.separatrices["minimal"]
        gaps = np.diff(sorted(angs))
        assert np.all(gaps > math.radians(20.0))


def _graph_record(a, b, c):
    g = catalog.monge_graph_chart(1.0, a, b, c, extent=0.6)
    return g, classify_umbilic(g, refine_umbilic_record(g, (0.0, 0.0)))


def _radial_alignment(g, rec, fol, angles, radius):
    """sin and cos of twice the angle between the foliation and the
    radial direction, at ``angles`` on a circle about the umbilic in its
    Monge frame (brute-force oracle)."""
    fr = rec.monge.frame
    targets = fr.origin + radius * (np.cos(angles)[:, None] * fr.e1
                                    + np.sin(angles)[:, None] * fr.e2)
    uv = chart_points_near(g, targets, rec.uv)
    b = chart_bundle(g, uv[:, 0], uv[:, 1])
    d = b["d1_xyz" if fol == MINIMAL else "d2_xyz"]
    radial = b["r"] - fr.origin
    radial /= np.linalg.norm(radial, axis=1)[:, None]
    cos = np.sum(d * radial, axis=1)
    sin = np.sum(d * np.cross(b["normal"], radial), axis=1)
    norm = cos * cos + sin * sin
    return 2 * cos * sin / norm, (cos * cos - sin * sin) / norm


def test_alignment_oracle_at_reported_rays():
    # each reported ray of a D1, two D2 and a D3 graph is a sharp zero of
    # the radial-alignment function measured at 0.1 degree resolution
    for abc in ((4.0, 1.0, 0.0), (1.5, 1.0, 0.0), (2.5, 1.0, 2.0),
                (0.5, 1.0, 0.0)):
        g, rec = _graph_record(*abc)
        radius = 5e-4 * g.diameter()
        for fol, ang in ((f, a) for f in (MINIMAL, MAXIMAL)
                         for a in rec.separatrices[f]):
            probes = ang + np.radians(np.arange(-0.5, 0.51, 0.1))
            z, w = _radial_alignment(g, rec, fol, probes, radius)
            mid = len(probes) // 2
            assert abs(z[mid]) < 5e-3 and w[mid] > 0.9
            assert abs(z[0]) > abs(z[mid]) and abs(z[-1]) > abs(z[mid])
            assert z[0] * z[-1] < 0.0


def _inward(g, rec, fol, angle, radius):
    """The leaf of ``fol`` through the point at ``angle`` and ``radius``
    in the umbilic's Monge frame, traced towards the umbilic."""
    fr = rec.monge.frame
    target = fr.origin + radius * (math.cos(angle) * fr.e1
                                   + math.sin(angle) * fr.e2)
    uv = chart_point_near(g, target, rec.uv)
    opts = TraceOptions(rel_tol=1e-10, max_length=2 * radius,
                        known_umbilics=(rec,),
                        exclusion_radius_factor=0.05 * radius / g.diameter(),
                        detect_closure=False)
    return trace(g, uv, fol, opts, heading=rec.xyz - g.point(*uv))


def _polar_drift(g, rec, fol, angle, offset, radius):
    """Angle off the half-line at ``angle`` of a leaf started ``offset``
    off it, where the leaf first comes within radius / 5 of the umbilic."""
    traj = _inward(g, rec, fol, angle + offset, radius)
    fr = rec.monge.frame
    w = traj.points_xyz - fr.origin
    k = np.flatnonzero(np.linalg.norm(w, axis=1) < 0.2 * radius)[0]
    polar = math.atan2(w[k] @ fr.e2, w[k] @ fr.e1)
    return (polar - angle + math.pi) % (2 * math.pi) - math.pi


@pytest.mark.parametrize("abc,fan", [((1.5, 1.0, 0.0), 0.0),
                                     ((2.5, 1.0, 2.0),
                                      math.atan(1.0 - math.sqrt(0.5)))],
                         ids=["x-axis-fan", "a/b>2"])
def test_a_parabolic_fan_is_not_a_separatrix(abc, fan):
    # D2: of the three radial lines y = p x, p (b p^2 - c p + a - 2b) = 0,
    # the unreported one (maximal at angle ``fan``, minimal opposite) is
    # the node of the blown-up line field.  Leaves started beside it close
    # in on it on their way into the umbilic; leaves started beside a
    # reported separatrix turn away from it.
    g, rec = _graph_record(*abc)
    radius = 4e-3 * g.diameter()
    offset = math.radians(0.5)
    reported = rec.separatrices[MINIMAL] + rec.separatrices[MAXIMAL]
    for half in (fan, fan + math.pi):
        assert min(abs((a - half + math.pi) % (2 * math.pi) - math.pi)
                   for a in reported) > 0.1
    for fol, half in ((MAXIMAL, fan), (MINIMAL, fan + math.pi)):
        assert _inward(g, rec, fol, half, radius).termination == \
            TERM_HIT_UMBILIC
        for side in (-1, 1):
            drift = _polar_drift(g, rec, fol, half, side * offset, radius)
            assert 0.0 < side * drift < 0.9 * offset
    for fol in (MINIMAL, MAXIMAL):
        for ang in rec.separatrices[fol]:
            for side in (-1, 1):
                drift = _polar_drift(g, rec, fol, ang, side * offset, radius)
                assert side * drift > 1.1 * offset


def test_ellipsoid_umbilics_are_d1_with_planar_separatrices(
        ellipsoid_records):
    for rec in ellipsoid_records:
        assert rec.type == "D1"
        assert rec.index == 0.5
        assert rec.margin > 0.5
        fr = rec.monge.frame
        for fol, angs in rec.separatrices.items():
            assert len(angs) == 1
            ray = math.cos(angs[0]) * fr.e1 + math.sin(angs[0]) * fr.e2
            assert abs(ray[1]) < 1e-6    # lies in the y = 0 plane


def test_winding_index_estimator(ellipsoid, ellipsoid_records):
    for rec in ellipsoid_records[:2]:
        assert winding_index(ellipsoid, rec) == pytest.approx(rec.index,
                                                              abs=1e-6)
    g = catalog.monge_graph_chart(1.0, 0.5, 1.0, 0.0, extent=0.6)
    rec = classify_umbilic(g, refine_umbilic_record(g, (0.0, 0.0)))
    assert winding_index(g, rec) == pytest.approx(-0.5, abs=1e-6)


def test_index_sum_check(ellipsoid, torus, ellipsoid_records):
    res = index_sum_check(ellipsoid, ellipsoid_records)
    assert res.index_sum == pytest.approx(2.0)
    assert res.euler_characteristic == 2
    assert res.consistent
    assert index_sum_check(torus, []).consistent

    bad = [umbilics.UmbilicRecord(uv=(0, 1), xyz=np.zeros(3),
                                  hk_residual=0.0, type="NonTransversal")]
    with pytest.raises(InconclusiveError):
        index_sum_check(ellipsoid, bad)


def test_a_failed_monge_form_leaves_one_record_unclassified(
        ellipsoid, ellipsoid_records, monkeypatch):
    failing = ellipsoid_records[1].uv
    real = umbilics.monge_form

    def monge_form_failing_once(surface, location):
        if location.uv == failing:
            raise FrameError("tangent coordinates degenerate at the umbilic")
        return real(surface, location)

    monkeypatch.setattr(umbilics, "monge_form", monge_form_failing_once)
    records = umbilics.analyze_umbilics(ellipsoid, grid=32)
    assert [r.uv for r in records] == [r.uv for r in ellipsoid_records]
    lost = records[1]
    assert lost.type == umbilics.UNCLASSIFIED and lost.monge is None
    assert lost.separatrices == {} and lost.index is None
    assert lost.failure == ("no Monge form: tangent coordinates degenerate "
                            "at the umbilic")
    assert lost.to_dict()["failure"] == lost.failure
    assert lost.failure in lost.summary()
    for rec, ref in zip(records, ellipsoid_records):
        if rec is not lost:
            assert rec.to_dict() == ref.to_dict() and rec.failure is None
    with pytest.raises(InconclusiveError, match="unclassified"):
        index_sum_check(ellipsoid, records)
    cond_a = catalog._umbilic_verdict(records)
    assert cond_a.status == "inconclusive"
    assert cond_a.witnesses == [lost.summary()]
    assert catalog._umbilic_verdict(ellipsoid_records).status == "pass"

    scan = separatrix_connection_scan(ellipsoid, records)
    launched = {g.umbilic for g in scan.gaps}
    assert launched == {0, 2, 3}
    assert scan.launches == sum(len(rays) for r in records
                                for rays in r.separatrices.values())
    assert all(1 not in (i, j) for i, j, _ in scan.connections)
    # the separatrices that reach it stay undetermined
    assert scan.undetermined
    assert all(reason == "unclassified-target"
               for _, _, _, reason in scan.undetermined)


def test_monge_reconstruction_order(ellipsoid, ellipsoid_records):
    # reconstructing the graph from (k, a, b, c) matches the surface to
    # fourth order near the umbilic: fitted exponent >= 3.8.  The Monge
    # graph's umbilic at (0.5, 0) has a tilted tangent plane, so the chart
    # has tangential second derivatives there (e . P_ij != 0), and so do
    # the perturbed ellipsoid's umbilics
    graph = catalog.monge_graph_chart(1.0, 4.0, 1.0, 0.0)
    tilted = [r for r in umbilics.analyze_umbilics(graph)
              if r.uv[0] > 0.25]
    assert len(tilted) == 1
    perturbed = catalog.perturbed_ellipsoid_chart(3.0, 2.0, 1.0, 0.008, 0)
    records = umbilics.analyze_umbilics(perturbed)
    assert len(records) == 4
    cases = ([(ellipsoid, ellipsoid_records[0]), (graph, tilted[0])]
             + [(perturbed, rec) for rec in records])
    radii = np.array([3e-3, 6e-3, 1.2e-2, 2.4e-2])
    for surface, rec in cases:
        m = rec.monge
        fr = m.frame
        errs = []
        for rho in radii:
            worst = 0.0
            for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                target = fr.origin + rho * (math.cos(ang) * fr.e1
                                            + math.sin(ang) * fr.e2)
                uv = chart_point_near(surface, target, rec.uv)
                p = surface.point(uv[0], uv[1])
                x = float((p - fr.origin) @ fr.e1)
                y = float((p - fr.origin) @ fr.e2)
                z = float((p - fr.origin) @ fr.normal)
                model = (m.k / 2 * (x * x + y * y) + m.a / 6 * x ** 3
                         + m.b / 2 * x * y * y + m.c / 6 * y ** 3)
                worst = max(worst, abs(z - model))
            errs.append(worst)
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        assert slope >= 3.8, (surface.name, rec.uv, slope)


def _failing_chart(error, after_calls):
    """A finite-difference paraboloid chart whose point function raises
    ``error`` from its ``after_calls``-th call on."""
    calls = [0]

    def point(u, v):
        calls[0] += 1
        if calls[0] > after_calls:
            raise error("point function failed")
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return np.stack([u, v, 0.5 * (u * u + v * v) + 0.1 * u ** 3], axis=-1)

    return FiniteDifferenceChart(point, ((-1, 1), (-1, 1)), name="failing",
                                 diameter_hint=3.0)


def test_refine_drops_a_seed_only_on_seed_failures():
    # one jet (100 point calls) succeeds, the refinement's next one fails
    with pytest.raises(TypeError):
        refine_umbilic_record(_failing_chart(TypeError, 100), (0.1, 0.1))
    with pytest.raises(ConvergenceError):
        refine_umbilic_record(_failing_chart(RegularityError, 100),
                              (0.1, 0.1))
