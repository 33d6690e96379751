import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from principal_config import catalog, foliation, geometry, umbilics
from principal_config.errors import ConvergenceError, RegularityError
from principal_config.foliation import (DomainSection, KnownFeatures,
                                        TraceOptions, WorldPlaneSection,
                                        omega_limit_classify,
                                        separatrix_connection_scan, trace,
                                        trace_lanes)
from principal_config.geometry import (MAXIMAL, MINIMAL, chart_bundle,
                                       implicit_principal_data)


def polyline_distance(points, polyline):
    """Max distance from points to a densified polyline."""
    seg = np.diff(polyline, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    dense = [polyline[0]]
    for i, L in enumerate(lengths):
        n = max(1, int(L / 1e-3))
        for t in np.linspace(0, 1, n + 1)[1:]:
            dense.append(polyline[i] + t * seg[i])
    tree = cKDTree(np.asarray(dense))
    d, _ = tree.query(points)
    return float(d.max())


def test_torus_parallel_closes_with_exact_length(torus):
    traj = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
    assert traj.termination == "Closed"
    expected = 2 * math.pi * (2.0 + math.cos(0.9))
    assert traj.closed_length == pytest.approx(expected, rel=1e-6)


def test_torus_meridian_closes_with_exact_length(torus):
    traj = trace(torus, (0.3, 0.9), MINIMAL, TraceOptions())
    assert traj.termination == "Closed"
    assert traj.closed_length == pytest.approx(2 * math.pi, rel=1e-6)


def test_step_halving_changes_closed_length_consistently(torus):
    t1 = trace(torus, (0.3, 0.9), MAXIMAL,
               TraceOptions(max_step_factor=0.04))
    t2 = trace(torus, (0.3, 0.9), MAXIMAL,
               TraceOptions(max_step_factor=0.02))
    assert abs(t1.closed_length - t2.closed_length) < 1e-8


def test_ellipsoid_principal_lines_close(ellipsoid):
    for fol in (MINIMAL, MAXIMAL):
        traj = trace(ellipsoid, (0.8, 1.1), fol, TraceOptions())
        assert traj.termination == "Closed"
        assert traj.closed_length > 1.0


@pytest.mark.parametrize("fol", [MINIMAL, MAXIMAL])
def test_closure_costs_one_restep(torus, fol):
    # the closure is located on the interpolant of the step that holds it,
    # then reached by one Dormand-Prince re-step: 6 stages and the field
    # at its end, where a bisection of re-steps took up to 350
    closed = trace(torus, (0.3, 0.9), fol, TraceOptions())
    assert closed.termination == "Closed"
    unclosed = trace(torus, (0.3, 0.9), fol, TraceOptions(
        detect_closure=False, max_length=closed.closed_length))
    assert unclosed.meta["steps"] == closed.meta["steps"]
    assert closed.meta["evals"] - unclosed.meta["evals"] == 7


@pytest.mark.parametrize("case", ["closed", "precise", "reprojected",
                                  "stage_raises"])
def test_evals_count_every_kernel_call(torus, monkeypatch, case):
    # meta["evals"] is the number of line-field kernel calls the trace
    # made: the closure's and the precise crossings' re-steps, the field
    # at a re-projected end point and a stage whose kernel raises included
    calls = {"n": 0, "raised": 0}

    def counted(kernel, raise_at=None):
        def wrapped(*args):
            calls["n"] += 1
            if calls["n"] == raise_at:
                calls["raised"] += 1
                raise RegularityError("injected at a stage")
            return kernel(*args)
        return wrapped

    monkeypatch.setattr(geometry, "implicit_frame",
                        counted(geometry.implicit_frame))
    # call 10 is the fourth stage of the second step
    monkeypatch.setattr(geometry, "principal_direction_fast", counted(
        geometry.principal_direction_fast,
        raise_at=10 if case == "stage_raises" else None))
    if case == "reprojected":
        surface = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
        projections = []
        project = type(surface).project
        monkeypatch.setattr(type(surface), "project", lambda self, p: (
            projections.append(p), project(self, p))[1])
        traj = trace(surface, (2.866, 0.591, 0.0), MAXIMAL, TraceOptions())
        # the start's projection and at least one of an end point
        assert len(projections) >= 2
        assert traj.meta["evals"] == (1 + 6 * traj.meta["steps"]
                                      + len(projections) - 1)
    elif case == "precise":
        traj = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions(
            sections=(DomainSection("m", "u", 0.0),), precise_crossings=True,
            detect_closure=False, max_length=30.0))
        assert len(traj.crossings) == 2
        assert traj.meta["evals"] == (1 + 6 * traj.meta["steps"]
                                      + 7 * len(traj.crossings))
    else:
        traj = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
        assert traj.termination == "Closed"
        # the closure's re-step costs 7; the raising stage is the third
        # call of its step, which is tried again shorter
        raised = case == "stage_raises"
        assert calls["raised"] == raised
        assert traj.meta["evals"] == (1 + 6 * (traj.meta["steps"] - raised)
                                      + 3 * raised + 7)
    assert traj.meta["evals"] == calls["n"] > 0


def test_tangency_along_trajectory(torus):
    traj = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
    seg = np.diff(traj.points_xyz, axis=0)
    seg = seg / np.linalg.norm(seg, axis=1, keepdims=True)
    mid = 0.5 * (traj.tangents[:-1] + traj.tangents[1:])
    mid = mid / np.linalg.norm(mid, axis=1, keepdims=True)
    ang = np.degrees(np.arccos(np.clip(np.abs(np.sum(seg * mid, axis=1)),
                                       0, 1)))
    assert ang.max() < 0.5


def test_reversal_symmetry(torus):
    fwd = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
    rev = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions(),
                heading=-fwd.tangents[0])
    assert rev.termination == "Closed"
    assert np.array_equal(rev.tangents[0], -fwd.tangents[0])
    assert rev.closed_length == pytest.approx(fwd.closed_length, rel=1e-9)
    # both runs traverse the same analytic circle (z and axis distance
    # constant), one forward, one backward
    for traj in (fwd, rev):
        z = traj.points_xyz[:, 2]
        rho = np.linalg.norm(traj.points_xyz[:, :2], axis=1)
        assert np.allclose(z, math.sin(0.9), atol=1e-7)
        assert np.allclose(rho, 2.0 + math.cos(0.9), atol=1e-7)
    # a heading along the field's own start sign keeps it, bit for bit
    got = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions(),
                heading=fwd.tangents[0])
    assert np.array_equal(got.points_xyz, fwd.points_xyz)
    assert got.meta == fwd.meta


def test_implicit_field_is_the_kernel_direction_signed_by_ref():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    rng = np.random.default_rng(1401)
    fields = {fol: foliation._implicit_field(s, fol, {"evals": 0})
              for fol in (MINIMAL, MAXIMAL)}
    for _ in range(40):
        d = rng.normal(size=3)
        p = s.project(1.5 * d / np.linalg.norm(d))
        pd = implicit_principal_data(s, p)
        # an array point, and the float triple the tracer passes
        for q in (p, tuple(p.tolist())):
            for fol, want in ((MINIMAL, pd.d1_xyz), (MAXIMAL, pd.d2_xyz)):
                ev = fields[fol](q, None)
                assert np.array_equal(ev.vel, want)
                assert np.array_equal(ev.tangent, want)
                assert np.array_equal(ev.normal, pd.normal)
                assert np.array_equal(ev.xyz, p)
                for ref in (want, -want):
                    got = fields[fol](q, ref).tangent
                    assert (np.array_equal(got, want)
                            or np.array_equal(got, -want))
                    assert float(np.dot(got, ref)) >= 0.0


def test_foliation_orthogonal_crossing(ellipsoid):
    a = trace(ellipsoid, (0.8, 1.1), MINIMAL, TraceOptions())
    b = trace(ellipsoid, (0.8, 1.1), MAXIMAL, TraceOptions())
    cosang = abs(float(np.dot(a.tangents[0], b.tangents[0])))
    assert math.degrees(math.acos(min(cosang, 1.0))) > 89.5


def test_hit_umbilic_termination(ellipsoid, ellipsoid_records):
    rec = ellipsoid_records[0]
    fr = rec.monge.frame
    ang = rec.separatrices["maximal"][0] + 3e-4
    ray = math.cos(ang) * fr.e1 + math.sin(ang) * fr.e2
    start = foliation.chart_point_near(
        ellipsoid, rec.xyz + 0.02 * ray, rec.uv)
    traj = trace(ellipsoid, start, MAXIMAL,
                 TraceOptions(known_umbilics=ellipsoid_records,
                              detect_closure=False, max_length=30.0))
    assert traj.termination == "HitUmbilic"


def test_domain_exit_on_open_chart():
    g = catalog.monge_graph_chart(1.0, 4.0, 1.0, 0.0, extent=0.5)
    traj = trace(g, (0.3, 0.1), MINIMAL, TraceOptions(max_length=10.0))
    assert traj.termination == "DomainExit"


def test_section_crossings_on_torus(torus):
    sec = DomainSection("meridian", "u", 0.0)
    opts = TraceOptions(sections=(sec,), max_crossings=4)
    traj = trace(torus, (0.3, 0.9), MAXIMAL,
                 TraceOptions(sections=(sec,), detect_closure=False,
                              max_length=80.0, max_crossings=6))
    assert len(traj.crossings) >= 4
    coords = [c.coordinate for c in traj.crossings]
    # a parallel crosses the meridian section at its own latitude
    assert np.allclose(coords, 0.9 / (2 * math.pi), atol=1e-6)
    del opts


def test_pole_rebase_keeps_world_points_smooth(ellipsoid):
    # a minimal line through the polar region must continue smoothly
    start = foliation.chart_point_near(
        ellipsoid, np.array([0.05, 0.0, 1.0001]), (0.03, 0.05))
    traj = trace(ellipsoid, (0.01, 0.3), MINIMAL,
                 TraceOptions(detect_closure=False, max_length=8.0))
    gaps = np.linalg.norm(np.diff(traj.points_xyz, axis=0), axis=1)
    assert gaps.max() < 0.3 * ellipsoid.diameter()
    assert traj.termination in ("MaxLength", "HitUmbilic")
    del start


def test_separatrix_connections_ellipsoid(ellipsoid, ellipsoid_records):
    scan = separatrix_connection_scan(ellipsoid, ellipsoid_records)
    assert len(scan.connections) == 4
    assert scan.undetermined == []
    # every separatrix arrives at its partner with a gap inside the
    # measured error bound
    assert len(scan.gaps) == scan.launches == 8
    for gap in scan.gaps:
        assert gap.near is not None and gap.gap <= gap.bound
        assert (min(gap.umbilic, gap.near), max(gap.umbilic, gap.near),
                gap.foliation_id) in scan.connections
    # adjacency pattern: each umbilic appears in exactly two connections,
    # never paired with its antipode
    xyz = [r.xyz for r in ellipsoid_records]
    counts = {i: 0 for i in range(4)}
    for i, j, _fol in scan.connections:
        counts[i] += 1
        counts[j] += 1
        assert np.linalg.norm(xyz[i] + xyz[j]) > 1e-3
    assert all(v == 2 for v in counts.values())
    # the verdict does not hang on the exclusion ball's radius
    small = separatrix_connection_scan(
        ellipsoid, ellipsoid_records,
        TraceOptions(exclusion_radius_factor=1e-4))
    assert small.connections == scan.connections
    assert small.undetermined == []


def test_separatrix_connections_break_under_perturbation():
    pe = catalog.perturbed_ellipsoid_chart(3, 2, 1, 8e-3, seed=11)
    recs = umbilics.analyze_umbilics(pe, grid=32)
    assert len(recs) == 4
    assert all(r.type == "D1" for r in recs)
    scan = separatrix_connection_scan(pe, recs)
    assert scan.connections == []
    # every separatrix is decided: it misses the umbilic it comes near by
    # more than the measured error bound
    assert scan.undetermined == []
    assert len(scan.gaps) == scan.launches == 8
    for gap in scan.gaps:
        assert gap.near is not None and gap.gap > gap.bound
    # the gap is a property of the leaf, not of the exclusion ball that
    # marks the near pass
    small = separatrix_connection_scan(
        pe, recs, TraceOptions(exclusion_radius_factor=1e-4))
    assert small.connections == [] and small.undetermined == []
    for a, b in zip(scan.gaps, small.gaps):
        assert a.near == b.near
        assert b.gap == pytest.approx(a.gap, rel=1e-2)


def test_connection_scan_empty_without_umbilics(torus):
    scan = separatrix_connection_scan(torus, [])
    assert scan.connections == [] and scan.launches == 0


def test_omega_limit_direct_mappings(torus, ellipsoid, ellipsoid_records):
    closed = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
    res = omega_limit_classify(torus, closed)
    assert res.verdict == "Cycle"

    rec = ellipsoid_records[0]
    fr = rec.monge.frame
    ang = rec.separatrices["maximal"][0] + 3e-4
    ray = math.cos(ang) * fr.e1 + math.sin(ang) * fr.e2
    start = foliation.chart_point_near(ellipsoid, rec.xyz + 0.02 * ray,
                                       rec.uv)
    hit = trace(ellipsoid, start, MAXIMAL,
                TraceOptions(known_umbilics=ellipsoid_records,
                             detect_closure=False, max_length=30.0))
    res2 = omega_limit_classify(ellipsoid, hit)
    assert res2.verdict == "Umbilic"


def test_segment_distances_are_exact():
    rng = np.random.default_rng(17)
    polyline = np.cumsum(rng.normal(size=(60, 3)), axis=0)
    polyline[20] = polyline[19]            # a zero-length segment
    seg = np.diff(polyline, axis=0)
    # points on the segments lie at distance 0
    t = rng.random((200, 1))
    rows = rng.integers(0, len(seg), 200)
    on = polyline[rows] + t * seg[rows]
    assert foliation.segment_distances(polyline, on).max() <= 1e-13
    # a point off the middle of a segment along a normal lies at the
    # offset; off its end, at the distance to the end point
    d = seg[5] / np.linalg.norm(seg[5])
    normal = np.cross(d, [0.0, 0.0, 1.0])
    normal /= np.linalg.norm(normal)
    mid = polyline[5] + 0.5 * seg[5]
    assert math.isclose(foliation.segment_distances(
        polyline[5:7], [mid + 0.3 * normal])[0], 0.3, rel_tol=1e-13)
    end = polyline[6] + 0.7 * d
    assert math.isclose(foliation.segment_distances(
        polyline[5:7], [end])[0], 0.7, rel_tol=1e-13)
    # against points sampled along the polyline at spacing s, the exact
    # distance is at most the sampled one (to roundoff: at a vertex they
    # are the same distance) and below it by less than s / 2
    s = 1e-3
    dense = np.concatenate([p + np.linspace(0.0, 1.0, 1 + int(np.linalg.norm(
        q) / s))[:, None] * q for p, q in zip(polyline[:-1], seg)])
    queries = polyline.mean(axis=0) + 3.0 * rng.normal(size=(50, 3))
    exact = foliation.segment_distances(polyline, queries)
    sampled, _ = cKDTree(dense).query(queries)
    assert np.all(exact <= sampled + 1e-12)
    assert np.all(sampled - exact < 0.5 * s)
    # queries that span several blocks give the one-query distances
    many = rng.normal(size=(3000, 3))
    assert 3000 * 59 * 24 > 2 * foliation._NEAREST_BLOCK_BYTES
    one = [foliation.segment_distances(polyline, q[None])[0] for q in many]
    assert np.array_equal(foliation.segment_distances(polyline, many), one)


def test_omega_limit_cycle_convergence(perturbed_torus):
    from principal_config import cycles as cyc_mod
    found = cyc_mod.find_cycles(perturbed_torus, [(0.4, 1.5)], MAXIMAL)
    assert found
    cyc = found[0]
    # start near the cycle and watch the approach
    start = (cyc.anchor_uv[0] + 0.02, cyc.anchor_uv[1] + 0.02)
    traj = trace(perturbed_torus, start, MAXIMAL,
                 TraceOptions(detect_closure=False, max_length=260.0))
    known = KnownFeatures(cycles=[cyc])
    res = omega_limit_classify(perturbed_torus, traj, known)
    assert res.verdict in ("Cycle", "RecurrentOrUndetermined")


def test_omega_limit_reads_an_approach_between_cycle_vertices(torus):
    # a parallel of the round torus as a known cycle, 72 segments about
    # 0.04·diam long, and a line closing in on it through the midpoints
    # of its chords, which lie half a chord (about 0.019·diam) from the
    # nearest vertex: only distances to the segments see the approach
    diam = torus.diameter()
    u = np.linspace(0.0, 2.0 * math.pi, 73)
    cycle = torus.point(u, np.full(73, 0.9))
    mids = 0.5 * (cycle[:-1] + cycle[1:])
    k = np.arange(720)
    offset = 0.03 * diam * np.exp(-k / 150.0)
    pts = np.tile(mids, (10, 1)) + offset[:, None] * [0.0, 0.0, 1.0]
    s = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    line = foliation.Trajectory(
        foliation_id=MAXIMAL, points_uv=pts.copy(), points_xyz=pts,
        tangents=np.zeros_like(pts), normals=np.zeros_like(pts),
        arclength=s, termination=foliation.TERM_MAX_LENGTH)
    late = pts[-int(0.3 * len(pts)):]
    assert cKDTree(cycle).query(late)[0].min() > 0.018 * diam
    res = omega_limit_classify(
        torus, line, KnownFeatures(cycles=[SimpleNamespace(
            points_xyz=cycle)]))
    assert res.verdict == "Cycle" and res.cycle_index == 0


def _ball_returns_by_loop(traj, eps):
    """The epsilon-ball return count as a loop over each run of points
    inside a ball: the reference for ``foliation._ball_returns``."""
    pts, s = traj.points_xyz, traj.arclength
    n = len(pts)
    if n < 10:
        return 0, []
    early = np.linspace(max(1, n // 100), max(2, n // 5),
                        foliation._BALL_CANDIDATES, dtype=int)
    best = (0, [])
    for idx in np.unique(early):
        inside = np.linalg.norm(pts - pts[idx], axis=1) < eps
        passes = []
        i = 0
        while i < n:
            if inside[i]:
                j = i
                while j + 1 < n and inside[j + 1]:
                    j += 1
                passes.append(0.5 * (s[i] + s[j]))
                i = j + 1
            else:
                i += 1
        if len(passes) > best[0]:
            best = (len(passes), list(np.diff(passes)))
    return best


def test_ball_returns_are_the_run_loop():
    rng = np.random.default_rng(29)
    for n in (5, 10, 11, 200, 3000):
        # a walk on a circle with noise revisits its balls, and a run of
        # points inside one can touch either end of the line
        ang = np.cumsum(rng.uniform(0.0, 0.3, n))
        pts = np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1)
        pts += 0.05 * rng.normal(size=(n, 3))
        line = SimpleNamespace(points_xyz=pts, arclength=np.cumsum(
            rng.uniform(0.1, 1.0, n)))
        for eps in (0.05, 0.3, 3.0):
            got = foliation._ball_returns(line, eps)
            want = _ball_returns_by_loop(line, eps)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])


def test_world_plane_section_on_implicit():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    sec = WorldPlaneSection("z0", normal=(0, 0, 1), offset=0.0,
                            axes=((1, 0, 0), (0, 1, 0)))
    start = np.array([3.0 * math.cos(0.4), 2.0 * math.sin(0.4), 0.0])
    traj = trace(s, start, MAXIMAL,
                 TraceOptions(sections=(sec,), detect_closure=False,
                              max_length=60.0, max_crossings=8,
                              rel_tol=1e-7))
    assert len(traj.crossings) >= 6
    assert all(abs(c.xyz[2]) < 1e-6 for c in traj.crossings)


@pytest.mark.parametrize("surface, section, start", [
    (catalog.cubic_levelset_surface(0.05, 3.0, 2.0),
     WorldPlaneSection("z0", normal=(0, 0, 1), offset=0.0,
                       axes=((1, 0, 0), (0, 1, 0))),
     np.array([3.0 * math.cos(0.4), 2.0 * math.sin(0.4), 0.0])),
    (catalog.rotated_cap_ellipsoid_chart(0.3),
     DomainSection("equator", "v", 0.0), (0.4, 0.02)),
], ids=["s_rho", "e_theta"])
def test_crossing_costs_no_field_evaluation(surface, section, start):
    opts = TraceOptions(rel_tol=1e-6, max_step_factor=0.1, max_length=60.0,
                        detect_closure=False)
    plain = trace(surface, start, MAXIMAL, opts)
    cut = trace(surface, start, MAXIMAL, opts.with_sections([section]))
    assert len(cut.crossings) >= 6
    assert cut.meta["steps"] == plain.meta["steps"]
    assert cut.meta["evals"] == plain.meta["evals"]
    assert np.array_equal(cut.points_xyz, plain.points_xyz)
    # a Dormand-Prince step tries six new stages
    assert plain.meta["evals"] >= 6 * plain.meta["steps"]
    if isinstance(section, WorldPlaneSection):
        diam = surface.diameter()
        assert all(abs(c.xyz[2]) <= 1e-9 * diam for c in cut.crossings)


def test_implicit_trace_stays_on_the_level_set():
    # a long tight trace re-projects whenever |f| passes 1e-9 diam, so no
    # recorded point drifts farther off S_rho
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    start = np.array([3.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0])
    traj = trace(s, start, MAXIMAL,
                 TraceOptions(rel_tol=1e-7, max_length=120.0,
                              detect_closure=False))
    assert traj.termination == "MaxLength"
    assert max(abs(float(s.value(p))) for p in traj.points_xyz) \
        <= 1e-9 * s.diameter()


def test_unconverged_projection_rejects_the_step():
    s = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
    with pytest.raises(ConvergenceError):
        trace(s, np.zeros(3), MAXIMAL)
    calls = []

    class Flaky(type(s)):
        def project(self, p, tol=1e-12, max_iter=12):
            calls.append(1)
            if len(calls) == 2:      # the first projection inside the loop
                raise ConvergenceError("no projection")
            return super().project(p, tol, max_iter)

    flaky = Flaky(**{f: getattr(s, f) for f in s.__dataclass_fields__})
    # a loose tolerance lets the state drift off the level set, so the
    # tracer re-projects inside the loop (11 times after the start)
    opts = TraceOptions(detect_closure=False, max_length=2.0, rel_tol=1e-4)
    start = np.array([3.0, 0.0, 0.0])
    traj = trace(flaky, start, MAXIMAL, opts)
    plain = trace(s, start, MAXIMAL, opts)
    assert len(calls) > 6
    assert traj.termination == plain.termination == "MaxLength"
    assert traj.length == pytest.approx(2.0, abs=1e-12)
    # the failed step is tried again at a quarter of its size
    assert not np.array_equal(traj.arclength[:7], plain.arclength[:7])


def _launch_lanes(surface, records):
    """The 24 separatrix launches of the connection scan on the ellipsoid:
    chart starts, headings, foliations and rel_tols."""
    r_launch = 2.5e-3 * surface.diameter()
    lanes = []
    for rec in records:
        fr = rec.monge.frame
        for fol, angs in rec.separatrices.items():
            for ang in angs:
                for skew, rtol in ((2.5e-4, 1e-8), (-2.5e-4, 1e-8),
                                   (2.5e-4, 1e-9)):
                    ray = (math.cos(ang + skew) * fr.e1
                           + math.sin(ang + skew) * fr.e2)
                    uv = foliation.chart_point_near(
                        surface, rec.xyz + r_launch * ray, rec.uv)
                    lanes.append((uv, ray, fol, rtol))
    return lanes


def _run(surface, lanes, opts, pair):
    uv, ray, fol, rtol = zip(*lanes)
    return trace_lanes(surface, uv, fol, opts, headings=ray, rel_tol=rtol,
                       pair=pair)


def _assert_batch_invariant(surface, lanes, opts, pair, evals_per_step):
    """Each of a few lanes traced alone equals its trace in the batch and
    in a shuffled batch, bit for bit.  Returns the batch."""
    batch = _run(surface, lanes, opts, pair)
    order = [(7 * k + 5) % 24 for k in range(24)]       # a permutation
    shuffled = _run(surface, [lanes[k] for k in order], opts, pair)
    for k in (0, 5, 13, 23):
        alone = _run(surface, [lanes[k]], opts, pair)[0]
        for other in (batch[k], shuffled[order.index(k)]):
            assert np.array_equal(other.points_uv, alone.points_uv)
            assert np.array_equal(other.points_xyz, alone.points_xyz)
            assert np.array_equal(other.arclength, alone.arclength)
            assert other.termination == alone.termination
            assert other.hit_umbilic_index == alone.hit_umbilic_index
            assert other.meta["steps"] == alone.meta["steps"]
            assert other.meta["evals"] == alone.meta["evals"]
    # no lane is handed across a pole: one start evaluation, then one per
    # stage after the first of every step tried
    for t in batch:
        assert t.meta["evals"] == 1 + evals_per_step * t.meta["steps"]
    return batch


def test_trace_lanes_lane_does_not_depend_on_its_batch(ellipsoid,
                                                       ellipsoid_records):
    """Both passes of the connection scan: the launches on DOP853, then
    the passes through the balls they enter on DP5(4)."""
    lanes = _launch_lanes(ellipsoid, ellipsoid_records)
    assert len(lanes) == 24
    opts = TraceOptions(known_umbilics=ellipsoid_records,
                        detect_closure=False,
                        max_length=4.0 * ellipsoid.diameter())
    launched = _assert_batch_invariant(ellipsoid, lanes, opts,
                                       foliation._DOP853, 12)
    assert {t.termination for t in launched} == {foliation.TERM_HIT_UMBILIC}
    entries = [(t.points_uv[-1], t.tangents[-1], fol, rtol)
               for t, (_, _, fol, rtol) in zip(launched, lanes)]
    through = _assert_batch_invariant(
        ellipsoid, entries, replace(opts, known_umbilics=(),
                                    max_length=2e-3 * ellipsoid.diameter()),
        foliation._DP54, 6)
    assert {t.termination for t in through} == {foliation.TERM_MAX_LENGTH}


def test_trace_lanes_follows_trace_and_rejects_unsupported(ellipsoid, torus):
    opts = TraceOptions(detect_closure=False, max_length=6.0)
    starts = [(0.8, 1.1), (2.1, 0.7), (4.1, 0.9)]
    lanes = trace_lanes(ellipsoid, starts, [MINIMAL, MAXIMAL, MAXIMAL],
                        opts)
    for (start, fol), lane in zip(zip(starts, [MINIMAL, MAXIMAL, MAXIMAL]),
                                  lanes):
        lone = trace(ellipsoid, start, fol, opts)
        assert lane.termination == lone.termination == "MaxLength"
        assert lane.length == pytest.approx(6.0, abs=1e-12)
        assert np.linalg.norm(lane.points_xyz[-1] - lone.points_xyz[-1]) \
            < 1e-6
    back = trace_lanes(ellipsoid, starts[:1], MINIMAL, opts,
                       headings=[-lanes[0].tangents[0]])[0]
    assert np.array_equal(back.tangents[0], -lanes[0].tangents[0])
    with pytest.raises(ValueError):
        trace_lanes(torus, [(0.3, 0.9)], MAXIMAL, TraceOptions())
    with pytest.raises(ValueError):
        trace_lanes(torus, [(0.3, 0.9)], MAXIMAL, TraceOptions(
            detect_closure=False,
            sections=(DomainSection("m", "u", 0.0),)))


def _bundle_pick(surface, y, minimal, ref):
    """The lane field as chart_bundle gives it: both directions, then
    each lane's one picked and signed along ``ref``."""
    b = chart_bundle(surface, y[:, 0], y[:, 1], strict=False)
    pick = minimal[:, None]
    vel = np.where(pick, b["d1_uv"], b["d2_uv"])
    tan = np.where(pick, b["d1_xyz"], b["d2_xyz"])
    if ref is not None:
        flip = (np.sum(tan * ref, axis=1) < 0.0)[:, None]
        vel = np.where(flip, -vel, vel)
        tan = np.where(flip, -tan, tan)
    return vel, b["r"], tan, b["normal"]


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("make", [
    lambda: catalog.sphere_chart(1.0),
    lambda: catalog.ellipsoid_chart(3.0, 2.0, 1.0),
    lambda: catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0),
    lambda: catalog.torus_chart(2.0, 1.0),
    lambda: catalog.perturbed_torus_chart(2.0, 1.0, 0.05),
    lambda: catalog.rotated_cap_ellipsoid_chart(1.0),
    lambda: catalog.monge_graph_chart(1, 4, 1, 0),
], ids=["sphere", "ellipsoid", "perturbed_ellipsoid", "torus",
        "perturbed_torus", "e_theta", "monge_graph"])
def test_lane_field_is_chart_bundles_pick(make, orientation):
    chart = make().with_orientation(orientation)
    rng = np.random.default_rng(18)
    (u0, u1), (v0, v1) = chart.domain
    for m in (1, 3, 17):
        y = np.column_stack([rng.uniform(u0, u1, m), rng.uniform(v0, v1, m)])
        minimal = rng.random(m) < 0.5
        if m > 1:
            minimal[:2] = (True, False)
        ref = rng.normal(size=(m, 3))
        for r in (None, ref):
            got = foliation._lane_field(chart, y, minimal, r)
            want = _bundle_pick(chart, y, minimal, r)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)


def test_lane_field_is_nan_at_the_pole_but_the_point(ellipsoid):
    y = np.array([[0.7, 1.2], [0.5, 0.0], [1.9, 2.5]])   # row 1: the pole
    minimal = np.array([True, True, False])
    ref = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for r in (None, ref):
        got = foliation._lane_field(ellipsoid, y, minimal, r)
        vel, point, tan, nrm = got
        assert np.all(np.isnan(vel[1])) and np.all(np.isnan(tan[1]))
        assert np.all(np.isnan(nrm[1]))
        assert np.all(np.isfinite(point))
        for k in (0, 2):
            assert all(np.all(np.isfinite(x[k])) for x in got)
        for a, b in zip(got, _bundle_pick(ellipsoid, y, minimal, r)):
            assert np.array_equal(a, b, equal_nan=True)


def test_trace_lanes_ends_an_irregular_start_at_once(ellipsoid):
    opts = TraceOptions(detect_closure=False, max_length=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pole, lane = trace_lanes(ellipsoid, [(0.5, 0.0), (0.8, 1.1)],
                                 MINIMAL, opts)
        alone = trace_lanes(ellipsoid, [(0.8, 1.1)], MINIMAL, opts)[0]
    assert pole.termination == foliation.TERM_STEP_FAILURE
    assert len(pole.points_uv) == len(pole.arclength) == 1
    assert pole.meta["steps"] == 0
    assert lane.termination == alone.termination == "MaxLength"
    assert np.array_equal(lane.points_uv[0], (0.8, 1.1))
    assert np.array_equal(lane.points_xyz[0], ellipsoid.point(0.8, 1.1))
    for name in ("points_uv", "points_xyz", "tangents", "normals",
                 "arclength"):
        assert np.array_equal(getattr(lane, name), getattr(alone, name))
    assert lane.meta == alone.meta


def test_chart_inversion_row_does_not_depend_on_its_batch(ellipsoid,
                                                         ellipsoid_records):
    rec = ellipsoid_records[0]
    fr = rec.monge.frame
    diam = ellipsoid.diameter()
    angles = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    targets = [rec.xyz + 0.01 * diam * (math.cos(a) * fr.e1
                                        + math.sin(a) * fr.e2)
               for a in angles]
    seeds = [rec.uv] * 6
    # unreachable: 20 diameters off the surface; and a seed on the chart's
    # pole, where the 2x2 normal equations are singular
    targets[2] = rec.xyz + 20.0 * diam * fr.normal
    seeds[4] = (0.3, 0.0)
    batch = foliation.chart_points_near(ellipsoid, targets, seeds)
    for k in range(6):
        alone = foliation.chart_point_near(ellipsoid, targets[k], seeds[k])
        if k in (2, 4):
            assert alone is None and np.all(np.isnan(batch[k]))
        else:
            assert np.array_equal(alone, batch[k])
            # the chart point is the foot of the target on the surface
            w = ellipsoid.point(*alone) - targets[k]
            J = ellipsoid.jet(*alone)
            assert abs(w @ J[1, 0]) + abs(w @ J[0, 1]) < 1e-12 * diam


def test_dp_step_is_the_dormand_prince_polynomial_on_a_linear_field():
    # on y' = lam y one step multiplies y by R(h lam), the Dormand-Prince
    # stability polynomial, and the embedded error estimate is O(h^5).
    # Rounding is relative to the sum of the series' term sizes,
    # R(|h lam|) |y0|, as the terms of R(h lam) cancel for lam < 0.
    def R(z):
        return sum(z ** k / math.factorial(k) for k in range(6)) + z ** 6 / 600

    y0 = (1.0, -0.5, 0.25)
    for lam in (-1.0, 0.7, -2.3):
        def fld(y, ref):
            v = tuple(lam * c for c in y)
            return foliation._FieldEval(v, y, v, None)

        k1 = fld(y0, None)
        for h in (0.1, 0.5, 1.3):
            y5, _, _ = foliation._dp_step(fld, y0, k1, h)
            scale = R(abs(h * lam)) * max(map(abs, y0))
            assert np.abs(np.subtract(y5, np.multiply(R(h * lam), y0))
                          ).max() <= 1e-15 * scale
        errs = [np.linalg.norm(foliation._dp_step(fld, y0, k1, h)[1])
                for h in (0.2, 0.1)]
        assert 28.0 <= errs[0] / errs[1] <= 36.0


def test_dp_step_runs_on_floats_and_matches_the_numpy_tableau():
    # every stage state, y5 and the error (y5 - y4, the sum from a zero
    # state) of the written-out step equal a left-to-right sum over the
    # rows of _DP54.a and _DP54.e, zero weights included, bit for bit
    # (float.hex tells -0.0 from 0.0); some velocities and start
    # components are zeros of either sign
    def left_to_right(y, h, weights, vels):
        out = []
        for c, yc in enumerate(y):
            acc = 0.0
            for w, v in zip(weights, vels):
                acc += w * v[c]
            out.append(yc + h * acc)
        return tuple(out)

    rng = np.random.default_rng(1501)
    a, e = foliation._DP54.a.tolist(), foliation._DP54.e.tolist()
    for n in (2, 3):
        for trial in range(40):
            K = rng.normal(size=(7, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
            y0 = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
            if trial % 4 == 0:
                K[:, trial % n] = -0.0 if trial % 8 else 0.0
                y0[trial % n] = -0.0
            if trial % 4 == 1:
                K[rng.integers(7), :] = -0.0
            vels = [tuple(row) for row in K.tolist()]
            y0 = tuple(y0.tolist())
            h = float(rng.uniform(1e-4, 2.0))
            states = []

            def fld(y, ref):
                states.append(y)
                return foliation._FieldEval(vels[len(states)], y,
                                            (1.0, 0.0, 0.0), None)

            k1 = foliation._FieldEval(vels[0], y0, (1.0, 0.0, 0.0), None)
            y5, err, stages = foliation._dp_step(fld, y0, k1, h)
            assert [k.vel for k in stages] == vels and len(states) == 6
            assert states[5] is y5
            want = [left_to_right(y0, h, a[i][:i], vels) for i in range(1, 7)]
            want.append(left_to_right((0.0,) * n, h, e, vels))
            for got, ref in zip(states + [err], want):
                assert isinstance(got, tuple) and len(got) == n
                assert all(type(x) is float for x in got)
                assert [x.hex() for x in got] == [x.hex() for x in ref]


def test_pair_tableaux_are_dormand_prince():
    """DOP853's literals are the coefficients of Hairer's DOP853 code as
    scipy carries them, bit for bit: the 12 stages, the solution as the
    last row (first same as last) and both error rows.  For both pairs
    each stage row sums to its node, and the error weights to 0."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    dop = foliation._DOP853
    assert dop.a.shape == (13, 13)
    assert np.array_equal(dop.a[:12, :12], ref.A[:12, :12])
    assert np.array_equal(dop.a[12, :12], ref.B)
    assert np.array_equal(dop.e, ref.E5)
    assert np.array_equal(dop.e3, ref.E3)
    eps = np.finfo(float).eps
    for pair, nodes in ((foliation._DP54, (0, 1 / 5, 3 / 10, 4 / 5, 8 / 9,
                                           1, 1)),
                        (dop, ref.C[:13])):
        assert np.array_equal(pair.a, np.tril(pair.a, -1))   # explicit
        assert np.abs(pair.a.sum(axis=1) - nodes).max() <= 8 * eps
        for e in (pair.e, pair.e3):
            assert e is None or abs(e.sum()) <= 8 * eps


@pytest.mark.parametrize("name, order, solver", [("_DP54", 5, "RK45"),
                                                  ("_DOP853", 8, "DOP853")])
def test_lane_step_has_the_order_of_its_pair(name, order, solver):
    """On a smooth nonlinear field, the one-step error of the lanes' step
    falls as h^(order + 1) and its error estimate as h^(1 / exponent + 1),
    the power the step control assumes.  The reference takes 64 steps
    of the same pair.  The estimate is scipy's error norm of the pair
    (Hairer's combination of both error rows for DOP853) at unit scale."""
    from scipy import integrate

    pair = getattr(foliation, name)
    ode = getattr(integrate, solver)(lambda t, y: y, 0.0, np.zeros(2), 1.0)
    stages = []

    def fld(y):
        stages.append(np.column_stack([np.exp(y[:, 1]), -y[:, 0] * y[:, 1]]))
        return (stages[-1],)

    def step(y, h):
        stages.clear()
        return foliation._lane_step(pair, fld, y, fld(y)[0], np.full(1, h))

    y0 = np.array([[2.5, -1.2]])
    hs = (0.4, 0.2, 0.1) if order == 8 else (0.1, 0.05, 0.025)
    errs, ests = [], []
    for h in hs:
        y1, est, last, failed = step(y0, h)
        assert not failed[0] and np.array_equal(last[0], fld(y1)[0])
        # the RMS norm of scipy at scale 1 / sqrt(2) is the 2-norm
        want = ode._estimate_error_norm(np.concatenate(stages[:-1]), h,
                                        np.full(2, 0.5 ** 0.5))
        assert est[0] == pytest.approx(want, rel=1e-12)
        ref = y0
        for _ in range(64):
            ref = step(ref, h / 64)[0]
        errs.append(np.linalg.norm(y1 - ref))
        ests.append(est[0])
    for values, power in ((errs, order + 1), (ests, 1 / pair.exponent + 1)):
        slopes = np.log2(np.divide(values[:-1], values[1:]))
        assert np.all(np.abs(slopes - power) < 0.6), (slopes, power)


def test_connection_scan_gaps_hold_at_a_tight_tolerance():
    """The scan's gaps on the paper's perturbed ellipsoid lie within
    1e-9 diam of a scan at rel_tol 1e-12, far inside the gaps' distance
    from their bounds (about 4e-5 against 1e-7 diam)."""
    pe = catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0)
    recs = umbilics.analyze_umbilics(pe, grid=32)
    scan = separatrix_connection_scan(pe, recs)
    ref = separatrix_connection_scan(pe, recs, TraceOptions(rel_tol=1e-12))
    assert len(scan.gaps) == len(ref.gaps) == 8
    for a, b in zip(scan.gaps, ref.gaps):
        assert a.near == b.near is not None
        assert abs(a.gap - b.gap) <= 1e-9


@pytest.mark.parametrize("kind", ["chart", "implicit"])
def test_bisect_step_on_floats_is_the_array_hermite(torus, kind):
    # every state the bisection offers its offset is _hermite on arrays at
    # that midpoint, and the interpolant it returns gives _hermite at the
    # returned fraction, bit for bit.  A crossing keeps that state and
    # its own point; a precise one is the re-step's, and the bisection
    # forms no point at the returned fraction for it
    if kind == "chart":
        surface, y0 = torus, (0.3, 0.9)
        fld = foliation._chart_field(surface, MAXIMAL, {"evals": 0})

        def point(y):
            return surface.point(y[0], y[1])
    else:
        surface = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
        y0 = tuple(surface.project((2.866, 0.591, 0.0)).tolist())
        fld = foliation._implicit_field(surface, MAXIMAL, {"evals": 0})

        def point(y):
            return y
    k1 = fld(y0, None)
    h = 0.05
    y5, _, stages = foliation._dp_step(fld, y0, k1, h)
    step = (y0, k1, y5, stages[6], h, 0.0)
    middle = 0.5 * (y0[0] + y5[0])
    seen = []

    def offset(y, xyz):
        seen.append(y)
        return y[0] - middle

    g_old = y0[0] - middle
    t, state = foliation._bisect_step(step, offset, lambda y: y, g_old)
    assert len(seen) == foliation._BISECTIONS
    arrays = [np.array(x) for x in (y0, k1.vel, y5, stages[6].vel)]
    lo, hi = 0.0, 1.0
    for y in seen:
        mid = 0.5 * (lo + hi)
        assert type(y) is tuple and len(y) == len(y0)
        assert y == tuple(foliation._hermite(*arrays, h, mid).tolist())
        if (y[0] < middle) == (g_old < 0.0):
            lo = mid
        else:
            hi = mid
    assert t == 0.5 * (lo + hi)
    yt = state(t)
    assert type(yt) is tuple
    assert yt == tuple(foliation._hermite(*arrays, h, t).tolist())
    assert yt != seen[-1]

    located = []

    def locate(y):
        located.append(y)
        return point(y)

    sec = SimpleNamespace(section_id="x",
                          offset=lambda y, xyz: y[0] - middle,
                          coordinate=lambda y, xyz: float(xyz[1]))
    for precise in (False, True):
        located.clear()
        cross = foliation._refine_crossing(
            sec, fld, locate, step, g_old, y5[0] - middle,
            TraceOptions(precise_crossings=precise))
        if precise:
            xyz = foliation._restep(fld, step, t)[1].xyz
        else:
            xyz = point(yt)
            assert located[-1] == yt
        assert len(located) == foliation._BISECTIONS + (not precise)
        assert cross.arclength == h * t
        assert np.array_equal(cross.xyz, xyz)
        assert cross.coordinate == float(xyz[1])


@pytest.mark.parametrize("fol", [MINIMAL, MAXIMAL])
def test_s_rho_at_rho_0_closes_as_the_ellipsoid_chart(ellipsoid, fol):
    # S_0 is the ellipsoid (3, 2, 1): the implicit trace, whose closure is
    # located on float-triple states, closes where the chart trace does
    p = np.array([3.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0])
    level = trace(catalog.cubic_levelset_surface(0.0), p, fol)
    chart = trace(ellipsoid, foliation.chart_point_near(ellipsoid, p,
                                                        (0.3, 1.5)), fol)
    assert level.termination == chart.termination == "Closed"
    assert level.closed_length == pytest.approx(chart.closed_length,
                                                rel=1e-6)


@pytest.mark.parametrize("kind", ["chart", "implicit"])
def test_trace_records_are_float_arrays_from_the_start(torus, kind):
    if kind == "chart":
        surface, start, dim = torus, (0.3, 0.9), 2
    else:
        surface = catalog.cubic_levelset_surface(0.05, 3.0, 2.0)
        start, dim = (3.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.0), 3
    traj = trace(surface, start, MAXIMAL, TraceOptions(max_length=2.0))
    n = len(traj.arclength)
    assert n > 2
    for arr, width in ((traj.points_uv, dim), (traj.points_xyz, 3),
                       (traj.tangents, 3), (traj.normals, 3)):
        assert arr.dtype == np.float64 and arr.shape == (n, width)
    assert traj.arclength.dtype == np.float64
    assert traj.arclength[0] == 0.0
    assert np.array_equal(traj.points_uv[0], start)
    if kind == "chart":
        assert np.array_equal(traj.points_xyz[0], surface.point(*start))
    else:
        assert np.array_equal(traj.points_xyz[0], start)
