import dataclasses
import math

import numpy as np
import pytest

from principal_config import cycles, foliation
from principal_config.errors import (ConvergenceError, RegularityError,
                                     ReturnFailure)
from principal_config.cycles import (cycle_from_closed_trajectory,
                                     find_cycles, hyperbolicity,
                                     return_map_derivative_fd,
                                     return_map_derivative_integral)
from principal_config.foliation import TraceOptions, chart_point_near, trace
from principal_config.geometry import MAXIMAL, MINIMAL, chart_bundle
from fd_chart import FiniteDifferenceChart

# seeds bracketing displacement roots, frozen from the sign-change scan
PT_MAX_SEEDS = [(0.4, 1.5), (0.4, 2.9), (0.4, 4.6)]
PT_MIN_SEEDS = [(1.9, 1.2), (2.4, 1.2)]


@pytest.fixture(scope="module")
def torus_parallel_cycle(torus):
    found = find_cycles(torus, [(0.3, 0.9)], MAXIMAL)
    assert len(found) == 1
    return found[0]


@pytest.fixture(scope="module")
def perturbed_cycles(perturbed_torus):
    got = find_cycles(perturbed_torus, PT_MAX_SEEDS, MAXIMAL)
    got += find_cycles(perturbed_torus, PT_MIN_SEEDS, MINIMAL)
    return got


def test_torus_parallel_return_map_identity(torus_parallel_cycle):
    c = torus_parallel_cycle
    assert c.tprime_fd == pytest.approx(1.0, abs=1e-6)
    assert abs(c.log_integral_dH) < 1e-6
    assert abs(c.log_integral_dk2) < 1e-6
    assert hyperbolicity(c) == "NearUnity"


def test_torus_meridian_integral_zero(torus):
    found = find_cycles(torus, [(0.8, 0.6)], MINIMAL)
    assert found
    c = found[0]
    assert c.period_length == pytest.approx(2 * math.pi, rel=1e-6)
    assert abs(c.log_integral_dH) < 1e-6
    assert c.tprime_fd == pytest.approx(1.0, abs=1e-6)


def test_ellipsoid_closed_line_near_unity(ellipsoid):
    found = find_cycles(ellipsoid, [(0.8, 1.1)], MAXIMAL)
    assert found
    c = found[0]
    assert hyperbolicity(c) == "NearUnity"
    assert abs(math.log(c.tprime_fd)) < 1e-6


def test_perturbed_torus_cycles_exist_and_agree(perturbed_cycles):
    assert len(perturbed_cycles) >= 3
    hyperbolic_count = 0
    for c in perturbed_cycles:
        assert c.tprime_fd is not None and c.tprime_fd > 0
        log_fd = math.log(c.tprime_fd)
        log_int = c.sign_branch * 0.5 * (c.log_integral_dH
                                         + c.log_integral_dk2)
        assert abs(log_fd - log_int) < 1e-3
        # the two integral variants agree within quadrature tolerance
        assert abs(c.log_integral_dH
                   - c.log_integral_dk2) < 1e-6 * max(
                       1.0, abs(c.log_integral_dH))
        if c.hyperbolic:
            hyperbolic_count += 1
    assert hyperbolic_count >= 1


def test_sign_change_of_displacement_across_seed_band(perturbed_cycles):
    # stable and unstable cycles alternate, so log T' changes sign
    logs = [math.log(c.tprime_fd) for c in perturbed_cycles
            if c.hyperbolic]
    if len(logs) >= 2:
        assert min(logs) < 0 or max(logs) > 0


def test_fd_estimator_is_h_stable(perturbed_torus, perturbed_cycles):
    c = next(cc for cc in perturbed_cycles if cc.hyperbolic)
    t1, e1 = return_map_derivative_fd(perturbed_torus, c, h=6e-3)
    t2, e2 = return_map_derivative_fd(perturbed_torus, c, h=3e-3)
    assert abs(t1 - t2) < 5.0 * (e1 + e2 + 1e-9)


def test_reversal_inverts_return_derivative(perturbed_torus,
                                            perturbed_cycles):
    c = next(cc for cc in perturbed_cycles if cc.hyperbolic)
    rev_traj = trace(perturbed_torus, c.anchor_uv, c.foliation_id,
                     TraceOptions(rel_tol=1e-11), heading=-c.tangent)
    assert rev_traj.termination == "Closed"
    rev = cycles.attach_estimates(
        perturbed_torus, cycle_from_closed_trajectory(
            perturbed_torus, rev_traj))
    assert math.log(rev.tprime_fd) == pytest.approx(
        -math.log(c.tprime_fd), abs=1e-5)
    # integral negates under orientation reversal
    assert rev.log_integral_dH == pytest.approx(-c.log_integral_dH,
                                                abs=1e-9)


def test_integral_reparametrization_invariance(perturbed_torus,
                                               perturbed_cycles):
    c = perturbed_cycles[0]
    a1, b1 = return_map_derivative_integral(perturbed_torus, c,
                                            quadrature_points=1024)
    a2, b2 = return_map_derivative_integral(perturbed_torus, c,
                                            quadrature_points=2048)
    assert abs(a1 - a2) < 1e-9
    assert abs(b1 - b2) < 1e-9


def test_hyperbolicity_verdict_rule(perturbed_cycles):
    import dataclasses
    c = perturbed_cycles[0]
    strong = dataclasses.replace(c, tprime_fd=math.exp(0.02),
                                 tprime_fd_error=1e-8,
                                 tprime_integral=math.exp(0.02))
    assert hyperbolicity(strong) == "hyperbolic"
    weak = dataclasses.replace(c, tprime_fd=math.exp(1e-5),
                               tprime_fd_error=1e-8,
                               tprime_integral=math.exp(1e-5))
    assert hyperbolicity(weak) == "NearUnity"


def _return_offsets_before_heading(anchor, h, n_returns):
    """The return offsets as traced before ``trace`` took a heading: the
    start sign from a chart_bundle at the start, pointed along the
    anchor's tangent."""
    surface, fol = anchor.surface, anchor.foliation_id
    uv, w_start = anchor.start_info(h)
    b = chart_bundle(surface, uv[0], uv[1])
    d = b["d1_xyz"] if fol == MINIMAL else b["d2_xyz"]
    traj = trace(surface, uv, fol, TraceOptions(
        rel_tol=cycles._TRACE_TOL, detect_closure=False,
        max_length=cycles._MAX_PERIOD_FACTOR * surface.diameter()
        * n_returns,
        sections=(anchor.section(),), precise_crossings=True,
        max_crossings=n_returns),
        heading=d if float(np.dot(d, anchor.t0)) >= 0.0 else -d)
    assert len(traj.crossings) == n_returns
    return w_start, [float(np.dot(c.xyz - anchor.p0, anchor.w0))
                     for c in traj.crossings]


def _fd_before_one_return_probe(surface, cycle):
    """return_map_derivative_fd as it was when its probe traced T(h) to
    two returns."""
    h = cycles._FD_OFFSET_FACTOR * surface.diameter()
    anchor = cycles._Anchor(surface, cycle.anchor_uv, cycle.foliation_id,
                            cycle.tangent)
    w_h, hits = _return_offsets_before_heading(anchor, h, 2)

    def T(x):
        if x == h:
            return w_h, hits[0]
        w_x, ret = _return_offsets_before_heading(anchor, x, 1)
        return w_x, ret[-1]

    def central(x):
        w_p, r_p = T(x)
        w_m, r_m = T(-x)
        return (r_p - r_m) / (w_p - w_m)

    d_h, d_h2 = central(h), central(0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0, abs(d_h2 - d_h) / 3.0


def _recording_return_offsets(monkeypatch):
    """Record (h, detect_closure) of each _return_offsets call."""
    asked = []
    real = cycles._return_offsets

    def recording(anchor, h, tol=cycles._TRACE_TOL, detect_closure=False):
        asked.append((h, detect_closure))
        return real(anchor, h, tol, detect_closure)

    monkeypatch.setattr(cycles, "_return_offsets", recording)
    return asked


@pytest.mark.parametrize("which", ["torus", "perturbed"])
def test_fd_probe_traces_one_return(which, torus, torus_parallel_cycle,
                                    perturbed_torus, perturbed_cycles,
                                    monkeypatch):
    surface, cycle = ((torus, torus_parallel_cycle) if which == "torus"
                      else (perturbed_torus, perturbed_cycles[0]))
    asked = _recording_return_offsets(monkeypatch)
    got = return_map_derivative_fd(surface, cycle)
    # T(±h) and T(±h/2), one return each, none of them closing
    h = cycles._FD_OFFSET_FACTOR * surface.diameter()
    assert asked == [(x, False) for x in (h, -h, 0.5 * h, -0.5 * h)]
    monkeypatch.undo()
    assert got == _fd_before_one_return_probe(surface, cycle)


def test_duplicate_cycles_merge(torus):
    found = find_cycles(torus, [(0.3, 0.9), (1.5, 0.9)], MAXIMAL)
    assert len(found) == 1


def test_resample_line_returns_the_recorded_points(torus):
    traj = trace(torus, (0.3, 0.9), MAXIMAL, TraceOptions())
    value, slope = foliation.resample_line(torus, traj, traj.arclength)
    assert np.array_equal(value, traj.points_uv)
    field = foliation._lane_field(torus, traj.points_uv, False,
                                  traj.tangents)[0]
    assert np.array_equal(slope, field)


@pytest.mark.parametrize("seed, fol", [((0.4, 4.6), MAXIMAL),
                                       ((1.9, 1.2), MINIMAL)])
def test_resample_line_follows_the_line(perturbed_torus, seed, fol):
    # between the recorded points, against retraces at rel_tol 1e-13
    (cyc,) = find_cycles(perturbed_torus, [seed], fol)
    traj, diam = cyc.curve, perturbed_torus.diameter()
    s = (np.arange(16) + 0.37) / 16 * traj.length
    value, slope = foliation.resample_line(perturbed_torus, traj, s)
    for x, uv, duv in zip(s, value, slope):
        ref = trace(perturbed_torus, traj.points_uv[0], fol, TraceOptions(
            rel_tol=1e-13, max_length=x, detect_closure=False),
            traj.tangents[0])
        assert ref.length == x
        off = np.linalg.norm(perturbed_torus.point(*uv) - ref.points_xyz[-1])
        assert off <= 1e-8 * diam
        field = foliation._lane_field(perturbed_torus, ref.points_uv[-1:],
                                      fol == MINIMAL, ref.tangents[-1:])[0]
        assert np.abs(duv - field[0]).max() <= 1e-5


def test_resample_line_raises_on_a_point_without_a_field(torus,
                                                        torus_parallel_cycle):
    traj = torus_parallel_cycle.curve
    uv = traj.points_uv.copy()
    uv[7] = np.nan
    broken = dataclasses.replace(traj, points_uv=uv)
    with pytest.raises(ConvergenceError):
        foliation.resample_line(torus, broken, traj.arclength[:3])
    cyc = dataclasses.replace(torus_parallel_cycle, curve=broken)
    with pytest.raises(ConvergenceError):
        return_map_derivative_integral(torus, cyc)
    got = cycles.attach_estimates(torus, cyc)
    assert "not finite" in got.meta["integral_failure"]
    assert got.log_integral_dH is None and got.tprime_fd is not None


@pytest.mark.parametrize("which", ["torus", "perturbed_torus"])
def test_return_map_starts_lie_on_the_section_plane(request, which):
    surface = request.getfixturevalue(which)
    diam = surface.diameter()
    for seed, fol, factors in (
            ((6.15, 1.2), MINIMAL, (0.0, 1e-3, 0.05, 0.2)),
            ((2.4, 1.2), MINIMAL, (0.0, 1e-3, 0.05, 0.2)),
            ((0.4, 4.6), MAXIMAL, (0.0, 1e-3, 0.05))):
        anchor = cycles._Anchor(surface, seed, fol)
        for h in sorted({sign * f * diam for f in factors
                         for sign in (1.0, -1.0)}):
            uv, w = anchor.start_info(h)
            r = surface.point(*uv) - anchor.p0
            assert abs(float(r @ anchor.t0)) <= 1e-12 * diam
            assert abs(w - h) <= 1e-12 * diam
    # the section curve of a meridian anchor is a circle of radius about
    # 1 = diam / 6: no point of it has the coordinate 0.2·diam
    anchor = cycles._Anchor(surface, (0.4, 4.6), MAXIMAL)
    with pytest.raises(ReturnFailure):
        anchor.start_info(0.2 * diam)


def test_perturbed_torus_minimal_seeds_without_a_return_root(
        perturbed_torus):
    # on-plane starts make the secant's residual the true displacement:
    # near these two seeds it has no root (with starts off the plane the
    # secant certified a root that closed no line)
    log = cycles.SearchLog()
    assert find_cycles(perturbed_torus, [(6.15, 1.2), (2.4, 1.2)], MINIMAL,
                       log=log) == []
    assert log.dropped == [
        (MINIMAL, seed, "no root of the return displacement")
        for seed in ((6.15, 1.2), (2.4, 1.2))]


def test_bracket_scan_finds_the_outer_parallel_of_the_perturbed_torus(
        perturbed_torus):
    # the secant search from this seed fails and the bracket scan finds
    # the root; its probes must start inside the return disc, where their
    # returns can be kept
    log = cycles.SearchLog()
    found = find_cycles(perturbed_torus, [(3.864, 5.679)], MAXIMAL, log=log)
    assert log.dropped == []
    assert len(found) == 1
    assert found[0].period_length == pytest.approx(18.7767, abs=1e-3)


def _raising_chart(error):
    def point(u, v):
        raise error("point function failed")
    return FiniteDifferenceChart(
        point, ((0, 2 * math.pi), (0, 2 * math.pi)), periodic_u=True,
        periodic_v=True, diameter_hint=6.0)


def test_find_cycles_drops_a_seed_only_on_seed_failures():
    with pytest.raises(TypeError):
        find_cycles(_raising_chart(TypeError), [(0.3, 0.9)], MAXIMAL)
    log = cycles.SearchLog()
    assert find_cycles(_raising_chart(RegularityError), [(0.3, 0.9)],
                       MAXIMAL, log=log) == []
    assert log.dropped == [(MAXIMAL, (0.3, 0.9),
                            "no anchor: RegularityError: point function "
                            "failed")]


def test_search_log_counts_every_trace(torus):
    log = cycles.SearchLog()
    found = find_cycles(torus, [(0.3, 0.9), (1.5, 0.9)], MAXIMAL, log=log)
    assert len(found) == 1
    # secant searches of both seeds and the FD return map, not only the
    # closed curve that is kept
    assert log.steps > 3 * found[0].curve.meta["steps"]
    assert log.evals > 6 * log.steps
    assert log.dropped == [(MAXIMAL, (1.5, 0.9),
                            "duplicate of an earlier cycle")]


# (surface fixture, foliation, seed) whose certifying trace closes
CLOSING_CASES = [("torus", MAXIMAL, (0.3, 0.9)),
                 ("perturbed_torus", MAXIMAL, (0.4, 4.6)),
                 ("ellipsoid", MINIMAL, (0.7, 0.4))]


def _seed_search(surface, fol, seed, force=None):
    """(cycle, SearchLog, the root h*, the separate closing traces) of one
    seed's search.  ``force`` takes a fallback: "early" drops the return
    of a certifying trace that closed (closure a step before its return),
    "open" runs the certifying traces without closure."""
    closing = []
    real = cycles.trace

    def tracing(surface, start, fol, opts, heading=None):
        certifying = opts.sections and opts.detect_closure
        if certifying and force == "open":
            opts = dataclasses.replace(opts, detect_closure=False)
        traj = real(surface, start, fol, opts, heading)
        if not opts.sections:
            closing.append(traj)
        if certifying and force == "early" and traj.termination == "Closed":
            traj = dataclasses.replace(traj, crossings=[])
        return traj

    with pytest.MonkeyPatch.context() as mp:
        asked = _recording_return_offsets(mp)
        mp.setattr(cycles, "trace", tracing)
        log = cycles.SearchLog()
        cyc, reason = cycles._cycle_from_seed(surface, seed, fol, (), log)
    assert reason is None
    h_star = [h for h, closes in asked if closes][-1]
    return cyc, log, h_star, closing


def _assert_same_curve(traj, ref):
    for key in ("points_uv", "points_xyz", "arclength"):
        assert np.array_equal(getattr(traj, key), getattr(ref, key))
    assert traj.closed_length == ref.closed_length


@pytest.mark.parametrize("which, fol, seed", CLOSING_CASES)
def test_the_certifying_trace_closes_the_cycle(request, which, fol, seed):
    surface = request.getfixturevalue(which)
    cyc, log, h_star, closing = _seed_search(surface, fol, seed)
    assert closing == []
    # a closing trace from the root, headed along the anchor's tangent as
    # every certifying trace is
    anchor = cycles._Anchor(surface, seed, fol)
    ref = trace(surface, anchor.start_info(h_star)[0], fol, TraceOptions(
        rel_tol=cycles._TRACE_TOL, detect_closure=True,
        max_length=cycles._MAX_PERIOD_FACTOR * surface.diameter()),
        anchor.t0)
    assert ref.termination == "Closed"
    _assert_same_curve(cyc.curve, ref)
    # a return that comes before closure runs that trace: the search costs
    # exactly its steps more
    opened, opened_log, _, closing = _seed_search(surface, fol, seed, "open")
    _assert_same_curve(closing[0], ref)
    _assert_same_curve(opened.curve, ref)
    assert opened_log.steps - log.steps == ref.meta["steps"]
    # a closure a step before the return retraces for the return alone
    early, early_log, _, closing = _seed_search(surface, fol, seed, "early")
    assert closing == []
    _assert_same_curve(early.curve, ref)
    assert early_log.steps > log.steps
    for other in (opened, early):
        assert other.anchor_uv == cyc.anchor_uv
        assert other.period_length == cyc.period_length


def test_return_trace_never_counts_its_start(torus):
    # a start on the section leaves it at once; whether the plane registers
    # that as a crossing depends on the roundoff side the start lies on
    diam = torus.diameter()
    anchor = cycles._Anchor(torus, (0.3, 0.9), MAXIMAL)
    counts = []
    for nudge in (1e-13, -1e-13):
        uv = chart_point_near(torus, anchor.p0 + nudge * diam * anchor.t0,
                              anchor.uv)
        traj = trace(torus, uv, MAXIMAL, TraceOptions(
            rel_tol=cycles._SEARCH_TOL, detect_closure=False,
            max_length=2 * cycles._MAX_PERIOD_FACTOR * diam,
            sections=(anchor.section(),), precise_crossings=True,
            max_crossings=2))
        assert all(c.arclength >= 1e-3 * diam for c in traj.crossings)
        counts.append(len(traj.crossings))
    assert counts[0] == counts[1]


def test_return_traces_stop_at_their_return(torus, monkeypatch):
    seen, located = [], []

    def recording(*args):
        traj = trace(*args)
        seen.append((args[3], traj))
        return traj

    def locating(*args):
        located.append(refine(*args))
        return located[-1]

    refine = foliation._refine_crossing
    monkeypatch.setattr(cycles, "trace", recording)
    monkeypatch.setattr(foliation, "_refine_crossing", locating)
    assert len(find_cycles(torus, [(0.3, 0.9)], MAXIMAL)) == 1
    returns = [(opts, traj) for opts, traj in seen if opts.sections]
    assert len(returns) >= 5
    # the disc's far side and the start leaving it are never located
    kept = [c for _, traj in returns for c in traj.crossings]
    assert len(located) == len(kept)
    assert all(a is b for a, b in zip(located, kept))
    for opts, traj in returns:
        disc, = opts.sections
        assert len(traj.crossings) == opts.max_crossings
        for c in traj.crossings:
            assert np.linalg.norm(c.xyz - disc.center) <= disc.radius
        # the last step of the trace holds its last return
        assert (traj.arclength[-2] < traj.crossings[-1].arclength
                <= traj.arclength[-1])
