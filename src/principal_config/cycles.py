"""Principal cycles: detection, Poincare return maps, hyperbolicity.

The return-map derivative is computed two independent ways and cross
checked: a Richardson-extrapolated central difference of the actual return
map, and the exponential of the closed line integral of dH/sqrt(H^2 - K)
(equivalently dk2/(k2 - k1)) along the cycle.  The sign of the integral
formula depends on orientation conventions, so the branch is resolved
empirically against the finite-difference value and recorded.  The
integral reads the cycle's own trace: its samples lie on the cubic Hermite
of each accepted step, as section crossings and closures do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (SEED_FAILURES, ConvergenceError, ReturnFailure,
                     UmbilicProximityError)
from .foliation import (TERM_CLOSED, DiscSection, TraceOptions,
                        chart_point_near, resample_line, segment_distances,
                        trace)
from .geometry import MINIMAL, chart_bundle, curvature_gradients


# cycle search constants; lengths are in units of the surface diameter
_TRACE_TOL = 1e-11              # derivative-quality traces
_SEARCH_TOL = 1e-8              # cycle hunting traces
_SECTION_CAPTURE_FACTOR = 0.12  # radius of the return disc
_NEWTON_TOL_FACTOR = 1e-9       # a root of the return displacement
_MAX_NEWTON = 18                # secant iterations from a seed
_MAX_SECANT_STEP_FACTOR = 0.35
# the bracket scan covers +-span, in this many probes per side; the span
# stays inside the return disc, with room for the sag of the section curve
_BRACKET_SPAN_FACTOR = 0.85 * _SECTION_CAPTURE_FACTOR
_BRACKET_PROBES = 6
_CYCLE_MERGE_FACTOR = 1e-3      # Hausdorff distance of one cycle
_FD_OFFSET_FACTOR = 1e-3        # section offset h of the FD return map
_MAX_PERIOD_FACTOR = 8.0        # return budget: length per return
_HYPERBOLICITY_TOL = 1e-4       # |log T'| above it is hyperbolic
_CURVATURE_FLOOR_REL = 1e-6     # sqrt(H^2 - K) floor along a cycle
_PLANE_TOL_FACTOR = 1e-13       # a start's distance from its section plane
_PLANE_NEWTON = 8               # Newton steps onto the plane, at most

# the reason logged for a seed whose cycle was found before
DUPLICATE_SEED = "duplicate of an earlier cycle"


@dataclass
class SearchLog:
    """Work of a cycle search, filled in as it runs: the Dormand-Prince
    steps and field evaluations of every trace it made (secant search, FD
    return map, and a closing trace where the trace that certified the
    root did not close), and each seed that gave no new cycle, with the
    reason."""

    steps: int = 0
    evals: int = 0
    dropped: list = field(default_factory=list)   # (foliation, seed, reason)

    def count(self, traj):
        self.steps += traj.meta["steps"]
        self.evals += traj.meta["evals"]
        return traj

    def undecided(self):
        """The dropped seeds that found no cycle, not even an earlier one."""
        return [d for d in self.dropped if d[2] != DUPLICATE_SEED]


@dataclass
class PrincipalCycle:
    foliation_id: str
    curve: object                      # Closed Trajectory
    period_length: float
    anchor_uv: tuple
    anchor_xyz: np.ndarray
    tangent: np.ndarray                # t0 at the anchor
    conormal: np.ndarray               # w0 = n x t0, section coordinate axis
    tprime_fd: float | None = None
    tprime_fd_error: float | None = None
    tprime_integral: float | None = None
    log_integral_dH: float | None = None
    log_integral_dk2: float | None = None
    sign_branch: int | None = None
    hyperbolic: bool | None = None
    hyperbolic_tol: float | None = None
    meta: dict = field(default_factory=dict)

    def log_tprime(self):
        if self.tprime_fd is not None and self.tprime_fd > 0:
            return math.log(self.tprime_fd)
        return math.nan

    def to_dict(self):
        return {
            "foliation_id": self.foliation_id,
            "period_length": self.period_length,
            "anchor_uv": [float(x) for x in self.anchor_uv],
            "anchor_xyz": [float(x) for x in self.anchor_xyz],
            "tprime_fd": self.tprime_fd,
            "tprime_fd_error": self.tprime_fd_error,
            "tprime_integral": self.tprime_integral,
            "log_integral_dH": self.log_integral_dH,
            "log_integral_dk2": self.log_integral_dk2,
            "sign_branch": self.sign_branch,
            "hyperbolic": self.hyperbolic,
            "hyperbolic_tol": self.hyperbolic_tol,
        }


# ---------------------------------------------------------------------------
# anchored return map
# ---------------------------------------------------------------------------

class _Anchor:
    """Poincare section through a chart point, normal to the tangent t0 of
    the ``foliation_id`` line there (along the world vector ``direction``
    when given).  Every return trace made from it stops at
    ``known_umbilics`` and puts its steps in ``log``."""

    def __init__(self, surface, uv, foliation_id, direction=None, log=None,
                 known_umbilics=()):
        b = chart_bundle(surface, uv[0], uv[1])
        self.surface = surface
        self.foliation_id = foliation_id
        self.log = log if log is not None else SearchLog()
        self.known_umbilics = known_umbilics
        self.uv = (float(uv[0]), float(uv[1]))
        self.p0 = b["r"]
        self.t0 = b["d1_xyz"] if foliation_id == MINIMAL else b["d2_xyz"]
        if direction is not None and float(np.dot(self.t0, direction)) < 0:
            self.t0 = -self.t0
        self.w0 = np.cross(b["normal"], self.t0)

    def start_info(self, h):
        """(chart point, section coordinate) for the offset h (0 is the
        anchor): the point of the surface on the section plane whose
        w0-coordinate is h.  The foot of the tangent-line target p0 + h·w0
        is moved onto the plane by Newton steps in (u, v) on (P - p0)·t0 =
        0 and (P - p0)·w0 = h; the coordinate returned is the one measured
        at the converged point, which return displacements are taken
        against."""
        if h == 0.0:
            return np.array(self.uv), 0.0
        uv = chart_point_near(self.surface, self.p0 + h * self.w0, self.uv)
        if uv is None:
            raise ReturnFailure(f"no chart point at section offset {h:.3e}")
        t0, w0 = self.t0, self.w0
        tol = _PLANE_TOL_FACTOR * self.surface.diameter()
        for _ in range(_PLANE_NEWTON):
            J = self.surface.jet(uv[0], uv[1])
            r, a, b = J[0, 0] - self.p0, J[1, 0], J[0, 1]
            f1, w = float(r @ t0), float(r @ w0)
            f2 = w - h
            if abs(f1) <= tol and abs(f2) <= tol:
                return uv, w
            m11, m12 = float(a @ t0), float(b @ t0)
            m21, m22 = float(a @ w0), float(b @ w0)
            det = m11 * m22 - m12 * m21
            if not det:
                break
            uv = uv + np.array([(m12 * f2 - m22 * f1) / det,
                                (m21 * f1 - m11 * f2) / det])
        raise ReturnFailure(
            f"no start on the section plane at offset {h:.3e}")

    def section(self):
        """The local Poincare section: the disc of radius
        ``_SECTION_CAPTURE_FACTOR``·diam about the anchor, normal to t0.  The
        far side of its plane is no return, nor is the start leaving it."""
        diam = self.surface.diameter()
        return DiscSection("return", center=self.p0, normal=self.t0,
                           radius=_SECTION_CAPTURE_FACTOR * diam,
                           skip=1e-3 * diam)


def _return_offsets(anchor, h, tol=_TRACE_TOL, detect_closure=False):
    """(start coordinate, section coordinate of the first return to the
    anchor's disc, the trace).  The trace stops at that return; a line
    that does not make it within ``_MAX_PERIOD_FACTOR``·diam raises
    ReturnFailure.  With ``detect_closure`` the trace also stops where it
    closes onto its start.  The tracer locates a return before a closure
    in the same step, so the return is the same as without closure; a
    trace that closes a step before its return is traced again without
    closure for the return, and the closed trace is returned."""
    surface, foliation_id = anchor.surface, anchor.foliation_id
    uv, w_start = anchor.start_info(h)
    topts = TraceOptions(
        rel_tol=tol, detect_closure=detect_closure,
        max_length=_MAX_PERIOD_FACTOR * surface.diameter(),
        known_umbilics=anchor.known_umbilics,
        sections=(anchor.section(),), precise_crossings=True,
        max_crossings=1)
    # the start heading is the anchor's tangent
    traj = anchor.log.count(trace(surface, uv, foliation_id, topts,
                                  anchor.t0))
    if not traj.crossings:
        if traj.termination == TERM_CLOSED:
            w_start, hit, _ = _return_offsets(anchor, h, tol)
            return w_start, hit, traj
        raise ReturnFailure(
            f"trajectory produced 0 return(s) within budget (termination "
            f"{traj.termination})")
    hit = float(np.dot(traj.crossings[0].xyz - anchor.p0, anchor.w0))
    return w_start, hit, traj


# ---------------------------------------------------------------------------
# cycle detection
# ---------------------------------------------------------------------------

def find_cycles(surface, seeds, foliation_id, known_umbilics=(), log=None):
    """Trace seeds, converge each onto a nearby cycle, deduplicate.

    Every seed is refined by a secant iteration on the section return
    displacement T(h) - h (Newton on the return map), so isolated cycles
    are found from seeds merely near them; non-converging seeds are
    dropped.  Cycles closer than the merge tolerance (Hausdorff distance)
    are reported once, in seed order.  The derivative-quality trace that
    certifies a root also detects closure, and its closed trajectory is
    the cycle's curve; only a certifying trace that stops at its return
    before it closes is followed by a separate closing trace from the
    root.  Traces stop at ``known_umbilics``; a :class:`SearchLog` passed
    as ``log`` receives the steps of every trace and the dropped seeds.
    """
    log = log if log is not None else SearchLog()
    merge_tol = _CYCLE_MERGE_FACTOR * surface.diameter()
    cycles = []
    for seed in seeds:
        cyc, reason = _cycle_from_seed(surface, seed, foliation_id,
                                       known_umbilics, log)
        if cyc is not None and _is_duplicate(cyc, cycles, merge_tol):
            reason = DUPLICATE_SEED
        if reason is not None:
            log.dropped.append((foliation_id, tuple(map(float, seed)),
                                reason))
            continue
        cycles.append(attach_estimates(surface, cyc, log, known_umbilics))
    return cycles


def _cycle_from_seed(surface, seed, foliation_id, known_umbilics, log):
    """(cycle, None) from a seed, or (None, why the seed was dropped)."""
    diam = surface.diameter()
    try:
        anchor = _Anchor(surface, seed, foliation_id, log=log,
                         known_umbilics=known_umbilics)
    except SEED_FAILURES as exc:
        return None, f"no anchor: {type(exc).__name__}: {exc}"
    tol = _NEWTON_TOL_FACTOR * diam
    step_cap = _MAX_SECANT_STEP_FACTOR * diam
    tight_trace = None       # of the last certifying (tight) evaluation

    def G(h, tight=False):
        nonlocal tight_trace
        w_start, hit, traj = _return_offsets(
            anchor, h, tol=_TRACE_TOL if tight else _SEARCH_TOL,
            detect_closure=tight)
        if tight:
            tight_trace = traj
        return hit - w_start

    try:
        g = G(0.0)
    except ReturnFailure as exc:
        return None, f"no first return: {exc}"
    h = _secant_root(G, 0.0, g, tol, step_cap, diam, _MAX_NEWTON)
    if h is None:
        h = _bracket_root(G, 0.0, g, tol, diam)
    if h is None:
        return None, "no root of the return displacement"

    # a root is returned right after its certifying evaluation
    closed = tight_trace
    if closed.termination != TERM_CLOSED:
        # it stopped at its return before closing: trace on from the root,
        # headed like the certifying trace
        closed = log.count(trace(
            surface, anchor.start_info(h)[0], foliation_id, TraceOptions(
                rel_tol=_TRACE_TOL, detect_closure=True,
                max_length=_MAX_PERIOD_FACTOR * diam,
                known_umbilics=known_umbilics), anchor.t0))
    if closed.termination != TERM_CLOSED:
        return None, f"closing trace ended {closed.termination}"
    return cycle_from_closed_trajectory(surface, closed), None


def _secant_root(G, h0, g0, tol, step_cap, diam, max_iter):
    """Secant iteration with certified (tight-trace) convergence."""
    h, g = h0, g0
    h_prev, g_prev = None, None
    for _ in range(max_iter):
        if abs(g) < 100.0 * tol:
            # search-quality residuals bottom out at the loose trace
            # tolerance; certify with a derivative-quality evaluation
            try:
                g_tight = G(h, tight=True)
            except ReturnFailure:
                return None
            if abs(g_tight) < tol:
                return h
            g = g_tight
        if h_prev is None:
            h_new = h - 0.5 * g
        else:
            denom = g - g_prev
            if denom == 0.0:
                return None
            delta = -g * (h - h_prev) / denom
            if not np.isfinite(delta):
                return None
            h_new = h + float(np.clip(delta, -step_cap, step_cap))
        if abs(h_new) > 2.0 * diam:
            return None
        h_prev, g_prev = h, g
        h = h_new
        try:
            g = G(h)
        except ReturnFailure:
            return None
    return None


def _bracket_root(G, h0, g0, tol, diam):
    """Scan the section for a sign change of G, bisect, secant-polish."""
    offsets = [h0]
    values = [g0]
    step = _BRACKET_SPAN_FACTOR * diam / _BRACKET_PROBES
    for k in range(1, _BRACKET_PROBES + 1):
        for sign in (1.0, -1.0):
            h = h0 + sign * k * step
            try:
                values.append(G(h))
                offsets.append(h)
            except ReturnFailure:
                continue
    order = np.argsort(offsets)
    hs = np.asarray(offsets)[order]
    gs = np.asarray(values)[order]
    bracket = None
    for i in range(len(hs) - 1):
        if gs[i] * gs[i + 1] < 0.0:
            bracket = (hs[i], gs[i], hs[i + 1], gs[i + 1])
            break
    if bracket is None:
        return None
    lo, g_lo, hi, g_hi = bracket
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        try:
            g_mid = G(mid)
        except ReturnFailure:
            return None
        if g_mid == 0.0:
            lo, g_lo = mid, g_mid
            break
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return _secant_root(G, lo, g_lo, tol, abs(hi - lo) + 1e-12, diam, 10)


def cycle_from_closed_trajectory(surface, traj):
    if traj.termination != TERM_CLOSED:
        raise ValueError("trajectory is not Closed")
    anchor = _Anchor(surface, traj.points_uv[0], traj.foliation_id,
                     traj.tangents[0])
    return PrincipalCycle(
        foliation_id=traj.foliation_id,
        curve=traj,
        period_length=float(traj.closed_length),
        anchor_uv=anchor.uv,
        anchor_xyz=anchor.p0,
        tangent=anchor.t0,
        conormal=anchor.w0)


def _is_duplicate(cycle, earlier, merge_tol):
    """Whether the curve of ``cycle`` lies within ``merge_tol`` of the curve
    of an ``earlier`` cycle: every vertex of each polyline within it of the
    other's segments."""
    p = cycle.curve.points_xyz
    return any(max(float(segment_distances(q, p).max()),
                   float(segment_distances(p, q).max())) < merge_tol
               for q in (c.curve.points_xyz for c in earlier))


# ---------------------------------------------------------------------------
# estimator 1: finite differences on the return map
# ---------------------------------------------------------------------------

def return_map_derivative_fd(surface, cycle, h=None, log=None,
                             known_umbilics=()):
    """Central difference of the return map, Richardson extrapolated over
    h and h/2.  Differences run over the section coordinates measured at
    the start points (the offsets up to the Newton tolerance).  Four
    traces, T(±h) and T(±h/2), each to its first return; ``h`` defaults
    to ``_FD_OFFSET_FACTOR``·diam.  Returns (value, error_estimate); the
    traces stop at ``known_umbilics`` and put their steps in ``log``."""
    diam = surface.diameter()
    if h is None:
        h = _FD_OFFSET_FACTOR * diam
    anchor = _Anchor(surface, cycle.anchor_uv, cycle.foliation_id,
                     cycle.tangent, log, known_umbilics)

    def central(x):
        w_p, r_p, _ = _return_offsets(anchor, x)
        w_m, r_m, _ = _return_offsets(anchor, -x)
        return (r_p - r_m) / (w_p - w_m)

    d_h = central(h)
    d_h2 = central(0.5 * h)
    value = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    return value, err


# ---------------------------------------------------------------------------
# estimator 2: closed line integrals
# ---------------------------------------------------------------------------

def return_map_derivative_integral(surface, cycle, quadrature_points=1024):
    """Both line-integral variants of log T' along the refined cycle.

    Samples the closed curve at ``quadrature_points`` points uniform in
    arclength, each on the cubic Hermite of the traced step that holds it
    (:func:`foliation.resample_line`): over a step of length h its chart
    state is O(h^4) and its slope O(h^3) off the integrated line.  The
    analytic curvature gradients at the samples go into the trapezoid
    rule, the mean times the length on a closed curve.  Raises
    UmbilicProximityError if sqrt(H^2 - K) dips below the floor
    (``_CURVATURE_FLOOR_REL``) and ConvergenceError if a recorded point
    has no finite line field or the two variants disagree beyond 1e-4.
    """
    traj = cycle.curve
    total = traj.length
    if total <= 0:
        raise ConvergenceError("cycle has zero length")
    sq = np.linspace(0.0, total, quadrature_points, endpoint=False)
    (uq, vq), (up, vp) = (a.T for a in resample_line(surface, traj, sq))

    grads = curvature_gradients(surface, uq, vq)
    disc = grads["sqrt_disc"]
    kappa = np.max(np.abs(grads["H"]) + disc)
    floor = _CURVATURE_FLOOR_REL * max(float(kappa), 1e-12)
    if np.min(disc) < floor:
        raise UmbilicProximityError(
            f"sqrt(H^2-K) reaches {float(np.min(disc)):.3e} along cycle")

    dH_ds = grads["H_u"] * up + grads["H_v"] * vp
    dk2_ds = grads["k2_u"] * up + grads["k2_v"] * vp
    integrand_dH = dH_ds / disc
    integrand_dk2 = dk2_ds / (2.0 * disc)

    log_dH = 0.5 * float(np.mean(integrand_dH) * total)
    log_dk2 = float(np.mean(integrand_dk2) * total)
    if abs(log_dH - log_dk2) > 1e-4 * max(1.0, abs(log_dH)):
        raise ConvergenceError(
            f"integral variants disagree: {log_dH:.6e} vs {log_dk2:.6e}")
    return log_dH, log_dk2


# ---------------------------------------------------------------------------
# assembly and verdicts
# ---------------------------------------------------------------------------

def attach_estimates(surface, cycle, log=None, known_umbilics=()):
    """Populate both T' estimators, the sign branch and the verdict; the
    arguments pass on to :func:`return_map_derivative_fd`."""
    meta = dict(cycle.meta)
    try:
        fd, fd_err = return_map_derivative_fd(
            surface, cycle, log=log, known_umbilics=known_umbilics)
    except ReturnFailure as exc:
        meta["fd_failure"] = str(exc)
        fd, fd_err = None, None
    try:
        log_dH, log_dk2 = return_map_derivative_integral(surface, cycle)
    except (UmbilicProximityError, ConvergenceError) as exc:
        meta["integral_failure"] = str(exc)
        log_dH = log_dk2 = None

    sign_branch = None
    tprime_integral = None
    if log_dH is not None:
        magnitude = 0.5 * (log_dH + log_dk2)
        if fd is not None and fd > 0:
            log_fd = math.log(fd)
            sign_branch = 1 if abs(log_fd - magnitude) <= \
                abs(log_fd + magnitude) else -1
        else:
            sign_branch = 1
        tprime_integral = math.exp(sign_branch * magnitude)

    cyc = replace(cycle, tprime_fd=fd, tprime_fd_error=fd_err,
                  tprime_integral=tprime_integral,
                  log_integral_dH=log_dH, log_integral_dk2=log_dk2,
                  sign_branch=sign_branch, meta=meta)
    verdict = hyperbolicity(cyc)
    return replace(cyc, hyperbolic=(verdict == "hyperbolic"),
                   hyperbolic_tol=_HYPERBOLICITY_TOL)


def hyperbolicity(cycle):
    """"hyperbolic" iff |log T'| > ``_HYPERBOLICITY_TOL`` for the better
    estimator, else "NearUnity"; "unknown" when no estimator converged."""
    candidates = []
    if cycle.tprime_fd is not None and cycle.tprime_fd > 0:
        err = cycle.tprime_fd_error or 0.0
        candidates.append((err / max(cycle.tprime_fd, 1e-300),
                           abs(math.log(cycle.tprime_fd))))
    if cycle.tprime_integral is not None:
        candidates.append((1e-8, abs(math.log(cycle.tprime_integral))))
    if not candidates:
        return "unknown"
    candidates.sort()
    _, best = candidates[0]
    return "hyperbolic" if best > _HYPERBOLICITY_TOL else "NearUnity"
