"""Principal line-field integration and limit-behavior classification.

Principal foliations are line fields: the eigendirection has no global
sign.  Every principal line of the package is integrated here, by an
embedded Dormand-Prince pair under one step control: :func:`trace` runs
one line on DP5(4), :func:`trace_lanes` the lines of a chart in lockstep
on the pair its caller names.  The separatrix connection scan launches
on DOP853, the eighth-order pair, which at its tight tolerances takes
fewer than half of DP5(4)'s steps, and follows the leaves through the
umbilic balls on DP5(4).  The eigen-sign is transported along the curve
(each stage picks the sign that maximizes the dot product with the
tangent at the step start), which lets a single trajectory pass through
regions where no consistent global orientation exists.  Both tracers
fold a chart start onto the surface's sheet (the chart's ``fold``), so
minimal and maximal are the surface's labels, and neither hands a line
off at a pole.  Section crossings and the closure onto the start are
located on the Hermite interpolant of the accepted step that holds them,
and :func:`resample_line` samples a traced chart line on the same cubics.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, RegularityError, TransversalityError
from . import geometry
from .geometry import MAXIMAL, MINIMAL, ImplicitSurface, _dot

TERM_CLOSED = "Closed"
TERM_HIT_UMBILIC = "HitUmbilic"
TERM_DOMAIN_EXIT = "DomainExit"
TERM_MAX_LENGTH = "MaxLength"
TERM_STEP_FAILURE = "StepFailure"


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

class DomainSection:
    """Closed transversal curve {coordinate == value} in chart coordinates.

    ``axis`` is "u" or "v"; the crossing coordinate is the other chart
    coordinate as a fraction of its 2 pi period.
    """

    def __init__(self, section_id, axis, value):
        self.section_id = section_id
        self.axis = axis
        self.value = float(value)
        self._idx = 0 if axis == "u" else 1

    def offset(self, uv, xyz):
        d = uv[self._idx] - self.value
        return (d + math.pi) % (2 * math.pi) - math.pi

    def coordinate(self, uv, xyz):
        other = uv[1 - self._idx]
        return (other / (2 * math.pi)) % 1.0


class WorldPlaneSection:
    """Plane cut {normal . p == offset}; coordinate is the polar angle of
    the projection onto the two in-plane reference axes."""

    def __init__(self, section_id, normal, offset=0.0, axes=None):
        self.section_id = section_id
        n = np.asarray(normal, dtype=float)
        n = n / np.linalg.norm(n)
        self.normal = tuple(n.tolist())
        self.offset_value = float(offset)
        if axes is None:
            t1, t2 = _plane_basis(n)
        else:
            t1 = np.asarray(axes[0], dtype=float)
            t2 = np.asarray(axes[1], dtype=float)
        self.ax1, self.ax2 = t1, t2

    def offset(self, uv, xyz):
        return float(_dot(self.normal, xyz) - self.offset_value)

    def coordinate(self, uv, xyz):
        ang = math.atan2(float(np.dot(xyz, self.ax2)),
                         float(np.dot(xyz, self.ax1)))
        return (ang / (2 * math.pi)) % 1.0


class DiscSection(WorldPlaneSection):
    """Disc of ``radius`` about ``center`` in the plane through it normal to
    ``normal``: a local Poincare section.  The trace neither records nor
    counts a crossing outside the disc, or within ``skip`` of arclength from
    the start (the start leaving the section it lies on)."""

    def __init__(self, section_id, center, normal, radius, skip):
        super().__init__(section_id, normal, float(np.dot(normal, center)))
        self.center, self.radius, self.skip = center, radius, skip

    def keeps(self, crossing):
        return (crossing.arclength >= self.skip and np.linalg.norm(
            crossing.xyz - self.center) <= self.radius)

    def may_keep(self, p_old, p_new, s_last, h):
        """False when no crossing inside a step of length ``h`` from
        ``p_old`` to ``p_new`` can be kept: ``s_last``, the largest
        arclength a crossing located in the step can have, is below
        ``skip``, or both ends lie farther than radius + h from the centre
        (a crossing lies within about h / 2 of one end).  The tracer then
        does not locate the crossing."""
        far = self.radius + h
        return s_last >= self.skip and (
            np.linalg.norm(p_old - self.center) <= far
            or np.linalg.norm(p_new - self.center) <= far)


def _plane_basis(n):
    k = int(np.argmin(np.abs(n)))
    seed = np.zeros(3)
    seed[k] = 1.0
    t1 = seed - np.dot(seed, n) * n
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(n, t1)


@dataclass(frozen=True)
class SectionCrossing:
    section_id: str
    coordinate: float        # arclength/angle fraction in [0, 1)
    direction: int           # sign of d(offset)/ds at the crossing
    arclength: float
    xyz: np.ndarray = None


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    foliation_id: str
    points_uv: np.ndarray        # (N, 2) unwrapped chart coords (or xyz copy)
    points_xyz: np.ndarray       # (N, 3)
    tangents: np.ndarray         # (N, 3) unit world tangents
    normals: np.ndarray          # (N, 3) unit surface normals
    arclength: np.ndarray        # (N,) cumulative, equals the ODE parameter
    termination: str
    crossings: list = field(default_factory=list)
    hit_umbilic_index: int | None = None
    closed_length: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def length(self):
        return float(self.arclength[-1]) if len(self.arclength) else 0.0


@dataclass(frozen=True)
class TraceOptions:
    rel_tol: float = 1e-8
    max_step_factor: float = 0.04        # times surface diameter
    max_length: float | None = None      # default 50 * diameter
    known_umbilics: Sequence = ()
    exclusion_radius_factor: float = 1e-3
    detect_closure: bool = True
    sections: tuple = ()
    max_crossings: int | None = None     # stop at this many kept crossings
    precise_crossings: bool = False


# tracer constants; lengths are in units of the surface diameter
_MIN_STEP = 1e-12             # a shorter step fails the trace
_MAX_STEPS = 400000           # steps tried per line
# A trace closes where it crosses the plane through its start normal to
# its start tangent, within _CLOSURE_TOL of the start point and 0.5 deg of
# the start tangent, after _CLOSURE_MIN_LENGTH of arclength.  The crossing
# is located only when its linear estimate lies within _CLOSURE_CAPTURE.
_CLOSURE_TOL = 1e-5
_CLOSURE_COS = math.cos(math.radians(0.5))
_CLOSURE_CAPTURE = 0.02
_CLOSURE_MIN_LENGTH = 2e-2
_BISECTIONS = 40             # per crossing or closure, see _bisect_step
_T_LAST = 1.0 - 0.5 ** (_BISECTIONS + 1)   # the largest fraction it returns


@dataclass(frozen=True)
class _Pair:
    """An embedded explicit Runge-Kutta pair whose last stage sits at the
    step's end point (first same as last): row i of ``a`` weighs the
    stages of stage i's state, so its last row holds the solution weights
    and the last stage is the field at the end, the next step's first.
    ``e`` gives the error of the state; with a second error row ``e3``
    the error is Hairer's |e|^2 / sqrt(|e|^2 + 0.01 |e3|^2) (DOP853).
    The step control scales h by (tol / err) ** ``exponent``; as the
    tolerance is per unit step, the exponent is one over the estimate's
    order in h less one."""
    a: np.ndarray
    e: np.ndarray
    e3: np.ndarray | None
    exponent: float


def _weights(n, entries):
    """A length-n weight vector from {column: weight}."""
    w = np.zeros(n)
    for j, x in entries.items():
        w[j] = x
    return w


# Dormand-Prince 5(4): the last row is y5, and e gives y5 - y4
_DP_AM = np.array([row + [0.0] * (7 - len(row)) for row in [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]])
_DP54 = _Pair(_DP_AM, _DP_AM[6] - np.array([
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
    187 / 2100, 1 / 40]), None, 0.25)

# Dormand-Prince 8(5,3), the pair of Hairer's DOP853 code (Hairer, Norsett
# & Wanner, Solving ODEs I): 12 stages plus the end point, a solution of
# order 8, and e and e3 against embedded solutions of orders 5 and 3; the
# combined estimate is of order 8 in h, so the exponent is 1/7
_DOP853_AM = np.array([_weights(13, row) for row in [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2,
     3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
]])
_DOP853 = _Pair(
    _DOP853_AM,
    _weights(13, {
        0: 0.1312004499419488073250102996e-1,
        5: -0.1225156446376204440720569753e+1,
        6: -0.4957589496572501915214079952,
        7: 0.1664377182454986536961530415e+1,
        8: -0.3503288487499736816886487290,
        9: 0.3341791187130174790297318841,
        10: 0.8192320648511571246570742613e-1,
        11: -0.2235530786388629525884427845e-1,
    }),
    # the solution less the third-order weights
    _DOP853_AM[12] - _weights(13, {
        0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1,
    }),
    1 / 7)

# the DP5(4) weights as python floats for the scalar tracer's step: _Aij
# weighs stage j in stage i's state (row 7 is y5), _Ej stage j in the
# error.  The two zero weights, a72 and e2, are left out of the sums
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65),
 (_A71, _, _A73, _A74, _A75, _A76)) = (
    tuple(row[:i]) for i, row in enumerate(_DP54.a.tolist()))
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP54.e.tolist()


# direction-field sample: state velocity plus world data, float tuples
_FieldEval = namedtuple("_FieldEval", "vel xyz tangent normal")


def _chart_field(surface, foliation_id, meta):
    """The line field of a chart at float pairs ``y``, signed along
    ``ref``.  Each call adds one to ``meta["evals"]`` before the kernel
    runs, so a call that raises is counted too."""
    minimal = foliation_id == MINIMAL

    def f(y, ref):
        meta["evals"] += 1
        duv, r, dxyz, n = geometry.principal_direction_fast(
            surface, y[0], y[1], minimal)
        if ref is not None and _dot(dxyz, ref) < 0.0:
            duv = (-duv[0], -duv[1])
            dxyz = (-dxyz[0], -dxyz[1], -dxyz[2])
        return _FieldEval(duv, r, dxyz, n)

    return f


def _implicit_field(surface, foliation_id, meta):
    """The line field of a level set at float triples ``p``: only the
    traced direction is formed, from :func:`geometry.implicit_frame`,
    with the arithmetic of :func:`geometry.implicit_bundle`, whose
    ``d1_xyz`` or ``d2_xyz`` it equals bit for bit.  Counted in
    ``meta["evals"]`` as :func:`_chart_field` is."""
    minimal = foliation_id == MINIMAL

    def f(p, ref):
        meta["evals"] += 1
        n, (tx, ty, tz), (bx, by, bz), (w11, w12, w22) = \
            geometry.implicit_frame(surface, p)
        # geometry.principal_angle; (c, s) is the minimal direction and
        # (-s, c) the maximal one, as in geometry.principal_direction_uv
        phi = 0.5 * math.atan2(-2.0 * w12, w22 - w11)
        c, s = math.cos(phi), math.sin(phi)
        if not minimal:
            c, s = -s, c
        d = (c * tx + s * bx, c * ty + s * by, c * tz + s * bz)
        if ref is not None and _dot(d, ref) < 0.0:
            d = (-d[0], -d[1], -d[2])
        return _FieldEval(d, p, d, n)

    return f


def _dot3(a, b):
    """Dot product over the last axis (length 3), summed left to right."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2])


def trace(surface, start, foliation_id, opts=None, heading=None):
    """Integrate one principal line from ``start``.

    ``start`` is a chart point (u, v) for charts, or a world point for
    implicit surfaces (projected onto the level set first; a start that
    does not project raises ConvergenceError).  A chart start is folded
    onto the surface's sheet (the chart's ``fold``), so ``foliation_id``
    names the surface's foliation; no line is handed off at a pole.  The
    line sets out along ``heading`` (a world vector: the line-field sign
    at the start is the one pointing along it, as in :func:`trace_lanes`)
    or, without a heading, with the field's own sign at the start.
    Termination, section crossings and closure refinement follow the
    options record; results are deterministic for fixed options.  ``meta``
    counts the Dormand-Prince steps tried (``steps``) and the line-field
    evaluations (``evals``).
    """
    if foliation_id not in (MINIMAL, MAXIMAL):
        raise ValueError(f"unknown foliation id {foliation_id!r}")
    implicit = isinstance(surface, ImplicitSurface)
    y0 = np.asarray(start, dtype=float)
    if implicit:
        y0 = surface.project(y0)
    y0 = tuple(y0.tolist())
    if hasattr(surface, "fold"):
        y0 = surface.fold(*y0)
    if heading is not None:
        heading = tuple(np.asarray(heading, dtype=float).tolist())
    return _trace_core(surface, y0, foliation_id, opts or TraceOptions(),
                       implicit, heading)


def _trace_core(surface, y0, foliation_id, opts, implicit, heading):
    """The stepping loop of :func:`trace`.  The state ``y0`` (a float
    tuple), every field sample and every stage state are python floats;
    the records become arrays once, in the Trajectory."""
    diam = surface.diameter()
    meta = {"steps": 0, "evals": 0}
    fld = (_implicit_field if implicit else _chart_field)(surface,
                                                          foliation_id, meta)
    dp_step = _dp_step_xyz if implicit else _dp_step_uv
    # the world point of a state, all that crossing refinement needs
    locate = ((lambda y: y) if implicit
              else (lambda y: surface.point(y[0], y[1])))
    sections = [(sec, getattr(sec, "keeps", None)) for sec in opts.sections]
    max_len = opts.max_length if opts.max_length is not None else 50.0 * diam
    h_max = opts.max_step_factor * diam
    h_min = _MIN_STEP * diam
    excl = opts.exclusion_radius_factor * diam
    umb_pts = [tuple(p) for p in _umbilic_points(opts.known_umbilics).tolist()]

    y = y0
    ev = fld(y, heading)
    p0, t0 = ev.xyz, ev.tangent

    ys, ps, ts, ns, ss = [y], [ev.xyz], [ev.tangent], [ev.normal], [0.0]
    crossings = []
    sec_offsets = [sec.offset(y, ev.xyz) for sec in opts.sections]

    termination = TERM_MAX_LENGTH
    hit_idx = None
    closed_len = None
    s = 0.0
    h = min(1e-3 * diam, h_max)
    k1 = ev
    steps = 0
    rejected_in_row = 0

    while steps < _MAX_STEPS:
        steps += 1
        if s + h > max_len:
            h = max_len - s
            if h <= h_min:
                termination = TERM_MAX_LENGTH
                break
        try:
            y5, err, stages = dp_step(fld, y, k1, h)
            tol = opts.rel_tol * max(h, 1e-3 * h_max)
            err_world = _world_err(err, stages[0])
            accept = math.isfinite(err_world) and err_world <= tol
            # re-project only once the state has drifted off the level set
            proj = (tuple(surface.project(y5).tolist())
                    if implicit and accept
                    and abs(surface.value(y5)) > 1e-9 * diam else None)
        except (FloatingPointError, RegularityError, ConvergenceError):
            # a stage landed on a chart singularity, or the step's end does
            # not project onto the level set; shorter steps dodge it unless
            # the path runs exactly through the point
            h *= 0.25
            if h < h_min:
                termination = TERM_STEP_FAILURE
                break
            continue
        if not accept:
            h = max(h * max(0.2, 0.9 * (tol / max(err_world, 1e-300))
                            ** _DP54.exponent), h_min * 1.01)
            rejected_in_row += 1
            if rejected_in_row > 60 or h <= h_min * 1.02:
                termination = TERM_STEP_FAILURE
                break
            continue
        rejected_in_row = 0

        ref = stages[0].tangent
        # the last Dormand-Prince stage sits at y5 with the same sign
        # reference (first same as last), so it is the field there
        y_new, k_new = y5, stages[-1]
        if proj is not None:
            y_new = proj
            k_new = fld(y_new, ref)

        s_new = s + h
        p_new = k_new.xyz
        step = (y, k1, y5, stages[-1], h, s)

        # section crossings
        stop_on_crossings = False
        for i, (sec, keeps) in enumerate(sections):
            g_old = sec_offsets[i]
            g_new = sec.offset(y_new, p_new)
            if (g_old * g_new < 0.0 and abs(g_old) + abs(g_new) < math.pi
                    and (keeps is None or sec.may_keep(
                        ps[-1], p_new, s + h * _T_LAST, h))):
                cross = _refine_crossing(sec, fld, locate, step, g_old,
                                         g_new, opts)
                if keeps is None or keeps(cross):
                    crossings.append(cross)
                    if (opts.max_crossings is not None
                            and len(crossings) >= opts.max_crossings):
                        stop_on_crossings = True
            sec_offsets[i] = g_new

        # umbilic exclusion: the first nearest known umbilic
        if umb_pts:
            d = [_norm(_sub(q, p_new)) for q in umb_pts]
            j = d.index(min(d))
            if d[j] < excl:
                termination = TERM_HIT_UMBILIC
                hit_idx = j
                _append(ys, ps, ts, ns, ss, y_new, k_new, s_new)
                break

        # closure against the start section
        if opts.detect_closure and s_new > _CLOSURE_MIN_LENGTH * diam:
            p_old = ps[-1]
            g0_old = _dot(_sub(p_old, p0), t0)
            g0_new = _dot(_sub(p_new, p0), t0)
            if g0_old < 0.0 <= g0_new:
                t_lin = g0_old / (g0_old - g0_new)
                p_lin = tuple(a + t_lin * (b - a)
                              for a, b in zip(p_old, p_new))
                if _norm(_sub(p_lin, p0)) < _CLOSURE_CAPTURE * diam:
                    t_c, _ = _bisect_step(
                        step,
                        lambda _y, p: float(np.dot(np.subtract(p, p0), t0)),
                        locate, g0_old)
                    y_c, ev_c = _restep(fld, step, t_c)
                    dist = _norm(_sub(ev_c.xyz, p0))
                    align = _dot(ev_c.tangent, t0)
                    if dist < _CLOSURE_TOL * diam and align > _CLOSURE_COS:
                        closed_len = s + h * t_c
                        _append(ys, ps, ts, ns, ss, y_c, ev_c, closed_len)
                        termination = TERM_CLOSED
                        break

        # exit from the chart domain or the implicit surface's box
        if not (surface.in_box(p_new) if implicit
                else surface.in_domain(y_new[0], y_new[1])):
            _append(ys, ps, ts, ns, ss, y_new, k_new, s_new)
            termination = TERM_DOMAIN_EXIT
            break

        _append(ys, ps, ts, ns, ss, y_new, k_new, s_new)
        y, k1, s = y_new, k_new, s_new
        if stop_on_crossings:
            termination = TERM_MAX_LENGTH
            break
        if s >= max_len:
            termination = TERM_MAX_LENGTH
            break
        h = min(h * min(4.0, 0.9 * (tol / max(err_world, 1e-300))
                        ** _DP54.exponent), h_max)

    meta["steps"] = steps
    return Trajectory(
        foliation_id=foliation_id,
        points_uv=np.array(ys, dtype=float),
        points_xyz=np.array(ps, dtype=float),
        tangents=np.array(ts, dtype=float),
        normals=np.array(ns, dtype=float),
        arclength=np.array(ss, dtype=float),
        termination=termination,
        crossings=crossings,
        hit_umbilic_index=hit_idx,
        closed_length=closed_len,
        meta=meta,
    )


def trace_lanes(surface, starts, foliation_id, opts=None, headings=None,
                rel_tol=None, pair=_DP54):
    """Integrate N principal lines of a chart in lockstep, one per lane.

    ``starts`` holds N chart points (u, v).  ``foliation_id`` is one
    foliation for every lane or a sequence of one per lane.  Lane i sets
    out along ``headings[i]`` (a world vector: the line-field sign is the
    one pointing along it) or, without headings, with the field's own
    sign at its start.  ``rel_tol`` is one value or one per lane and
    defaults to ``opts.rel_tol``.  Every other option is shared.

    Each lane runs the step-size control of :func:`trace` with its own
    step size, acceptance and rejection, eigen-sign transport and
    termination (``_MAX_STEPS`` at most).  The step is that of ``pair``:
    ``_DP54``, the Dormand-Prince 5(4) pair of :func:`trace`, or
    ``_DOP853``, the eighth-order pair, which takes fewer evaluations at
    tight tolerances; the pair also sets the controller's exponent.  Options
    honoured: ``rel_tol``, ``max_step_factor``, ``max_length``,
    ``known_umbilics`` with ``exclusion_radius_factor`` (HitUmbilic), plus
    domain exit; the starts are folded as in :func:`trace`, and no lane is
    handed off at a pole.  Sections and closure detection are not
    implemented: ``opts.sections`` must be empty and ``opts.detect_closure``
    False, or ValueError is raised (so ``max_crossings`` and
    ``precise_crossings`` have nothing to act on).
    A lane whose start is not a regular chart point ends at once with
    StepFailure.  The field comes from batched :func:`_lane_field` calls,
    which form only each lane's own principal direction and evaluate
    their points independently, so a lane's trajectory does not depend on
    the other lanes in its batch.  Returns one Trajectory per lane;
    ``meta["evals"]`` counts the points the lane evaluated: one at the
    start and, per step tried, one per stage after the first (6 for
    DP5(4), 12 for DOP853), and nothing more.
    """
    opts = opts or TraceOptions()
    if isinstance(surface, ImplicitSurface):
        raise ValueError("trace_lanes runs on chart surfaces only")
    if opts.sections or opts.detect_closure:
        raise ValueError("trace_lanes implements neither sections nor "
                         "closure detection")
    y = np.array(starts, dtype=float).reshape(-1, 2)
    if hasattr(surface, "fold"):
        y = np.array([surface.fold(*uv) for uv in y.tolist()]).reshape(-1, 2)
    m = len(y)
    fols = ([foliation_id] * m if isinstance(foliation_id, str)
            else list(foliation_id))
    if len(fols) != m or any(f not in (MINIMAL, MAXIMAL) for f in fols):
        raise ValueError(f"need one known foliation id per lane: {fols!r}")
    minimal = np.array([f == MINIMAL for f in fols], dtype=bool)
    rtol = np.broadcast_to(np.asarray(
        opts.rel_tol if rel_tol is None else rel_tol, dtype=float), (m,))

    diam = surface.diameter()
    max_len = opts.max_length if opts.max_length is not None else 50.0 * diam
    h_max = opts.max_step_factor * diam
    h_min = _MIN_STEP * diam
    excl = opts.exclusion_radius_factor * diam
    umb_pts = _umbilic_points(opts.known_umbilics)
    (u0, u1), (v0, v1) = surface.domain

    vel, p, tan, nrm = _lane_field(
        surface, y, minimal, None if headings is None
        else np.asarray(headings, dtype=float).reshape(-1, 3))

    # one block of rows per accepting iteration: (lanes, uv, xyz, tangent,
    # normal, arclength), split per lane at the end.  The state arrays are
    # updated in place, so the start block holds copies
    rec = [(np.arange(m), y.copy(), p.copy(), tan.copy(), nrm.copy(),
            np.zeros(m))]
    term = [TERM_MAX_LENGTH] * m
    hit = [None] * m
    s = np.zeros(m)
    h = np.full(m, min(1e-3 * diam, h_max))
    steps = np.zeros(m, dtype=int)
    evals = np.ones(m, dtype=int)
    rejected = np.zeros(m, dtype=int)
    active = np.all(np.isfinite(vel), axis=1) & np.all(np.isfinite(tan),
                                                        axis=1)
    for i in np.flatnonzero(~active):
        term[i] = TERM_STEP_FAILURE

    def stop(lanes, why):
        active[lanes] = False
        for i in lanes:
            term[i] = why

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while True:
            idx = np.flatnonzero(active & (steps < _MAX_STEPS))
            active[np.flatnonzero(active & (steps >= _MAX_STEPS))] = False
            if not len(idx):
                break
            steps[idx] += 1
            over = s[idx] + h[idx] > max_len
            h[idx[over]] = max_len - s[idx[over]]
            short = over & (h[idx] <= h_min)
            stop(idx[short], TERM_MAX_LENGTH)
            idx = idx[~short]
            if not len(idx):
                continue

            evals[idx] += len(pair.a) - 1
            hh, mi, ref = h[idx], minimal[idx], tan[idx]
            y_end, err, last, failed = _lane_step(
                pair, lambda yi: _lane_field(surface, yi, mi, ref),
                y[idx], vel[idx], hh)
            tol = rtol[idx] * np.maximum(hh, 1e-3 * h_max)
            err = err * (np.linalg.norm(ref, axis=1)
                         / np.maximum(np.linalg.norm(vel[idx], axis=1),
                                      1e-300))
            ratio = tol / np.maximum(err, 1e-300)
            reject = ~failed & ~(np.isfinite(err) & (err <= tol))
            accept = ~failed & ~reject

            # a stage on a chart singularity: shorter steps dodge it
            lanes = idx[failed]
            h[lanes] *= 0.25
            stop(lanes[h[lanes] < h_min], TERM_STEP_FAILURE)
            lanes = idx[reject]
            h[lanes] = np.maximum(h[lanes] * np.fmax(
                0.2, 0.9 * ratio[reject] ** pair.exponent), h_min * 1.01)
            rejected[lanes] += 1
            stop(lanes[(rejected[lanes] > 60) | (h[lanes] <= h_min * 1.02)],
                 TERM_STEP_FAILURE)
            if not accept.any():
                continue

            lanes = idx[accept]
            rejected[lanes] = 0
            # the last stage sits at the end point with the same sign
            # reference (first same as last), so it is the field there
            y_new = y_end[accept]
            k_new = [x[accept] for x in last]
            s_new = s[lanes] + hh[accept]
            ends = np.zeros(len(lanes), dtype=bool)
            if len(umb_pts):
                d = np.linalg.norm(umb_pts[None, :, :] - k_new[1][:, None, :],
                                   axis=2)
                near = np.argmin(d, axis=1)
                ends = d[np.arange(len(lanes)), near] < excl
                for k in np.flatnonzero(ends):
                    term[lanes[k]] = TERM_HIT_UMBILIC
                    hit[lanes[k]] = int(near[k])
            exited = np.zeros(len(lanes), dtype=bool)
            if not surface.periodic_u:
                exited |= (y_new[:, 0] < u0) | (y_new[:, 0] > u1)
            if not surface.periodic_v:
                exited |= (y_new[:, 1] < v0) | (y_new[:, 1] > v1)
            for k in np.flatnonzero(exited & ~ends):
                term[lanes[k]] = TERM_DOMAIN_EXIT
            ends |= exited
            active[lanes[ends]] = False

            rec.append((lanes, y_new, *k_new[1:], s_new))
            y[lanes], s[lanes] = y_new, s_new
            vel[lanes], p[lanes], tan[lanes], nrm[lanes] = k_new
            stop(lanes[~ends & (s_new >= max_len)], TERM_MAX_LENGTH)
            h[lanes] = np.minimum(h[lanes] * np.minimum(
                4.0, 0.9 * ratio[accept] ** pair.exponent), h_max)

    lane, *cols = (np.concatenate(c) for c in zip(*rec))
    order = np.argsort(lane, kind="stable")
    cuts = np.cumsum(np.bincount(lane, minlength=m))[:-1]
    ys, ps, ts, ns, ss = (np.split(c[order], cuts) for c in cols)
    return [Trajectory(
        foliation_id=fols[i], points_uv=ys[i], points_xyz=ps[i],
        tangents=ts[i], normals=ns[i], arclength=ss[i],
        termination=term[i], hit_umbilic_index=hit[i],
        meta={"steps": int(steps[i]), "evals": int(evals[i])})
        for i in range(m)]


def _lane_step(pair, fld, y0, vel0, h):
    """One step of ``pair`` for the lanes at states ``y0`` (n, 2), with
    first stages ``vel0`` and step sizes ``h`` (n,).  ``fld(y)`` gives
    the line-field samples at n states, velocities first.  Returns the end
    states, the error norms in state units, the samples at the end (the
    last stage) and which lanes met a non-finite stage."""
    n, hc = len(y0), h[:, None]
    # row i of K holds stage i's velocities, lane after lane; einsum sums
    # each column alone, where BLAS rounds by the lane count
    K = np.zeros((len(pair.a), 2 * n))
    K[0] = vel0.reshape(-1)
    for i in range(1, len(pair.a)):
        y_end = y0 + hc * np.einsum("j,jk", pair.a[i], K).reshape(n, 2)
        last = fld(y_end)
        K[i] = last[0].reshape(-1)
    failed = ~np.all(np.isfinite(K.reshape(len(pair.a), n, 2)), axis=(0, 2))
    err = np.linalg.norm(
        hc * np.einsum("j,jk", pair.e, K).reshape(n, 2), axis=1)
    if pair.e3 is not None:
        err3 = np.linalg.norm(
            hc * np.einsum("j,jk", pair.e3, K).reshape(n, 2), axis=1)
        err = err * (err / np.maximum(np.hypot(err, 0.1 * err3), 1e-300))
    return y_end, err, last, failed


def _lane_field(surface, y, minimal, ref):
    """Line-field samples at chart points ``y`` (M, 2): velocity, point,
    unit tangent and normal, the sign of each lane's direction along its
    row of ``ref`` when given.  Failed points come back as NaN, except the
    point.  The code of :func:`geometry.principal_direction_fast` on
    arrays: :func:`geometry.chart_forms` and the pick of each lane's own
    direction, which equals :func:`geometry.chart_bundle`'s bit for bit."""
    J, n, _, bad, forms = geometry.chart_forms(surface, y[:, 0], y[:, 1])
    w, frame = geometry.frame_operator(*forms)
    vel = np.array(geometry.principal_direction_uv(
        geometry.principal_angle(*w), frame, minimal)).T
    n = np.array(n).T
    if bad.any():
        vel[bad] = np.nan
        n[bad] = np.nan
    r, ru, rv = J[0, 0].T, J[1, 0].T, J[0, 1].T
    tan = vel[:, :1] * ru + vel[:, 1:] * rv
    if ref is not None:
        sign = np.where(_dot3(tan, ref) < 0.0, -1.0, 1.0)[:, None]
        vel, tan = sign * vel, sign * tan
    return vel, r, tan, n


def _append(ys, ps, ts, ns, ss, y, ev, s):
    ys.append(y)
    ps.append(ev.xyz)
    ts.append(ev.tangent)
    ns.append(ev.normal)
    ss.append(s)


def _umbilic_points(known):
    pts = [np.asarray(getattr(item, "xyz", item), dtype=float)
           for item in known or ()]
    return np.asarray(pts) if pts else np.zeros((0, 3))


def _dp_step(fld, y, k1, h):
    """One DP5(4) step from the float tuple ``y``, on the body for its
    size; :func:`_trace_core` picks the body once per trace."""
    return (_dp_step_xyz if len(y) == 3 else _dp_step_uv)(fld, y, k1, h)


def _dp_step_uv(fld, y, k1, h):
    """One DP5(4) step from the chart state ``y``, a float pair: y5, the
    error y5 - y4 (float pairs) and the 7 stages.  The last stage's state
    is y5 (first same as last).  Each component of a stage state is
    y + h·(0.0 + a1·v1 + a2·v2 + ...), summed left to right over the
    row's nonzero weights.  For finite stages that is the left-to-right
    sum over the whole row bit for bit: a partial sum from 0.0 is never
    -0.0, so adding a zero weight's term (+-0.0) leaves it as it is."""
    u, v = y
    ref = k1.tangent
    k1u, k1v = k1.vel
    k2 = fld((u + h * (0.0 + _A21 * k1u),
              v + h * (0.0 + _A21 * k1v)), ref)
    k2u, k2v = k2.vel
    k3 = fld((u + h * (0.0 + _A31 * k1u + _A32 * k2u),
              v + h * (0.0 + _A31 * k1v + _A32 * k2v)), ref)
    k3u, k3v = k3.vel
    k4 = fld((u + h * (0.0 + _A41 * k1u + _A42 * k2u + _A43 * k3u),
              v + h * (0.0 + _A41 * k1v + _A42 * k2v + _A43 * k3v)), ref)
    k4u, k4v = k4.vel
    k5 = fld((u + h * (0.0 + _A51 * k1u + _A52 * k2u + _A53 * k3u
                       + _A54 * k4u),
              v + h * (0.0 + _A51 * k1v + _A52 * k2v + _A53 * k3v
                       + _A54 * k4v)), ref)
    k5u, k5v = k5.vel
    k6 = fld((u + h * (0.0 + _A61 * k1u + _A62 * k2u + _A63 * k3u
                       + _A64 * k4u + _A65 * k5u),
              v + h * (0.0 + _A61 * k1v + _A62 * k2v + _A63 * k3v
                       + _A64 * k4v + _A65 * k5v)), ref)
    k6u, k6v = k6.vel
    y5 = (u + h * (0.0 + _A71 * k1u + _A73 * k3u + _A74 * k4u + _A75 * k5u
                   + _A76 * k6u),
          v + h * (0.0 + _A71 * k1v + _A73 * k3v + _A74 * k4v + _A75 * k5v
                   + _A76 * k6v))
    k7 = fld(y5, ref)
    k7u, k7v = k7.vel
    err = (h * (0.0 + _E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u
                + _E6 * k6u + _E7 * k7u),
           h * (0.0 + _E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v
                + _E6 * k6v + _E7 * k7v))
    return y5, err, [k1, k2, k3, k4, k5, k6, k7]


def _dp_step_xyz(fld, y, k1, h):
    """:func:`_dp_step_uv` for the level-set state ``y``, a float
    triple."""
    px, py, pz = y
    ref = k1.tangent
    k1x, k1y, k1z = k1.vel
    k2 = fld((px + h * (0.0 + _A21 * k1x),
              py + h * (0.0 + _A21 * k1y),
              pz + h * (0.0 + _A21 * k1z)), ref)
    k2x, k2y, k2z = k2.vel
    k3 = fld((px + h * (0.0 + _A31 * k1x + _A32 * k2x),
              py + h * (0.0 + _A31 * k1y + _A32 * k2y),
              pz + h * (0.0 + _A31 * k1z + _A32 * k2z)), ref)
    k3x, k3y, k3z = k3.vel
    k4 = fld((px + h * (0.0 + _A41 * k1x + _A42 * k2x + _A43 * k3x),
              py + h * (0.0 + _A41 * k1y + _A42 * k2y + _A43 * k3y),
              pz + h * (0.0 + _A41 * k1z + _A42 * k2z + _A43 * k3z)), ref)
    k4x, k4y, k4z = k4.vel
    k5 = fld((px + h * (0.0 + _A51 * k1x + _A52 * k2x + _A53 * k3x
                        + _A54 * k4x),
              py + h * (0.0 + _A51 * k1y + _A52 * k2y + _A53 * k3y
                        + _A54 * k4y),
              pz + h * (0.0 + _A51 * k1z + _A52 * k2z + _A53 * k3z
                        + _A54 * k4z)), ref)
    k5x, k5y, k5z = k5.vel
    k6 = fld((px + h * (0.0 + _A61 * k1x + _A62 * k2x + _A63 * k3x
                        + _A64 * k4x + _A65 * k5x),
              py + h * (0.0 + _A61 * k1y + _A62 * k2y + _A63 * k3y
                        + _A64 * k4y + _A65 * k5y),
              pz + h * (0.0 + _A61 * k1z + _A62 * k2z + _A63 * k3z
                        + _A64 * k4z + _A65 * k5z)), ref)
    k6x, k6y, k6z = k6.vel
    y5 = (px + h * (0.0 + _A71 * k1x + _A73 * k3x + _A74 * k4x + _A75 * k5x
                    + _A76 * k6x),
          py + h * (0.0 + _A71 * k1y + _A73 * k3y + _A74 * k4y + _A75 * k5y
                    + _A76 * k6y),
          pz + h * (0.0 + _A71 * k1z + _A73 * k3z + _A74 * k4z + _A75 * k5z
                    + _A76 * k6z))
    k7 = fld(y5, ref)
    k7x, k7y, k7z = k7.vel
    err = (h * (0.0 + _E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x
                + _E6 * k6x + _E7 * k7x),
           h * (0.0 + _E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y
                + _E6 * k6y + _E7 * k7y),
           h * (0.0 + _E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z
                + _E6 * k6z + _E7 * k7z))
    return y5, err, [k1, k2, k3, k4, k5, k6, k7]


def _world_err(err_state, k1):
    if len(err_state) == 3:
        return _norm(err_state)
    # chart state: push the (du, dv) error to world scale via the jacobian
    # hidden in the unit-speed velocity; |a_u|, |a_v| from the tangent
    # decomposition are not stored, so approximate with the velocity norm
    (eu, ev), (du, dv) = err_state, k1.vel
    scale = _norm(k1.tangent) / max(math.sqrt(du * du + dv * dv), 1e-300)
    return math.sqrt(eu * eu + ev * ev) * scale


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _norm(a):
    return math.sqrt(_dot(a, a))


def _hermite(y0, f0, y1, f1, h, t):
    """Cubic Hermite interpolation of the state across one step, on
    arrays; :func:`_bisect_step` runs the same arithmetic on floats."""
    t2, t3 = t * t, t * t * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def resample_line(surface, traj, s):
    """The chart states of the chart trajectory ``traj`` at the
    arclengths ``s`` (m,), from 0 to its length, and their derivatives
    d(u, v)/ds, both (m, 2).  A state lies on the cubic Hermite
    (:func:`_hermite`) of the step that holds it, between the recorded
    points and the line field's velocities there, from one batched
    :func:`_lane_field` call signed along the recorded tangents; the field
    has unit world speed, so a velocity is d(u, v)/ds.  At a recorded
    arclength the state is the recorded point, bit for bit.  A recorded
    point where the field is not finite raises ConvergenceError."""
    y, knots = traj.points_uv, traj.arclength
    f = _lane_field(surface, y, traj.foliation_id == MINIMAL,
                    traj.tangents)[0]
    if not np.all(np.isfinite(f)):
        raise ConvergenceError("line field not finite at a recorded point")
    i = np.clip(np.searchsorted(knots, s, side="right") - 1, 0,
                len(knots) - 2)
    h = (knots[i + 1] - knots[i])[:, None]
    t = (s - knots[i])[:, None] / h
    y0, f0, y1, f1 = y[i], f[i], y[i + 1], f[i + 1]
    slope = (6.0 * t * (1.0 - t) * (y1 - y0) / h
             + (3.0 * t * t - 4.0 * t + 1.0) * f0
             + (3.0 * t * t - 2.0 * t) * f1)
    return _hermite(y0, f0, y1, f1, h, t), slope


def _bisect_step(step, offset, locate, g_old):
    """Locate the sign change of ``offset(y, xyz)`` inside the accepted
    ``step`` = (y_old, k_old, y1, k_end, h, s_old): y1 is the step's
    fifth-order end before any projection and k_end its last
    Dormand-Prince stage, the field at y1.  The bisections run on the
    cubic Hermite interpolant of the state and evaluate only the point
    ``locate(y)``, no field.  Returns the step fraction t in [0, _T_LAST]
    and the interpolant, which maps a fraction to its state (a float
    tuple); a caller that keeps the crossing's state forms it with that.

    The interpolant runs on python floats: the four weights are formed
    once per fraction and each component is combined in the order of
    :func:`_hermite`, so the state equals its array result bit for bit."""
    y_old, k_old, y1, k_end, h, _ = step
    comps = tuple(zip(y_old, k_old.vel, y1, k_end.vel))

    def state(t):
        t2, t3 = t * t, t * t * t
        h00 = 2 * t3 - 3 * t2 + 1
        h10 = (t3 - 2 * t2 + t) * h
        h01 = -2 * t3 + 3 * t2
        h11 = (t3 - t2) * h
        return tuple(h00 * a + h10 * fa + h01 * b + h11 * fb
                     for a, fa, b, fb in comps)

    lo, hi, g_lo = 0.0, 1.0, g_old
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        yt = state(mid)
        xyz = locate(yt)
        g_mid = offset(yt, xyz)
        if g_mid == 0.0:
            return mid, state
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), state


def _restep(fld, step, t):
    """One Dormand-Prince step from the start of ``step`` to the fraction
    ``t`` of its length, for integrator accuracy there: the state and the
    field at it (7 field evaluations)."""
    y_old, k_old, _, _, h, _ = step
    yt, _, _ = _dp_step(fld, y_old, k_old, h * t)
    return yt, fld(yt, k_old.tangent)


def _refine_crossing(sec, fld, locate, step, g_old, g_new, opts):
    """A section crossing inside the accepted ``step`` (see
    :func:`_bisect_step`), re-stepped to when ``opts.precise_crossings``."""
    h, s_old = step[4], step[5]
    t_star, state = _bisect_step(step, sec.offset, locate, g_old)
    if opts.precise_crossings:
        yt, ev = _restep(fld, step, t_star)
        xyz = ev.xyz
    else:
        yt = state(t_star)
        xyz = locate(yt)
    tangent_rate = abs(g_new - g_old) / max(h, 1e-300)
    if tangent_rate < 1e-7:
        raise TransversalityError(
            f"tangential crossing of section {sec.section_id}")
    direction = 1 if g_new > g_old else -1
    return SectionCrossing(
        section_id=sec.section_id,
        coordinate=float(sec.coordinate(yt, xyz)),
        direction=direction,
        arclength=float(s_old + h * t_star),
        xyz=np.asarray(xyz, dtype=float))


# ---------------------------------------------------------------------------
# omega-limit classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaLimitResult:
    verdict: str                 # "Umbilic" | "Cycle" | "RecurrentOrUndetermined"
    recurrent_evidence: bool
    detail: str
    returns: int = 0
    cycle_index: int | None = None


_LATE_FRACTION = 0.3         # of the points, compared with known cycles
_EPSILON_FACTOR = 1e-2       # radius of a recurrence ball, times diam
_MIN_RETURNS = 20            # passes through it for recurrence evidence
_BALL_CANDIDATES = 40        # ball centres tried on the early trajectory
_NEAREST_BLOCK_BYTES = 1 << 20   # the largest temporary of a distance query


def segment_distances(polyline, queries):
    """Euclidean distance from each row of ``queries`` (m, 3) to the
    nearest segment of ``polyline`` (n >= 2 points, (n, 3)), exact, over
    blocks of query rows so that no temporary exceeds
    ``_NEAREST_BLOCK_BYTES``."""
    polyline = np.asarray(polyline, dtype=float)
    a, d = polyline[:-1], np.diff(polyline, axis=0)
    # a zero-length segment gets t = 0: the distance to its point
    dd = np.einsum("nk,nk->n", d, d)
    inv_dd = 1.0 / np.maximum(dd, np.finfo(float).tiny)
    queries = np.asarray(queries, dtype=float)
    rows = max(1, _NEAREST_BLOCK_BYTES // (24 * len(a)))
    out = np.empty(len(queries))
    for start in range(0, len(queries), rows):
        r = queries[start:start + rows, None, :] - a
        t = np.clip(np.einsum("qnk,nk->qn", r, d) * inv_dd, 0.0, 1.0)
        r -= t[..., None] * d
        out[start:start + rows] = np.sqrt(
            np.einsum("qnk,qnk->qn", r, r).min(axis=1))
    return out


def omega_limit_classify(surface, traj, cycles=()):
    """Heuristic limit-set verdict for a finished trajectory.

    HitUmbilic maps to Umbilic and Closed to Cycle(self).  Otherwise the
    late trajectory is compared against the closed ``curve`` of each
    principal cycle in ``cycles`` (monotone approach implies Cycle) and an
    epsilon-ball recurrence count is taken (eps = ``_EPSILON_FACTOR``·diam);
    at least ``_MIN_RETURNS`` passes with non-shrinking gaps yield
    RecurrentOrUndetermined with the recurrence evidence flag set.  The
    verdict never claims more than the finite data supports.
    """
    if traj.termination == TERM_HIT_UMBILIC:
        return OmegaLimitResult("Umbilic", False,
                                f"entered umbilic exclusion ball "
                                f"{traj.hit_umbilic_index}")
    if traj.termination == TERM_CLOSED:
        return OmegaLimitResult("Cycle", False, "closed onto itself")

    diam = surface.diameter()
    n_late = max(2, int(len(traj.points_xyz) * _LATE_FRACTION))
    # convergence toward a known cycle
    for idx, cyc in enumerate(cycles):
        d = segment_distances(cyc.curve.points_xyz, traj.points_xyz[-n_late:])
        n = len(d)
        if n >= 8:
            first, last = float(np.mean(d[: n // 3])), float(
                np.mean(d[-n // 3:]))
            if last < 3e-3 * diam and last < 0.6 * first:
                return OmegaLimitResult(
                    "Cycle", False,
                    f"approaching known cycle {idx} "
                    f"(mean dist {first:.2e} -> {last:.2e})",
                    cycle_index=idx)

    # epsilon-ball recurrence
    eps = _EPSILON_FACTOR * diam
    passes, gaps = _ball_returns(traj, eps)
    evidence = False
    detail = f"{passes} return(s) to an eps-ball (eps = {eps:.3g})"
    if passes >= _MIN_RETURNS and len(gaps) >= 6:
        third = max(2, len(gaps) // 3)
        early = float(np.median(gaps[:third]))
        late = float(np.median(gaps[-third:]))
        if late > 0.4 * early:
            evidence = True
            detail += ", gaps non-shrinking: recurrent evidence"
        else:
            detail += ", gaps shrinking (possible cycle approach)"
    return OmegaLimitResult("RecurrentOrUndetermined", evidence, detail,
                            returns=passes)


def _ball_returns(traj, eps):
    """Best epsilon-ball return count over early reference points.

    Recurrence evidence asks for *a* ball the trajectory re-enters many
    times; scanning candidate centers along the early trajectory finds
    the region it actually revisits (a fixed 10%-index point can land
    somewhere rarely visited and under-count badly).
    """
    pts = traj.points_xyz
    n = len(pts)
    if n < 10:
        return 0, []
    s = traj.arclength
    early = np.linspace(max(1, n // 100), max(2, n // 5), _BALL_CANDIDATES,
                        dtype=int)
    best = (0, [])
    for idx in np.unique(early):
        inside = np.linalg.norm(pts - pts[idx], axis=1) < eps
        # a run of points inside the ball starts at each +1 of the padded
        # mask's differences and ends before the -1 after it
        edges = np.diff(inside.astype(np.int8), prepend=0, append=0)
        first = np.flatnonzero(edges == 1)
        last = np.flatnonzero(edges == -1) - 1
        if len(first) > best[0]:
            passes = 0.5 * (s[first] + s[last])
            best = (len(first), list(np.diff(passes)))
    return best


# ---------------------------------------------------------------------------
# separatrix connection scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatrixGap:
    """Splitting measurement of one launched separatrix.

    ``near`` is the umbilic the separatrix first came near (None if it
    came near none within the length budget); ``gap`` is the measured
    splitting |Delta| there and ``bound`` its measured error bound, both in
    units of the surface diameter (None when not measured).
    """
    umbilic: int
    foliation_id: str
    angle: float
    near: int | None = None
    gap: float | None = None
    bound: float | None = None

    @property
    def within_bound(self):
        return self.gap is not None and self.gap <= self.bound


@dataclass
class ConnectionScanResult:
    connections: list            # (i, j, foliation_id) with i <= j
    undetermined: list           # (i, foliation_id, angle, reason)
    launches: int = 0
    gaps: list = field(default_factory=list)   # SeparatrixGap per launch


@dataclass(frozen=True)
class _NearPass:
    near: int | None             # umbilic whose exclusion ball was entered
    gap: float = math.nan        # signed closest approach (world units)
    approach: np.ndarray = None  # unit vector umbilic -> ball entry point
    reason: str = ""             # why no near pass was found


_SCAN_LENGTH_FACTOR = 4.0    # length budget of a separatrix, times diam
_LAUNCH_SKEW = 2.5e-4        # launch angle off the ray (rad)
_ALIGN_TOL_DEG = 15.0        # arrival along a ray of the target
_APPROACH_SAMPLES = 257      # Hermite samples per step at closest approach


def separatrix_connection_scan(surface, records, opts=None):
    """Integrate every umbilic separatrix outward and decide connections.

    Each separatrix is followed until it first enters an umbilic's
    exclusion ball (the umbilic it comes near, possibly its own source),
    and then through that ball to its closest approach.  The splitting
    Delta is the signed distance from the umbilic to the leaf at that
    closest approach: the umbilic is the end point of its own
    separatrices, so Delta = 0 exactly when the two separatrices are one
    leaf.  Delta is measured from three launches, each tilted by
    ``_LAUNCH_SKEW`` off the ray (which also keeps exactly symmetric arcs
    off the chart poles):

    * at +skew and -skew with ``opts.rel_tol``; Delta is their mean (the
      estimate for the untilted ray) and half their difference is the
      launch error;
    * at +skew with a 10x tighter ``rel_tol``; the change in Delta is the
      integration error.

    The bound adds to these the location error of the target umbilic and
    that of the source umbilic scaled by the measured sensitivity of
    Delta to the launch offset (see :func:`umbilics.location_error`).  A
    connection is declared when |Delta| <= bound and the leaf enters the
    ball along one of the target's separatrix rays of the same foliation
    (within ``_ALIGN_TOL_DEG``); returning to the source counts as a
    self-connection.  |Delta| > bound is a decided non-connection: the
    +skew and -skew leaves pass the umbilic on the same side, farther
    than the numerical error can move them, so the separatrix between
    them misses it too.  The exclusion radius only decides where a pass
    counts as near and where separatrices are launched (2.5 radii out);
    the verdict comes from the measured gap.

    Undetermined separatrices are listed with a reason: the chart
    inversion failed, no umbilic was reached within
    ``_SCAN_LENGTH_FACTOR`` diameters (the trace termination), the
    launches came near different umbilics, the bound could not be
    measured, the leaf reached an umbilic off its separatrix rays, or it
    reached an unclassified umbilic, which has no rays.  An unclassified
    umbilic launches nothing.
    """
    from .umbilics import location_error

    diam = surface.diameter()
    opts = opts or TraceOptions()
    opts = replace(opts, known_umbilics=records,
                   max_length=_SCAN_LENGTH_FACTOR * diam,
                   detect_closure=False)
    tight_rel_tol = 0.1 * opts.rel_tol
    r_launch = 2.5 * opts.exclusion_radius_factor * diam
    targets = np.array([np.asarray(r.xyz, dtype=float) for r in records])
    loc_err = [location_error(surface, r) for r in records]
    connections = {}
    undetermined = []
    gaps = []

    launches = [(i, fol, ang, skew, rtol)
                for i, rec in enumerate(records)
                for fol in (MINIMAL, MAXIMAL)
                for ang in rec.separatrices.get(fol, ())  # world-frame angles
                for skew, rtol in ((_LAUNCH_SKEW, opts.rel_tol),
                                   (-_LAUNCH_SKEW, opts.rel_tol),
                                   (_LAUNCH_SKEW, tight_rel_tol))]
    passes = _near_passes(surface, records, launches, r_launch, opts, targets)
    for k in range(0, len(launches), 3):
        i, fol, ang, _, _ = launches[k]
        runs = passes[k:k + 3]
        plus, minus, fine = runs
        reason = next((r.reason for r in runs if r.near is None), None)
        if reason is None and len({r.near for r in runs}) > 1:
            reason = "inconsistent-near-pass"
        if reason is not None:
            gaps.append(SeparatrixGap(i, fol, ang))
            undetermined.append((i, fol, ang, reason))
            continue
        j = plus.near
        delta = 0.5 * (plus.gap + minus.gap)
        launch_err = 0.5 * abs(plus.gap - minus.gap)
        sensitivity = launch_err / (_LAUNCH_SKEW * r_launch)
        bound = (launch_err + abs(plus.gap - fine.gap) + loc_err[j]
                 + sensitivity * loc_err[i])
        sep = SeparatrixGap(i, fol, ang, j, abs(delta) / diam, bound / diam)
        gaps.append(sep)
        if not math.isfinite(bound):
            undetermined.append((i, fol, ang, "unmeasured-bound"))
        elif not sep.within_bound:
            continue
        elif records[j].monge is None:
            undetermined.append((i, fol, ang, "unclassified-target"))
        elif _ray_match(records[j], fol, plus.approach):
            connections[(min(i, j), max(i, j), fol)] = True
        else:
            undetermined.append((i, fol, ang, "unaligned-arrival"))
    return ConnectionScanResult(sorted(connections), undetermined,
                                len(gaps), gaps)


def _near_passes(surface, records, launches, r_launch, opts, targets):
    """Launch separatrices in lockstep and measure each one's closest
    approach to the first umbilic whose exclusion ball it enters.

    ``launches`` holds (record index, foliation, world-frame ray angle,
    skew, rel_tol) per launch; the launch leaves along the ray angle plus
    the skew.  Returns one _NearPass per launch.  All launches
    run as the lanes of one :func:`trace_lanes` call, on DOP853, and the
    passes through the balls they enter as the lanes of a second one, on
    DP5(4).
    """
    out = [None] * len(launches)
    rays, points, seeds = [], [], []
    for i, _, ang, skew, _ in launches:
        rec = records[i]
        frame = rec.monge.frame
        rays.append(math.cos(ang + skew) * frame.e1
                    + math.sin(ang + skew) * frame.e2)
        points.append(rec.xyz + r_launch * rays[-1])
        seeds.append(rec.uv)
    uv = chart_points_near(surface, points, np.reshape(seeds, (-1, 2)))
    lanes, starts, headings = [], [], []
    for k, ray in enumerate(rays):
        if not np.all(np.isfinite(uv[k])):
            out[k] = _NearPass(None, reason="no-chart-point")
            continue
        lanes.append(k)
        starts.append(uv[k])
        headings.append(ray)
    trajs = trace_lanes(surface, starts, [launches[k][1] for k in lanes],
                        opts, headings=headings,
                        rel_tol=[launches[k][4] for k in lanes],
                        pair=_DOP853)

    entered, starts, headings = [], [], []
    for k, traj in zip(lanes, trajs):
        if traj.termination != TERM_HIT_UMBILIC:
            out[k] = _NearPass(None, reason=traj.termination)
            continue
        entered.append((k, traj))
        starts.append(traj.points_uv[-1])
        headings.append(traj.tangents[-1])
    # follow each leaf on through the ball: its closest approach comes
    # about one radius after the entry, plus half a turn around the
    # umbilic when the leaf wraps it.  This pass stays on DP5(4): on the
    # perturbed ellipsoid, against a scan at rel_tol 1e-12, DOP853 here put
    # the gaps off by up to 8.7e-9 diam (5.2e-9 with its step capped at
    # 2.5e-5 diam), DP5(4) by 1.9e-10
    diam = surface.diameter()
    through = trace_lanes(
        surface, starts, [launches[k][1] for k, _ in entered],
        replace(opts, known_umbilics=(),
                max_length=2.0 * opts.exclusion_radius_factor * diam),
        headings=headings, rel_tol=[launches[k][4] for k, _ in entered])
    for (k, traj), th in zip(entered, through):
        j = traj.hit_umbilic_index
        approach = traj.points_xyz[-1] - targets[j]
        nrm = np.linalg.norm(approach)
        approach = approach / nrm if nrm >= 1e-14 else -traj.tangents[-1]
        out[k] = _NearPass(j, _closest_approach(th, targets[j]), approach)
    return out


def _closest_approach(traj, x):
    """Signed distance from ``x`` to a traced leaf at its closest approach.

    The two steps around the nearest recorded point are resampled on the
    cubic Hermite interpolant of the points and unit tangents.  The sign
    tells which side of the oriented leaf ``x`` lies on (positive when
    tangent x (x - p) points along the surface normal).
    """
    p, t, s = traj.points_xyz, traj.tangents, traj.arclength
    k = int(np.argmin(np.linalg.norm(p - x, axis=1)))
    lo, hi = max(k - 1, 0), min(k + 1, len(p) - 1)
    tau = np.linspace(0.0, 1.0, _APPROACH_SAMPLES)[:, None]
    curve = np.concatenate(
        [_hermite(p[a], t[a], p[a + 1], t[a + 1], s[a + 1] - s[a], tau)
         for a in range(lo, hi)] or [p[k:k + 1]])
    d = np.linalg.norm(curve - x, axis=1)
    m = int(np.argmin(d))
    chord = curve[min(m + 1, len(curve) - 1)] - curve[max(m - 1, 0)]
    side = float(np.dot(np.cross(chord, x - curve[m]), traj.normals[k]))
    return math.copysign(float(d[m]), side)


def _ray_match(rec, fol, direction):
    frame = rec.monge.frame
    cos_tol = math.cos(math.radians(_ALIGN_TOL_DEG))
    for ang in rec.separatrices.get(fol, ()):
        ray = math.cos(ang) * frame.e1 + math.sin(ang) * frame.e2
        if float(np.dot(ray, direction)) > cos_tol:
            return True
    return False


_INVERT_TOL = 1e-12          # Gauss-Newton step that ends an inversion
_INVERT_MAX_ITER = 40


def chart_points_near(surface, world_targets, uv_seeds):
    """Gauss-Newton chart inversion: the (M, 2) chart points closest to M
    world points (M, 3), from one seed chart point or one per target.

    A target may sit slightly off the surface (e.g. a tangent-plane
    offset).  Each point solves its own 2x2 normal equations and stops once
    its own step is below ``_INVERT_TOL``, so a row does not depend on its
    batch.  A point is accepted on the tangential residual of its last
    iteration, the only part that can vanish (below 1e-9·diam); a row
    that fails is NaN.
    """
    targets = np.asarray(world_targets, dtype=float).reshape(-1, 3)
    uv = np.array(np.broadcast_to(uv_seeds, (len(targets), 2)), dtype=float)
    diam = surface.diameter()
    tangential = np.full(len(uv), np.inf)
    live = np.arange(len(uv))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_INVERT_MAX_ITER):
            if not len(live):
                break
            J = surface.jet(uv[live, 0], uv[live, 1])
            r, a, b = J[0, 0] - targets[live], J[1, 0], J[0, 1]
            E, F, G = _dot3(a, a), _dot3(a, b), _dot3(b, b)
            ra, rb = _dot3(a, r), _dot3(b, r)
            det = E * G - F * F
            du, dv = (F * rb - G * ra) / det, (F * ra - E * rb) / det
            t = du[:, None] * a + dv[:, None] * b      # tangential residual
            ok = ((_dot3(r, r) <= (10.0 * diam) ** 2) & np.isfinite(du)
                  & np.isfinite(dv))
            tangential[live] = np.where(ok, np.sqrt(_dot3(t, t)), np.inf)
            uv[live, 0] += du
            uv[live, 1] += dv
            live = live[ok & (du * du + dv * dv >= _INVERT_TOL ** 2)]
    uv[~(tangential < 1e-9 * diam)] = np.nan
    return uv


def chart_point_near(surface, world_target, uv_seed):
    """:func:`chart_points_near` for one point: the chart point, or None
    where the inversion fails."""
    uv = chart_points_near(surface, world_target, uv_seed)[0]
    return uv if np.all(np.isfinite(uv)) else None
