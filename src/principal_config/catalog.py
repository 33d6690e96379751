"""Built-in surfaces, confocal coordinates, quadric strata, stability audit.

The surface builders return charts whose partial derivatives are analytic
(separable Harmonics/Poly terms, see :mod:`principal_config.jets`, or the
rotated-cap ellipsoid's closed-form jet), or implicit level sets with a
hand-coded one-point value, gradient and Hessian.  Orientation defaults
put the unit normal inward on the closed convex surfaces (positive
principal curvatures) and outward on the torus family; each builder
documents its choice.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import foliation, umbilics
from .errors import (DegenerateRoots, ParamError, UnsupportedSurfaceError)
from .geometry import MAXIMAL, MINIMAL, ImplicitSurface, SurfaceChart, _fns
from .jets import ORDER, Const, Harmonics, Poly, Wave, jet_mul, wave_sin


# ---------------------------------------------------------------------------
# surface builders
# ---------------------------------------------------------------------------

def _ux():
    return np.array([1.0, 0.0, 0.0])


def _uy():
    return np.array([0.0, 1.0, 0.0])


def _uz():
    return np.array([0.0, 0.0, 1.0])


class SphericalChart(SurfaceChart):
    """Colatitude chart whose map extends analytically across the poles.

    The separable terms satisfy P(u, -v) = P(u + pi, v) and
    P(u, 2 pi - v) = P(u + pi, v): past each pole the chart covers the
    surface again, with its normal flipped.  The surface's sheet lies
    between the ``POLES``, and minimal and maximal are its labels;
    :meth:`fold`, the one pole rule, puts a chart point there.
    """

    POLES = (0.0, math.pi)

    def fold(self, u, v):
        """The same world point on the sheet.  Past the poles the chart
        normal flips, so k1 and k2 and the two foliations trade places."""
        lo, hi = self.POLES
        if v < lo:
            return (u + math.pi, 2 * lo - v)
        if v > hi:
            return (u + math.pi, 2 * hi - v)
        return (u, v)


def _spherical_domain():
    pad = 0.55      # how far the domain reaches past each pole
    return ((0.0, 2 * math.pi), (-pad, math.pi + pad))


def sphere_chart(r=1.0):
    """Round sphere, colatitude chart, normal pointing inward."""
    if r <= 0:
        raise ParamError("sphere radius must be positive")
    terms = [
        (Wave(1.0), wave_sin(1.0, amp=r), _ux()),
        (wave_sin(1.0), wave_sin(1.0, amp=r), _uy()),
        (Const(1.0), Wave(1.0, amp=r), _uz()),
    ]
    return SphericalChart(terms, _spherical_domain(),
                          periodic_u=True, orientation=1, name="sphere",
                          params={"r": r}, euler_characteristic=2,
                          diameter_hint=2 * r)


def ellipsoid_chart(a, b, c):
    """Ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1, colatitude chart.

    Any positive axes are accepted; umbilic helpers additionally need
    a > b > c.  Normal points inward (positive curvatures).
    """
    if min(a, b, c) <= 0:
        raise ParamError("ellipsoid axes must be positive")
    terms = [
        (Wave(1.0), wave_sin(1.0, amp=a), _ux()),
        (wave_sin(1.0), wave_sin(1.0, amp=b), _uy()),
        (Const(1.0), Wave(1.0, amp=c), _uz()),
    ]
    return SphericalChart(terms, _spherical_domain(),
                          periodic_u=True, orientation=1, name="ellipsoid",
                          params={"a": a, "b": b, "c": c},
                          euler_characteristic=2,
                          diameter_hint=2 * max(a, b, c))


def ellipsoid_umbilic_points(a, b, c):
    """Closed-form umbilics of the triaxial ellipsoid (requires a > b > c).

    Solving k1 = k2 on the symmetry plane y = 0 gives
    x = +-a sqrt((a^2-b^2)/(a^2-c^2)), z = +-c sqrt((b^2-c^2)/(a^2-c^2));
    in the colatitude chart that is u in {0, pi}, v in {v*, pi - v*}.
    """
    if not a > b > c > 0:
        raise ParamError("umbilic closed form needs a > b > c > 0")
    sv = math.sqrt((a * a - b * b) / (a * a - c * c))
    cv = math.sqrt((b * b - c * c) / (a * a - c * c))
    vstar = math.atan2(sv, cv)
    out = []
    for u0 in (0.0, math.pi):
        for v0 in (vstar, math.pi - vstar):
            x = a * sv * math.cos(u0)
            z = c * cv * (1.0 if v0 == vstar else -1.0)
            out.append({"uv": (u0, v0), "xyz": np.array([x, 0.0, z])})
    return out


def torus_chart(R=2.0, r=1.0):
    """Torus of revolution; u around the axis, v around the tube.

    Normal points outward, which makes the parallels the maximal foliation
    and the meridians the minimal one.
    """
    if not R > r > 0:
        raise ParamError("torus needs R > r > 0")
    terms = [
        (Wave(1.0, amp=R), Const(1.0), _ux()),
        (Wave(1.0), Wave(1.0, amp=r), _ux()),
        (wave_sin(1.0, amp=R), Const(1.0), _uy()),
        (wave_sin(1.0), Wave(1.0, amp=r), _uy()),
        (Const(1.0), wave_sin(1.0, amp=r), _uz()),
    ]
    return SurfaceChart(terms, ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                        periodic_u=True, periodic_v=True, orientation=1,
                        name="torus", params={"R": R, "r": r},
                        euler_characteristic=0, diameter_hint=2 * (R + r))


def perturbed_torus_chart(R=2.0, r=1.0, eps=0.05):
    """Torus whose tube cross-section is modulated against the spine angle.

    rho(u, v) = r [1 + eps (cos(2v + 0.3)(cos u + 0.7 sin 2u)
                           + 0.5 cos(v + 1.1) sin u)],
    u around the axis, v around the tube.  The shape of the modulation
    matters: radius-only or revolution-symmetric profiles keep every
    principal line closed (canal surfaces and surfaces of revolution are
    integrable), and any surviving mirror symmetry forces the leaves that
    cross its fixed plane twice to close up as well.  Coupling both angles
    with incommensurate phases removes all of that, so each closed-leaf
    band of the round torus breaks into finitely many isolated principal
    cycles with return-map derivative away from 1.  Canonical fixture for
    hyperbolic principal cycles.
    """
    if not R > r > 0:
        raise ParamError("perturbed torus needs R > r > 0")
    if abs(eps) >= 0.15:
        raise ParamError("modulation amplitude too large for a valid tube")
    a_u = Wave(1.0).plus(wave_sin(2.0, amp=0.7))
    b_u = wave_sin(1.0, amp=0.5)
    osc_v = Wave(2.0, phase=0.3)
    tilt_v = Wave(1.0, phase=1.1)
    terms = [
        (Wave(1.0, amp=R), Const(1.0), _ux()),
        (Wave(1.0, amp=r), Wave(1.0), _ux()),
        (a_u.times(Wave(1.0)), osc_v.times(Wave(1.0)), r * eps * _ux()),
        (b_u.times(Wave(1.0)), tilt_v.times(Wave(1.0)), r * eps * _ux()),
        (wave_sin(1.0, amp=R), Const(1.0), _uy()),
        (wave_sin(1.0, amp=r), Wave(1.0), _uy()),
        (a_u.times(wave_sin(1.0)), osc_v.times(Wave(1.0)), r * eps * _uy()),
        (b_u.times(wave_sin(1.0)), tilt_v.times(Wave(1.0)), r * eps * _uy()),
        (Const(r), wave_sin(1.0), _uz()),
        (a_u, osc_v.times(wave_sin(1.0)), r * eps * _uz()),
        (b_u, tilt_v.times(wave_sin(1.0)), r * eps * _uz()),
    ]
    return SurfaceChart(terms, ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                        periodic_u=True, periodic_v=True, orientation=1,
                        name="perturbed_torus",
                        params={"R": R, "r": r, "eps": eps},
                        euler_characteristic=0, diameter_hint=2 * (R + r))


def monge_graph_chart(k, a, b, c, extent=0.8):
    """Graph z = (k/2)(x^2+y^2) + (a/6)x^3 + (b/2)x y^2 + (c/6)y^3.

    The origin is an umbilic already in rotated normal form; used as the
    synthetic fixture for classifier and separatrix tests.  Normal at the
    origin is +z.
    """
    terms = [
        (Poly([0.0, 1.0]), Const(1.0), _ux()),
        (Const(1.0), Poly([0.0, 1.0]), _uy()),
        (Poly([0.0, 0.0, k / 2.0, a / 6.0]), Const(1.0), _uz()),
        (Poly([0.0, b / 2.0]), Poly([0.0, 0.0, 1.0]), _uz()),
        (Const(1.0), Poly([0.0, 0.0, k / 2.0, c / 6.0]), _uz()),
    ]
    return SurfaceChart(terms, ((-extent, extent), (-extent, extent)),
                        orientation=1, name="monge_graph",
                        params={"k": k, "a": a, "b": b, "c": c,
                                "extent": extent},
                        euler_characteristic=None,
                        diameter_hint=2.0 * extent * 1.5)


class RotatedCapChart(SphericalChart):
    """Rotated-cap ellipsoid: the chart is not separable (its cap blend and
    rotation both depend on v), so it carries no terms and writes its jet
    in closed form, one path for python floats and arrays.

    The chart map is analytic across the poles and re-covers the surface
    beyond |v| = pi/2 (the blend plateaus there), with the identification
    (u, v) ~ (u + pi, pi - v): the pole rule of :class:`SphericalChart`
    at its own poles.
    """

    POLES = (-0.5 * math.pi, 0.5 * math.pi)

    def jet(self, u, v):
        """Closed-form derivative tensor, shape ``(4, 4) + pts + (3,)``.

        Python floats run on ``math``, anything else on numpy arrays, with
        the same elementwise operations (powers written as products), so a
        point of a batch is bit-identical to the same point alone.  For
        floats the tensor is filled from python floats in one array.
        """
        if isinstance(u, float) and isinstance(v, float):
            u, v = float(u), float(v)
        else:
            u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(v, dtype=float))
        fn = _fns(u)
        p = self.params
        A, C, delta, th = p["A"], p["C"], p["delta"], p["theta"]

        # cap scaling 1 + delta s(|v|), even in v, and rotation angle psi(v)
        s = _smoothstep_jet(abs(v), p["phi0"], p["phi1"], fn)
        sign = fn.where(v < 0, -1.0, 1.0)
        scale = (1.0 + delta * s[0], delta * (sign * s[1]), delta * s[2],
                 delta * (sign * s[3]))
        psi = tuple(th * x for x in _smoothstep_jet(v, p["rot0"], p["rot1"],
                                                    fn))
        cp0, sp0 = fn.cos(psi[0]), fn.sin(psi[0])
        p1, p2, p3 = psi[1:]
        cpsi = (cp0, -sp0 * p1, -sp0 * p2 - cp0 * p1 * p1,
                -sp0 * p3 - 3.0 * cp0 * p1 * p2 + sp0 * (p1 * p1 * p1))
        spsi = (sp0, cp0 * p1, cp0 * p2 - sp0 * p1 * p1,
                cp0 * p3 - 3.0 * sp0 * p1 * p2 - cp0 * (p1 * p1 * p1))

        cv, sv = fn.cos(v), fn.sin(v)
        g_v = (A * cv, -A * sv, -A * cv, A * sv)      # y semi-profile
        f_v = jet_mul(scale, g_v)                     # x semi-profile
        F = (jet_mul(f_v, cpsi), jet_mul(g_v, spsi), jet_mul(f_v, spsi),
             jet_mul(g_v, cpsi), (C * sv, C * cv, -C * sv, -C * cv))
        cu, su = fn.cos(u), fn.sin(u)
        cu4 = (cu, -su, -cu, su)
        su4 = (su, cu, -su, -cu)

        # out[i, j] = d^i/du^i d^j/dv^j of
        # (F1 cos u - F2 sin u, F3 cos u + F4 sin u, F5)
        if type(u) is float:
            F1, F2, F3, F4, F5 = F
            flat = []
            for i in range(ORDER):
                c, s = cu4[i], su4[i]
                for j in range(ORDER):
                    flat += (F1[j] * c - F2[j] * s, F3[j] * c + F4[j] * s,
                             F5[j] if i == 0 else 0.0)
            return np.array(flat).reshape(ORDER, ORDER, 3)
        F = np.array(F)
        cu4 = np.array(cu4)[:, None]
        su4 = np.array(su4)[:, None]
        out = np.empty((ORDER, ORDER) + np.shape(u) + (3,))
        out[..., 0] = F[0] * cu4 - F[1] * su4
        out[..., 1] = F[2] * cu4 + F[3] * su4
        out[0, ..., 2] = F[4]
        out[1:, ..., 2] = 0.0
        return out


def _smoothstep_jet(x, a, b, fn):
    """Quintic smoothstep, 0 for x <= a and 1 for x >= b (C2 at the
    joints), with its first three derivatives; ``fn`` from ``_fns``."""
    w = b - a
    t = fn.clip((x - a) / w, 0.0, 1.0)
    t2 = t * t
    inside = (x > a) & (x < b)
    return (t2 * t * (10.0 - 15.0 * t + 6.0 * t2),
            fn.where(inside, 30.0 * t2 * ((1.0 - t) * (1.0 - t)) / w, 0.0),
            fn.where(inside, 60.0 * t * (1.0 - 3.0 * t + 2.0 * t2) / (w * w),
                     0.0),
            fn.where(inside, 60.0 * (1.0 - 6.0 * t + 6.0 * t2) / (w * w * w),
                     0.0))


def rotated_cap_ellipsoid_chart(theta, A=1.0, C=0.6, delta=0.03,
                                phi0=0.55, phi1=1.05):
    """Oblate ellipsoid of revolution with triaxial-style caps, the upper
    cap rotated by ``theta`` about the polar axis.

    The band |latitude| < phi0 stays an exact surface of revolution; the
    caps get their x semi-axis scaled by (1 + delta), blended with a
    quintic smoothstep over [phi0, phi1] (C2 at the joints).  The chart's
    rotation angle ramps from 0 to theta strictly below phi0, where the
    surface is still a surface of revolution, so the ramp twists only the
    parametrization: as a set, the surface is exactly the theta = 0
    surface with everything above the ramp rigidly rotated by theta.
    That makes the second-return rotation of the oscillating curvature
    lines exactly 2 theta (up to the deformation's own distortion).
    Normal points inward.

    The deformation is gentle and the blend wide on purpose: sharper
    blends spawn extra umbilic rings at the band edge (the scaling's
    curvature kick makes the principal curvatures cross), obstructing the
    oscillating leaves.  With the defaults the only umbilics are the four
    cap ones.
    """
    if not (0 < phi0 < phi1 < math.pi / 2 + 0.2):
        raise ParamError("blend band must satisfy 0 < phi0 < phi1")
    if not (A > C > 0):
        raise ParamError("oblate base needs A > C > 0")
    if abs(delta) > 0.5:
        raise ParamError("cap deformation too large")
    rot0, rot1 = 0.60 * phi0, 0.95 * phi0
    # 0.55 past each pole, summed in two parts whose rounding the seeds
    # and the location grid read
    vmax = math.pi / 2 + 0.35 + 0.2
    return RotatedCapChart([], ((0.0, 2 * math.pi), (-vmax, vmax)),
                           periodic_u=True, orientation=-1, name="e_theta",
                           params={"theta": theta, "A": A, "C": C,
                                   "delta": delta, "phi0": phi0,
                                   "phi1": phi1, "rot0": rot0,
                                   "rot1": rot1},
                           euler_characteristic=2, diameter_hint=2 * A)


_PERT_MONOMIALS = "xy yz xz xx yy xyz xxz yyy".split()


def perturbed_ellipsoid_chart(a=3.0, b=2.0, c=1.0, amplitude=8e-3, seed=0):
    """Ellipsoid with a random smooth radial perturbation.

    The immersion is (1 + amplitude * g) times the ellipsoid chart, where g
    is a random combination of low-order monomials in the unit-sphere
    coordinates; that keeps the surface C-infinity at the chart poles while
    breaking every reflection symmetry.  The default amplitude is small
    enough to keep the four Darbouxian umbilics but breaks the ellipsoid's
    separatrix connections: on seeds 0-19 each separatrix misses the
    umbilic it comes near by 2.5e-7 to 1.0e-4 diameters, inside the
    default 1e-3 diameter exclusion ball but at least 40 times the
    measured error bound of :func:`foliation.separatrix_connection_scan`
    (the ellipsoid's own connections close to within 4e-13 diameters).
    Used for the instance-level perturbation experiments.
    """
    base = ellipsoid_chart(a, b, c)
    rng = np.random.default_rng(int(seed))
    coeffs = rng.uniform(-1.0, 1.0, size=len(_PERT_MONOMIALS))

    def factor(sym):
        if sym == "x":
            return Wave(1.0), wave_sin(1.0)
        if sym == "y":
            return wave_sin(1.0), wave_sin(1.0)
        return Const(1.0), Wave(1.0)  # z

    g_terms = []
    for mono, ck in zip(_PERT_MONOMIALS, coeffs):
        us, vs = zip(*(factor(sym) for sym in mono))
        g_terms.append((functools.reduce(Harmonics.times, us),
                        functools.reduce(Harmonics.times, vs), amplitude * ck))

    terms = list(base.terms)
    for tu, tv, w in base.terms:
        for gu, gv, gc in g_terms:
            terms.append((tu.times(gu), tv.times(gv), w * gc))
    return SphericalChart(
        terms, base.domain, periodic_u=True, orientation=1,
        name="perturbed_ellipsoid",
        params={"a": a, "b": b, "c": c,
                "amplitude": amplitude, "seed": int(seed)},
        euler_characteristic=2,
        diameter_hint=2 * max(a, b, c) * (1 + 2 * amplitude))


def cubic_levelset_surface(rho, a=3.0, b=2.0):
    """Cubic deformation of the ellipsoid as an implicit level set:
    x^2/a^2 + y^2/b^2 + z^2 + rho x y z - 1 = 0.

    Requires a, b > 0 and (a-1)(b-1)(a-b) != 0; normal points inward to
    match the inward-oriented ellipsoid charts.
    """
    if a <= 0 or b <= 0:
        raise ParamError("axes must be positive")
    if abs((a - 1) * (b - 1) * (a - b)) < 1e-9:
        raise ParamError("degenerate axes: (a-1)(b-1)(a-b) must be nonzero")
    if abs(rho) > 0.2:
        raise ParamError("rho too large; compact component not guaranteed")
    ia2, ib2 = 1.0 / (a * a), 1.0 / (b * b)

    def f(p):
        x, y, z = p
        return x * x * ia2 + y * y * ib2 + z * z + rho * x * y * z - 1.0

    def grad(p):
        x, y, z = p
        return (2 * x * ia2 + rho * y * z, 2 * y * ib2 + rho * x * z,
                2 * z + rho * x * y)

    def hess(p):
        x, y, z = p
        hxy, hxz, hyz = rho * z, rho * y, rho * x
        return ((2 * ia2, hxy, hxz), (hxy, 2 * ib2, hyz), (hxz, hyz, 2.0))

    pad = 0.5
    return ImplicitSurface(
        f=f, grad=grad, hess=hess, level=0.0,
        bounding_box=((-a - pad, -b - pad, -1 - pad),
                      (a + pad, b + pad, 1 + pad)),
        orientation=-1, name="s_rho",
        params={"rho": rho, "a": a, "b": b})


_BUILDERS = {
    "sphere": (sphere_chart, 1),
    "ellipsoid": (ellipsoid_chart, 3),
    "torus": (torus_chart, 0),
    "perturbed_torus": (perturbed_torus_chart, 0),
    "monge_graph": (monge_graph_chart, 4),
    "e_theta": (rotated_cap_ellipsoid_chart, 1),
    "s_rho": (cubic_levelset_surface, 1),
    "perturbed_ellipsoid": (perturbed_ellipsoid_chart, 0),
}


def make_surface(name, params=()):
    """Catalog lookup: ``make_surface("ellipsoid", (3, 2, 1))`` etc.

    ``params`` is a positional tuple matching the builder signature; a
    ParamError is raised for unknown names, missing required parameters or
    values outside the documented validity.
    """
    key = str(name).lower()
    if key not in _BUILDERS:
        raise ParamError(f"unknown surface {name!r}; known: "
                         + ", ".join(sorted(_BUILDERS)))
    builder, min_args = _BUILDERS[key]
    params = tuple(params)
    if len(params) < min_args:
        raise ParamError(f"surface {key!r} needs at least {min_args} "
                         f"parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# confocal quadric coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfocalCoordinates:
    """Roots lam1 < lam2 < lam3 of the confocal cubic at a point.

    lam1 < c^2 picks the ellipsoid through the point, c^2 < lam2 < b^2 the
    one-sheet hyperboloid, b^2 < lam3 < a^2 the two-sheet hyperboloid.
    """

    lam1: float
    lam2: float
    lam3: float
    residuals: tuple

    def as_array(self):
        return np.array([self.lam1, self.lam2, self.lam3])


def _confocal_poly(p, axes):
    """Polynomial form of the confocal equation (degree 3 in lam)."""
    x2 = np.asarray(p, dtype=float) ** 2
    a2 = np.asarray(axes, dtype=float) ** 2

    def poly(lam):
        d = a2 - lam
        return (x2[0] * d[1] * d[2] + x2[1] * d[0] * d[2]
                + x2[2] * d[0] * d[1] - d[0] * d[1] * d[2])

    return poly, a2


_DEGENERACY_TOL = 1e-9       # relative to a^2 - c^2


def confocal_coordinates(p, axes):
    """Solve the confocal equation by bisection on the bracketing intervals.

    Each root is bracketed by sign changes of the cubic (polynomial) form
    and found by bisection of the rational form sum x_i^2/(a_i^2 - lam) - 1,
    which is monotone on each bracket and is the residual reported; of
    the last two bisection points the one with the smaller residual is
    kept.  So each root reaches the smallest residual a float lam can
    have (tested: no neighbouring float does better, also within 1e-3 rad
    of the symmetry planes x = 0 and y = 0, where a root sits next to a
    pole and that smallest residual is up to about 1e-7, not roundoff).

    pre: the point is generic; DegenerateRoots is raised when two roots
    approach each other or a pole closer than ``_DEGENERACY_TOL`` (relative
    to a^2 - c^2), which happens on the focal conics and symmetry axes.
    """
    a, b, c = sorted(axes, reverse=True)
    if not (a > b > c > 0):
        raise DegenerateRoots("confocal system needs distinct positive axes")
    poly, a2 = _confocal_poly(p, (a, b, c))
    x2 = [float(x) ** 2 for x in p]
    a2v = [a * a, b * b, c * c]

    def rational(lam):
        return (x2[0] / (a2v[0] - lam) + x2[1] / (a2v[1] - lam)
                + x2[2] / (a2v[2] - lam)) - 1.0

    span = a * a - c * c
    lo_cap = c * c - max(4.0 * float(np.dot(p, p)), span) - 1.0
    brackets = [(lo_cap, c * c), (c * c, b * b), (b * b, a * a)]
    roots = []
    for lo, hi in brackets:
        pad = 1e-14 * max(abs(lo), abs(hi), 1.0)
        flo, fhi = poly(lo + pad), poly(hi - pad)
        if flo == 0.0:
            roots.append(lo + pad)
            continue
        if fhi == 0.0:
            roots.append(hi - pad)
            continue
        if np.sign(flo) == np.sign(fhi):
            raise DegenerateRoots(
                f"no sign change in bracket ({lo:.6g}, {hi:.6g}); point on "
                "a symmetry plane or focal conic")
        # rational(lam) increases from negative to positive on the bracket
        x0, x1 = lo + pad, hi - pad
        for _ in range(200):
            mid = 0.5 * (x0 + x1)
            if not x0 < mid < x1 or (x1 - x0) < 1e-16 * max(abs(mid), 1.0):
                break
            r = rational(mid)
            if r == 0.0:
                x0 = x1 = mid
                break
            if r < 0.0:
                x0 = mid
            else:
                x1 = mid
        roots.append(min((x0, x1), key=lambda x: abs(rational(x))))
    lam = np.array(roots)
    gaps = np.array([c * c - lam[0], lam[1] - c * c, b * b - lam[1],
                     lam[2] - b * b, a * a - lam[2], lam[1] - lam[0],
                     lam[2] - lam[1]])
    if np.min(np.abs(gaps)) < _DEGENERACY_TOL * span:
        raise DegenerateRoots("two confocal roots coincide within tolerance")

    residuals = tuple(abs(rational(float(x))) for x in lam)
    return ConfocalCoordinates(float(lam[0]), float(lam[1]), float(lam[2]),
                               residuals)


@dataclass(frozen=True)
class DupinDrift:
    """Maximum relative drift of the conserved confocal root along a curve."""

    drift: float
    family: str            # "one_sheet" (lam2) or "two_sheet" (lam3)


_DUPIN_SAMPLES = 400         # trajectory points checked, evenly spread


def dupin_drift(surface, trajectory):
    """Drift of the hyperboloid-family confocal root along a trajectory.

    A principal line on the triaxial ellipsoid follows the intersection
    with one confocal hyperboloid family, so the matching root must stay
    constant; the drift (relative to a^2 - c^2) certifies it.  The root
    family is chosen as the one with the smaller drift.
    """
    if surface.name not in ("ellipsoid", "perturbed_ellipsoid"):
        raise UnsupportedSurfaceError("dupin_drift needs a triaxial "
                                      "ellipsoid trajectory")
    a, b, c = (surface.params[k] for k in "abc")
    if not (a > b > c > 0) or (a - b) < 1e-12 or (b - c) < 1e-12:
        raise DegenerateRoots("confocal system degenerate for these axes")
    pts = trajectory.points_xyz
    if len(pts) > _DUPIN_SAMPLES:
        idx = np.linspace(0, len(pts) - 1, _DUPIN_SAMPLES).astype(int)
        pts = pts[idx]
    span = a * a - c * c
    lam2, lam3 = [], []
    for p in pts:
        try:
            cc = confocal_coordinates(p, (a, b, c))
        except DegenerateRoots:
            continue
        lam2.append(cc.lam2)
        lam3.append(cc.lam3)
    if len(lam2) < 2:
        raise DegenerateRoots("too few generic points along trajectory")
    lam2, lam3 = np.array(lam2), np.array(lam3)
    d2 = float(np.max(np.abs(lam2 - lam2[0]))) / span
    d3 = float(np.max(np.abs(lam3 - lam3[0]))) / span
    if d2 <= d3:
        return DupinDrift(d2, "one_sheet")
    return DupinDrift(d3, "two_sheet")


# ---------------------------------------------------------------------------
# quadric strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadricSpec:
    """Quadric x^T M x + q . x + k = 0 with M exactly symmetric."""

    matrix: np.ndarray
    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    constant: float = -1.0

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (3, 3) or not np.array_equal(M, M.T):
            raise ParamError("quadric matrix must be symmetric 3x3")
        if np.all(M == 0.0):
            raise ParamError("quadric form must not be zero")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "linear",
                           np.asarray(self.linear, dtype=float))

    def transformed(self, rotation, translation):
        """Spec of the same quadric after x -> R x + t substitution."""
        R = np.asarray(rotation, dtype=float)
        t = np.asarray(translation, dtype=float)
        M = R.T @ self.matrix @ R
        M = 0.5 * (M + M.T)
        q = R.T @ (2.0 * self.matrix @ t + self.linear)
        k = float(t @ self.matrix @ t + self.linear @ t + self.constant)
        return QuadricSpec(M, q, k)


@dataclass(frozen=True)
class Stratum:
    tag: str                       # E3_triaxial, E2_revolution, Sphere, ...
    multiplicities: tuple
    margin: float
    semi_axes: tuple = ()


def quadric_stratum(q, tol=1e-8):
    """Classify a quadric into its stability stratum.

    Reduced to principal axes; compact iff the normalized form is positive
    definite, and the stratum follows the eigenvalue multiplicity pattern
    (3 distinct axes / exactly 2 equal / all equal), with relative gaps
    below ``tol`` counting as equal.
    """
    M = q.matrix
    evals, _ = np.linalg.eigh(M)
    rank = int(np.sum(np.abs(evals) > 1e-12 * np.max(np.abs(evals))))
    if rank < 3:
        return Stratum("Degenerate", tuple(), 0.0)
    center = -0.5 * np.linalg.solve(M, q.linear)
    # completing the square: y^T M y = level in centered coordinates
    level = -(float(center @ M @ center) + float(q.linear @ center)
              + float(q.constant))
    if level == 0.0:
        return Stratum("Degenerate", tuple(), 0.0)
    lam = np.sort(evals / level)
    if np.any(lam <= 0.0):
        return Stratum("NonCompact", tuple(), float(np.min(np.abs(lam))))
    axes = 1.0 / np.sqrt(lam)          # semi-axes, descending
    axes = np.sort(axes)[::-1]
    gaps = np.abs(np.diff(axes)) / axes[0]
    eq01, eq12 = gaps[0] < tol, gaps[1] < tol
    if eq01 and eq12:
        tag, mult, margin = "Sphere", (3,), float(np.max(gaps))
    elif eq01 or eq12:
        tag, mult = "E2_revolution", (2, 1)
        margin = float(gaps[1] if eq01 else gaps[0])
    else:
        tag, mult, margin = "E3_triaxial", (1, 1, 1), float(np.min(gaps))
    return Stratum(tag, mult, margin, tuple(float(x) for x in axes))


# ---------------------------------------------------------------------------
# rotation estimates on closed sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationEstimate:
    section_id: str
    increments: np.ndarray         # per second-return angles (signed, rad)
    mean_rotation: float           # mean |second-return| rotation
    dispersion: float
    crossing_count: int
    seeds_used: int

    def to_dict(self):
        return {
            "section_id": self.section_id,
            "increments": [float(x) for x in self.increments],
            "mean_rotation": self.mean_rotation,
            "dispersion": self.dispersion,
            "crossing_count": self.crossing_count,
            "seeds_used": self.seeds_used,
        }


def _second_return_increments(crossings):
    """Per-class angle increments between same-direction crossings.

    The two crossing-direction classes rotate by the same angle with
    opposite signs (each cap excursion reflects the circle; only one cap
    carries the extra rotation), so they must not be pooled with signs.
    Returns {direction: [increments]}.
    """
    by_sign = {}
    for c in crossings:
        by_sign.setdefault(c.direction, []).append(c.coordinate * math.tau)
    out = {}
    for sign, vals in by_sign.items():
        incs = []
        for a0, a1 in zip(vals, vals[1:]):
            incs.append((a1 - a0 + math.pi) % (2 * math.pi) - math.pi)
        if incs:
            out[sign] = incs
    return out


def section_seeds(surface, section, n):
    """Deterministic trace seeds just off a section, spread along it."""
    golden = 2.3999632297286535
    offsets = [(0.4 + golden * i) % (2 * math.pi) for i in range(n)]
    if isinstance(section, foliation.DomainSection):
        (u0, u1), (v0, v1) = surface.domain
        if section.axis == "v":
            dv = 0.02 * (v1 - v0)
            return [(off, section.value + dv) for off in offsets]
        du = 0.02 * (u1 - u0)
        return [(section.value + du, off) for off in offsets]
    params = surface.params
    if "a" in params and "b" in params:
        a, b = params["a"], params["b"]
        return [np.array([a * math.cos(t), b * math.sin(t), 0.0])
                for t in offsets]
    raise ParamError("cannot build section seeds for this surface/section")


def rotation_estimate(surface, section, seeds, foliation_id=MAXIMAL,
                      opts=None):
    """Mean rotation per second return to a closed transversal section.

    Traces every seed, collects the section crossings and averages the
    same-direction crossing increments.  ``section`` must be transverse to
    the chosen foliation (tangential crossings raise TransversalityError
    inside the tracer).
    """
    opts = replace(opts or foliation.TraceOptions(), sections=(section,))
    by_class = {}
    crossings = 0
    used = 0
    for seed in seeds:
        traj = foliation.trace(surface, seed, foliation_id, opts)
        incs = _second_return_increments(traj.crossings)
        if incs:
            used += 1
            for sign, vals in incs.items():
                by_class.setdefault(sign, []).extend(vals)
        crossings += len(traj.crossings)
    pooled = np.asarray([x for vals in by_class.values() for x in vals])
    if len(pooled) == 0:
        return RotationEstimate(section.section_id, pooled, math.nan,
                                math.nan, crossings, used)
    total = 0.0
    var = 0.0
    for vals in by_class.values():
        arr = np.asarray(vals)
        total += abs(float(np.mean(arr))) * len(arr)
        var += float(np.var(arr)) * len(arr)
    mean = total / len(pooled)
    disp = math.sqrt(var / len(pooled))
    return RotationEstimate(section.section_id, pooled, mean, disp,
                            crossings, used)


def rho_sweep(rho_values, n_seeds=4):
    """Rotation-vs-rho table for the cubic level-set family.

    Produces one RotationEstimate per rho of S_rho at its default
    semi-axes, using seeds on the z = 0 section curve (which lies on the
    surface for every rho).  Reproducible bit-for-bit for a fixed seed
    set; no density claim is made.
    """
    table = []
    for rho in rho_values:
        surf = cubic_levelset_surface(float(rho))
        a, b = surf.params["a"], surf.params["b"]
        section = foliation.WorldPlaneSection("z0", normal=(0, 0, 1),
                                              offset=0.0,
                                              axes=((1, 0, 0), (0, 1, 0)))
        taus = np.linspace(0.3, 2 * math.pi, n_seeds, endpoint=False)
        seeds = [np.array([a * math.cos(t), b * math.sin(t), 0.0])
                 for t in taus]
        est = rotation_estimate(surf, section, seeds, MAXIMAL,
                                foliation.TraceOptions(
                                    rel_tol=1e-7, max_length=120.0,
                                    max_crossings=30,
                                    detect_closure=False))
        table.append({"rho": float(rho), "estimate": est})
    return table


# ---------------------------------------------------------------------------
# stability audit (Theorem-level conditions as a numerical report)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityBudget:
    grid: int = 28
    cycle_seeds: int = 10
    omega_seeds: int = 6
    trace_length_factor: float = 30.0   # times surface diameter
    seed: int = 0


@dataclass
class ConditionVerdict:
    name: str
    status: str          # "pass", "fail", "inconclusive"
    detail: str
    witnesses: list = field(default_factory=list)


@dataclass
class StabilityReport:
    condition_a: ConditionVerdict
    condition_b: ConditionVerdict
    condition_c: ConditionVerdict
    condition_d: ConditionVerdict
    overall: str                     # PassEvidence / FailWitness / Inconclusive
    caveat: str = ("limit-set condition audited by finite-length evidence "
                   "only; verdicts are numerical evidence, not proof")

    def conditions(self):
        return [self.condition_a, self.condition_b, self.condition_c,
                self.condition_d]


def stability_report(surface, budget=None):
    """Audit the four structural-stability conditions on a chart surface.

    (a) every umbilic Darbouxian, (b) every found cycle hyperbolic, (c) no
    separatrix connections, (d) sampled limit sets all umbilic or cycle.
    FailWitness whenever a concrete counterexample is found; Inconclusive
    when a condition is left undecided ((b) passes only when every seed
    gave a cycle, (c) and (d) only when every separatrix or sampled line is
    decided); PassEvidence otherwise, with the explicit caveat that (d) is
    evidence only.
    """
    from . import cycles as cycles_mod

    if isinstance(surface, ImplicitSurface):
        raise UnsupportedSurfaceError(
            "stability_report runs on chart surfaces; trace implicit "
            "surfaces through the foliation/rotation pipelines instead")
    budget = budget or StabilityBudget()
    diam = surface.diameter()
    rng = np.random.default_rng(budget.seed)

    # (a) umbilic points all Darbouxian
    found = umbilics.locate_umbilics(surface, grid=budget.grid)
    if isinstance(found, umbilics.AllUmbilicSurface):
        cond_a = ConditionVerdict(
            "a", "fail", "surface is totally umbilic (degenerate)",
            ["AllUmbilicSurface"])
        detail = ("principal foliations undefined on a totally umbilic "
                  "surface")
        return StabilityReport(
            cond_a,
            ConditionVerdict("b", "inconclusive", detail, []),
            ConditionVerdict("c", "inconclusive", detail, []),
            ConditionVerdict("d", "inconclusive", detail, []),
            "FailWitness")
    else:
        records = [umbilics.classify_umbilic(surface, rec) for rec in found]
        cond_a = _umbilic_verdict(records)

    # (b) principal cycles hyperbolic
    seeds = _low_discrepancy_seeds(surface, budget.cycle_seeds, rng, records)
    found_cycles = []
    log = cycles_mod.SearchLog()
    for fol in (MINIMAL, MAXIMAL):
        found_cycles.extend(cycles_mod.find_cycles(
            surface, seeds, fol, known_umbilics=records, log=log))
    cond_b = _cycle_verdict(found_cycles, log)

    # (c) no separatrix connections
    if records and all(r.type in ("D1", "D2", "D3") for r in records):
        cond_c = _connection_verdict(
            foliation.separatrix_connection_scan(surface, records))
    elif not records:
        cond_c = ConditionVerdict("c", "pass", "no umbilics, vacuous", [])
    else:
        cond_c = ConditionVerdict("c", "inconclusive",
                                  "separatrices unavailable for "
                                  "non-Darbouxian umbilics", [])

    # (d) limit sets of sampled non-periodic lines
    omega_seeds = _low_discrepancy_seeds(surface, budget.omega_seeds, rng,
                                         records, salt=1)
    opts = foliation.TraceOptions(
        rel_tol=1e-7, max_length=budget.trace_length_factor * diam,
        known_umbilics=records)
    cond_d = _omega_verdict([
        foliation.omega_limit_classify(
            surface, foliation.trace(surface, seed, fol, opts), found_cycles)
        for seed in omega_seeds for fol in (MINIMAL, MAXIMAL)])

    conds = [cond_a, cond_b, cond_c, cond_d]
    if any(c.status == "fail" for c in conds):
        overall = "FailWitness"
    elif any(c.status == "inconclusive" for c in conds):
        overall = "Inconclusive"
    else:
        overall = "PassEvidence"
    return StabilityReport(cond_a, cond_b, cond_c, cond_d, overall)


def _umbilic_verdict(records):
    """Condition (a) from the classified umbilics: a non-Darbouxian one is
    a witness; an unclassified one (its Monge form failed) leaves (a)
    "inconclusive"."""
    bad = [r for r in records
           if r.type not in ("D1", "D2", "D3", umbilics.UNCLASSIFIED)]
    unclassified = [r for r in records if r.type == umbilics.UNCLASSIFIED]
    if bad:
        return ConditionVerdict(
            "a", "fail",
            f"{len(bad)} of {len(records)} umbilics non-Darbouxian",
            [r.summary() for r in bad])
    if unclassified:
        return ConditionVerdict(
            "a", "inconclusive",
            f"{len(unclassified)} of {len(records)} umbilics unclassified",
            [r.summary() for r in unclassified])
    return ConditionVerdict(
        "a", "pass", f"all {len(records)} umbilics Darbouxian", [])


def _cycle_verdict(found_cycles, log):
    """Condition (b) from a cycle search: a cycle that is not hyperbolic is
    a witness.  "pass" needs every seed to have given a cycle or a
    duplicate of one; a seed dropped for any other reason leaves (b)
    "inconclusive".  The dropped seeds are quoted, counted by the reason in
    the search's ``log``."""
    non_hyp = [c for c in found_cycles if not c.hyperbolic]
    reasons = Counter(reason for _fol, _seed, reason in log.dropped)
    dropped = [f"{n} seed(s) dropped: {reason}"
               for reason, n in reasons.most_common()]
    if non_hyp:
        return ConditionVerdict(
            "b", "fail",
            f"{len(non_hyp)} of {len(found_cycles)} cycles not hyperbolic",
            [f"{c.foliation_id} cycle, log T' = {c.log_tprime():.3e}"
             for c in non_hyp] + dropped)
    detail = f"{len(found_cycles)} cycle(s) found, all hyperbolic"
    undecided = len(log.undecided())
    if undecided:
        seeds = len(found_cycles) + len(log.dropped)
        return ConditionVerdict(
            "b", "inconclusive",
            f"{detail}, but {undecided} of {seeds} seed(s) gave no cycle",
            dropped)
    return ConditionVerdict("b", "pass", detail, dropped)


def _omega_verdict(results):
    """Condition (d) from the limit-set verdicts of the sampled lines:
    recurrence evidence is a witness; "pass" needs every line decided (it
    ends at an umbilic, closes, or approaches a known cycle)."""
    recurrent = [r.detail for r in results if r.recurrent_evidence]
    if recurrent:
        return ConditionVerdict(
            "d", "fail", f"recurrent evidence on {len(recurrent)} trace(s)",
            recurrent)
    n = Counter(r.verdict for r in results)
    undetermined = n["RecurrentOrUndetermined"]
    return ConditionVerdict(
        "d", "inconclusive" if undetermined else "pass",
        f"no recurrence witness: of {len(results)} trace(s), "
        f"{n['Umbilic']} reach an umbilic, {n['Cycle']} a cycle and "
        f"{undetermined} are undetermined", [])


def _connection_verdict(scan):
    """Condition (c) from a connection scan: a connection is a witness;
    "pass" needs every separatrix decided by its measured gap."""
    if scan.connections:
        return ConditionVerdict(
            "c", "fail", f"{len(scan.connections)} separatrix connection(s)",
            [_connection_witness(scan, key) for key in scan.connections])
    if scan.undetermined:
        return ConditionVerdict(
            "c", "inconclusive",
            f"no separatrix connection found, but "
            f"{len(scan.undetermined)} of {scan.launches} separatrices "
            f"undetermined", [])
    detail = "no separatrix connections"
    if scan.gaps:
        closest = min(scan.gaps, key=lambda g: g.gap)
        detail += (f": all {scan.launches} separatrices miss, closest "
                   f"{_gap_text(closest)}")
    return ConditionVerdict("c", "pass", detail, [])


def _gap_text(g):
    return (f"|gap| {g.gap:.2e} diam vs bound {g.bound:.2e} diam "
            f"(umbilic {g.umbilic} {g.foliation_id} -> umbilic {g.near})")


def _connection_witness(scan, key):
    i, j, fol = key
    seps = [g for g in scan.gaps
            if g.foliation_id == fol and g.within_bound
            and {g.umbilic, g.near} == {i, j}]
    return (f"umbilic {i} - umbilic {j} ({fol}): "
            + "; ".join(_gap_text(g) for g in seps))


def _low_discrepancy_seeds(surface, count, rng, umbilic_records, salt=0):
    """Deterministic seed points spread over the domain, off umbilics.

    Each point is folded onto the surface's sheet (the chart's ``fold``),
    where a seed's minimal field is the surface's.
    """
    (u0, u1), (v0, v1) = surface.domain
    diam = surface.diameter()
    fold = getattr(surface, "fold", None)
    keep = []
    g = 0.6180339887498949
    offset = float(rng.uniform(0, 1)) + 0.37 * salt
    i = 0
    while len(keep) < count and i < 20 * count + 50:
        fu = (offset + g * i) % 1.0
        fv = (0.5 + 0.7548776662466927 * (i + offset)) % 1.0
        u = u0 + (0.08 + 0.84 * fu) * (u1 - u0)
        v = v0 + (0.08 + 0.84 * fv) * (v1 - v0)
        if fold is not None:
            u, v = fold(u, v)
        i += 1
        p = surface.point(u, v)
        ok = True
        for rec in umbilic_records or []:
            if np.linalg.norm(p - rec.xyz) < 5e-3 * diam:
                ok = False
                break
        if ok:
            keep.append((u, v))
    return keep
