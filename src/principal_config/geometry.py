"""Surface representations and pointwise curvature quantities.

Two surface flavors are supported:

* ``SurfaceChart``: an immersion ``(u, v) -> R^3`` assembled from separable
  terms ``w * U(u) * V(v)`` so that every partial derivative through order 3
  is analytic (see :mod:`principal_config.jets`).  Subclasses may override
  the jet, as the rotated-cap ellipsoid does in closed form.
* ``ImplicitSurface``: a level set ``f = level`` with analytic gradient
  and Hessian, each evaluated at one point of shape (3,).

The chart routines run one copy of their arithmetic on python floats and
on arrays broadcast over point axes (:func:`chart_forms`);
``PrincipalData`` is a scalar record on top of them.  The implicit
routines take one point and run on python floats.  Everything here
is immutable after construction and free of shared mutable state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, CriticalPointError,
                     RegularityError, UmbilicReferenceError)
from .jets import ORDER, Harmonics

MINIMAL = "minimal"
MAXIMAL = "maximal"

DIRECTION_TOL_FACTOR = 1e-7
REGULARITY_FLOOR_FACTOR = 1e-10


# ---------------------------------------------------------------------------
# surface types
# ---------------------------------------------------------------------------

class SurfaceChart:
    """Immersed chart with analytic partial derivatives through order 3.

    Parameters
    ----------
    terms : sequence of (U, V, weight)
        Separable decomposition of the immersion: ``sum_i w_i U_i(u) V_i(v)``
        with Harmonics or Poly factors (:mod:`principal_config.jets`).
        Subclasses that override :meth:`jet` pass no terms.
    domain : ((u0, u1), (v0, v1))
        Parameter rectangle.
    periodic_u, periodic_v : bool
        Periodicity flags; periodic axes never trigger domain exits and the
        tracer keeps coordinates unwrapped.
    orientation : +1 or -1
        Unit normal convention: ``n = orientation * (a_u x a_v)/|.|``.
    """

    def __init__(self, terms, domain, periodic_u=False, periodic_v=False,
                 orientation=1, name="chart", params=None,
                 euler_characteristic=None, diameter_hint=None):
        self.terms = tuple((tu, tv, np.asarray(w, dtype=float))
                           for tu, tv, w in terms)
        self.domain = (tuple(map(float, domain[0])),
                       tuple(map(float, domain[1])))
        self.periodic_u = bool(periodic_u)
        self.periodic_v = bool(periodic_v)
        self.orientation = int(orientation)
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        self.name = name
        self.params = dict(params or {})
        self.euler_characteristic = euler_characteristic
        self._diameter = diameter_hint
        self._build_tables()

    def _build_tables(self):
        """The evaluation tables of the terms, one per variable
        (:func:`_harmonic_table`).  The term weights are folded into the u
        table: its product with a point's row is ``U_t^(i)(u) * w_t[c]``
        for every derivative i, coordinate c and term t.  Charts whose
        subclass overrides :meth:`jet` have no terms and no tables.
        """
        self._tables = None
        if not self.terms:
            return
        factors_u, factors_v, weights = zip(*self.terms)
        freq_u, phase_u, M_u = _harmonic_table(factors_u)
        freq_v, phase_v, M_v = _harmonic_table(factors_v)
        W = np.stack(weights)                                     # (T, 3)
        # columns (i, c, t) of the u table and (t, j) of the v table
        MW = (M_u[:, :, None, :] * W.T).reshape(len(M_u), -1)
        MV = M_v.transpose(0, 2, 1).reshape(len(M_v), -1)
        self._tables = ((freq_u, phase_u, MW), (freq_v, phase_v, MV))
        # the float path's copies: (freq, phase) pairs as python floats
        self._float_atoms = tuple(tuple(zip(f.tolist(), p.tolist()))
                                  for f, p, _ in self._tables)

    # -- evaluation --------------------------------------------------------

    def jet(self, u, v):
        """Full derivative tensor, shape ``(4, 4) + pts + (3,)``.

        ``jet[i, j]`` is the mixed partial d^(i+j) P / du^i dv^j for
        ``i + j <= 3``; higher slots are computed but unused.  Each variable
        has one table (:func:`_harmonic_table`): a point's row of cosines,
        sines and powers of u times the u table gives ``U_t^(i)(u) w_t`` for
        every term t, the same row of v times the v table gives
        ``V_t^(j)(v)``, and the jet is their contraction over t.  Points are
        the leading axis of every product and each point is multiplied by
        its own small matrices, so point i of a batch is bit-identical to
        the same point evaluated alone.

        Python floats (a scalar trace's one point) build their two rows
        with ``math`` (:func:`_float_side`) and skip numpy's elementwise
        calls, which cost more than the arithmetic at one point; the rows
        then go through the same three products as a one-point batch, so
        the float jet is bit-identical to the batch jet too.
        """
        table_u, table_v = self._tables
        n_terms = len(self.terms)
        if isinstance(u, float) and isinstance(v, float):
            atoms_u, atoms_v = self._float_atoms
            UW = _float_side(atoms_u, table_u[2], float(u)).reshape(
                1, 3 * ORDER, n_terms)
            V = _float_side(atoms_v, table_v[2], float(v)).reshape(
                1, n_terms, ORDER)
            return np.matmul(UW, V).reshape(ORDER, 3, ORDER).transpose(0, 2, 1)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pts = (u.shape if u.shape == v.shape
               else np.broadcast_shapes(u.shape, v.shape))
        u = (u if u.shape == pts else np.broadcast_to(u, pts)).reshape(-1)
        v = (v if v.shape == pts else np.broadcast_to(v, pts)).reshape(-1)
        n = len(u)
        UW = _harmonic_side(*table_u, u).reshape(n, 3 * ORDER, n_terms)
        V = _harmonic_side(*table_v, v).reshape(n, n_terms, ORDER)
        # out[n, (i, c), j] = sum_t UW[n, (i, c), t] V[n, t, j]
        out = np.matmul(UW, V)
        return out.reshape(n, ORDER, 3, ORDER).transpose(1, 3, 0, 2).reshape(
            (ORDER, ORDER) + pts + (3,))

    def point(self, u, v):
        return self.jet(u, v)[0, 0]

    def with_orientation(self, orientation):
        """The same chart with unit-normal convention ``orientation``; the
        class and all state of the chart (its jet, ``fold``,
        ``rebase_state``) are kept."""
        if orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        flipped = copy.copy(self)
        flipped.orientation = int(orientation)
        return flipped

    # -- geometry helpers ---------------------------------------------------

    def diameter(self):
        """World-space diameter estimate (bounding-box diagonal)."""
        if self._diameter is None:
            (u0, u1), (v0, v1) = self.domain
            uu, vv = np.meshgrid(np.linspace(u0, u1, 17),
                                 np.linspace(v0, v1, 17), indexing="ij")
            p = self.point(uu, vv).reshape(-1, 3)
            self._diameter = float(np.linalg.norm(p.max(0) - p.min(0)))
        return self._diameter

    def regularity_floor(self):
        d = max(self.diameter(), 1e-12)
        return REGULARITY_FLOOR_FACTOR * d * d

    def in_domain(self, u, v):
        (u0, u1), (v0, v1) = self.domain
        ok = True
        if not self.periodic_u:
            ok = ok and (u0 <= u <= u1)
        if not self.periodic_v:
            ok = ok and (v0 <= v <= v1)
        return ok

    def __repr__(self):
        return f"SurfaceChart({self.name}, params={self.params})"


# cos(theta + m pi/2) for m = 0..3 (mod 4): cos, -sin, -cos, sin; the
# derivatives of cos in turn
_COS_SIGNS = (1.0, -1.0, -1.0, 1.0)
_QUARTER_TURN = 0.5 * math.pi
_QUARTER_TURN_TOL = 1e-15   # a phase this close to k*pi/2 is folded


def _harmonic_table(funcs):
    """(freq, phase, M) of the factors ``funcs`` of one variable.

    A point x has the row ``cos(x*freq + phase)``, ``sin(x*freq +
    phase)`` (A atoms each), then ``x, x**2, ..., x**D`` for the top Poly
    degree D.  M, of shape (2A + D, 4, T), maps that row to derivative k
    of factor t.  An atom ``amp cos(f x + p)`` whose phase is k*pi/2 (to
    1e-15, a few ulps) is read off cos(f x) and sin(f x): derivative d is
    amp * f**d times cos(f x) or sin(f x) with the exact sign of the
    quarter turns k + d.  So those atoms share one atom per frequency, and
    f = 0 gives exactly 1 and 0.  Other phases keep one atom per distinct
    (freq, phase) pair.  A Poly coefficient c_m enters derivative d as
    c_m * m!/(m-d)! on the row of x**(m-d), where x**0 is cos(0 x) = 1.
    """
    trig = {}       # (freq, phase) -> [(t, k, quarter turns, coefficient)]
    powers = []     # (t, k, power, coefficient), power >= 1
    for t, fn in enumerate(funcs):
        if isinstance(fn, Harmonics):
            for f, p, a in zip(fn.freq.tolist(), fn.phase.tolist(),
                               fn.amp.tolist()):
                turns = round(p / _QUARTER_TURN)
                if abs(p - turns * _QUARTER_TURN) <= _QUARTER_TURN_TOL:
                    p = 0.0
                else:
                    turns = 0
                trig.setdefault((f, p), []).extend(
                    (t, k, turns + k, a * f ** k) for k in range(ORDER))
            continue
        c = fn.coeffs.tolist()
        for k in range(ORDER):
            for m in range(k, len(c)):
                entry = (t, k, m - k, c[m] * math.perm(m, k))
                if m == k:
                    trig.setdefault((0.0, 0.0), []).append(entry)
                else:
                    powers.append(entry)
    atoms = sorted(trig)
    n_atoms = len(atoms)
    degree = max((j for _, _, j, _ in powers), default=0)
    M = np.zeros((2 * n_atoms + degree, ORDER, len(funcs)))
    for a, key in enumerate(atoms):
        for t, k, turns, coef in trig[key]:
            M[a + n_atoms * (turns % 2), k, t] += _COS_SIGNS[turns % 4] * coef
    for t, k, j, coef in powers:
        M[2 * n_atoms + j - 1, k, t] += coef
    freq, phase = (np.array(col, dtype=float) for col in zip(*atoms))
    return freq, phase, M


def _float_side(atoms, M, x):
    """:func:`_harmonic_side` for one python float ``x``: the row is built
    with ``math`` from the table's (freq, phase) ``atoms`` (the same
    angles ``x*freq + phase``, cosines, sines and running powers), then
    takes the same (1, 1, 2A + D) product with M, so the result equals
    that function's bit for bit."""
    theta = [x * f + p for f, p in atoms]
    row = [math.cos(t) for t in theta]
    row += [math.sin(t) for t in theta]
    power = x
    while len(row) < len(M):
        row.append(power)
        power = power * x
    return np.matmul(np.array(row).reshape(1, 1, len(M)), M)


def _harmonic_side(freq, phase, M, x):
    """(N, 1, C) products of N points' rows with one table's matrix M of
    shape (2A + D, C) (:func:`_harmonic_table`).

    One cos and one sin per atom and D powers per point; each point's
    (1, 2A + D) row is multiplied by M on its own, so a batch point is
    bit-identical to the point alone.
    """
    n, n_atoms = len(x), len(freq)
    theta = x[:, None] * freq + phase
    row = np.empty((n, 1, len(M)))
    np.cos(theta, out=row[:, 0, :n_atoms])
    np.sin(theta, out=row[:, 0, n_atoms:2 * n_atoms])
    if len(M) > 2 * n_atoms:
        row[:, 0, 2 * n_atoms] = x
        for j in range(2 * n_atoms + 1, len(M)):
            np.multiply(row[:, 0, j - 1], x, out=row[:, 0, j])
    return np.matmul(row, M)


@dataclass(frozen=True)
class ImplicitSurface:
    """Level set ``f = level`` with analytic derivatives.

    ``f``, ``grad`` and ``hess`` take one point as a float triple
    (x, y, z) and return a float, a 3-tuple and a 3x3 nested tuple of
    floats, so the tracer's field stays on python floats.  The methods
    below take a point as a (3,) array or any array-like.
    ``orientation=+1`` picks the unit
    normal along ``grad f`` (outward for the standard closed quadrics),
    ``-1`` the opposite."""

    f: Callable
    grad: Callable
    hess: Callable
    level: float = 0.0
    bounding_box: tuple = ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
    orientation: int = 1
    name: str = "implicit"
    params: dict = field(default_factory=dict)
    on_surface_tol: float = 1e-8

    def __post_init__(self):
        # the tracer asks for the diameter at every step
        lo, hi = (np.asarray(b, dtype=float) for b in self.bounding_box)
        diameter = float(np.linalg.norm(hi - lo))
        object.__setattr__(self, "_diameter", diameter)
        object.__setattr__(self, "_floor",
                           REGULARITY_FLOOR_FACTOR * max(diameter, 1e-12))

    def value(self, p):
        """``f(p) - level``; the tracer's float triple goes to ``f`` as it
        is, arrays and other sequences as a list of floats."""
        if type(p) is not tuple:
            p = np.asarray(p, dtype=float).tolist()
        return float(self.f(p)) - self.level

    def diameter(self):
        return self._diameter

    def regularity_floor(self):
        return self._floor

    def project(self, p, tol=1e-12, max_iter=12):
        """Newton projection along the gradient onto the level set.

        Raises ConvergenceError if ``max_iter`` steps do not reach it."""
        p = np.array(p, dtype=float)
        scale = max(self._diameter, 1.0)
        for _ in range(max_iter):
            val = self.value(p)
            if abs(val) < tol * scale:
                return p
            gx, gy, gz = self.grad(p.tolist())
            p = p - val * np.array((gx, gy, gz)) / max(
                gx * gx + gy * gy + gz * gz, 1e-300)
        raise ConvergenceError(
            f"no projection onto {self.name} in {max_iter} Newton steps")

    def in_box(self, p):
        """Whether the float triple ``p`` lies in the bounding box."""
        (x0, y0, z0), (x1, y1, z1) = self.bounding_box
        x, y, z = p
        return x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1


# ---------------------------------------------------------------------------
# pointwise data records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrincipalData:
    """Principal curvatures/directions with k1 <= k2.

    Directions are unit vectors defined up to sign; they carry both chart
    coefficients (``*_uv``, in the a_u, a_v basis) and world components
    (``*_xyz``).  Off-chart (implicit) data leaves the uv slots as None.
    When ``directions_defined`` is False the point was flagged umbilic and
    the direction fields must not be used.
    """

    k1: float
    k2: float
    H: float
    K: float
    umbilic_deviation: float
    directions_defined: bool
    d1_uv: np.ndarray = None
    d2_uv: np.ndarray = None
    d1_xyz: np.ndarray = None
    d2_xyz: np.ndarray = None
    normal: np.ndarray = None
    point: np.ndarray = None
    at_point: tuple = None


# ---------------------------------------------------------------------------
# shape-operator kernel
# ---------------------------------------------------------------------------
#
# The kernel is plain arithmetic, so one code path serves python floats (the
# tracer's single points) and numpy arrays (batches); only the elementary
# functions are picked per input type.

_FLOAT_FNS = SimpleNamespace(sqrt=math.sqrt, hypot=math.hypot,
                             atan2=math.atan2, cos=math.cos, sin=math.sin,
                             clip=lambda x, lo, hi: min(max(x, lo), hi),
                             where=lambda c, x, y: x if c else y)
_ARRAY_FNS = SimpleNamespace(sqrt=np.sqrt, hypot=np.hypot, atan2=np.arctan2,
                             cos=np.cos, sin=np.sin, clip=np.clip,
                             where=np.where)


def _fns(x):
    """Elementary functions for ``x``: math for python floats, else numpy."""
    return _FLOAT_FNS if type(x) is float else _ARRAY_FNS


def frame_operator(E, F, G, e, f, g):
    """Shape operator in the Gram-Schmidt orthonormal tangent frame.

    The frame is e1 = a_u / sqrt(E), e2 = (a_v - (F/E) a_u) / sqrt(m) with
    m = G - F^2/E.  Returns the operator (w11, w12, w22) and the frame's
    chart coefficients (e1_u, e2_u, e2_v); e1 has no a_v part.
    """
    sqrt = _fns(E).sqrt
    m = G - F * F / E
    r = F / E
    w11 = e / E
    w12 = (f - r * e) / sqrt(E * m)
    w22 = (g - 2.0 * r * f + r ** 2 * e) / m
    inv_sm = 1.0 / sqrt(m)
    return (w11, w12, w22), (1.0 / sqrt(E), -r * inv_sm, inv_sm)


def shape_operator_eigen(w11, w12, w22):
    """(k1, k2, H, K, phi) of the symmetric operator [[w11, w12], [w12, w22]].

    k1 <= k2 by construction; phi is the angle of the minimal direction
    from e1 (:func:`principal_angle`), and exact ties fall on e1.  Negating
    the operator (a flip of the normal) negates and swaps k1 and k2
    exactly.
    """
    mu = 0.5 * (w11 + w22)
    half_gap = _fns(w11).hypot(0.5 * (w11 - w22), w12)
    return (mu - half_gap, mu + half_gap, mu, w11 * w22 - w12 * w12,
            principal_angle(w11, w12, w22))


def principal_angle(w11, w12, w22):
    """Angle of the minimal direction of [[w11, w12], [w12, w22]] from e1;
    exact ties fall on e1."""
    return 0.5 * _fns(w11).atan2(-2.0 * w12, w22 - w11)


def principal_direction_uv(phi, frame, minimal):
    """Chart coefficients (d_u, d_v) of one unit principal direction: the
    minimal one at angle ``phi`` from e1 of ``frame`` where ``minimal``
    holds, else the maximal one, a quarter turn on.  ``minimal`` is a bool,
    or a bool array over the points of array inputs."""
    fn = _fns(phi)
    e1u, e2u, e2v = frame
    c, s = fn.cos(phi), fn.sin(phi)
    a, b = fn.where(minimal, c, -s), fn.where(minimal, s, c)
    return a * e1u + b * e2u, b * e2v


def principal_uv(phi, frame):
    """Chart coefficients ((d1_u, d1_v), (d2_u, d2_v)) of the unit minimal
    and maximal directions at angle ``phi`` from e1 of ``frame``."""
    return (principal_direction_uv(phi, frame, True),
            principal_direction_uv(phi, frame, False))


# ---------------------------------------------------------------------------
# chart core
# ---------------------------------------------------------------------------

def chart_forms(surface, u, v):
    """The jet-to-forms arithmetic of every chart evaluator, written per
    component, so one copy serves python floats and numpy arrays.

    On python floats ``u``, ``v`` the jet is read with ``.tolist()`` and
    every output is a python float; a point where |a_u x a_v| is at or
    below the regularity floor raises RegularityError.  On arrays the
    jet's component axis is moved next to (i, j) and every output is
    broadcast over the point axes; ``bad`` marks the points at the floor,
    which get |W| = 1 and a unit first form (E = G = 1, F = 0) so that
    later arithmetic stays finite, and callers turn their outputs into
    NaN.

    Returns (J, n, wn, bad, (E, F, G, e, f, g)).  ``J[i][j]`` is the
    component triple of d^(i+j) P / du^i dv^j, so ``J[0][0]`` is the point
    and ``J[1][0]``, ``J[0][1]`` are a_u, a_v.  n is the unit normal
    ``(orientation / wn) * W`` as a triple, with W = a_u x a_v and wn =
    |W|.  On floats ``bad`` is False.  Both paths run the same operations
    in the same order, so a float point equals the same point of a batch
    bit for bit.
    """
    J = surface.jet(u, v)
    floats = isinstance(u, float) and isinstance(v, float)
    J = (J.tolist() if floats
         else J.transpose(0, 1, J.ndim - 1, *range(2, J.ndim - 1)))
    (ux, uy, uz), (vx, vy, vz) = J[1][0], J[0][1]
    wx, wy, wz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    wn = (math.sqrt if floats else np.sqrt)(wx * wx + wy * wy + wz * wz)
    floor = surface.regularity_floor()
    bad = wn <= floor
    if floats and bad:
        raise RegularityError(
            f"|a_u x a_v| <= {floor:.3e} at ({u}, {v}) on {surface.name}")
    any_bad = not floats and bad.any()
    if any_bad:
        wn = np.where(bad, 1.0, wn)
    sig = surface.orientation / wn
    nx, ny, nz = sig * wx, sig * wy, sig * wz

    ruu, ruv, rvv = J[2][0], J[1][1], J[0][2]
    E = ux * ux + uy * uy + uz * uz
    F = ux * vx + uy * vy + uz * vz
    G = vx * vx + vy * vy + vz * vz
    e = nx * ruu[0] + ny * ruu[1] + nz * ruu[2]
    f = nx * ruv[0] + ny * ruv[1] + nz * ruv[2]
    g = nx * rvv[0] + ny * rvv[1] + nz * rvv[2]
    if any_bad:
        E, F, G = (np.where(bad, 1.0, E), np.where(bad, 0.0, F),
                   np.where(bad, 1.0, G))
    return J, (nx, ny, nz), wn, bad, (E, F, G, e, f, g)


def _points_last(x):
    """Components of shape pts (a component-first array, or a tuple of
    arrays) as one array of shape pts + (components,)."""
    x = np.asarray(x)
    return x.transpose(*range(1, x.ndim), 0)


def chart_bundle(surface, u, v, strict=True):
    """All pointwise curvature data, broadcast over point axes.

    Returns a dict of arrays: r, ru, rv, normal, E..g, k1, k2, H, K,
    d1_uv, d2_uv, d1_xyz, d2_xyz, umbilic_deviation, direction_tol.
    ``u`` and ``v`` are taken as arrays, python floats included.
    With ``strict`` a regularity violation raises; otherwise offending
    points yield NaNs (used by coarse grid scans).
    """
    J, n, _, bad, forms = chart_forms(surface, np.asarray(u, dtype=float),
                                      np.asarray(v, dtype=float))
    any_bad = bool(np.any(bad))
    if strict and any_bad:
        raise RegularityError(
            f"|a_u x a_v| <= {surface.regularity_floor():.3e} at a "
            f"requested point of {surface.name}")
    E, F, G, e, f, g = forms
    r, ru, rv, n = map(_points_last, (J[0, 0], J[1, 0], J[0, 1], n))

    w, frame = frame_operator(*forms)
    k1, k2, H, K, phi = shape_operator_eigen(*w)
    d1_uv, d2_uv = map(_points_last, principal_uv(phi, frame))
    d1_xyz = d1_uv[..., :1] * ru + d1_uv[..., 1:] * rv
    d2_xyz = d2_uv[..., :1] * ru + d2_uv[..., 1:] * rv

    dev = k2 - k1
    tol = DIRECTION_TOL_FACTOR * np.maximum(
        np.maximum(np.abs(k1), np.abs(k2)), 1.0)

    if any_bad:
        # a unit frame at failed points; all their outputs become NaN
        fill = np.where(bad, np.nan, 1.0)
        E, F, G, e, f, g, k1, k2, H, K, dev = (
            x * fill for x in (E, F, G, e, f, g, k1, k2, H, K, dev))
        n, d1_xyz, d2_xyz, d1_uv, d2_uv = (
            x * fill[..., None] for x in (n, d1_xyz, d2_xyz, d1_uv, d2_uv))

    return {
        "r": r, "ru": ru, "rv": rv, "normal": n,
        "E": E, "F": F, "G": G, "e": e, "f": f, "g": g,
        "k1": k1, "k2": k2, "H": H, "K": K,
        "d1_uv": d1_uv, "d2_uv": d2_uv,
        "d1_xyz": d1_xyz, "d2_xyz": d2_xyz,
        "umbilic_deviation": dev, "direction_tol": tol,
    }


def principal_direction_fast(surface, u, v, minimal):
    """The scalar tracer's line field at python floats ``u``, ``v``:
    :func:`chart_forms` and the pick of one direction
    (:func:`principal_direction_uv`), with no eigenvalues formed.
    Returns float tuples: (du, dv), the point, the world direction and the
    unit normal.

    Raises RegularityError at immersion failures.
    """
    J, n, _, _, forms = chart_forms(surface, u, v)
    w, frame = frame_operator(*forms)
    du, dv = principal_direction_uv(principal_angle(*w), frame, minimal)
    (rx, ry, rz), (ux, uy, uz), (vx, vy, vz) = J[0][0], J[1][0], J[0][1]
    return ((du, dv), (rx, ry, rz),
            (du * ux + dv * vx, du * uy + dv * vy, du * uz + dv * vz), n)


def principal_at(surface, u, v):
    """PrincipalData of a chart at one point, read off one
    :func:`chart_bundle` call.  Raises RegularityError at immersion
    failures."""
    u, v = float(u), float(v)
    b = chart_bundle(surface, u, v)
    dev = float(b["umbilic_deviation"])
    return PrincipalData(
        k1=float(b["k1"]), k2=float(b["k2"]), H=float(b["H"]),
        K=float(b["K"]), umbilic_deviation=dev,
        directions_defined=bool(dev > b["direction_tol"]),
        d1_uv=b["d1_uv"], d2_uv=b["d2_uv"], d1_xyz=b["d1_xyz"],
        d2_xyz=b["d2_xyz"], normal=b["normal"], point=b["r"],
        at_point=(u, v))


def normal_curvature(pd, theta):
    """Normal curvature at angle ``theta`` from the minimal direction."""
    if not pd.directions_defined:
        raise UmbilicReferenceError(
            "principal directions undefined at an umbilic point")
    c, s = np.cos(theta), np.sin(theta)
    return pd.k1 * c * c + pd.k2 * s * s


# ---------------------------------------------------------------------------
# implicit surfaces
# ---------------------------------------------------------------------------

def implicit_frame(surface, xyz):
    """The gradient-to-operator prefix of a level set at the float triple
    ``xyz``, shared by :func:`implicit_bundle` and the tracer's line field
    (``foliation._implicit_field``) as :func:`chart_forms` is shared by
    the chart paths, so both run this one copy of the arithmetic.

    Runs on python floats: the surface's ``grad`` and ``hess`` get
    ``xyz``.  The unit normal n follows ``grad f`` times the orientation;
    the tangent t is Gram-Schmidt of the axis of the smallest |n_i| (the
    first on ties) and b = n x t.  Returns n, t, b and the shape operator
    (w11, w12, w22) in the frame (t, b), each a float triple.

    Raises CriticalPointError where |grad f| is at or below the surface's
    regularity floor.
    """
    gx, gy, gz = surface.grad(xyz)
    gn = math.sqrt(gx * gx + gy * gy + gz * gz)
    floor = surface.regularity_floor()
    if gn <= floor:
        raise CriticalPointError(
            f"|grad f| <= {floor:.3e}: point rejected as critical on "
            f"{surface.name}")

    o = surface.orientation
    nx, ny, nz = o * gx / gn, o * gy / gn, o * gz / gn
    # t = e_k - n_k n on the axis k of the smallest |n_k|, then normalized;
    # 0.0 - x keeps its zeros unsigned
    if abs(nx) <= abs(ny) and abs(nx) <= abs(nz):
        tx, ty, tz = 1.0 - nx * nx, 0.0 - nx * ny, 0.0 - nx * nz
    elif abs(ny) <= abs(nz):
        tx, ty, tz = 0.0 - ny * nx, 1.0 - ny * ny, 0.0 - ny * nz
    else:
        tx, ty, tz = 0.0 - nz * nx, 0.0 - nz * ny, 1.0 - nz * nz
    tn = math.sqrt(tx * tx + ty * ty + tz * tz)
    tx, ty, tz = tx / tn, ty / tn, tz / tn
    bx, by, bz = ny * tz - nz * ty, nz * tx - nx * tz, nx * ty - ny * tx
    (hxx, hxy, hxz), (hyx, hyy, hyz), (hzx, hzy, hzz) = surface.hess(xyz)
    htx = hxx * tx + hxy * ty + hxz * tz
    hty = hyx * tx + hyy * ty + hyz * tz
    htz = hzx * tx + hzy * ty + hzz * tz
    hbx = hxx * bx + hxy * by + hxz * bz
    hby = hyx * bx + hyy * by + hyz * bz
    hbz = hzx * bx + hzy * by + hzz * bz

    scale = -o / gn
    return ((nx, ny, nz), (tx, ty, tz), (bx, by, bz),
            (scale * (tx * htx + ty * hty + tz * htz),
             scale * (tx * hbx + ty * hby + tz * hbz),
             scale * (bx * hbx + by * hby + bz * hbz)))


def implicit_bundle(surface, p):
    """Curvature data of a level set at one point ``p``: a float triple or
    an array of shape (3,) on the level set.

    :func:`implicit_frame` on the float triple of ``p``, then the
    operator's eigen-solve by :func:`shape_operator_eigen`; ``normal``,
    ``d1_xyz`` and ``d2_xyz`` come back as float triples.  The tracer's
    line field forms only its own direction from the same frame, and equals
    ``d1_xyz`` or ``d2_xyz`` here bit for bit.  Raises CriticalPointError
    at a critical point or off the level set.
    """
    xyz = (float(p[0]), float(p[1]), float(p[2]))
    n, (tx, ty, tz), (bx, by, bz), w = implicit_frame(surface, xyz)
    val = abs(surface.value(xyz))
    if val > surface.on_surface_tol * max(surface.diameter(), 1.0):
        raise CriticalPointError(f"point off the level set by {val:.3e}")

    k1, k2, H, K, phi = shape_operator_eigen(*w)
    c, s = math.cos(phi), math.sin(phi)
    return {
        "normal": n,
        "k1": k1, "k2": k2, "H": H, "K": K,
        "d1_xyz": (c * tx + s * bx, c * ty + s * by, c * tz + s * bz),
        "d2_xyz": (-s * tx + c * bx, -s * ty + c * by, -s * tz + c * bz),
        "umbilic_deviation": k2 - k1,
        "direction_tol": DIRECTION_TOL_FACTOR * max(abs(k1), abs(k2), 1.0),
    }


def implicit_principal_data(surface, p):
    """PrincipalData of the level set at a single on-surface point."""
    b = implicit_bundle(surface, p)
    dev = b["umbilic_deviation"]
    return PrincipalData(
        k1=b["k1"], k2=b["k2"], H=b["H"], K=b["K"], umbilic_deviation=dev,
        directions_defined=dev > b["direction_tol"],
        d1_xyz=np.array(b["d1_xyz"]), d2_xyz=np.array(b["d2_xyz"]),
        normal=np.array(b["normal"]), point=np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# curvature gradients (needs third-order partials)
# ---------------------------------------------------------------------------

def curvature_gradients(surface, u, v):
    """H, K and their (u, v) gradients, plus k2 gradient, broadcastable.

    The gradients come from differentiating the form-coefficient quotients,
    which pulls in the third-order chart partials; the zeroth-order terms
    (n, |W|, E..g) are :func:`chart_forms`'s.  Used by the return-map
    line integrals and by umbilic refinement.  At a point at the
    regularity floor every output is NaN on arrays, and python floats
    raise RegularityError.
    """
    J, n, wn, bad, (E, F, G, e, f, g) = chart_forms(surface, u, v)
    ru, rv = J[1][0], J[0][1]
    ruu, ruv, rvv = J[2][0], J[1][1], J[0][2]
    ruuu, ruuv, ruvv, rvvv = J[3][0], J[2][1], J[1][2], J[0][3]

    dot = _dot
    Eu, Ev = 2 * dot(ru, ruu), 2 * dot(ru, ruv)
    Fu, Fv = dot(ruu, rv) + dot(ru, ruv), dot(ruv, rv) + dot(ru, rvv)
    Gu, Gv = 2 * dot(rv, ruv), 2 * dot(rv, rvv)

    # n = sig W with sig = orientation / |W|, so n_u = sig (W_u - n (n.W_u))
    Wu = [a + b for a, b in zip(_cross(ruu, rv), _cross(ru, ruv))]
    Wv = [a + b for a, b in zip(_cross(ruv, rv), _cross(ru, rvv))]
    sig = surface.orientation / wn
    nWu, nWv = dot(n, Wu), dot(n, Wv)
    nu = [sig * (a - c * nWu) for a, c in zip(Wu, n)]
    nv = [sig * (a - c * nWv) for a, c in zip(Wv, n)]

    eu = dot(nu, ruu) + dot(n, ruuu)
    ev = dot(nv, ruu) + dot(n, ruuv)
    fu = dot(nu, ruv) + dot(n, ruuv)
    fv = dot(nv, ruv) + dot(n, ruvv)
    gu = dot(nu, rvv) + dot(n, ruvv)
    gv = dot(nv, rvv) + dot(n, rvvv)

    D = E * G - F * F
    Du = Eu * G + E * Gu - 2 * F * Fu
    Dv = Ev * G + E * Gv - 2 * F * Fv

    numH = E * g - 2 * F * f + G * e
    numHu = Eu * g + E * gu - 2 * (Fu * f + F * fu) + Gu * e + G * eu
    numHv = Ev * g + E * gv - 2 * (Fv * f + F * fv) + Gv * e + G * ev
    H = numH / (2 * D)
    Hu = (numHu * D - numH * Du) / (2 * D * D)
    Hv = (numHv * D - numH * Dv) / (2 * D * D)

    numK = e * g - f * f
    numKu = eu * g + e * gu - 2 * f * fu
    numKv = ev * g + e * gv - 2 * f * fv
    K = numK / D
    Ku = (numKu * D - numK * Du) / (D * D)
    Kv = (numKv * D - numK * Dv) / (D * D)

    disc = np.sqrt(np.maximum(H * H - K, 0.0))
    safe = np.maximum(disc, 1e-300)
    k2u = Hu + (H * Hu - 0.5 * Ku) / safe
    k2v = Hv + (H * Hv - 0.5 * Kv) / safe
    out = {
        "H": H, "K": K, "H_u": Hu, "H_v": Hv, "K_u": Ku, "K_v": Kv,
        "sqrt_disc": disc, "k2_u": k2u, "k2_v": k2v,
    }
    if np.any(bad):
        out = {key: np.where(bad, np.nan, x) for key, x in out.items()}
    return out


def _dot(a, b):
    """Dot product of two component triples, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    """Cross product of two component triples, as a tuple."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])
