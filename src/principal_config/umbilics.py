"""Umbilic points: location, Monge normal form, Darbouxian type, index,
separatrix directions.

The Monge extraction reads the second and third derivatives of the height
over the tangent plane off the chart jet, by the chain rule through the
inverse of the tangent coordinates; the height has no linear term, so only
the inverse's first two derivatives enter the cubic.  The tangent frame is
then rotated to kill the x^2 y cubic coefficient, at an angle solved from a
cubic in tan(phi).  Types follow the open inequalities on (a/b, c/2b) with
an explicit slack band; degenerate cases are return values, not failures.

The separatrices are read off the rotated cubic
z = (k/2)(x^2+y^2) + (a/6)x^3 + (b/2)xy^2 + (c/6)y^3, as Darboux (1896)
read the umbilic's local picture: leaves reach the umbilic only along the
radial lines y = p x with p (b p^2 - c p + a - 2b) = 0.  Blowing the
umbilic up (Bruce & Fidal, "On binary differential equations and
umbilics", Proc. Roy. Soc. Edinburgh 111A, 1989) makes each line a
singular point of the lifted line field; a saddle gives a separatrix, a
node a parabolic fan.  The x-axis is a saddle iff (b - a)(a - 2b) < 0, the
line of a root p != 0 iff p^2 > a/b - 2: one line for D1, two for D2 and
three for D3 (see :func:`separatrix_directions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (SEED_FAILURES, ConvergenceError, FrameError,
                     InconclusiveError, ParamError, RegularityError)
from .geometry import (MAXIMAL, MINIMAL, chart_bundle, chart_forms,
                       frame_operator)

D1, D2, D3 = "D1", "D2", "D3"
NON_TRANSVERSAL = "NonTransversal"
NEAR_BOUNDARY = "NearBoundary"
UNCLASSIFIED = "unclassified"

_REFINE_REL = 1e-24          # H^2 - K at an umbilic, times kappa^2
_MERGE_RADIUS_FACTOR = 1e-4  # closer umbilics are one, times diam
_ALL_UMBILIC_REL = 1e-5      # |k2 - k1| / (2 kappa) below it: all umbilic
_REFINE_MAX_ITER = 60        # damped Newton iterations from a seed
_KILL_ROUNDOFF = 1e-12       # a kill angle this close below pi is 0
_CLASSIFY_TOL = 1e-6         # slack band of the Darbouxian inequalities
_WINDING_RADIUS_FACTOR = 5e-3
_WINDING_SAMPLES = 256


@dataclass(frozen=True)
class AllUmbilicSurface:
    """Marker result: H^2 - K vanishes identically (sphere or plane)."""

    detail: str = "every sampled point is umbilic"


@dataclass(frozen=True)
class MongeFrame:
    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class MongeCoefficients:
    """Rotated Monge cubic z = (k/2)(x^2+y^2) + (a/6)x^3 + (b/2)xy^2
    + (c/6)y^3 in the stored orthonormal frame."""

    k: float
    a: float
    b: float
    c: float
    rotation: float
    frame: MongeFrame
    residual_x2y: float
    quadratic_defect: float     # max(|q11|, |q20 - q02|) before rotation


@dataclass(frozen=True)
class UmbilicRecord:
    uv: tuple
    xyz: np.ndarray
    hk_residual: float                        # H^2 - K after refinement
    monge: MongeCoefficients | None = None
    type: str = UNCLASSIFIED
    index: float | None = None
    margin: float = math.nan
    separatrices: dict = field(default_factory=dict)
    failure: str | None = None                # why it stays UNCLASSIFIED

    def summary(self):
        x, y, z = self.xyz
        why = f" ({self.failure})" if self.failure else ""
        return (f"{self.type} umbilic at ({x:+.6f}, {y:+.6f}, {z:+.6f}), "
                f"margin {self.margin:.3g}{why}")

    def to_dict(self):
        m = self.monge
        return {
            "uv": [float(self.uv[0]), float(self.uv[1])],
            "xyz": [float(v) for v in self.xyz],
            "hk_residual": float(self.hk_residual),
            "type": self.type,
            "index": self.index,
            "margin": None if math.isnan(self.margin) else float(self.margin),
            "monge": None if m is None else {
                "k": m.k, "a": m.a, "b": m.b, "c": m.c,
                "rotation": m.rotation,
                "residual_x2y": m.residual_x2y,
            },
            "separatrices": {k: [float(a) for a in v]
                             for k, v in self.separatrices.items()},
            "failure": self.failure,
        }


# ---------------------------------------------------------------------------
# location
# ---------------------------------------------------------------------------

def locate_umbilics(surface, grid=32):
    """Grid scan of H^2 - K seeding a damped Newton solve of the umbilic
    equations; returns deterministic, pairwise-separated records.

    ``_REFINE_REL`` bounds H^2 - K relative to the squared curvature scale
    at accepted points; ``_MERGE_RADIUS_FACTOR`` diameters merge records,
    which are folded onto the surface's sheet (``fold``) with u wrapped.
    A surface umbilic everywhere (sphere; ``_ALL_UMBILIC_REL``) returns the
    AllUmbilicSurface marker instead of a point list; an empty list is a
    valid result (torus).
    """
    if grid < 16:
        raise ParamError("grid resolution must be at least 16 per axis")
    (u0, u1), (v0, v1) = surface.domain
    du, dv = (u1 - u0) / grid, (v1 - v0) / grid
    uc = u0 + (np.arange(grid) + 0.5) * du
    vc = v0 + (np.arange(grid) + 0.5) * dv
    uu, vv = np.meshgrid(uc, vc, indexing="ij")
    b = chart_bundle(surface, uu, vv, strict=False)
    S = np.square(0.5 * b["umbilic_deviation"])
    kappa = np.nanmax(np.maximum(np.abs(b["k1"]), np.abs(b["k2"])))
    kappa = max(float(kappa), 1e-12)

    if np.nanmax(S) < (_ALL_UMBILIC_REL * kappa) ** 2:
        return AllUmbilicSurface()

    minima = _local_minima(S, surface.periodic_u, surface.periodic_v)
    threshold = min(0.25 * kappa ** 2,
                    max(1e4 * np.nanmin(S), (1e-3 * kappa) ** 2))
    seeds = [(uu[i, j], vv[i, j]) for i, j in minima
             if np.isfinite(S[i, j]) and S[i, j] <= threshold]

    found = []
    for seed in seeds:
        res = _refine_umbilic(surface, seed, kappa)
        if res is None:
            continue
        (u, v), s_final = res
        if s_final > _REFINE_REL * kappa ** 2:
            continue
        if not surface.in_domain(u, v):
            continue
        found.append(((u, v), s_final))

    merge_r = _MERGE_RADIUS_FACTOR * surface.diameter()
    records = []
    for (u, v), s_final in sorted(found, key=lambda t: (round(t[0][0], 9),
                                                        round(t[0][1], 9))):
        if hasattr(surface, "fold"):
            u, v = surface.fold(u, v)
        u_w = _wrap_into(u, u0, u1) if surface.periodic_u else u
        v_w = _wrap_into(v, v0, v1) if surface.periodic_v else v
        xyz = surface.point(u_w, v_w)
        if any(np.linalg.norm(xyz - r.xyz) < merge_r for r in records):
            continue
        records.append(UmbilicRecord(uv=(float(u_w), float(v_w)),
                                     xyz=np.asarray(xyz),
                                     hk_residual=float(s_final)))
    return records


def _wrap_into(x, lo, hi):
    return lo + (x - lo) % (hi - lo)


def _local_minima(S, periodic_u, periodic_v):
    """(i, j) rows, in row-major order, of the finite cells of S that none
    of their 8 neighbours undercuts.  Periodic axes wrap; past the edge of
    the others lies +inf."""
    filled = np.where(np.isfinite(S), S, np.inf)
    periodic = (periodic_u, periodic_v)
    padded = np.pad(filled, [(0, 0) if p else (1, 1) for p in periodic],
                    constant_values=np.inf)
    core = tuple(slice(None) if p else slice(1, -1) for p in periodic)
    best = np.isfinite(filled)
    for di in (-1, 0, 1):           # the zero shift is the cell itself
        for dj in (-1, 0, 1):
            best &= ~(np.roll(padded, (di, dj), axis=(0, 1))[core] < filled)
    return np.argwhere(best)


def _umbilic_residual(surface, u, v):
    """(w11 - w22, 2 w12) in the orthonormal frame; zero iff umbilic.
    The forms come from :func:`chart_forms` on python floats, which raises
    RegularityError at the regularity floor."""
    forms = chart_forms(surface, float(u), float(v))[4]
    (w11, w12, w22), _ = frame_operator(*forms)
    return np.array([w11 - w22, 2.0 * w12])


def _residual_jacobian(surface, u, v):
    """Central-difference Jacobian of the umbilic residual in (u, v)."""
    (u0, u1), (v0, v1) = surface.domain
    h = 1e-6 * max(u1 - u0, v1 - v0)
    Fu = _umbilic_residual(surface, u + h, v)
    Fu2 = _umbilic_residual(surface, u - h, v)
    Fv = _umbilic_residual(surface, u, v + h)
    Fv2 = _umbilic_residual(surface, u, v - h)
    return np.column_stack([(Fu - Fu2) / (2 * h), (Fv - Fv2) / (2 * h)])


def _newton_step(F, J):
    try:
        return np.linalg.solve(J, -F)
    except np.linalg.LinAlgError:
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        return step


def location_error(surface, rec):
    """World length of the Newton correction at a located umbilic.

    Newton converges quadratically, so the next correction measures how
    far the recorded point sits from the root of the umbilic equations,
    down to the roundoff floor of the residual.  NaN when the chart is
    singular at the record.
    """
    u, v = float(rec.uv[0]), float(rec.uv[1])
    try:
        F = _umbilic_residual(surface, u, v)
        step = _newton_step(F, _residual_jacobian(surface, u, v))
    except (RegularityError, FloatingPointError, np.linalg.LinAlgError):
        return math.nan
    J = surface.jet(u, v)
    return float(np.linalg.norm(step[0] * J[1, 0] + step[1] * J[0, 1]))


def _refine_umbilic(surface, seed, kappa):
    u, v = float(seed[0]), float(seed[1])
    u_seed, v_seed = u, v
    (u0, u1), (v0, v1) = surface.domain
    span = max(u1 - u0, v1 - v0)
    step_cap = 0.08 * span        # a couple of grid cells per iteration
    leash = 0.3 * span            # abandon runaway iterations
    try:
        F = _umbilic_residual(surface, u, v)
    except SEED_FAILURES:
        return None
    best = float(F @ F)
    for _ in range(_REFINE_MAX_ITER):
        if best <= (1e-13 * kappa) ** 2:
            break
        if abs(u - u_seed) > leash or abs(v - v_seed) > leash:
            return None
        try:
            J = _residual_jacobian(surface, u, v)
        except SEED_FAILURES:
            return None
        step = _newton_step(F, J)
        if not np.all(np.isfinite(step)):
            return None
        size = float(np.max(np.abs(step)))
        if size > step_cap:
            step = step * (step_cap / size)
        lam = 1.0
        for _ in range(12):
            uu, vv = u + lam * step[0], v + lam * step[1]
            try:
                Fn = _umbilic_residual(surface, uu, vv)
            except SEED_FAILURES:
                lam *= 0.5
                continue
            val = float(Fn @ Fn)
            if val < best:
                u, v, F, best = uu, vv, Fn, val
                break
            lam *= 0.5
        else:
            break
    if abs(u - u_seed) > leash or abs(v - v_seed) > leash:
        return None
    return (u, v), best / 4.0     # H^2 - K = |F|^2 / 4


# ---------------------------------------------------------------------------
# Monge normal form
# ---------------------------------------------------------------------------

def monge_form(surface, location):
    """Monge cubic coefficients at an umbilic chart location.

    The height z = n . (P - P0) over the tangent coordinates
    x_m = e_m . (P - P0) is differentiated by the chain rule.  With P_i,
    P_ij, P_ijk the chart partials and A = (e_m . P_i)^-1 the first
    derivative of the inverse coordinates, its second derivative is
    K_iab = -A_im (e_m . P_jk) A_ja A_kb, and with L = n . P_ij and
    N = n . P_ijk the height's derivatives are h_ab = L_ij A_ia A_jb and
    h_abc = N_ijk A_ia A_jb A_kc plus the three placements of
    L_ij K_iab A_jc.  The frame is then rotated by the smallest angle in
    [0, pi) that kills the x^2 y term (:func:`kill_rotation_angles`).
    """
    u0, v0 = location.uv if hasattr(location, "uv") else location
    J, n, _, _, _ = chart_forms(surface, float(u0), float(v0))
    J, n = np.array(J), np.array(n)
    e1 = J[1, 0] / np.linalg.norm(J[1, 0])
    e = np.stack([e1, np.cross(n, e1)])
    d = np.arange(2)            # partial i of P is in J[1 - i, i]
    o2 = d[:, None] + d
    o3 = o2[..., None] + d
    P2, P3 = J[2 - o2, o2], J[3 - o3, o3]

    M = e @ J[1 - d, d].T
    det = float(np.linalg.det(M))
    scale = max(abs(M).max(), 1e-300)
    if abs(det) < 1e-12 * scale * scale:
        raise FrameError("tangent coordinates degenerate at the umbilic")
    A = np.linalg.inv(M)
    L, N, G = P2 @ n, P3 @ n, P2 @ e.T      # G[j, k, m] = e_m . P_jk
    K = -np.einsum("im,jkm,ja,kb->iab", A, G, A, A)
    h2 = np.einsum("ij,ia,jb->ab", L, A, A)
    LK = np.einsum("ij,iab,jc->abc", L, K, A)
    h3 = (np.einsum("ijk,ia,jb,kc->abc", N, A, A, A)
          + LK + LK.transpose(0, 2, 1) + LK.transpose(2, 0, 1))

    c30, c21, c12, c03 = (h3[0, 0, 0] / 6.0, h3[0, 0, 1] / 2.0,
                          h3[0, 1, 1] / 2.0, h3[1, 1, 1] / 6.0)
    phi = kill_rotation_angles((c30 - c12) / 4.0, (c03 - c21) / 4.0,
                               (3.0 * c30 + c12) / 4.0,
                               -(c21 + 3.0 * c03) / 4.0)[0]
    cs, sn = math.cos(phi), math.sin(phi)
    R = np.array([[cs, -sn], [sn, cs]])     # columns: the rotated frame
    h3 = np.einsum("pqr,pa,qb,rc->abc", h3, R, R, R)
    frame = MongeFrame(origin=J[0, 0], e1=cs * e[0] + sn * e[1],
                       e2=-sn * e[0] + cs * e[1], normal=n)
    return MongeCoefficients(
        k=float(0.5 * (h2[0, 0] + h2[1, 1])), a=float(h3[0, 0, 0]),
        b=float(h3[0, 1, 1]), c=float(h3[1, 1, 1]), rotation=float(phi),
        frame=frame, residual_x2y=float(0.5 * abs(h3[0, 0, 1])),
        quadratic_defect=float(max(abs(h2[0, 1]),
                                   0.5 * abs(h2[0, 0] - h2[1, 1]))))


def kill_rotation_angles(A1, A2, B1, B2):
    """All angles in [0, pi) where the rotated x^2 y coefficient vanishes.

    With t = tan(phi) that coefficient, divided by cos^3(phi), is the cubic
    (3A1 - B1) t^3 + (9A2 - B2) t^2 - (9A1 + B1) t - (3A2 + B2); phi = pi/2
    is a root exactly when its leading coefficient vanishes.  A real cubic
    has a real root, which ``np.roots`` returns with a zero imaginary part,
    so the list is never empty.  A root within ``_KILL_ROUNDOFF`` below pi
    is the root at 0.
    """
    coef = [3.0 * A1 - B1, 9.0 * A2 - B2, -(9.0 * A1 + B1), -(3.0 * A2 + B2)]
    roots = [math.atan(t.real) for t in np.roots(coef) if t.imag == 0.0]
    if coef[0] == 0.0:
        roots.append(0.5 * math.pi)
    folded = (phi % math.pi for phi in roots)
    return sorted({0.0 if math.pi - phi <= _KILL_ROUNDOFF else phi
                   for phi in folded})


def rotate_monge_cubic(a, b, c, phi):
    """Cubic coefficients after rotating the tangent frame by phi.

    2D oracle used by the tests; independent of the 3D extraction path.
    """
    c30, c21, c12, c03 = a / 6.0, 0.0, b / 2.0, c / 6.0
    A1 = (c30 - c12) / 4.0
    A2 = (c03 - c21) / 4.0
    B1 = (3 * c30 + c12) / 4.0
    B2 = -(c21 + 3 * c03) / 4.0
    ca3, sa3 = math.cos(3 * phi), math.sin(3 * phi)
    ca1, sa1 = math.cos(phi), math.sin(phi)
    A1r = A1 * ca3 - A2 * sa3
    A2r = A2 * ca3 + A1 * sa3
    B1r = B1 * ca1 - B2 * sa1
    B2r = B2 * ca1 + B1 * sa1
    return (6 * (A1r + B1r), -3 * A2r - B2r,
            2 * (-3 * A1r + B1r), 6 * (A2r - B2r))


# ---------------------------------------------------------------------------
# Darbouxian classification
# ---------------------------------------------------------------------------

def classify(m):
    """Type and boundary margin from the rotated cubic coefficients.

    Returns one of D1/D2/D3/NonTransversal/NearBoundary together with the
    distance of (a/b, c/2b) to the nearest classification boundary
    (vertical distance for the parabola; the a = 2b line counts inside D2).
    Transversality and margins within ``_CLASSIFY_TOL`` are not decided.
    """
    a, b, c = m.a, m.b, m.c
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    t_value = b * (b - a)
    if abs(t_value) <= _CLASSIFY_TOL * scale * scale:
        return NON_TRANSVERSAL, abs(t_value) / (scale * scale)
    ra = a / b
    rc = c / (2.0 * b)
    d_parab = ra - (rc * rc + 2.0)
    d_one = ra - 1.0
    if d_parab > 0.0:
        typ, margin = D1, abs(d_parab)
    elif d_one < 0.0:
        typ, margin = D3, abs(d_one)
    else:
        typ = D2
        margin = min(abs(d_parab), abs(d_one), abs(ra - 2.0))
    if margin <= _CLASSIFY_TOL:
        return NEAR_BOUNDARY, margin
    return typ, margin


def classify_direct(a, b, c):
    """Literal inequality evaluation (test oracle; no slack bands)."""
    if b * (b - a) == 0.0:
        return NON_TRANSVERSAL
    ra, rc = a / b, c / (2.0 * b)
    if ra > rc * rc + 2.0:
        return D1
    if 1.0 < ra < rc * rc + 2.0 and a != 2.0 * b:
        return D2
    if ra < 1.0:
        return D3
    return NEAR_BOUNDARY


def index_for_type(typ):
    if typ in (D1, D2):
        return 0.5
    if typ == D3:
        return -0.5
    return None


# ---------------------------------------------------------------------------
# winding-number index estimator
# ---------------------------------------------------------------------------

def winding_index(surface, rec):
    """Index of the principal line field from angle accumulation on a loop
    of radius ``_WINDING_RADIUS_FACTOR``·diam around the umbilic
    (independent of the type-based assignment)."""
    u0, v0 = rec.uv
    b0 = chart_bundle(surface, u0, v0)
    ru, rv = b0["ru"], b0["rv"]
    r = _WINDING_RADIUS_FACTOR * surface.diameter()
    alphas = np.linspace(0.0, 2 * math.pi, _WINDING_SAMPLES, endpoint=False)
    us = u0 + (r / np.linalg.norm(ru)) * np.cos(alphas)
    vs = v0 + (r / np.linalg.norm(rv)) * np.sin(alphas)
    b = chart_bundle(surface, us, vs)
    n = b0["normal"]
    e1 = ru / np.linalg.norm(ru)
    e2 = np.cross(n, e1)
    d = b["d1_xyz"]
    beta = np.arctan2(d @ e2, d @ e1)
    two_beta = np.unwrap(2.0 * beta)
    total = two_beta[-1] - two_beta[0]
    # close the loop: add the last-to-first increment
    closing = np.angle(np.exp(2j * beta[0]) / np.exp(2j * beta[-1]))
    total += closing
    return float(total / (2.0 * 2.0 * math.pi))


# ---------------------------------------------------------------------------
# separatrix directions from the Monge cubic
# ---------------------------------------------------------------------------

def separatrix_directions(m):
    """Separatrix ray angles in [0, 2 pi), in the Monge frame, of both
    foliations at a Darbouxian umbilic with rotated Monge cubic ``m``.

    To first order the principal directions at (x, y) are those of the
    cubic's Hessian, b y dx^2 + ((b - a) x + c y) dx dy - b y dy^2 = 0, so a
    leaf reaches the umbilic only along a radial line y = p x with
    p (b p^2 - c p + a - 2b) = 0 (Darboux 1896).  The blow-up y = p x,
    q = dy/dx (Bruce & Fidal 1989) lifts a branch q(p) of that equation to
    the field x d/dx + (q(p) - p) d/dp, singular at (0, p) on each radial
    line.  Times F_q, for F(p, q) = b p + (b - a + c p) q - b p q^2, its
    eigenvalues there are F_q and -(F_p + F_q):
      - at p = 0: b - a and a - 2b;
      - at a root p != 0: -b (1 + p^2) and b (p^2 + 2 - a/b).
    A saddle (eigenvalues of opposite sign) lets exactly one leaf into the
    umbilic along each half-line of its line: a separatrix.  A node lets in
    a whole fan, a parabolic sector.  So the x-axis is a separatrix iff
    (b - a)(a - 2b) < 0 and the line of a root p iff p^2 > a/b - 2, which
    gives 1, 2 and 3 lines for D1, D2 and D3.

    Along the half-line at angle theta the radial direction is principal.
    At distance r, to first order, its normal curvature exceeds the
    tangential one by r times (a - b) u^3 + (5b - a) u v^2 + c v^3
    - c u^2 v, (u, v) = (cos theta, sin theta): the half-line belongs to
    the maximal foliation where that is positive.  It is odd in (u, v), so
    the two half-lines of a line belong to the two foliations.
    """
    a, b, c = m.a, m.b, m.c
    lines = [0.0] if (b - a) * (a - 2.0 * b) < 0.0 else []
    disc = c * c - 4.0 * b * (a - 2.0 * b)
    if disc > 0.0:
        for p in ((c - math.sqrt(disc)) / (2.0 * b),
                  (c + math.sqrt(disc)) / (2.0 * b)):
            if p * p > a / b - 2.0:
                lines.append(math.atan(p))
    rays = {MINIMAL: [], MAXIMAL: []}
    for theta in lines:
        u, v = math.cos(theta), math.sin(theta)
        excess = ((a - b) * u ** 3 + (5.0 * b - a) * u * v * v + c * v ** 3
               - c * u * u * v)
        out, back = (MAXIMAL, MINIMAL) if excess > 0.0 else (MINIMAL, MAXIMAL)
        rays[out].append(theta % (2.0 * math.pi))
        rays[back].append(theta + math.pi)
    return {fol: sorted(angs) for fol, angs in rays.items()}


# ---------------------------------------------------------------------------
# full classification pipeline / index sum
# ---------------------------------------------------------------------------

def refine_umbilic_record(surface, seed):
    """Newton-refine a single umbilic from a seed chart point."""
    b = chart_bundle(surface, seed[0], seed[1])
    kappa = max(abs(b["k1"]), abs(b["k2"]), 1e-12)
    res = _refine_umbilic(surface, seed, kappa)
    if res is None:
        raise ConvergenceError(f"umbilic refinement failed from {seed}")
    (u, v), s_final = res
    if s_final > _REFINE_REL * kappa ** 2:
        raise ConvergenceError(
            f"H^2-K stalled at {s_final:.3e} from seed {seed}")
    return UmbilicRecord(uv=(float(u), float(v)),
                         xyz=np.asarray(surface.point(u, v)),
                         hk_residual=float(s_final))


def classify_umbilic(surface, rec):
    """Monge extraction, type, index and, at a Darbouxian umbilic, the
    separatrix rays.  A record whose Monge form fails stays UNCLASSIFIED,
    with no separatrices and the reason in ``failure``."""
    try:
        m = monge_form(surface, rec)
    except FrameError as exc:
        return replace(rec, failure=f"no Monge form: {exc}")
    typ, margin = classify(m)
    seps = separatrix_directions(m) if typ in (D1, D2, D3) else {}
    return replace(rec, monge=m, type=typ, index=index_for_type(typ),
                   margin=margin, separatrices=seps)


def analyze_umbilics(surface, grid=32):
    found = locate_umbilics(surface, grid=grid)
    if isinstance(found, AllUmbilicSurface):
        return found
    return [classify_umbilic(surface, rec) for rec in found]


@dataclass(frozen=True)
class IndexSumResult:
    index_sum: float
    euler_characteristic: int
    consistent: bool


def index_sum_check(surface, records):
    """Compare the sum of umbilic indices against the declared Euler
    characteristic of the catalog surface."""
    for rec in records:
        if rec.type not in (D1, D2, D3):
            raise InconclusiveError(
                f"umbilic at {rec.uv} is {rec.type}; index sum inconclusive")
    chi = surface.euler_characteristic
    if chi is None:
        raise InconclusiveError(
            "surface has no declared Euler characteristic")
    total = float(sum(rec.index for rec in records))
    return IndexSumResult(total, int(chi), bool(abs(total - chi) < 1e-9))
