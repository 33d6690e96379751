"""Correctness checks for the benchmark workloads.

Every check compares a program output with a closed form, a symmetry or a
second computation made here, never with a stored copy of an earlier
output.  Each function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Darbouxian umbilic types and their indices: the lemon D1 and the monstar
# D2 have index +1/2, the star D3 has index -1/2.
DARBOUX_INDEX = {"D1": 0.5, "D2": 0.5, "D3": -0.5}

UMBILIC_GAP_TOL = 1e-6           # (k2 - k1) / max|k| by finite differences
TORUS_LENGTH_TOL = 1e-9          # relative error of a parallel's length
TORUS_TPRIME_TOL = 1e-6          # |T' - 1| on a torus of revolution
LOG_TPRIME_AGREEMENT_TOL = 1e-3  # |log T'_fd - log T'_integral|
VARIANT_GAP_TOL = 1e-6           # |dH variant - dk2 variant|
ELLIPSOID_ROTATION_TOL = 1e-6    # mean rotation at rho = 0 (lines close)
MIRROR_ROTATION_TOL = 1e-9       # |rotation(rho) - rotation(-rho)|

# fourth-order central stencils for first and second derivatives
_FD_STEP = 4e-3
_D1 = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
_D2 = {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}


def principal_gap(point, u, v, h=_FD_STEP):
    """(k2 - k1) / max(|k1|, |k2|) at chart point (u, v).

    Uses only the immersion ``point(u, v) -> xyz``: the partials come from
    fourth-order central differences, and the gap is the eigenvalue split
    of the shape operator written in an orthonormal tangent frame,
    sqrt((s11 - s22)^2 + 4 s12^2), which has no cancellation at a double
    eigenvalue (unlike a square root of H^2 - K).
    """
    P = {(i, j): np.asarray(point(u + i * h, v + j * h), dtype=float)
         for i in range(-2, 3) for j in range(-2, 3)}
    r_u = sum(w * P[i, 0] for i, w in _D1.items()) / h
    r_v = sum(w * P[0, j] for j, w in _D1.items()) / h
    r_uu = sum(w * P[i, 0] for i, w in _D2.items()) / h ** 2
    r_vv = sum(w * P[0, j] for j, w in _D2.items()) / h ** 2
    r_uv = sum(wi * wj * P[i, j] for i, wi in _D1.items()
               for j, wj in _D1.items()) / h ** 2
    n = np.cross(r_u, r_v)
    n /= np.linalg.norm(n)
    # orthonormal frame e1, e2 and the chart coordinates of each
    e1 = r_u / np.linalg.norm(r_u)
    e2 = np.cross(n, e1)
    A = np.stack([r_u, r_v], axis=1)                  # 3x2, columns r_u r_v
    coords = np.linalg.lstsq(A, np.stack([e1, e2], axis=1), rcond=None)[0]
    second = np.array([[r_uu @ n, r_uv @ n], [r_uv @ n, r_vv @ n]])
    S = coords.T @ second @ coords                    # II in the frame
    split = math.hypot(S[0, 0] - S[1, 1], 2.0 * S[0, 1])
    mean = 0.5 * (S[0, 0] + S[1, 1])
    kmax = abs(mean) + 0.5 * split
    return split / kmax


def check_umbilic_gaps(point, uvs):
    """k2 - k1 below the tolerance of |k| at every reported umbilic."""
    out = []
    for u, v in uvs:
        g = principal_gap(point, u, v)
        if not g < UMBILIC_GAP_TOL:
            out.append(f"(k2 - k1)/|k| = {g:.2e} at uv ({u:.6f}, {v:.6f}) "
                       f"(tol {UMBILIC_GAP_TOL:g})")
    return out


def check_index_sum(types, euler_characteristic=2):
    """Poincare-Hopf: the indices of the umbilics sum to chi."""
    if any(t not in DARBOUX_INDEX for t in types):
        return [f"non-Darbouxian umbilic types {sorted(set(types))}"]
    total = sum(DARBOUX_INDEX[t] for t in types)
    if total != euler_characteristic:
        return [f"index sum {total} != Euler characteristic "
                f"{euler_characteristic}"]
    return []


def check_gaps_decided(gaps):
    """Every separatrix gap measured and larger than its error bound."""
    out = []
    for g in gaps:
        if g.gap is None or g.bound is None or not g.gap > g.bound:
            out.append(f"umbilic {g.umbilic} {g.foliation_id} separatrix: "
                       f"gap {g.gap} not above bound {g.bound}")
    return out


def check_torus_parallel(period_length, anchor_xyz, tprime_fd):
    """A cycle of the round torus about the z axis is a parallel: its
    length is 2 pi times its distance from the axis, and T' = 1."""
    x, y = float(anchor_xyz[0]), float(anchor_xyz[1])
    want = 2.0 * math.pi * math.hypot(x, y)
    out = []
    rel = abs(period_length - want) / want
    if not rel < TORUS_LENGTH_TOL:
        out.append(f"parallel length {period_length!r} vs 2 pi r = "
                   f"{want!r}: relative error {rel:.2e}")
    if tprime_fd is None or not abs(tprime_fd - 1.0) < TORUS_TPRIME_TOL:
        out.append(f"torus T' = {tprime_fd} not within "
                   f"{TORUS_TPRIME_TOL:g} of 1")
    return out


def check_tprime_estimators(cycle):
    """The finite-difference and line-integral estimates of log T' agree,
    and so do the two integral variants.  ``cycle`` is one entry of the
    ``cycles`` report."""
    fd = cycle.get("tprime_fd")
    dH = cycle.get("log_integral_dH")
    dk2 = cycle.get("log_integral_dk2")
    sign = cycle.get("sign_branch")
    if fd is None or dH is None or dk2 is None or sign is None or fd <= 0:
        return [f"missing T' estimate: fd={fd}, dH={dH}, dk2={dk2}"]
    out = []
    log_int = sign * 0.5 * (dH + dk2)
    diff = abs(math.log(fd) - log_int)
    if not diff < LOG_TPRIME_AGREEMENT_TOL:
        out.append(f"|log T'_fd - log T'_int| = {diff:.2e} "
                   f"(tol {LOG_TPRIME_AGREEMENT_TOL:g})")
    gap = abs(dH - dk2)
    if not gap < VARIANT_GAP_TOL:
        out.append(f"integral variants differ by {gap:.2e} "
                   f"(tol {VARIANT_GAP_TOL:g})")
    return out


def check_rotation_row(rho, row):
    """Crossings found and a finite rotation in [0, pi]; at rho = 0 (the
    ellipsoid, whose lines close) the rotation vanishes."""
    mean = row.get("mean_rotation")
    out = []
    if not row.get("crossing_count", 0) > 0:
        out.append(f"rho={rho}: no section crossings")
    if mean is None or not (0.0 <= mean <= math.pi):
        out.append(f"rho={rho}: mean rotation {mean} not in [0, pi]")
    elif rho == 0.0 and not mean < ELLIPSOID_ROTATION_TOL:
        out.append(f"rho=0: mean rotation {mean:.2e} "
                   f"(tol {ELLIPSOID_ROTATION_TOL:g})")
    return out


def check_mirror_pair(rho, mean_plus, mean_minus):
    """z -> -z maps S_rho onto S_-rho and fixes the z = 0 section and its
    seeds, so rho and -rho give the same rotation."""
    if mean_plus is None or mean_minus is None:
        return [f"rho=+-{rho}: missing rotation"]
    diff = abs(mean_plus - mean_minus)
    if not diff < MIRROR_ROTATION_TOL:
        return [f"rho=+-{rho}: rotations differ by {diff:.2e} "
                f"(tol {MIRROR_ROTATION_TOL:g})"]
    return []
