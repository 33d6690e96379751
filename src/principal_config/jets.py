"""Truncated derivative jets for building charts with analytic partials.

A univariate jet holds a function value and its first three derivatives.
Separable charts are sums of terms ``w * U(u) * V(v)`` (``w`` a constant
3-vector) whose factors are :class:`Harmonics` or :class:`Poly`; their
``jet(x)`` is an ndarray of shape ``(4, ...)`` over the point axes of
``x``, and every mixed partial through order 3 is a product of entries.

Trigonometric factors are kept as lists of cosine atoms
``amp * cos(freq x + phase)``; products and sums of such factors combine
exactly into new atom lists (:meth:`Harmonics.times`, :meth:`Harmonics.plus`),
so a whole factor evaluates in one vectorized pass however many harmonics
it carries.  A chart evaluates all its factors of one variable together
(``geometry._harmonic_table``): one cos and one sin per frequency for the
atoms whose phase is a quarter turn k*pi/2 (their phase becomes an exact
sign), one per distinct (freq, phase) pair for the rest, the powers of x
for Poly factors, and one product with a coefficient matrix that holds
every amp * freq**k.  Charts that are not separable write their jet in
closed form with :func:`jet_mul`.
"""

from __future__ import annotations

import numpy as np

ORDER = 4  # value + three derivatives
_ATOM_TOL = 1e-14  # merged atoms with a smaller amp are dropped


def jet_mul(a, b):
    """Leibniz product of two jets given as (value, d1, d2, d3); the entries
    are python floats or arrays."""
    return (a[0] * b[0],
            a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
            a[3] * b[0] + 3.0 * a[2] * b[1] + 3.0 * a[1] * b[2]
            + a[0] * b[3])


class Harmonics:
    """Finite cosine sum: sum_k amp_k cos(freq_k x + phase_k).

    The canonical representation for every trigonometric chart factor;
    exact products and sums stay in the class.
    """

    def __init__(self, atoms):
        atoms = [(float(f), float(p), float(a)) for f, p, a in atoms]
        self.freq = np.array([a[0] for a in atoms])
        self.phase = np.array([a[1] for a in atoms])
        self.amp = np.array([a[2] for a in atoms])

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        theta = np.multiply.outer(self.freq, x) + \
            self.phase.reshape((-1,) + (1,) * x.ndim)
        c = np.cos(theta)
        s = np.sin(theta)
        powers = self.amp[:, None] * \
            self.freq[:, None] ** np.arange(ORDER)[None, :]
        base = np.stack([c, -s, -c, s], axis=1)     # (A, 4, ...)
        scaled = base * powers.reshape(powers.shape + (1,) * x.ndim)
        return scaled.sum(axis=0)

    def atoms(self):
        return list(zip(self.freq, self.phase, self.amp))

    def times(self, other):
        """Exact product via cos a cos b = (cos(a-b) + cos(a+b)) / 2."""
        out = []
        for f1, p1, a1 in self.atoms():
            for f2, p2, a2 in other.atoms():
                half = 0.5 * a1 * a2
                out.append((f1 - f2, p1 - p2, half))
                out.append((f1 + f2, p1 + p2, half))
        return Harmonics(_merge_atoms(out))

    def plus(self, other):
        return Harmonics(_merge_atoms(self.atoms() + other.atoms()))


def _merge_atoms(atoms):
    """Canonicalize: nonnegative freq, merge equal (freq, phase) pairs.

    Pairs equal to 12 decimals are one pair, which keeps the exact (freq,
    phase) of its first atom; atoms are sorted by the rounded pair."""
    canon = {}
    for f, p, a in atoms:
        if f < 0:
            f, p = -f, -p
        p = float(np.arctan2(np.sin(p), np.cos(p)))  # wrap to (-pi, pi]
        key = (round(f, 12), round(p, 12))
        f0, p0, a0 = canon.get(key, (f, p, 0.0))
        canon[key] = (f0, p0, a0 + a)
    merged = [canon[key] for key in sorted(canon)
              if abs(canon[key][2]) > _ATOM_TOL]
    return merged or [(0.0, 0.0, 0.0)]


def Wave(freq=1.0, phase=0.0, amp=1.0):
    return Harmonics([(freq, phase, amp)])


def wave_sin(freq=1.0, phase=0.0, amp=1.0):
    return Harmonics([(freq, phase - 0.5 * np.pi, amp)])


def Const(c=1.0):
    return Harmonics([(0.0, 0.0, c)])


class Poly:
    """Polynomial with coefficients in increasing degree."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((ORDER,) + x.shape)
        c = self.coeffs
        for k in range(ORDER):
            if len(c) == 0:
                break
            acc = np.zeros_like(x)
            for a in c[::-1]:
                acc = acc * x + a
            out[k] = acc
            c = c[1:] * np.arange(1, len(c))
        return out
