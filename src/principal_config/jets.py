"""Truncated derivative jets for building charts with analytic partials.

A univariate jet is an ndarray of shape ``(4, ...)`` holding a function
value and its first three derivatives at the evaluation points.  Surface
charts are assembled from sums of separable terms ``w * U(u) * V(v)``
(``w`` a constant 3-vector), so every mixed partial through order 3 is a
product of univariate jet entries.  Everything broadcasts over trailing
point axes.

Trigonometric factors are kept as lists of cosine atoms
``amp * cos(freq x + phase)``; products of such factors convolve exactly
into new atom lists, so a whole factor evaluates in one vectorized pass
however many harmonics it carries.
"""

from __future__ import annotations

import numpy as np

ORDER = 4  # value + three derivatives


def jet_mul(a, b):
    """Leibniz product of two jets."""
    c = np.empty(np.broadcast_shapes(a.shape, b.shape))
    c[0] = a[0] * b[0]
    c[1] = a[1] * b[0] + a[0] * b[1]
    c[2] = a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]
    c[3] = a[3] * b[0] + 3.0 * a[2] * b[1] + 3.0 * a[1] * b[2] + a[0] * b[3]
    return c


def jet_compose(outer, inner):
    """Faa di Bruno to order 3: ``outer`` holds g, g', g'', g''' at inner[0]."""
    f1, f2, f3 = inner[1], inner[2], inner[3]
    out = np.empty(np.broadcast_shapes(outer.shape, inner.shape))
    out[0] = outer[0]
    out[1] = outer[1] * f1
    out[2] = outer[1] * f2 + outer[2] * f1 ** 2
    out[3] = outer[1] * f3 + 3.0 * outer[2] * f1 * f2 + outer[3] * f1 ** 3
    return out


def _trig_jet(x, phase=0.0):
    """cos(x + phase) and derivatives (for sin, shift phase by -pi/2)."""
    x = np.asarray(x, dtype=float)
    c = np.cos(x + phase)
    s = np.sin(x + phase)
    return np.stack([c, -s, -c, s])


def jet_sin(inner):
    return jet_compose(_trig_jet(inner[0], phase=-0.5 * np.pi), inner)


def jet_cos(inner):
    return jet_compose(_trig_jet(inner[0]), inner)


class UFn:
    """Univariate factor of a separable chart term.

    ``jet(x, cache)`` returns the (4, ...) jet; the per-evaluation cache
    maps ``id(ufn)`` to already-computed jets so factors shared between
    terms are evaluated once.
    """

    def jet(self, x, cache=None):
        if cache is None:
            return self._jet(x, {})
        key = id(self)
        hit = cache.get(key)
        if hit is None:
            hit = self._jet(x, cache)
            cache[key] = hit
        return hit

    def _jet(self, x, cache):  # pragma: no cover - interface only
        raise NotImplementedError


class Harmonics(UFn):
    """Finite cosine sum: sum_k amp_k cos(freq_k x + phase_k).

    The canonical representation for every trigonometric chart factor;
    exact products stay in the class via convolution.
    """

    def __init__(self, atoms):
        atoms = [(float(f), float(p), float(a)) for f, p, a in atoms]
        self.freq = np.array([a[0] for a in atoms])
        self.phase = np.array([a[1] for a in atoms])
        self.amp = np.array([a[2] for a in atoms])

    def _jet(self, x, cache):
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

    def scaled(self, factor):
        return Harmonics([(f, p, a * factor) for f, p, a in self.atoms()])


def _merge_atoms(atoms, tol=1e-14):
    """Canonicalize: nonnegative freq, merge equal (freq, phase) pairs."""
    canon = {}
    for f, p, a in atoms:
        if f < 0:
            f, p = -f, -p
        p = float(np.arctan2(np.sin(p), np.cos(p)))  # wrap to (-pi, pi]
        key = (round(f, 12), round(p, 12))
        canon[key] = canon.get(key, 0.0) + a
    # fold pi-opposite phases
    merged = []
    for (f, p), a in sorted(canon.items()):
        if abs(a) > tol:
            merged.append((f, p, a))
    return merged or [(0.0, 0.0, 0.0)]


def Wave(freq=1.0, phase=0.0, amp=1.0):
    return Harmonics([(freq, phase, amp)])


def wave_sin(freq=1.0, phase=0.0, amp=1.0):
    return Harmonics([(freq, phase - 0.5 * np.pi, amp)])


def Const(c=1.0):
    return Harmonics([(0.0, 0.0, c)])


class Poly(UFn):
    """Polynomial with coefficients in increasing degree."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _jet(self, x, cache):
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


class Product(UFn):
    """Pointwise product; collapses to a plain Harmonics when it can."""

    def __new__(cls, *factors):
        flat = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        harmonic = None
        rest = []
        for f in flat:
            if isinstance(f, Harmonics):
                harmonic = f if harmonic is None else harmonic.times(f)
            else:
                rest.append(f)
        merged = ([harmonic] if harmonic is not None else []) + rest
        if len(merged) == 1 and isinstance(merged[0], Harmonics):
            return merged[0]
        obj = super().__new__(cls)
        obj.factors = tuple(merged)
        return obj

    def __init__(self, *factors):
        pass

    def _jet(self, x, cache):
        out = self.factors[0].jet(x, cache)
        for f in self.factors[1:]:
            out = jet_mul(out, f.jet(x, cache))
        return out


class Scaled(UFn):
    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = float(scale)

    def _jet(self, x, cache):
        return self.scale * self.inner.jet(x, cache)


class SumFn(UFn):
    """Pointwise sum; collapses to a plain Harmonics when it can."""

    def __new__(cls, *terms):
        flat = []
        for t in terms:
            if isinstance(t, SumFn):
                flat.extend(t.terms)
            else:
                flat.append(t)
        harmonic = None
        rest = []
        for t in flat:
            if isinstance(t, Harmonics):
                harmonic = t if harmonic is None else harmonic.plus(t)
            else:
                rest.append(t)
        merged = ([harmonic] if harmonic is not None else []) + rest
        if len(merged) == 1 and isinstance(merged[0], Harmonics):
            return merged[0]
        obj = super().__new__(cls)
        obj.terms = tuple(merged)
        return obj

    def __init__(self, *terms):
        pass

    def _jet(self, x, cache):
        out = self.terms[0].jet(x, cache)
        for t in self.terms[1:]:
            out = out + t.jet(x, cache)
        return out


class SmoothStep(UFn):
    """Quintic smoothstep: 0 for x<=x0, 1 for x>=x1, C2 at the joints."""

    def __init__(self, x0, x1, gain=1.0):
        if not x1 > x0:
            raise ValueError("SmoothStep needs x1 > x0")
        self.x0 = float(x0)
        self.x1 = float(x1)
        self.gain = float(gain)

    def _jet(self, x, cache):
        x = np.asarray(x, dtype=float)
        width = self.x1 - self.x0
        t = np.clip((x - self.x0) / width, 0.0, 1.0)
        t2 = t * t
        t3 = t2 * t
        s = t3 * (10.0 - 15.0 * t + 6.0 * t2)
        s1 = 30.0 * t2 * (1.0 - t) ** 2 / width
        s2 = 60.0 * t * (1.0 - 3.0 * t + 2.0 * t2) / width ** 2
        s3 = 60.0 * (1.0 - 6.0 * t + 6.0 * t2) / width ** 3
        inside = (x > self.x0) & (x < self.x1)
        out = np.stack([s, np.where(inside, s1, 0.0),
                        np.where(inside, s2, 0.0),
                        np.where(inside, s3, 0.0)])
        return self.gain * out


class EvenReflect(UFn):
    """f(|x|): odd derivatives flip sign on the negative branch."""

    def __init__(self, inner):
        self.inner = inner

    def _jet(self, x, cache):
        x = np.asarray(x, dtype=float)
        base = self.inner.jet(np.abs(x), None).copy()
        sign = np.where(x < 0.0, -1.0, 1.0)
        base[1] = base[1] * sign
        base[3] = base[3] * sign
        return base


class CosOf(UFn):
    """cos(g(x)) for an inner UFn g."""

    def __init__(self, inner):
        self.inner = inner

    def _jet(self, x, cache):
        return jet_cos(self.inner.jet(x, cache))


class SinOf(UFn):
    def __init__(self, inner):
        self.inner = inner

    def _jet(self, x, cache):
        return jet_sin(self.inner.jet(x, cache))
