"""A chart backed by a plain point function, its partials by central
finite-difference stencils: the tests' way to inject a point function
(one that raises, say) into the chart code paths."""

import numpy as np

from principal_config.geometry import SurfaceChart
from principal_config.jets import ORDER


# stencil weights, 4th order accurate central differences
_D1_5 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_5 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_D3_7 = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


class FiniteDifferenceChart(SurfaceChart):
    """Chart backed by a plain point function; partials by central stencils.

    Third-order coefficients are too noise sensitive for one global step, so
    each derivative order uses its own step: 1e-5 for order 1 (as a
    baseline), with larger steps for orders 2 and 3 where the round-off
    floor of the stencil would otherwise dominate.
    """

    h1, h2, h3 = 1e-5, 2e-4, 3e-3

    def __init__(self, fn, domain, periodic_u=False, periodic_v=False,
                 name="fd-chart", diameter_hint=None):
        self.fn = fn
        super().__init__([], domain, periodic_u, periodic_v, name=name,
                         diameter_hint=diameter_hint)

    def _grid(self, u, v, h, half):
        offs = np.arange(-half, half + 1) * h
        vals = [[np.asarray(self.fn(u + du, v + dv), dtype=float)
                 for dv in offs] for du in offs]
        return np.asarray(vals)

    def jet(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pts = np.broadcast_shapes(u.shape, v.shape)
        out = np.zeros((ORDER, ORDER) + pts + (3,))
        out[0, 0] = self.fn(u, v)

        g1 = self._grid(u, v, self.h1, 2)
        d0 = np.zeros(5)
        d0[2] = 1.0
        out[1, 0] = np.einsum("i,j,ij...->...", _D1_5 / self.h1, d0, g1)
        out[0, 1] = np.einsum("i,j,ij...->...", d0, _D1_5 / self.h1, g1)

        g2 = self._grid(u, v, self.h2, 2)
        out[2, 0] = np.einsum("i,j,ij...->...", _D2_5 / self.h2 ** 2, d0, g2)
        out[0, 2] = np.einsum("i,j,ij...->...", d0, _D2_5 / self.h2 ** 2, g2)
        out[1, 1] = np.einsum("i,j,ij...->...", _D1_5 / self.h2,
                              _D1_5 / self.h2, g2)

        g3 = self._grid(u, v, self.h3, 3)
        d0_7 = np.zeros(7)
        d0_7[3] = 1.0
        d1_7 = np.zeros(7)
        d1_7[1:6] = _D1_5
        d2_7 = np.zeros(7)
        d2_7[1:6] = _D2_5
        h3 = self.h3
        out[3, 0] = np.einsum("i,j,ij...->...", _D3_7 / h3 ** 3, d0_7, g3)
        out[0, 3] = np.einsum("i,j,ij...->...", d0_7, _D3_7 / h3 ** 3, g3)
        out[2, 1] = np.einsum("i,j,ij...->...", d2_7 / h3 ** 2, d1_7 / h3, g3)
        out[1, 2] = np.einsum("i,j,ij...->...", d1_7 / h3, d2_7 / h3 ** 2, g3)
        return out
