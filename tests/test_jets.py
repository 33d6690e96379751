import numpy as np
import pytest

from principal_config import catalog, jets
from principal_config.geometry import SurfaceChart
from test_geometry import cylinder_chart


def fd4(fn, x, h=1e-3):
    """Independent 4-jet of a scalar callable by central differences."""
    f = fn
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    d3 = (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) \
        / (2 * h ** 3)
    return np.array([f(x), d1, d2, d3])


@pytest.mark.parametrize("x", [0.13, 1.7, -2.4])
def test_harmonics_jet_matches_fd(x):
    h = jets.Harmonics([(2.0, 0.3, 1.5), (3.0, -0.7, 0.4), (0.0, 0.0, 2.0)])

    def f(t):
        return (1.5 * np.cos(2 * t + 0.3) + 0.4 * np.cos(3 * t - 0.7)
                + 2.0)

    got = h.jet(x)
    want = fd4(f, x)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5)


def test_harmonics_product_is_exact():
    a = jets.Harmonics([(1.0, 0.2, 0.7), (2.0, -0.4, 1.1)])
    b = jets.Harmonics([(3.0, 0.9, 0.5), (0.0, 0.0, 0.3)])
    xs = np.linspace(-3, 3, 37)
    direct = a.jet(xs)[0] * b.jet(xs)[0]
    assert np.allclose(a.times(b).jet(xs)[0], direct, atol=1e-13)
    assert np.allclose(a.plus(b).jet(xs), a.jet(xs) + b.jet(xs), atol=1e-13)


def test_poly_jet():
    p = jets.Poly([1.0, -2.0, 0.5, 3.0])   # 1 - 2x + 0.5x^2 + 3x^3

    def f(x):
        return 1 - 2 * x + 0.5 * x ** 2 + 3 * x ** 3

    got = p.jet(0.77)
    assert np.allclose(got, fd4(f, 0.77), rtol=1e-5, atol=1e-5)
    assert got[3] == pytest.approx(18.0)




# e_theta (theta = 1): cap blend on |v| in [0.55, 1.05], rotation ramp on
# v in [0.33, 0.5225]; v of both signs inside and outside each band, and
# past the poles
E_THETA_V = (0.2, -0.2, 0.4, -0.4, 0.8, -0.8, 1.3, -1.3, 1.8, -1.8)


def _fd_partials(point, u, v, h):
    """d^(i+j) point / du^i dv^j for i + j <= 3 by fourth-order central
    differences on a 7 x 7 grid of chart points."""
    stencils = [np.array([0, 0, 0, 1.0, 0, 0, 0]),
                np.array([0, 1.0, -8.0, 0, 8.0, -1.0, 0]) / (12 * h),
                np.array([0, -1.0, 16.0, -30.0, 16.0, -1.0, 0])
                / (12 * h * h),
                np.array([1.0, -8.0, 13.0, 0, -13.0, 8.0, -1.0])
                / (8 * h ** 3)]
    offs = np.arange(-3, 4) * h
    grid = point(u + offs[:, None], v + offs[None, :])     # (7, 7, 3)
    return {(i, j): np.einsum("a,b,abc->c", stencils[i], stencils[j], grid)
            for i in range(4) for j in range(4 - i)}


@pytest.mark.parametrize("v", E_THETA_V)
def test_e_theta_jet_matches_finite_differences(v):
    chart = catalog.rotated_cap_ellipsoid_chart(1.0)
    u = 0.7
    jet = chart.jet(u, v)
    for (i, j), want in _fd_partials(chart.point, u, v, 1e-3).items():
        scale = max(1.0, np.abs(jet[i, j]).max())
        assert np.allclose(jet[i, j], want, rtol=0.0, atol=1e-5 * scale), \
            (i, j)


def test_e_theta_jet_is_c2_across_the_blend_joints():
    chart = catalog.rotated_cap_ellipsoid_chart(1.0)
    p = chart.params
    eps = 1e-12
    for joint in (p["phi0"], -p["phi0"], p["phi1"], -p["phi1"], p["rot0"],
                  p["rot1"]):
        lo = chart.jet(0.7, joint - eps)
        hi = chart.jet(0.7, joint + eps)
        # value and the first two v-derivatives (every u order) agree;
        # the third v-derivative jumps
        assert np.allclose(lo[:, :3], hi[:, :3], rtol=0.0, atol=1e-6), joint
        assert np.abs(lo[0, 3] - hi[0, 3]).max() > 1.0, joint


SEPARABLE_CHARTS = {
    "ellipsoid": lambda: catalog.ellipsoid_chart(3.0, 2.0, 1.0),
    "torus": lambda: catalog.torus_chart(2.0, 1.0),
    "perturbed_torus": lambda: catalog.perturbed_torus_chart(2.0, 1.0, 0.05),
    "perturbed_ellipsoid":
        lambda: catalog.perturbed_ellipsoid_chart(3, 2, 1, 0.008, 0),
    "monge_graph": lambda: catalog.monge_graph_chart(1.0, 0.5, 1.0, 0.2),
    # factors that share harmonics, and one that lists a harmonic twice
    "shared_atoms": lambda: SurfaceChart(
        [(jets.Harmonics([(1.0, 0.3, 0.7), (1.0, 0.3, 0.2), (0.0, 0.5, 1.0)]),
          jets.Harmonics([(2.0, -0.5, 1.0), (0.0, 0.5, 0.5)]), (1.0, 0, 0)),
         (jets.Wave(1.0, 0.3), jets.wave_sin(2.0, -0.5), (0, 1.0, 0)),
         (jets.Const(), jets.Wave(2.0, -0.5), (0, 0, 1.0))],
        ((0, 2 * np.pi), (0, 2 * np.pi)), periodic_u=True, periodic_v=True),
    # harmonic factors in u, a Poly factor in v
    "cylinder": cylinder_chart,
}


@pytest.mark.parametrize("name", sorted(SEPARABLE_CHARTS))
def test_chart_jet_matches_the_factor_by_factor_sum(name):
    """The chart's evaluation tables against sum_t w_t U_t^(i) V_t^(j),
    with each factor's own jet."""
    chart = SEPARABLE_CHARTS[name]()
    rng = np.random.default_rng(17)
    u = rng.uniform(-0.7, 0.7, 24) + (0.0 if name == "monge_graph" else 3.0)
    v = rng.uniform(-0.7, 0.7, 24) + (0.0 if name == "monge_graph" else 1.5)
    jet = chart.jet(u, v)
    want = np.zeros_like(jet)
    for tu, tv, w in chart.terms:
        ju, jv = tu.jet(u), tv.jet(v)
        want += (ju[:, None, :] * jv[None, :, :])[..., None] * w
    tol = 1e-12 * chart.diameter()
    for i in range(4):
        for j in range(4 - i):
            assert np.abs(jet[i, j] - want[i, j]).max() <= tol, (i, j)


def test_tables_hold_one_atom_per_distinct_harmonic():
    chart = SEPARABLE_CHARTS["perturbed_ellipsoid"]()
    (freq_u, phase_u, MW), (freq_v, phase_v, MV) = chart._tables
    n_terms = len(chart.terms)
    # the terms carry 62 and 84 atoms; every phase is a quarter turn, so
    # they fold onto the 5 frequencies 0..4 of each variable
    assert sum(len(tu.freq) for tu, _, _ in chart.terms) == 62
    assert sum(len(tv.freq) for _, tv, _ in chart.terms) == 84
    assert list(freq_u) == list(freq_v) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert not phase_u.any() and not phase_v.any()
    # u columns (derivative, coordinate, term); v columns (term, derivative)
    assert MW.shape == (2 * 5, 4 * 3 * n_terms)
    assert MV.shape == (2 * 5, n_terms * 4)
    # the perturbed torus keeps its phases 0.3 and 1.1 (and their sums)
    (freq_u, _, _), (freq_v, _, _) = SEPARABLE_CHARTS[
        "perturbed_torus"]()._tables
    assert (len(freq_u), len(freq_v)) == (4, 10)
    # a Poly side: cos(0 u) = 1 carries the constant, then u, u**2, u**3
    (freq_u, _, MW), _ = SEPARABLE_CHARTS["monge_graph"]()._tables
    assert list(freq_u) == [0.0] and MW.shape == (2 + 3, 4 * 3 * 5)


def test_quarter_turn_atoms_fold_onto_one_atom_per_frequency():
    # phases 0, +-pi/2 and +-pi, one 1 ulp off pi/2 as the products of the
    # perturbed ellipsoid leave it, and f = 0 atoms with such phases
    atoms = [(1.0, 0.0, 0.7), (1.0, np.pi / 2, 0.3), (1.0, -np.pi / 2, 0.5),
             (2.0, np.pi, 0.2), (2.0, -np.pi, 0.4),
             (2.0, 1.5707963267948968, 0.6), (0.0, -np.pi / 2, 0.9),
             (0.0, np.pi, 0.25)]
    chart = SurfaceChart(
        [(jets.Harmonics(atoms), jets.Wave(2.0, np.pi, 0.5), (1.0, 0.5, 0)),
         (jets.wave_sin(2.0), jets.Harmonics(atoms[::-1]), (0, 1.0, 0)),
         (jets.Const(0.3), jets.wave_sin(1.0, np.pi / 2), (0.2, 0, 1.0))],
        ((0, 2 * np.pi), (0, 2 * np.pi)), periodic_u=True, periodic_v=True)
    for freq, phase, _ in chart._tables:
        assert list(freq) == [0.0, 1.0, 2.0]
        assert not phase.any()
    rng = np.random.default_rng(29)
    u, v = rng.uniform(0.0, 2 * np.pi, (2, 40))
    jet = chart.jet(u, v)
    want = np.zeros_like(jet)
    for tu, tv, w in chart.terms:
        want += (tu.jet(u)[:, None, :] * tv.jet(v)[None, :, :])[..., None] * w
    for i in range(4):
        for j in range(4 - i):
            assert np.abs(jet[i, j] - want[i, j]).max() \
                <= 1e-14 * chart.diameter(), (i, j)
    # a frequency-0 atom is exactly its cos(k pi/2): cos(-pi/2) adds no
    # amp * 6e-17, and its derivatives are exactly 0
    flat = SurfaceChart(
        [(jets.Harmonics([(0.0, -np.pi / 2, 0.9)]), jets.Const(1.0),
          (1.0, 1.0, 1.0)),
         (jets.Harmonics([(0.0, np.pi, 0.25)]), jets.Const(1.0),
          (1.0, 0, 0))],
        ((0, 1), (0, 1)))
    got = flat.jet(u, v)
    assert np.all(got[0, 0] == [-0.25, 0.0, 0.0])
    assert not got[1:].any() and not got[:, 1:].any()


def test_products_keep_the_exact_phase():
    # sin x cos x = (sin 0 + sin 2x) / 2: both atoms keep the phase -pi/2
    # of sin itself, not its 12-decimal rounding
    h = jets.wave_sin(1).times(jets.Wave(1))
    assert list(h.freq) == [0.0, 2.0]
    assert np.all(h.phase == -np.pi / 2)
