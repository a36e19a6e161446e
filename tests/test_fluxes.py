"""Flux constructors: certificates, derivative inverses, the name registry."""

import numpy as np
import pytest

from fluxstab import (PiecewiseLinearFlux, ScalarFlux, bundled_pairs, burgers,
                      convex_poly, linear_flux, make_flux, pl_sample,
                      scaled_burgers, tilted_burgers)
from fluxstab.fluxes import (_deriv, horner, poly_roots, roots_in_cells,
                             slope_gap, slope_pieces)

ALL_SMOOTH = [
    burgers(),
    scaled_burgers(1.5),
    scaled_burgers(0.4, (-2.0, 0.5)),
    tilted_burgers(0.25),
    tilted_burgers(-1.0),
    linear_flux(0.3),
    convex_poly(0.5, 0.0, 0.25),
    convex_poly(0.5, 0.1, 0.0, (-1.0, 2.0)),
]


@pytest.mark.parametrize("flux", ALL_SMOOTH, ids=lambda f: f.name)
def test_derivative_consistent_with_values(flux):
    lo, hi = flux.K
    h = 1e-5 * (hi - lo)
    u = np.linspace(lo + h, hi - h, 257)
    central = (flux.f(u + h) - flux.f(u - h)) / (2.0 * h)
    err = np.abs(central - flux.df(u))
    assert np.all(err <= 1e-8 * (1.0 + np.abs(flux.df(u))))


@pytest.mark.parametrize("flux", ALL_SMOOTH, ids=lambda f: f.name)
def test_certificates_cover_samples(flux):
    u = np.linspace(*flux.K, 4097)
    assert flux.lambda_hat >= np.max(np.abs(flux.df(u))) - 1e-12
    if flux.kappa > 0.0:
        assert np.all(np.diff(flux.df(u)) > 0.0)
        assert np.all(flux.d2f(u) >= flux.kappa - 1e-12)


def test_burgers_exact_certificates():
    f = burgers((-1.0, 1.0))
    assert f.kappa == 1.0
    assert f.lambda_hat == 1.0
    assert f(2.0) == 2.0
    g = burgers((-0.5, 2.0))
    assert g.lambda_hat == 2.0


def test_convex_poly_exact_certificates():
    # f'' = 1 + 0.6 u + 3 u^2, interior vertex at u = -0.1
    f = convex_poly(0.5, 0.1, 0.25)
    vertex = -0.1
    assert f.kappa == pytest.approx(1.0 + 0.6 * vertex + 3.0 * vertex ** 2)
    # |f'| max at an endpoint here
    assert f.lambda_hat == pytest.approx(abs(f.df(np.asarray(1.0))))
    # a concave-at-zero cubic is not uniformly convex on [-1, 1]
    g = convex_poly(0.1, 0.5, 0.0)
    assert g.kappa == 0.0


def test_scalar_flux_certificates_from_coefficients():
    # f = u + u^3 / 3 on [-1, 2]: f'' = 2u dips below zero, |f'| = 1 + u^2
    # peaks at u = 2; the trailing zero coefficient is dropped
    f = ScalarFlux("cubic", (0.0, 1.0, 0.0, 1.0 / 3.0, 0.0), (-1.0, 2.0))
    assert f.coeffs == (0.0, 1.0, 0.0, 1.0 / 3.0)
    assert f.degree == 3
    assert f.kappa == 0.0
    assert f.lambda_hat == 5.0
    with pytest.raises(ValueError):
        f.inverse_deriv(1.0)
    with pytest.raises(ValueError):
        ScalarFlux("quintic", (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("flux", [f for f in ALL_SMOOTH if f.kappa > 0.0],
                         ids=lambda f: f.name)
def test_inverse_deriv_round_trip(flux):
    u = np.linspace(*flux.K, 101)
    np.testing.assert_allclose(flux.inverse_deriv(flux.df(u)), u,
                               atol=1e-10, rtol=0.0)


def _newton_80_sweeps(flux, s):
    # the safeguarded Newton solve of convex_poly without its exit test
    lo, hi = flux.K
    a, b = np.full_like(s, lo), np.full_like(s, hi)
    u = 0.5 * (a + b)
    for _ in range(80):
        g = flux.df(u) - s
        a = np.where(g < 0.0, u, a)
        b = np.where(g > 0.0, u, b)
        u_new = u - g / np.maximum(flux.d2f(u), flux.kappa)
        bad = (u_new <= a) | (u_new >= b)
        u = np.where(bad, 0.5 * (a + b), u_new)
    return u


@pytest.mark.parametrize("flux", [convex_poly(0.5, 0.0, 0.25),
                                  convex_poly(0.5, 0.1, 0.0),
                                  convex_poly(0.5, 0.1, 0.0, (-1.0, 2.0))],
                         ids=lambda f: f.name + str(f.K))
def test_convex_poly_df_inv_matches_full_sweeps(flux):
    s = flux.df(np.linspace(*flux.K, 4097))
    u = flux.inverse_deriv(s)
    assert np.max(np.abs(flux.df(u) - s)) <= 1e-12
    np.testing.assert_allclose(u, _newton_80_sweeps(flux, s),
                               atol=1e-15, rtol=0.0)
    # scalar calls take the same path
    assert float(flux.inverse_deriv(s[1000])) == pytest.approx(u[1000], abs=1e-15)


@pytest.mark.parametrize("grid", ["states", "slopes"])
def test_convex_poly_df_inv_batch_converges_in_few_sweeps(grid, monkeypatch):
    # f'' is evaluated once per Newton step over the batch, and the
    # closed form is polished by exactly one step
    flux = convex_poly(0.5, 0.0, 0.25)
    lo, hi = flux.K
    if grid == "states":
        s = flux.df(np.linspace(lo, hi, 4097))
    else:
        s = np.linspace(flux.df(lo), flux.df(hi), 4097)
    sweeps = []
    d2f = ScalarFlux.d2f
    monkeypatch.setattr(ScalarFlux, "d2f",
                        lambda self, u: sweeps.append(1) or d2f(self, u))
    u = flux.inverse_deriv(s)
    assert len(sweeps) == 1
    assert np.max(np.abs(flux.df(u) - s)) <= 1e-12


@pytest.mark.parametrize("flux", [convex_poly(0.5, 0.0, 0.25),
                                  convex_poly(0.5, 0.1, 0.0, (-1.0, 2.0))],
                         ids=lambda f: f.name + str(f.K))
def test_convex_poly_df_inv_pins_roots_at_the_ends(flux):
    lo, hi = flux.K
    s_lo, s_hi = float(flux.df(lo)), float(flux.df(hi))
    got = flux.inverse_deriv(np.array([s_lo - 1.0, s_lo, s_hi, s_hi + 1.0]))
    np.testing.assert_array_equal(got, [lo, lo, hi, hi])
    assert float(flux.inverse_deriv(s_hi)) == hi


def test_inverse_deriv_takes_0d_input():
    flux = convex_poly(0.5, 0.0, 0.25)
    got = flux.inverse_deriv(0.3)
    assert np.shape(got) == ()
    assert got == flux.inverse_deriv(np.array([0.3]))[0]
    assert abs(float(flux.df(got)) - 0.3) <= 1e-15


# -- the closed-form root kernel against np.roots --------------------------------

def np_roots_in_cells(x, rows):
    """The ``np.roots`` loop the kernel replaced: one call per cell."""
    out = [np.empty(0)]
    for k in np.flatnonzero(np.any(rows[:, 1:] != 0.0, axis=1)):
        r = np.roots(rows[k][::-1]).real
        out.append(r[(r > x[k]) & (r < x[k + 1])])
    return np.concatenate(out)


def _np_real_roots(row):
    return np.sort(np.roots(np.asarray(row, dtype=float)[::-1]).real)


def _kernel_roots(row):
    r = poly_roots(np.array([row], dtype=float))[0]
    return np.sort(r[~np.isnan(r)])


def test_poly_roots_match_np_roots_on_random_rows():
    rng = np.random.default_rng(11)
    rows = np.zeros((9000, 4))
    deg = rng.integers(1, 4, 9000)
    for d in (1, 2, 3):
        k = deg == d
        rows[k, :d + 1] = rng.normal(size=(np.count_nonzero(k), d + 1))
    got = poly_roots(rows)
    for row, d, r in zip(rows, deg, got):
        assert np.all(np.isnan(r[d:])) and not np.any(np.isnan(r[:d]))
        want = _np_real_roots(row)
        assert np.max(np.abs(np.sort(r[:d]) - want)) <= (
            5e-12 * np.max(np.abs(want)))


def _newton_long(row, r):
    """Simple real roots ``r`` refined by Newton steps in extended precision."""
    c = np.asarray(row, dtype=np.longdouble)
    d = c[1:] * np.arange(1, len(c))
    r = np.asarray(r, dtype=np.longdouble)
    for _ in range(4):
        r = r - np.polyval(c[::-1], r) / np.polyval(d[::-1], r)
    return r


def test_poly_roots_tiny_cubic_coefficient():
    # the far root -c2/c3 leaves the cell; the two in it are those of the
    # quadratic part, whose relative accuracy the division must keep
    x = np.array([-1.0, 0.0, 1.0])
    rows = np.array([[-0.25, 0.0, 1.0, 1e-12], [0.02, -0.3, 1.0, -1e-12]])
    got = roots_in_cells(x, rows)
    want = np_roots_in_cells(x, rows)
    assert got.size == want.size == 3
    exact = np.concatenate([_newton_long(rows[0], got[:1]),
                            _newton_long(rows[1], got[1:])])
    np.testing.assert_allclose(got, exact.astype(float), rtol=1e-15)
    # np.roots balances a companion matrix spanning 12 decades and moves
    # the root near -1/2 by 8e-10; the other two it finds to 1e-12
    np.testing.assert_allclose(np.sort(got[1:]), np.sort(want[1:]), rtol=1e-12)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-8)


def test_poly_roots_triple_root_of_bundled_pair():
    e = next(e for e in bundled_pairs() if e["name"] == "quartic-vs-quadratic")
    x, gap = slope_gap(slope_pieces(e["f"]), slope_pieces(e["g"]))
    np.testing.assert_array_equal(gap, [[0.0, 0.0, 0.0, 1.0]])  # u^3
    assert np.all(poly_roots(gap) == 0.0)
    np.testing.assert_array_equal(roots_in_cells(x, gap),
                                  np_roots_in_cells(x, gap))


def test_poly_roots_double_root_of_curvature_at_an_end():
    # f'' = (u - 1)^2 on K = [-1, 1]: f'' vanishes, doubly, at the right end
    c = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / 12.0 + [0.0, 0.5, 0.0, 0.0, 0.0]
    f = ScalarFlux("end-flat", tuple(c), (-1.0, 1.0))
    np.testing.assert_array_equal(f._d2, [1.0, -2.0, 1.0])
    np.testing.assert_array_equal(_kernel_roots(f._d2), [1.0, 1.0])
    # np.roots splits a double root by about sqrt(eps)
    np.testing.assert_allclose(_np_real_roots(f._d2), [1.0, 1.0], atol=1e-7)
    assert f.kappa == 0.0
    assert repr(f.lambda_hat) == repr(_np_certificates(f)[1])


def test_poly_roots_zero_discriminant():
    # (u - 1)^2 (u + 2) and (u + 2)^2 (u - 1): exact, where np.roots
    # splits the double root
    np.testing.assert_array_equal(_kernel_roots([2.0, -3.0, 0.0, 1.0]),
                                  [-2.0, 1.0, 1.0])
    np.testing.assert_array_equal(_kernel_roots([-4.0, 0.0, 3.0, 1.0]),
                                  [-2.0, -2.0, 1.0])
    for row in ([2.0, -3.0, 0.0, 1.0], [-4.0, 0.0, 3.0, 1.0], [1.0, -2.0, 1.0]):
        np.testing.assert_allclose(_kernel_roots(row), _np_real_roots(row),
                                   atol=1e-7)


@pytest.mark.parametrize("row", [[0.0, 1.0, 1.0, 1.0], [0.0, -2.0, 0.0, 1.0],
                                 [0.0, 0.0, 1.0, 1.0], [0.0, -1.0, 1.0],
                                 [0.0, 3.0]])
def test_poly_roots_zero_constant_gives_an_exact_zero(row):
    # np.roots strips the trailing zero and returns the root 0 exactly
    got, want = _kernel_roots(row), _np_real_roots(row)
    assert np.count_nonzero(got == 0.0) == np.count_nonzero(want == 0.0) >= 1
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-300)


def test_poly_roots_lower_true_degree():
    rows = np.array([[0.5, 2.0, 0.0, 0.0], [0.5, 2.0, -3.0, 0.0],
                     [5.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                     [1.0, -1.0, 0.0, 2.0]])
    got = poly_roots(rows)
    np.testing.assert_array_equal(np.isnan(got), [[0, 1, 1], [0, 0, 1],
                                                  [1, 1, 1], [1, 1, 1],
                                                  [0, 0, 0]])
    assert got[0, 0] == -0.25
    for row, r in zip(rows[[1, 4]], got[[1, 4]]):
        np.testing.assert_allclose(np.sort(r[~np.isnan(r)]),
                                   _np_real_roots(row), rtol=1e-15)
    # fewer columns give fewer root columns, and a constant gives none
    assert poly_roots(rows[:, :2]).shape == (5, 1)
    assert poly_roots(rows[:, :1]).shape == (5, 0)
    np.testing.assert_array_equal(roots_in_cells(np.array([-1.0, 1.0]),
                                                 rows[2:4, :]), [])


def _np_certificates(flux):
    """``kappa`` and ``lambda_hat`` from ``np.roots`` extreme candidates."""
    lo, hi = flux.K

    def cands(c):
        if len(c) < 3:
            return np.array([lo, hi])
        r = np.roots(_deriv(c)[::-1]).real
        return np.concatenate([[lo, hi], r[(r > lo) & (r < hi)]])

    d1 = _deriv(np.array(flux.coeffs))
    d2 = _deriv(d1)
    kap = float(np.min(horner(d2, cands(d2))))
    return max(0.0, kap), float(np.max(np.abs(horner(d1, cands(d1)))))


@pytest.mark.parametrize("flux", ALL_SMOOTH + [
    e[k] for e in bundled_pairs() for k in ("f", "g")] + [
    convex_poly(0.5, 0.1, 0.25), convex_poly(0.1, 0.5, 0.0),
    ScalarFlux("cubic", (0.0, 1.0, 0.0, 1.0 / 3.0), (-1.0, 2.0))],
    ids=lambda f: f.name + str(f.K))
def test_certificates_match_np_roots_reference(flux):
    assert repr((flux.kappa, flux.lambda_hat)) == repr(_np_certificates(flux))


def test_inverse_deriv_clamps_outside_range():
    f = burgers()
    assert f.inverse_deriv(5.0) == 1.0
    assert f.inverse_deriv(-5.0) == -1.0


def test_legendre_closed_form():
    # for f(u) = u^2/2 on a wide K the transform is s^2/2
    f = burgers((-3.0, 3.0))
    s = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(f.legendre(s), 0.5 * s * s, atol=1e-12)
    # tilt shifts the argmax: f*(s) = (s - eps)^2 / 2
    g = tilted_burgers(0.25, (-3.0, 3.0))
    np.testing.assert_allclose(g.legendre(s), 0.5 * (s - 0.25) ** 2,
                               atol=1e-12)


def test_scaled_burgers_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaled_burgers(0.0)
    with pytest.raises(ValueError):
        scaled_burgers(-1.0)


# -- piecewise linear tables ---------------------------------------------------

def test_pl_sample_interpolates_nodes():
    f = burgers()
    p = pl_sample(f, 8)
    assert p.nodes.size == 9
    np.testing.assert_allclose(p(p.nodes), f(p.nodes), atol=1e-15)
    assert p.K == f.K
    assert p.kappa == 0.0
    # steepest chord of u^2/2 on [-1, 1] with 8 cells
    assert p.lambda_hat == pytest.approx(1.0 - 1.0 / 8.0)


def test_pl_flux_rejects_out_of_span():
    p = pl_sample(burgers(), 4)
    with pytest.raises(ValueError):
        p(1.5)


def test_pl_slopes_monotone_for_convex_source():
    p = pl_sample(convex_poly(0.5, 0.1, 0.2), 32)
    assert np.all(np.diff(p.slopes) > 0.0) and p.convex
    # stored once, read-only, and read by lambda_hat
    assert p.slopes is p.slopes and not p.slopes.flags.writeable
    np.testing.assert_array_equal(
        p.slopes, np.diff(p.flux_values) / np.diff(p.nodes))
    assert p.lambda_hat == np.max(np.abs(p.slopes))
    # one segment is convex; equal or falling neighbouring slopes are not
    assert PiecewiseLinearFlux([0.0, 1.0], [0.0, 2.0]).convex
    assert not PiecewiseLinearFlux([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).convex
    assert not PiecewiseLinearFlux([0.0, 1.0, 2.0], [0.0, 1.0, 1.5]).convex


def test_pl_flux_needs_two_nodes():
    with pytest.raises(ValueError):
        PiecewiseLinearFlux([0.0], [0.0])
    with pytest.raises(ValueError):
        pl_sample(burgers(), 0)


# -- registry --------------------------------------------------------------------

def test_make_flux_round_trip():
    f = make_flux("tilted_burgers 0.25", (-1.0, 1.0))
    assert f.df(np.asarray(0.0)) == 0.25
    g = make_flux("convex_poly 0.5 0.0 0.25")
    assert g.kappa == 1.0
    lin = make_flux("linear -0.2")
    assert lin.lambda_hat == 0.2


def test_make_flux_node_table():
    f = make_flux("pl -1 0.5 0 0 1 0.5")
    assert isinstance(f, PiecewiseLinearFlux)
    assert f.K == (-1.0, 1.0)
    np.testing.assert_array_equal(f.nodes, [-1.0, 0.0, 1.0])
    assert f(0.0) == 0.0
    assert f.lambda_hat == 0.5


@pytest.mark.parametrize("spec", ["", "nosuch", "burgers 1.0",
                                  "scaled_burgers", "scaled_burgers -2",
                                  "convex_poly 1 2",
                                  "pl -1 0.5 0",      # odd table
                                  "pl 0 0 0 1"])      # nodes not increasing
def test_make_flux_rejects(spec):
    with pytest.raises(ValueError):
        make_flux(spec)

