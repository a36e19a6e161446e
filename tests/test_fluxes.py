"""Flux constructors: certificates, derivative inverses, the name registry."""

import numpy as np
import pytest

from fluxstab import (PiecewiseLinearFlux, ScalarFlux, burgers, convex_poly,
                      linear_flux, make_flux, pl_sample, scaled_burgers,
                      tilted_burgers)

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
    u = flux.df_inv(s)
    assert np.max(np.abs(flux.df(u) - s)) <= 1e-12
    np.testing.assert_allclose(u, _newton_80_sweeps(flux, s),
                               atol=1e-15, rtol=0.0)
    # scalar calls take the same path
    assert float(flux.df_inv(s[1000])) == pytest.approx(u[1000], abs=1e-15)


@pytest.mark.parametrize("grid", ["states", "slopes"])
def test_convex_poly_df_inv_batch_converges_in_few_sweeps(grid, monkeypatch):
    # a Newton step that lands on the bracket end it has just set is a
    # converged lane; bisecting it away stalls the whole batch
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
    u = flux.df_inv(s)
    assert len(sweeps) <= 12
    assert np.max(np.abs(flux.df(u) - s)) <= 1e-12


@pytest.mark.parametrize("flux", [convex_poly(0.5, 0.0, 0.25),
                                  convex_poly(0.5, 0.1, 0.0, (-1.0, 2.0))],
                         ids=lambda f: f.name + str(f.K))
def test_convex_poly_df_inv_pins_roots_at_the_ends(flux):
    lo, hi = flux.K
    s_lo, s_hi = float(flux.df(lo)), float(flux.df(hi))
    got = flux.df_inv(np.array([s_lo - 1.0, s_lo, s_hi, s_hi + 1.0]))
    np.testing.assert_array_equal(got, [lo, lo, hi, hi])
    assert float(flux.df_inv(s_hi)) == hi


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

