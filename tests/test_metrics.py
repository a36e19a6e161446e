"""Inequality checks and the bundled pair suite."""

import numpy as np
import pytest

from fluxstab import (PiecewiseConstantFn, PiecewiseLinearFlux,
                      RiemannSampler, StabilityReport, bundled_pairs, burgers,
                      check_pgeneral, check_tmain, convex_poly, deriv_gap_sup,
                      ft_evolve, lerrest_diagnostic, linear_flux, pl_sample,
                      scaled_burgers, stability_suite, sup_location,
                      tilted_burgers)
from fluxstab import metrics
from fluxstab.linear_hd import hat_d_lin
from fluxstab.metrics import _slopes_at
from fluxstab.riemann import FluxDistanceReport
from test_fluxes import np_roots_in_cells


def pulse():
    return PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])


# -- derivative gap --------------------------------------------------------------

def test_deriv_gap_exact_for_sampled_tilt():
    f = pl_sample(burgers(), 16)
    g = pl_sample(tilted_burgers(0.25), 16)
    assert deriv_gap_sup(f, g) == pytest.approx(0.25, abs=1e-14)


def test_deriv_gap_smooth_scale_pair():
    # |u - 1.5 u| peaks at the endpoints of K
    got = deriv_gap_sup(burgers(), scaled_burgers(1.5))
    assert got == pytest.approx(0.5, abs=1e-14)


def test_deriv_gap_smooth_quartic_pair():
    # |(u + u^3) - u| = |u|^3 peaks at the endpoints of K
    got = deriv_gap_sup(convex_poly(0.5, 0.0, 0.25), burgers())
    assert got == pytest.approx(1.0, abs=1e-14)


def test_deriv_gap_interior_extreme():
    # f' - g' = u^3 - u vanishes at the ends of K and peaks at 1/sqrt(3)
    got = deriv_gap_sup(convex_poly(0.5, 0.0, 0.25), scaled_burgers(2.0))
    assert got == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-15)


def test_deriv_gap_mixed_pl_and_smooth():
    f = pl_sample(burgers(), 64)
    got = deriv_gap_sup(f, burgers())
    # staircase slopes sit half a cell off the true derivative, which
    # reaches them at every node, from within the cell
    assert got == pytest.approx(1.0 / 64, abs=1e-14)


def test_deriv_gap_matches_np_roots_path(monkeypatch):
    # the closed-form root kernel against the np.roots loop it replaced
    bundled = [(e["f"], e["g"]) for e in bundled_pairs()]
    mixed = [(f, pl_sample(f, 128)) for f in
             (burgers(), convex_poly(0.5, 0.1, 0.0), convex_poly(0.5, 0.0, 0.25))]
    got = [deriv_gap_sup(f, g) for f, g in bundled + mixed]
    monkeypatch.setattr(metrics, "roots_in_cells", np_roots_in_cells)
    want = [deriv_gap_sup(f, g) for f, g in bundled + mixed]
    assert list(map(repr, got[:6])) == list(map(repr, want[:6]))
    np.testing.assert_allclose(got[6:], want[6:], rtol=1e-12, atol=0.0)


def test_deriv_gap_requires_shared_span():
    with pytest.raises(ValueError):
        deriv_gap_sup(burgers((-1.0, 1.0)), burgers((-2.0, 2.0)))


# -- the semigroup bound ----------------------------------------------------------

def test_tmain_linear_pair_is_equality():
    rep = check_tmain(linear_flux(0.3), linear_flux(-0.2),
                      PiecewiseConstantFn.step(0.0, 0.0, 1.0), 1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)
    assert rep.lipschitz == 1.0
    assert "PASS" in rep.line()


def test_tmain_holds_on_sampled_convex_pair():
    f = pl_sample(burgers(), 128)
    g = pl_sample(scaled_burgers(1.25), 128)
    rep = check_tmain(f, g, pulse(), 1.0)
    assert rep.holds
    assert 0.0 < rep.lhs <= rep.rhs
    assert rep.hat_d == pytest.approx(deriv_gap_sup(f, g), abs=1e-15)


def test_tmain_rhs_monotone_in_horizon():
    f = pl_sample(burgers(), 64)
    g = pl_sample(tilted_burgers(0.1), 64)
    u0 = pulse()
    rhs = [check_tmain(f, g, u0, T).rhs for T in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(rhs, rhs[1:]))


def test_tmain_rejects_bad_horizon():
    with pytest.raises(ValueError):
        check_tmain(linear_flux(0.1), linear_flux(0.2), pulse(), 0.0)


# -- sampled distance vs closed form ----------------------------------------------

def test_pgeneral_tilt_pair_exact():
    rep = check_pgeneral(burgers(), tilted_burgers(0.25))
    assert rep.holds
    assert rep.estimate == pytest.approx(0.25, rel=1e-9)
    assert rep.ratio == pytest.approx(1.0, rel=1e-6)


def test_pgeneral_scale_pair_concentrates_near_diagonal():
    rep = check_pgeneral(burgers(), scaled_burgers(1.5))
    assert rep.holds
    assert rep.location == "near-diagonal"
    assert max(abs(rep.arg_left), abs(rep.arg_right)) >= 0.99
    assert "near-diagonal" in rep.line()


def test_sup_location_classifier():
    def rep(a, b):
        return FluxDistanceReport(estimate=1.0, arg_left=a, arg_right=b,
                                  n_samples=1, sampler=RiemannSampler())

    assert sup_location(rep(0.5, 0.5005), (-1.0, 1.0)) == "near-diagonal"
    assert sup_location(rep(0.0, 1.0), (-1.0, 1.0)) == "large-jump"


# -- a-posteriori functional -------------------------------------------------------

def test_lerrest_exact_path_has_zero_defect():
    flux = pl_sample(burgers(), 64)
    u0 = pulse()

    def w(t):
        return ft_evolve(flux, u0, t).profile if t > 0.0 else \
            ft_evolve(flux, u0, 0.0).profile

    rep = lerrest_diagnostic(flux, w, 1.0, n_steps=16)
    assert rep.holds
    assert rep.lhs <= 1e-10
    assert rep.rhs <= 1e-8


def test_lerrest_cross_flux_path():
    f = pl_sample(burgers(), 64)
    g = pl_sample(tilted_burgers(0.1), 64)
    u0 = pulse()

    def w(t):
        return ft_evolve(g, u0, t).profile

    rep = lerrest_diagnostic(f, w, 1.0, n_steps=64)
    assert rep.holds
    assert rep.rhs > 0.0
    assert rep.n_steps == 64
    with pytest.raises(ValueError):
        lerrest_diagnostic(f, w, 0.0)


# -- bundled pairs -----------------------------------------------------------------

def test_bundled_pairs_composition():
    pairs = bundled_pairs()
    names = [p["name"] for p in pairs]
    assert names == ["tilt-quarter", "scale-150", "quartic-vs-quadratic",
                     "tilt-vs-scale", "cubic-shear", "linear-pair"]
    for p in pairs[:-1]:
        assert p["f"].kappa > 0.0 and p["g"].kappa > 0.0
        assert p["f"].K == p["g"].K


def test_bundled_pairs_sampled_form():
    pairs = bundled_pairs(segments=32)
    for p in pairs:
        if p["name"] == "linear-pair":
            assert not isinstance(p["f"], PiecewiseLinearFlux)
        else:
            assert isinstance(p["f"], PiecewiseLinearFlux)
            assert p["f"].nodes.size == 33
            np.testing.assert_array_equal(p["f"].nodes, p["g"].nodes)


# -- suite reports -----------------------------------------------------------------

def test_report_rows_round_trip():
    rep = StabilityReport(
        pair="demo", hat_d_estimate=0.25, sup_hatd_lin=0.25,
        c0_derivative_gap=0.25,
        semigroup_gaps=(("pulse", 1.0, 0.5, 2.0), ("stair", 1.0, 0.7, 2.8)),
        pgeneral_holds=True, tmain_holds=True)
    other = StabilityReport(
        pair="other", hat_d_estimate=0.1, sup_hatd_lin=0.1,
        c0_derivative_gap=0.1,
        semigroup_gaps=(("pulse", 1.0, 0.2, 2.0),),
        pgeneral_holds=True, tmain_holds=False)
    rows = rep.rows() + other.rows()
    assert len(rows) == 3 and len(rows[0]) == len(StabilityReport.COLUMNS)
    back = StabilityReport.from_rows(rows)
    assert back == [rep, other]
    assert "demo" in rep.summary() and "ok" in rep.summary()


def _reference_sup_lin(f, g):
    # the suite's former loop: one 1x1 hat_d_lin per cell midpoint of K
    grid = np.linspace(f.K[0], f.K[1], 257)
    mids = 0.5 * (grid[:-1] + grid[1:])
    return max(hat_d_lin(np.asarray([[a]]), np.asarray([[b]])).value
               for a, b in zip(_slopes_at(f, mids), _slopes_at(g, mids)))


@pytest.mark.parametrize("segments", [64, 100])
def test_stability_suite_runs_every_pair(segments):
    # at 100 segments the 256 midpoints fall off the node grid's pattern
    sampler = RiemannSampler(n_grid=16, n_near=16)
    reports = stability_suite(segments=segments, T=0.5, sampler=sampler)
    pairs = bundled_pairs(segments=segments)
    assert [r.pair for r in reports] == [p["name"] for p in pairs]
    stair = PiecewiseConstantFn.from_steps(
        0.0, [(-0.5, 0.8), (0.0, -0.6), (0.75, 0.0)])
    for r, entry in zip(reports, pairs):
        f, g = entry["f"], entry["g"]
        pg = check_pgeneral(f, g, sampler)
        tm = [(name, check_tmain(f, g, u0, 0.5))
              for name, u0 in (("pulse", pulse()), ("stair", stair))]
        assert r == StabilityReport(
            pair=entry["name"],
            hat_d_estimate=pg.estimate,
            sup_hatd_lin=float(_reference_sup_lin(f, g)),
            c0_derivative_gap=pg.deriv_sup,
            semigroup_gaps=tuple((name, 0.5, rep.lhs, rep.tv_time_integral)
                                 for name, rep in tm),
            pgeneral_holds=pg.holds,
            tmain_holds=all(rep.holds for _, rep in tm))
        assert r.pgeneral_holds and r.tmain_holds
        assert r.hat_d_estimate >= 0.0
        assert r.sup_hatd_lin >= 0.0
        for _datum, T, gap, tv in r.semigroup_gaps:
            assert T == 0.5
            assert gap <= r.c0_derivative_gap * tv * (1.0 + 1e-6) + 1e-9
    tilt = reports[0]
    assert tilt.c0_derivative_gap == pytest.approx(0.25, abs=1e-14)
    # the tilted evolution is a translate: the pulse gap saturates the bound
    name, T, gap, tv = tilt.semigroup_gaps[0]
    assert (name, T) == ("pulse", 0.5)
    assert gap == pytest.approx(0.25 * tv, rel=1e-9)
