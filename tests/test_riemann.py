"""Single-jump solver: fans, admissibility, the sampled flux distance."""

import numpy as np
import pytest

from fluxstab import (PiecewiseLinearFlux, Rarefaction, RiemannSampler,
                      ScalarFlux, Shock, UnsupportedFluxError, bundled_pairs,
                      burgers, convex_poly, deriv_gap_sup, eval_fan,
                      hat_d_estimate, linear_flux, pl_sample, riemann_l1_diff,
                      scaled_burgers, solve_riemann, tilted_burgers,
                      validate_fan)


def test_burgers_shock():
    fan = solve_riemann(burgers(), 1.0, 0.0)
    assert len(fan.waves) == 1
    w = fan.waves[0]
    assert isinstance(w, Shock)
    assert w.speed == pytest.approx(0.5)
    validate_fan(fan, burgers())


def test_burgers_rarefaction_profile():
    f = burgers()
    fan = solve_riemann(f, -1.0, 1.0)
    assert len(fan.waves) == 1
    assert isinstance(fan.waves[0], Rarefaction)
    validate_fan(fan, f)
    # inside the fan u(t, x) = x / t
    xs = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(eval_fan(fan, 1.0, xs), xs, atol=1e-12)
    np.testing.assert_allclose(eval_fan(fan, 2.0, xs), xs / 2.0, atol=1e-12)
    assert eval_fan(fan, 1.0, -2.0) == -1.0
    assert eval_fan(fan, 1.0, 2.0) == 1.0


def test_shock_left_limit_on_the_front():
    fan = solve_riemann(burgers(), 1.0, 0.0)
    assert eval_fan(fan, 1.0, 0.5) == 1.0  # exactly on the shock
    assert eval_fan(fan, 1.0, 0.5 + 1e-9) == 0.0


def test_linear_flux_contact_both_orientations():
    f = linear_flux(0.3)
    for uL, uR in [(0.2, -0.4), (-0.4, 0.2)]:
        fan = solve_riemann(f, uL, uR)
        assert len(fan.waves) == 1
        w = fan.waves[0]
        assert isinstance(w, Shock) and w.speed == pytest.approx(0.3)
        validate_fan(fan, f)


def test_smooth_nonconvex_increasing_jump_rejected():
    # kappa = 0 without an envelope table: refuse rather than guess
    bad = ScalarFlux("cubic", (0.0, 0.0, 0.0, 1.0), (-1.0, 1.0))
    assert bad.kappa == 0.0
    with pytest.raises(UnsupportedFluxError):
        solve_riemann(bad, -0.5, 0.5)


def test_smooth_nonconvex_decreasing_jump_rejected():
    # the concave envelope of u^3 on [-0.5, 0.5] follows the flux on the
    # left, so a lone chord shock would be inadmissible
    bad = ScalarFlux("cubic", (0.0, 0.0, 0.0, 1.0), (-1.0, 1.0))
    with pytest.raises(UnsupportedFluxError):
        solve_riemann(bad, 0.5, -0.5)


def test_pl_single_facet_hull():
    flux = PiecewiseLinearFlux([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    fan = solve_riemann(flux, 0.0, 2.0)
    # the chord (0,0)-(2,1) lies below the middle node: one front
    assert len(fan.waves) == 1
    assert fan.waves[0].speed == pytest.approx(0.5)
    validate_fan(fan, flux)


def test_pl_two_facet_upper_envelope():
    flux = PiecewiseLinearFlux([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    fan = solve_riemann(flux, 2.0, 0.0)
    speeds = [w.speed for w in fan.waves]
    assert speeds == pytest.approx([0.0, 1.0])
    assert fan.waves[0].left == 2.0 and fan.waves[-1].right == 0.0
    validate_fan(fan, flux)


def test_pl_fan_of_sampled_burgers_is_staircase():
    flux = pl_sample(burgers(), 16)
    fan = solve_riemann(flux, -1.0, 1.0)
    assert len(fan.waves) == 16
    validate_fan(fan, flux)
    # facet speeds approximate f' = u at the cell midpoints
    speeds = np.array([w.speed for w in fan.waves])
    mids = 0.5 * (flux.nodes[:-1] + flux.nodes[1:])
    np.testing.assert_allclose(speeds, mids, atol=1e-12)


def test_random_pl_fans_validate():
    rng = np.random.default_rng(3)
    for _ in range(60):
        nodes = np.linspace(-1.0, 1.0, int(rng.integers(3, 12)))
        flux = PiecewiseLinearFlux(nodes, rng.uniform(-1.0, 1.0, nodes.size))
        uL, uR = rng.choice(nodes, 2, replace=False)
        fan = solve_riemann(flux, float(uL), float(uR))
        validate_fan(fan, flux)


def test_data_outside_k_rejected():
    with pytest.raises(ValueError):
        solve_riemann(burgers(), -2.0, 0.0)
    with pytest.raises(ValueError):
        solve_riemann(pl_sample(burgers(), 4), 0.0, 1.5)


# -- fan-vs-fan distance --------------------------------------------------------

def test_l1_diff_linear_pair_closed_form():
    f, g = linear_flux(0.3), linear_flux(-0.2)
    for uL, uR, t in [(1.0, 0.0, 1.0), (-0.5, 0.75, 2.0), (0.1, -0.9, 0.5)]:
        want = 0.5 * t * abs(uR - uL)
        assert riemann_l1_diff(f, g, uL, uR, t) == pytest.approx(want, rel=1e-12)


def test_l1_diff_shock_speed_gap():
    f, g = burgers(), scaled_burgers(1.5)
    # both single shocks: gap = |speed difference| * t * |jump|
    got = riemann_l1_diff(f, g, 1.0, 0.0, 2.0)
    assert got == pytest.approx(abs(0.5 - 0.75) * 2.0 * 1.0, rel=1e-12)


def test_l1_diff_tilted_rarefactions():
    # the tilt shifts the whole fan: gap = eps * t * |jump|
    eps, t = 0.25, 1.5
    f, g = burgers(), tilted_burgers(eps)
    got = riemann_l1_diff(f, g, -1.0, 1.0, t)
    assert got == pytest.approx(eps * t * 2.0, rel=1e-7)


def test_l1_diff_quartic_vs_quadratic_closed_form():
    # f - g = u^4 / 4 falls to 0 and rises again across a jump over 0,
    # so the gap is its variation, t (a^4 + b^4) / 4
    rng = np.random.default_rng(11)
    f, g = convex_poly(0.5, 0.0, 0.25), burgers()
    for _ in range(200):
        a, b = -rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        t = rng.uniform(0.5, 2.0)
        want = t * 0.25 * (a ** 4 + b ** 4)
        assert riemann_l1_diff(f, g, a, b, t) == pytest.approx(want, rel=1e-13)


def _cubic_state(uL, uR, xi):
    # entropy solution of f = u^2/2 + u^3/10 at speed xi, in closed form:
    # a shock for falling data, else f' = u + 0.3 u^2 inverted by the
    # quadratic formula
    if uL > uR:
        speed = ((uR ** 2 - uL ** 2) / 2 + (uR ** 3 - uL ** 3) / 10) / (uR - uL)
        return uL if xi <= speed else uR
    return float(np.clip((np.sqrt(max(1.0 + 1.2 * xi, 0.0)) - 1.0) / 0.6,
                         uL, uR))


def test_l1_diff_mixed_smooth_and_sampled_pair():
    from scipy.integrate import quad

    f, g = convex_poly(0.5, 0.1, 0.0), pl_sample(burgers(), 16)
    # rising data cross facets of the staircase at and between its nodes
    for uL, uR in [(-1.0, 1.0), (-0.7, 0.43), (0.31, 0.9), (1.0, -1.0),
                   (0.55, -0.2)]:
        # reference: |u_f - u_g| integrated over the speed xi = x / t,
        # piece by piece between the wave speeds of both fans
        fan_g = solve_riemann(g, uL, uR)
        edges = sorted({w.speed for w in fan_g.waves}
                       | set(solve_riemann(f, uL, uR).speed_range))

        def gap(xi):
            return abs(_cubic_state(uL, uR, xi) - eval_fan(fan_g, 1.0, xi))

        want = 1.5 * sum(quad(gap, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
                         for lo, hi in zip(edges[:-1], edges[1:]))
        got = riemann_l1_diff(f, g, uL, uR, 1.5)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_l1_diff_zero_for_equal_data():
    assert riemann_l1_diff(burgers(), scaled_burgers(2.0), 0.3, 0.3) == 0.0


# -- sampled distance -------------------------------------------------------------

def test_hat_d_tilt_is_exact_at_every_sample():
    eps = 0.25
    rep = hat_d_estimate(burgers(), tilted_burgers(eps),
                         RiemannSampler(n_grid=16, n_near=8))
    assert rep.estimate == pytest.approx(eps, rel=1e-9)
    assert rep.is_lower_bound


def test_hat_d_scale_concentrates_near_diagonal():
    alpha = 1.5
    rep = hat_d_estimate(burgers(), scaled_burgers(alpha),
                         RiemannSampler(n_grid=32, n_near=32))
    want = abs(1.0 - alpha)  # = max |u - alpha u| over [-1, 1]
    assert rep.estimate <= want * (1.0 + 1e-9) + 1e-12
    assert rep.estimate >= 0.95 * want
    # the best pair hugs the diagonal at an endpoint of K
    assert rep.arg_gap <= 1e-2
    assert max(abs(rep.arg_left), abs(rep.arg_right)) >= 0.99


def test_hat_d_requires_shared_k():
    with pytest.raises(ValueError):
        hat_d_estimate(burgers((-1.0, 1.0)), burgers((-2.0, 1.0)))


@pytest.mark.parametrize("entry", [e for e in bundled_pairs()
                                   if e["name"] != "linear-pair"],
                         ids=lambda e: e["name"])
def test_hat_d_never_exceeds_derivative_gap(entry):
    f, g = entry["f"], entry["g"]
    rep = hat_d_estimate(f, g, RiemannSampler())
    assert rep.estimate <= deriv_gap_sup(f, g) * (1.0 + 1e-12)
