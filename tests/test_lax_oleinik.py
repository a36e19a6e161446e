"""Variational evaluator against closed-form profiles."""

import numpy as np
import pytest

from fluxstab import (LaxOleinikProblem, PeriodicSquareWave,
                      PiecewiseConstantFn, ShockChars, burgers, convex_poly,
                      ft_evolve, lax_oleinik_eval, lax_oleinik_eval_many,
                      linear_flux, linfty_bound_check, modified_datum,
                      oleinik_tv_bound_check, one_sided_lipschitz_check,
                      pl_sample, rexp_counterexample, sawtooth_datum,
                      scaled_burgers, tilted_burgers)
from fluxstab.lax_oleinik import StepData, _quadratic_profile, as_initial_data


def square_pulse(height=1.0, width=1.0):
    return PiecewiseConstantFn.from_steps(0.0, [(0.0, height), (width, 0.0)])


# -- data descriptors ---------------------------------------------------------

def test_step_data_primitive_matches_integral():
    fn = PiecewiseConstantFn.from_steps(
        0.5, [(-1.0, 2.0), (0.25, -0.75), (1.5, 0.0)])
    data = StepData(fn)
    assert data.primitive(0.0) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        y1, y2 = np.sort(rng.uniform(-3.0, 3.0, 2))
        want = float(fn.integral((y1, y2))[0])
        got = float(data.primitive(y2) - data.primitive(y1))
        assert got == pytest.approx(want, abs=1e-12)
    np.testing.assert_array_equal(data.kinks(-2.0, 2.0), fn.breakpoints)
    assert data.kinks(0.0, 0.2).size == 0
    assert data.bounds() == (-0.75, 2.0)


def test_square_wave_primitive_and_kinks():
    wave = PeriodicSquareWave(period=1.0, high_len=0.25, hi=2.0, lo=-1.0)
    ys = np.linspace(-2.3, 3.7, 400)
    # brute cumulative integral of the closed-form values
    grid = np.linspace(-5.0, 5.0, 2 * 10 ** 5 + 1)
    dense = wave.value(0.5 * (grid[:-1] + grid[1:]))
    cum = np.concatenate([[0.0], np.cumsum(dense * np.diff(grid))])
    anchor = np.interp(0.0, grid, cum)
    brute = np.interp(ys, grid, cum) - anchor
    np.testing.assert_allclose(wave.primitive(ys), brute, atol=2e-4)
    # one period adds the exact per-period mass
    mass = 2.0 * 0.25 + (-1.0) * 0.75
    np.testing.assert_allclose(
        wave.primitive(ys + 1.0) - wave.primitive(ys), mass, atol=1e-12)
    kinks = wave.kinks(0.0, 2.0)
    np.testing.assert_allclose(kinks, [0.0, 0.25, 1.0, 1.25, 2.0], atol=1e-12)
    with pytest.raises(ValueError):
        PeriodicSquareWave(period=1.0, high_len=1.0)


def test_sawtooth_datum_shape():
    w = sawtooth_datum(3)
    assert w.period == pytest.approx(0.25)
    assert w.high_len == pytest.approx(0.125)
    assert (w.hi, w.lo) == (1.0, -1.0)
    with pytest.raises(ValueError):
        sawtooth_datum(0)


def test_as_initial_data_rejects_junk():
    with pytest.raises(TypeError):
        as_initial_data([1, 2, 3])
    data = as_initial_data(square_pulse())
    assert isinstance(data, StepData)
    wave = sawtooth_datum(1)
    assert as_initial_data(wave) is wave


def test_problem_validation():
    with pytest.raises(ValueError):
        LaxOleinikProblem(linear_flux(0.3), square_pulse())  # not convex
    with pytest.raises(ValueError):
        LaxOleinikProblem(burgers(), square_pulse(height=3.0))  # outside K


# -- closed-form solutions ------------------------------------------------------

def test_fused_sawtooth_profile():
    # square wave of period p, half high: at t = p/2 the fans have exactly
    # filled the gaps, leaving the sawtooth u = (x - kp) / t with shocks at
    # the half-period points, read as left limits; from n = 41 on the
    # whole range of G is below 1e-12, so the tie rule may take no fixed
    # tolerance
    for n in (1, 2, 3, 20, 41, 200, 1000):
        p = 2.0 ** (1 - n)
        t = 2.0 ** (-n)
        problem = LaxOleinikProblem(burgers(), sawtooth_datum(n))
        ks = np.array([-1.0, 0.0, 1.0, 2.0])
        for frac in (-0.49, -0.2, 0.0, 0.01, 0.37, 0.49, 0.5):
            xs = ks * p + frac * p
            want = (frac * p) / t
            got = lax_oleinik_eval_many(problem, t, xs)
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_left_limits_at_shocks():
    problem = LaxOleinikProblem(burgers(), sawtooth_datum(1))
    # shocks sit at half-integers; evaluation returns the left state +1
    got = lax_oleinik_eval_many(problem, 0.5, [-0.5, 0.5, 1.5])
    np.testing.assert_allclose(got, 1.0, atol=1e-8)


def test_left_limits_on_tilted_sawtooth_shocks():
    # under f = u^2/2 + u/10 the fused sawtooth of sawtooth_datum(2) drifts
    # by t/10, putting shocks at x = 0.25 + 0.5 k + 0.03 at t = 0.3; the
    # left state there is 0.28 / 0.3 - 0.1 = 5/6
    problem = LaxOleinikProblem(tilted_burgers(0.1), sawtooth_datum(2))
    xs = [-0.22, 0.28, 0.78, 1.28]
    np.testing.assert_allclose(lax_oleinik_eval_many(problem, 0.3, xs),
                               5.0 / 6.0, atol=1e-12, rtol=0.0)


def test_point_on_datum_kink_at_small_time():
    # the pulse rises at 0 (a fan centred there) and drops at 1 (a shock
    # that has moved t/2 to the right), so x = 0 reads the fan's middle
    # state 0 and x = 1 the state 1 left of the shock
    problem = LaxOleinikProblem(burgers(), square_pulse())
    for t in (1e-9, 1e-3):
        got = lax_oleinik_eval_many(problem, t, [0.0, 1.0])
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-12, rtol=0.0)


def test_square_wave_windows_cut_mid_period():
    # period 0.6 with 0.25 high: at t = 0.25 each rising jump is a fan from
    # lo to hi and each falling jump a shock at speed (hi + lo) / 2; the
    # windows [x - t, x + t] end mid-period, so the end cells run past
    # kinks outside the window
    p, h, hi, lo, t = 0.6, 0.25, 0.75, -0.25, 0.25
    wave = PeriodicSquareWave(period=p, high_len=h, hi=hi, lo=lo)
    problem = LaxOleinikProblem(burgers(), wave)
    xs = np.linspace(-2.1, 2.3, 401)
    r = np.mod(xs, p)
    shock = h + 0.5 * (hi + lo) * t
    want = np.where(r <= hi * t, r / t,
                    np.where(r <= shock, hi,
                             np.where(r < p + lo * t, lo, (r - p) / t)))
    np.testing.assert_allclose(lax_oleinik_eval_many(problem, t, xs), want,
                               atol=1e-12, rtol=0.0)
    # one point alone: its own window's end cells are the outermost ones
    one = [lax_oleinik_eval(problem, t, x) for x in xs[::10]]
    np.testing.assert_allclose(one, want[::10], atol=1e-12, rtol=0.0)
    # a window holding no kink is a single cell read inside it
    assert lax_oleinik_eval(problem, 0.01, 0.5) == lo


def test_empty_points():
    problem = LaxOleinikProblem(burgers(), sawtooth_datum(1))
    got = lax_oleinik_eval_many(problem, 0.5, [])
    assert got.shape == (0,)


def test_pulse_collapses_to_triangle():
    # mass 1 pulse: for t past the interaction time the profile is x/t on
    # (0, sqrt(2 t)) and zero outside, shock at sqrt(2 t)
    problem = LaxOleinikProblem(burgers(), square_pulse())
    t = 4.0
    X = np.sqrt(2.0 * t)
    inside = np.array([0.3, 1.0, 2.0, 0.9 * X])
    got = lax_oleinik_eval_many(problem, t, inside)
    np.testing.assert_allclose(got, inside / t, atol=1e-8)
    outside = np.array([-1.0, -0.1, X + 1e-6, X + 2.0])
    np.testing.assert_allclose(
        lax_oleinik_eval_many(problem, t, outside), 0.0, atol=1e-8)
    # left limit on the shock itself
    assert lax_oleinik_eval(problem, t, X) == pytest.approx(X / t, abs=1e-6)


def test_eval_input_handling():
    problem = LaxOleinikProblem(burgers(), square_pulse())
    with pytest.raises(ValueError):
        lax_oleinik_eval_many(problem, 0.0, [0.0])
    with pytest.raises(ValueError):
        lax_oleinik_eval_many(problem, -1.0, [0.0])
    one = lax_oleinik_eval(problem, 1.0, 0.5)
    many = lax_oleinik_eval_many(problem, 1.0, np.array([0.5]))
    assert one == many[0]


def test_matches_front_tracking_on_pulse():
    flux_pl = pl_sample(burgers(), 512)
    u0 = square_pulse()
    T = 0.5
    prof = ft_evolve(flux_pl, u0, T).profile
    problem = LaxOleinikProblem(burgers(), u0)
    xs = np.linspace(-0.5, 2.0, 201)
    gap = np.abs(lax_oleinik_eval_many(problem, T, xs) - prof(xs))
    assert float(np.mean(gap)) < 0.01


# -- oscillating-data gap -------------------------------------------------------

def test_rexp_gap_is_order_one():
    res = rexp_counterexample(1)
    assert res.l1_distance == pytest.approx(1.0, abs=1e-3)
    assert res.t == 0.5


def test_rexp_zero_tilt_vanishes():
    res = rexp_counterexample(2, tilt=0.0)
    assert res.l1_distance == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.3, -0.3, 1.0, -1.0, 1.5, 2.0])
def test_rexp_gap_closed_form(tau):
    # the sawtooth of slope 1/t and its shift by tau t differ by tau on a
    # share 1 - |tau|/2 of each period and by |tau| - 2 on the rest
    for n in range(1, 7):
        gap = rexp_counterexample(n, tilt=tau).l1_distance
        assert abs(gap - abs(tau) * (2.0 - abs(tau))) <= 1e-13


def test_rexp_gap_is_exact_at_every_scale():
    # from n = 40 on the whole range of G is below 1e-12, the absolute
    # tie floor of lax_oleinik_eval_many, so no fixed tolerance may enter
    for n in (14, 40, 200, 1022):
        assert rexp_counterexample(n).l1_distance == 1.0


def test_rexp_rejects_bad_input():
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tilt"):
            rexp_counterexample(3, tilt=tau)
    for n in (0, 1023):
        with pytest.raises(ValueError, match="n must"):
            rexp_counterexample(n)


# -- exact profile for quadratic fluxes -----------------------------------------

def _profile_at(profile, xs):
    """The profile at ``xs`` in ``(lo, hi]``, left limits on the cuts."""
    cuts, c0, c1 = profile
    k = np.searchsorted(cuts, xs, side="left") - 1
    return c0[k] + c1[k] * xs


def _seeded_steps(rng, jumps: int) -> PiecewiseConstantFn:
    return PiecewiseConstantFn(np.sort(rng.uniform(-1.0, 1.0, jumps)),
                               rng.uniform(-1.0, 1.0, jumps + 1))


@pytest.mark.parametrize("flux", [burgers(), scaled_burgers(0.75),
                                  tilted_burgers(0.1)],
                         ids=lambda f: f.name)
def test_quadratic_profile_matches_evaluator(flux):
    rng = np.random.default_rng(11)
    runs = [(sawtooth_datum(n), t, -1.3, 1.9) for n in range(1, 8)
            for t in (2.0 ** -n, 0.3)]
    runs += [(_seeded_steps(rng, jumps), t, -1.3, 1.9) for jumps in (1, 4, 9)
             for t in (0.05, 0.3, 1.0)]
    # small scales: a few periods p, shocks on and off validity ends
    runs += [(sawtooth_datum(n), k * p, -p, 2.0 * p) for n in (20, 41, 200)
             for p in [2.0 ** (1 - n)] for k in (0.5, 0.3, 1.7)]
    for datum, t, lo, hi in runs:
        problem = LaxOleinikProblem(flux, datum)
        profile = _quadratic_profile(problem, t, lo, hi)
        cuts = profile[0]
        assert cuts[0] == lo and cuts[-1] == hi and np.all(np.diff(cuts) > 0)
        # sampled points, piece midpoints, and every cut right of lo: the
        # fan edges and the shocks, read as left limits
        xs = np.concatenate([rng.uniform(lo, hi, 400),
                             0.5 * (cuts[:-1] + cuts[1:]), cuts[1:]])
        np.testing.assert_allclose(_profile_at(profile, xs),
                                   lax_oleinik_eval_many(problem, t, xs),
                                   atol=1e-12, rtol=0.0)


def test_quadratic_profile_shocks_read_left_limits():
    # the tilted sawtooth of test_left_limits_on_tilted_sawtooth_shocks:
    # shocks at 0.28 + 0.5 k, with left state 5/6 and right state -5/6
    problem = LaxOleinikProblem(tilted_burgers(0.1), sawtooth_datum(2))
    profile = _quadratic_profile(problem, 0.3, -1.0, 1.5)
    shocks = np.array([-0.22, 0.28, 0.78, 1.28])
    assert np.all(np.min(np.abs(profile[0][:, None] - shocks), axis=0) < 1e-15)
    np.testing.assert_allclose(_profile_at(profile, shocks), 5.0 / 6.0,
                               atol=1e-12, rtol=0.0)
    np.testing.assert_allclose(_profile_at(profile, shocks + 1e-9),
                               -5.0 / 6.0, atol=1e-8, rtol=0.0)


def test_quadratic_profile_needs_quadratic_flux():
    for flux in (convex_poly(0.5, 0.0, 0.25), convex_poly(0.5, 0.1, 0.0)):
        problem = LaxOleinikProblem(flux, sawtooth_datum(1))
        with pytest.raises(ValueError, match="quadratic"):
            _quadratic_profile(problem, 0.5, 0.0, 1.0)


# -- datum modification ---------------------------------------------------------

def test_modified_datum_pulse_triangle():
    u0 = square_pulse()
    problem = LaxOleinikProblem(burgers(), u0)
    t = 4.0
    X = np.sqrt(2.0 * t)
    um = X / t
    shock = ShockChars(xi_minus=0.0, xi_plus=X, u_minus=um, u_plus=0.0)
    mod = modified_datum(problem, t, [shock])
    # conservation puts the split at mass / u_minus
    np.testing.assert_allclose(mod.breakpoints, [0.0, 1.0 / um], atol=1e-12)
    np.testing.assert_allclose(mod.values[:, 0], [0.0, um, 0.0], atol=1e-12)
    # the modified datum evolves to the same profile at time t
    pm = LaxOleinikProblem(burgers(), mod)
    xs = np.array([-0.5, 0.4, 1.3, 2.2, X - 0.05, X + 0.3])
    np.testing.assert_allclose(
        lax_oleinik_eval_many(pm, t, xs),
        lax_oleinik_eval_many(problem, t, xs),
        atol=1e-6,
    )


def test_modified_datum_edge_cases():
    u0 = square_pulse()
    problem = LaxOleinikProblem(burgers(), u0)
    assert modified_datum(problem, 1.0, []) is u0
    with pytest.raises(ValueError):
        modified_datum(problem, 0.0, [])
    with pytest.raises(ValueError):
        modified_datum(problem, 1.0,
                       [ShockChars(0.0, 1.0, 0.5, 0.5)])  # equal states
    with pytest.raises(ValueError):
        modified_datum(problem, 1.0, [
            ShockChars(0.0, 1.0, 1.0, 0.0),
            ShockChars(0.5, 1.5, 1.0, 0.0),  # overlapping triangles
        ])
    with pytest.raises(TypeError):
        modified_datum(
            LaxOleinikProblem(burgers(), sawtooth_datum(1)), 1.0, [])


# -- bound checks ----------------------------------------------------------------

def test_tv_bound_on_fused_sawtooth():
    problem = LaxOleinikProblem(burgers(), sawtooth_datum(1))
    rep = oleinik_tv_bound_check(problem, 0.5, 0.0, 1.0)
    assert rep.holds
    # enlarged window is [-1, 2]: three slope-2 ramps and three shocks
    assert rep.tv == pytest.approx(12.0, rel=0.01)
    assert rep.bound == pytest.approx(24.0, rel=1e-12)


def test_linfty_bound_remark_pair():
    rep = linfty_bound_check(
        burgers(), tilted_burgers(-1.0), sawtooth_datum(1), 0.5, 0.0, 1.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-3)
    assert rep.deriv_gap == pytest.approx(1.0, abs=1e-12)


def test_refinements_report_their_budget():
    # the last doubling still moves lhs by about 1e-4 relative at 2^15
    rep = linfty_bound_check(convex_poly(0.5, 0.1, 0.0),
                             convex_poly(0.7, -0.1, 0.1), sawtooth_datum(1),
                             0.5, 0.0, 1.0)
    assert (rep.n_grid, rep.converged) == (32768, False)
    assert rep.line().endswith(", 32768 panels, budget reached)")
    # the shipped saturating config and the benchmark's oleinik-tv rows
    rep = linfty_bound_check(burgers(), tilted_burgers(-1.0),
                             sawtooth_datum(1), 0.5, 0.0, 1.0)
    assert (rep.n_grid, rep.converged) == (2048, True)
    assert rep.line().endswith(", 2048 panels)")
    for flux, n, t, b, n_grid in [(scaled_burgers(0.75), 3, 0.125, 1.0, 2048),
                                  (convex_poly(0.5, 0.0, 0.25), 1, 0.4, 2.0,
                                   4096)]:
        rep = oleinik_tv_bound_check(
            LaxOleinikProblem(flux, sawtooth_datum(n)), t, 0.0, b)
        assert (rep.n_grid, rep.converged) == (n_grid, True)
        assert "budget" not in rep.line()


def test_linfty_bound_input_checks():
    with pytest.raises(ValueError):
        linfty_bound_check(burgers((-1.0, 1.0)), burgers((-2.0, 2.0)),
                           square_pulse(), 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        linfty_bound_check(burgers(), linear_flux(0.5),
                           square_pulse(), 0.5, 0.0, 1.0)


def test_osl_check_on_sawtooth():
    problem = LaxOleinikProblem(burgers(), sawtooth_datum(2))
    rep = one_sided_lipschitz_check(problem, 0.25, 0.0, 1.0, n_pairs=2000)
    assert rep.violations == 0 and rep.holds
    assert rep.n_pairs > 0
    # ramps of slope 1/t make the bound sharp, so the excess sits near zero
    assert rep.max_excess <= rep.slack
    assert rep.max_excess > -0.5
