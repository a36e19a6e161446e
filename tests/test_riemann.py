"""Single-jump solver: fans, admissibility, the sampled flux distance."""

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from fluxstab import (PiecewiseLinearFlux, Rarefaction, RiemannSampler,
                      ScalarFlux, Shock, UnsupportedFluxError, bundled_pairs,
                      burgers, convex_poly, deriv_gap_sup, eval_fan,
                      hat_d_estimate, linear_flux, pl_sample, riemann_l1_diff,
                      scaled_burgers, solve_riemann, tilted_burgers,
                      validate_fan)
from fluxstab import riemann
from fluxstab.fluxes import (MAX_DEGREE, eval_rows, refine, roots_in_cells,
                             slope_gap)
from fluxstab.riemann import RiemannFan, _lower_hull
from test_fluxes import np_roots_in_cells


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


def test_validate_fan_checks_table_chords_at_the_nodes():
    # slopes 1 and 1 + 1e-9: rising data 0 -> 2 need a front per segment,
    # and a lone chord passes 5e-10 above the middle node; so does a chord
    # over falling data 2 -> 0 once the slopes are swapped
    for values, uL, uR in [([0.0, 1.0, 2.0 + 1e-9], 0.0, 2.0),
                           ([0.0, 1.0 + 1e-9, 2.0 + 1e-9], 2.0, 0.0)]:
        flux = PiecewiseLinearFlux([0.0, 1.0, 2.0], values)
        validate_fan(solve_riemann(flux, uL, uR), flux)
        chord = (values[2] - values[0]) / 2.0
        forged = RiemannFan(uL, uR, (Shock(chord, uL, uR),))
        with pytest.raises(AssertionError, match="inadmissible"):
            validate_fan(forged, flux)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_validate_fan_checks_polynomial_chords_exactly(sign):
    # f(w) = 0.3 w + (w - 0.8)(w + 0.8)((w - 0.1)^2 + sign 0.02^2): every
    # chord from 0.8 to w has slope 0.3 + (w + 0.8)((w - 0.1)^2 + sign
    # 0.02^2), so with sign -1 the chord shock 0.8 -> -0.8 is inadmissible
    # only on (0.08, 0.12), between any coarse sample of the jump
    c = P.polyadd(P.polymul([-0.64, 0.0, 1.0],
                            [0.01 + sign * 0.02 ** 2, -0.2, 1.0]), [0.0, 0.3])
    flux = ScalarFlux("forged", tuple(c), (-1.0, 1.0))
    fan = RiemannFan(0.8, -0.8, (Shock(0.3, 0.8, -0.8),))
    if sign > 0.0:
        validate_fan(fan, flux)
    else:
        with pytest.raises(AssertionError, match="inadmissible"):
            validate_fan(fan, flux)


def _hull_waves(flux, uL, uR):
    """The envelope fan of a node table built as a hull, for any table."""
    a, b = (uL, uR) if uL < uR else (uR, uL)
    nodes = flux.nodes
    us = np.concatenate([[a], nodes[(nodes > a) & (nodes < b)], [b]])
    fs = flux(us)
    # falling data run down the upper hull, so speeds come out increasing
    hull = _lower_hull(us, fs) if uL < uR else _lower_hull(us, -fs)[::-1]
    return [Shock(float((fs[r] - fs[l]) / (us[r] - us[l])), float(us[l]),
                  float(us[r])) for l, r in zip(hull[:-1], hull[1:])]


def _convex_tables():
    """Random strictly convex tables with 200 jumps each, then every
    bundled sample at 128 and 512 segments with 50 (the hull is slow)."""
    rng = np.random.default_rng(5)
    for _ in range(70):
        n = int(rng.integers(1, 60))
        nodes = np.sort(rng.uniform(-1.0, 1.0, n + 1))
        slopes = np.sort(rng.normal(size=n))
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
        yield PiecewiseLinearFlux(nodes, values), 200
    for segments in (128, 512):
        for entry in bundled_pairs(segments=segments):
            if entry["name"] != "linear-pair":
                yield entry["f"], 50
                yield entry["g"], 50


def test_slice_waves_equal_hull_waves():
    rng = np.random.default_rng(6)
    for flux, n_jumps in _convex_tables():
        assert flux.convex
        data = rng.uniform(*flux.K, size=(n_jumps, 2))
        # a tenth of the jumps run from node to node
        data[:n_jumps // 10] = rng.choice(flux.nodes, size=(n_jumps // 10, 2))
        got, want = [], []
        for uL, uR in data[data[:, 0] != data[:, 1]]:
            got.append(solve_riemann(flux, uL, uR).waves)
            want.append(_hull_waves(flux, uL, uR))
        assert [len(w) for w in got] == [len(w) for w in want]
        got, want = (np.array([(w.left, w.right, w.speed) for fan in fans
                               for w in fan]) for fans in (got, want))
        np.testing.assert_array_equal(got[:, :2], want[:, :2])
        np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-15)


def test_hull_fans_equal_hull_waves():
    # values on quarters tie often, so falling jumps between equal values
    # make level chords, whose speed is -0.0 when differenced from the
    # fan-left end as the hull walks them
    rng = np.random.default_rng(8)
    level = 0
    for _ in range(60):
        nodes = np.linspace(-1.0, 1.0, int(rng.integers(3, 12)))
        flux = PiecewiseLinearFlux(nodes, rng.integers(-2, 3, nodes.size) / 4.0)
        if flux.convex:
            continue
        data = np.concatenate([rng.choice(nodes, size=(10, 2)),
                               rng.uniform(-1.0, 1.0, size=(10, 2))])
        for uL, uR in data[data[:, 0] != data[:, 1]]:
            waves = solve_riemann(flux, uL, uR).waves
            assert repr(waves) == repr(tuple(_hull_waves(flux, uL, uR)))
            level += sum(w.speed == 0.0 and np.signbit(w.speed)
                         for w in waves)
    assert level > 0


def test_equal_slopes_keep_the_hull_and_merge():
    # dyadic values, so the repeated slopes are exact and the nodes on
    # them exactly collinear
    lin = pl_sample(linear_flux(0.25), 8)
    kinked = PiecewiseLinearFlux([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 2.0])
    assert not lin.convex and not kinked.convex
    for uL, uR in [(-1.0, 1.0), (1.0, -1.0), (-0.6, 0.9), (0.9, -0.6)]:
        fan = solve_riemann(lin, uL, uR)
        assert fan.waves == (Shock(0.25, uL, uR),)
    for uL, uR in [(1.0, 3.0), (1.5, 2.5), (3.0, 0.0)]:
        fan = solve_riemann(kinked, uL, uR)
        assert len(fan.waves) == 1
        validate_fan(fan, kinked)
    # the merged node 2 is no state of the fan over both kinks
    fan = solve_riemann(kinked, 0.0, 3.0)
    assert [(w.left, w.right) for w in fan.waves] == [(0.0, 1.0), (1.0, 3.0)]
    # 0.3 u sampled on eighths is collinear only up to rounding: its
    # slopes wobble by an ulp, so the table is not convex and the hull
    # keeps any rounding kink it sees, at speeds within 2 ulp of 0.3
    wobbly = pl_sample(linear_flux(0.3), 8)
    assert not wobbly.convex
    for uL in wobbly.nodes:
        for uR in wobbly.nodes[wobbly.nodes != uL]:
            fan = solve_riemann(wobbly, uL, uR)
            validate_fan(fan, wobbly)
            np.testing.assert_allclose([w.speed for w in fan.waves], 0.3,
                                       rtol=4e-16)


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
        (wave_f,) = solve_riemann(f, uL, uR).waves
        edges = sorted({w.speed for w in fan_g.waves}
                       | ({wave_f.speed} if isinstance(wave_f, Shock)
                          else {wave_f.xi_lo, wave_f.xi_hi}))

        def gap(xi):
            return abs(_cubic_state(uL, uR, xi) - eval_fan(fan_g, 1.0, xi))

        want = 1.5 * sum(quad(gap, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
                         for lo, hi in zip(edges[:-1], edges[1:]))
        got = riemann_l1_diff(f, g, uL, uR, 1.5)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("entry", [e for e in bundled_pairs(segments=128)
                                   if e["name"] != "linear-pair"],
                         ids=lambda e: e["name"])
def test_l1_diff_convex_tables_match_closed_forms(entry):
    f, g = entry["f"], entry["g"]
    assert f.convex and g.convex and np.array_equal(f.nodes, g.nodes)
    rng = np.random.default_rng(23)
    # floor: the gap is a difference of rounded slopes and interpolated
    # values of size about max |f| + lambda_hat |jump|, so where it is
    # small next to them no float sum is closer than a few ulp of that
    size = max(np.max(np.abs(f.flux_values)), np.max(np.abs(g.flux_values)))
    lam = max(f.lambda_hat, g.lambda_hat)
    for uL, uR in rng.uniform(-1.0, 1.0, size=(200, 2)):
        t = rng.uniform(0.5, 2.0)
        if uL < uR:
            # both fans follow their tables: the integral of |f' - g'|
            lo = np.clip(f.nodes[:-1], uL, uR)
            hi = np.clip(f.nodes[1:], uL, uR)
            want = t * np.sum(np.abs(f.slopes - g.slopes) * (hi - lo))
        else:
            # both fans are one chord: |Delta (f - g)|
            want = t * abs((f(uL) - g(uL)) - (f(uR) - g(uR)))
        floor = 1e-15 * t * (size + lam * abs(uR - uL))
        assert riemann_l1_diff(f, g, uL, uR, t) == pytest.approx(
            want, rel=1e-13, abs=floor)


def test_l1_diff_builds_no_fan(monkeypatch):
    built = []
    solve, fan = riemann.solve_riemann, riemann.RiemannFan
    monkeypatch.setattr(riemann, "solve_riemann",
                        lambda *args: built.append(args) or solve(*args))
    monkeypatch.setattr(riemann, "RiemannFan",
                        lambda *args: built.append(args) or fan(*args))
    f, g = pl_sample(burgers(), 16), pl_sample(scaled_burgers(1.5), 16)
    nonconvex = PiecewiseLinearFlux(f.nodes, np.cos(3.0 * f.nodes))
    pairs = [(f, g), (f, nonconvex), (nonconvex, nonconvex)]
    for smooth in (burgers(), convex_poly(0.5, 0.1, 0.0), linear_flux(0.3)):
        pairs += [(f, smooth), (smooth, f), (smooth, burgers())]
    for uL, uR in [(-0.3, 0.8), (0.8, -0.3)]:
        for ff, gg in pairs:
            assert riemann_l1_diff(ff, gg, uL, uR) >= 0.0
    assert built == []
    for uL, uR in [(0.0, 1.5), (-1.5, 0.0), (1.5, 0.0), (0.0, -1.5)]:
        with pytest.raises(ValueError):
            riemann_l1_diff(f, g, uL, uR)


_GAUSS2 = 1.0 / np.sqrt(3.0)


def _reference_l1_diff(flux_f, flux_g, uL, uR, t=1.0):
    """The gap summed by the two-point Gauss rule over both fans turned
    back into ``E'``, cut at the roots of its difference, for any fans."""
    if uL == uR:
        return 0.0
    pieces = []
    for flux in (flux_f, flux_g):
        fan = solve_riemann(flux, uL, uR)
        waves = fan.waves if fan.uL < fan.uR else fan.waves[::-1]
        x = np.array([min(fan.uL, fan.uR)]
                     + [max(w.left, w.right) for w in waves])
        rows = np.zeros((len(waves), MAX_DEGREE))
        for k, w in enumerate(waves):
            if isinstance(w, Shock):
                rows[k, 0] = w.speed
            else:
                rows[k, :len(flux.slope_coeffs)] = flux.slope_coeffs
        pieces.append((x, rows))
    x, gap = slope_gap(*pieces)
    x, gap = refine(x, gap, roots_in_cells(x, gap))
    h = 0.5 * np.diff(x)
    nodes = x[:-1] + h + np.outer([-_GAUSS2, _GAUSS2], h)
    inc = h * np.sum(eval_rows(gap, nodes), axis=0)
    return t * float(np.sum(np.abs(inc)))


def _gap_pairs():
    """Nonconvex random tables, convex samples, smooth shock and
    rarefaction pairs, and mixed and linear pairs, all on [-1, 1]."""
    rng = np.random.default_rng(17)
    nodes = np.linspace(-1.0, 1.0, 9)
    tables = [PiecewiseLinearFlux(nodes, rng.integers(-2, 3, 9) / 4.0)
              for _ in range(4)]
    tables += [PiecewiseLinearFlux(np.sort(np.concatenate(
        [[-1.0, 1.0], rng.uniform(-1.0, 1.0, 12)])), rng.normal(size=14))
        for _ in range(4)]
    pairs = list(zip(tables[:-1], tables[1:]))
    for e in bundled_pairs(segments=32):
        pairs.append((e["f"], e["g"]))
    smooth = [burgers(), scaled_burgers(1.5), tilted_burgers(0.25),
              convex_poly(0.5, 0.1, 0.0), convex_poly(0.5, 0.0, 0.25)]
    pairs += list(zip(smooth[:-1], smooth[1:]))
    pairs += [(linear_flux(0.3), linear_flux(-0.2)),
              (linear_flux(0.3), burgers()), (burgers(), linear_flux(0.0))]
    for table in (tables[0], tables[5], pl_sample(burgers(), 16)):
        for other in (burgers(), convex_poly(0.5, 0.1, 0.0),
                      linear_flux(0.3)):
            pairs += [(table, other), (other, table)]
    return rng, pairs


def test_l1_diff_matches_gauss_sum_over_fans():
    rng, pairs = _gap_pairs()
    for f, g in pairs:
        data = rng.uniform(-1.0, 1.0, size=(40, 2))
        if isinstance(f, PiecewiseLinearFlux):
            data[:10] = rng.choice(f.nodes, size=(10, 2))
        for (uL, uR), t in zip(data, rng.choice([0.5, 1.0, 1.7], 40)):
            assert repr(riemann_l1_diff(f, g, uL, uR, t)) == repr(
                _reference_l1_diff(f, g, uL, uR, t))


def test_l1_diff_matches_np_roots_path(monkeypatch):
    # the closed-form root kernel against the np.roots loop it replaced:
    # the same bits on the bundled pairs, 1e-12 on a polynomial against
    # its own table, where every cell carries the polynomial's terms
    jumps = np.random.default_rng(23).uniform(-1.0, 1.0, size=(200, 2))
    bundled = [(e["f"], e["g"]) for e in bundled_pairs()]
    mixed = [(f, pl_sample(f, 128)) for f in
             (burgers(), convex_poly(0.5, 0.1, 0.0), convex_poly(0.5, 0.0, 0.25))]
    mixed += [(g, f) for f, g in mixed]

    def gaps():
        return [[riemann_l1_diff(f, g, a, b) for a, b in jumps]
                for f, g in bundled + mixed]

    got = gaps()
    monkeypatch.setattr(riemann, "roots_in_cells", np_roots_in_cells)
    want = gaps()
    assert list(map(repr, got[:6])) == list(map(repr, want[:6]))
    np.testing.assert_allclose(got[6:], want[6:], rtol=1e-12, atol=0.0)


def test_l1_diff_zero_for_equal_data():
    assert riemann_l1_diff(burgers(), scaled_burgers(2.0), 0.3, 0.3) == 0.0


# -- sampled distance -------------------------------------------------------------

def test_hat_d_tilt_is_exact_at_every_sample():
    eps = 0.25
    rep = hat_d_estimate(burgers(), tilted_burgers(eps),
                         RiemannSampler(n_grid=16, n_near=8))
    assert rep.estimate == pytest.approx(eps, rel=1e-9)


def test_hat_d_scale_concentrates_near_diagonal():
    alpha = 1.5
    rep = hat_d_estimate(burgers(), scaled_burgers(alpha),
                         RiemannSampler(n_grid=32, n_near=32))
    want = abs(1.0 - alpha)  # = max |u - alpha u| over [-1, 1]
    assert rep.estimate <= want * (1.0 + 1e-9) + 1e-12
    assert rep.estimate >= 0.95 * want
    # the best pair hugs the diagonal at an endpoint of K
    assert abs(rep.arg_right - rep.arg_left) <= 1e-2
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
