"""Event-driven evolution: exact collisions, variation bookkeeping."""

import time

import numpy as np
import pytest

from fluxstab import (FrontTrackingError, PiecewiseConstantFn,
                      PiecewiseLinearFlux, burgers, evolution_window,
                      ft_evolve, l1_distance, linear_flux, pl_sample,
                      semigroup_l1_diff, total_variation)
from fluxstab.front_tracking import (_PARALLEL, FrontTrackingState,
                                     _profile_from, _project_values)
from fluxstab import front_tracking
from fluxstab.metrics import bundled_pairs
from fluxstab.riemann import Shock, solve_riemann


def pulse(height=1.0, width=1.0):
    return PiecewiseConstantFn.from_steps(0.0, [(0.0, height), (width, 0.0)])


def test_merging_shocks_hand_case():
    # slopes 1 then 2; fast shock (speed 2) eats the slow one (speed 1)
    flux = PiecewiseLinearFlux([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    u0 = PiecewiseConstantFn.from_steps(2.0, [(0.0, 1.0), (1.0, 0.0)])
    state = ft_evolve(flux, u0, 2.0)
    assert state.n_events == 1
    # collision at (t, x) = (1, 2); merged shock speed (3 - 0)/(2 - 0)
    prof = state.profile
    np.testing.assert_allclose(prof.breakpoints, [3.5], atol=1e-12)
    np.testing.assert_allclose(prof.values[:, 0], [2.0, 0.0], atol=1e-15)
    assert state.tv_time_integral() == pytest.approx(4.0, abs=1e-12)
    # stopping at the collision time leaves both fronts at x = 2, which the
    # profile shows as one jump
    at_meeting = ft_evolve(flux, u0, 1.0)
    assert at_meeting.n_events == 0 and len(at_meeting.fronts) == 2
    np.testing.assert_array_equal(at_meeting.profile.breakpoints, [2.0])
    np.testing.assert_array_equal(at_meeting.profile.values[:, 0], [2.0, 0.0])


def test_triple_collision_is_one_event():
    # shocks at speeds 4, 3, 2 aimed at one point (t*, x*); rounding makes
    # either pair meet first, and the other must join the same group
    flux = PiecewiseLinearFlux([0.0, 1.0, 2.0, 3.0, 4.0],
                               [0.0, 1.0, 3.0, 6.0, 10.0])
    rng = np.random.default_rng(3)
    for _ in range(40):
        ts, xs = rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0)
        u0 = PiecewiseConstantFn.from_steps(
            4.0, [(xs - 4 * ts, 3.0), (xs - 3 * ts, 2.0), (xs - 2 * ts, 1.0)])
        state = ft_evolve(flux, u0, 2.0)
        assert state.n_events == 1
        assert [tv for _, tv in state.tv_history] == pytest.approx([3.0, 3.0])
        np.testing.assert_allclose(state.profile.breakpoints,
                                   [xs + 3.0 * (2.0 - ts)], atol=1e-12)


def test_single_shock_zero_events():
    flux = pl_sample(burgers(), 32)
    u0 = PiecewiseConstantFn.step(0.25, 1.0, 0.0)
    state = ft_evolve(flux, u0, 1.0)
    assert state.n_events == 0
    np.testing.assert_allclose(state.profile.breakpoints, [0.75], atol=1e-12)
    assert len(state.fronts) == 1


def test_pulse_variation_is_flat_before_interaction():
    flux = pl_sample(burgers(), 64)
    state = ft_evolve(flux, pulse(), 0.5)
    assert state.n_events == 0
    assert state.tv_time_integral() == pytest.approx(1.0, abs=1e-12)
    tvs = [tv for _, tv in state.tv_history]
    assert tvs == pytest.approx([2.0])


def test_linear_flux_translates_exactly():
    flux = linear_flux(0.4)
    u0 = PiecewiseConstantFn.from_steps(
        0.0, [(-0.5, 0.8), (0.1, -0.3), (0.9, 0.0)])
    state = ft_evolve(flux, u0, 2.5)
    np.testing.assert_allclose(state.profile.breakpoints,
                               u0.breakpoints + 0.4 * 2.5, atol=1e-12)
    np.testing.assert_array_equal(state.profile.values, u0.values)
    assert state.n_events == 0


def test_linear_pair_gap_closed_form():
    u0 = PiecewiseConstantFn.step(0.0, 0.0, 0.75)
    got = semigroup_l1_diff(linear_flux(0.3), linear_flux(-0.2), u0, 2.0)
    assert got == pytest.approx(0.5 * 2.0 * 0.75, rel=1e-12)


def test_values_snap_to_flux_nodes():
    flux = pl_sample(burgers(), 8)  # nodes every 0.25
    u0 = PiecewiseConstantFn.step(0.0, 0.13, -0.7)
    state = ft_evolve(flux, u0, 0.1)
    for v in state.profile.values[:, 0]:
        assert np.min(np.abs(flux.nodes - v)) == 0.0


def test_smooth_convex_flux_rejected_when_fan_forms():
    with pytest.raises(FrontTrackingError):
        ft_evolve(burgers(), PiecewiseConstantFn.step(0.0, -1.0, 1.0), 0.5)


def test_initial_fronts_are_the_riemann_waves():
    # chord rows of adjacent-node jumps and envelope rows of node-spanning
    # ones, rising and falling, must be the solver's waves to the last bit
    rng = np.random.default_rng(4)
    nodes = np.linspace(-1.0, 1.0, 9)
    level = PiecewiseLinearFlux(nodes, [0.0, 0.5, 0.5, 0.0, 0.0, 0.25, -0.25,
                                        -0.25, 0.0])
    tables = [pl_sample(burgers(), 8), level,
              PiecewiseLinearFlux(nodes, rng.uniform(-0.5, 0.5, 9))]
    kinds = set()
    rows, want = [], []
    for flux in [*tables, linear_flux(0.4), linear_flux(-0.3)]:
        if isinstance(flux, PiecewiseLinearFlux):
            idx = rng.integers(0, 9, 120)
            vals = flux.nodes[idx]
            kinds |= {(abs(int(d)) > 1, int(np.sign(d))) for d in np.diff(idx)}
        else:
            vals = rng.uniform(-1.0, 1.0, 20)
        u0 = PiecewiseConstantFn(np.sort(rng.uniform(0.5, 3.0, vals.size - 1)),
                                 vals)
        rows += ft_evolve(flux, u0, 0.0).fronts
        for x, vl, vr in zip(u0.breakpoints, vals[:-1], vals[1:]):
            if vl != vr:
                want += [(float(x), w.speed, w.left, w.right)
                         for w in solve_riemann(flux, vl, vr).waves]
    assert kinds >= {(False, 1), (False, -1), (True, 1), (True, -1)}
    assert repr(rows) == repr(want)
    assert "-0.0" in repr([s for _x, s, _l, _r in rows])


def test_conservation_and_tv_decay_on_random_data():
    rng = np.random.default_rng(5)
    flux = pl_sample(burgers(), 32)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        bps = np.sort(rng.uniform(-1.0, 1.0, m))
        while np.any(np.diff(bps) == 0.0):
            bps = np.sort(rng.uniform(-1.0, 1.0, m))
        vals = rng.uniform(-1.0, 1.0, m + 1)
        vals[-1] = vals[0]  # equal tails so the window integral is conserved
        u0 = PiecewiseConstantFn(bps, vals[:, None])
        T = 0.6
        state = ft_evolve(flux, u0, T)
        window = evolution_window(u0, flux.lambda_hat, T)
        u0p = ft_evolve(flux, u0, 0.0).profile  # node-projected datum
        got = state.profile.integral(window)
        want = u0p.integral(window)
        np.testing.assert_allclose(got, want, atol=1e-10)
        assert total_variation(state.profile) <= total_variation(u0p) + 1e-10


def test_l1_contraction_random_pairs():
    rng = np.random.default_rng(9)
    flux = pl_sample(burgers(), 32)
    for _ in range(25):
        def rand_fn():
            m = int(rng.integers(1, 6))
            bps = np.sort(rng.uniform(-1.0, 1.0, m))
            while np.any(np.diff(bps) == 0.0):
                bps = np.sort(rng.uniform(-1.0, 1.0, m))
            vals = rng.uniform(-1.0, 1.0, m + 1)
            vals[0] = vals[-1] = 0.0
            return PiecewiseConstantFn(bps, vals[:, None])

        u0, v0 = rand_fn(), rand_fn()
        T = 0.8
        window = evolution_window(u0, flux.lambda_hat, T)
        window = (min(window[0], v0.support[0] - flux.lambda_hat * T - 1.0),
                  max(window[1], v0.support[1] + flux.lambda_hat * T + 1.0))
        ut = ft_evolve(flux, u0, T).profile
        vt = ft_evolve(flux, v0, T).profile
        u0p = ft_evolve(flux, u0, 0.0).profile
        v0p = ft_evolve(flux, v0, 0.0).profile
        assert (l1_distance(ut, vt, window)
                <= l1_distance(u0p, v0p, window) + 1e-10)


def test_tv_history_is_nonincreasing():
    flux = pl_sample(burgers(), 64)
    u0 = PiecewiseConstantFn.from_steps(
        0.0, [(-0.5, 1.0), (0.0, -1.0), (0.5, 0.5), (1.0, 0.0)])
    state = ft_evolve(flux, u0, 3.0)
    tvs = [tv for _, tv in state.tv_history]
    assert state.n_events > 0
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


def test_evolution_window_contains_all_fronts():
    flux = pl_sample(burgers(), 32)
    u0 = pulse()
    T = 1.5
    state = ft_evolve(flux, u0, T)
    lo, hi = evolution_window(u0, flux.lambda_hat, T)
    xs = [x for x, *_ in state.fronts]
    assert lo < min(xs) and max(xs) < hi


def test_time_zero_and_negative_time():
    flux = pl_sample(burgers(), 8)
    u0 = PiecewiseConstantFn.step(0.0, 1.0, 0.0)
    state = ft_evolve(flux, u0, 0.0)
    assert state.time == 0.0
    with pytest.raises(ValueError):
        ft_evolve(flux, u0, -1.0)


# -- references: the loops the event queue replaced -----------------------------

def _shock_waves(flux, vl, vr):
    waves = solve_riemann(flux, vl, vr).waves
    assert all(isinstance(w, Shock) for w in waves)
    return waves


def _fronts_at(flux, xs, vls, vrs):
    """Rows ``(position, speed, left, right)`` of the waves of each jump."""
    rows = [(x, w.speed, w.left, w.right)
            for x, vl, vr in zip(xs, vls, vrs)
            for w in _shock_waves(flux, vl, vr)]
    return np.array(rows, dtype=float).reshape(-1, 4)


def _array_loop_reference(flux, u0, T):
    """Reference: fronts in four arrays; every event advances all of them
    to the earliest neighbour collision and splices the group's waves."""
    vals = u0.values[:, 0]
    nodes = getattr(flux, "nodes", None)
    if nodes is not None:
        vals = _project_values(vals, nodes)
    tail = float(vals[0])
    jump = vals[:-1] != vals[1:]
    x, s, left, right = _fronts_at(
        flux, u0.breakpoints[jump].tolist(), vals[:-1][jump].tolist(),
        vals[1:][jump].tolist()).T.copy()
    span = [abs(b) for b in (u0.support or (0.0, 0.0))]
    pos_tol = 1e-12 * (1.0 + max(span) + flux.lambda_hat * T)
    tv = float(np.sum(np.abs(right - left)))
    tv_history = [(0.0, tv)]
    n_events = 0
    t = 0.0
    while t < T and x.size > 1:
        closing = s[:-1] - s[1:]
        dts = np.divide(np.maximum(np.diff(x), 0.0), closing,
                        out=np.full(closing.size, np.inf),
                        where=closing > _PARALLEL)
        k = int(np.argmin(dts))
        dt = float(dts[k])
        if t + dt >= T:
            break
        t += dt
        x += s * dt
        i, j = k, k + 1
        while i > 0 and x[i] - x[i - 1] <= pos_tol:
            i -= 1
        while j + 1 < x.size and x[j + 1] - x[j] <= pos_tol:
            j += 1
        new = _fronts_at(flux, [float(np.mean(x[i:j + 1]))],
                         [float(left[i])], [float(right[j])])
        tv += float(np.sum(np.abs(new[:, 3] - new[:, 2]))
                    - np.sum(np.abs(right[i:j + 1] - left[i:j + 1])))
        x, s, left, right = (np.concatenate([a[:i], b, a[j + 1:]])
                             for a, b in zip((x, s, left, right), new.T))
        n_events += 1
        tv_history.append((t, tv))
    if T > t:
        x += s * (T - t)
    return FrontTrackingState(
        time=T,
        profile=_profile_from(x, right, tail, pos_tol),
        fronts=tuple(zip(x.tolist(), s.tolist(), left.tolist(), right.tolist())),
        tv_history=tuple(tv_history),
        n_events=n_events,
    )


def _reference_initial_fronts(flux, u0):
    vals = u0.values[:, 0]
    nodes = getattr(flux, "nodes", None)
    if nodes is not None:
        vals = _project_values(vals, nodes)
    fronts = []
    for k, x in enumerate(u0.breakpoints):
        vl, vr = float(vals[k]), float(vals[k + 1])
        if vl == vr:
            continue
        for w in _shock_waves(flux, vl, vr):
            fronts.append([float(x), w.speed, w.left, w.right])
    return fronts


def _reference_profile(fronts, tail, pos_tol):
    bps: list[float] = []
    vals: list[float] = [tail]
    for x, _s, _l, r in fronts:
        if bps and x - bps[-1] <= pos_tol:
            vals[-1] = r  # coincident fronts collapse to one jump
        else:
            bps.append(x)
            vals.append(r)
    fn = PiecewiseConstantFn(np.asarray(bps), np.asarray(vals))
    return fn.simplified()


def _regroup_reference(flux, u0, T):
    """Reference: every event rescans all neighbour pairs, advances every
    front in Python, regroups the whole list and recomputes TV."""
    fronts = _reference_initial_fronts(flux, u0)
    span = [abs(b) for b in (u0.support or (0.0, 0.0))]
    pos_tol = 1e-12 * (1.0 + max(span) + flux.lambda_hat * T)
    nodes = getattr(flux, "nodes", None)
    tail = float(u0.values[0, 0])
    if nodes is not None:
        tail = float(_project_values(u0.values[:1, 0], nodes)[0])

    def tv_now() -> float:
        return float(sum(abs(r - l) for _x, _s, l, r in fronts))

    tv_history = [(0.0, tv_now())]
    n_events = 0
    n_nodes = nodes.size if nodes is not None else 0
    max_events = 1000 + 4 * (len(fronts) + n_nodes) ** 2
    t = 0.0
    while t < T and len(fronts) > 1:
        dt_min = None
        for (x0, s0, _a, _b), (x1, s1, _c, _d) in zip(fronts, fronts[1:]):
            ds = s0 - s1
            if ds > _PARALLEL:
                dt = max(x1 - x0, 0.0) / ds
                if dt_min is None or dt < dt_min:
                    dt_min = dt
        if dt_min is None or t + dt_min >= T:
            break
        t += dt_min
        for f in fronts:
            f[0] += f[1] * dt_min
        # group coincident fronts, resolve groups that actually cross
        resolved: list = []
        i = 0
        while i < len(fronts):
            j = i
            while j + 1 < len(fronts) and fronts[j + 1][0] - fronts[j][0] <= pos_tol:
                j += 1
            group = fronts[i:j + 1]
            crossing = any(
                group[k][1] > group[k + 1][1] + _PARALLEL
                for k in range(len(group) - 1)
            )
            if crossing:
                x_bar = float(np.mean([g[0] for g in group]))
                outer_l, outer_r = group[0][2], group[-1][3]
                for w in _shock_waves(flux, outer_l, outer_r):
                    resolved.append([x_bar, w.speed, w.left, w.right])
                n_events += 1
            else:
                resolved.extend(group)
            i = j + 1
        fronts = resolved
        tv_history.append((t, tv_now()))
        if n_events > max_events:
            raise FrontTrackingError(
                f"event budget exhausted ({n_events} events, {len(fronts)} fronts)"
            )
    dt_final = T - t
    if dt_final > 0.0:
        for f in fronts:
            f[0] += f[1] * dt_final
    profile = (
        _reference_profile(fronts, tail, pos_tol)
        if fronts else PiecewiseConstantFn.constant(tail)
    )
    return FrontTrackingState(
        time=T,
        profile=profile,
        fronts=tuple(tuple(f) for f in fronts),
        tv_history=tuple(tv_history),
        n_events=n_events,
    )


def test_simultaneous_groups_resolve_on_consecutive_events():
    # slopes 1, 2, 3, 4: two shock pairs meet at t = 1, their merged shocks
    # at t = 2.5 (x = 9.25); the last shock moves at speed 2.5 after that
    flux = PiecewiseLinearFlux([0.0, 1.0, 2.0, 3.0, 4.0],
                               [0.0, 1.0, 3.0, 6.0, 10.0])
    u0 = PiecewiseConstantFn.from_steps(
        4.0, [(0.0, 3.0), (1.0, 2.0), (5.0, 1.0), (6.0, 0.0)])
    state = ft_evolve(flux, u0, 4.0)
    assert state.n_events == 3
    assert [t for t, _ in state.tv_history] == [0.0, 1.0, 1.0, 2.5]
    assert [tv for _, tv in state.tv_history] == [4.0] * 4
    np.testing.assert_allclose(state.profile.breakpoints, [13.0], atol=1e-12)
    assert state.tv_time_integral() == pytest.approx(16.0, abs=1e-12)
    want = _regroup_reference(flux, u0, 4.0)
    assert want.n_events == 3
    np.testing.assert_array_equal(state.profile.breakpoints,
                                  want.profile.breakpoints)


def _criterion10_steps(rng):
    n = int(rng.integers(2, 9))
    xs = np.cumsum(rng.uniform(0.05, 0.3, size=n)) - 1.0
    tail = float(rng.uniform(-0.5, 0.5))
    vals = rng.uniform(-0.5, 0.5, size=n - 1)
    pieces = [(float(x), float(v)) for x, v in zip(xs[:-1], vals)]
    pieces.append((float(xs[-1]), tail))
    return PiecewiseConstantFn.from_steps(tail, pieces)


def _reference_cases():
    rng = np.random.default_rng(7)  # criterion 10's draws, in its order
    nodes = np.linspace(-1.0, 1.0, 17)
    for _ in range(50):
        flux = PiecewiseLinearFlux(nodes, rng.uniform(-0.5, 0.5, size=17))
        yield flux, _criterion10_steps(rng), 0.5
        yield flux, _criterion10_steps(rng), 0.5
    stair = PiecewiseConstantFn.from_steps(
        0.0, [(-0.5, 0.8), (0.0, -0.6), (0.75, 0.0)])
    for entry in bundled_pairs(segments=128):
        for flux in (entry["f"], entry["g"]):
            yield flux, pulse(), 1.0
            yield flux, stair, 1.0
    rng = np.random.default_rng(12)
    bps = np.linspace(-1.0, 1.0, 12) + rng.uniform(-0.05, 0.05, 12)
    mags = rng.uniform(0.2, 1.0, 11)
    vals = np.concatenate([[0.0], mags * (-1.0) ** np.arange(11), [0.0]])
    yield pl_sample(burgers(), 512), PiecewiseConstantFn(bps, vals), 1.0


def _assert_same_evolution(got, want):
    assert got.n_events == want.n_events
    np.testing.assert_allclose(got.profile.breakpoints,
                               want.profile.breakpoints, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.profile.values, want.profile.values,
                               rtol=0, atol=1e-12)
    assert got.tv_time_integral() == pytest.approx(
        want.tv_time_integral(), rel=0, abs=1e-12)


def test_matches_regrouping_reference():
    n_cases = 0
    for flux, u0, T in _reference_cases():
        _assert_same_evolution(ft_evolve(flux, u0, T),
                               _regroup_reference(flux, u0, T))
        n_cases += 1
    assert n_cases == 100 + 24 + 1


def _node_steps(flux, rng, n):
    """``n`` random jumps on [-1, 1] between random flux nodes."""
    bps = np.sort(rng.uniform(-1.0, 1.0, n))
    vals = rng.choice(flux.nodes, n + 1)
    vals[-1] = vals[0]  # equal tails, so the window integral is conserved
    return PiecewiseConstantFn(bps, vals)


def _many_jump_data():
    flux = pl_sample(burgers(), 512)
    rng = np.random.default_rng(50)
    return flux, _node_steps(flux, rng, 50), _node_steps(flux, rng, 50), 0.5


def test_matches_array_loop_reference():
    flux, u0, v0, T = _many_jump_data()
    cases = [*_reference_cases(), (flux, u0, T), (flux, v0, T)]
    for flux, u0, T in cases:
        _assert_same_evolution(ft_evolve(flux, u0, T),
                               _array_loop_reference(flux, u0, T))
    assert len(cases) == 100 + 24 + 1 + 2


def _assert_mass_variation_and_contraction(flux, u0, v0, T):
    win = (-3.0, 3.0)  # holds every front: data on [-1, 1], speeds <= 1
    ut, vt = ft_evolve(flux, u0, T), ft_evolve(flux, v0, T)
    for d0, dt in ((u0, ut.profile), (v0, vt.profile)):
        assert abs(dt.integral(win).item() - d0.integral(win).item()) <= 1e-10
        assert total_variation(dt) - total_variation(d0) <= 1e-10
    assert (l1_distance(ut.profile, vt.profile, win)
            - l1_distance(u0, v0, win)) <= 1e-10
    return ut, vt


def test_many_jumps_keep_mass_variation_and_contraction():
    ut, vt = _assert_mass_variation_and_contraction(*_many_jump_data())
    assert ut.n_events > 1000 and vt.n_events > 1000


def test_thousand_jumps_keep_mass_variation_and_contraction():
    flux = pl_sample(burgers(), 512)
    rng = np.random.default_rng(1000)
    u0, v0 = _node_steps(flux, rng, 1000), _node_steps(flux, rng, 1000)
    ut, vt = _assert_mass_variation_and_contraction(flux, u0, v0, 0.1)
    assert ut.n_events > 50000 and vt.n_events > 50000
    w0 = _node_steps(flux, rng, 200)
    _assert_same_evolution(ft_evolve(flux, w0, 0.1),
                           _array_loop_reference(flux, w0, 0.1))


def test_event_budget_binds_on_a_runaway_loop(monkeypatch):
    # waves that cross at birth collide again at once, forever; the budget
    # counts the datum's jumps and the table's nodes, not the fronts
    def crossing(flux, uL, uR):
        mid = 0.5 * (uL + uR)
        return [1.0, -1.0], [uL, mid], [mid, uR]

    monkeypatch.setattr(front_tracking, "_waves", crossing)
    flux = pl_sample(burgers(), 64)
    rng = np.random.default_rng(8)
    rising = np.sort(rng.choice(flux.nodes, 51, replace=False))  # 50 jumps
    u0 = PiecewiseConstantFn(np.sort(rng.uniform(-1.0, 1.0, 50)),
                             rising[:, None])
    start = time.perf_counter()
    with pytest.raises(FrontTrackingError,
                       match=rf"\({1000 + 4 * (50 + 65) ** 2 + 1} events"):
        ft_evolve(flux, u0, 1.0)
    assert time.perf_counter() - start < 20.0
