"""Momentum systems: velocity recovery, flux gaps, finite-volume evolution."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from fluxstab import (AdmissibilityError, classical_euler,
                      classical_limit_experiment, euler, fv_evolve,
                      jacobian_gap, l1_state_distance, recover_velocity,
                      relativistic_euler, riemann_grid)
from fluxstab.euler import DEFAULT_EULER_BOX, GridSolution


def _fd_jacobian(flux, U, h0=1e-5):
    """Reference: Richardson-extrapolated central differences per row."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    out = np.empty((U.shape[0], 2, 2))
    scale = 1.0 + np.max(np.abs(U))
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        h = h0 * scale
        d_h = (flux(U + h * e) - flux(U - h * e)) / (2.0 * h)
        h2 = 0.5 * h
        d_h2 = (flux(U + h2 * e) - flux(U - h2 * e)) / (2.0 * h2)
        out[:, :, j] = (4.0 * d_h2 - d_h) / 3.0
    return out


# inside |q| < c E for c = 1.5, where the default box is not
_SLOW_BOX = ((1.0, 4.0), (-1.49, 1.49))


def _physical_box(c):
    return DEFAULT_EULER_BOX if c > 4.0 else _SLOW_BOX


def _box_points(n, K=DEFAULT_EULER_BOX):
    (r_lo, r_hi), (q_lo, q_hi) = K
    R, Q = np.meshgrid(np.linspace(r_lo, r_hi, n), np.linspace(q_lo, q_hi, n),
                       indexing="ij")
    return np.column_stack([R.ravel(), Q.ravel()])


def _max_speed(J):
    """Larger |eigenvalue| of stacked ``[[0, 1], [a, b]]`` blocks.

    The discriminant ``b^2/4 + a`` is nonnegative for these hyperbolic
    systems; rounding takes it below zero where both speeds near ``c``.
    """
    a, b = J[:, 1, 0], J[:, 1, 1]
    return 0.5 * np.abs(b) + np.sqrt(np.maximum(0.25 * b * b + a, 0.0))


def test_velocity_solves_the_quadratic():
    rng = np.random.default_rng(2)
    c, sigma = 4.5, 1.0  # the default box lies inside |q| < c E
    for _ in range(100):
        E = rng.uniform(0.5, 4.0)
        q = rng.uniform(-2.0, 2.0)

        def resid(v):
            return (sigma ** 2 * q / c ** 4) * v * v \
                - (1.0 + sigma ** 2 / c ** 2) * E * v + q

        want = brentq(resid, -c, c, xtol=1e-14)
        got = float(recover_velocity(E, q, c, sigma))
        assert got == pytest.approx(want, abs=1e-12)
        assert abs(got) < c


def test_velocity_odd_in_momentum_and_exact_at_rest():
    v_plus = recover_velocity(1.7, 0.9, 2.0, 1.0)
    v_minus = recover_velocity(1.7, -0.9, 2.0, 1.0)
    assert float(v_plus) == -float(v_minus)
    assert float(recover_velocity(1.7, 0.0, 2.0, 1.0)) == 0.0


def test_velocity_classical_limit():
    got = float(recover_velocity(2.0, 0.2, 1e6, 1.0))
    assert got == pytest.approx(0.1, abs=1e-10)


def test_flux_gap_scaling():
    U = np.array([[1.5, 0.3]])
    cl = classical_euler()

    def gap(c):
        rel = relativistic_euler(c)
        return float(np.max(np.abs(rel.flux(U) - cl.flux(U))))

    assert gap(100.0) <= 1e-3
    assert gap(50.0) / gap(100.0) == pytest.approx(4.0, abs=0.1)


def test_classical_jacobian_matches_differences():
    cl = classical_euler(sigma=1.2)
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.uniform(0.5, 4.0, 30),
                           rng.uniform(-2.0, 2.0, 30)])
    want = _fd_jacobian(cl.flux, pts)
    got = cl.jacobian(pts)
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_classical_eigenvalues():
    cl = classical_euler(sigma=1.0)
    J = cl.jacobian(np.array([[2.0, 1.0]]))[0]
    eigs = np.sort(np.linalg.eigvals(J).real)
    np.testing.assert_allclose(eigs, [0.5 - 1.0, 0.5 + 1.0], atol=1e-12)


def test_speed_bound_covers_box():
    cl = classical_euler()
    # extreme velocity at the thin-density, high-momentum corner
    assert cl.lambda_hat == pytest.approx(2.0 / 0.5 + 1.0)
    rel = relativistic_euler(10.0)
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(0.5, 4.0, 200),
                           rng.uniform(-2.0, 2.0, 200)])
    J = rel.jacobian(pts)
    eigs = np.linalg.eigvals(J)
    assert float(np.max(np.abs(eigs.real))) <= rel.lambda_hat


@pytest.mark.parametrize("c", [1.5, 8.0, 64.0, 400.0])
def test_relativistic_jacobian_matches_differences(c):
    K = _physical_box(c)
    rel = relativistic_euler(c, K=K)
    pts = _box_points(33, K)
    np.testing.assert_allclose(rel.jacobian(pts), _fd_jacobian(rel.flux, pts),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("c", [1.5, 8.0, 64.0])
def test_speed_bound_is_the_box_maximum(c):
    K = _physical_box(c)
    pts = _box_points(201, K)
    for system in (classical_euler(K=K), relativistic_euler(c, K=K)):
        eigs = np.linalg.eigvals(system.jacobian(pts))
        assert np.max(np.abs(eigs)) <= system.lambda_hat * (1.0 + 1e-12)
        # attained at the thin-density corner of largest |q|
        corner = np.array([[K[0][0], K[1][1]]])
        J = system.jacobian(corner)
        top = np.max(np.abs(np.linalg.eigvals(J)))
        assert top == pytest.approx(system.lambda_hat, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("ratio", [1.001, 1.1, 3.0, 100.0, 1e6])
def test_max_speed_nondecreasing_in_momentum_ratio(sigma, ratio):
    c = ratio * sigma
    rel = relativistic_euler(c, sigma=sigma, K=((1.0, 2.0), (0.0, 0.5 * c)))
    m = np.linspace(0.0, c, 20001)[:-1]  # the physical ratios |m| < c
    lam = _max_speed(rel.jacobian(np.column_stack([np.ones_like(m), m])))
    assert np.all(np.diff(lam) >= -1e-12 * lam[1:])


def test_constructor_guards():
    with pytest.raises(ValueError):
        relativistic_euler(0.5, sigma=1.0)  # slower than sound
    with pytest.raises(ValueError):
        classical_euler(K=((0.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        relativistic_euler(10.0, K=((-0.5, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError, match="leaves the domain"):
        relativistic_euler(1.5)  # the default box reaches |q| / E = 4
    with pytest.raises(ValueError, match="leaves the domain"):
        relativistic_euler(4.0)  # exactly at the light speed


# -- finite volumes ---------------------------------------------------------------

def test_constant_state_is_a_fixed_point():
    cl = classical_euler()
    U0 = np.tile([1.5, 0.2], (64, 1))
    sol = fv_evolve(cl, U0, -1.0, 1.0, 64, 0.3)
    np.testing.assert_array_equal(sol.U, U0)
    np.testing.assert_allclose(sol.conservation_residual, 0.0, atol=1e-15)


def test_conservation_residual_small():
    cl = classical_euler()
    sol = fv_evolve(cl, riemann_grid((2.0, 0.0), (1.0, 0.0)),
                    -1.0, 1.0, 400, 0.2)
    scale = 1.0 + float(np.max(np.abs(sol.U.sum(axis=0) * sol.dx)))
    assert np.all(np.abs(sol.conservation_residual) <= 1e-10 * scale)
    assert sol.time == pytest.approx(0.2, abs=1e-14)
    assert sol.n_steps > 0


def test_vacuum_aborts_with_cell_index():
    cl = classical_euler(K=((1e-4, 4.0), (-2.0, 2.0)))
    with pytest.raises(AdmissibilityError, match="cell"):
        fv_evolve(cl, riemann_grid((0.5, 0.0), (0.005, 0.0)),
                  -1.0, 1.0, 64, 0.1)


def test_fv_input_checks():
    cl = classical_euler()
    with pytest.raises(ValueError):
        fv_evolve(cl, riemann_grid((2.0, 0.0), (1.0, 0.0)), -1, 1, 1, 0.1)
    with pytest.raises(ValueError):
        fv_evolve(cl, riemann_grid((2.0, 0.0), (1.0, 0.0)), -1, 1, 64, -0.1)
    with pytest.raises(ValueError):
        fv_evolve(cl, np.zeros((10, 2)) + [2.0, 0.0], -1, 1, 64, 0.1)
    with pytest.raises(ValueError):
        fv_evolve(cl, riemann_grid((2.0, 0.0), (1.0, 0.0)), -1, 1, 64, 0.1,
                  lambda_override=-1.0)


def test_self_convergence_under_refinement():
    # the L1 rate of the first-order scheme on this shock/rarefaction mix
    # approaches 1/2 (corner-dominated), so Cauchy differences shrink by
    # about sqrt(2) per doubling once the grid resolves the transient
    cl = classical_euler()
    datum = riemann_grid((2.0, 0.0), (1.0, 0.0))

    def run(N):
        return fv_evolve(cl, datum, -1.0, 1.0, N, 0.2)

    def restrict(sol):
        return 0.5 * (sol.U[0::2] + sol.U[1::2])

    sols = {N: run(N) for N in (400, 800, 1600)}
    d1 = float(np.sum(np.linalg.norm(
        sols[400].U - restrict(sols[800]), axis=1))) * (2.0 / 400)
    d2 = float(np.sum(np.linalg.norm(
        sols[800].U - restrict(sols[1600]), axis=1))) * (2.0 / 800)
    assert 1.38 <= d1 / d2 <= 2.1


def test_grid_mismatch_rejected():
    cl = classical_euler()
    datum = riemann_grid((2.0, 0.0), (1.0, 0.0))
    a = fv_evolve(cl, datum, -1.0, 1.0, 64, 0.05)
    b = fv_evolve(cl, datum, -1.0, 1.0, 128, 0.05)
    with pytest.raises(ValueError):
        l1_state_distance(a, b)


# -- the classical limit -----------------------------------------------------------

def test_gap_grows_roughly_linearly_in_time():
    # doubling T roughly doubles the gap; a transient excess above the
    # factor 2 decays as T grows, so the band is asymmetric
    cl = classical_euler()
    rel = relativistic_euler(30.0)
    lam = max(cl.lambda_hat, rel.lambda_hat)
    datum = riemann_grid((2.0, 0.0), (1.0, 0.0))

    def gap(T):
        a = fv_evolve(rel, datum, -2.0, 2.0, 800, T, lambda_override=lam)
        b = fv_evolve(cl, datum, -2.0, 2.0, 800, T, lambda_override=lam)
        return l1_state_distance(a, b)

    ratio = gap(0.6) / gap(0.3)
    assert 1.8 <= ratio <= 2.5


def test_huge_light_speed_hits_noise_floor():
    cl = classical_euler()
    rel = relativistic_euler(1e8)
    lam = max(cl.lambda_hat, rel.lambda_hat)
    datum = riemann_grid((2.0, 0.0), (1.0, 0.0))
    a = fv_evolve(rel, datum, -1.0, 1.0, 200, 0.1, lambda_override=lam)
    b = fv_evolve(cl, datum, -1.0, 1.0, 200, 0.1, lambda_override=lam)
    assert l1_state_distance(a, b) <= 1e-9


def test_limit_experiment_slope():
    res = classical_limit_experiment([8.0, 16.0, 32.0], N=400, T=0.2)
    assert np.all(np.diff(res.gaps) < 0.0)
    assert -2.6 <= res.slope <= -1.4
    assert res.lambda_shared >= classical_euler().lambda_hat
    rows = res.summary_rows()
    assert [r["c"] for r in rows] == [8.0, 16.0, 32.0]
    assert all(r["l1_gap"] > 0.0 for r in rows)
    with pytest.raises(ValueError):
        classical_limit_experiment([16.0])


def test_jacobian_gap_quarter_ratio():
    g50 = jacobian_gap(50.0)
    g100 = jacobian_gap(100.0)
    assert g50 > g100 > 0.0
    assert 0.23 <= g100 / g50 <= 0.27


@pytest.mark.parametrize("c", [1.5, 8.0, 50.0, 400.0])
def test_jacobian_gap_is_the_rank_one_norm(c):
    # a grid holds the box corners: for c >= 8 the sup sits at a corner
    # and is the grid's max to the bit, otherwise between grid points
    K = _physical_box(c)
    pts = _box_points(64, K)
    J_rel = relativistic_euler(c, K=K).jacobian(pts)
    J_cl = classical_euler(K=K).jacobian(pts)
    np.testing.assert_array_equal(J_rel[:, 0], J_cl[:, 0])
    want = float(np.max(np.linalg.norm(J_rel - J_cl, 2, axis=(1, 2))))
    got = jacobian_gap(c, K=K)
    if c >= 8.0:
        assert got == pytest.approx(want, rel=1e-15)
        grid = np.hypot((J_rel - J_cl)[:, 1, 0], (J_rel - J_cl)[:, 1, 1])
        assert repr(got) == repr(float(np.max(grid)))
    else:
        assert want * (1.0 - 1e-15) <= got <= want * (1.0 + 1e-4)


# -- the relativistic system from primitive variables -------------------------------

_LIGHT_RATIOS = [1.001, 1.1, 3.0, 100.0, 1e6]  # c / sigma


def _primitive_states(c, sigma, n=400, seed=0):
    """Random ``(rho, v)`` with ``|v| < c`` and their ``(E, q)``."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1, 5.0, n)
    v = c * rng.uniform(-0.999, 0.999, n)
    p = sigma ** 2 * rho
    gamma2 = 1.0 / (1.0 - (v / c) ** 2)
    E = (rho + p * v * v / c ** 4) * gamma2
    q = (rho + p / c ** 2) * v * gamma2
    return rho, v, E, q


def _exact_velocity(E, q, c, sigma):
    """The subluminal root for the rounded ``(E, q)``, in extended precision.

    Written without cancellation: the discriminant over ``E^2`` is
    ``(1 - s2)^2 + 4 s2 (1 - r)(1 + r)`` with ``r = q / (c E)``.
    """
    L = np.longdouble
    m = q.astype(L) / E.astype(L)
    s2, r = (L(sigma) / L(c)) ** 2, m / L(c)
    root = np.sqrt((1 - s2) ** 2 + 4 * s2 * (1 - r) * (1 + r))
    return 2 * m / (1 + s2 + root)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("ratio", _LIGHT_RATIOS)
def test_relativistic_system_from_primitive_variables(sigma, ratio):
    c = ratio * sigma
    rho, v, E, q = _primitive_states(c, sigma)
    v_rec = recover_velocity(E, q, c, sigma)
    exact = _exact_velocity(E, q, c, sigma)
    np.testing.assert_array_less(np.abs(v_rec - exact), 1e-13 * np.abs(exact))
    # E and q carry their own rounding, which the root amplifies up to
    # about 500-fold near |v| = c when c is close to sigma
    np.testing.assert_allclose(v_rec, v, rtol=1e-12, atol=0.0)
    rel = relativistic_euler(c, sigma=sigma, K=((1.0, 2.0), (0.0, 0.0)))
    U = np.column_stack([E, q])
    want = np.column_stack([q, q * v + sigma ** 2 * rho])
    np.testing.assert_allclose(rel.flux(U), want, rtol=1e-13, atol=0.0)
    # the speeds by relativistic velocity addition are the two roots of
    # the Jacobian's characteristic polynomial lam^2 - b lam - a; they are
    # taken at the recovered velocity, since near c = sigma a rounding of
    # (E, q) moves the speeds far more than it moves v
    w = v_rec * sigma / c ** 2
    lam = np.stack([(v_rec - sigma) / (1.0 - w), (v_rec + sigma) / (1.0 + w)])
    assert np.all((-c < lam) & (lam < c))
    J = rel.jacobian(U)
    a, b = J[:, 1, 0], J[:, 1, 1]
    resid = lam * lam - b * lam - a
    size = lam * lam + np.abs(b * lam) + np.abs(a)
    assert np.all(np.abs(resid) <= 1e-12 * size)
    np.testing.assert_allclose(b, lam.sum(axis=0), rtol=0.0,
                               atol=1e-13 * float(np.max(np.abs(lam))))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("ratio", _LIGHT_RATIOS)
def test_jacobian_gap_dominates_a_dense_sample(sigma, ratio):
    c = ratio * sigma
    K = ((1.0, 2.0), (-0.9 * c, 0.9 * c))
    m = np.linspace(-0.9 * c, 0.9 * c, 20001)
    U = np.column_stack([np.ones_like(m), m])
    D = (relativistic_euler(c, sigma=sigma, K=K).jacobian(U)
         - classical_euler(sigma=sigma, K=K).jacobian(U))
    sample = np.hypot(D[:, 1, 0], D[:, 1, 1])
    # A = dH - m dH' is a difference of terms of size m^2; its rounding
    # can lift one sample above the sup at the largest light speeds
    rounding = 64.0 * np.finfo(float).eps * (0.81 * c * c + sigma ** 2)
    assert jacobian_gap(c, sigma=sigma, K=K) >= float(np.max(sample)) - rounding


def _sign_changes(values):
    s = np.sign(values)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("ratio", _LIGHT_RATIOS)
def test_gap_derivative_factors_change_sign_at_most_once(sigma, ratio):
    # on the half-line 0 < m < c; m < 0 is its mirror image
    c = ratio * sigma
    m = np.linspace(0.0, c, 200001)[1:-1]
    f, psi = euler._gap_factors(m, c, sigma)
    assert _sign_changes(f) <= 1 and _sign_changes(psi) <= 1
    assert f[0] < 0.0 < psi[0]


@pytest.mark.parametrize("c", [1.5, 3.0, 8.0, 50.0])
def test_gap_derivative_factors_match_the_jacobians(c):
    # (g^2)' = 2 dH'' (B - m A): dH'' from the closed form of H'' and
    # B - m A from the two Jacobians, against the cancellation-free factors
    sigma = 1.0
    m = np.linspace(0.01, 0.99, 99) * c
    U = np.column_stack([np.ones_like(m), m])
    D = (relativistic_euler(c, sigma=sigma, K=((1.0, 2.0), (0.0, 0.0))).jacobian(U)
         - classical_euler(sigma=sigma).jacobian(U))
    A, B = D[:, 1, 0], D[:, 1, 1]
    v = recover_velocity(1.0, m, c, sigma)
    w = v * sigma / c ** 2
    s2 = (sigma / c) ** 2
    k, x = 1.0 + s2, w * w
    d2H = ((1.0 - s2) * ((1.0 + w) ** -2 + (1.0 - w) ** -2)
           / (k * (1.0 - x) / (1.0 + x) ** 2)) - 2.0
    f, psi = euler._gap_factors(m, c, sigma)
    np.testing.assert_allclose(d2H, 4.0 * s2 * f / (k * (1.0 - x) ** 3),
                               rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(B - m * A, -s2 * v * psi, rtol=1e-6,
                               atol=1e-12 * c ** 3)


def test_interior_sup_beats_every_grid_point():
    # at c = 4.5 the sup over the default box sits at q/E ~ 2.683, inside
    # the ratio interval, where no grid node lands
    m = np.linspace(0.0, 4.0, 400001)
    U = np.column_stack([np.ones_like(m), m])
    D = relativistic_euler(4.5).jacobian(U) - classical_euler().jacobian(U)
    sample = np.hypot(D[:, 1, 0], D[:, 1, 1])
    assert 1.0 < m[np.argmax(sample)] < 3.5
    got = jacobian_gap(4.5)
    assert float(np.max(sample)) <= got <= float(np.max(sample)) * (1.0 + 1e-10)


def test_superluminal_state_mid_run_is_inadmissible():
    # too small a wave-speed bound lets the scheme overshoot |q| < c E;
    # the flux turns NaN there, with no warning, and the run stops
    rel = relativistic_euler(2.0, K=((1.0, 4.0), (-1.9, 1.9)))
    with pytest.raises(AdmissibilityError, match="nan"):
        fv_evolve(rel, riemann_grid((1.0, 1.9), (1.0, -1.9)),
                  -1.0, 1.0, 100, 0.5, lambda_override=0.5)
    F = rel.flux(np.array([[1.0, 2.0], [1.0, -2.5], [1.0, 1.9]]))
    assert np.isnan(F[:2, 1]).all() and np.isfinite(F[2]).all()


# -- the finite-volume loop against its plain form ---------------------------------

def _reference_fv_evolve(system, U0, a, b, N, T, cfl=0.45,
                         lambda_override=None, rho_floor=1e-2):
    """Reference: a padded copy per step and a cellwise scan per step."""
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if N < 2:
        raise ValueError("need at least two cells")
    lam = float(lambda_override if lambda_override is not None
                else system.lambda_hat)
    if lam <= 0.0:
        raise ValueError("wave speed bound must be positive")
    dx = (b - a) / N
    xs = a + (np.arange(N) + 0.5) * dx
    if callable(U0):
        U = np.array([np.asarray(U0(float(x)), dtype=float) for x in xs])
    else:
        U = np.array(U0, dtype=float)
    if U.shape != (N, 2):
        raise ValueError(f"datum shape {U.shape} does not match grid ({N}, 2)")

    def check(U: np.ndarray, t: float) -> None:
        bad = ~np.isfinite(U).all(axis=1) | (U[:, 0] <= rho_floor)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise AdmissibilityError(
                f"state left admissible region at t={t:.6g}, cell {i}: "
                f"U={U[i]}")

    check(U, 0.0)
    dt_full = cfl * dx / lam
    t = 0.0
    n_steps = 0
    boundary_flux = np.zeros(2)
    totals0 = U.sum(axis=0) * dx
    while t < T - 1e-14 * max(T, 1.0):
        dt = min(dt_full, T - t)
        Ug = np.vstack([U[:1], U, U[-1:]])  # outflow ghosts
        F = system.flux(Ug)
        F_face = 0.5 * (F[:-1] + F[1:]) - 0.5 * lam * (Ug[1:] - Ug[:-1])
        U = U - (dt / dx) * (F_face[1:] - F_face[:-1])
        boundary_flux += dt * (F_face[0] - F_face[-1])
        t += dt
        n_steps += 1
        check(U, t)
    residual = U.sum(axis=0) * dx - totals0 - boundary_flux
    return GridSolution(xs=xs, U=U, time=t, dx=dx, n_steps=n_steps,
                        conservation_residual=residual)


def _assert_same_run(got, want):
    np.testing.assert_array_equal(got.xs, want.xs)
    np.testing.assert_array_equal(got.U, want.U)
    assert got.n_steps == want.n_steps
    assert got.time == want.time
    assert got.dx == want.dx
    np.testing.assert_array_equal(got.conservation_residual,
                                  want.conservation_residual)


def _wavy_datum(N):
    x = np.linspace(0.0, 1.0, N)
    return np.column_stack([2.0 + 0.5 * np.sin(7.0 * x), 0.4 * np.cos(3.0 * x)])


_SHARED_LAM = max(s.lambda_hat for s in (classical_euler(),
                                         relativistic_euler(8.0),
                                         relativistic_euler(64.0)))


@pytest.mark.parametrize("system", [classical_euler(), relativistic_euler(8.0),
                                    relativistic_euler(64.0)],
                         ids=["classical", "c=8", "c=64"])
@pytest.mark.parametrize("datum, N, T", [
    (riemann_grid((2.0, 0.0), (1.0, 0.0)), 400, 0.2),
    (_wavy_datum(401), 401, 0.137),  # odd N, array datum, truncated step
])
def test_fv_evolve_matches_reference_loop(system, datum, N, T):
    for lam in (_SHARED_LAM, None):
        got = fv_evolve(system, datum, -1.0, 1.0, N, T, lambda_override=lam)
        want = _reference_fv_evolve(system, datum, -1.0, 1.0, N, T,
                                    lambda_override=lam)
        _assert_same_run(got, want)
        assert got.time == T


def _window_data(N=200):
    """Data at the active window's edges, by name."""
    flat = np.tile([1.5, 0.0], (N, 1))
    ends = flat.copy()  # the window touches both ghosts at t = 0
    ends[0], ends[-1] = [2.0, 0.3], [1.0, -0.2]
    two = flat.copy()  # a long constant stretch between two jumps
    two[:N // 10], two[-N // 10:] = [2.0, 0.0], [1.0, 0.5]
    signed = flat.copy()  # halves differ only in the sign of a zero
    signed[N // 2:, 1] = -0.0
    return {"end-jumps": ends, "constant": flat, "two-jumps": two,
            "signed-zero": signed}


_WINDOW_DATA = _window_data()
# F = U carries a zero momentum's sign across a face: a -0.0 cell next
# to a 0.0 cell turns into 0.0, which the Euler fluxes never do
_ADVECTION = dataclasses.replace(classical_euler(), name="advection",
                                 flux=lambda U: 1.0 * U)


@pytest.mark.parametrize("system", [classical_euler(), relativistic_euler(8.0),
                                    _ADVECTION],
                         ids=["classical", "c=8", "advection"])
@pytest.mark.parametrize("name", list(_WINDOW_DATA))
def test_window_edges_match_reference_bytes(system, name):
    # tobytes, since array_equal takes -0.0 for 0.0
    datum = _WINDOW_DATA[name]
    got = fv_evolve(system, datum, -1.0, 1.0, 200, 0.12)
    want = _reference_fv_evolve(system, datum, -1.0, 1.0, 200, 0.12)
    assert got.U.tobytes() == want.U.tobytes()
    assert (got.conservation_residual.tobytes()
            == want.conservation_residual.tobytes())
    assert got.n_steps == want.n_steps > 0
    if name == "constant":
        assert got.U.tobytes() == datum.tobytes()
        assert got.conservation_residual.tobytes() == bytes(16)


def _sweep(monkeypatch, c_values, **kwargs):
    """Run the sweep; return its result and each ``fv_evolve`` call's
    ``(system, lambda_override, solution)``."""
    calls = []
    evolve = euler.fv_evolve

    def keep(system, *args, **kw):
        sol = evolve(system, *args, **kw)
        calls.append((system, kw["lambda_override"], sol))
        return sol

    monkeypatch.setattr(euler, "fv_evolve", keep)
    res = classical_limit_experiment(c_values, **kwargs)
    monkeypatch.undo()
    return res, calls


def test_limit_experiment_evolves_through_the_module_attribute(monkeypatch):
    # the benchmark wraps euler.fv_evolve to read the conservation
    # residuals, so the sweep goes through that name: one call, all systems
    _, calls = _sweep(monkeypatch, [8.0, 16.0, 32.0], N=400)
    assert len(calls) == 1
    sol = calls[0][2]
    assert isinstance(sol, GridSolution)
    assert sol.conservation_residual.shape == (2 * 4,)
    assert np.max(np.abs(sol.conservation_residual)) <= 1e-11


def test_limit_experiment_steps_all_systems_in_one_flux_call(monkeypatch):
    # one flux call a step plus the end-face probe, not one per system
    widths, runs = [], []
    evolve = euler.fv_evolve

    def counting(system, *args, **kwargs):
        def flux(U):
            widths.append(U.shape[1])
            return system.flux(U)
        sol = evolve(dataclasses.replace(system, flux=flux), *args, **kwargs)
        runs.append(sol.n_steps)
        return sol

    monkeypatch.setattr(euler, "fv_evolve", counting)
    classical_limit_experiment([8.0, 16.0, 32.0, 64.0], N=400)
    assert len(runs) == 1 and runs[0] > 100
    assert len(widths) == runs[0] + 1
    assert set(widths) == {2 * 5}


def _step_datum(rng):
    """Seeded step datum: 1 to 5 jumps between states of the default box."""
    N = int(rng.integers(50, 401))
    cuts = np.sort(rng.choice(np.arange(1, N), rng.integers(1, 6),
                              replace=False))
    states = np.column_stack([rng.uniform(0.8, 3.5, cuts.size + 1),
                              rng.uniform(-1.5, 1.5, cuts.size + 1)])
    return np.repeat(states, np.diff(np.r_[0, cuts, N]), axis=0)


_LOCKSTEP_CS = [4.5, 8.0, 37.3, 1e3]


@pytest.fixture(scope="module")
def lockstep():
    """The sweep's stacked system and shared bound at ``_LOCKSTEP_CS``."""
    mp = pytest.MonkeyPatch()
    try:
        _, [(system, lam, _)] = _sweep(mp, _LOCKSTEP_CS, N=200)
    finally:
        mp.undo()
    return system, lam


def _members():
    return [classical_euler()] + [relativistic_euler(c) for c in _LOCKSTEP_CS]


@pytest.mark.parametrize("datum", ["shipped", "wavy"] + [
    f"steps{i}" for i in range(4)])
def test_lockstep_pairs_match_serial_runs_bytes(lockstep, datum):
    system, lam = lockstep
    rng = np.random.default_rng(sum(map(ord, datum)))
    if datum == "shipped":  # configs/classical_limit.cfg
        N, T, U0 = 2000, 0.2, riemann_grid((2.0, 0.0), (1.0, 0.0))
        U0 = np.array([U0(x) for x in -1.0 + (np.arange(N) + 0.5) * 0.001])
    elif datum == "wavy":
        N, T, U0 = 401, 0.137, _wavy_datum(401)
    else:
        U0 = _step_datum(rng)
        N, T = U0.shape[0], float(rng.uniform(0.05, 0.3))
    got = fv_evolve(system, np.tile(U0, 5), -1.0, 1.0, N, T,
                    lambda_override=lam)
    assert got.U.shape == (N, 10) and got.conservation_residual.shape == (10,)
    for j, member in enumerate(_members()):
        pair = got.system(j)
        for run in (fv_evolve, _reference_fv_evolve):
            want = run(member, U0, -1.0, 1.0, N, T, lambda_override=lam)
            assert pair.U.tobytes() == want.U.tobytes()
            assert pair.n_steps == want.n_steps
            assert (pair.conservation_residual.tobytes()
                    == want.conservation_residual.tobytes())


def test_lockstep_classical_pair_is_the_classical_flux(lockstep):
    # the classical member is the Smoller-Temple flux at c = inf
    system, _ = lockstep
    rng = np.random.default_rng(11)
    U = np.column_stack([rng.uniform(0.01, 10.0, 4000),
                         rng.uniform(-1e3, 1e3, 4000)])
    U[:5, 1] = [0.0, -0.0, 1e300, -1e300, 1e-300]
    with np.errstate(over="ignore"):
        got = system.flux(np.tile(U, 5))
        assert got[:, :2].tobytes() == classical_euler().flux(U).tobytes()
    for j, member in enumerate(_members()[1:], start=1):
        inside = np.abs(U[:, 1] / U[:, 0]) < _LOCKSTEP_CS[j - 1]
        assert (got[inside, 2 * j:2 * j + 2].tobytes()
                == member.flux(U[inside]).tobytes())


def test_fv_evolve_truncates_the_last_step():
    cl = classical_euler()
    sol = fv_evolve(cl, _wavy_datum(401), -1.0, 1.0, 401, 0.137)
    dt_full = 0.45 * sol.dx / cl.lambda_hat
    assert (sol.n_steps - 1) * dt_full < 0.137 < sol.n_steps * dt_full


def test_limit_experiment_gaps_match_reference_loop():
    res = classical_limit_experiment([8.0, 16.0, 32.0], N=400)
    classical = classical_euler()
    systems = [relativistic_euler(c) for c in (8.0, 16.0, 32.0)]
    lam = max(s.lambda_hat for s in [classical] + systems)
    datum = riemann_grid((2.0, 0.0), (1.0, 0.0))
    ref = _reference_fv_evolve(classical, datum, -1.0, 1.0, 400, 0.2,
                               lambda_override=lam)
    want = [l1_state_distance(_reference_fv_evolve(
        s, datum, -1.0, 1.0, 400, 0.2, lambda_override=lam), ref)
        for s in systems]
    np.testing.assert_array_equal(res.gaps, want)
    assert res.lambda_shared == lam


# -- admissibility on adversarial states ----------------------------------------------

def _both_raise(system, U0, T):
    with pytest.raises(AdmissibilityError) as got:
        fv_evolve(system, U0, -1.0, 1.0, U0.shape[0], T)
    with pytest.raises(AdmissibilityError) as want:
        _reference_fv_evolve(system, U0, -1.0, 1.0, U0.shape[0], T)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_lockstep_names_the_first_failing_system_as_a_pair():
    # the vacuum of system 0 at cell 40 is reported, not the earlier cell 5
    # of system 1, with system 0's two entries
    flat = np.tile([1.5, 0.25], (64, 1))
    A, B = flat.copy(), flat.copy()
    A[40, 0], B[5, 0] = 1e-3, 0.0
    with pytest.raises(AdmissibilityError) as got:
        fv_evolve(classical_euler(), np.hstack([A, B]), -1.0, 1.0, 64, 0.1)
    assert str(got.value) == ("state left admissible region at t=0, "
                              f"cell 40: U={A[40]}")
    with pytest.raises(AdmissibilityError) as got:
        fv_evolve(classical_euler(), np.hstack([flat, B]), -1.0, 1.0, 64, 0.1)
    assert str(got.value).endswith(f"cell 5: U={B[5]}")


def test_lockstep_failure_reads_as_the_serial_failure():
    # the classical reference stays admissible; c = 8 turns NaN first
    kwargs = dict(UL=(1.0, 7.9), UR=(1.0, -7.9), N=200)
    with pytest.raises(AdmissibilityError) as got:
        classical_limit_experiment([8.0, 16.0], **kwargs)
    lam = max(s.lambda_hat for s in (classical_euler(),
                                     relativistic_euler(8.0),
                                     relativistic_euler(16.0)))
    datum = riemann_grid((1.0, 7.9), (1.0, -7.9))
    fv_evolve(classical_euler(), datum, -1.0, 1.0, 200, 0.2,
              lambda_override=lam)
    with pytest.raises(AdmissibilityError) as want:
        fv_evolve(relativistic_euler(8.0), datum, -1.0, 1.0, 200, 0.2,
                  lambda_override=lam)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(
        "t=0.0045, cell 96: U=[0.98613937        nan]")


def test_limit_experiment_rejects_gaps_without_a_slope():
    with pytest.raises(ValueError, match="no log-log slope"):
        classical_limit_experiment([8.0, 16.0], UL=(1.0, 0.0), UR=(1.0, 0.0),
                                   N=50)


def test_density_at_the_floor_names_its_cell():
    U0 = np.tile([1.5, 0.0], (64, 1))
    U0[17, 0] = 1e-2  # exactly rho_floor
    message = _both_raise(classical_euler(), U0, 0.1)
    assert "t=0, cell 17:" in message


def test_non_finite_momentum_mid_run_raises_as_reference():
    # the momentum flux turns infinite on the densities only the states
    # behind the shock reach; the flux stays row-local, and the density
    # stays finite for that step, so only the sum over all entries can see
    # the bad momenta
    classical = classical_euler()

    def flux(U):
        F = classical.flux(U)
        F[(U[:, 0] > 1.2) & (U[:, 0] < 1.9), 1] = np.inf
        return F

    system = dataclasses.replace(classical, flux=flux)
    U0 = np.array([riemann_grid((2.0, 0.0), (1.0, 0.0))(x)
                   for x in -1.0 + (np.arange(64) + 0.5) * (2.0 / 64)])
    with np.errstate(invalid="ignore"):
        message = _both_raise(system, U0, 0.5)
    assert "t=0," not in message
    assert "cell 30:" in message and message.endswith("-inf]")


def test_overflowing_sum_of_finite_states_does_not_raise():
    U0 = np.tile([1.5, 0.0], (8, 1))
    U0[[2, 5], 1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        got = fv_evolve(classical_euler(), U0, -1.0, 1.0, 8, 0.0)
        want = _reference_fv_evolve(classical_euler(), U0, -1.0, 1.0, 8, 0.0)
    _assert_same_run(got, want)
    np.testing.assert_array_equal(got.U, U0)


def test_window_starts_at_an_end_whose_face_flux_overflows():
    # a momentum of 1e300 overflows the momentum flux, so even a constant
    # stencil there updates to NaN, and the first bad cell is cell 0
    U0 = np.tile([1.5, 0.0], (64, 1))
    U0[:32, 1] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        message = _both_raise(classical_euler(), U0, 0.1)
    assert "cell 0:" in message and "t=0," not in message
