"""Momentum systems: velocity recovery, flux gaps, finite-volume evolution."""

import numpy as np
import pytest
from scipy.optimize import brentq

from fluxstab import (AdmissibilityError, classical_euler,
                      classical_limit_experiment, fv_evolve, jacobian_gap,
                      l1_state_distance, phi_factor, recover_velocity,
                      relativistic_euler, riemann_grid)
from fluxstab.euler import DEFAULT_EULER_BOX


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


def _box_points(n, K=DEFAULT_EULER_BOX):
    (r_lo, r_hi), (q_lo, q_hi) = K
    R, Q = np.meshgrid(np.linspace(r_lo, r_hi, n), np.linspace(q_lo, q_hi, n),
                       indexing="ij")
    return np.column_stack([R.ravel(), Q.ravel()])


def _max_speed(J):
    """Larger |eigenvalue| of stacked ``[[0, 1], [a, b]]`` blocks."""
    a, b = J[:, 1, 0], J[:, 1, 1]
    return 0.5 * np.abs(b) + np.sqrt(0.25 * b * b + a)


def test_velocity_solves_the_quadratic():
    rng = np.random.default_rng(2)
    c, sigma = 3.0, 1.0
    for _ in range(100):
        rho = rng.uniform(0.5, 4.0)
        q = rng.uniform(-2.0, 2.0)

        def resid(v):
            return (q / c ** 2) * v * v + rho * (1.0 + sigma ** 2 / c ** 2) * v - q

        want = brentq(resid, -c, c, xtol=1e-14)
        got = float(recover_velocity(rho, q, c, sigma))
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


def test_phi_factor_rest_state_closed_form():
    c, sigma = 5.0, 1.3
    got = float(phi_factor(2.2, 0.0, c, sigma))
    assert got == pytest.approx(1.0 + sigma ** 2 / c ** 2, rel=1e-14)


def test_phi_factor_decays_like_inverse_csquared():
    rho, q = 1.5, 0.8
    e1 = float(phi_factor(rho, q, 40.0, 1.0)) - 1.0
    e2 = float(phi_factor(rho, q, 80.0, 1.0)) - 1.0
    assert e1 > 0.0 and e2 > 0.0
    assert e1 / e2 == pytest.approx(4.0, abs=0.1)


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
    rel = relativistic_euler(c)
    pts = _box_points(33)
    np.testing.assert_allclose(rel.jacobian(pts), _fd_jacobian(rel.flux, pts),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("c", [1.5, 8.0, 64.0])
def test_speed_bound_is_the_box_maximum(c):
    pts = _box_points(201)
    for system in (classical_euler(), relativistic_euler(c)):
        eigs = np.linalg.eigvals(system.jacobian(pts))
        assert np.max(np.abs(eigs)) <= system.lambda_hat * (1.0 + 1e-12)
        # attained at the thin-density corner of largest |q|
        corner = np.array([[0.5, 2.0]])
        J = system.jacobian(corner)
        top = np.max(np.abs(np.linalg.eigvals(J)))
        assert top == pytest.approx(system.lambda_hat, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("ratio", [1.001, 1.1, 3.0, 100.0, 1e6])
def test_max_speed_nondecreasing_in_momentum_ratio(sigma, ratio):
    c = ratio * sigma
    rel = relativistic_euler(c, sigma=sigma)
    m = np.linspace(0.0, 1000.0 * c, 20001)
    lam = _max_speed(rel.jacobian(np.column_stack([np.ones_like(m), m])))
    assert np.all(np.diff(lam) >= -1e-12 * lam[1:])


def test_constructor_guards():
    with pytest.raises(ValueError):
        relativistic_euler(0.5, sigma=1.0)  # slower than sound
    with pytest.raises(ValueError):
        classical_euler(K=((0.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        relativistic_euler(10.0, K=((-0.5, 1.0), (-1.0, 1.0)))


def test_contains():
    cl = classical_euler()
    inside = np.array([[1.0, 0.0], [0.5, -2.0]])
    outside = np.array([[0.4, 0.0], [1.0, 2.5]])
    assert cl.contains(inside).all()
    assert not cl.contains(outside).any()


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
    g50 = jacobian_gap(50.0, n_grid=128)
    g100 = jacobian_gap(100.0, n_grid=128)
    assert g50 > g100 > 0.0
    assert 0.23 <= g100 / g50 <= 0.27
