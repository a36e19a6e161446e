"""Isothermal Euler momentum systems, classical and relativistic.

State is ``U = (rho, q)`` with density ``rho > 0`` and momentum ``q``; the
pressure law is ``p = sigma^2 rho``.  Both fluxes have the form

    F(U) = rho (m, H(m)),   m = q / rho,

with ``H(m) = m^2 + sigma^2`` for the classical system and
``H(m) = phi_c m^2 + sigma^2`` for the relativistic one, where the
correction factor ``phi_c`` tends to 1 as the light speed ``c`` grows.
The velocity entering ``phi_c`` solves a quadratic in ``v`` whose stable
root keeps ``|v| < c`` for every admissible state and depends on ``m``
alone.  So the Jacobian ``[[0, 1], [H - m H', H']]`` is closed form, and
``lambda_hat = |H'|/2 + sqrt(H'^2/4 + H - m H')`` at the largest
``|q| / rho`` of the box is the exact maximum wave speed there.

The relativistic flux is this ``phi_c`` ram-pressure model, not the
relativistic Euler system of Smoller and Temple: its wave speeds exceed
``c`` at large ``|q| / rho`` (``lambda_hat`` is 6.195 at ``c = 1.5`` on
the default box).

Both systems are evolved by a first-order finite-volume scheme whose
numerical flux uses a single symmetric wave-speed bound, so two systems
sharing that bound see identical discretization structure and their
numerical gap isolates the flux difference.  A step updates only the cells
whose stencil holds a jump; every other update is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "recover_velocity",
    "phi_factor",
    "SystemFlux",
    "classical_euler",
    "relativistic_euler",
    "jacobian_gap",
    "AdmissibilityError",
    "GridSolution",
    "fv_evolve",
    "riemann_grid",
    "l1_state_distance",
    "ClassicalLimitResult",
    "classical_limit_experiment",
    "DEFAULT_EULER_BOX",
]

DEFAULT_EULER_BOX = ((0.5, 4.0), (-2.0, 2.0))


def recover_velocity(rho, q, c: float, sigma: float):
    """Velocity of the relativistic state, the subluminal root of

        (q / c^2) v^2 + rho (1 + sigma^2 / c^2) v - q = 0.

    Evaluated as ``v = 2 q / (b + sqrt(b^2 + 4 q^2 / c^2))`` with
    ``b = rho (1 + sigma^2 / c^2)``, which is exact at ``q = 0`` and never
    cancels.  The root satisfies ``|v| < c`` whenever ``rho > 0``.
    """
    rho = np.asarray(rho, dtype=float)
    q = np.asarray(q, dtype=float)
    b = rho * (1.0 + sigma ** 2 / c ** 2)
    return 2.0 * q / (b + np.sqrt(b * b + 4.0 * q * q / c ** 2))


def phi_factor(rho, q, c: float, sigma: float):
    """Relativistic correction of the ram pressure term.

    With ``p = sigma^2 rho`` and ``v`` from :func:`recover_velocity`,

        phi = 1 + (1/c^2) (1 - v^2/c^2) p / (rho + (v^2/c^2)(p/c^2)).

    Tends to 1 like ``O(1/c^2)`` uniformly on compact state boxes.
    """
    rho = np.asarray(rho, dtype=float)
    q = np.asarray(q, dtype=float)
    v = recover_velocity(rho, q, c, sigma)
    p = sigma ** 2 * rho
    beta2 = v * v / c ** 2
    return 1.0 + (1.0 / c ** 2) * (1.0 - beta2) * p / (rho + beta2 * p / c ** 2)


@dataclass(frozen=True)
class SystemFlux:
    """A 2x2 momentum system on a compact state box.

    ``flux`` and ``jacobian`` are vectorized over stacked states of shape
    ``(N, 2)``; ``lambda_hat`` is the largest characteristic speed on ``K``.
    ``flux(U)`` computes each row from that row alone, so a row's flux
    does not depend on the other rows or on the number of rows;
    :func:`fv_evolve` evaluates it on a window of the grid and relies on
    this.  Both built-in fluxes satisfy it.
    """

    name: str
    flux: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    K: tuple[tuple[float, float], tuple[float, float]]
    lambda_hat: float
    sigma: float
    light_speed: float | None = None

    def contains(self, U: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        (r_lo, r_hi), (q_lo, q_hi) = self.K
        return ((U[..., 0] >= r_lo - tol) & (U[..., 0] <= r_hi + tol)
                & (U[..., 1] >= q_lo - tol) & (U[..., 1] <= q_hi + tol))


def _momentum_system(name: str, H, dH, K, sigma: float,
                     light_speed: float | None = None) -> SystemFlux:
    """The system ``F(rho, q) = rho (m, H(m))`` with ``m = q / rho``.

    The flux calls ``H`` only, since it is the finite-volume hot path.  The
    larger ``|eigenvalue|`` is nondecreasing in ``|m|``, so ``lambda_hat``
    is its value at the largest ``|q| / rho`` of ``K``.
    """
    (r_lo, r_hi), (q_lo, q_hi) = K
    if r_lo <= 0.0:
        raise ValueError("density box must stay positive")

    def flux(U: np.ndarray) -> np.ndarray:
        rho, q = U[:, 0], U[:, 1]
        F = np.empty((U.shape[0], 2))
        F[:, 0] = q
        F[:, 1] = rho * H(q / rho)
        return F

    def jacobian(U: np.ndarray) -> np.ndarray:
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U[:, 1] / U[:, 0]
        h, dh = H(m), dH(m)
        J = np.zeros((U.shape[0], 2, 2))
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = h - m * dh
        J[:, 1, 1] = dh
        return J

    m_star = max(abs(q_lo), abs(q_hi)) / r_lo
    h, dh = float(H(m_star)), float(dH(m_star))
    lam = 0.5 * abs(dh) + float(np.sqrt(0.25 * dh * dh + h - m_star * dh))
    return SystemFlux(name=name, flux=flux, jacobian=jacobian, K=K,
                      lambda_hat=lam, sigma=sigma, light_speed=light_speed)


def classical_euler(sigma: float = 1.0,
                    K=DEFAULT_EULER_BOX) -> SystemFlux:
    """``H(m) = m^2 + sigma^2``: eigenvalues ``m +- sigma``."""

    def H(m):
        return m * m + sigma ** 2

    def dH(m):
        return 2.0 * m

    return _momentum_system(f"euler(sigma={sigma:g})", H, dH, K, sigma)


def relativistic_euler(c: float, sigma: float = 1.0,
                       K=DEFAULT_EULER_BOX) -> SystemFlux:
    """``H(m) = phi_c m^2 + sigma^2`` with ``phi_c`` read at ``rho = 1``.

    This is the ``phi_c`` ram-pressure model, not the Smoller-Temple
    relativistic Euler system: its wave speeds exceed ``c`` at large
    ``|q| / rho``, and ``lambda_hat`` is 6.195 at ``c = 1.5`` on the
    default box.

    The velocity root depends on ``q / rho`` only, so ``rho = 1`` is exact.
    ``H'`` differentiates through :func:`recover_velocity` implicitly:
    with ``k = 1 + sigma^2/c^2`` and ``R = sqrt(k^2 + 4 m^2 / c^2)``,
    ``dv/dm = 2k / (R (k + R))``, ``dbeta^2/dv = 2v / c^2`` and
    ``dphi/dbeta^2 = -(sigma^2/c^2) k / (1 + beta^2 sigma^2/c^2)^2``.
    """
    if c <= sigma:
        raise ValueError("light speed must exceed the sound speed")
    s2 = (sigma / c) ** 2
    k = 1.0 + s2

    def H(m):
        return phi_factor(1.0, m, c, sigma) * m * m + sigma ** 2

    def dH(m):
        R = np.sqrt(k * k + 4.0 * m * m / c ** 2)
        v = recover_velocity(1.0, m, c, sigma)
        beta2 = v * v / c ** 2
        dphi = (-s2 * k / (1.0 + beta2 * s2) ** 2
                * (2.0 * v / c ** 2) * (2.0 * k / (R * (k + R))))
        return 2.0 * phi_factor(1.0, m, c, sigma) * m + m * m * dphi

    return _momentum_system(f"rel-euler(c={c:g},sigma={sigma:g})", H, dH,
                            K, sigma, light_speed=c)


def jacobian_gap(c: float, sigma: float = 1.0, K=DEFAULT_EULER_BOX,
                 n_grid: int = 256) -> float:
    """Max spectral-norm gap between the two Jacobians over a box grid.

    Scales like ``1/c^2``, so doubling ``c`` divides the gap by about 4.
    """
    cl = classical_euler(sigma=sigma, K=K)
    rel = relativistic_euler(c, sigma=sigma, K=K)
    (r_lo, r_hi), (q_lo, q_hi) = K
    rr = np.linspace(r_lo, r_hi, n_grid)
    qq = np.linspace(q_lo, q_hi, n_grid)
    R, Q = np.meshgrid(rr, qq, indexing="ij")
    pts = np.column_stack([R.ravel(), Q.ravel()])
    D = rel.jacobian(pts) - cl.jacobian(pts)
    # both first rows are (0, 1), so D has rank one and its spectral norm
    # is the Euclidean norm of its second row
    return float(np.max(np.hypot(D[:, 1, 0], D[:, 1, 1])))


class AdmissibilityError(RuntimeError):
    """Evolution left the admissible state region."""


@dataclass(frozen=True)
class GridSolution:
    xs: np.ndarray
    U: np.ndarray
    time: float
    dx: float
    n_steps: int
    conservation_residual: np.ndarray  # per component, boundary-corrected

    def component(self, k: int) -> np.ndarray:
        return self.U[:, k]


def _cell_data(U0, a: float, b: float, N: int):
    """Cell width, cell centres and the ``(N, 2)`` cell averages of ``U0``.

    ``U0`` is either a callable sampled at the cell centres or an array.
    """
    dx = (b - a) / N
    xs = a + (np.arange(N) + 0.5) * dx
    if callable(U0):
        U = np.array([np.asarray(U0(float(x)), dtype=float) for x in xs])
    else:
        U = np.asarray(U0, dtype=float)
    if U.shape != (N, 2):
        raise ValueError(f"datum shape {U.shape} does not match grid ({N}, 2)")
    return dx, xs, U


def fv_evolve(system: SystemFlux, U0, a: float, b: float, N: int, T: float,
              cfl: float = 0.45, lambda_override: float | None = None,
              rho_floor: float = 1e-2) -> GridSolution:
    """First-order finite volumes with the symmetric two-speed flux.

    The interface flux is ``(F_L + F_R)/2 - (lam/2)(U_R - U_L)`` with a
    single bound ``lam`` for all interfaces, outflow ghost cells, and a
    truncated final step hitting ``T`` exactly.  ``lambda_override`` lets
    several systems share one ``lam`` (hence one time step), so their
    numerical solutions differ only through the flux functions.

    The state lives in one ``(N + 2, 2)`` buffer, the cells between two
    ghosts, and each step updates in place only the window ``U[lo:hi]``.
    Its invariant: the cells ``U[:lo + 1]`` are bitwise equal, and so are
    the cells ``U[hi - 1:]``.  So every cell outside the window has a
    constant three-cell stencil, whose update is exactly zero, and the
    faces at the window's ends carry the fluxes of the boundary faces.
    One scan at ``t = 0`` puts the window on the cells next to the first
    and the last jump; after each step a side grows by one cell when its
    outer interface now carries a jump.  Bitwise, because ``-0.0`` and
    ``0.0`` differ and a flux can turn one into the other.  Where the
    face flux of an end state is not finite, a constant stencil updates
    to NaN, not zero, so the window starts at that end.  With a row-local
    flux (see :class:`SystemFlux`) the run is bit for bit that of
    stepping every cell.

    Raises :class:`AdmissibilityError` on vacuum (density at or below
    ``rho_floor``) or non-finite states.  Each step decides the common case
    by two reductions over the window, the least density and the sum of all
    entries (NaN or inf in any entry makes the sum non-finite); only when
    that test trips does a cellwise search look for the first bad cell, so
    a finite sum that merely overflows does not raise.  Cells outside the
    window do not change after the check at ``t = 0``.
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if N < 2:
        raise ValueError("need at least two cells")
    lam = float(lambda_override if lambda_override is not None
                else system.lambda_hat)
    if lam <= 0.0:
        raise ValueError("wave speed bound must be positive")
    dx, xs, U_init = _cell_data(U0, a, b, N)
    G = np.empty((N + 2, 2))
    U = G[1:-1]
    U[:] = U_init

    def check(t: float, lo: int, hi: int) -> None:
        V = U[lo:hi]
        if V[:, 0].min(initial=np.inf) > rho_floor and np.isfinite(V.sum()):
            return
        bad = ~np.isfinite(V).all(axis=1) | (V[:, 0] <= rho_floor)
        if np.any(bad):
            i = lo + int(np.argmax(bad))
            raise AdmissibilityError(
                f"state left admissible region at t={t:.6g}, cell {i}: "
                f"U={U[i]}")

    check(0.0, 0, N)
    jumps = np.flatnonzero(
        (U[1:].view(np.int64) != U[:-1].view(np.int64)).any(axis=1))
    lo, hi = (int(jumps[0]), int(jumps[-1]) + 2) if jumps.size else (0, 0)
    F_end = system.flux(U[[0, -1]])
    if not np.isfinite(F_end[0] + F_end[0]).all():
        lo = 0
    if not np.isfinite(F_end[1] + F_end[1]).all():
        hi = N
    dt_full = cfl * dx / lam
    t = 0.0
    n_steps = 0
    boundary_flux = np.zeros(2)
    totals0 = U.sum(axis=0) * dx
    while t < T - 1e-14 * max(T, 1.0):
        dt = min(dt_full, T - t)
        G[0] = U[0]  # outflow ghosts
        G[-1] = U[-1]
        W = G[lo:hi + 2]  # the window and one neighbour on each side
        F = system.flux(W)
        F_face = 0.5 * (F[:-1] + F[1:]) - 0.5 * lam * (W[1:] - W[:-1])
        U[lo:hi] -= (dt / dx) * (F_face[1:] - F_face[:-1])
        boundary_flux += dt * (F_face[0] - F_face[-1])
        t += dt
        n_steps += 1
        check(t, lo, hi)
        if lo > 0 and U[lo - 1].tobytes() != U[lo].tobytes():
            lo -= 1
        if hi < N and U[hi - 1].tobytes() != U[hi].tobytes():
            hi += 1
    residual = U.sum(axis=0) * dx - totals0 - boundary_flux
    return GridSolution(xs=xs, U=U, time=t, dx=dx, n_steps=n_steps,
                        conservation_residual=residual)


def riemann_grid(UL, UR, x0: float = 0.0) -> Callable[[float], np.ndarray]:
    UL = np.asarray(UL, dtype=float)
    UR = np.asarray(UR, dtype=float)

    def datum(x: float) -> np.ndarray:
        return UR if x > x0 else UL

    return datum


def l1_state_distance(sol_a: GridSolution, sol_b: GridSolution) -> float:
    """Grid L1 distance with the Euclidean norm on states."""
    if sol_a.xs.shape != sol_b.xs.shape or abs(sol_a.dx - sol_b.dx) > 1e-15:
        raise ValueError("solutions live on different grids")
    return float(sol_a.dx * np.sum(
        np.linalg.norm(sol_a.U - sol_b.U, axis=1)))


@dataclass(frozen=True)
class ClassicalLimitResult:
    c_values: np.ndarray
    gaps: np.ndarray
    slope: float
    lambda_shared: float

    def summary_rows(self) -> list[dict]:
        return [{"c": float(c), "l1_gap": float(g)}
                for c, g in zip(self.c_values, self.gaps)]


def classical_limit_experiment(c_values: Sequence[float],
                               UL=(2.0, 0.0), UR=(1.0, 0.0),
                               sigma: float = 1.0,
                               K=DEFAULT_EULER_BOX,
                               a: float = -1.0, b: float = 1.0,
                               N: int = 2000, T: float = 0.2,
                               cfl: float = 0.45) -> ClassicalLimitResult:
    """L1 gap between relativistic and classical evolutions as ``c`` grows.

    All runs share one wave-speed bound (the max over every system), hence
    one time-step sequence, and one datum sampled once on the grid; the
    classical reference is computed once.  The flux gap is ``O(1/c^2)`` and
    the scheme is identical across runs, so the measured gaps follow the
    same rate: the fitted log-log slope is close to -2.
    """
    c_values = np.asarray(sorted(c_values), dtype=float)
    if c_values.size < 2:
        raise ValueError("need at least two light speeds for a slope")
    systems = [relativistic_euler(c, sigma=sigma, K=K) for c in c_values]
    classical = classical_euler(sigma=sigma, K=K)
    lam = max([classical.lambda_hat] + [s.lambda_hat for s in systems])
    _, _, U0 = _cell_data(riemann_grid(UL, UR), a, b, N)
    ref = fv_evolve(classical, U0, a, b, N, T, cfl=cfl, lambda_override=lam)
    gaps = np.array([
        l1_state_distance(
            fv_evolve(s, U0, a, b, N, T, cfl=cfl, lambda_override=lam), ref)
        for s in systems
    ])
    slope = float(np.polyfit(np.log(c_values), np.log(gaps), 1)[0])
    return ClassicalLimitResult(c_values=c_values, gaps=gaps, slope=slope,
                                lambda_shared=lam)
