"""Isothermal Euler momentum systems, classical and relativistic.

Both have the pressure law ``p = sigma^2 rho`` and a flux
``F(U) = U_0 (m, H(m))`` with ``m = U_1 / U_0``, homogeneous of degree one,
so every derived quantity is a closed form in the one variable ``m``.  The
classical state is ``(rho, q)`` with ``H = m^2 + sigma^2``; the relativistic
one is the Smoller-Temple system in its conserved variables ``(E, q)``,
whose ``H`` tends to ``m^2 + sigma^2`` like ``1/c^2``.

Both systems are evolved by a first-order finite-volume scheme whose
numerical flux uses a single symmetric wave-speed bound, so two systems
sharing that bound see identical discretization structure and their
numerical gap isolates the flux difference.  A step updates only the cells
whose stencil holds a jump; every other update is exactly zero.

The scheme acts column pair by column pair, so S systems that share the
bound, the grid and the time can be evolved in lockstep: one state of
width ``2 S``, density in the columns ``0::2`` and momentum in ``1::2``,
one flux call and one admissibility check a step, on the union of the
systems' windows.  Each column pair is then bit for bit that system's own
run; the classical-limit sweep evolves the classical reference and every
light speed this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "recover_velocity",
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


class _LightSpeed(NamedTuple):
    """The constants of the Smoller-Temple velocity and ``H`` at light speed
    ``c``: ``k = 1 + (sigma/c)^2``, ``kk = k^2``, ``c2 = c^2`` and
    ``sc2 = sigma/c^2``.  Each field is a float, or an array with one entry
    a column pair for a lockstep flux (see :func:`_pair_flux`).
    """

    c: float
    k: float
    kk: float
    c2: float
    sc2: float

    @classmethod
    def at(cls, c: float, sigma: float) -> _LightSpeed:
        """The constants in Python float arithmetic.  At ``c = inf`` they
        make ``H`` the classical ``m^2 + sigma^2`` bit for bit for every
        finite ``m``."""
        c = float(c)
        k = 1.0 + (sigma / c) ** 2
        return cls(c, k, k * k, c ** 2, sigma / c ** 2)


def _velocity(m, sigma: float, ls: _LightSpeed):
    """:func:`recover_velocity` at ``m = q / E``."""
    m = np.asarray(m, dtype=float)
    root = np.sqrt(np.maximum(ls.kk - 4.0 * (sigma * m / ls.c2) ** 2, 0.0))
    return np.where(np.abs(m) < ls.c, 2.0 * m / (ls.k + root), np.nan)


def _smoller_temple_H(m, sigma: float, ls: _LightSpeed):
    """``H = (v^2 + sigma^2) / (1 + w^2)`` with ``w = v sigma / c^2``."""
    v = _velocity(m, sigma, ls)
    return (v * v + sigma ** 2) / (1.0 + (v * ls.sc2) ** 2)


def recover_velocity(E, q, c: float, sigma: float):
    """Velocity of the relativistic state ``(E, q)``.

    With ``m = q / E``, ``s2 = sigma^2/c^2`` and ``k = 1 + s2``, it is the
    subluminal root ``v = 2 m / (k + sqrt(k^2 - 4 s2 m^2/c^2))`` of
    ``(sigma^2 q / c^4) v^2 - k E v + q = 0``, exact at ``q = 0`` and odd
    in ``q``.  ``|v| < c`` exactly where ``|m| < c``; elsewhere the state is
    unphysical and ``v`` is NaN.
    """
    m = np.asarray(q, dtype=float) / np.asarray(E, dtype=float)
    return _velocity(m, sigma, _LightSpeed.at(c, sigma))


@dataclass(frozen=True)
class SystemFlux:
    """A 2x2 momentum system on a compact state box.

    ``flux`` and ``jacobian`` are vectorized over stacked states of shape
    ``(N, 2)``; ``lambda_hat`` is the largest characteristic speed on ``K``.
    ``flux(U)`` computes each row from that row alone, so a row's flux
    does not depend on the other rows or on the number of rows;
    :func:`fv_evolve` evaluates it on a window of the grid and relies on
    this.  Both built-in fluxes satisfy it, and map a state of width
    ``2 S`` column pair by column pair.
    """

    name: str
    flux: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    K: tuple[tuple[float, float], tuple[float, float]]
    lambda_hat: float


def _pair_flux(H):
    """``F(U) = rho (m, H(m))`` on each column pair ``(rho, q)`` of ``U``.

    ``H`` may hold one constant a column pair, as the lockstep flux of
    :func:`classical_limit_experiment` does with its :class:`_LightSpeed`.
    """

    def flux(U: np.ndarray) -> np.ndarray:
        rho, q = U[:, 0::2], U[:, 1::2]
        F = np.empty(U.shape)
        F[:, 0::2] = q
        F[:, 1::2] = rho * H(q / rho)
        return F

    return flux


def _momentum_system(name: str, H, dH, K) -> SystemFlux:
    """The system ``F(rho, q) = rho (m, H(m))`` with ``m = q / rho``.

    The flux calls ``H`` only, since it is the finite-volume hot path.  The
    Jacobian is ``[[0, 1], [H - m H', H']]``, and its larger ``|eigenvalue|``
    ``|H'|/2 + sqrt(H'^2/4 + H - m H')`` is nondecreasing in ``|m|``, so
    ``lambda_hat``, its value at the largest ``|q| / rho`` of ``K``, is the
    exact maximum speed there.  A box reaching a ratio where ``H`` is NaN
    raises ``ValueError``.
    """
    (r_lo, r_hi), (q_lo, q_hi) = K
    if r_lo <= 0.0:
        raise ValueError("density box must stay positive")
    flux = _pair_flux(H)

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
    # ((lam+ - lam-)/2)^2, which rounds below zero where both speeds near c
    disc = max(0.25 * dh * dh + h - m_star * dh, 0.0)
    lam = 0.5 * abs(dh) + float(np.sqrt(disc))
    if np.isnan(lam):
        raise ValueError(f"state box {K} leaves the domain of {name}")
    return SystemFlux(name=name, flux=flux, jacobian=jacobian, K=K,
                      lambda_hat=lam)


def classical_euler(sigma: float = 1.0,
                    K=DEFAULT_EULER_BOX) -> SystemFlux:
    """``H(m) = m^2 + sigma^2``: eigenvalues ``m +- sigma``.

    It is the Smoller-Temple system at ``c = inf``, whose ``H`` and ``H'``
    are ``m^2 + sigma^2`` and ``2 m`` bit for bit for every finite ``m``.
    """
    return replace(relativistic_euler(np.inf, sigma, K),
                   name=f"euler(sigma={sigma:g})")


def relativistic_euler(c: float, sigma: float = 1.0,
                       K=DEFAULT_EULER_BOX) -> SystemFlux:
    """The Smoller-Temple system (Comm. Math. Phys. 156, 1993) on ``(E, q)``:

        E = (rho + p v^2/c^4) G,  q = (rho + p/c^2) v G,  G = 1/(1 - v^2/c^2),

    with flux ``(q, q v + p) = E (m, H(m))``: for ``v`` from
    :func:`recover_velocity` and ``w = v sigma / c^2``,
    ``H = (v^2 + sigma^2) / (1 + w^2)``.  The speeds
    ``(v +- sigma) / (1 +- w)`` add ``sigma`` to ``v`` relativistically, so
    ``lambda_hat < c``; their sum is ``H' = 2 (1 - s2) v / (1 - w^2)``, with
    ``s2 = sigma^2/c^2``.  The box must lie in ``|q| < c E``;
    beyond it the flux is NaN, which :func:`fv_evolve` reports as an
    :class:`AdmissibilityError`.
    """
    if c <= sigma:
        raise ValueError("light speed must exceed the sound speed")
    s2 = (sigma / c) ** 2
    ls = _LightSpeed.at(c, sigma)

    def H(m):
        return _smoller_temple_H(m, sigma, ls)

    def dH(m):
        v = _velocity(m, sigma, ls)
        return 2.0 * (1.0 - s2) * v / (1.0 - (v * ls.sc2) ** 2)

    return _momentum_system(f"rel-euler(c={c:g},sigma={sigma:g})", H, dH, K)


def _gap_factors(m, c: float, sigma: float):
    """``(f, psi)`` at ``m``: :func:`jacobian_gap`'s factors, written as
    ``dH'' = 4 s2 f / (k (1 - x)^3)`` and ``B - m A = -s2 v psi`` with no
    cancellation (``y = v^2/c^2``, ``x = s2 y``, ``k = 1 + s2``).  ``f``
    rises in ``|m|`` from -1; ``psi`` starts at 4, changes sign at most once.
    """
    s2 = (sigma / c) ** 2
    y = (recover_velocity(1.0, m, c, sigma) / c) ** 2
    k, x = 1.0 + s2, s2 * y
    P = 4.0 * k * (1.0 - y) / (1.0 - x) - (2.0 + 2.0 * s2 - y + s2 * x)
    return (3.0 * y - 1.0 + s2 * s2 * y * y * (y - 3.0),
            4.0 * (1.0 - y) / (1.0 - x * x) + k * c * c * y * P / (1 + x) ** 3)


def jacobian_gap(c: float, sigma: float = 1.0, K=DEFAULT_EULER_BOX) -> float:
    """Sup over ``K`` of the spectral-norm gap between the two Jacobians.

    The gap has rank one (both first rows are ``(0, 1)``), so its norm is
    ``g(m) = hypot(A, B)`` with ``A = dH - m dH'``, ``B = dH'`` and ``d``
    relativistic minus classical.  ``g`` is even; folded onto ``m >= 0`` the
    ratios of ``K`` fill ``[a, b]``.  There ``(g^2)' = 2 dH'' (B - m A)`` has
    the sign of ``-f psi`` (see :func:`_gap_factors`), so the one interior
    maximum of ``g`` is where ``max(f, -psi)`` turns positive, found by
    bisection.  Each ``g`` is read off the Jacobians: a corner value is bit
    for bit a grid's.
    """
    rel = relativistic_euler(c, sigma=sigma, K=K)  # checks K and c
    ratios = [abs(q / r) for q in K[1] for r in K[0]]
    a = 0.0 if min(K[1]) <= 0.0 <= max(K[1]) else min(ratios)

    def rising(m):
        f, psi = _gap_factors(m, c, sigma)
        return max(f, -psi) < 0.0

    lo, hi = ms = [a, max(ratios)]
    if rising(lo) and not rising(hi):
        for _ in range(200):  # ends when the bracket stops shrinking
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        ms.append(lo)
    U = np.column_stack([np.ones(len(ms)), ms])
    D = rel.jacobian(U) - classical_euler(sigma=sigma, K=K).jacobian(U)
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

    def system(self, j: int) -> GridSolution:
        """System ``j`` of a lockstep run: its column pair, as views."""
        cols = slice(2 * j, 2 * j + 2)
        return replace(self, U=self.U[:, cols],
                       conservation_residual=self.conservation_residual[cols])


def _cell_data(U0, a: float, b: float, N: int):
    """Cell width, cell centres and the ``(N, 2 S)`` cell averages of ``U0``.

    ``U0`` is either a callable sampled at the cell centres or an array.
    """
    dx = (b - a) / N
    xs = a + (np.arange(N) + 0.5) * dx
    if callable(U0):
        U = np.array([np.asarray(U0(float(x)), dtype=float) for x in xs])
    else:
        U = np.asarray(U0, dtype=float)
    if U.ndim != 2 or U.shape[0] != N or U.shape[1] % 2 or not U.shape[1]:
        raise ValueError(
            f"datum shape {U.shape} does not match grid ({N}, 2 S)")
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

    The datum's width ``2 S`` sets the number of systems evolved in
    lockstep: column pair ``j`` is system ``j``, density in the columns
    ``0::2``, and ``system.flux`` maps the pairs together (see
    :func:`classical_limit_experiment`).  The scheme acts on each column
    alone, so every pair is bit for bit its system's own run, with the same
    ``n_steps`` and its two entries of ``conservation_residual``.

    The state lives in one ``(N + 2, 2 S)`` buffer, the cells between two
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
    stepping every cell.  In lockstep the window is the union of the
    systems' windows: a row counts as a jump when any column differs.  A
    system's cells outside its own window have a constant stencil all the
    same, so stepping them changes no bit.

    Raises :class:`AdmissibilityError` on vacuum (density at or below
    ``rho_floor``) or non-finite states.  Each step decides the common case
    by two reductions over the window, the least density and the sum of all
    entries (NaN or inf in any entry makes the sum non-finite); only when
    that test trips does a cellwise search look for the first bad cell, so
    a finite sum that merely overflows does not raise.  The message names
    the first bad cell of the first failing system as that system's
    ``U=[rho q]``.  Cells outside the window do not change after the check
    at ``t = 0``.
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
    G = np.empty((N + 2, U_init.shape[1]))
    U = G[1:-1]
    U[:] = U_init

    def check(t: float, lo: int, hi: int) -> None:
        V = U[lo:hi]
        if V[:, 0::2].min(initial=np.inf) > rho_floor and np.isfinite(V.sum()):
            return
        P = V.reshape(hi - lo, -1, 2)  # cell, system, (rho, q)
        bad = ~np.isfinite(P).all(axis=2) | (P[:, :, 0] <= rho_floor)
        if np.any(bad):
            j = int(np.argmax(bad.any(axis=0)))
            i = lo + int(np.argmax(bad[:, j]))
            raise AdmissibilityError(
                f"state left admissible region at t={t:.6g}, cell {i}: "
                f"U={U[i, 2 * j:2 * j + 2]}")

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
    boundary_flux = np.zeros(U.shape[1])
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
    one time-step sequence, and one datum sampled once on the grid, so one
    :func:`fv_evolve` call evolves them in lockstep: column pair 0 is the
    classical reference, pair ``j`` the light speed ``c_values[j - 1]`` in
    ascending order.  Every pair is the Smoller-Temple flux at its own
    light speed, the classical one at ``c = inf``, where it is classical
    Euler bit for bit.  The flux gap is ``O(1/c^2)`` and the scheme is
    identical across runs, so the measured gaps follow the same rate: the
    fitted log-log slope is close to -2.  A gap that is not positive and
    finite gives no slope and raises ``ValueError``.
    """
    c_values = np.asarray(sorted(c_values), dtype=float)
    if c_values.size < 2:
        raise ValueError("need at least two light speeds for a slope")
    speeds = [np.inf, *c_values]
    systems = [relativistic_euler(c, sigma=sigma, K=K) for c in speeds]
    lam = max(system.lambda_hat for system in systems)
    ls = _LightSpeed(*map(np.array, zip(*(
        _LightSpeed.at(c, sigma) for c in speeds))))
    # fv_evolve reads only the flux here; lambda_override sets the bound
    lockstep = replace(systems[0], name="lockstep", flux=_pair_flux(
        lambda m: _smoller_temple_H(m, sigma, ls)))
    _, _, U0 = _cell_data(riemann_grid(UL, UR), a, b, N)
    if U0.shape[1] != 2:  # one system's states, tiled below
        raise ValueError(
            f"datum shape {U0.shape} does not match grid ({N}, 2)")
    sol = fv_evolve(lockstep, np.tile(U0, 1 + c_values.size), a, b, N, T,
                    cfl=cfl, lambda_override=lam)
    gaps = np.array([l1_state_distance(sol.system(j), sol.system(0))
                     for j in range(1, 1 + c_values.size)])
    if not np.all(np.isfinite(gaps) & (gaps > 0.0)):
        raise ValueError(f"L1 gaps {gaps.tolist()} give no log-log slope: "
                         "each must be positive and finite")
    slope = float(np.polyfit(np.log(c_values), np.log(gaps), 1)[0])
    return ClassicalLimitResult(c_values=c_values, gaps=gaps, slope=slope,
                                lambda_shared=lam)
