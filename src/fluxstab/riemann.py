"""Exact Riemann solvers for scalar conservation laws and the flux distance.

Every fan is the envelope ``E`` of the flux on the jump interval, convex
for increasing data and concave for decreasing data: a shock is a facet
of ``E`` with its speed as slope, a rarefaction a stretch where
``E = f``.  One routine, ``_envelope``, gives ``E'`` on the jump for the
three flux classes solved exactly here:

* polynomial fluxes that are uniformly convex (``kappa > 0``) or affine:
  a single shock, rarefaction or contact, by Lax admissibility;
* convex node tables (segment slopes strictly increasing): a slice of
  the table, one front per segment between the two states at that
  segment's chord slope for increasing data, and one chord shock for
  decreasing data;
* any other piecewise-linear flux: the hull of the nodes between the two
  states, a fan of admissible jumps.

``solve_riemann`` turns ``E'`` into waves, by way of ``_shock_rows``,
the ``(speed, left, right)`` rows that front tracking also reads;
``_chord_waves`` gives the rows of many single-chord jumps in one array
expression.  The solution is monotone
between the two states, so the L1 gap between two fans is the area
between their inverse graphs, ``t * TV(E_f - E_g)``, a finite sum that
``riemann_l1_diff`` reads off both envelopes without building a fan.

On top of the solvers sits the normalized single-jump distance between two
fluxes: the supremum over Riemann data of the time-1 L1 gap divided by the
jump size.  The supremum is estimated from below by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .fluxes import (MAX_DEGREE, PiecewiseLinearFlux, ScalarFlux,
                     _extreme_candidates, eval_rows, refine, roots_in_cells,
                     slope_gap, slope_pieces)

__all__ = [
    "Shock",
    "Rarefaction",
    "RiemannFan",
    "UnsupportedFluxError",
    "solve_riemann",
    "eval_fan",
    "riemann_l1_diff",
    "RiemannSampler",
    "FluxDistanceReport",
    "hat_d_estimate",
    "validate_fan",
]

AnyFlux = Union[ScalarFlux, PiecewiseLinearFlux]


class UnsupportedFluxError(ValueError):
    """Raised when no exact solver covers the requested flux/data pair."""


@dataclass(frozen=True)
class Shock:
    """Admissible jump travelling at the Rankine-Hugoniot speed."""

    speed: float
    left: float
    right: float


@dataclass(frozen=True)
class Rarefaction:
    """Centered fan on the speed interval ``[xi_lo, xi_hi]``.

    ``value`` maps a speed ``xi`` (scalar or array) inside the interval to
    the self-similar state, i.e. it inverts ``f'``; the fan runs from the
    state ``left`` at ``xi_lo`` to ``right`` at ``xi_hi``.
    """

    xi_lo: float
    xi_hi: float
    value: Callable
    left: float
    right: float

    def __repr__(self) -> str:  # callables spoil the default repr
        return (f"Rarefaction(xi_lo={self.xi_lo!r}, xi_hi={self.xi_hi!r}, "
                f"left={self.left!r}, right={self.right!r})")


@dataclass(frozen=True)
class RiemannFan:
    """Resolved Riemann problem: waves ordered by nondecreasing speed."""

    uL: float
    uR: float
    waves: tuple


def _rh_speed(flux: AnyFlux, uL: float, uR: float) -> float:
    return (float(flux(uR)) - float(flux(uL))) / (uR - uL)


def _lower_hull(us: np.ndarray, fs: np.ndarray) -> list[int]:
    """Indices of the lower convex hull of the graph, collinear merged."""
    hull: list[int] = []
    for i in range(us.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (us[i1] - us[i0]) * (fs[i] - fs[i0]) - (
                us[i] - us[i0]
            ) * (fs[i1] - fs[i0])
            if cross <= 0.0:  # middle point on or above the chord
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _envelope(flux: AnyFlux, uL: float,
              uR: float) -> tuple[np.ndarray, np.ndarray]:
    """``E'`` on the jump ``uL | uR``, the slope of the envelope ``E``.

    Returns the states ``x`` rising from ``min(uL, uR)`` that cut the jump
    into cells, and on them either one shock speed per cell (a 1-d array)
    or, for the rarefaction of a convex polynomial on its single cell, the
    coefficients of ``f'`` as one ``(1, MAX_DEGREE)`` row.  Equal data
    give one state and no cell.  A convex table inside ``K`` is read off
    a slice: every node inside a rising jump, one chord for a falling
    one.  Any other table takes the lower hull of its nodes inside the
    jump (of ``-f`` for falling data), so collinear nodes merge.
    """
    uL, uR = float(uL), float(uR)
    a, b = min(uL, uR), max(uL, uR)
    lo, hi = flux.K
    if not (lo - 1e-12 <= a and b <= hi + 1e-12):
        raise ValueError(f"Riemann data outside K={flux.K}")
    if uL == uR:
        return np.array([uL]), np.empty(0)
    if isinstance(flux, PiecewiseLinearFlux):
        nodes = flux.nodes
        sliced = flux.convex and lo <= a and b <= hi
        if sliced and uL > uR:
            us = np.array([a, b])
        else:
            inner = nodes[np.searchsorted(nodes, a, side="right"):
                          np.searchsorted(nodes, b)]
            us = np.concatenate(([a], inner, [b]))
        fs = np.interp(us, nodes, flux.flux_values)
        if not sliced:
            hull = _lower_hull(us, fs if uL < uR else -fs)
            us, fs = us[hull], fs[hull]
    else:
        if flux.degree > 1 and flux.kappa <= 0.0:
            raise UnsupportedFluxError(
                f"flux {flux.name!r} is neither affine nor uniformly convex; "
                "sample it to a piecewise-linear table instead"
            )
        if flux.degree > 1 and uL < uR:
            return np.array([a, b]), slope_pieces(flux)[1]
        us = np.array([a, b])
        fs = flux(us)
    # slices rather than np.diff, whose call costs more than these
    # few-element differences; falling data difference each cell from its
    # fan-left (upper) end, so a level chord runs at -0.0
    if uL < uR:
        return us, (fs[1:] - fs[:-1]) / (us[1:] - us[:-1])
    return us, (fs[:-1] - fs[1:]) / (us[:-1] - us[1:])


def _shock_rows(flux: AnyFlux, uL: float,
                uR: float) -> tuple[list, list, list] | None:
    """Speeds, left and right states of the shocks of ``uL | uR``.

    The rows run in fan order; ``None`` stands for the rarefaction of a
    convex polynomial on rising data.
    """
    x, speeds = _envelope(flux, uL, uR)
    if speeds.ndim == 2:
        return None
    x, speeds = x.tolist(), speeds.tolist()
    if uL > uR:  # falling data run down the cells
        x, speeds = x[::-1], speeds[::-1]
    return speeds, x[:-1], x[1:]


def _chord_waves(flux: AnyFlux, uL: np.ndarray,
                 uR: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chord speeds of many jumps ``uL | uR`` inside ``K``, and a mask.

    A jump with no table node strictly between its states is one chord
    shock, whose speed ``(f(uR) - f(uL)) / (uR - uL)`` is bit for bit the
    one ``_envelope`` gives (a level chord on falling data runs at
    ``-0.0``).  The mask marks the jumps this does not settle, whose
    speeds are meaningless: those spanning a node, and every jump of a
    polynomial flux.
    """
    if not isinstance(flux, PiecewiseLinearFlux):
        return np.empty(uL.size), np.ones(uL.size, dtype=bool)
    nodes = flux.nodes
    fl, fr = (np.interp(u, nodes, flux.flux_values) for u in (uL, uR))
    lo, hi = np.minimum(uL, uR), np.maximum(uL, uR)
    spans = (np.searchsorted(nodes, hi)
             > np.searchsorted(nodes, lo, side="right"))
    return (fr - fl) / (uR - uL), spans


def solve_riemann(flux: AnyFlux, uL: float, uR: float) -> RiemannFan:
    """Entropy solution of the single-jump problem ``uL | uR`` at the origin.

    A polynomial flux must be affine (a contact at its one speed) or
    uniformly convex (``kappa > 0``: a shock for decreasing data, a
    rarefaction for increasing data); any other raises
    ``UnsupportedFluxError``.
    """
    uL, uR = float(uL), float(uR)
    rows = _shock_rows(flux, uL, uR)
    if rows is None:
        return RiemannFan(uL, uR, (Rarefaction(
            float(flux.df(uL)), float(flux.df(uR)), flux.inverse_deriv,
            uL, uR),))
    return RiemannFan(uL, uR, tuple(map(Shock, *rows)))


def eval_fan(fan: RiemannFan, t: float, x):
    """Evaluate the self-similar solution at time ``t > 0``.

    When ``x/t`` hits a shock speed exactly the left state is returned,
    matching the left-limit convention used everywhere in the package.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    xi = np.asarray(x, dtype=float) / t
    scalar_in = xi.ndim == 0
    xi = np.atleast_1d(xi)
    out = np.full_like(xi, fan.uL)
    # waves are speed-ordered and states chain, so later waves overwrite
    for w in fan.waves:
        if isinstance(w, Shock):
            out[xi > w.speed] = w.right  # strict: ties keep the left state
        else:
            out[xi > w.xi_hi] = w.right
            inside = (xi >= w.xi_lo) & (xi <= w.xi_hi)
            if np.any(inside):
                out[inside] = w.value(xi[inside])
    return float(out[0]) if scalar_in else out


# E_f' - E_g' is at most cubic on a cell, which the two-point Gauss rule
# integrates exactly: nodes at the midpoint -/+ _GAUSS2 half-widths
_GAUSS2 = 1.0 / np.sqrt(3.0)


def riemann_l1_diff(flux_f: AnyFlux, flux_g: AnyFlux,
                    uL: float, uR: float, t: float = 1.0) -> float:
    """L1 distance at time ``t`` between the two single-jump solutions.

    Both solutions are monotone between ``uL`` and ``uR``, so the gap is
    the area between their inverse graphs: ``t * TV(E_f - E_g)`` over the
    jump interval, with ``E`` the flux envelope the fan is read off.  The
    variation is summed as ``|Delta (E_f - E_g)|`` over cells cut at the
    envelope vertices of both fluxes and at the roots of ``E_f' - E_g'``
    inside each cell, each increment integrated exactly.  A sum over any
    cut points is at most the variation, so the value is a lower bound by
    construction, and the roots make it exact.

    When both fans are shocks, ``E'`` is constant on each cell, so the
    gap is ``t * sum |width * (E_f' - E_g')|`` with no root to find.  No
    fan is built either way: both envelopes come from ``_envelope``.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if uL == uR:
        return 0.0
    (xf, ef), (xg, eg) = _envelope(flux_f, uL, uR), _envelope(flux_g, uL, uR)
    if ef.ndim == eg.ndim == 1:
        x, gap = slope_gap((xf, ef), (xg, eg))
        return t * float(np.sum(np.abs((x[1:] - x[:-1]) * gap)))
    # against a rarefaction's row of f', shock speeds are constant rows
    pad = ((0, 0), (0, MAX_DEGREE - 1))
    x, gap = slope_gap((xf, ef if ef.ndim == 2 else np.pad(ef[:, None], pad)),
                       (xg, eg if eg.ndim == 2 else np.pad(eg[:, None], pad)))
    x, gap = refine(x, gap, roots_in_cells(x, gap))
    h = 0.5 * np.diff(x)
    nodes = x[:-1] + h + np.outer([-_GAUSS2, _GAUSS2], h)
    inc = h * np.sum(eval_rows(gap, nodes), axis=0)
    return t * float(np.sum(np.abs(inc)))


# -- sampled flux distance ---------------------------------------------------

@dataclass(frozen=True)
class RiemannSampler:
    """Grid over Riemann data ``(uL, uR)`` in ``K x K``.

    ``n_grid`` points per axis (diagonal excluded) plus ``n_near`` pairs
    hugging the diagonal with gap ``near_gap``; the near-diagonal pairs
    probe the derivative gap, where the supremum concentrates for the
    convex families bundled here.
    """

    n_grid: int = 64
    n_near: int = 64
    near_gap: float = 1e-3

    def pairs(self, K: tuple[float, float]) -> np.ndarray:
        lo, hi = K
        g = np.linspace(lo, hi, self.n_grid)
        a, b = np.meshgrid(g, g, indexing="ij")
        grid = np.stack([a.ravel(), b.ravel()], axis=1)
        grid = grid[grid[:, 0] != grid[:, 1]]
        base = np.linspace(lo, hi, self.n_near)
        near_hi = np.minimum(base + self.near_gap, hi)
        near_lo = np.where(near_hi - base < self.near_gap,
                           near_hi - self.near_gap, base)
        near = np.stack([near_lo, near_hi], axis=1)
        return np.vstack([grid, near])


@dataclass(frozen=True)
class FluxDistanceReport:
    """Sampled lower bound for the single-jump flux distance."""

    estimate: float
    arg_left: float
    arg_right: float


def hat_d_estimate(flux_f: AnyFlux, flux_g: AnyFlux,
                   sampler: RiemannSampler | None = None) -> FluxDistanceReport:
    """Sample the normalized single-jump distance between two fluxes.

    Every sample is ``riemann_l1_diff(f, g, uL, uR, 1) / |uR - uL|``; the
    returned estimate is the sample maximum, a certified lower bound for
    the supremum over all Riemann data.
    """
    Kf = flux_f.K
    Kg = flux_g.K
    if abs(Kf[0] - Kg[0]) > 1e-12 or abs(Kf[1] - Kg[1]) > 1e-12:
        raise ValueError(f"fluxes must share the state interval: {Kf} vs {Kg}")
    sampler = sampler or RiemannSampler()
    best = 0.0
    arg = (Kf[0], Kf[0])
    for uL, uR in sampler.pairs(Kf):
        gap = abs(uR - uL)
        if gap == 0.0:
            continue
        val = riemann_l1_diff(flux_f, flux_g, uL, uR, 1.0) / gap
        if val > best:
            best = val
            arg = (float(uL), float(uR))
    return FluxDistanceReport(estimate=float(best), arg_left=arg[0],
                              arg_right=arg[1])


# -- invariants (used by the test-suite; cheap enough to call anywhere) ------

def validate_fan(fan: RiemannFan, flux: AnyFlux, tol: float = 1e-9) -> None:
    """Check admissibility invariants; raises AssertionError on violation.

    Speeds nondecreasing, states chain from uL to uR, every jump satisfies
    the Rankine-Hugoniot relation and the chord-slope admissibility
    condition, and rarefaction values invert the flux derivative.  The
    chord condition is exact: on a node table it is checked at every node
    strictly between a jump's states, with a 1e-12 relative slack; on a
    polynomial the chord slope ``s(u-, w)`` is a polynomial in ``w``,
    checked by Horner's rule at the ends of the jump and the roots of its
    derivative between them, with a 1e-7 slack.
    """
    state = fan.uL
    last_speed = -np.inf
    for w in fan.waves:
        if isinstance(w, Shock):
            assert w.speed >= last_speed - tol, "wave speeds must be ordered"
            assert abs(w.left - state) <= tol, "states must chain"
            rh = _rh_speed(flux, w.left, w.right)
            assert abs(rh - w.speed) <= tol * (1.0 + abs(rh)), "RH violated"
            # chord condition: s(u-, w) >= s(u-, u+) for w between the
            # states; a table's chord gap is piecewise linear in w, so its
            # nodes decide it, and a polynomial's chord slope is a
            # polynomial in w, so its extreme candidates decide it
            lo, hi = sorted((w.left, w.right))
            if isinstance(flux, PiecewiseLinearFlux):
                us = flux.nodes[(flux.nodes > lo) & (flux.nodes < hi)]
                chords = (flux(us) - flux(w.left)) / (us - w.left)
                slack = 1e-12
            else:
                # (f(w) - f(u-)) / (w - u-) by synthetic division, highest
                # power first: nothing cancels near u-
                q = np.polydiv(flux.coeffs[::-1], [1.0, -w.left])[0]
                cands = _extreme_candidates(q[::-1], lo, hi)
                chords, slack = np.polyval(q, cands), 1e-7
            assert np.all(chords >= w.speed - slack * (1.0 + abs(w.speed))), (
                "inadmissible jump")
            state = w.right
            last_speed = w.speed
        else:
            assert w.xi_lo >= last_speed - tol
            assert w.xi_hi >= w.xi_lo - tol
            xis = np.linspace(w.xi_lo, w.xi_hi, 17)
            us = w.value(xis)
            assert np.all(np.diff(us) >= -tol), "fan values must be monotone"
            assert abs(float(us[0]) - state) <= 1e-6, "states must chain"
            dfs = flux.df(us) if isinstance(flux, ScalarFlux) else None
            if dfs is not None:
                assert np.max(np.abs(dfs - xis)) <= 1e-6, "f'(u(xi)) != xi"
            state = float(us[-1])
            last_speed = w.xi_hi
    assert abs(state - fan.uR) <= 1e-6, "fan must end at uR"
