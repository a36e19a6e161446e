"""Wave front tracking for piecewise-linear fluxes.

Piecewise-constant data under a piecewise-linear flux evolves exactly as a
finite set of jump discontinuities moving at constant speeds between
collisions; each collision is resolved by the exact Riemann solver.  The
result at the final time is therefore an exact entropy solution, not an
approximation, which is what makes the semigroup distances computed here
trustworthy reference numbers.

The fronts are kept in four arrays, position, speed, left and right state,
sorted by position.  A collision changes only the fronts that meet, so each
event advances every front to the earliest neighbour collision and splices
the waves of one Riemann problem in place of that colliding group; groups
that meet at the same instant follow on the next events with a zero time
step.  The total variation is updated by the change in the replaced jumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluxes import PiecewiseLinearFlux
from .pwfun import PiecewiseConstantFn, l1_distance
from .riemann import Shock, solve_riemann

__all__ = [
    "FrontTrackingError",
    "FrontTrackingState",
    "ft_evolve",
    "semigroup_l1_diff",
    "evolution_window",
]

_PARALLEL = 1e-14  # speed gap below which fronts never collide


class FrontTrackingError(RuntimeError):
    """Internal failure of the tracking loop (event budget exhausted)."""


@dataclass(frozen=True)
class FrontTrackingState:
    """Snapshot of a tracked solution.

    ``fronts`` holds ``(position, speed, left, right)`` rows sorted by
    position; ``tv_history`` holds ``(time, total_variation)`` pairs, one
    entry at time zero plus one after every resolved collision group, so
    times repeat when groups meet at the same instant and the exact time
    integral of TV is a finite sum.
    """

    time: float
    profile: PiecewiseConstantFn
    fronts: tuple
    tv_history: tuple
    n_events: int

    def tv_time_integral(self) -> float:
        """Exact value of the integral of TV(solution) over [0, time]."""
        ts = [t for t, _ in self.tv_history] + [self.time]
        tvs = [tv for _, tv in self.tv_history]
        return float(sum(tv * (t1 - t0) for tv, t0, t1 in zip(tvs, ts, ts[1:])))


def _project_values(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(nodes, values), 1, nodes.size - 1)
    lo = nodes[idx - 1]
    hi = nodes[idx]
    return np.where(values - lo <= hi - values, lo, hi)


def _shock_waves(flux, vl: float, vr: float) -> list:
    waves = solve_riemann(flux, vl, vr).waves
    for w in waves:
        if not isinstance(w, Shock):
            raise FrontTrackingError(
                "flux produced a rarefaction wave; front tracking needs a "
                "piecewise-linear or linear flux")
    return waves


def _fronts_at(flux, xs, vls, vrs) -> np.ndarray:
    """Rows ``(position, speed, left, right)`` of the waves of each jump."""
    rows = [(x, w.speed, w.left, w.right)
            for x, vl, vr in zip(xs, vls, vrs)
            for w in _shock_waves(flux, vl, vr)]
    return np.array(rows, dtype=float).reshape(-1, 4)


def _profile_from(x: np.ndarray, right: np.ndarray, tail: float,
                  pos_tol: float) -> PiecewiseConstantFn:
    if x.size == 0:
        return PiecewiseConstantFn.constant(tail)
    # coincident fronts collapse to one jump carrying the last right state
    starts = np.flatnonzero(np.diff(x, prepend=-np.inf) > pos_tol)
    ends = np.append(starts[1:], x.size) - 1
    fn = PiecewiseConstantFn(x[starts], np.append(tail, right[ends]))
    return fn.simplified()


def ft_evolve(flux: PiecewiseLinearFlux, u0: PiecewiseConstantFn, T: float,
              project: bool = True) -> FrontTrackingState:
    """Track ``u0`` under ``flux`` up to time ``T``.

    Data values are snapped to the nearest flux node first (``project``).
    Each event advances all fronts to the earliest collision of two
    neighbours, widens that pair to the run of fronts within the position
    tolerance, and resolves the run as one Riemann problem between its
    outermost states at their mean position.  Raises
    :class:`FrontTrackingError` if the event budget is exhausted, which
    signals an internal error rather than bad input.
    """
    if u0.dim != 1:
        raise ValueError("front tracking needs scalar data")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    vals = u0.values[:, 0]
    nodes = getattr(flux, "nodes", None)
    if project and nodes is not None:
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
    n_nodes = nodes.size if nodes is not None else 0
    max_events = 1000 + 4 * (x.size + n_nodes) ** 2
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
        if n_events > max_events:
            raise FrontTrackingError(
                f"event budget exhausted ({n_events} events, {x.size} fronts)"
            )
    if T > t:
        x += s * (T - t)
    return FrontTrackingState(
        time=T,
        profile=_profile_from(x, right, tail, pos_tol),
        fronts=tuple(zip(x.tolist(), s.tolist(), left.tolist(), right.tolist())),
        tv_history=tuple(tv_history),
        n_events=n_events,
    )


def evolution_window(u0: PiecewiseConstantFn, lam: float, T: float,
                     pad: float = 1.0) -> tuple[float, float]:
    """Interval guaranteed to contain all waves emanating from ``u0``."""
    sup = u0.support or (0.0, 0.0)
    return sup[0] - lam * T - pad, sup[1] + lam * T + pad


def semigroup_l1_diff(flux_f: PiecewiseLinearFlux, flux_g: PiecewiseLinearFlux,
                      u0: PiecewiseConstantFn, T: float) -> float:
    """Exact L1 distance at time ``T`` between the two evolutions of ``u0``."""
    if u0.breakpoints.size == 0:
        return 0.0
    lam = max(flux_f.lambda_hat, flux_g.lambda_hat)
    window = evolution_window(u0, lam, T)
    uf = ft_evolve(flux_f, u0, T).profile
    ug = ft_evolve(flux_g, u0, T).profile
    return l1_distance(uf, ug, window)
