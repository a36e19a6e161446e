"""Wave front tracking for piecewise-linear fluxes.

Piecewise-constant data under a piecewise-linear flux evolves exactly as a
finite set of jump discontinuities moving at constant speeds between
collisions; each collision is resolved by the exact Riemann solver.  The
result at the final time is therefore an exact entropy solution, not an
approximation, which is what makes the semigroup distances computed here
trustworthy reference numbers.

Each front is a row ``(x0, t0, speed, left, right)``: born at ``x0`` at
time ``t0``, it sits at ``x0 + speed * (t - t0)`` until it dies, so an
event moves no other front.  The fronts form a list linked by ``prev``
and ``next`` in position order, and a heap holds the collision time of
each pair of neighbours that close in on each other.  A pair is pushed
once, when the two become neighbours.  New fronts are appended, never
written over dead ones, and a dead front links to no successor, so an
entry is stale exactly when its left front no longer links to its right
one; stale entries are skipped when popped, so stale pops never
outnumber pushes.  An event pops the earliest valid pair, widens it to the
run of fronts within the position tolerance and splices the waves of one
Riemann problem in place of that run, so it costs the size of the run
and a heap operation per new pair, not the number of fronts.  Only the
pairs the new waves make with each other and with the two outer
neighbours are pushed.  Groups that meet at the same instant follow on
the next events at the same time.  The total variation is updated by the
change in the replaced jumps, and a budget on the event count turns a
runaway loop into :class:`FrontTrackingError`.

The waves of each Riemann problem are the shock rows
``riemann._shock_rows`` reads off the flux envelope.  A jump with no flux
node strictly between its states is a single chord shock, so the initial
fronts of such jumps come from one array expression,
``riemann._chord_waves``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .fluxes import PiecewiseLinearFlux
from .pwfun import PiecewiseConstantFn, l1_distance
from .riemann import _chord_waves, _shock_rows

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
    position; ``tv_history`` is an ``(n, 2)`` array of ``(time,
    total_variation)`` rows, one at time zero plus one after every
    resolved collision group, so times repeat when groups meet at the same
    instant and the exact time integral of TV is a finite sum.
    """

    time: float
    profile: PiecewiseConstantFn
    fronts: tuple
    tv_history: np.ndarray
    n_events: int

    def tv_time_integral(self) -> float:
        """Exact value of the integral of TV(solution) over [0, time].

        The terms are added one by one in time order, by ``sum`` rather
        than the pairwise ``np.sum``, so printed integrals do not depend on
        numpy's summation order.
        """
        t, tv = np.asarray(self.tv_history, dtype=float).T
        return float(sum((tv * (np.append(t[1:], self.time) - t)).tolist()))


def _project_values(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(nodes, values), 1, nodes.size - 1)
    lo = nodes[idx - 1]
    hi = nodes[idx]
    return np.where(values - lo <= hi - values, lo, hi)


def _waves(flux, uL: float, uR: float) -> tuple[list, list, list]:
    """Speeds, left and right states of the waves of ``uL | uR``."""
    rows = _shock_rows(flux, uL, uR)
    if rows is None:
        raise FrontTrackingError(
            "flux produced a rarefaction wave; front tracking needs a "
            "piecewise-linear or linear flux")
    return rows


def _initial_fronts(flux, xs: np.ndarray, vl: np.ndarray,
                    vr: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns ``(position, speed, left, right)`` of the waves of each jump.

    The chord shocks of jumps with no node inside come from one array
    expression; only the other jumps are solved one by one.
    """
    s, spans = _chord_waves(flux, vl, vr)
    spans = np.flatnonzero(spans)
    counts = np.ones(xs.size, dtype=int)
    fans = [_waves(flux, vl[k], vr[k]) for k in spans.tolist()]
    counts[spans] = [len(fan[0]) for fan in fans]
    cols = [np.repeat(c, counts) for c in (xs, s, vl, vr)]
    starts = (np.cumsum(counts) - counts)[spans]
    for k, fan in zip(starts.tolist(), fans):
        for c, w in zip(cols[1:], fan):
            c[k:k + len(w)] = w
    return tuple(cols)


def _profile_from(x: np.ndarray, right: np.ndarray, tail: float,
                  pos_tol: float) -> PiecewiseConstantFn:
    if x.size == 0:
        return PiecewiseConstantFn.constant(tail)
    # coincident fronts collapse to one jump carrying the last right state
    starts = np.flatnonzero(np.diff(x, prepend=-np.inf) > pos_tol)
    ends = np.append(starts[1:], x.size) - 1
    fn = PiecewiseConstantFn(x[starts], np.append(tail, right[ends]))
    return fn.simplified()


def ft_evolve(flux: PiecewiseLinearFlux, u0: PiecewiseConstantFn,
              T: float) -> FrontTrackingState:
    """Track ``u0`` under ``flux`` up to time ``T``.

    Data values on a node table are snapped to the nearest node first.
    Fronts keep their birth time and position, so an event moves no other
    front.  Each event pops the earliest collision time of two neighbours
    off a heap, skipping stale entries (a front of the pair has died),
    widens the pair to the run of fronts within the position tolerance and
    resolves the run as one Riemann problem at its mean position; only the
    new waves and their two outer neighbours get heap entries.  Raises
    :class:`FrontTrackingError` when a rarefaction fan forms or the event
    budget ``1000 + 4 (J + N)^2`` for ``J`` jumps and ``N`` nodes runs out,
    an internal error rather than bad input: on a convex table an event
    leaves fewer fronts than it removes, so the events number fewer than
    the initial fronts, at most ``J N``.
    """
    if u0.dim != 1:
        raise ValueError("front tracking needs scalar data")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    vals = u0.values[:, 0]
    nodes = getattr(flux, "nodes", None)
    if nodes is not None:
        vals = _project_values(vals, nodes)
    tail = float(vals[0])
    jump = vals[:-1] != vals[1:]
    cols = _initial_fronts(flux, u0.breakpoints[jump], vals[:-1][jump],
                           vals[1:][jump])
    # typed columns, 8 bytes a value: the rarefaction fans of a fine table
    # make many fronts
    n = cols[0].size
    X, S, L, R = (array("d", c.tobytes()) for c in cols)
    T0 = array("d", bytes(8 * n))
    ids = np.arange(n, dtype=np.int64)
    prev, nxt = array("q", (ids - 1).tobytes()), array("q", (ids + 1).tobytes())
    if n:
        nxt[-1] = -1  # past the last front, and on dead fronts
    head = 0 if n else -1
    span = [abs(b) for b in (u0.support or (0.0, 0.0))]
    pos_tol = 1e-12 * (1.0 + max(span) + flux.lambda_hat * T)
    heap: list[tuple[float, int, int]] = []

    def push(a: int, b: int, t: float) -> None:
        closing = S[a] - S[b]
        if closing > _PARALLEL:
            gap = X[b] + S[b] * (t - T0[b]) - (X[a] + S[a] * (t - T0[a]))
            tc = t + max(gap, 0.0) / closing
            if tc < T:
                heappush(heap, (tc, a, b))

    for k in range(n - 1):
        push(k, k + 1, 0.0)
    tv = float(np.sum(np.abs(cols[3] - cols[2])))
    tv_times, tvs = array("d", [0.0]), array("d", [tv])
    n_events = 0
    n_nodes = nodes.size if nodes is not None else 0
    max_events = 1000 + 4 * (int(np.count_nonzero(jump)) + n_nodes) ** 2
    while heap:
        t, a, b = heappop(heap)
        if nxt[a] != b:
            continue  # stale: a front died, or the two are apart
        # widen the pair to the run i..j of fronts within pos_tol
        i, j = a, b
        xs = [X[a] + S[a] * (t - T0[a]), X[b] + S[b] * (t - T0[b])]
        while prev[i] >= 0:
            k = prev[i]
            xk = X[k] + S[k] * (t - T0[k])
            if xs[0] - xk > pos_tol:
                break
            i = k
            xs.insert(0, xk)
        while nxt[j] >= 0:
            k = nxt[j]
            xk = X[k] + S[k] * (t - T0[k])
            if xk - xs[-1] > pos_tol:
                break
            j = k
            xs.append(xk)
        # unlink the run and append its waves between p and q
        p, q = prev[i], nxt[j]
        speeds, lefts, rights = _waves(flux, L[i], R[j])
        old, k = 0.0, i
        while k != q:
            old += abs(R[k] - L[k])
            dead, k = k, nxt[k]
            nxt[dead] = -1
        tv += sum(abs(r - l) for l, r in zip(lefts, rights)) - old
        m = len(speeds)
        links = [p, *range(len(X), len(X) + m), q]
        X.extend([sum(xs) / len(xs)] * m)
        T0.extend([t] * m)
        S.extend(speeds)
        L.extend(lefts)
        R.extend(rights)
        prev.extend([0] * m)
        nxt.extend([0] * m)
        for u, v in zip(links, links[1:]):
            if u < 0:
                head = v
            else:
                nxt[u] = v
            if v >= 0:
                prev[v] = u
                if u >= 0:
                    push(u, v, t)
        n_events += 1
        tv_times.append(t)
        tvs.append(tv)
        if n_events > max_events:
            raise FrontTrackingError(
                f"event budget exhausted ({n_events} events)")
    order = []
    k = head
    while k >= 0:
        order.append(k)
        k = nxt[k]
    order = np.array(order, dtype=int)
    x0, s, t0, left, right = (np.frombuffer(c)[order]
                              for c in (X, S, T0, L, R))
    x = x0 + s * (T - t0)
    return FrontTrackingState(
        time=T,
        profile=_profile_from(x, right, tail, pos_tol),
        fronts=tuple(zip(x.tolist(), s.tolist(), left.tolist(),
                         right.tolist())),
        tv_history=np.column_stack([np.frombuffer(tv_times),
                                    np.frombuffer(tvs)]),
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
