"""Reference values and verdicts for the benchmark, computed apart from fluxstab.

Everything here uses numpy and closed forms only, so a check can catch a
fluxstab result that is wrong even when fluxstab's own checks pass.  The
fluxes of the bundled pairs are restated as polynomial coefficients, and
step functions are handled as plain ``(breakpoints, values)`` arrays.
"""

from __future__ import annotations

import time

import numpy as np

K = (-1.0, 1.0)

# f(u) = c1 u + c2 u^2 + c3 u^3 + c4 u^4, as (c1, c2, c3, c4), for the
# pairs fluxstab.metrics.bundled_pairs() ships under these names
BUNDLED_POLYS = {
    "tilt-quarter": ((0.0, 0.5, 0.0, 0.0), (0.25, 0.5, 0.0, 0.0)),
    "scale-150": ((0.0, 0.5, 0.0, 0.0), (0.0, 0.75, 0.0, 0.0)),
    "quartic-vs-quadratic": ((0.0, 0.5, 0.0, 0.25), (0.0, 0.5, 0.0, 0.0)),
    "tilt-vs-scale": ((0.1, 0.5, 0.0, 0.0), (0.0, 0.45, 0.0, 0.0)),
    "cubic-shear": ((0.0, 0.5, 0.1, 0.0), (-0.15, 0.5, 0.0, 0.0)),
    "linear-pair": ((0.3, 0.0, 0.0, 0.0), (-0.2, 0.0, 0.0, 0.0)),
}

# fixed relative slack for a sampled lower bound that may touch its sup
ROUNDING = 1e-9


def poly_value(c, u):
    u = np.asarray(u, dtype=float)
    return u * (c[0] + u * (c[1] + u * (c[2] + u * c[3])))


def deriv_gap_sup(cf, cg, k=K) -> float:
    """Exact ``max_K |f' - g'|`` for polynomial fluxes.

    ``f' - g'`` is a cubic; its extreme values on ``K`` sit at the
    endpoints or at real roots of its derivative inside ``K``.
    """
    d = np.subtract(cf, cg)
    # (f - g)' = d1 + 2 d2 u + 3 d3 u^2 + 4 d4 u^3, highest degree first
    gap = np.poly1d([4.0 * d[3], 3.0 * d[2], 2.0 * d[1], d[0]])
    cands = [k[0], k[1]]
    for r in np.atleast_1d(np.roots(gap.deriv().coeffs)):
        if abs(r.imag) < 1e-12 and k[0] < r.real < k[1]:
            cands.append(float(r.real))
    return float(max(abs(gap(u)) for u in cands))


def chord_slope_sup(cf, cg, segments: int, k=K) -> float:
    """``max |f' - g'|`` of the two piecewise-linear interpolants on the
    shared uniform grid with ``segments`` pieces: a slope-table difference."""
    nodes = np.linspace(k[0], k[1], segments + 1)
    h = np.diff(nodes)
    sf = np.diff(poly_value(cf, nodes)) / h
    sg = np.diff(poly_value(cg, nodes)) / h
    return float(np.max(np.abs(sf - sg)))


def sampled_pair_sup(name: str, segments: int) -> float:
    """max |f' - g'| of a bundled pair as ``bundled_pairs(segments=...)``
    gives it: the slope-table difference of the samples, except for the
    linear pair, which is not sampled."""
    if name == "linear-pair":
        return deriv_gap_sup(*BUNDLED_POLYS[name])
    return chord_slope_sup(*BUNDLED_POLYS[name], segments)


def attains_sup(estimate: float, sup: float, floor: float = 0.95) -> bool:
    """A sampled distance is a lower bound that reaches ``floor`` of the sup."""
    return floor * sup <= estimate <= sup * (1.0 + ROUNDING) + 1e-12


def close(got: float, want: float, tol: float) -> bool:
    return bool(abs(got - want) <= tol)


def in_window(value: float, lo: float, hi: float) -> bool:
    return bool(lo <= value <= hi)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


# -- the variational layer --------------------------------------------------

def pulse_solution(h: float, w: float, t: float, x):
    """Burgers entropy solution for ``h`` on ``[0, w)``, 0 elsewhere.

    A rarefaction ``x / t`` on ``[0, h t]``, the plateau ``h`` up to the
    shock at ``w + h t / 2``, valid while ``t <= 2 w / h``.  At the shock
    the left limit ``h`` is returned.
    """
    x = np.asarray(x, dtype=float)
    shock = w + 0.5 * h * t
    return np.where((x >= 0.0) & (x <= h * t), x / t,
                    np.where((x > h * t) & (x <= shock), h, 0.0))


# the evaluator resolves a smooth minimum only to about sqrt(eps), which
# puts its values ~4e-8 off at worst; 5e-7 still rejects an error of 1e-6
PULSE_TOL = 5e-7

# tilted_burgers 0.1 on sawtooth_datum(2) at t = 0.3 has shocks at
# x = 0.28 + k/2 (and -0.22); the left limit there is 0.28/0.3 - 0.1
ON_SHOCK_T = 0.3
ON_SHOCK_X = (-0.22, 0.28, 0.78, 1.28)
ON_SHOCK_LEFT = 0.28 / 0.3 - 0.1


def on_shock_ok(value: float) -> bool:
    return close(value, ON_SHOCK_LEFT, 1e-9)


def values_match(got, want, tol: float = PULSE_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def tv_decay_bound(lam: float, kappa: float, t: float, a: float, b: float,
                   k=K) -> float:
    """``2 diam(K) (b - a + 4 lambda t) / (kappa t)``."""
    return 2.0 * (k[1] - k[0]) * (b - a + 4.0 * lam * t) / (kappa * t)


def window_bound(lam: float, kappa: float, deriv_gap: float, t: float,
                 a: float, b: float, k=K) -> float:
    """``2 diam(K) t ((b - a + 4 lambda t) / (kappa t)) max |f' - g'|``."""
    return (2.0 * (k[1] - k[0]) * t * ((b - a + 4.0 * lam * t) / (kappa * t))
            * deriv_gap)


# -- step functions ---------------------------------------------------------

def _cells(bps, a: float, b: float):
    bps = np.asarray(bps, dtype=float)
    inner = bps[(bps > a) & (bps < b)]
    edges = np.concatenate([[a], inner, [b]])
    return edges, 0.5 * (edges[:-1] + edges[1:])


def step_eval(bps, vals, x):
    """Right-continuous step function: ``vals[i]`` left of ``bps[i]``."""
    return np.asarray(vals, dtype=float)[
        np.searchsorted(np.asarray(bps, dtype=float), x, side="right")]


def step_integral(bps, vals, a: float, b: float) -> float:
    edges, mids = _cells(bps, a, b)
    return float(np.diff(edges) @ step_eval(bps, vals, mids))


def step_l1(f, g, a: float, b: float) -> float:
    """L1 distance on ``[a, b]`` of two ``(bps, vals)`` step functions."""
    edges, mids = _cells(np.concatenate([f[0], g[0]]), a, b)
    diff = step_eval(*f, mids) - step_eval(*g, mids)
    return float(np.diff(edges) @ np.abs(diff))


def step_tv(vals) -> float:
    return float(np.sum(np.abs(np.diff(np.asarray(vals, dtype=float)))))


# conservation, contraction and variation decay hold to this
TRACK_TOL = 1e-10


def conserves(before, after, a: float, b: float) -> bool:
    """Mass on ``[a, b]`` unchanged and variation not grown, for step
    functions whose fronts stay inside ``[a, b]`` and whose tails agree."""
    return (close(step_integral(*after, a, b), step_integral(*before, a, b),
                  TRACK_TOL)
            and step_tv(after[1]) <= step_tv(before[1]) + TRACK_TOL)


def contracts(before_u, before_v, after_u, after_v, a: float, b: float) -> bool:
    """``|S u - S v|_L1 <= |u - v|_L1`` on ``[a, b]``."""
    return (step_l1(after_u, after_v, a, b)
            <= step_l1(before_u, before_v, a, b) + TRACK_TOL)


# -- ledger -----------------------------------------------------------------

class Ledger:
    """Counts operations and their verdicts, and times each operation.

    An operation of a known fault class that gives a wrong answer is
    counted as failed and leaves ``correct`` alone; any other wrong answer
    is failed too and makes the run incorrect.  Every verdict closes an
    operation, so the clock readings taken at each one split a round into
    per-operation wall and CPU times.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.marks: list[tuple[float, float]] = []

    def start_round(self) -> None:
        self.marks = [(time.perf_counter(), time.process_time())]

    def op_times(self) -> tuple[list[float], list[float]]:
        """Wall and CPU seconds of each operation since ``start_round``."""
        walls = [b[0] - a[0] for a, b in zip(self.marks, self.marks[1:])]
        cpus = [b[1] - a[1] for a, b in zip(self.marks, self.marks[1:])]
        return walls, cpus

    def record(self, what: str, ok: bool, known_fault: bool = False) -> bool:
        self.marks.append((time.perf_counter(), time.process_time()))
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.flag(what)
        return ok

    def flag(self, what: str) -> None:
        """Mark the run incorrect for a fault found outside any operation."""
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(what)
