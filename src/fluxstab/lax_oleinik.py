"""Variational (Lax-Oleinik) evaluator for uniformly convex fluxes.

For ``u_t + f(u)_x = 0`` with ``f'' >= kappa > 0`` the entropy solution at
``(t, x)`` is recovered by minimizing

    G(y) = U0(y) + t * f*((x - y) / t)

over backward characteristic feet ``y`` in ``[x - lambda_hat t,
x + lambda_hat t]``, where ``U0`` is the primitive of the datum and ``f*``
the Legendre transform restricted to ``K`` (the Hopf-Lax formula; Lax
1957, Hopf 1965, Evans *PDE* 3.4).  Every accepted datum is piecewise
constant, so ``U0`` is linear and ``G`` convex on each cell between
kinks, with its minimum on a cell of value ``v`` at the clip of
``x - t f'(v)`` into the cell.  The minimization is therefore exact: one
candidate per cell in the window, the least ``G`` wins, and ``u = (f')^-1
((x - y*) / t)``.  At a shock two feet tie, so the winner is the leftmost
candidate whose ``G`` exceeds the minimum by at most ``1e-12`` times the
size of ``G``'s terms (:func:`_leftmost_least`): evaluation returns left
limits at every scale.

This evaluator is pointwise and mesh-free, which makes it the reference
oracle for the front-tracking engine and the workhorse behind the bound
checks on L-infinity data, where the state has unbounded variation and
front tracking does not apply.  For quadratic fluxes the solution is
piecewise linear in ``x``; ``_quadratic_profile`` lists its pieces
exactly, and the oscillating-data gap is integrated from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fluxes import ScalarFlux, burgers
from .metrics import deriv_gap_sup
from .pwfun import PiecewiseConstantFn
from .report import verdict_line

__all__ = [
    "StepData",
    "PeriodicSquareWave",
    "sawtooth_datum",
    "as_initial_data",
    "LaxOleinikProblem",
    "lax_oleinik_eval",
    "lax_oleinik_eval_many",
    "RexpResult",
    "rexp_counterexample",
    "ShockChars",
    "modified_datum",
    "TvBoundReport",
    "oleinik_tv_bound_check",
    "LinftyBoundReport",
    "linfty_bound_check",
    "OslReport",
    "one_sided_lipschitz_check",
]


# -- initial data -------------------------------------------------------------

@dataclass(frozen=True)
class StepData:
    """Piecewise-constant datum with an exact piecewise-linear primitive."""

    fn: PiecewiseConstantFn

    def __post_init__(self) -> None:
        if self.fn.dim != 1:
            raise ValueError("scalar data required")
        bp = self.fn.breakpoints
        vals = self.fn.values[:, 0]
        if bp.size:
            cum = np.concatenate([[0.0], np.cumsum(vals[1:-1] * np.diff(bp))]) \
                if bp.size > 1 else np.array([0.0])
        else:
            cum = np.empty(0)
        object.__setattr__(self, "_cum", cum)

    def value(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def kinks(self, lo: float, hi: float) -> np.ndarray:
        """Kinks of the primitive inside [lo, hi]: the jump locations."""
        bp = self.fn.breakpoints
        return bp[(bp >= lo) & (bp <= hi)]

    def primitive(self, y):
        """Exact primitive anchored so that P(0) = 0."""
        y = np.asarray(y, dtype=float)
        bp = self.fn.breakpoints
        vals = self.fn.values[:, 0]
        if bp.size == 0:
            return vals[0] * y
        raw = self._raw_primitive(y, bp, vals)
        return raw - self._raw_primitive(np.asarray(0.0), bp, vals)

    def _raw_primitive(self, y, bp, vals):
        k = np.searchsorted(bp, y, side="right")
        anchor = bp[np.maximum(k, 1) - 1]
        base = self._cum[np.maximum(k, 1) - 1]
        return base + vals[k] * (y - anchor)

    def bounds(self) -> tuple[float, float]:
        v = self.fn.values[:, 0]
        return float(np.min(v)), float(np.max(v))


@dataclass(frozen=True)
class PeriodicSquareWave:
    """``hi`` on ``[k*period, k*period + high_len)``, ``lo`` elsewhere.

    A closed-form descriptor rather than a truncated step function, so the
    primitive is exact on all of R and oscillatory data costs nothing.
    """

    period: float
    high_len: float
    hi: float = 1.0
    lo: float = -1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.high_len < self.period):
            raise ValueError("need 0 < high_len < period")

    def value(self, x):
        r = np.mod(np.asarray(x, dtype=float), self.period)
        return np.where(r < self.high_len, self.hi, self.lo)

    def kinks(self, lo: float, hi: float) -> np.ndarray:
        if (hi - lo) / self.period > 1e6:
            raise ValueError("window spans too many periods")
        k0 = np.floor(lo / self.period) - 1.0
        k1 = np.ceil(hi / self.period) + 1.0
        base = np.arange(k0, k1 + 1.0) * self.period
        cand = np.concatenate([base, base + self.high_len])
        return np.sort(cand[(cand >= lo) & (cand <= hi)])

    def primitive(self, y):
        y = np.asarray(y, dtype=float)
        m = np.floor(y / self.period)
        r = y - m * self.period
        per_period = self.hi * self.high_len + self.lo * (self.period - self.high_len)
        partial = self.hi * np.minimum(r, self.high_len) + self.lo * np.maximum(
            r - self.high_len, 0.0
        )
        return m * per_period + partial

    def bounds(self) -> tuple[float, float]:
        return min(self.lo, self.hi), max(self.lo, self.hi)


def sawtooth_datum(n: int) -> PeriodicSquareWave:
    """The dyadic square wave with period ``2^(1-n)``, high half first.

    Under the quadratic flux this datum turns into a sawtooth profile of
    slope ``2^n`` at time ``2^-n``, the configuration that keeps the L1 gap
    between nearby fluxes of order one while the period shrinks.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return PeriodicSquareWave(period=2.0 ** (1 - n), high_len=2.0 ** (-n))


def as_initial_data(data):
    """Wrap step functions; pass through any piecewise-constant descriptor.

    A descriptor provides ``value``, the exact ``primitive``, ``kinks(lo,
    hi)`` listing every jump in ``[lo, hi]`` in increasing order, and
    ``bounds``; the datum must be constant between consecutive kinks.
    """
    if isinstance(data, PiecewiseConstantFn):
        return StepData(data)
    if all(hasattr(data, a) for a in ("value", "primitive", "kinks", "bounds")):
        return data
    raise TypeError(f"cannot use {type(data).__name__} as initial data")


# -- the variational evaluator ------------------------------------------------

@dataclass(frozen=True)
class LaxOleinikProblem:
    """Flux plus datum, validated for the variational formula."""

    flux: ScalarFlux
    data: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", as_initial_data(self.data))
        if self.flux.kappa <= 0.0:
            raise ValueError("variational evaluation needs kappa > 0")
        lo, hi = self.data.bounds()
        if lo < self.flux.K[0] - 1e-12 or hi > self.flux.K[1] + 1e-12:
            raise ValueError(f"datum range [{lo}, {hi}] outside K={self.flux.K}")


_trapz = getattr(np, "trapezoid", None) or np.trapz


def _ranges(first, count):
    """Flatten the index ranges ``first[k] + (0 .. count[k] - 1)``: the
    owner ``k`` and the index of every entry, and where each range starts
    in the flat order."""
    starts = np.cumsum(count) - count
    owner = np.repeat(np.arange(first.size), count)
    return owner, np.repeat(first - starts, count) + np.arange(owner.size), \
        starts


def _leftmost_least(g, size, heads, group):
    """The winner of each group of candidates for ``min G``.

    The candidates of a group are contiguous, in feet order, from
    ``heads[k]``; ``group`` names each one's group and ``size`` bounds
    the terms its ``G`` was summed from.  The winner is the leftmost
    candidate whose ``G`` exceeds the group's least by at most ``1e-12``
    times the group's largest ``size``: on a tie the left foot wins, so
    shocks read their left limits, and the tolerance follows rounding at
    any scale.
    """
    g_min = np.minimum.reduceat(g, heads)[group]
    tol = 1e-12 * np.maximum.reduceat(size, heads)[group]
    tie = g <= g_min + tol
    return np.minimum.reduceat(np.where(tie, np.arange(g.size), g.size), heads)


def lax_oleinik_eval_many(problem: LaxOleinikProblem, t: float,
                          xs) -> np.ndarray:
    """Vectorized evaluation at many points for one time ``t > 0``."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        return np.empty(0)
    flux, data = problem.flux, problem.data
    reach = flux.lambda_hat * t
    lo, hi = float(np.min(xs)) - reach, float(np.max(xs)) + reach
    z = data.kinks(lo, hi)
    # cell j spans [edges[j], edges[j + 1]]; the end cells are cut at the
    # outermost window edges so every value is read where some x looks
    edges = np.concatenate([[lo], z, [hi]])
    vals = data.value(0.5 * (edges[:-1] + edges[1:]))
    # the cells meeting [x - reach, x + reach], flattened over all x
    first = np.searchsorted(z, xs - reach, side="left")
    count = np.searchsorted(z, xs + reach, side="right") - first + 1
    owner, cell, starts = _ranges(first, count)
    x = xs[owner]
    # G is convex on each cell with stationary point x - t f'(v); a foot
    # inside its cell keeps the slope f'(v) exactly
    slope = flux.df(vals[cell])
    y_free = x - t * slope
    y = np.clip(y_free, edges[cell], edges[cell + 1])
    s = np.where(y == y_free, slope, (x - y) / t)
    u = flux.inverse_deriv(s)
    prim, lift = data.primitive(y), t * (s * u - flux.f(u))
    return u[_leftmost_least(prim + lift, np.abs(prim) + np.abs(lift),
                             starts, owner)]


def lax_oleinik_eval(problem: LaxOleinikProblem, t: float, x: float) -> float:
    """Entropy solution value at ``(t, x)``; left limit on shocks."""
    return float(lax_oleinik_eval_many(problem, t, np.asarray([x]))[0])


def _quadratic_profile(problem: LaxOleinikProblem, t: float, lo: float,
                       hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact solution on ``[lo, hi]`` for ``f = alpha u^2/2 + eps u + c``.

    Returns cuts ``lo = x_0 < ... < x_m = hi`` and coefficients with
    ``u = c0[k] + c1[k] x`` on ``(x_k, x_{k+1}]``, so the piece left of a
    cut gives the left limit there.  The candidates for ``min G``:

    * each cell of value ``v`` through a point ``r``: its interior foot,
      ``G = P(r) - v r + v x - t (f(v) - c)`` and ``u = v``, valid on
      ``[z_l + t f'(v), z_r + t f'(v)]``;
    * each kink ``z`` rising from ``v_l`` to ``v_r``: its clipped foot,
      ``G = P(z) + (x - z - eps t)^2 / (2 alpha t)`` and the fan ``u = (x - z
      - eps t) / (alpha t)``, valid on ``[z + t f'(v_l), z + t f'(v_r)]``.

    The minimising foot is always a candidate valid at ``x``, and every
    candidate is ``G`` at some foot, so the least valid candidate wins.
    Cutting at every validity end and at every tie of two overlapping
    candidates leaves pieces with one winner each, the least ``G`` at the
    piece's midpoint.
    """
    flux, data = problem.flux, problem.data
    if flux.degree != 2:
        raise ValueError("the exact profile needs a quadratic flux")
    eps, alpha = flux.coeffs[1], 2.0 * flux.coeffs[2]
    reach = flux.lambda_hat * t
    z = data.kinks(lo - reach, hi + reach)
    edges = np.concatenate([[lo - reach], z, [hi + reach]])
    ref = 0.5 * (edges[:-1] + edges[1:])
    v = data.value(ref)
    # a fan's validity ends are, bit for bit, its neighbour cells' ends
    drift = t * flux.df(v)
    cell_lo = np.concatenate([[-np.inf], z]) + drift
    cell_hi = np.concatenate([z, [np.inf]]) + drift
    rise = np.flatnonzero(v[:-1] < v[1:])
    # every candidate as G = base + slope x + c1 (x - w)^2 / 2
    start = np.clip(np.concatenate([cell_lo, cell_hi[rise]]), lo, hi)
    end = np.clip(np.concatenate([cell_hi, cell_lo[rise + 1]]), lo, hi)
    prim, v_ref = data.primitive(ref), v * ref
    lift = t * (eps + 0.5 * alpha * v) * v
    fan_base = data.primitive(z[rise])
    base = np.concatenate([prim - v_ref - lift, fan_base])
    # the size of the terms base was summed from, for the tie rule
    mag = np.concatenate([np.abs(prim) + np.abs(v_ref) + np.abs(lift),
                          np.abs(fan_base)])
    slope = np.concatenate([v, np.zeros(rise.size)])
    c1 = np.concatenate([np.zeros(v.size),
                         np.full(rise.size, 1.0 / (alpha * t))])
    w = np.concatenate([np.zeros(v.size), z[rise] + eps * t])
    foot = np.concatenate([2 * np.arange(v.size), 2 * rise + 1])  # feet order
    order = np.flatnonzero(start < end)
    order = order[np.argsort(start[order], kind="stable")]
    start, end, base, mag, slope, c1, w, foot = (
        a[order] for a in (start, end, base, mag, slope, c1, w, foot))

    def g_at(k, x):
        return base[k] + slope[k] * x + 0.5 * c1[k] * (x - w[k]) ** 2

    def u_at(k, x):
        return slope[k] + c1[k] * (x - w[k])

    # tie roots of each overlapping pair in d = x - m, m the overlap's start
    later = np.arange(1, start.size + 1)
    i, j, _ = _ranges(later, np.searchsorted(start, end, side="left") - later)
    m, e = start[j], np.minimum(end[i], end[j])
    qa = 0.5 * (c1[i] - c1[j])
    qb = u_at(i, m) - u_at(j, m)
    qc = g_at(i, m) - g_at(j, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        roots = m + np.stack([np.where(qa == 0.0, -qc / qb, q / qa), qc / q])
    roots = roots[(roots > m) & (roots < e)]
    cuts = np.unique(np.concatenate([[lo, hi], start, end, roots]))
    # each piece's winner: the least G among candidates valid at its
    # midpoint, by the evaluator's tie rule, so a piece that rounding
    # leaves beside a shock reads the shock's left state
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    first = np.searchsorted(mid, start, side="left")
    cand, piece, _ = _ranges(first,
                             np.searchsorted(mid, end, side="right") - first)
    rank = np.lexsort((foot[cand], piece))
    cand, piece = cand[rank], piece[rank]
    x = mid[piece]
    # G's terms at x: base's, u x (a line's slope term, and what rounding
    # x - w costs a fan's parabola) and the parabola
    size = mag[cand] + np.abs(u_at(cand, x) * x) \
        + 0.5 * c1[cand] * (x - w[cand]) ** 2
    heads = np.searchsorted(piece, np.arange(mid.size))
    win = cand[_leftmost_least(g_at(cand, x), size, heads, piece)]
    return cuts, slope[win] - c1[win] * w[win], c1[win]


# -- the oscillating-data gap --------------------------------------------------

@dataclass(frozen=True)
class RexpResult:
    n: int
    t: float
    l1_distance: float


def rexp_counterexample(n: int, tilt: float = -1.0) -> RexpResult:
    """L1 gap on [0, 1] between the quadratic flux and its tilt at t = 2^-n.

    Both equations start from :func:`sawtooth_datum`.  The tilted flux
    ``f(u) + tilt*u`` generates the sheared solution ``v(t, x) =
    u(t, x - tilt*t)``, and both are periodic with the datum's period
    ``p``, so the gap is ``1/p`` times the integral of ``|u(x) - u(x -
    shift)|`` over one period, with ``shift = tilt*t mod p``.  The
    integral is exact: the solution is piecewise linear in ``x``
    (:func:`_quadratic_profile`), so the difference is linear between the
    merged cuts and its modulus integrates by trapezoids, a piece that
    changes sign cut at its crossing.  With the default ``tilt=-1`` the
    gap is 1 for every ``n`` even though the derivative gap between the
    fluxes is only 1 and the datum oscillates faster and faster: L1 flux
    stability cannot be uniform over unbounded-variation data.  For
    ``|tilt| <= 2`` the gap is ``|tilt| (2 - |tilt|)``; ``tilt=0`` compares
    the flux with itself and returns 0.
    """
    if not math.isfinite(tilt):
        raise ValueError(f"tilt must be finite, got {tilt!r}")
    if n > 1022:  # the fans' slope 2^n must stay a finite float
        raise ValueError(f"n must be at most 1022, got {n}")
    t = 2.0 ** (-n)
    p = 2.0 ** (1 - n)
    shift = (tilt * t) % p
    problem = LaxOleinikProblem(burgers((-1.0, 1.0)), sawtooth_datum(n))
    cuts, c0, c1 = _quadratic_profile(problem, t, -p, p)
    # d = u(x) - u(x - shift) is linear between the merged cuts in [0, p]
    xs = np.unique(np.concatenate([cuts, cuts + shift]).clip(0.0, p))
    mid = 0.5 * (xs[:-1] + xs[1:])
    k = np.searchsorted(cuts, mid) - 1
    j = np.searchsorted(cuts + shift, mid) - 1
    a = c0[k] - c0[j] + c1[j] * shift
    b = c1[k] - c1[j]
    d0, d1 = a + b * xs[:-1], a + b * xs[1:]
    width = np.diff(xs)
    area = 0.5 * width * (np.abs(d0) + np.abs(d1))
    cross = d0 * d1 < 0.0  # cut at the root: two triangles
    area[cross] = 0.5 * width[cross] * (d0[cross] ** 2 + d1[cross] ** 2) \
        / (np.abs(d0[cross]) + np.abs(d1[cross]))
    return RexpResult(n=n, t=t, l1_distance=math.fsum(area) / p)


# -- datum modification across shocks -----------------------------------------

@dataclass(frozen=True)
class ShockChars:
    """Extreme backward characteristics of one shock at the reference time.

    ``xi_minus < xi_plus`` are the feet at time zero; ``u_minus`` and
    ``u_plus`` the states carried along them (the shock's one-sided limits).
    """

    xi_minus: float
    xi_plus: float
    u_minus: float
    u_plus: float


def modified_datum(problem: LaxOleinikProblem, t: float,
                   shocks: Sequence[ShockChars]) -> PiecewiseConstantFn:
    """Replace the datum inside each characteristic triangle by two constants.

    Between the feet ``[xi_minus, xi_plus]`` of each shock the datum becomes
    ``u_minus`` up to the splitting point ``Xi`` and ``u_plus`` after it,
    with ``Xi`` fixed by conservation of mass over the triangle base:

        Xi = (int_{xi-}^{xi+} u0) / (u- - u+) + (u- xi- - u+ xi+) / (u- - u+)

    The construction collects all interactions feeding a shock into time
    zero; the modified datum evolves to the same profile at time ``t`` and
    its variation on the base is exactly ``|u- - u+|``.  With an empty
    shock list the datum is returned unchanged.
    """
    data = problem.data
    if not isinstance(data, StepData):
        raise TypeError("modified_datum needs step-function data")
    fn = data.fn
    if t <= 0.0:
        raise ValueError("t must be positive")
    shocks = sorted(shocks, key=lambda s: s.xi_minus)
    prev_end = -np.inf
    cut_pts: list[float] = []
    pieces: list[tuple[float, float, float, float, float]] = []
    for s in shocks:
        if not (s.xi_minus <= s.xi_plus):
            raise ValueError("need xi_minus <= xi_plus")
        if s.xi_minus < prev_end:
            raise ValueError("shock triangles must not overlap")
        prev_end = s.xi_plus
        if s.xi_plus - s.xi_minus == 0.0:
            continue
        denom = s.u_minus - s.u_plus
        if denom == 0.0:
            raise ValueError("shock must carry distinct one-sided states")
        mass = float(fn.integral((s.xi_minus, s.xi_plus))[0])
        xi_split = mass / denom + (s.u_minus * s.xi_minus - s.u_plus * s.xi_plus) / denom
        tol = 1e-9 * (1.0 + abs(s.xi_plus - s.xi_minus))
        if not (s.xi_minus - tol <= xi_split <= s.xi_plus + tol):
            raise ValueError(
                f"conservation split {xi_split} outside [{s.xi_minus}, {s.xi_plus}]"
            )
        xi_split = float(np.clip(xi_split, s.xi_minus, s.xi_plus))
        cut_pts.extend((s.xi_minus, xi_split, s.xi_plus))
        pieces.append((s.xi_minus, xi_split, s.xi_plus, s.u_minus, s.u_plus))

    if not pieces:
        return fn

    def target(x: float) -> float:
        for lo, split, hi, u_minus, u_plus in pieces:
            if lo < x <= split:
                return u_minus
            if split < x <= hi:
                return u_plus
        return float(fn(x))

    bps = np.unique(np.concatenate([fn.breakpoints, np.asarray(cut_pts)]))
    probes = np.concatenate([[bps[0] - 1.0],
                             0.5 * (bps[:-1] + bps[1:]),
                             [bps[-1] + 1.0]])
    vals = np.array([target(float(x)) for x in probes])
    return PiecewiseConstantFn(bps, vals).simplified()


# -- bound checks --------------------------------------------------------------

@dataclass(frozen=True)
class TvBoundReport:
    tv: float
    bound: float
    holds: bool
    window: tuple[float, float]
    n_grid: int
    converged: bool

    def line(self) -> str:
        budget = "" if self.converged else ", budget reached"
        return verdict_line("oleinik-tv", self.holds,
                            f"tv={self.tv!r} <= bound={self.bound!r} "
                            f"on window {self.window}{budget}")


def _dyadic_refinement(sample, lo: float, hi: float, measure,
                       rtol: float, n_max: int) -> tuple[float, int, bool]:
    """A grid functional of ``sample`` on nested dyadic grids of ``[lo, hi]``.

    Starts at 2^10 panels and doubles, sampling only the new midpoints,
    until ``measure(vals, xs)`` changes by at most ``rtol`` relative or
    the grid reaches ``n_max`` panels; returns the last value, the panels
    and whether the last doubling met ``rtol``.
    """
    n = 2 ** 10
    xs = np.linspace(lo, hi, n + 1)
    vals = sample(xs)
    value = measure(vals, xs)
    done = False
    while n < n_max:
        merged = np.empty(2 * n + 1)
        merged[0::2] = vals
        merged[1::2] = sample(0.5 * (xs[:-1] + xs[1:]))
        xs = np.linspace(lo, hi, 2 * n + 1)
        vals = merged
        n *= 2
        new = measure(vals, xs)
        done = abs(new - value) <= rtol * max(abs(new), 1e-12)
        value = new
        if done:
            break
    return value, n, done


def oleinik_tv_bound_check(problem: LaxOleinikProblem, t: float,
                           a: float, b: float) -> TvBoundReport:
    """Grid total variation of the solution against the decay bound.

    The solution is sampled on dyadic grids over the enlarged window
    ``[a - 2 lambda_hat t, b + 2 lambda_hat t]``; grid TV sums increase
    under refinement and converge to the true TV, so refinement stops once
    the gain drops to 1e-3 relative, or at 2^14 panels (``converged``
    says which).  The bound is
    ``2 diam(K) (b - a + 4 lambda_hat t) / (kappa t)``.
    """
    flux = problem.flux
    if flux.kappa <= 0.0 or not a < b:
        raise ValueError("bound needs kappa > 0 and a < b")
    lam = flux.lambda_hat
    lo, hi = a - 2.0 * lam * t, b + 2.0 * lam * t
    tv, n, converged = _dyadic_refinement(
        lambda x: lax_oleinik_eval_many(problem, t, x), lo, hi,
        lambda vals, xs: float(np.sum(np.abs(np.diff(vals)))), 1e-3, 2 ** 14)
    bound = 2.0 * flux.diam_K * (b - a + 4.0 * lam * t) / (flux.kappa * t)
    holds = tv <= bound * (1.0 + 1e-9) + 1e-9
    return TvBoundReport(tv=tv, bound=bound, holds=holds,
                         window=(lo, hi), n_grid=n, converged=converged)


@dataclass(frozen=True)
class LinftyBoundReport:
    lhs: float
    rhs: float
    deriv_gap: float
    holds: bool
    n_grid: int
    converged: bool

    def line(self) -> str:
        budget = "" if self.converged else ", budget reached"
        return verdict_line("linfty", self.holds,
                            f"lhs={self.lhs!r} <= rhs={self.rhs!r} (max deriv "
                            f"gap {self.deriv_gap!r}, {self.n_grid} panels"
                            f"{budget})")


def linfty_bound_check(flux_f: ScalarFlux, flux_g: ScalarFlux, data,
                       t: float, a: float, b: float) -> LinftyBoundReport:
    """Windowed L1 gap between two evolutions against the a-priori bound.

    lhs integrates ``|u - w|`` over ``[a, b]`` by the trapezoid rule on
    nested dyadic grids, to 1e-6 relative or 2^15 panels (``converged``
    says which); rhs is the
    literal product

        2 diam(K) t ((b - a + 4 lambda_hat t) / (kappa t)) max_K |f' - g'|

    with ``kappa = min(kappa_f, kappa_g)`` and ``lambda_hat`` covering both
    fluxes.  (The factor ``t`` cancels against ``kappa t``; the product is
    evaluated as printed to keep the correspondence obvious.)  The
    derivative gap is :func:`~fluxstab.metrics.deriv_gap_sup`.
    """
    kappa = min(flux_f.kappa, flux_g.kappa)
    if kappa <= 0.0 or not a < b:
        raise ValueError("bound needs uniformly convex fluxes and a < b")
    deriv_gap = deriv_gap_sup(flux_f, flux_g)
    lam = max(flux_f.lambda_hat, flux_g.lambda_hat)
    pf = LaxOleinikProblem(flux_f, data)
    pg = LaxOleinikProblem(flux_g, data)

    def gap_at(x):
        return np.abs(lax_oleinik_eval_many(pf, t, x)
                      - lax_oleinik_eval_many(pg, t, x))

    lhs, n, converged = _dyadic_refinement(
        gap_at, a, b, lambda vals, xs: float(_trapz(vals, xs)), 1e-6, 2 ** 15)
    diam = flux_f.K[1] - flux_f.K[0]
    rhs = 2.0 * diam * t * ((b - a + 4.0 * lam * t) / (kappa * t)) * deriv_gap
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return LinftyBoundReport(lhs=lhs, rhs=rhs, deriv_gap=deriv_gap,
                             holds=holds, n_grid=n, converged=converged)


@dataclass(frozen=True)
class OslReport:
    violations: int
    max_excess: float
    n_pairs: int
    slack: float

    @property
    def holds(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        return verdict_line("osl", self.holds,
                            f"{self.violations} violations in {self.n_pairs} "
                            f"pairs (max excess {self.max_excess!r}, "
                            f"slack {self.slack!r})")


def one_sided_lipschitz_check(problem: LaxOleinikProblem, t: float,
                              a: float, b: float, n_pairs: int = 10 ** 4,
                              seed: int = 0) -> OslReport:
    """Sampled check of ``u(x2) - u(x1) <= (x2 - x1) / (kappa t)``.

    The slack ``1e-6 (1 + 1 / (kappa t))`` absorbs rounding in the
    evaluated values; any violation beyond it is reported.
    """
    flux = problem.flux
    if flux.kappa <= 0.0:
        raise ValueError("check needs kappa > 0")
    if n_pairs < 1 or not a < b:
        raise ValueError("check needs n_pairs >= 1 and a < b")
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(a, b, n_pairs)
    x2 = np.minimum(x1 + rng.uniform(0.0, 0.25 * (b - a), n_pairs), b)
    keep = x2 > x1
    x1, x2 = x1[keep], x2[keep]
    vals = lax_oleinik_eval_many(problem, t, np.concatenate([x1, x2]))
    u1, u2 = vals[:x1.size], vals[x1.size:]
    slack = 1e-6 * (1.0 + 1.0 / (flux.kappa * t))
    excess = (u2 - u1) - (x2 - x1) / (flux.kappa * t)
    return OslReport(
        violations=int(np.sum(excess > slack)),
        max_excess=float(np.max(excess)) if excess.size else 0.0,
        n_pairs=int(x1.size),
        slack=slack,
    )
