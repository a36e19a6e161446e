"""Quantitative stability checks connecting the solvers.

Each check packages one inequality: its two sides evaluated by the exact
machinery elsewhere in the package, the tolerance policy, and a boolean.
The reports are plain frozen dataclasses so the command line and the test
suite consume the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .front_tracking import ft_evolve, evolution_window
from .fluxes import (_rows_at, burgers, convex_poly, eval_rows, linear_flux,
                     pl_sample, refine, roots_in_cells, scaled_burgers,
                     slope_gap, slope_pieces, tilted_burgers)
from .pwfun import PiecewiseConstantFn, l1_distance
from .riemann import FluxDistanceReport, RiemannSampler, hat_d_estimate

__all__ = [
    "deriv_gap_sup",
    "TmainReport",
    "check_tmain",
    "PgeneralReport",
    "check_pgeneral",
    "sup_location",
    "LerrestReport",
    "lerrest_diagnostic",
    "bundled_pairs",
    "StabilityReport",
    "stability_suite",
]


def _slopes_at(flux, xs: np.ndarray) -> np.ndarray:
    """Derivative values at points that avoid kinks of piecewise fluxes."""
    return eval_rows(_rows_at(*slope_pieces(flux), xs), xs)


def deriv_gap_sup(flux_f, flux_g) -> float:
    """``max_K |f' - g'|``, the scalar flux distance in closed form.

    ``f' - g'`` is a polynomial on each cell between the ends of ``K`` and
    the node tables of both fluxes (a node table's ``f'`` is constant
    there), so its extremes sit at the cell ends, taken from within the
    cell, or at roots of ``f'' - g''`` inside it.  All of them are
    inspected, so the value is exact.
    """
    if abs(flux_f.K[0] - flux_g.K[0]) > 1e-12 or abs(flux_f.K[1] - flux_g.K[1]) > 1e-12:
        raise ValueError("fluxes must share K")
    pf, pg = slope_pieces(flux_f), slope_pieces(flux_g)
    x, gap = slope_gap(pf, pg)
    curvature_gap = gap[:, 1:] * np.arange(1, gap.shape[1])
    x, gap = refine(x, gap, roots_in_cells(x, curvature_gap))
    ends = eval_rows(gap, np.stack([x[:-1], x[1:]]))
    return float(np.max(np.abs(ends)))


# -- the semigroup distance bound ----------------------------------------------

@dataclass(frozen=True)
class TmainReport:
    lhs: float
    rhs: float
    hat_d: float
    tv_time_integral: float
    lipschitz: float
    holds: bool

    def line(self) -> str:
        verdict = "PASS" if self.holds else "FAIL"
        return (f"[{verdict}] tmain: lhs={self.lhs!r} <= rhs={self.rhs!r} "
                f"(hat_d={self.hat_d!r}, tv_integral={self.tv_time_integral!r})")


def check_tmain(flux_f, flux_g, u0: PiecewiseConstantFn, T: float,
                hat_d_value: float | None = None) -> TmainReport:
    """Distance of the two evolutions against the flux-distance bound.

        || S^f_T u0 - S^g_T u0 ||_L1  <=  L_f * hat_d * int_0^T TV(S^g_t u0) dt

    Both sides are exact: the evolutions are front-tracked (piecewise-linear
    or linear fluxes), the variation of the second evolution is piecewise
    constant in time so its integral is a finite sum, and ``hat_d`` defaults
    to ``max_K |f' - g'|``, which is the scalar flux distance.  The scalar
    semigroup is an L1 contraction, so ``L_f`` is 1.  The slack accepts
    rounding only; the inequality itself must do the work.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    state_f = ft_evolve(flux_f, u0, T)
    state_g = ft_evolve(flux_g, u0, T)
    lam = max(flux_f.lambda_hat, flux_g.lambda_hat)
    window = evolution_window(u0, lam, T)
    lhs = l1_distance(state_f.profile, state_g.profile, window)
    hat_d = deriv_gap_sup(flux_f, flux_g) if hat_d_value is None else hat_d_value
    tv_int = state_g.tv_time_integral()
    lipschitz = 1.0
    rhs = lipschitz * hat_d * tv_int
    return TmainReport(lhs=lhs, rhs=rhs, hat_d=hat_d, tv_time_integral=tv_int,
                       lipschitz=lipschitz, holds=_tmain_holds(lhs, rhs))


def _tmain_holds(lhs: float, rhs: float) -> bool:
    """The semigroup bound up to rounding slack."""
    return lhs <= rhs + 1e-9 + 1e-6 * rhs


# -- realizability of the sampled distance -------------------------------------

@dataclass(frozen=True)
class PgeneralReport:
    estimate: float
    deriv_sup: float
    ratio: float
    holds: bool
    arg_left: float
    arg_right: float
    location: str

    def line(self) -> str:
        verdict = "PASS" if self.holds else "FAIL"
        return (f"[{verdict}] pgeneral: sampled hat_d={self.estimate!r} vs "
                f"max|f'-g'|={self.deriv_sup!r} (ratio={self.ratio:.6f}, "
                f"sup at {self.location})")


def check_pgeneral(flux_f, flux_g, sampler: RiemannSampler | None = None,
                   threshold: float = 0.95) -> PgeneralReport:
    """Sampled jump data must realize the closed-form flux distance.

    The sampled supremum over single jumps is a certified lower bound for
    the flux distance; the closed form says the distance equals
    ``max_K |f' - g'|``.  The check passes when the samples recover at
    least ``threshold`` of that value, i.e. the supremum is attained (in
    the limit) by actual jump data, with near-diagonal jumps covering the
    case where only infinitesimal jumps get close.
    """
    report = hat_d_estimate(flux_f, flux_g, sampler)
    deriv_sup = deriv_gap_sup(flux_f, flux_g)
    ratio = report.estimate / deriv_sup if deriv_sup > 0.0 else 1.0
    holds = report.estimate >= threshold * deriv_sup - 1e-12
    return PgeneralReport(
        estimate=report.estimate,
        deriv_sup=deriv_sup,
        ratio=ratio,
        holds=holds,
        arg_left=report.arg_left,
        arg_right=report.arg_right,
        location=sup_location(report, flux_f.K),
    )


def sup_location(report: FluxDistanceReport, K: tuple[float, float]) -> str:
    """Whether the best sampled pair spans at most 1 percent of ``K``."""
    gap = abs(report.arg_right - report.arg_left)
    return "near-diagonal" if gap <= 1e-2 * (K[1] - K[0]) else "large-jump"


# -- a-posteriori error functional ----------------------------------------------

@dataclass(frozen=True)
class LerrestReport:
    lhs: float
    rhs: float
    n_steps: int
    holds: bool

    def line(self) -> str:
        verdict = "PASS" if self.holds else "FAIL"
        return f"[{verdict}] lerrest: lhs={self.lhs!r} <= 1.1 * {self.rhs!r}"


def lerrest_diagnostic(flux, w: Callable[[float], PiecewiseConstantFn],
                       T: float, n_steps: int = 256) -> LerrestReport:
    """Global distance to the flux's own evolution against one-step defects.

        d(w(T), S^f_T w(0))  <=  1.1 * sum_k || S^f_h w(kh) - w((k+1)h) ||_L1

    with ``h = T / n_steps``.  The factor on the right absorbs nothing in
    exact arithmetic (the semigroup is a contraction, so the telescoping
    sum dominates the left side with factor 1); 1.1 covers the tolerance
    of the window clipping.  ``w`` maps a time to a step profile.
    """
    if T <= 0.0:
        raise ValueError("T must be positive")
    h = T / n_steps
    profiles = [w(k * h) for k in range(n_steps + 1)]
    lo = min(p.support[0] for p in profiles if p.support)
    hi = max(p.support[1] for p in profiles if p.support)
    lam = flux.lambda_hat
    window = (lo - lam * T - 1.0, hi + lam * T + 1.0)
    rhs = 0.0
    for k in range(n_steps):
        stepped = ft_evolve(flux, profiles[k], h).profile
        rhs += l1_distance(stepped, profiles[k + 1], window)
    exact = ft_evolve(flux, profiles[0], T).profile
    lhs = l1_distance(profiles[-1], exact, window)
    holds = lhs <= 1.1 * rhs + 1e-12
    return LerrestReport(lhs=lhs, rhs=rhs, n_steps=n_steps, holds=holds)


# -- the convex pairs shipped with the package ----------------------------------

def bundled_pairs(K: tuple[float, float] = (-1.0, 1.0),
                  segments: int | None = None) -> list[dict]:
    """Named flux pairs used by the stock experiments.

    Five uniformly convex pairs and one linear pair.  With ``segments``
    the convex members are replaced by piecewise-linear samples on the
    shared uniform node grid, which is what the front-tracking checks
    need; the linear pair is tracked exactly as is.
    """
    pairs = [
        ("tilt-quarter", burgers(K), tilted_burgers(0.25, K)),
        ("scale-150", burgers(K), scaled_burgers(1.5, K)),
        ("quartic-vs-quadratic", convex_poly(0.5, 0.0, 0.25, K), burgers(K)),
        ("tilt-vs-scale", tilted_burgers(0.1, K), scaled_burgers(0.9, K)),
        ("cubic-shear", convex_poly(0.5, 0.1, 0.0, K), tilted_burgers(-0.15, K)),
        ("linear-pair", linear_flux(0.3, K), linear_flux(-0.2, K)),
    ]
    out = []
    for name, f, g in pairs:
        if segments is not None and name != "linear-pair":
            f = pl_sample(f, segments)
            g = pl_sample(g, segments)
        out.append({"name": name, "f": f, "g": g})
    return out


# -- bundled suite with serializable per-pair reports ----------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Everything measured for one flux pair, in one serializable record.

    ``semigroup_gaps`` holds one ``(datum_id, T, l1_gap, tv_integral)``
    entry per initial datum.  The flags restate the stored numbers:
    ``pgeneral_holds`` iff the sampled distance reaches 95 percent of the
    derivative gap, ``tmain_holds`` iff every semigroup gap is at most
    ``c0_derivative_gap * tv_integral`` up to rounding slack.
    """
    pair: str
    hat_d_estimate: float
    sup_hatd_lin: float
    c0_derivative_gap: float
    semigroup_gaps: tuple[tuple[str, float, float, float], ...]
    pgeneral_holds: bool
    tmain_holds: bool

    COLUMNS = ("pair", "hat_d_estimate", "sup_hatd_lin", "c0_derivative_gap",
               "datum", "T", "l1_gap", "tv_integral",
               "pgeneral_holds", "tmain_holds")

    def rows(self) -> list[list]:
        out = []
        for datum, T, gap, tv in self.semigroup_gaps:
            out.append([self.pair, self.hat_d_estimate, self.sup_hatd_lin,
                        self.c0_derivative_gap, datum, T, gap, tv,
                        self.pgeneral_holds, self.tmain_holds])
        return out

    @staticmethod
    def from_rows(rows: list[list]) -> list["StabilityReport"]:
        """Inverse of concatenated ``rows()`` output, order preserving."""
        grouped: dict[str, list[list]] = {}
        order: list[str] = []
        for row in rows:
            key = str(row[0])
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(row)
        reports = []
        for key in order:
            block = grouped[key]
            first = block[0]
            gaps = tuple((str(r[4]), float(r[5]), float(r[6]), float(r[7]))
                         for r in block)
            reports.append(StabilityReport(
                pair=key,
                hat_d_estimate=float(first[1]),
                sup_hatd_lin=float(first[2]),
                c0_derivative_gap=float(first[3]),
                semigroup_gaps=gaps,
                pgeneral_holds=bool(first[8]),
                tmain_holds=bool(first[9]),
            ))
        return reports

    def summary(self) -> str:
        lines = [
            f"pair {self.pair}",
            f"  sampled hat_d        {self.hat_d_estimate!r}",
            f"  sup hat_d_lin(deriv) {self.sup_hatd_lin!r}",
            f"  max |f' - g'|        {self.c0_derivative_gap!r}",
            f"  jump sampling covers derivative gap: "
            f"{'yes' if self.pgeneral_holds else 'NO'}",
        ]
        for datum, T, gap, tv in self.semigroup_gaps:
            bound = self.c0_derivative_gap * tv
            lines.append(f"  {datum} T={T!r}: gap={gap!r} <= {bound!r} "
                         f"{'ok' if _tmain_holds(gap, bound) else 'VIOLATED'}")
        return "\n".join(lines)


_SUITE_DATA = (
    ("pulse", PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])),
    ("stair", PiecewiseConstantFn.from_steps(
        0.0, [(-0.5, 0.8), (0.0, -0.6), (0.75, 0.0)])),
)


def stability_suite(segments: int = 128, T: float = 1.0,
                    sampler: RiemannSampler | None = None
                    ) -> list[StabilityReport]:
    """Run every bundled pair through all three checks.

    The convex pairs are tracked through their piecewise-linear samples,
    and every recorded number refers to that sampled pair, so the flags
    in the reports are recomputable from the stored values.  Each pair
    gets one :func:`check_pgeneral` and, on a pulse and a staircase datum,
    one :func:`check_tmain` with the derivative gap the former computed.
    ``sup_hatd_lin`` reads ``|f' - g'|`` at 256 cell midpoints of ``K``:
    a 1x1 system's ``hat_d_lin`` is the gap of its two speeds.  The jump
    sampler defaults to a coarser grid than the standalone distance
    estimate; the suite is a cross-check, not the certificate.
    """
    if sampler is None:
        sampler = RiemannSampler(n_grid=32, n_near=32)

    def one(entry: dict) -> StabilityReport:
        f, g = entry["f"], entry["g"]
        pg = check_pgeneral(f, g, sampler)
        grid = np.linspace(f.K[0], f.K[1], 257)
        mids = 0.5 * (grid[:-1] + grid[1:])
        sup_lin = np.max(np.abs(_slopes_at(f, mids) - _slopes_at(g, mids)))
        tm = [(datum_id, check_tmain(f, g, u0, T, pg.deriv_sup))
              for datum_id, u0 in _SUITE_DATA]
        return StabilityReport(
            pair=entry["name"],
            hat_d_estimate=pg.estimate,
            sup_hatd_lin=float(sup_lin),
            c0_derivative_gap=pg.deriv_sup,
            semigroup_gaps=tuple((datum_id, T, rep.lhs, rep.tv_time_integral)
                                 for datum_id, rep in tm),
            pgeneral_holds=pg.holds,
            tmain_holds=all(rep.holds for _, rep in tm),
        )

    return [one(e) for e in bundled_pairs(segments=segments)]
