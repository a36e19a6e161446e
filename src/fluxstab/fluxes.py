"""Scalar flux functions with certified derivative bounds.

Two representations are exact-solver friendly: uniformly convex smooth
fluxes carrying closed-form derivatives, and piecewise-linear fluxes given
by node tables.  Every flux lives on a fixed compact state interval ``K``
and carries two certificates used by the solvers and the error bounds:

* ``kappa``  -- lower bound for ``f''`` on ``K`` (0 when not convex),
* ``lambda_hat`` -- upper bound for ``|f'|`` on ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScalarFlux",
    "PiecewiseLinearFlux",
    "burgers",
    "scaled_burgers",
    "tilted_burgers",
    "linear_flux",
    "convex_poly",
    "from_spline",
    "pl_sample",
    "make_flux",
    "BUILTIN_FLUX_HELP",
]


@dataclass(frozen=True)
class ScalarFlux:
    """Smooth scalar flux on ``K = [k_lo, k_hi]``.

    ``f`` and ``df`` must accept numpy arrays.  ``df_inv`` inverts ``df``
    on ``df(K)`` and unlocks the vectorized solvers; it may be ``None``
    for fluxes only used through piecewise-linear sampling.
    """

    name: str
    f: Callable
    df: Callable
    K: tuple[float, float]
    kappa: float
    lambda_hat: float
    d2f: Callable | None = None
    df_inv: Callable | None = None

    def __post_init__(self) -> None:
        lo, hi = self.K
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("K must be a nondegenerate finite interval")
        if self.kappa < 0.0 or self.lambda_hat < 0.0:
            raise ValueError("certificates must be nonnegative")

    def __call__(self, u):
        return self.f(np.asarray(u, dtype=float))

    @property
    def diam_K(self) -> float:
        return self.K[1] - self.K[0]

    def contains(self, u, tol: float = 1e-12) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.K[0] - tol) and np.all(u <= self.K[1] + tol))

    def inverse_deriv(self, s):
        """Inverse of ``df`` on ``df(K)``, clamped to ``K`` outside."""
        s = np.asarray(s, dtype=float)
        lo, hi = self.K
        s_cl = np.clip(s, self.df(np.asarray(lo)), self.df(np.asarray(hi)))
        if self.df_inv is not None:
            return np.clip(self.df_inv(s_cl), lo, hi)
        if self.kappa <= 0.0:
            raise ValueError(f"flux {self.name!r} has no invertible derivative")
        from scipy.optimize import brentq

        def solve_one(sv: float) -> float:
            return brentq(lambda u: float(self.df(np.asarray(u))) - sv, lo, hi,
                          xtol=1e-14, rtol=8.9e-16)

        return np.vectorize(solve_one)(s_cl)

    def legendre(self, s):
        """Legendre transform ``max_{u in K} (s*u - f(u))``.

        For ``s`` outside ``df(K)`` the maximizer sits at an endpoint of
        ``K``, which matches restricting the state space to ``K``.
        """
        s = np.asarray(s, dtype=float)
        u = self.inverse_deriv(s)
        return s * u - self.f(u)


@dataclass(frozen=True)
class PiecewiseLinearFlux:
    """Flux given by linear interpolation of a node table on ``K``."""

    nodes: np.ndarray
    flux_values: np.ndarray
    name: str = "pl"

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        vals = np.asarray(self.flux_values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if vals.shape != nodes.shape:
            raise ValueError("flux_values must match nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(vals))):
            raise ValueError("nodes and values must be finite")
        nodes.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "flux_values", vals)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < self.nodes[0] - 1e-12) or np.any(u > self.nodes[-1] + 1e-12):
            raise ValueError("state outside the node span of the flux")
        return np.interp(u, self.nodes, self.flux_values)

    @property
    def K(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.flux_values) / np.diff(self.nodes)

    @property
    def lambda_hat(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    @property
    def kappa(self) -> float:
        return 0.0


# -- built-in smooth fluxes ------------------------------------------------

def burgers(K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = u^2 / 2."""
    lam = max(abs(K[0]), abs(K[1]))
    return ScalarFlux(
        name="burgers",
        f=lambda u: 0.5 * u * u,
        df=lambda u: u,
        d2f=lambda u: np.ones_like(u),
        df_inv=lambda s: s,
        K=(float(K[0]), float(K[1])),
        kappa=1.0,
        lambda_hat=lam,
    )


def scaled_burgers(alpha: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = alpha * u^2 / 2 with alpha > 0."""
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("alpha must be positive")
    lam = a * max(abs(K[0]), abs(K[1]))
    return ScalarFlux(
        name=f"scaled_burgers {a!r}",
        f=lambda u: 0.5 * a * u * u,
        df=lambda u: a * u,
        d2f=lambda u: np.full_like(u, a),
        df_inv=lambda s: s / a,
        K=(float(K[0]), float(K[1])),
        kappa=a,
        lambda_hat=lam,
    )


def tilted_burgers(eps: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = u^2 / 2 + eps * u; a sheared frame of the quadratic flux."""
    e = float(eps)
    lam = max(abs(K[0] + e), abs(K[1] + e))
    return ScalarFlux(
        name=f"tilted_burgers {e!r}",
        f=lambda u: 0.5 * u * u + e * u,
        df=lambda u: u + e,
        d2f=lambda u: np.ones_like(u),
        df_inv=lambda s: s - e,
        K=(float(K[0]), float(K[1])),
        kappa=1.0,
        lambda_hat=lam,
    )


def linear_flux(a: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = a * u; transport at constant speed ``a``."""
    a = float(a)
    return ScalarFlux(
        name=f"linear {a!r}",
        f=lambda u: a * u,
        df=lambda u: np.full_like(np.asarray(u, dtype=float), a),
        d2f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        df_inv=None,
        K=(float(K[0]), float(K[1])),
        kappa=0.0,
        lambda_hat=abs(a),
    )


def convex_poly(
    c2: float, c3: float, c4: float, K: tuple[float, float] = (-1.0, 1.0)
) -> ScalarFlux:
    """f(u) = c2 u^2 + c3 u^3 + c4 u^4 with certificates computed exactly.

    ``kappa`` is the exact minimum of ``f''`` on ``K`` when positive
    (else 0), from the vertex/endpoints of the quadratic ``f''``.
    ``lambda_hat`` is the exact maximum of ``|f'|`` on ``K``.
    """
    c2, c3, c4 = float(c2), float(c3), float(c4)
    lo, hi = float(K[0]), float(K[1])

    def f(u):
        return u * u * (c2 + u * (c3 + u * c4))

    def df(u):
        return u * (2.0 * c2 + u * (3.0 * c3 + u * 4.0 * c4))

    def d2f(u):
        return 2.0 * c2 + u * (6.0 * c3 + u * 12.0 * c4)

    # min of f'' over K: endpoints plus interior vertex of the parabola
    cands = [lo, hi]
    if c4 != 0.0:
        vtx = -c3 / (4.0 * c4)
        if lo < vtx < hi:
            cands.append(vtx)
    kap = max(0.0, min(float(d2f(np.asarray(c))) for c in cands))

    # max of |f'| over K: endpoints plus real critical points of f'
    crit = [lo, hi]
    roots = np.roots([12.0 * c4, 6.0 * c3, 2.0 * c2]) if (c4 or c3) else []
    for r in np.atleast_1d(roots):
        if abs(r.imag) < 1e-12 and lo < r.real < hi:
            crit.append(float(r.real))
    lam = max(abs(float(df(np.asarray(c)))) for c in crit)

    df_inv = None
    if kap > 0.0:
        # Newton has converged once every update is within two ulp of K's
        # scale; 80 sweeps are the budget.  Slopes at or beyond f'(lo) or
        # f'(hi) start at that end with a collapsed bracket, since Newton
        # would overshoot the end and leave the root to bisection.
        u_tol = 2.0 * np.spacing(max(abs(lo), abs(hi)))
        s_lo, s_hi = float(df(lo)), float(df(hi))

        def df_inv(s):  # monotone cubic solve, bracketed Newton
            s = np.asarray(s, dtype=float)
            a = np.where(s >= s_hi, hi, lo)
            b = np.where(s <= s_lo, lo, hi)
            u = 0.5 * (a + b)
            for _ in range(80):
                g = df(u) - s
                a = np.where(g < 0.0, u, a)
                b = np.where(g > 0.0, u, b)
                step = g / np.maximum(d2f(u), kap)
                u_new = u - step
                bad = (u_new <= a) | (u_new >= b)
                u_new = np.where(bad, 0.5 * (a + b), u_new)
                done = np.all(np.abs(u_new - u) <= u_tol)
                u = u_new
                if done:
                    break
            return u

    return ScalarFlux(
        name=f"convex_poly {c2!r} {c3!r} {c4!r}",
        f=f, df=df, d2f=d2f, df_inv=df_inv,
        K=(lo, hi), kappa=kap, lambda_hat=lam,
    )


def from_spline(u_nodes, f_values, safety: float = 0.99) -> ScalarFlux:
    """Cubic-spline flux with sampled (not closed-form) certificates.

    Meant for tests that exercise the loose-tolerance path; ``kappa`` and
    ``lambda_hat`` come from a dense sample with a safety factor.
    """
    from scipy.interpolate import CubicSpline

    u_nodes = np.asarray(u_nodes, dtype=float)
    sp = CubicSpline(u_nodes, np.asarray(f_values, dtype=float))
    d1, d2 = sp.derivative(1), sp.derivative(2)
    K = (float(u_nodes[0]), float(u_nodes[-1]))
    grid = np.linspace(K[0], K[1], 4097)
    kap = safety * float(np.min(d2(grid)))
    lam = float(np.max(np.abs(d1(grid)))) / safety
    return ScalarFlux(
        name="spline",
        f=lambda u: sp(u), df=lambda u: d1(u), d2f=lambda u: d2(u),
        df_inv=None, K=K, kappa=max(0.0, kap), lambda_hat=lam,
    )


def pl_sample(flux: ScalarFlux, segments: int) -> PiecewiseLinearFlux:
    """Piecewise-linear interpolant of ``flux`` on a uniform node grid.

    ``segments`` counts the linear pieces; the table has ``segments + 1``
    nodes spanning ``K``.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    nodes = np.linspace(flux.K[0], flux.K[1], segments + 1)
    return PiecewiseLinearFlux(nodes, flux.f(nodes), name=f"pl[{flux.name}]")


# -- name registry for config files / CLI ----------------------------------

BUILTIN_FLUX_HELP = {
    "burgers": "burgers                      f(u) = u^2/2",
    "scaled_burgers": "scaled_burgers ALPHA         f(u) = ALPHA u^2/2,  ALPHA > 0",
    "tilted_burgers": "tilted_burgers EPS           f(u) = u^2/2 + EPS u",
    "linear": "linear A                     f(u) = A u",
    "convex_poly": "convex_poly C2 C3 C4         f(u) = C2 u^2 + C3 u^3 + C4 u^4",
    "pl": "pl X0 F0 X1 F1 [X2 F2 ...]   piecewise-linear node table, X increasing",
}


def make_flux(spec: str, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """Build a built-in flux from a textual spec like ``'tilted_burgers 0.1'``."""
    toks = spec.split()
    if not toks:
        raise ValueError("empty flux spec")
    name, args = toks[0], [float(t) for t in toks[1:]]
    try:
        if name == "burgers" and not args:
            return burgers(K)
        if name == "scaled_burgers" and len(args) == 1:
            return scaled_burgers(args[0], K)
        if name == "tilted_burgers" and len(args) == 1:
            return tilted_burgers(args[0], K)
        if name == "linear" and len(args) == 1:
            return linear_flux(args[0], K)
        if name == "convex_poly" and len(args) == 3:
            return convex_poly(*args, K=K)
        if name == "pl" and len(args) >= 4 and len(args) % 2 == 0:
            # the node table carries its own span; K is ignored here
            return PiecewiseLinearFlux(np.array(args[0::2]),
                                       np.array(args[1::2]))
    except ValueError as exc:
        raise ValueError(f"bad flux spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown flux spec {spec!r}; built-ins:\n  "
        + "\n  ".join(BUILTIN_FLUX_HELP.values())
    )
