"""Scalar flux functions with exact derivative bounds.

Two representations are exact-solver friendly: polynomial fluxes of
degree at most four, given by their power-series coefficients, and
piecewise-linear fluxes given by node tables.  Every flux lives on a
fixed compact state interval ``K`` and carries two certificates used by
the solvers and the error bounds:

* ``kappa``  -- lower bound for ``f''`` on ``K`` (0 when not convex),
* ``lambda_hat`` -- upper bound for ``|f'|`` on ``K``.

For a polynomial both are exact: the extremes of ``f''`` and ``f'`` on
``K`` sit at its endpoints or at roots of the next derivative inside it.

On either kind ``f'`` is a piecewise polynomial of degree at most three,
which ``slope_pieces`` hands to the flux distances: the L1 gap of two
Riemann solutions and ``max |f' - g'|`` both come from the difference of
two such slopes, cut at its roots or at the roots of its derivative.
Every such root, and the inverse of a convex flux's ``f'``, comes from
one closed-form kernel, ``poly_roots``, for polynomials of degree at most
three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScalarFlux",
    "PiecewiseLinearFlux",
    "burgers",
    "scaled_burgers",
    "tilted_burgers",
    "linear_flux",
    "convex_poly",
    "pl_sample",
    "make_flux",
    "BUILTIN_FLUX_HELP",
]

MAX_DEGREE = 4


def horner(c, u):
    """``sum_k c[k] u^k`` by Horner's rule, for a float or an array ``u``.

    Zero coefficients cost nothing, so sparse polynomials such as
    ``u^2 / 2`` take only their own terms.
    """
    if len(c) == 1:
        return 0.0 * u + c[0]
    out = c[-1] * u  # a fresh array when u is one: updated in place
    for ck in c[-2:0:-1]:
        if ck:
            out += ck
        out *= u
    if c[0]:
        out += c[0]
    return out


def eval_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row ``k``'s polynomial at ``u[..., k]``, by Horner's rule."""
    out = 0.0 * u + rows[:, -1]
    for j in range(rows.shape[1] - 2, -1, -1):
        out *= u
        out += rows[:, j]
    return out


def _deriv(c: np.ndarray) -> np.ndarray:
    """Power-series coefficients of the derivative; ``[0]`` for a constant."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)


def _quadratic(b, c) -> tuple[np.ndarray, np.ndarray]:
    """Real parts of the roots of ``u^2 + b u + c``: the root of larger size
    adds terms of one sign and the other is ``c`` over it, so neither
    cancels; a complex pair has real part ``-b/2``."""
    h = -0.5 * b
    d = h * h - c
    big = h + np.copysign(np.sqrt(np.maximum(d, 0.0)), h)
    small = c / np.where(big == 0.0, 1.0, big)  # big = 0 only for u^2
    return np.where(d >= 0.0, big, h), np.where(d >= 0.0, small, h)


def _cubic(c0, c1, c2, c3) -> tuple[np.ndarray, ...]:
    """Real parts of the roots of ``c0 + c1 u + c2 u^2 + c3 u^3``, ``c3 != 0``.

    One real root ``r`` comes from Cardano's formula when the discriminant
    is nonnegative, else from the trigonometric form as the root of largest
    size.  Dividing out ``u - r`` leaves a quadratic; the division runs
    from the constant term when ``r`` is the largest root and from the
    leading term otherwise, the stable order either way, and then ``-c``
    over the product of the other two roots gives ``r`` to full relative
    accuracy, the root 0 of ``c0 = 0`` exactly.
    """
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    shift = a / 3.0  # u = t - shift turns the cubic into t^3 + 3 p t + 2 q
    p = b / 3.0 - shift * shift
    q = 0.5 * ((2.0 * shift * shift - b) * shift + c)
    disc = q * q + p * p * p
    w = np.cbrt(-q - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
    t = w - p / np.where(w == 0.0, 1.0, w)  # w = 0 only when p = q = 0
    if (trig := disc < 0.0).any():
        # three real roots 2 m cos(phi - 2 pi k / 3): k = 0 or 2 is the
        # largest after the shift
        m = np.sqrt(-p[trig])
        phi = np.arccos(np.clip(-q[trig] / (m * m * m), -1.0, 1.0)) / 3.0
        t0, t2 = 2.0 * m * np.cos(phi), 2.0 * m * np.cos(phi + 2.0 * np.pi / 3.0)
        s = shift[trig]
        t[trig] = np.where(np.abs(t0 - s) >= np.abs(t2 - s), t0, t2)
    r = t - shift
    prod = b + r * (a + r)  # of the other two roots, from the leading term
    back = r * r > np.abs(prod)
    d = np.where(back, r, prod)
    d[d == 0.0] = 1.0  # only where r = b = c = 0
    ratio = -c / d
    r = np.where(back, r, ratio)
    prod = np.where(back, ratio, prod)
    return (r, *_quadratic(np.where(back, (prod - b) / d, a + r), prod))


_SOLVERS = {1: lambda c0, c1: [-c0 / c1],
            2: lambda c0, c1, c2: _quadratic(c1 / c2, c0 / c2), 3: _cubic}


def poly_roots(rows) -> np.ndarray:
    """Real parts of the roots of each row ``c0 + c1 u + c2 u^2 + c3 u^3``.

    ``rows`` holds at most four power-series coefficients a row.  Returns
    an ``(n, columns - 1)`` array: all roots of each row, repeated ones
    repeated and complex ones by their real part, then NaN past the row's
    true degree, which its last nonzero coefficient sets.  The rows of one
    true degree go through one closed form together: ``-c0/c1``,
    ``_quadratic`` or ``_cubic``.
    """
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    out = np.full((m - 1, n), np.nan)
    higher = np.zeros(n, dtype=bool)
    for d in range(m - 1, 0, -1):
        top = (rows[:, d] != 0.0) & ~higher
        higher |= top
        if count := np.count_nonzero(top):
            k = slice(None) if count == n else top
            out[:d, k] = _SOLVERS[d](*rows[k, :d + 1].T)
    return out.T


def _extreme_candidates(c, lo: float, hi: float) -> np.ndarray:
    """The ends of ``[lo, hi]`` and the real parts of the roots of the
    derivative of ``c`` inside it: a superset of the points where the
    polynomial ``c`` takes its extremes on the interval."""
    r = poly_roots(_deriv(c)[None])[0]
    return np.concatenate([[lo, hi], r[(r > lo) & (r < hi)]])


@dataclass(frozen=True)
class ScalarFlux:
    """Polynomial flux ``f(u) = sum_k coeffs[k] u^k`` on ``K = [k_lo, k_hi]``.

    The degree is at most four, so ``f'`` is at most cubic.  Trailing zero
    coefficients are dropped, so ``len(coeffs) - 1`` is the degree.
    """

    name: str
    coeffs: tuple
    K: tuple[float, float]
    kappa: float = field(init=False)
    lambda_hat: float = field(init=False)
    slope_coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    _d2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = float(self.K[0]), float(self.K[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("K must be a nondegenerate finite interval")
        c = [float(v) for v in self.coeffs] or [0.0]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not all(map(math.isfinite, c)):
            raise ValueError("coefficients must be finite")
        if len(c) - 1 > MAX_DEGREE:
            raise ValueError(f"degree must be at most {MAX_DEGREE}")
        c = np.array(c)
        d1 = _deriv(c)
        d2 = _deriv(d1)
        kap = float(np.min(horner(d2, _extreme_candidates(d2, lo, hi))))
        lam = float(np.max(np.abs(horner(d1, _extreme_candidates(d1, lo, hi)))))
        for name, value in [("K", (lo, hi)),
                            ("coeffs", tuple(float(v) for v in c)),
                            ("kappa", max(0.0, kap)), ("lambda_hat", lam),
                            ("slope_coeffs", d1), ("_d2", d2)]:
            object.__setattr__(self, name, value)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def f(self, u):
        return horner(self.coeffs, u)

    def df(self, u):
        return horner(self.slope_coeffs, u)

    def d2f(self, u):
        return horner(self._d2, u)

    def __call__(self, u):
        return self.f(np.asarray(u, dtype=float))

    @property
    def diam_K(self) -> float:
        return self.K[1] - self.K[0]

    def inverse_deriv(self, s):
        """Inverse of ``df`` on ``df(K)``, clamped to ``K`` outside.

        For ``s`` in ``df(K)``, ``f'(u) = s`` has exactly one root in
        ``K``, where ``f'`` increases.  It is the root from ``poly_roots``,
        clipped to ``K``, with the least residual ``f'(u) - s``, moved by
        ``-(f'(u) - s) / f''(u)`` once and clipped to ``K`` again.
        """
        if self.kappa <= 0.0:
            raise ValueError(f"flux {self.name!r} has no invertible derivative")
        s = np.asarray(s, dtype=float)
        lo, hi = self.K
        s_cl = np.clip(s, self.df(lo), self.df(hi)).ravel()
        rows = np.tile(self.slope_coeffs, (s_cl.size, 1))
        rows[:, 0] -= s_cl
        u = np.clip(poly_roots(rows).T, lo, hi)
        g = self.df(u) - s_cl
        u -= g / self.d2f(u)
        g = np.abs(g)  # NaN past the degree is never the least
        u = np.max(np.where(g == np.fmin.reduce(g, axis=0), u, -np.inf), axis=0)
        return np.clip(u.reshape(s.shape), lo, hi)

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
    """Flux given by linear interpolation of a node table on ``K``.

    ``slopes`` holds the slope of each segment, computed once.  ``convex``
    is derived from them: it is set when the slopes strictly increase, so
    that every interior node is a kink of a convex graph and the Riemann
    fans can be read off a slice of the table.  A table with equal
    neighbouring slopes, such as a sampled linear flux, is not ``convex``:
    its fans come from a hull, which merges collinear nodes into one wave.
    """

    nodes: np.ndarray
    flux_values: np.ndarray
    name: str = "pl"
    slopes: np.ndarray = field(init=False, repr=False, compare=False)
    convex: bool = field(init=False, repr=False, compare=False)

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
        slopes = np.diff(vals) / np.diff(nodes)
        for arr in (nodes, vals, slopes):
            arr.setflags(write=False)
        for name, value in [("nodes", nodes), ("flux_values", vals),
                            ("slopes", slopes),
                            ("convex", bool(np.all(np.diff(slopes) > 0.0)))]:
            object.__setattr__(self, name, value)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < self.nodes[0] - 1e-12) or np.any(u > self.nodes[-1] + 1e-12):
            raise ValueError("state outside the node span of the flux")
        return np.interp(u, self.nodes, self.flux_values)

    @property
    def K(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    @property
    def lambda_hat(self) -> float:
        return float(np.max(np.abs(self.slopes)))

    @property
    def kappa(self) -> float:
        return 0.0


# -- built-in smooth fluxes ------------------------------------------------

def burgers(K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = u^2 / 2."""
    return ScalarFlux("burgers", (0.0, 0.0, 0.5), K)


def scaled_burgers(alpha: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = alpha * u^2 / 2 with alpha > 0."""
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("alpha must be positive")
    return ScalarFlux(f"scaled_burgers {a!r}", (0.0, 0.0, 0.5 * a), K)


def tilted_burgers(eps: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = u^2 / 2 + eps * u; a sheared frame of the quadratic flux."""
    e = float(eps)
    return ScalarFlux(f"tilted_burgers {e!r}", (0.0, e, 0.5), K)


def linear_flux(a: float, K: tuple[float, float] = (-1.0, 1.0)) -> ScalarFlux:
    """f(u) = a * u; transport at constant speed ``a``."""
    a = float(a)
    return ScalarFlux(f"linear {a!r}", (0.0, a), K)


def convex_poly(
    c2: float, c3: float, c4: float, K: tuple[float, float] = (-1.0, 1.0)
) -> ScalarFlux:
    """f(u) = c2 u^2 + c3 u^3 + c4 u^4.

    ``kappa`` is 0 when ``f''`` dips to zero or below somewhere on ``K``;
    such a flux is not uniformly convex and the exact solvers refuse it.
    """
    c2, c3, c4 = float(c2), float(c3), float(c4)
    return ScalarFlux(f"convex_poly {c2!r} {c3!r} {c4!r}",
                      (0.0, 0.0, c2, c3, c4), K)


def pl_sample(flux: ScalarFlux, segments: int) -> PiecewiseLinearFlux:
    """Piecewise-linear interpolant of ``flux`` on a uniform node grid.

    ``segments`` counts the linear pieces; the table has ``segments + 1``
    nodes spanning ``K``.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    nodes = np.linspace(flux.K[0], flux.K[1], segments + 1)
    return PiecewiseLinearFlux(nodes, flux.f(nodes), name=f"pl[{flux.name}]")


# -- slopes as piecewise polynomials --------------------------------------------

def slope_pieces(flux) -> tuple[np.ndarray, np.ndarray]:
    """``f'`` on ``K`` as breakpoints ``x`` and coefficient rows.

    Row ``k`` holds the power-series coefficients of ``f'`` on the cell
    ``[x[k], x[k + 1]]``, zero-padded to ``MAX_DEGREE`` columns, enough
    for a cubic: one row for a polynomial, one constant row per segment
    of a node table.
    """
    if isinstance(flux, PiecewiseLinearFlux):
        rows = np.zeros((flux.slopes.size, MAX_DEGREE))
        rows[:, 0] = flux.slopes
        return flux.nodes, rows
    rows = np.zeros((1, MAX_DEGREE))
    rows[0, :len(flux.slope_coeffs)] = flux.slope_coeffs
    return np.asarray(flux.K), rows


def _rows_at(x: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # u in [x[0], x[-1]]: the interior breakpoints at or below u count
    # the cells before the one holding u
    return rows[np.searchsorted(x[1:-1], u, side="right")]


def slope_gap(pieces_f, pieces_g) -> tuple[np.ndarray, np.ndarray]:
    """``f' - g'`` on the cells cut by both breakpoint sets.

    Both pieces must span the same interval.
    """
    (xf, rf), (xg, rg) = pieces_f, pieces_g
    x = np.union1d(xf, xg)
    mid = 0.5 * (x[:-1] + x[1:])
    return x, _rows_at(xf, rf, mid) - _rows_at(xg, rg, mid)


def refine(x: np.ndarray, rows: np.ndarray,
           cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same piecewise polynomial on its cells cut again at ``cuts``."""
    if cuts.size == 0:
        return x, rows
    fine = np.union1d(x, cuts)
    return fine, _rows_at(x, rows, 0.5 * (fine[:-1] + fine[1:]))


def roots_in_cells(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row strictly inside its cell, from
    one ``poly_roots`` call.  A complex root's real part spoils neither a
    variation summed over monotone pieces nor a maximum over cell ends."""
    r = poly_roots(rows)
    return r[(r > x[:-1, None]) & (r < x[1:, None])]


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
