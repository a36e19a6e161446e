"""Vector-valued piecewise-constant functions of one real variable.

This is the state space shared by the exact solvers: finitely many jumps,
constant values on the open intervals in between, including the two
unbounded tails.  The Euclidean norm on values is used for jump sizes and
pointwise distances everywhere in the package, so every metric quantity
derived from these objects is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewiseConstantFn", "total_variation", "l1_distance"]


@dataclass(frozen=True)
class PiecewiseConstantFn:
    """Step function ``x -> R^dim``.

    ``values[i]`` is the value on the open interval
    ``(breakpoints[i-1], breakpoints[i])``; ``values[0]`` and ``values[-1]``
    are the left and right tail values.  The pointwise value at a breakpoint
    itself is taken to be the right limit, a plotting convention that no
    integral quantity depends on.

    Instances are immutable value objects; all derived operations return new
    instances or plain floats/arrays.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        va = np.asarray(self.values, dtype=float)
        if va.ndim == 1:
            va = va[:, None]
        if bp.ndim != 1:
            raise ValueError("breakpoints must be one-dimensional")
        if va.ndim != 2 or va.shape[0] != bp.size + 1:
            raise ValueError(
                f"need {bp.size + 1} values for {bp.size} breakpoints, "
                f"got shape {va.shape}"
            )
        if bp.size and not np.all(np.diff(bp) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(va))):
            raise ValueError("breakpoints and values must be finite")
        bp.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", va)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "PiecewiseConstantFn":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.empty(0), np.tile(v, (1, 1)))

    @classmethod
    def step(cls, x0: float, left, right) -> "PiecewiseConstantFn":
        """Single jump at ``x0`` from ``left`` to ``right``."""
        lv = np.atleast_1d(np.asarray(left, dtype=float))
        rv = np.atleast_1d(np.asarray(right, dtype=float))
        return cls(np.array([x0]), np.stack([lv, rv]))

    @classmethod
    def from_steps(cls, tail, pieces) -> "PiecewiseConstantFn":
        """Build from a left tail value and ``(breakpoint, value)`` pairs."""
        bps = [float(x) for x, _ in pieces]
        vals = [np.atleast_1d(np.asarray(tail, dtype=float))]
        vals += [np.atleast_1d(np.asarray(v, dtype=float)) for _, v in pieces]
        return cls(np.array(bps), np.stack(vals))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def support(self) -> tuple[float, float] | None:
        """Smallest closed interval containing all jumps, or None."""
        if self.breakpoints.size == 0:
            return None
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, x):
        """Evaluate at ``x`` (scalar or array); right limit at breakpoints."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right")
        out = self.values[idx]
        if out.shape[-1] == 1:
            out = out[..., 0]
        return out if x.ndim else (float(out) if self.dim == 1 else out)

    def jumps(self) -> np.ndarray:
        """Jump vectors at each breakpoint, shape ``(n, dim)``."""
        return np.diff(self.values, axis=0)

    # -- structural ops ----------------------------------------------------

    def simplified(self) -> "PiecewiseConstantFn":
        """Drop breakpoints with zero jump."""
        if self.breakpoints.size == 0:
            return self
        keep = np.any(self.jumps() != 0.0, axis=1)
        bp = self.breakpoints[keep]
        vals = np.vstack([self.values[:1], self.values[1:][keep]])
        return PiecewiseConstantFn(bp, vals)

    def integral(self, window: tuple[float, float]) -> np.ndarray:
        """Exact integral over ``[a, b]`` as a length-``dim`` vector."""
        a, b = float(window[0]), float(window[1])
        if not (np.isfinite(a) and np.isfinite(b)) or b < a:
            raise ValueError("window must be a finite interval [a, b], a <= b")
        if b == a:
            return np.zeros(self.dim)
        edges, vals = self._cells(a, b)
        widths = np.diff(edges)
        return widths @ vals

    def _cells(self, a: float, b: float):
        """Cell edges in ``[a, b]`` and the constant value on each cell."""
        inner = self.breakpoints[(self.breakpoints > a) & (self.breakpoints < b)]
        edges = np.concatenate([[a], inner, [b]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        idx = np.searchsorted(self.breakpoints, mids, side="right")
        return edges, self.values[idx]

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "PiecewiseConstantFn":
        """Read the line-oriented text form.

        Header ``dim n`` with n = number of breakpoints, then ``n + 1`` rows
        ``<right_end> <v_1> ... <v_dim>``: the value on the interval ending
        at ``right_end``.  The final row carries the right tail value with
        the sentinel ``inf``.  Blank lines and ``#`` comments are skipped.
        """
        rows = [
            ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if not rows or rows[0][0] != "dim" or len(rows[0]) != 2:
            raise ValueError("expected header 'dim <n_breakpoints>'")
        n = int(rows[0][1])
        body = rows[1:]
        if len(body) != n + 1:
            raise ValueError(f"expected {n + 1} value rows, got {len(body)}")
        ends, vals = [], []
        for i, row in enumerate(body):
            end = float(row[0])
            if i < n:
                if not np.isfinite(end):
                    raise ValueError("'inf' sentinel allowed only in last row")
                ends.append(end)
            elif end != np.inf:
                raise ValueError("last row must use the 'inf' sentinel")
            vals.append([float(tok) for tok in row[1:]])
        widths = {len(v) for v in vals}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("all rows must carry the same number of values")
        return cls(np.array(ends), np.array(vals))


def total_variation(
    f: PiecewiseConstantFn, window: tuple[float, float] | None = None
) -> float:
    """Total variation: sum of Euclidean jump norms.

    With a ``window=(a, b)`` only jumps strictly inside the open interval
    count; jumps sitting exactly on a window boundary are excluded.  This
    open-interval convention keeps windowed TV additive under splitting a
    window at a non-breakpoint.
    """
    bp = f.breakpoints
    if bp.size == 0:
        return 0.0
    norms = np.linalg.norm(f.jumps(), axis=1)
    if window is not None:
        a, b = float(window[0]), float(window[1])
        if b < a:
            raise ValueError("window must satisfy a <= b")
        norms = norms[(bp > a) & (bp < b)]
    return float(np.sum(norms))


def l1_distance(
    f: PiecewiseConstantFn, g: PiecewiseConstantFn, window: tuple[float, float]
) -> float:
    """Exact ``L1(window)`` distance, computed by breakpoint merging.

    The pointwise Euclidean norm of ``f - g`` is constant on every cell of
    the merged breakpoint partition, so no quadrature is involved.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    a, b = float(window[0]), float(window[1])
    if not (np.isfinite(a) and np.isfinite(b)) or b < a:
        raise ValueError("window must be a finite interval [a, b], a <= b")
    if b == a:
        return 0.0
    inner = np.unique(np.concatenate([f.breakpoints, g.breakpoints]))
    inner = inner[(inner > a) & (inner < b)]
    edges = np.concatenate([[a], inner, [b]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    diff = np.atleast_2d(f(mids).T).T - np.atleast_2d(g(mids).T).T
    norms = np.linalg.norm(diff.reshape(mids.size, -1), axis=1)
    return float(np.diff(edges) @ norms)
