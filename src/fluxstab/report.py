"""Verdict lines and deterministic artifacts: CSV tables and SVG plots.

Every check states its outcome through :func:`verdict_line`.  Floats are
written with ``repr``, which round-trips exactly, and the writers impose
a fixed ordering everywhere, so rerunning an experiment with the same
inputs produces byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["verdict_line", "write_csv", "svg_line_plot"]


def verdict_line(name: str, holds: bool, detail: str) -> str:
    """The one spelling of a check's outcome: ``[PASS] name: detail``."""
    return f"[{'PASS' if holds else 'FAIL'}] {name}: {detail}"


def _tool_version() -> str:
    try:
        from importlib.metadata import version
        return version("fluxstab")
    except Exception:
        return "unknown"


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    s = str(v)
    if "," in s or "\n" in s:
        raise ValueError(f"cell value {s!r} would corrupt the table")
    return s


def _fmt_meta(v) -> str:
    # comment lines tolerate commas (matrix specs etc), newlines still break
    if isinstance(v, (bool, float)):
        return _fmt_cell(v)
    s = str(v)
    if "\n" in s:
        raise ValueError("metadata value contains a newline")
    return s


def write_csv(path, rows: list[dict], metadata: dict | None = None) -> None:
    """Write ``rows`` (dicts sharing one key set) with `# key = value` header."""
    path = Path(path)
    if not rows:
        raise ValueError("refusing to write an empty table")
    cols = list(rows[0].keys())
    for r in rows:
        if list(r.keys()) != cols:
            raise ValueError("rows disagree on columns")
    lines = []
    for k in sorted((metadata or {}).keys()):
        lines.append(f"# {k} = {_fmt_meta((metadata or {})[k])}")
    lines.append(",".join(cols))
    for r in rows:
        lines.append(",".join(_fmt_cell(r[c]) for c in cols))
    path.write_text("\n".join(lines) + "\n")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def svg_line_plot(path, xs, series: dict, title: str = "",
                  xlabel: str = "", ylabel: str = "",
                  loglog: bool = False) -> None:
    """One SVG with a polyline per entry of ``series`` ({label: ys}).

    ``loglog`` plots decimal logs of both axes (all data must be positive)
    with tick labels in the original scale.  No external renderer is
    involved; the file is plain hand-assembled SVG.
    """
    xs = [float(x) for x in xs]
    series = {k: [float(v) for v in vals] for k, vals in series.items()}
    for label, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {label!r} length mismatch")
    if loglog:
        if any(x <= 0 for x in xs) or any(
                y <= 0 for ys in series.values() for y in ys):
            raise ValueError("loglog needs positive data")
        txs = [math.log10(x) for x in xs]
        tseries = {k: [math.log10(y) for y in ys] for k, ys in series.items()}
    else:
        txs, tseries = xs, series

    w, h = 640, 420
    ml, mr, mt, mb = 64, 16, 36, 44
    x_lo, x_hi = min(txs), max(txs)
    all_y = [y for ys in tseries.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (w - ml - mr)

    def py(y: float) -> float:
        return h - mb - (y - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    def tick_label(v: float) -> str:
        return f"{10.0 ** v:.3g}" if loglog else f"{v:.4g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<!-- fluxstab {_tool_version()} -->',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{w - ml - mr}" height="{h - mt - mb}" '
        f'fill="none" stroke="#333" stroke-width="1"/>')
    for tv in _ticks(x_lo, x_hi):
        X = px(tv)
        parts.append(f'<line x1="{X:.1f}" y1="{h - mb}" x2="{X:.1f}" '
                     f'y2="{h - mb + 4}" stroke="#333"/>')
        parts.append(f'<text x="{X:.1f}" y="{h - mb + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{tick_label(tv)}</text>')
    for tv in _ticks(y_lo, y_hi):
        Y = py(tv)
        parts.append(f'<line x1="{ml - 4}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{ml - 6}" y="{Y + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">'
                     f'{tick_label(tv)}</text>')
    parts.append(f'<text x="{(ml + w - mr) / 2:.1f}" y="{h - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="14" y="{(mt + h - mb) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 14 '
                 f'{(mt + h - mb) / 2:.1f})">{ylabel}</text>')
    for i, (label, tys) in enumerate(tseries.items()):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(txs, tys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{w - mr - 6}" y="{mt + 14 + 14 * i}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
