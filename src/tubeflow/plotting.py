"""Self-contained SVG renderings of cross-section fields.

Heatmaps of scalar disc fields and quiver plots of transversal vector
fields, written as plain SVG with no external tooling.  Output is fully
deterministic for identical inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .polydisc import PointPowers

_SIZE = 420
_MARGIN = 30


def _fmt(x):
    return f"{x:.2f}"


def _to_px(z2, z3):
    half = (_SIZE - 2 * _MARGIN) / 2
    cx = cy = _SIZE / 2
    return cx + z2 * half, cy - z3 * half


# Diverging colour of each rounded level 0..255, for v >= 0 and v < 0.
_RED_SIDE = tuple(f"rgb(255,{k},{k})" for k in range(256))
_BLUE_SIDE = tuple(f"rgb({k},{k},255)" for k in range(256))


def _diverging_colors(v):
    """Blue (-1) .. white (0) .. red (+1), one colour per value of v.

    v is clipped to [-1, 1] (NaN reads as +1); the level 255 (1 - |v|) is
    rounded half to even, as Python's ``round`` does.
    """
    v = np.fmax(np.fmin(v, 1.0), -1.0)
    red = v >= 0
    level = np.rint(255 * np.where(red, 1 - v, 1 + v)).astype(int)
    return [(_RED_SIDE if r else _BLUE_SIDE)[k]
            for r, k in zip(red.tolist(), level.tolist())]


def _svg_header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE + 30}" viewBox="0 0 {_SIZE} {_SIZE + 30}">',
        f'<title>{title}</title>',
        f'<rect width="{_SIZE}" height="{_SIZE + 30}" fill="white"/>',
    ]


def _svg_footer(caption):
    cx = _SIZE / 2
    return [
        f'<circle cx="{cx}" cy="{cx}" r="{(_SIZE - 2 * _MARGIN) / 2:.1f}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{cx:.0f}" y="{_SIZE + 20}" font-size="13" '
        f'text-anchor="middle" font-family="monospace">{caption}</text>',
        "</svg>",
    ]


# Polar grids of the two plot kinds: (rings, sectors).
_HEATMAP_GRID = (24, 48)
_QUIVER_GRID = (8, 16)


@lru_cache(maxsize=None)
def _polar_centres(n_r, n_theta):
    """(z2, z3) at the half-offset radius of each polar cell, ring by ring,
    as two :class:`~tubeflow.polydisc.PointPowers`."""
    points = []
    for i in range(n_r):
        s3 = (i + 0.5) / n_r
        for j in range(n_theta):
            s2 = 2 * np.pi * j / n_theta
            points.append((float(s3 * np.cos(s2)), float(s3 * np.sin(s2))))
    z2, z3 = zip(*points)
    return PointPowers(z2), PointPowers(z3)


@lru_cache(maxsize=None)
def _polygon_points(n_r, n_theta):
    """SVG ``points`` text of each polar cell, in the order of the centres."""
    out = []
    for i in range(n_r):
        r_in, r_out = i / n_r, (i + 1) / n_r
        for j in range(n_theta):
            th0 = 2 * np.pi * j / n_theta
            th1 = 2 * np.pi * (j + 1) / n_theta
            corners = [
                _to_px(r_in * np.cos(th0), r_in * np.sin(th0)),
                _to_px(r_out * np.cos(th0), r_out * np.sin(th0)),
                _to_px(r_out * np.cos(th1), r_out * np.sin(th1)),
                _to_px(r_in * np.cos(th1), r_in * np.sin(th1)),
            ]
            out.append(" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners))
    return tuple(out)


def heatmap_svg(poly, title="field"):
    """Polar-cell heatmap of a scalar disc polynomial; returns SVG text."""
    z2, z3 = _polar_centres(*_HEATMAP_GRID)
    values = z2.broadcast(poly.to_float().evaluate(z2, z3))
    vmax = float(np.abs(values).max())
    norm = vmax if vmax > 0 else 1.0

    cells = [f'<polygon points="{pts}" fill="{color}" stroke="none"/>'
             for pts, color in zip(_polygon_points(*_HEATMAP_GRID),
                                   _diverging_colors(values / norm))]

    caption = f"{title}  min={values.min():.3g} max={values.max():.3g}"
    return "\n".join(_svg_header(title) + cells + _svg_footer(caption)) + "\n"


def quiver_svg(poly2, poly3, title="field"):
    """Arrow plot of a transversal vector field; returns SVG text."""
    z2, z3 = _polar_centres(*_QUIVER_GRID)
    n_r = _QUIVER_GRID[0]
    v2, v3 = (z2.broadcast(p.to_float().evaluate(z2, z3))
              for p in (poly2, poly3))
    vmax = np.hypot(v2, v3).max()
    scale = (0.5 / n_r) / vmax if vmax > 0 else 0.0

    x0, y0 = _to_px(z2.values, z3.values)
    x1, y1 = _to_px(z2.values + scale * v2 * n_r,
                    z3.values + scale * v3 * n_r)
    arrows = []
    for ends in zip(*(c.tolist() for c in (x0, y0, x1, y1))):
        a0, b0, a1, b1 = map(_fmt, ends)
        arrows.append(f'<line x1="{a0}" y1="{b0}" x2="{a1}" y2="{b1}" '
                      'stroke="black" stroke-width="1"/>')
        arrows.append(f'<circle cx="{a1}" cy="{b1}" r="1.5" fill="black"/>')

    caption = f"{title}  max |v|={vmax:.3g}"
    return "\n".join(_svg_header(title) + arrows + _svg_footer(caption)) + "\n"
