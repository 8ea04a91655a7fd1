"""Self-contained SVG renderings of cross-section fields.

Heatmaps of scalar disc fields and quiver plots of transversal vector
fields, written as plain SVG with no external tooling.  Output is fully
deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

_SIZE = 420
_MARGIN = 30


def _fmt(x):
    return f"{x:.2f}"


def _to_px(z2, z3):
    half = (_SIZE - 2 * _MARGIN) / 2
    cx = cy = _SIZE / 2
    return cx + z2 * half, cy - z3 * half


def _diverging_color(v):
    """Blue (-1) .. white (0) .. red (+1)."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, int(round(255 * (1 - v))), int(round(255 * (1 - v)))
    else:
        r, g, b = int(round(255 * (1 + v))), int(round(255 * (1 + v))), 255
    return f"rgb({r},{g},{b})"


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


def heatmap_svg(poly, title="field"):
    """Polar-cell heatmap of a scalar disc polynomial; returns SVG text."""
    p = poly.to_float()
    n_r, n_theta = 24, 48
    values = np.empty((n_r, n_theta))
    for i in range(n_r):
        s3 = (i + 0.5) / n_r
        for j in range(n_theta):
            s2 = 2 * np.pi * j / n_theta
            values[i, j] = p.evaluate(s3 * np.cos(s2), s3 * np.sin(s2))
    vmax = float(np.abs(values).max())
    norm = vmax if vmax > 0 else 1.0

    cells = []
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
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
            color = _diverging_color(values[i, j] / norm)
            cells.append(f'<polygon points="{pts}" fill="{color}" '
                         'stroke="none"/>')

    caption = f"{title}  min={values.min():.3g} max={values.max():.3g}"
    return "\n".join(_svg_header(title) + cells + _svg_footer(caption)) + "\n"


def quiver_svg(poly2, poly3, title="field"):
    """Arrow plot of a transversal vector field; returns SVG text."""
    p2, p3 = poly2.to_float(), poly3.to_float()
    n_r, n_theta = 8, 16
    points = []
    for i in range(n_r):
        s3 = (i + 0.5) / n_r
        for j in range(n_theta):
            s2 = 2 * np.pi * j / n_theta
            z2, z3 = s3 * np.cos(s2), s3 * np.sin(s2)
            points.append((z2, z3, p2.evaluate(z2, z3), p3.evaluate(z2, z3)))
    vmax = max((np.hypot(v2, v3) for _, _, v2, v3 in points), default=0.0)
    scale = (0.5 / n_r) / vmax if vmax > 0 else 0.0

    arrows = []
    for z2, z3, v2, v3 in points:
        x0, y0 = _to_px(z2, z3)
        x1, y1 = _to_px(z2 + scale * v2 * n_r, z3 + scale * v3 * n_r)
        arrows.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" '
                      f'x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                      'stroke="black" stroke-width="1"/>')
        arrows.append(f'<circle cx="{_fmt(x1)}" cy="{_fmt(y1)}" r="1.5" '
                      'fill="black"/>')

    caption = f"{title}  max |v|={vmax:.3g}"
    return "\n".join(_svg_header(title) + arrows + _svg_footer(caption)) + "\n"
