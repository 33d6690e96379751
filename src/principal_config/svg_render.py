"""Deterministic SVG rendering of principal configurations.

Orthographic projection along a configurable view axis, hidden-line
suppression by the normal-facing test, the two foliations in distinct
stroke classes, umbilic points as labeled glyphs.  Identical scenes render
byte-identically (fixed canvas, fixed float formatting, stable element
order), which makes the output diff-able in golden tests.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT, MARGIN = 800.0, 600.0, 40.0

_STYLES = {
    "minimal": ("#1f6fb4", 1.1),
    "maximal": ("#d0443a", 1.1),
}
_GLYPH_COLOR = "#222222"

_VIEWS = {
    "+x": (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])),
    "-x": (np.array([-1.0, 0, 0]), np.array([0, -1.0, 0]), np.array([0, 0, 1.0])),
    "+y": (np.array([0, 1.0, 0]), np.array([-1.0, 0, 0]), np.array([0, 0, 1.0])),
    "-y": (np.array([0, -1.0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])),
    "+z": (np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
    "-z": (np.array([0, 0, -1.0]), np.array([1.0, 0, 0]), np.array([0, -1.0, 0])),
}


def _fmt(x):
    return f"{x:.3f}"


def render_svg(trajectories, umbilic_records=(), view="+y"):
    """Render polylines and umbilic glyphs into an SVG document string.

    Hidden parts of ``trajectories`` (surface normal facing away from the
    viewer) are suppressed by splitting polylines.
    """
    if view not in _VIEWS:
        raise ValueError(f"unknown view {view!r}; options: {sorted(_VIEWS)}")
    toward, ax1, ax2 = _VIEWS[view]

    pts2d = []
    runs = []      # (foliation, [(x, y), ...])
    for traj in trajectories:
        p = np.asarray(traj.points_xyz)
        n = np.asarray(traj.normals)
        if len(p) < 2:
            continue
        vis = (n @ toward) > 0.0
        x = p @ ax1
        y = p @ ax2
        start = None
        for i in range(len(p)):
            if vis[i] and start is None:
                start = i
            if (not vis[i] or i == len(p) - 1) and start is not None:
                stop = i + 1 if vis[i] else i
                if stop - start >= 2:
                    seg = list(zip(x[start:stop], y[start:stop]))
                    runs.append((traj.foliation_id, seg))
                    pts2d.extend(seg)
                start = None

    glyphs = []
    for rec in umbilic_records:
        gx = float(np.dot(rec.xyz, ax1))
        gy = float(np.dot(rec.xyz, ax2))
        glyphs.append((gx, gy, rec.type))
        pts2d.append((gx, gy))

    if not pts2d:
        raise ValueError("empty scene")

    xs = np.array([q[0] for q in pts2d])
    ys = np.array([q[1] for q in pts2d])
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    scale = min((WIDTH - 2 * MARGIN) / span_x, (HEIGHT - 2 * MARGIN) / span_y)
    cx, cy = 0.5 * (xs.min() + xs.max()), 0.5 * (ys.min() + ys.max())

    def to_screen(q):
        return (WIDTH / 2 + (q[0] - cx) * scale,
                HEIGHT / 2 - (q[1] - cy) * scale)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
               f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">')
    out.append(f'<rect width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
               f'fill="#ffffff"/>')
    for foliation_id, seg in runs:
        color, width = _STYLES[foliation_id]
        coords = " ".join(f"{_fmt(sx)},{_fmt(sy)}"
                          for sx, sy in map(to_screen, seg))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="{_fmt(width)}"/>')
    for gx, gy, typ in glyphs:
        sx, sy = to_screen((gx, gy))
        out.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="5.0" '
                   f'fill="#ffffff" stroke="{_GLYPH_COLOR}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(sx + 7)}" y="{_fmt(sy - 7)}" '
                   f'font-family="monospace" font-size="12" '
                   f'fill="{_GLYPH_COLOR}">{typ}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
