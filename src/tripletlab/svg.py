"""Minimal hand-emitted SVG charts: diagram scatter, quiver, line chart.

No plotting dependency; output is deterministic, self-contained XML with
nothing external referenced, so files diff cleanly across runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WIDTH = 560
HEIGHT = 560
MARGIN = 60

HARD_COLOR = "#d62728"
EASY_COLOR = "#1f77b4"
SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# quiver cells in _f's "%.2f": a shaft and a two-stroke head, or a dot
_ARROW = ('<path d="M%.2f %.2f L%.2f %.2f M%.2f %.2f L%.2f %.2f L%.2f %.2f" '
          f'stroke="{EASY_COLOR}" fill="none" stroke-width="1"/>')
_DOT = '<circle cx="%.2f" cy="%.2f" r="0.8" fill="gray"/>'
_POINT = '<circle cx="%.2f" cy="%.2f" r="3" fill="%s" fill-opacity="0.6"/>'


def _f(x: float) -> str:
    return f"{x:.2f}"


def _sq_x(v: float) -> float:
    """Diagram coordinate in [-1, 1] to pixel x."""
    return MARGIN + (v + 1.0) / 2.0 * (WIDTH - 2 * MARGIN)


def _sq_y(v: float) -> float:
    return HEIGHT - MARGIN - (v + 1.0) / 2.0 * (HEIGHT - 2 * MARGIN)


def _document(body: list[str], title: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="{MARGIN // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _square_axes(x_label: str, y_label: str) -> list[str]:
    x0, x1 = _sq_x(-1.0), _sq_x(1.0)
    y0, y1 = _sq_y(-1.0), _sq_y(1.0)
    parts = [
        f'<rect x="{_f(x0)}" y="{_f(y1)}" width="{_f(x1 - x0)}" '
        f'height="{_f(y0 - y1)}" fill="none" stroke="black"/>'
    ]
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_f(_sq_x(v))}" y="{_f(y0 + 18)}" '
            f'text-anchor="middle" font-family="monospace" '
            f'font-size="11">{v:g}</text>'
        )
        parts.append(
            f'<text x="{_f(x0 - 8)}" y="{_f(_sq_y(v) + 4)}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="11">{v:g}</text>'
        )
    parts.append(
        f'<text x="{(WIDTH) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>'
    )
    # the s_an = s_ap diagonal separating hard from easy triplets
    parts.append(
        f'<line x1="{_f(_sq_x(-1.0))}" y1="{_f(_sq_y(-1.0))}" '
        f'x2="{_f(_sq_x(1.0))}" y2="{_f(_sq_y(1.0))}" '
        f'stroke="gray" stroke-dasharray="5,4"/>'
    )
    return parts


def diagram_scatter(
    points: Sequence[tuple[float, float, bool]], title: str
) -> str:
    """Scatter of (s_ap, s_an, hard) diagram points; hard drawn in red."""
    s_ap, s_an, hard = np.asarray(points, dtype=np.float64).reshape(-1, 3).T
    colors = [HARD_COLOR if h else EASY_COLOR for h in hard.tolist()]
    body = _square_axes("s_ap", "s_an")
    body += map(_POINT.__mod__,
                zip(_sq_x(s_ap).tolist(), _sq_y(s_an).tolist(), colors))
    return _document(body, title)


def field_quiver(
    s_ap: Sequence[float],
    s_an: Sequence[float],
    d_sap: Sequence[float],
    d_san: Sequence[float],
    title: str,
) -> str:
    """Arrow per cell, length scaled by delta magnitude; an arrow shorter
    than 0.15 px is drawn as a gray dot."""
    body = _square_axes("s_ap", "s_an")
    return _document(body + _quiver_cells(s_ap, s_an, d_sap, d_san), title)


def _quiver_cells(s_ap, s_an, d_sap, d_san) -> list[str]:
    """One arrow or dot per cell; its arrays are freed on return, before
    the document's cells are joined."""
    d = np.array([d_sap, d_san], dtype=np.float64)
    # a power-of-two rescale draws the same bytes, and the rescaled
    # magnitudes cannot overflow
    d = np.ldexp(d, -np.frexp(np.abs(d).max(initial=0.0))[1])
    mags = np.hypot(*d)
    max_mag = mags.max(initial=0.0)
    cell_px = (WIDTH - 2 * MARGIN) / max(mags.size ** 0.5 - 1, 1)
    scale = 0.0 if max_mag == 0 else 0.9 * cell_px / max_mag
    px = _sq_x(np.asarray(s_ap, dtype=np.float64))
    py = _sq_y(np.asarray(s_an, dtype=np.float64))
    arrow = mags * scale >= 0.15
    (dx, dy), mags, x0, y0 = d[:, arrow], mags[arrow], px[arrow], py[arrow]
    qx, qy = x0 + dx * scale, y0 - dy * scale
    ux, uy = (qx - x0) / (mags * scale), (qy - y0) / (mags * scale)
    head = np.where(mags * scale < 10, 0.3 * mags * scale, 3.0)
    lx, ly = qx - head * (ux - 0.5 * uy), qy - head * (uy + 0.5 * ux)
    rx, ry = qx - head * (ux + 0.5 * uy), qy - head * (uy - 0.5 * ux)
    ends = iter(np.column_stack([x0, y0, qx, qy, lx, ly, qx, qy, rx, ry]))
    return [
        _ARROW % tuple(next(ends).tolist()) if is_arrow else _DOT % (x, y)
        for is_arrow, x, y in zip(arrow.tolist(), px.tolist(), py.tolist())
    ]


def trajectory_path(
    points: Sequence[tuple[float, float]], title: str
) -> str:
    """Polyline through diagram points; start marked green, end red."""
    s_ap, s_an = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    xy = list(zip(_sq_x(s_ap).tolist(), _sq_y(s_an).tolist()))
    coords = " ".join(map("%.2f,%.2f".__mod__, xy))
    body = _square_axes("s_ap", "s_an")
    body.append(
        f'<polyline points="{coords}" fill="none" stroke="{EASY_COLOR}" '
        f'stroke-width="1.5"/>'
    )
    if xy:
        mark = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s"/>'
        body += [mark % (*xy[0], "#2ca02c"), mark % (*xy[-1], HARD_COLOR)]
    return _document(body, title)


def line_chart(
    series: Sequence[tuple[str, Sequence[float]]],
    title: str,
    y_min: float = 0.0,
    y_max: float = 1.0,
) -> str:
    """One polyline per (label, values) series over an integer x axis."""
    n = max((len(vals) for _, vals in series), default=1)
    span = max(y_max - y_min, 1e-12)

    def px(i: int) -> float:
        return MARGIN + (i / max(n - 1, 1)) * (WIDTH - 2 * MARGIN)

    def py(v: float) -> float:
        frac = (v - y_min) / span
        return HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)

    body = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>'
    ]
    for tick in range(5):
        v = y_min + span * tick / 4
        body.append(
            f'<text x="{MARGIN - 8}" y="{_f(py(v) + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{v:.2f}</text>'
        )
    body.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">epoch</text>'
    )
    for idx, (label, values) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        coords = " ".join(
            f"{_f(px(i))},{_f(py(v))}" for i, v in enumerate(values)
        )
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{MARGIN + 10}" y="{MARGIN + 18 + 16 * idx}" '
            f'font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    return _document(body, title)
