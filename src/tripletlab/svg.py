"""Minimal hand-emitted SVG charts: diagram scatter, quiver, line chart.

No plotting dependency; output is deterministic, self-contained XML with
nothing external referenced, so files diff cleanly across runs. Each chart
returns its document as bytes, joined once from the renderer's blocks;
the CLI writes them to the file exactly as returned.

Every coordinate a chart computes from its data is written by the
package's one number renderer, ``_render._blocks``, which also writes
every CSV cell: the bytes of ``"%.2f" %``, from byte tables of
rint(|v| * 100), or by ``%`` itself for a value within 1e-6 of a half
cent (exact ties such as 0.125 included) or not below 9999.995 (inf and
nan included). A chart's fixed frame is literal text, formatted once at
import by f-strings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._render import _blocks

WIDTH = 560
HEIGHT = 560
MARGIN = 60

HARD_COLOR = "#d62728"
EASY_COLOR = "#1f77b4"
SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# quiver cells: a shaft and a two-stroke head, or a dot
_ARROW = ('<path d="M%.2f %.2f L%.2f %.2f M%.2f %.2f L%.2f %.2f L%.2f %.2f" '
          f'stroke="{EASY_COLOR}" fill="none" stroke-width="1"/>')
_DOT = '<circle cx="%.2f" cy="%.2f" r="0.8" fill="gray"/>'
_POINTS = tuple(f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" '
                'fill-opacity="0.6"/>' for color in (EASY_COLOR, HARD_COLOR))
_ENDS = ('<circle cx="%.2f" cy="%.2f" r="4" fill="#2ca02c"/>\n'
         f'<circle cx="%.2f" cy="%.2f" r="4" fill="{HARD_COLOR}"/>')


def _sq_x(v: float) -> float:
    """Diagram coordinate in [-1, 1] to pixel x."""
    return MARGIN + (v + 1.0) / 2.0 * (WIDTH - 2 * MARGIN)


def _sq_y(v: float) -> float:
    return HEIGHT - MARGIN - (v + 1.0) / 2.0 * (HEIGHT - 2 * MARGIN)


def _chart_y(v: float) -> float:
    """Line-chart fraction in [0, 1] to pixel y."""
    return HEIGHT - MARGIN - v * (HEIGHT - 2 * MARGIN)


def _pixels(s_ap, s_an) -> tuple[np.ndarray, np.ndarray]:
    """Diagram points as columns of x and y pixels."""
    return (_sq_x(np.asarray(s_ap, dtype=np.float64)),
            _sq_y(np.asarray(s_an, dtype=np.float64)))


def _square_axes() -> bytes:
    """The diagram's frame, ticks, s_ap and s_an labels and diagonal."""
    x0, x1 = _sq_x(-1.0), _sq_x(1.0)
    y0, y1 = _sq_y(-1.0), _sq_y(1.0)
    parts = [f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
             f'height="{y0 - y1:.2f}" fill="none" stroke="black"/>']
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        parts += [
            f'<text x="{_sq_x(v):.2f}" y="{y0 + 18:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{v:g}</text>',
            f'<text x="{x0 - 8:.2f}" y="{_sq_y(v) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{v:g}</text>',
        ]
    parts += [
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">s_ap</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">s_an</text>',
        # the s_an = s_ap diagonal separating hard from easy triplets
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="gray" stroke-dasharray="5,4"/>',
    ]
    return ("\n".join(parts) + "\n").encode()


def _chart_frame() -> bytes:
    """The line chart's frame, y ticks at quarters and epoch label."""
    parts = [f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
             f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>']
    for v in np.arange(5) / 4:
        parts.append(f'<text x="{MARGIN - 8}" y="{_chart_y(v) + 4:.2f}" '
                     'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{v:.2f}</text>')
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">epoch</text>'
    )
    return ("\n".join(parts) + "\n").encode()


_AXES = _square_axes()
_FRAME = _chart_frame()


def _document(body: list, title: str) -> bytes:
    """The chart's bytes in one join: head, title, the body's lines (each
    ending in a newline) and the closing tag."""
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'<text x="{WIDTH // 2}" y="{MARGIN // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>\n')
    return b"".join([head.encode(), *body, b"</svg>\n"])


def _polyline(x, y, color: str) -> bytes:
    """A polyline through the pixels (x, y); the points' last space is
    sliced off their joined bytes."""
    points = b"".join(_blocks(["%.2f,%.2f"], [x, y], sep=" "))[:-1]
    return (b'<polyline points="%s" fill="none" stroke="%s" '
            b'stroke-width="1.5"/>\n' % (points, color.encode()))


def diagram_scatter(s_ap: Sequence[float], s_an: Sequence[float],
                    hard: Sequence[bool], title: str) -> bytes:
    """Scatter of diagram points (s_ap, s_an); hard ones drawn in red."""
    return _document([_AXES, *_blocks(_POINTS, _pixels(s_ap, s_an), hard)],
                     title)


def field_quiver(
    s_ap: Sequence[float],
    s_an: Sequence[float],
    d_sap: Sequence[float],
    d_san: Sequence[float],
    title: str,
) -> bytes:
    """Arrow per cell, length scaled by delta magnitude; an arrow shorter
    than 0.15 px is drawn as a gray dot."""
    return _document([_AXES, *_quiver_cells(s_ap, s_an, d_sap, d_san)],
                     title)


def _quiver_cells(s_ap, s_an, d_sap, d_san) -> list[bytearray]:
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
    cells = np.zeros((10, mags.size))
    cells[:2] = _pixels(s_ap, s_an)
    arrow = mags * scale >= 0.15
    (dx, dy), mags, (x0, y0) = d[:, arrow], mags[arrow], cells[:2, arrow]
    qx, qy = x0 + dx * scale, y0 - dy * scale
    ux, uy = (qx - x0) / (mags * scale), (qy - y0) / (mags * scale)
    head = np.where(mags * scale < 10, 0.3 * mags * scale, 3.0)
    lx, ly = qx - head * (ux - 0.5 * uy), qy - head * (uy + 0.5 * ux)
    rx, ry = qx - head * (ux + 0.5 * uy), qy - head * (uy - 0.5 * ux)
    cells[2:, arrow] = [qx, qy, lx, ly, qx, qy, rx, ry]
    return list(_blocks((_DOT, _ARROW), cells, arrow))


def trajectory_path(s_ap: Sequence[float], s_an: Sequence[float],
                    title: str) -> bytes:
    """Polyline through diagram points; start marked green, end red."""
    x, y = _pixels(s_ap, s_an)
    body = [_AXES, _polyline(x, y, EASY_COLOR)]
    if len(x):
        body += _blocks([_ENDS], [x[:1], y[:1], x[-1:], y[-1:]])
    return _document(body, title)


def line_chart(series: Sequence[tuple[str, Sequence[float]]],
               title: str) -> bytes:
    """One polyline per (label, values) series over an integer x axis and
    a fixed [0, 1] y axis: every charted series is a fraction."""
    n = max((len(vals) for _, vals in series), default=1)
    body = [_FRAME]
    for idx, (label, values) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        values = np.asarray(values, dtype=np.float64)
        px = MARGIN + (np.arange(len(values)) / max(n - 1, 1)) * (
            WIDTH - 2 * MARGIN)
        body.append(_polyline(px, _chart_y(values), color))
        body.append(
            f'<text x="{MARGIN + 10}" y="{MARGIN + 18 + 16 * idx}" '
            f'font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>\n'.encode()
        )
    return _document(body, title)
