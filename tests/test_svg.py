import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import _render, svg
from tripletlab.dynamics import StepParams, vector_field
from tripletlab.svg import (
    diagram_scatter,
    field_quiver,
    line_chart,
    trajectory_path,
)


def assert_wellformed_and_selfcontained(doc: str):
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    # nothing fetched from outside: no hrefs, images, scripts or css urls
    assert "href" not in doc
    assert "url(" not in doc
    assert "<script" not in doc
    assert "<image" not in doc


def test_scatter_wellformed():
    doc = diagram_scatter([0.1, 0.9, -0.5], [0.9, 0.1, 0.5],
                          [True, False, True], "diagram")
    assert_wellformed_and_selfcontained(doc)
    assert doc.count("<circle") >= 3


def test_quiver_wellformed():
    field = vector_field(7, StepParams(learning_rate=0.05))
    doc = field_quiver(
        field.s_ap, field.s_an, field.d_sap_total, field.d_san_total,
        "field",
    )
    assert_wellformed_and_selfcontained(doc)


def test_quiver_handles_zero_field():
    n = 9
    zeros = np.zeros(n)
    doc = field_quiver(zeros, zeros, zeros, zeros, "flat")
    assert_wellformed_and_selfcontained(doc)


def test_trajectory_path_wellformed():
    doc = trajectory_path([0.0, 0.2, 0.4], [0.0, 0.1, 0.15], "rollout")
    assert_wellformed_and_selfcontained(doc)
    assert "<polyline" in doc


def test_line_chart_wellformed():
    doc = line_chart(
        [("recall@1", [0.1, 0.4, 0.6]), ("hard_fraction", [0.9, 0.5, 0.3])],
        "curves",
    )
    assert_wellformed_and_selfcontained(doc)
    assert doc.count("<polyline") == 2


def test_deterministic_output():
    columns = ([0.3, 0.7], [0.2, 0.9], [False, True])
    assert diagram_scatter(*columns, "t") == diagram_scatter(*columns, "t")


def test_scatter_of_empty_columns():
    """No diagram point: the axes alone, as the old emitter drew them."""
    doc = diagram_scatter([], [], [], "empty")
    assert doc == _old_diagram_scatter(np.empty((0, 3)), "empty")
    assert_wellformed_and_selfcontained(doc)
    assert 'r="3"' not in doc


# values "%.2f" prints through its fallback: signed zeros, subnormals,
# exact and near ties of a half cent, both sides of +-9999.995, +-1e300
# and non-finite values
_HALF_CENTS = [v for x in (0.005, 0.125, 0.375, 1.005, 2.675, 235.005,
                           9999.985)
               for v in (x, np.nextafter(x, 0.0), np.nextafter(x, 20000.0))]
SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
     0.004999999999999999, -0.004999999999999999, 9999.994999999999,
     9999.995, np.nextafter(9999.995, 0.0), np.nextafter(9999.995, 1e5),
     1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan,
     -np.nan] + _HALF_CENTS + [-v for v in _HALF_CENTS])


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    """Random float64 bit patterns, pixel-scale values and, for about a
    fifth of them, SPECIAL values."""
    n = int(np.prod(shape))
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    values = np.where(rng.random(n) < 0.3, bits.view(np.float64),
                      rng.uniform(-1000.0, 1000.0, n))
    where = rng.random(n) < 0.2
    values[where] = rng.choice(SPECIAL, where.sum())
    return values.reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(0, 40), two=st.booleans(),
       block_rows=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_renderer_matches_percent_format(rows, two, block_rows, seed):
    """Every row equals "%"-formatting of its template, for one template or
    two in mixed order, in blocks of 1 to 7 rows."""
    rng = np.random.default_rng(seed)
    templates = ['<p a="%.2f" b="%.2f%.2f"/>', "[%.2f]"][:1 + two]
    values = _values(rng, (rows, 3))
    which = rng.integers(0, len(templates), rows)
    slots = [t.count("%.2f") for t in templates]
    for sep in ("\n", " "):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_render, "_BLOCK_ROWS", block_rows)
            blocks = svg._rows(templates, values, which, sep=sep)
        assert len(blocks) == -(-rows // block_rows)
        assert sep.join(blocks) == sep.join(
            templates[w] % tuple(row[:slots[w]].tolist())
            for w, row in zip(which.tolist(), values))


def test_renderer_special_values_one_by_one():
    """Each SPECIAL value alone in its block, and all of them in one."""
    for v in SPECIAL:
        assert svg._rows(["%.2f"], [[v]]) == ["%.2f" % v]
    assert svg._rows(["%.2f"], SPECIAL[:, None]) == [
        "\n".join("%.2f" % v for v in SPECIAL)]


# The emitters the renderer replaced: the reference for every chart
def _f(x: float) -> str:
    return f"{x:.2f}"


def _old_square_axes(x_label: str, y_label: str) -> list[str]:
    sx, sy = svg._sq_x, svg._sq_y
    x0, x1, y0, y1 = sx(-1.0), sx(1.0), sy(-1.0), sy(1.0)
    parts = [f'<rect x="{_f(x0)}" y="{_f(y1)}" width="{_f(x1 - x0)}" '
             f'height="{_f(y0 - y1)}" fill="none" stroke="black"/>']
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        parts.append(f'<text x="{_f(sx(v))}" y="{_f(y0 + 18)}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{v:g}</text>')
        parts.append(f'<text x="{_f(x0 - 8)}" y="{_f(sy(v) + 4)}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{v:g}</text>')
    parts.append(f'<text x="280" y="548" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="280" text-anchor="middle" '
                 f'font-family="monospace" font-size="12" '
                 f'transform="rotate(-90 16 280)">{y_label}</text>')
    parts.append(f'<line x1="{_f(sx(-1.0))}" y1="{_f(sy(-1.0))}" '
                 f'x2="{_f(sx(1.0))}" y2="{_f(sy(1.0))}" '
                 f'stroke="gray" stroke-dasharray="5,4"/>')
    return parts


_OLD_ARROW = ('<path d="M%.2f %.2f L%.2f %.2f M%.2f %.2f L%.2f %.2f L%.2f '
              '%.2f" stroke="#1f77b4" fill="none" stroke-width="1"/>')
_OLD_DOT = '<circle cx="%.2f" cy="%.2f" r="0.8" fill="gray"/>'
_OLD_POINT = '<circle cx="%.2f" cy="%.2f" r="3" fill="%s" fill-opacity="0.6"/>'


def _old_field_quiver(s_ap, s_an, d_sap, d_san, title):
    d = np.array([d_sap, d_san], dtype=np.float64)
    d = np.ldexp(d, -np.frexp(np.abs(d).max(initial=0.0))[1])
    mags = np.hypot(*d)
    max_mag = mags.max(initial=0.0)
    cell_px = 440 / max(mags.size ** 0.5 - 1, 1)
    scale = 0.0 if max_mag == 0 else 0.9 * cell_px / max_mag
    px = svg._sq_x(np.asarray(s_ap, dtype=np.float64))
    py = svg._sq_y(np.asarray(s_an, dtype=np.float64))
    arrow = mags * scale >= 0.15
    (dx, dy), mags, x0, y0 = d[:, arrow], mags[arrow], px[arrow], py[arrow]
    qx, qy = x0 + dx * scale, y0 - dy * scale
    ux, uy = (qx - x0) / (mags * scale), (qy - y0) / (mags * scale)
    head = np.where(mags * scale < 10, 0.3 * mags * scale, 3.0)
    lx, ly = qx - head * (ux - 0.5 * uy), qy - head * (uy + 0.5 * ux)
    rx, ry = qx - head * (ux + 0.5 * uy), qy - head * (uy - 0.5 * ux)
    ends = iter(np.column_stack([x0, y0, qx, qy, lx, ly, qx, qy, rx, ry]))
    cells = [
        _OLD_ARROW % tuple(next(ends).tolist()) if is_arrow
        else _OLD_DOT % (x, y)
        for is_arrow, x, y in zip(arrow.tolist(), px.tolist(), py.tolist())
    ]
    return svg._document(_old_square_axes("s_ap", "s_an") + cells, title)


def _old_trajectory_path(points, title):
    s_ap, s_an = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    xy = list(zip(svg._sq_x(s_ap).tolist(), svg._sq_y(s_an).tolist()))
    coords = " ".join(map("%.2f,%.2f".__mod__, xy))
    body = _old_square_axes("s_ap", "s_an")
    body.append(f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
                f'stroke-width="1.5"/>')
    if xy:
        mark = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s"/>'
        body += [mark % (*xy[0], "#2ca02c"), mark % (*xy[-1], "#d62728")]
    return svg._document(body, title)


def _old_diagram_scatter(points, title):
    s_ap, s_an, hard = np.asarray(points, dtype=np.float64).reshape(-1, 3).T
    colors = ["#d62728" if h else "#1f77b4" for h in hard.tolist()]
    body = _old_square_axes("s_ap", "s_an")
    body += map(_OLD_POINT.__mod__, zip(svg._sq_x(s_ap).tolist(),
                                        svg._sq_y(s_an).tolist(), colors))
    return svg._document(body, title)


def _old_line_chart(series, title, y_min=0.0, y_max=1.0):
    n = max((len(vals) for _, vals in series), default=1)
    span = max(y_max - y_min, 1e-12)

    def px(i):
        return 60 + (i / max(n - 1, 1)) * 440

    def py(v):
        return 560 - 60 - (v - y_min) / span * 440

    body = ['<rect x="60" y="60" width="440" height="440" fill="none" '
            'stroke="black"/>']
    for tick in range(5):
        v = y_min + span * tick / 4
        body.append(f'<text x="52" y="{_f(py(v) + 4)}" text-anchor="end" '
                    f'font-family="monospace" font-size="11">{v:.2f}</text>')
    body.append('<text x="280" y="548" text-anchor="middle" '
                'font-family="monospace" font-size="12">epoch</text>')
    for idx, (label, values) in enumerate(series):
        color = svg.SERIES_COLORS[idx % len(svg.SERIES_COLORS)]
        coords = " ".join(f"{_f(px(i))},{_f(py(v))}"
                          for i, v in enumerate(values))
        body.append(f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="70" y="{78 + 16 * idx}" '
                    f'font-family="monospace" font-size="12" '
                    f'fill="{color}">{label}</text>')
    return svg._document(body, title)


# pixels on a half cent: "%.2f" prints them through the renderer's fallback
_TIE_PIXELS = np.array([60.125, 100.375, 170.005, 235.005, 391.995, 499.875])


def _near_ties(values) -> int:
    cents = np.abs(np.asarray(values, dtype=np.float64)) * 100.0
    return int(np.count_nonzero(np.abs(cents - np.rint(cents)) >= 0.5 - 1e-6))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(resolution=st.integers(1, 12), kind=st.sampled_from(
           ["field", "grid", "ties", "zero"]),
       block_rows=st.sampled_from([1, 3, 4096]),
       seed=st.integers(0, 2**32 - 1))
def test_charts_equal_the_percent_emitters(resolution, kind, block_rows,
                                           seed):
    """field_quiver, trajectory_path, diagram_scatter and line_chart give
    the old emitters' bytes on random fields and points, with grids whose
    pixels sit on half cents among them."""
    rng = np.random.default_rng(seed)
    n = resolution ** 2
    if kind == "field":
        field = vector_field(max(resolution, 2),
                             StepParams(learning_rate=rng.uniform(0, 0.3),
                                        gamma=rng.uniform(-1, 1),
                                        entanglement_p=rng.uniform(0, 1)))
        cols = (field.s_ap, field.s_an, field.d_sap_total,
                field.d_san_total)
    else:
        if kind == "ties":
            pixels = rng.choice(_TIE_PIXELS, (2, n))
            s = np.array([(pixels[0] - 60) / 220 - 1,
                          1 - (pixels[1] - 60) / 220])
            assert _near_ties([svg._sq_x(s[0]), svg._sq_y(s[1])]) > 0
        else:
            s = rng.uniform(-1, 1, (2, n))
        d = np.zeros((2, n)) if kind == "zero" else _values(rng, (2, n))
        d[~np.isfinite(d)] = 0.0
        cols = (*s, *d)
    points = np.column_stack(cols[:2])
    hard = rng.random(len(points)) < 0.5
    b = cols[2][:resolution]
    series = [("a", rng.uniform(-0.2, 1.2, resolution).tolist()),
              ("b", np.where(np.abs(b) < 1e6, b, -0.0).tolist())]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_render, "_BLOCK_ROWS", block_rows)
        assert field_quiver(*cols, "f") == _old_field_quiver(*cols, "f")
        assert trajectory_path(*points.T, "t") == _old_trajectory_path(
            points, "t")
        scatter = np.column_stack([points, hard])
        assert diagram_scatter(*points.T, hard, "s") == _old_diagram_scatter(
            scatter, "s")
        assert line_chart(series, "c") == _old_line_chart(series, "c")
