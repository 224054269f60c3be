"""The byte renderer against the ``%`` oracle: each encoder value by value,
and whole rows of mixed templates in blocks of 1 to 7 rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab import _render


def _texts(fmt: str, values) -> list[str]:
    """Each value's text as its encoder writes it, "%" fallback included."""
    slots = _render._encode(fmt, np.asarray(values))
    return [row[row != _render._PAD].tobytes().decode() for row in slots]


def _around(values) -> list[float]:
    """Each value and its two float64 neighbours."""
    values = np.asarray(values, dtype=np.float64)
    return [*values, *np.nextafter(values, -np.inf),
            *np.nextafter(values, np.inf)]


_POWERS = [float(f"1e{k}") for k in range(-323, 309)]
_SCALES = [10.0**k for k in range(-300, 301, 7)]
# values that %.12g prints in every layout, at each edge of its table path
EDGES = np.array(
    # the fixed/exponent boundaries at X = -5, -4, 11 and 12
    _around([1e-05, 0.0001, 9.9999999999995e-05, 9.99999999999949e-05,
             99999999999.95, 999999999999.4, 999999999999.5, 1e12,
             999999999999.0, 100000000000.0])
    # powers of ten and their neighbours, across the exponent range
    + _around(_POWERS)
    # values that round up across a power of ten, and just do not
    + [m * s for s in _SCALES for m in (9.999999999995, 9.9999999999949,
                                        9.99999999999951, 0.999999999999)]
    # 12-digit near-ties
    + _around([m * s for s in _SCALES for m in (1.234567890125,
                                                 5.000000000005, 1.5)])
    # trailing zeros inside and across the 4-digit groups
    + [1.2301, 120.5, 1000.5, 10000.05, 0.00012, 1.1e-05, 123456.7,
       1200000.0, 100000000001.0, 1.00010001, 2.3e-31, 12345678.9, 0.1,
       1 / 3, 2 / 3, 0.5, 1.5e300, 2.6e-31]
    # integers and signed zeros
    + [1.0, -1.0, 0.0, -0.0, 2.0, 10.0, -100.0, 123456789012.0,
       12345678901.0, 1e11 + 1]
    # subnormals, the ends of the normal range, infinities and nan
    + [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
       1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
       np.nan, -np.nan, 1e-291, 1e-290, 9.99e290, 1e291]
)
EDGES = np.concatenate([EDGES, -EDGES])

INTS = np.array([0, 1, -1, 9, -10, 9999, 10_000, -10_000, 10**12,
                 -(10**12), 10**12 - 1, 2**53 + 1, 2**62, 2**63 - 1,
                 -(2**63), -(2**63) + 1], dtype=np.int64)


def test_general_matches_percent_at_every_edge():
    assert _texts("%.12g", EDGES) == ["%.12g" % v for v in EDGES]


def test_general_fast_path_covers_integers_zeros_and_exponents():
    """The tables print these without "%"; only the named cases fall
    back."""
    covered = np.array([1.0, -1.0, 0.0, -0.0, 2.6e-31, -2.6e-31, 1e-290,
                        9.9e290, 1e20, 1e12, 0.0001, 1e-05, 123.456,
                        1 / 3, 999999999999.6])
    assert _render._general12(covered)[1].all()
    odd = np.array([np.inf, -np.inf, np.nan, 5e-324, 1e-291, 1e292,
                    2.2250738585072014e-308, 999999999999.5, 1.234567890125])
    assert not _render._general12(odd)[1].any()


def test_integers_match_percent_at_every_edge():
    assert _texts("%d", INTS) == ["%d" % v for v in INTS.tolist()]
    top = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    assert _texts("%d", top) == ["%d" % v for v in top.tolist()]
    flags = np.array([True, False])
    assert _texts("%d", flags) == ["1", "0"]


def test_fixed_matches_percent_on_the_general_edges():
    assert _texts("%.2f", EDGES) == ["%.2f" % v for v in EDGES]


def _floats(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random bit patterns, normals at random decades, and EDGES values."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    values = np.where(rng.random(n) < 0.3, bits.view(np.float64),
                      rng.standard_normal(n) * 10.0 ** rng.integers(
                          -40, 40, n))
    where = rng.random(n) < 0.3
    values[where] = rng.choice(EDGES, where.sum())
    return values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(0, 40), block_rows=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_blocks_match_percent_row_by_row(rows, block_rows, seed):
    """Rows of two templates in mixed order, with every slot kind, in
    blocks of 1 to 7 rows."""
    rng = np.random.default_rng(seed)
    templates = ["%.12g,%d;%.2f|%.12g", "[%.12g %d]"]
    columns = [_floats(rng, rows), rng.choice(INTS, rows),
               _floats(rng, rows), _floats(rng, rows)]
    which = rng.integers(0, 2, rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_render, "_BLOCK_ROWS", block_rows)
        blocks = list(_render._blocks(templates, columns, which))
    assert len(blocks) == -(-rows // block_rows)
    # a template with j slots takes the first j columns
    assert b"".join(blocks).decode() == "".join(
        templates[w] % tuple(c[i] for c in columns[:4 - 2 * w]) + "\n"
        for i, w in enumerate(which.tolist()))
