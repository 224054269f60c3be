"""Numbers as text, a whole column at a time: every number in the package's
CSV and SVG files is written here.

A template is text with ``%.2f``, ``%.12g`` and ``%d`` slots. ``_blocks``
fills rows of templates from whole columns, ``_BLOCK_ROWS`` rows at a time,
with the bytes ``template % row`` gives. Each slot's encoder builds every
value of its column as a fixed-width slot of bytes, with ``_PAD`` bytes
wherever the text is shorter; a block's rows are laid out with the
template literals, and the block's pad bytes are dropped at once. A value
that an encoder cannot prove it prints right is printed by ``%`` itself:

- ``%.2f``: rint(|v|·100) from byte tables; ``%`` when |v|·100 lies within
  1e-6 of a half (exact ties such as 0.125 included), or |v| ≥ 9999.995
  (inf and nan included).
- ``%.12g``: the 12 significant digits rint(|v|·10^(11−e)), e the decimal
  exponent of |v|, from byte tables in the ``%g`` layout (fixed notation
  for a printed exponent X in [−4, 12), ``e±XX`` otherwise, trailing zeros
  dropped); ``%`` for inf, nan, |e| > 290 (subnormals included) and a
  scaled value within 1e-3 of a half.
- ``%d``: every int, uint and bool value from byte tables; never ``%``.
"""

from __future__ import annotations

import re
from typing import Iterator, Sequence

import numpy as np

# rows rendered at a time: each block holds a few dozen bytes per value in
# temporaries, and 4,096-row blocks raised a simulate-and-rerun process's
# peak RSS above the per-row formatter's
_BLOCK_ROWS = 2048
# byte dropped from every rendered block; no template contains it
_PAD = 0
_SLOT = re.compile(r"(%\.2f|%\.12g|%d)")
_DOT = ord(".")
_ZERO_TO_NINE = np.arange(10, dtype=np.uint8) + ord("0")
# decimal exponents that %.12g prints from tables; beyond them "%" prints
_EXP_LIMIT = 290


def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """"%.2f" of q / 100 for an integer q < 10**6 is the little-endian
    8-byte word ints[q // 100] | cents[q % 100] | sign: the integer part
    right-aligned in bytes 1-4, then ".cc" in bytes 5-7; byte 0 is left
    for the sign. Built from uint8 digit runs: building them from 10,000
    Python bytes objects left the process 1 MB larger."""
    digits = _ZERO_TO_NINE
    ints = np.full((10_000, 8), _PAD, np.uint8)
    for col, place in zip(range(1, 5), (1000, 100, 10, 1)):
        ints[:, col] = np.tile(np.repeat(digits, place), 1000 // place)
    for col, place in zip(range(1, 4), (1000, 100, 10)):
        ints[:place, col] = _PAD  # leading zeros
    cents = np.full((100, 8), _PAD, np.uint8)
    cents[:, 5] = _DOT
    cents[:, 6], cents[:, 7] = np.repeat(digits, 10), np.tile(digits, 10)
    return ints.view("<u8").ravel(), cents.view("<u8").ravel()


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables by a group w < 10**4 of four digits:

    - for %d, a uint32 per w: its four digits, zero-filled;
    - for %.12g, ten variants of a little-endian 8-byte word per w, at row
      v * 10**4 + w: v = 0 the four digits; v = 1 the four with trailing
      zeros dropped; v = 2-5 the four with a point after digit v - 1;
      v = 6-9 the four with a point after digit v - 5, the trailing zeros
      after it dropped, and the point too when no digit is left after it;
    - for each of the three words of 12 digits, by 3f + t: 10**4 times
      the variant it takes when f is the first digit after the point (0:
      all of them) and the last t words are all zeros; only a word with no
      nonzero digit after it drops zeros.
    """
    digits = np.column_stack([np.tile(np.repeat(_ZERO_TO_NINE, place),
                                      1000 // place)
                              for place in (1000, 100, 10, 1)])
    # zeros[:, c]: digits c to 3 are all zeros
    zeros = np.ones((10_000, 5), bool)
    zeros[:, :4] = np.logical_and.accumulate(digits[:, ::-1] == ord("0"),
                                             axis=1)[:, ::-1]
    stripped = np.where(zeros[:, :4], _PAD, digits)
    points = np.where(zeros, _PAD, _DOT)
    words = np.full((10, 10_000, 8), _PAD, np.uint8)
    words[0, :, :4], words[1, :, :4] = digits, stripped
    for j in range(1, 5):
        for v, point, after in ((j + 1, _DOT, digits),
                                (j + 5, points[:, j], stripped)):
            words[v, :, :j] = digits[:, :j]
            words[v, :, j] = point
            words[v, :, j + 1:5] = after[:, j:]
    variants = np.zeros((3, 13, 3))
    for i, f, t in np.ndindex(variants.shape):
        tail, j = i + t >= 2, f - 4 * i  # j: digits of word i before f
        if j <= 0:
            variants[i, f, t] = 1 if tail else 0
        elif j <= 4:
            variants[i, f, t] = j + 5 if tail else j + 1
    return (digits.view(np.uint32).ravel(), words.view("<u8").ravel(),
            variants.reshape(3, -1) * 10_000.0)


def _exponent_tables():
    """What %.12g needs from |v|'s biased binary exponent b and decimal
    exponent e.

    The binade [2**(b - 1023), 2**(b - 1022)) holds at most one power of
    ten, 10**(d + 1) with d = floor(log10(2**(b - 1023))), so
    e = d + (|v| >= tens[b]); row 0 (zero, subnormals) holds the least
    subnormal and row 2047 (inf, nan) inf. By k = 2b + (|v| >= tens[b]):
    e, 10**(11 - e) and whether the tables print the value: |e| <= 290
    (never in rows 0 and 2047, whose |d| >= 308), or zero; e is 0 and the
    scale 1 where they do not. By X + 291 for a printed exponent X: the
    first digit after the point (0: all of them, after a "0." prefix),
    the prefix's word (bytes 1-5, byte 0 left for the sign) and the
    suffix's."""
    # 10**k for |k| <= 330, correctly rounded (float() of a literal is)
    tens = np.array([float(f"1e{k}") for k in range(-330, 331)])
    d = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.intp)
    exps = (d[:, None] + [0, 1]).ravel()
    fits = np.abs(exps) <= _EXP_LIMIT
    exps[~fits] = 0
    fits[0] = True  # zero
    scales = np.where(fits, tens[11 - exps + 330], 1.0)
    xs = range(-_EXP_LIMIT - 1, _EXP_LIMIT + 2)
    first = np.array([x + 1 if 0 <= x < 12 else 0 if -4 <= x < 0 else 1
                      for x in xs])
    pad = bytes([_PAD])
    prefix = b"".join(pad + (b"0." + b"0" * (-x - 1) if -4 <= x < 0
                             else b"").ljust(7, pad) for x in xs)
    suffix = b"".join((b"" if -4 <= x < 12 else b"e%+03d" % x).ljust(8, pad)
                      for x in xs)
    return (np.concatenate([[5e-324], tens[d[1:-1] + 331], [np.inf]]),
            exps, scales, fits, first, np.frombuffer(prefix, "<u8"),
            np.frombuffer(suffix, "<u8"))


_INTS, _CENTS = _word_tables()
_MINUS = np.uint64(ord("-"))
_DIGITS, _WORDS, _VARIANTS = _digit_tables()
(_TENS, _EXPS, _SCALES, _FITS, _FIRST, _PREFIX,
 _SUFFIX) = _exponent_tables()


def _rows(templates: Sequence[str], values, which=None,
          sep: str = "\n") -> list[str]:
    """Row i is ``templates[which[i]] % tuple(values[i])``; rows are joined
    by sep into blocks of ``_BLOCK_ROWS``, so sep.join of the blocks is the
    whole text.

    A template with j slots takes the first j values of its row, as
    float64. which defaults to template 0 for every row.
    """
    values = np.asarray(values, dtype=np.float64)
    return [block.decode()
            for block in _blocks(templates, values.T, which, sep, len(sep))]


def _blocks(templates: Sequence[str], columns, which=None, sep: str = "\n",
            cut: int = 0) -> Iterator[bytearray]:
    """Blocks of ``_BLOCK_ROWS`` rows as ASCII bytes, each row
    ``(templates[which[i]] + sep) % tuple(c[i] for c in columns)`` and
    each block without its last cut bytes. Slot j of a template takes
    columns[j]."""
    which = (np.zeros(len(columns[0]), np.intp) if which is None
             else np.asarray(which, dtype=np.intp))
    pieces = []
    for template in templates:
        parts = _SLOT.split(template + sep)
        pieces.append(([np.frombuffer(p.encode(), np.uint8)
                        for p in parts[0::2]], parts[1::2]))
    step = _BLOCK_ROWS
    for lo in range(0, len(which), step):
        yield _block(pieces, [c[lo:lo + step] for c in columns],
                     which[lo:lo + step], cut)


def _block(pieces, columns, which: np.ndarray, cut: int) -> bytearray:
    """One block's rows, its last row without its cut bytes."""
    filled = []
    for t, (literals, formats) in enumerate(pieces):
        rows = which == t if len(pieces) > 1 else slice(None)
        slots = _slots(formats, [np.asarray(c)[rows]
                                 for c in columns[:len(formats)]])
        size = sum(map(len, literals)) + sum(s.shape[1] for s in slots)
        filled.append((rows, literals, slots, size))
    width = max(size for *_, size in filled)
    text = bytearray(len(which) * width)  # all pads: _PAD is 0
    out = np.frombuffer(text, np.uint8).reshape(len(which), width)
    for rows, literals, slots, size in filled:
        if len(filled) == 1:
            _fill(out, literals, slots)
        else:  # a masked write per template, not per literal and slot
            part = np.empty((np.count_nonzero(rows), size), np.uint8)
            out[rows, :size] = _fill(part, literals, slots)
    del filled, out  # the slots go before the padless copy is made
    text = text.translate(None, bytes([_PAD]))
    del text[len(text) - cut:]
    return text


def _fill(out: np.ndarray, literals, slots: list[np.ndarray]) -> np.ndarray:
    """out, with the literals and the slots between them laid into its
    leading columns."""
    at = 0
    for j, literal in enumerate(literals):
        if j:
            width = slots[j - 1].shape[1]
            out[:, at:at + width] = slots[j - 1]
            at += width
        out[:, at:at + len(literal)] = literal
        at += len(literal)
    return out


def _slots(formats: list[str], columns) -> list[np.ndarray]:
    """The slots of each format's column; the columns of one format and
    dtype are encoded in one call, which pays numpy's per-call cost once."""
    groups: dict = {}
    for j, (fmt, column) in enumerate(zip(formats, columns)):
        groups.setdefault((fmt, column.dtype), []).append(j)
    slots = [None] * len(formats)
    for (fmt, _), js in groups.items():
        parts = np.split(_encode(fmt, np.concatenate([columns[j] for j in js])),
                         len(js))
        for j, part in zip(js, parts):
            slots[j] = part
    return slots


def _encode(fmt: str, values: np.ndarray) -> np.ndarray:
    """``fmt % v`` of every value, in _PAD-filled rows of one width: the
    encoder's, or the longest value printed by ``%``."""
    slots, exact = _ENCODERS[fmt](values)
    odd = np.flatnonzero(~exact)
    texts = [(fmt % values[i]).encode() for i in odd]
    width = max([slots.shape[1], *map(len, texts)])
    if width > slots.shape[1]:
        slots = np.concatenate(
            [np.full((len(slots), width - slots.shape[1]), _PAD, np.uint8),
             slots], axis=1)
    for i, text in zip(odd, texts):
        slots[i] = np.frombuffer(text.rjust(width, bytes([_PAD])), np.uint8)
    return slots


def _fixed2(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.2f" % v`` of every float64 value in 8-byte slots, and where
    that text is right."""
    mag = np.abs(values)
    fits = mag < 9999.995
    cents = np.where(fits, mag, 0.0) * 100.0
    q = np.rint(cents)
    # |v| * 100 is within 2**-33 of its exact value here, so a distance
    # from a half above 1e-6 rounds to the same integer as "%.2f" does
    exact = fits & (np.abs(cents - q) < 0.5 - 1e-6)
    whole, frac = np.divmod(q.astype(np.intp), 100)
    words = _INTS[whole] | _CENTS[frac] | np.signbit(values) * _MINUS
    slots = words.astype("<u8", copy=False).view(np.uint8)
    return slots.reshape(len(values), 8), exact


def _general12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.12g" % v`` of every value in 40-byte slots (sign and "0.000",
    three digit words, "e+XXX"), and where that text is right."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    mag = np.abs(values)
    b = (bits >> 52) & 0x7FF
    k = 2 * b + (mag >= _TENS.take(b))
    with np.errstate(invalid="ignore"):  # inf and nan
        scaled = mag * _SCALES.take(k)
        q = np.rint(scaled)
        # scaled is |v| * 10**(11 - e), below 1e12, after two roundings of
        # at most 2**-53 each (the power's and the product's), so within
        # 2.3e-4 of it, and a distance from a half above 1e-3 rounds to
        # the same 12 digits as "%.12g" does
        exact = _FITS.take(k) & (np.abs(scaled - q) < 0.5 - 1e-3)
    q = np.fmin(q, 1e12)  # nan and inf too: printed by "%"
    carry = q == 1e12  # rounded up across a power of ten
    q -= carry * 9e11
    x = _EXPS.take(k) + carry + _EXP_LIMIT + 1
    # q < 2**53: each quotient is exact or a correctly rounded non-integer
    hi = np.floor(q / 1e8)
    rest = q - hi * 1e8
    mid = np.floor(rest / 1e4)
    lo = rest - mid * 1e4
    at = 3 * _FIRST.take(x) + (lo == 0) + (rest == 0)
    slots = np.empty((len(values), 5), "<u8")
    slots[:, 0] = _PREFIX.take(x) | (bits < 0) * _MINUS
    for i, w in enumerate((hi, mid, lo)):
        slots[:, 1 + i] = _WORDS.take((_VARIANTS[i].take(at) + w)
                                      .astype(np.intp))
    slots[:, 4] = _SUFFIX.take(x)
    return slots.view(np.uint8), exact


def _integer(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%d" % v`` of every int, uint or bool value in 21-byte slots
    (sign, 20 digits with leading zeros as pads); always right."""
    values = np.asarray(values)
    negative = values < 0
    mag = values.astype(np.uint64)
    mag = np.where(negative, -mag, mag)  # |v| modulo 2**64: int64 min too
    words = []
    for _ in range(5):
        mag, w = np.divmod(mag, np.uint64(10_000))
        words.append(_DIGITS[w.astype(np.intp)])
    digits = np.stack(words[::-1], axis=-1).view(np.uint8)
    led = np.logical_or.accumulate(digits != ord("0"), axis=1)
    led[:, -1] = True
    digits[~led] = _PAD
    sign = np.where(negative, ord("-"), _PAD).astype(np.uint8)
    return (np.concatenate([sign[:, None], digits], axis=1),
            np.ones(len(values), bool))


_ENCODERS = {"%.2f": _fixed2, "%.12g": _general12, "%d": _integer}
