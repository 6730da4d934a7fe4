"""The bytes of ``t,x_j,repr(v_j)`` snapshot lines, a row of float64 values
at a time, with ``repr``'s digits found in NumPy.

``repr`` prints the shortest decimal that reads back as the same double,
and of several such the nearest one (the rule that Ryu derives: Adams,
PLDI 2018). For 0 and for 1e-4 <= |v| < 10, where ``repr`` prints no
exponent, ``_digits`` finds those digits exactly, with int64 and
error-free float arithmetic:

- The decade e of |v| counts the bounds 1e-3, 1e-2, 0.1 and 1 that |v|
  reaches. Each bound is the least double at or above its power of ten,
  so e is exact, x = |v| * 10**k (k = 20 - e <= 20) lies in [1e16, 1e17),
  and no decimal of fewer digits carries x to 1e17. 10**k is an exact
  double, and Dekker's TwoProduct gives x exactly, as an int64 y plus a
  fraction f in [0, 1).
- Every x' within w = 10**k * ulp(v) / 2 of x reads back as v. The two
  ends x -+ w are odd multiples of 2**(k + E - 1), where E = log2 ulp(v)
  and k + E - 1 < 0, so no integer is an end: it does not matter whether
  the interval is closed. w - f and w + f are multiples of 2**-47 below
  2**5, so both are exact, and the integers in the interval are
  [top - width, top], with top = y + floor(w + f) and width = floor(w - f)
  + floor(w + f) <= 22.
- If a multiple of 100 lies there, it is the only one and it has the
  fewest digits: top - top % 100. Otherwise the nearest multiple of 10
  (when one lies there) or the nearest integer is the decimal.
- A power of two has half the gap below it, but those in the window,
  2**-13 ... 2**3, have at most 13 significant digits, and no decimal of
  fewer digits lies within 2**-53 of them relatively: the rule finds
  their exact digits, as ``repr`` does.

Whatever this does not settle goes through ``repr``: a value outside the
window, NaN and +-inf, and an x exactly halfway between two multiples of
10 (or of 1, where no multiple of 10 lies in the interval), where
``repr`` takes the even one. No operation raises a floating-point flag.

The 17 digits go out as the lead digit, with the sign, the leading zeros
and the point, from a 240-entry table, and as four groups of four from a
20,000-entry table whose second half leaves a group's trailing zeros
out. The lines sit NUL-padded in a byte array, and one
``bytearray.translate`` per row drops the NULs.
"""

from __future__ import annotations

import numpy as np

# the least doubles at or above 1e-3, 1e-2, 0.1, 1 and 10: the decade e of |v|
_BOUNDS = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
_SCALE = 10.0 ** np.arange(20, 14, -1)  # 10**k, k = 20 - e
_HALF_GAP = _SCALE * 2.0 ** -53  # times 2**floor(log2 |v|): 10**k * ulp(v) / 2
_EXPONENT_BITS = 0x7FF0000000000000
_OUTSIDE = 30.0  # stands in for 0 and for values outside the window: decade 5


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)


def _group_table():
    """Group g's four digits at g, and at 10000 + g without the trailing zeros."""
    g = np.arange(10000, dtype=np.uint16)[:, None]
    chars = (g // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + 48
    # a digit is kept where it, or a digit after it, is not 0
    kept = g % np.array([10000, 1000, 100, 10], np.uint16) != 0
    return np.concatenate([chars, np.where(kept, chars, 0)]).view("<u4")[:, 0]


_GROUPS = _group_table()
# the sign, the leading zeros, the lead digit a and the point of decade e at
# 120 s + 60 d + 10 e + a, where s is the sign bit and d is 1 for a single
# digit; decade 5 holds 0
_LEADS = np.array([
    (f"{sign}0.0" if e == 5 else
     f"{sign}{('0.000', '0.00', '0.0', '0.', '')[e]}{a}{('.0' if d else '.') if e == 4 else ''}")
    .encode().ljust(8, b"\0")
    for sign in ("", "-") for d in (0, 1) for e in range(6) for a in range(10)
]).view("<u8")
VALUE_WIDTH = 24  # bytes; the longest float repr, "-2.2250738585072014e-308", fills them


def _digits(v, lead, groups):
    """Write each value's text, NUL-padded, into ``lead`` (one uint64 a
    value) and ``groups`` (four uint32 a value); return the indices of the
    values whose text ``repr`` must write."""
    mag = np.abs(v)
    zero = mag == 0.0
    inside = (mag >= 1e-4) & (mag < 10.0)
    mag = np.where(inside, mag, _OUTSIDE)
    e = _BOUNDS.searchsorted(mag, "right")
    x = mag * _SCALE[e]
    mag_high, mag_low = _split(mag)
    scale_high, scale_low = _SCALE_HIGH[e], _SCALE_LOW[e]
    x_err = (((mag_high * scale_high - x) + mag_high * scale_low + mag_low * scale_high)
             + mag_low * scale_low)
    # temporaries go as soon as they are used: a row's working set adds to the peak RSS
    del mag_high, mag_low, scale_high, scale_low
    bits = mag.view(np.int64)
    w = (bits & _EXPONENT_BITS).view(np.float64) * _HALF_GAP[e]
    carry = np.floor(x_err)
    f = x_err - carry
    y = x.astype(np.int64) + carry.astype(np.int64)
    del x, x_err, carry
    above = np.floor(w + f)
    width = np.floor(w - f) + above
    top = y + above.astype(np.int64)
    hundreds = top % 100
    by_hundred = hundreds <= width
    step = np.where(top % 10 <= width, 10, 1)
    r = y % step
    # x % step = r + f: the nearest multiple rounds up where 2 f > step - 2 r
    twice_f, half_up = f + f, step - 2 * r
    m = np.where(by_hundred, top - hundreds, y - r + step * (twice_f > half_up))
    by_repr = np.flatnonzero(~(inside | zero) | (twice_f == half_up))
    del above, width, top, hundreds, by_hundred, step, r, twice_f, half_up, y
    a, rest = np.divmod(m, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    g1, g2 = np.divmod(high, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    zero4, zero34 = g4 == 0, low == 0
    zero234 = zero34 & (g2 == 0)
    lead[:] = _LEADS[a + 10 * e + 60 * (rest == 0) + 120 * np.signbit(v)]
    groups[:, 0] = _GROUPS[g1 + 10000 * zero234]
    groups[:, 1] = _GROUPS[g2 + 10000 * zero34]
    groups[:, 2] = _GROUPS[g3 + 10000 * zero4]
    groups[:, 3] = _GROUPS[g4 + 10000]
    return by_repr


class SnapshotLines:
    """The lines ``t,x_j,repr(v_j)\\n`` of snapshot rows over the nodes x."""

    def __init__(self, x):
        texts = [f"{xj!r},".encode() for xj in x.tolist()]
        nodes = np.array(texts, dtype=f"S{max(map(len, texts))}")
        self.nodes = nodes.view(np.uint8).reshape(len(texts), nodes.itemsize)

    def __call__(self, t: float, rows):
        """Yield the bytes of each row in turn: the time and node columns
        are filled once, and each row writes only its values."""
        stamp = f"{t!r},".encode()
        n, prefix = self.nodes.shape[0], len(stamp) + self.nodes.shape[1]
        buffer = bytearray(n * (prefix + VALUE_WIDTH + 1))
        line = np.frombuffer(buffer, np.uint8).reshape(n, -1)
        line[:, :len(stamp)] = np.frombuffer(stamp, np.uint8)
        line[:, len(stamp):prefix] = self.nodes
        line[:, -1] = ord("\n")
        text = line[:, prefix:-1]
        lead, groups = text[:, :8].view("<u8")[:, 0], text[:, 8:].view("<u4")
        for values in rows:
            by_repr = _digits(values, lead, groups)
            if by_repr.size:
                texts = [repr(v).encode() for v in values[by_repr].tolist()]
                text[by_repr] = np.array(texts, dtype=f"S{VALUE_WIDTH}").view(np.uint8).reshape(
                    -1, VALUE_WIDTH)
            yield buffer.translate(None, b"\0")
