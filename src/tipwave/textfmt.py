"""The bytes of a time-domain run's CSV lines, ``repr``'s text of float64
values found in NumPy a batch of values at a time.

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
out. A call of ``_digits`` costs a few dozen NumPy calls, about 55 us
besides its values, so the writers hand it up to ``BATCH_VALUES`` values a
call: ``texts`` formats a record chunk's times, energies and boundary
states in one pass, and ``SnapshotBatches`` queues the snapshots whose
values of one field fill a call. ``lines`` sets the texts beside each
other as NUL-padded columns of one byte array, filling the columns that
the files share once, and one ``bytearray.translate`` a file drops the
NULs.
"""

from __future__ import annotations

import itertools
import math

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
# most values a _digits call takes; a snapshot batch holds as many snapshots
# as fit one field's values in a call, one at least
BATCH_VALUES = 2048


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


def _fill(values, text) -> None:
    """Write ``repr``'s bytes of each of the float64 ``values``, NUL-padded,
    into a row of ``text`` (uint8, VALUE_WIDTH bytes a row at any stride),
    ``_digits`` taking up to BATCH_VALUES of them a call: its temporaries
    add to the peak RSS."""
    for start in range(0, len(values), BATCH_VALUES):
        part, into = values[start:start + BATCH_VALUES], text[start:start + BATCH_VALUES]
        by_repr = _digits(part, into[:, :8].view("<u8")[:, 0], into[:, 8:].view("<u4"))
        if by_repr.size:
            reprs = [repr(v).encode() for v in part[by_repr].tolist()]
            into[by_repr] = np.array(reprs, f"S{VALUE_WIDTH}").view(np.uint8).reshape(
                -1, VALUE_WIDTH)


def texts(*arrays):
    """``repr``'s bytes of every value of ``arrays`` (of float64), NUL-padded,
    found in one pass: for each array a, a uint8 array of shape
    a.shape + (VALUE_WIDTH,)."""
    arrays = [np.asarray(a, np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    text = np.empty((flat.size, VALUE_WIDTH), np.uint8)
    _fill(flat, text)
    ends = np.cumsum([a.size for a in arrays])[:-1]
    return [part.reshape(*a.shape, VALUE_WIDTH) for a, part in zip(arrays, np.split(text, ends))]


def lines(shape, *columns):
    """Yield the lines of ``columns`` for each file in turn, one line for
    each element of ``shape``. A column is bytes that every line holds,
    NUL-padded texts of shape (..., width) as ``texts`` returns them, which
    broadcast to ``shape``, float64 values of the whole shape, whose texts go
    straight into the lines, or a list of such columns of one width, one
    for each file. A shared column is filled once, a file's own in its turn,
    and one ``bytearray.translate`` drops a file's NULs."""
    parts = [[np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c
              for c in (column if isinstance(column, list) else [column])] for column in columns]
    floats = [part[0].dtype == np.float64 for part in parts]
    ends = list(itertools.accumulate(VALUE_WIDTH if is_float else part[0].shape[-1]
                                     for part, is_float in zip(parts, floats)))
    buffer = bytearray(math.prod(shape) * ends[-1])
    line = np.frombuffer(buffer, np.uint8).reshape(-1, ends[-1])
    slots = [line[:, start:end] for start, end in zip([0, *ends], ends)]
    for i in range(max(map(len, parts))):
        for slot, part, is_float in zip(slots, parts, floats):
            if i < len(part) and is_float:
                _fill(part[i].ravel(), slot)
            elif i < len(part):
                slot.reshape(*shape, slot.shape[1])[...] = part[i]
        yield buffer.translate(None, b"\0")


class SnapshotBatches:
    """The lines ``t,x_j,repr(v_j)\\n`` of a run's snapshots over the nodes
    x, one file a field. ``add`` queues a copy of a snapshot; a batch of
    ``size`` snapshots, the most whose values of one field ``_digits`` takes
    in one call (one at least), goes out in one write a file, and ``flush``
    writes the rest. The time and node columns are filled once a batch."""

    def __init__(self, files, x):
        self.files, self.nodes = files, _column([f"{xj!r}," for xj in x.tolist()])
        self.size = max(1, BATCH_VALUES // len(x))
        self.values = np.empty((len(files), self.size, len(x)))
        self.times = []

    def add(self, t: float, rows) -> None:
        self.values[:, len(self.times)] = tuple(rows)
        self.times.append(t)
        if len(self.times) == self.size:
            self.flush()

    def flush(self) -> None:
        if self.times:
            stamps = _column([f"{t!r}," for t in self.times])[:, None]
            values = self.values[:, :len(self.times)]
            texts = lines(values.shape[1:], stamps, self.nodes, list(values), b"\n")
            for fh, text in zip(self.files, texts):
                fh.write(text)
            self.times.clear()


def _column(strings):
    """ASCII strings as a column of NUL-padded texts, as wide as the longest."""
    column = np.array([text.encode() for text in strings])
    return column.view(np.uint8).reshape(len(strings), column.itemsize)
