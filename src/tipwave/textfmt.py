"""The bytes of a time-domain run's CSV lines, ``repr``'s text of float64
values found in NumPy a batch of values at a time, with no call per value.

``repr`` prints the shortest decimal that reads back as the same double,
of several such the nearest one, and of two as near the one whose last
digit is even (the rule that Ryu derives: Adams, PLDI 2018). A decimal
reads back as v = m 2**E (m < 2**53) where it lies within ulp(v) / 2 of
v (a quarter ulp below a normal power of two), the ends included where m
is even. Two passes find it.

The window pass takes 0 and 1e-4 <= |v| < 10, where ``repr`` prints no
exponent, with int64 and error-free float arithmetic:

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
  [bottom, top] = [y - floor(w - f), y + floor(w + f)], at most 22 wide.
- If a multiple of 100 lies there, it is the only one and it has the
  fewest digits. Otherwise the nearest multiple of 10 (when one lies
  there) or the nearest integer is the decimal. An x exactly halfway
  between two of them is left to the general pass.
- A power of two has half the gap below it, but those in the window,
  2**-13 ... 2**3, have at most 13 significant digits, and no decimal of
  fewer digits lies within 2**-53 of them relatively: the rule finds
  their exact digits, as ``repr`` does.

The general pass (``shortest``) takes every other value, NaN and +-inf:

- frexp gives p with 2**(p - 1) <= |v| < 2**p, subnormals too, so the
  decade e is floor((p - 1) log10 2) or one more, which one compare with
  the least double at or above 10**(e + 1) settles. x = |v| * 10**k with
  k = 16 - max(e, -308) lies in [1e16, 1e17), but for the subnormals
  below decade -308: their x keeps k = 324, so that the interval,
  2**-1074 * 10**324 = 4.94 wide, holds fewer candidates than 100, and
  the digits found are scaled up to 17.
- 10**k * 2**-s is a pair of doubles hi + lo, each rounded to nearest
  from Python ints at import; s = 128 above 1e200 and -128 below 1e-200
  keep both factors and |v| * 2**s normal and finite. TwoProduct gives
  |v| * 2**s * hi exactly, and |v| * 2**s * lo is rounded. Where 0 <= k
  <= 20, lo is 0 and every sum is exact, as in the window. Elsewhere the
  pair misses 10**k by 2**-106 relatively and each of the sums errs by
  at most 2**-49, so x (< 2**57) is known to within 2**-47 and its ends
  to within 2**-46.5.
- The rule is the window's, on [bottom, top] from the ends x + w and
  x - w (x - w / 2 at a normal power of two), with the even one of two
  equally near candidates, and the next one up where the nearer lies
  below the interval.
- A value whose x lies within 2**-46 of an integer or a half, or an end
  within 2**-46 of an integer, is settled exactly where that is a hit: 2
  x is an integer where 2**-(E + k + 1) divides m (k >= 0) or 5**-k
  divides m (k < 0); an end (2 m +- 1) * 2**(E - 1) * 10**k is an integer
  where E + k >= 1 or 5**-k divides 2 m +- 1, and belongs to the interval
  where m is even. Where 10**k is a double the bound is 0, or 2**-60 for
  k <= 1, where an end can be an integer. A near value that is no hit
  goes to ``_exact``, which decides from Python rationals; no value of
  the tests' corpora or of a benchmark run goes there.

No operation raises a floating-point flag. The window pass writes the
lead digit, with the sign, the leading zeros and the point, from a
240-entry table, and the 16 digits after it as four groups of four from
a 20,000-entry table whose second half leaves a group's trailing zeros
out. The general pass writes the exponent form the same way, and lays
the fixed forms out from it with one ``take`` of each decade's byte
positions, ORing the point and the zeros into NUL bytes.

A NumPy call costs about a microsecond besides its values, so the
writers hand ``_digits`` many values a call: ``texts`` formats a record
chunk's times, energies and boundary states in one call, and
``SnapshotBatches`` queues the snapshots whose values of one field fill
a window pass of ``BATCH_VALUES``, and runs one general pass a batch over
every field's values outside the window. ``lines`` sets texts beside
each other as NUL-padded columns of one byte array, filling the columns
that the files share once, and one ``bytearray.translate`` a file drops
the NULs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

VALUE_WIDTH = 24  # bytes; the longest float repr, "-2.2250738585072014e-308", fills them
# most values a _digits call takes; a snapshot batch holds as many snapshots
# as fit one field's values in a call, one at least
BATCH_VALUES = 2048
GENERAL_VALUES = 1024  # most values a _general call takes: its temporaries add to the peak RSS
_EXPONENT_BITS = 0x7FF0000000000000
_FRACTION_BITS = (1 << 52) - 1


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _group_table():
    """Group g's four digits at g, and at 10000 + g without the trailing zeros."""
    chars = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    chars = chars.reshape(-1, 4)
    # a digit is kept where it, or a digit after it, is not 0
    kept = np.logical_or.accumulate(chars[:, ::-1] != 48, axis=1)[:, ::-1]
    return np.concatenate([chars, chars * kept]).view("<u4")[:, 0]


_GROUPS = _group_table()


def _groups(m):
    """The lead digit of each 17-digit m, the 16 digits after it as four
    groups, and whether all the groups after each group are 0."""
    lead = m // 10 ** 16
    rest = m - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    g2, g4 = high - g1 * 10 ** 4, low - g3 * 10 ** 4
    zero34 = low == 0
    return lead, rest, (g1, g2, g3, g4), (zero34 & (g2 == 0), zero34, g4 == 0, True)


# --- the window pass: 0 and 1e-4 <= |v| < 10 -------------------------------

# the least doubles at or above 1e-3, 1e-2, 0.1, 1 and 10: the decade e of |v|
_BOUNDS = np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
_SCALE = 10.0 ** np.arange(20, 14, -1)  # 10**k, k = 20 - e
_HALF_GAP = _SCALE * 2.0 ** -53  # times 2**floor(log2 |v|): 10**k * ulp(v) / 2
_OUTSIDE = 30.0  # stands in for 0 and for values outside the window: decade 5
_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)
# the sign, the leading zeros, the lead digit a and the point of decade e at
# 120 s + 60 d + 10 e + a, where s is the sign bit and d is 1 for a single
# digit; decade 5 holds 0
_LEADS = np.array([
    (f"{sign}0.0" if e == 5 else
     f"{sign}{('0.000', '0.00', '0.0', '0.', '')[e]}{a}{('.0' if d else '.') if e == 4 else ''}")
    .encode().ljust(8, b"\0")
    for sign in ("", "-") for d in (0, 1) for e in range(6) for a in range(10)
]).view("<u8")


def _inside(values):
    """Whether each value lies in the window, 1e-4 <= |v| < 10, and whether
    it lies there or is 0."""
    mag = np.abs(values)
    inside = (mag >= 1e-4) & (mag < 10.0)
    return inside, inside | (mag == 0.0)


def _window(v, text, inside):
    """Write the text of each value of ``v`` that is ``inside`` the window,
    or 0, into its row of ``text``; return the indices of the exact ties,
    which it leaves."""
    mag = np.where(inside, np.abs(v), _OUTSIDE)
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
    # x = 100 h + y + f: the rule runs on the small integers y, top and bottom
    xi = x.astype(np.int64)
    h = xi // 100
    y = (xi - 100 * h) + carry
    del x, x_err, carry, xi
    top, bottom = y + np.floor(w + f), y - np.floor(w - f)
    hundred = np.floor(top * 0.01) * 100.0
    step = np.where(np.floor(top * 0.1) * 10.0 >= bottom, 10.0, 1.0)
    down = np.floor(y / step) * step
    # x - down = y - down + f: the nearest multiple rounds up where 2 f > half
    twice_f, half = f + f, step - 2.0 * (y - down)
    m = 100 * h + np.where(hundred >= bottom, hundred, down + step * (twice_f > half)).astype(np.int64)
    ties = np.flatnonzero(twice_f == half)
    del top, bottom, hundred, step, down, twice_f, half, y, h
    a, rest, groups, zeros = _groups(m)
    text[:, :8].view("<u8")[:, 0] = _LEADS[a + 10 * e + 60 * (rest == 0) + 120 * np.signbit(v)]
    into = text[:, 8:].view("<u4")
    for i in range(4):
        into[:, i] = _GROUPS[groups[i] + 10000 * zeros[i]]
    return ties


def _general_pass(values):
    """The texts of ``values`` from the general pass, GENERAL_VALUES a call,
    and the indices of those whose decisions ``_exact`` made."""
    # imported at first use, so that its compile and this module's do not
    # add up in the peak RSS
    from .shortest import _general

    text = np.empty((len(values), VALUE_WIDTH), np.uint8)
    slow = [start + _general(values[start:start + GENERAL_VALUES], text[start:start + GENERAL_VALUES])
            for start in range(0, len(values), GENERAL_VALUES)]
    return text, np.concatenate(slow or [[]]).astype(np.intp)


def _digits(values, text, masks=None, general=None):
    """Write ``repr``'s bytes of each of the float64 ``values``, NUL-padded,
    into its row of ``text`` (uint8, VALUE_WIDTH bytes a row at any
    stride): the window pass, BATCH_VALUES values a call, then the general
    pass over the values it leaves. ``masks`` are the values' ``_inside``
    masks, and ``general`` the texts of those outside the window, when a
    caller has them. Return the indices of the values whose decisions
    ``_exact`` made."""
    inside, done = _inside(values) if masks is None else masks
    ties = [start + _window(values[start:start + BATCH_VALUES], text[start:start + BATCH_VALUES],
                            inside[start:start + BATCH_VALUES])
            for start in range(0, len(values), BATCH_VALUES)]
    left = np.flatnonzero(~done)
    if general is not None:
        text[left] = general
        left = left[:0]
    left = np.concatenate([left, *ties])
    if not left.size:
        return left
    rows, slow = _general_pass(values[left])
    text[left] = rows
    return left[slow]


def texts(*arrays):
    """``repr``'s bytes of every value of ``arrays`` (of float64), NUL-padded,
    found in one pass: for each array a, a uint8 array of shape
    a.shape + (VALUE_WIDTH,)."""
    arrays = [np.asarray(a, np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    text = np.empty((flat.size, VALUE_WIDTH), np.uint8)
    _digits(flat, text)
    ends = np.cumsum([a.size for a in arrays])[:-1]
    return [part.reshape(*a.shape, VALUE_WIDTH) for a, part in zip(arrays, np.split(text, ends))]


def lines(shape, *columns):
    """Yield the lines of ``columns`` for each file in turn, one line for
    each element of ``shape``. A column is bytes that every line holds,
    NUL-padded texts of shape (..., width) as ``texts`` returns them, which
    broadcast to ``shape``, or a list of such columns of one width, one for
    each file. A shared column is filled once, a file's own in its turn,
    and one ``bytearray.translate`` drops a file's NULs."""
    parts = [[np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c
              for c in (column if isinstance(column, list) else [column])] for column in columns]
    ends = list(itertools.accumulate(part[0].shape[-1] for part in parts))
    buffer = bytearray(math.prod(shape) * ends[-1])
    line = np.frombuffer(buffer, np.uint8).reshape(*shape, ends[-1])
    slots = [line[..., start:end] for start, end in zip([0, *ends], ends)]
    for i in range(max(map(len, parts))):
        for slot, part in zip(slots, parts):
            if i < len(part):
                slot[...] = part[i]
        yield buffer.translate(None, b"\0")


class SnapshotBatches:
    """The lines ``t,x_j,repr(v_j)\\n`` of a run's snapshots over the nodes
    x, one file a field. ``add`` queues a copy of a snapshot; a batch of
    ``size`` snapshots, the most whose values of one field fill one call of
    the window pass (one at least), goes out in one write a file, and
    ``flush`` writes the rest. The time and node columns are filled once a
    batch, and one general pass takes every field's values outside the
    window."""

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
        if not self.times:
            return
        stamps = _column([f"{t!r}," for t in self.times])
        values = self.values[:, :len(self.times)].reshape(len(self.files), -1)
        inside, done = _inside(values)
        rows = np.split(_general_pass(values[~done])[0], np.cumsum((~done).sum(axis=1))[:-1])
        start, end = stamps.shape[1], stamps.shape[1] + self.nodes.shape[1]
        buffer = bytearray(values.shape[1] * (end + VALUE_WIDTH + 1))
        line = np.frombuffer(buffer, np.uint8).reshape(len(self.times), len(self.nodes), -1)
        line[:, :, :start] = stamps[:, None]
        line[:, :, start:end] = self.nodes
        line[:, :, -1] = ord("\n")
        text = line[:, :, end:-1].reshape(-1, VALUE_WIDTH)
        for fh, v, masks, general in zip(self.files, values, zip(inside, done), rows):
            _digits(v, text, masks, general)
            fh.write(buffer.translate(None, b"\0"))
        self.times.clear()


def _column(strings):
    """ASCII strings as a column of NUL-padded texts, as wide as the longest."""
    column = np.array([text.encode() for text in strings])
    return column.view(np.uint8).reshape(len(strings), column.itemsize)
