"""The general pass of ``textfmt``: ``repr``'s bytes of any double, found
in NumPy a batch of values at a time. ``textfmt``'s docstring gives the
argument; ``textfmt`` imports this module at the first value that its
window pass leaves."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .textfmt import _EXPONENT_BITS, _FRACTION_BITS, _GROUPS, VALUE_WIDTH, _groups, _split

_LOG10_2 = 0.30102999566398120
_DECADES = range(-324, 309)  # the decade e of every finite double but 0
_POWERS = range(-324, 325)


def _by_decade(values):
    """A table over _DECADES that is indexed by e itself: NumPy reads a
    negative index from the end."""
    return np.roll(np.asarray(values), _DECADES.start, axis=0)


def _powers():
    """10**j * 2**-s for each j of _POWERS as the sum of two doubles hi +
    lo, each rounded to nearest from Python ints, and s: 128 past 10**200,
    -128 below 10**-200, else 0, so that they and the |v| * 2**s they
    multiply stay normal and finite."""
    tens = list(itertools.accumulate(range(-_POWERS.start), lambda p, _: p * 10, initial=1))
    hi, lo, shift = [], [], []
    for j in _POWERS:
        s = 128 if j > 200 else -128 if j < -200 else 0
        num, den = (tens[j] << max(-s, 0), 1 << s) if j >= 0 else (1 << max(-s, 0), tens[-j])
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
        shift.append(s)
    return np.array(hi), np.array(lo), np.array(shift)


_POWER_HI, _POWER_LO, _POWER_SHIFT = _powers()
_K = 16 - np.maximum(np.array(_DECADES), -308)  # x = |v| * 10**k
_HI, _LO = _by_decade(_POWER_HI[_K + 324]), _by_decade(_POWER_LO[_K + 324])
_HI_HIGH, _HI_LOW = _split(_HI)
_SHIFT_SCALE = _by_decade(np.ldexp(1.0, _POWER_SHIFT[_K + 324]))
_UNIT = _SHIFT_SCALE * 2.0 ** -53  # times 2**max(E + 52, -1022): ulp(v) / 2 * 2**s
# the least double at or above 10**(e + 1): 10**j rounded to nearest, or the
# next double where that lies below it; the subnormal ones from Python ints
_NEXT_BOUND = _by_decade([
    *(math.ldexp(-(-2 ** 1074 // 10 ** -j), -1074) for j in range(-323, -307)),
    *np.ldexp(np.where(_POWER_LO > 0, np.nextafter(_POWER_HI, np.inf), _POWER_HI)[17:-16],
              _POWER_SHIFT[17:-16]),  # 10**-307 ... 10**308
    math.inf])
# the bound of the error of x and of its interval's ends: 0 where 10**k is a
# double and every sum is exact; 2**-60 where an end can be an integer, so
# that it is settled as one
_ERROR = _by_decade(np.where((_K >= 2) & (_K <= 20), 0.0,
                             np.where((_K >= 0) & (_K <= 20), 2.0 ** -60, 2.0 ** -46)))
_NORMALIZE = _by_decade(10 ** np.maximum(-308 - np.array(_DECADES), 0))
_POW5 = 5 ** np.minimum(np.arange(293), 27)  # 5**27 divides no m
# the exponent of decade e at a text's bytes 19-23, as the last of bytes 16-23
_EXPONENTS = _by_decade([f"\0\0\0e{e:+03d}".encode().ljust(8, b"\0") for e in _DECADES]).view("<u8")
# the sign, the lead digit a and the point of the exponent form at 20 s +
# 10 d + a, where s is the sign bit and d is 1 for a single digit
_HEADS = np.array([f"{sign}{a}{'' if d else '.'}".encode().ljust(8, b"\0")
                   for sign in ("\0", "-") for d in (0, 1) for a in range(10)]).view("<u8")


def _layouts():
    """The fixed forms of decades -4 ... 15, laid out from a text in the
    exponent form: each form's source byte at each of its bytes (byte 23
    is NUL there), and what it ORs in: a point, the zeros before the
    point and a zero after it where no digit follows."""
    rows, masks = [], []
    digits = [1, *range(3, 19)]  # the 17 digits
    for e in range(-4, 16):
        mask = np.zeros(VALUE_WIDTH, np.uint8)
        if e < 0:  # 0.000ddd
            row = [0, 23, 23, *[23] * (-e - 1), *digits]
            mask[1:2 - e] = ord("0")
            mask[2] = ord(".")
        else:  # ddd.ddd
            row = [0, *digits[:e + 1], 23, *digits[e + 1:]]
            mask[2:e + 4] = ord("0")
            mask[e + 2] = ord(".")
        rows.append(row + [23] * (VALUE_WIDTH - len(row)))
        masks.append(mask)
    return np.array(rows, np.intp), np.array(masks)


_LAYOUTS, _MASKS = _layouts()
_SPECIALS = np.array([b"nan", b"inf", b"-inf"], f"S{VALUE_WIDTH}").view(np.uint8).reshape(3, -1)


def _exact(m, E, e):
    """The decimal that ``_general``'s rule picks for v = m 2**E of decade
    e, as an integer at x's scale, found from exact rationals."""
    from fractions import Fraction  # imported here: few runs reach this path

    k = 16 - max(e, -308)
    x = Fraction(m * 10 ** max(k, 0), 10 ** max(-k, 0)) * Fraction(2) ** E
    w = Fraction(10) ** k * Fraction(2) ** (E - 1)
    below = w / 2 if m == 1 << 52 and E > -1074 else w
    top, bottom = math.floor(x + w), math.ceil(x - below)
    if m % 2:  # the interval is open
        top -= top == x + w
        bottom += bottom == x - below
    step = 100 if top // 100 * 100 >= bottom else 10 if top // 10 * 10 >= bottom else 1
    down = math.floor(x / step) * step
    twice = 2 * (x - down)
    pick = down + step * (twice > step or twice == step and down // step % 2 == 1)
    return pick + step * (pick < bottom)


def _settle(near, bits, e, f, top_end, bottom_end):
    """Settle the ``near`` values, those that lie within the error bound of
    a decision: an x that is exactly an integer or a half, an end that is
    exactly an integer (shut where m is even) take that value. Return the
    indices, m and E of the others, whose decisions ``_exact`` makes."""
    bits = bits[near]
    exponent = bits >> 52
    m = (bits & _FRACTION_BITS) | (exponent > 0).astype(np.int64) << 52
    E = np.maximum(exponent, 1) - 1075
    k = _K[e[near] - _DECADES.start]
    p5 = _POW5[np.maximum(-k, 0)]
    r = m % p5
    # x = m 2**E 10**k: 2 x is an integer where 2**-(E + k + 1) divides m
    # (k >= 0) or 5**-k divides m (k < 0); an end (2 m +- 1) 2**(E - 1)
    # 10**k is one where E + k >= 1, or 5**-k divides 2 m +- 1
    t = np.clip(-(E + k + 1), 0, 62)
    halves = np.where(k >= 0, (m & -m) >= np.left_shift(1, t), r == 0)
    regular = (m != 1 << 52) | (exponent <= 1)
    top_exact = np.where(k >= 0, E + k >= 1, 2 * r + 1 == p5)
    bottom_exact = np.where(k >= 0, E + k >= 2 - regular, regular & (2 * r - 1 == p5))
    err = _ERROR[e[near]]
    x, top, bottom = f[near] * 2, top_end[near], bottom_end[near]
    at_x = np.abs(x - np.rint(x)) < err + err
    at_top = np.abs(top - np.rint(top)) < err
    at_bottom = np.abs(bottom - np.rint(bottom)) < err
    f[near] = np.where(at_x & halves, np.rint(x) * 0.5, f[near])
    shut = (m & 1) * 0.5  # floor and ceil step past an end that is not shut
    top_end[near] = np.where(at_top & top_exact, np.rint(top) - shut, top)
    bottom_end[near] = np.where(at_bottom & bottom_exact, np.rint(bottom) + shut, bottom)
    slow = (at_x & ~halves) | (at_top & ~top_exact) | (at_bottom & ~bottom_exact)
    return near[slow], m[slow], E[slow]


def _general(v, text):
    """Write the text of each value of ``v`` (float64, not 0) into its row
    of ``text``; return the indices of the values whose decisions
    ``_exact`` made."""
    mag = np.abs(v)
    special = np.flatnonzero(~(mag < np.inf))  # NaN, +-inf
    if special.size:
        mag[special] = 1.0
    bits = mag.view(np.int64)
    # the decade e, and x = |v| 10**k = y + s, s = c + f
    d = np.floor(np.frexp(mag)[1] * _LOG10_2 - _LOG10_2).astype(np.intp)
    e = d + (mag >= _NEXT_BOUND[d])
    mag = mag * _SHIFT_SCALE[e]
    mag_high, mag_low = _split(mag)
    hi, hi_high, hi_low, lo = _HI[e], _HI_HIGH[e], _HI_LOW[e], _LO[e]
    x = mag * hi
    x_err = ((mag_high * hi_high - x) + mag_high * hi_low + mag_low * hi_high) + mag_low * hi_low
    y = np.floor(x)
    s = (x_err + mag * lo) + (x - y)
    c = np.floor(s)
    f = s - c
    # the interval's ends x + w and x - w, less y + c
    unit = np.maximum(bits & _EXPONENT_BITS, 1 << 52).view(np.float64) * _UNIT[e]
    w_hi, w_lo = unit * hi, unit * lo
    top_end = (f + w_hi) + w_lo
    below = np.where(bits & _FRACTION_BITS, 1.0, 0.5)  # 2**-1022 reads the same either way
    bottom_end = (f - w_hi * below) - w_lo * below
    del mag_high, mag_low, hi, hi_high, hi_low, lo, x, x_err, s, unit, w_hi, w_lo, below
    # the values within the error bound of a decision
    ends = np.stack((top_end, bottom_end, f + f))
    off = np.abs(ends - np.rint(ends))
    off[2] *= 0.5
    near = np.flatnonzero((off < _ERROR[e]).any(axis=0))
    del ends, off
    slow = _settle(near, bits, e, f, top_end, bottom_end) if near.size else (near,)
    # the window's rule, on x = 100 hundreds + y + f
    yi = y.astype(np.int64)
    hundreds = yi // 100
    y = (yi - 100 * hundreds) + c
    top, bottom = y + np.floor(top_end), y + np.ceil(bottom_end)
    step = np.where(np.floor(top * 0.01) * 100.0 >= bottom, 100.0,
                    np.where(np.floor(top * 0.1) * 10.0 >= bottom, 10.0, 1.0))
    q = np.floor(y / step)
    down = q * step
    twice_f, half = f + f, step - 2.0 * (y - down)
    up = (twice_f > half) | ((twice_f == half) & (np.floor(q * 0.5) * 2.0 != q))
    pick = down + step * up
    pick += step * (pick < bottom)
    m = 100 * hundreds + pick.astype(np.int64)
    for i, mi, E in zip(*(a.tolist() for a in slow)):
        m[i] = _exact(mi, E, int(e[i]))
    if e.min() < -308:
        m *= _NORMALIZE[e]
    carry = m == 10 ** 17
    if carry.any():
        m[carry] = 10 ** 16
        e = e + carry
    a, rest, groups, zeros = _groups(m)
    text[:, 16:].view("<u8")[:, 0] = _EXPONENTS[e]
    text[:, :8].view("<u8")[:, 0] = _HEADS[a + 10 * (rest == 0) + 20 * np.signbit(v)]
    into = text[:, 3:19].view("<u4")  # the digits after the lead digit, over the head's NULs
    for i in range(4):
        into[:, i] = _GROUPS[groups[i] + 10000 * zeros[i]]
    fixed = np.flatnonzero((e >= -4) & (e < 16))
    if fixed.size:
        form = e[fixed] + 4
        at = _LAYOUTS[form] + np.arange(0, fixed.size * VALUE_WIDTH, VALUE_WIDTH)[:, None]
        text[fixed] = text[fixed].take(at) | _MASKS[form]
    if special.size:
        s = v[special]
        text[special] = _SPECIALS[(s == s) * (1 + np.signbit(s))]
    return slow[0]
