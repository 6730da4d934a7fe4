"""textfmt writes ``repr``'s bytes for every float64, and settles the
window's values without ``repr``."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipwave.textfmt import VALUE_WIDTH, SnapshotBatches, _digits

N = 100_000


def assert_reprs(values):
    """The writer's bytes for ``values`` at one node and time are repr's,
    with no floating-point flag raised on the way."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = io.BytesIO()
    with np.errstate(all="raise"):
        batches = SnapshotBatches([out], np.zeros(len(values)))
        batches.add(0.5, [values])
        batches.flush()
    got = out.getvalue()
    want = "".join([f"0.5,0.0,{v!r}\n" for v in values.tolist()]).encode()
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} lines differ, first {bad[:5]}")


def by_repr_share(values):
    """Share of ``values`` whose text the digit rule leaves to repr."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = np.zeros((len(values), VALUE_WIDTH), np.uint8)
    by_repr = _digits(values, text[:, :8].view("<u8")[:, 0], text[:, 8:].view("<u4"))
    return len(by_repr) / len(values)


def ulp_neighbours(centres, k):
    """The doubles 1..k ulps below and above each of ``centres``, and the centres."""
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)
    steps = np.arange(-k, k + 1)
    return (bits[:, None] + steps).ravel().view(np.float64)


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    assert_reprs(rng.integers(-2 ** 63, 2 ** 63 - 1, N, dtype=np.int64).view(np.float64))


def test_signed_log_uniform():
    rng = np.random.default_rng(2)
    values = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-5, np.log10(20), N)
    assert_reprs(values)
    inside = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 10)]
    assert by_repr_share(inside) < 1e-3


def test_rounded_decimals():
    """Short reprs: 0 to 18 decimals, so every digit count turns up."""
    rng = np.random.default_rng(3)
    values = [round(v, d) for v, d in zip(rng.uniform(-10, 10, N).tolist(),
                                          rng.integers(0, 19, N).tolist())]
    assert_reprs(values)
    values = np.array(values)
    # repr writes powers of two (0.5, 1.0, 8.0, ...) and +-10.0
    power_of_two = np.abs(np.frexp(values)[0]) == 0.5
    assert by_repr_share(values[~power_of_two & (np.abs(values) < 10)]) < 1e-3


def test_ulp_neighbours_of_short_decimals():
    """d * 10**e for d < 300 and 17 ulps either side of it: the decimal
    rounds to a double, and a read-back interval may end near a short
    decimal, or a short decimal lie near the middle of two."""
    centres = [float(f"{d}e{e}") for d in range(1, 300) for e in range(-8, 2)]
    assert_reprs(ulp_neighbours(centres, 17))


def test_ulp_neighbours_of_powers_of_ten():
    """The decade bounds 1e-4 ... 10, with 1 and 10 most of all, where the
    decade changes and the gap halves."""
    assert_reprs(ulp_neighbours([1.0, 10.0], 25_000))
    assert_reprs(ulp_neighbours([1e-4, 1e-3, 1e-2, 0.1], 1000))


def test_exact_ties():
    """Odd j / 2**s whose exact decimal, j * 5**s, has 17 or 18 digits: many
    lie exactly halfway between the two nearest shortest decimals, where
    repr takes the even one."""
    rng = np.random.default_rng(6)
    values = []
    for s in range(1, 80):
        low = max(-(-10 ** 16 // 5 ** s), -(-2 ** s // 10 ** 4))
        high = min(10 ** 18 // 5 ** s, 10 * 2 ** s, 2 ** 53)
        if low < high:
            values += [(int(j) | 1) / 2 ** s for j in rng.integers(low, high, 500)]
    assert_reprs(values)
    assert by_repr_share(values) > 0.1


POWERS_OF_TWO = [2.0 ** n for n in range(-13, 4)]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-4, 9.999999999999999e-05,
           9.999999999999998, 10.0, 7e-05, 3.0, -5.0, 9.0, 0.3, 0.5, 2.0, 1.0, 0.1,
           1.5, 2.5, 0.25, 1e-300, 1.7976931348623157e308, -2.2250738585072014e-308]


def test_special_values():
    assert_reprs(SPECIAL + POWERS_OF_TWO + [-v for v in POWERS_OF_TWO])
    assert by_repr_share([0.0, -0.0, 3.0, -5.0, 0.3, 1e-4, 9.999999999999998]
                         + POWERS_OF_TWO) == 0


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_raw_bit_patterns(patterns):
    assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(1e-4, 10.0, exclude_max=True), min_size=1, max_size=64),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_window_values(values, negative):
    assert_reprs(np.negative(values) if negative else values)
