"""textfmt writes ``repr``'s bytes for every float64, and settles every
corpus below without its exact slow path."""

import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipwave import shortest, textfmt
from tipwave.textfmt import VALUE_WIDTH, SnapshotBatches, _digits, texts

N = 100_000


def assert_reprs(values, slow_path=False):
    """The writer's bytes for ``values`` at one node and time are repr's,
    with no floating-point flag raised on the way, and (unless
    ``slow_path``) no value was left to the exact slow path."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not slow_path:
        assert slow_share(values) == 0
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


def slow_share(values):
    """Share of ``values`` whose decisions ``_digits`` left to ``_exact``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = np.zeros((len(values), VALUE_WIDTH), np.uint8)
    with np.errstate(all="raise"):
        return len(_digits(values, text)) / len(values)


def ulp_neighbours(centres, k):
    """The doubles 1..k ulps below and above each of ``centres``, and the
    centres, positive and finite."""
    bits = np.asarray(centres, dtype=np.float64).view(np.int64)
    bits = (bits[:, None] + np.arange(-k, k + 1)).ravel()
    return bits[(bits > 0) & (bits < 0x7FF0000000000000)].view(np.float64)


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    assert_reprs(rng.integers(-2 ** 63, 2 ** 63 - 1, N, dtype=np.int64).view(np.float64))


def test_signed_log_uniform():
    rng = np.random.default_rng(2)
    values = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-5, np.log10(20), N)
    assert_reprs(values)
    inside = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 10)]
    assert slow_share(inside) < 1e-3


def test_rounded_decimals():
    """Short reprs: 0 to 18 decimals, so every digit count turns up."""
    rng = np.random.default_rng(3)
    values = [round(v, d) for v, d in zip(rng.uniform(-10, 10, N).tolist(),
                                          rng.integers(0, 19, N).tolist())]
    assert_reprs(values)
    values = np.array(values)
    # repr writes powers of two (0.5, 1.0, 8.0, ...) and +-10.0
    power_of_two = np.abs(np.frexp(values)[0]) == 0.5
    assert slow_share(values[~power_of_two & (np.abs(values) < 10)]) < 1e-3


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
    assert slow_share(values) == 0


POWERS_OF_TWO = [2.0 ** n for n in range(-13, 4)]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-4, 9.999999999999999e-05,
           9.999999999999998, 10.0, 7e-05, 3.0, -5.0, 9.0, 0.3, 0.5, 2.0, 1.0, 0.1,
           1.5, 2.5, 0.25, 1e-300, 1.7976931348623157e308, -2.2250738585072014e-308]


def test_special_values():
    assert_reprs(SPECIAL + POWERS_OF_TWO + [-v for v in POWERS_OF_TWO])
    assert slow_share([0.0, -0.0, 3.0, -5.0, 0.3, 1e-4, 9.999999999999998]
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


def test_powers_of_ten_over_the_whole_range():
    """1e-323 ... 1e308 and 40 ulps either side: the decade changes there,
    1e17 ... 1e22 and 1e23 are doubles or round to one exactly halfway, and
    an end of the read-back interval can be an integer."""
    values = ulp_neighbours([float(f"1e{j}") for j in range(-323, 309)], 40)
    assert_reprs(values)
    assert_reprs(-values)


def test_powers_of_two_over_the_whole_range():
    """2**-1074 ... 2**1023 and 40 ulps either side: the gap below a normal
    power of two is half the gap above, and 2**-25 lies exactly halfway
    between two 17-digit decimals."""
    assert_reprs(ulp_neighbours([2.0 ** j for j in range(-1074, 1024)], 40))


def test_ends_of_the_range():
    """The subnormals from 5e-324 up, either side of the least normal
    double, and the doubles up to the largest."""
    largest = np.finfo(np.float64).max
    values = np.concatenate([np.arange(1, 3000).view(np.float64),
                             ulp_neighbours([2.2250738585072014e-308], 3000),
                             ulp_neighbours([largest], 3000)])
    assert_reprs(values)
    assert_reprs(-values)


def test_switches_between_fixed_and_exponent_form():
    values = ulp_neighbours([1e-4, 1e16], 3000)
    assert_reprs(values)
    assert_reprs(-values)


def test_signed_log_uniform_over_the_whole_range():
    rng = np.random.default_rng(8)
    values = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-323, 308, N)
    assert_reprs(values)


@pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
def test_nan_and_infinities(value):
    (text,) = texts(np.array([value, 1.5]))
    assert text.tobytes().replace(b"\0", b"") == f"{value!r}1.5".encode()


def test_exact_slow_path(monkeypatch):
    """With a wide error bound most values lie near a decision: the exact
    hits are settled in place and the rest by ``_exact``, with repr's
    bytes either way."""
    wide = np.where(shortest._ERROR > 0, 0.2, 0.0)
    monkeypatch.setattr(shortest, "_ERROR", wide)
    rng = np.random.default_rng(9)
    values = rng.integers(0, 0x7FF0000000000000, 20_000, dtype=np.int64).view(np.float64)
    values = np.concatenate([values, ulp_neighbours([1e17, 1e20, 2.0 ** -25], 3)])
    assert_reprs(values, slow_path=True)
    assert slow_share(values) > 0.5


def test_tables_raise_no_flag():
    """The general pass's tables are built at its first use, which may come
    under np.errstate(all="raise"): building them raises no flag."""
    code = ("import numpy as np\nimport tipwave.textfmt as t\n"
            "with np.errstate(all='raise'):\n"
            "    print(t.texts(np.array([5e-324, 1e300]))[0].tobytes().replace(b'\\0', b'').decode())\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(textfmt.__file__))}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert result.stdout.split() == ["5e-3241e+300"]
