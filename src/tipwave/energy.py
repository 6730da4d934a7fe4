"""Discrete state-space energies and exponential decay-rate fitting.

Each tag names the squared norm of one of the state spaces the
stability analysis works in:

    H1    integral(|f'|^2 + |g|^2) + |eta|^2 / m            (plant)
    H2    integral(|f'|^2 + |g|^2) + beta |f(0)|^2 + |eta|^2 / m
    H     integral(|f'|^2 + |g|^2) + |eta|^2 / (m + alpha a)
    Hbb   integral(|f'|^2 + |g|^2)
    Hbb1  integral(|f'|^2 + |g|^2) + beta |f(0)|^2

The displacement f is taken as the average of the two stored levels and
the velocity g as their backward difference, which collocates both at
the half step t - dt/2 and keeps the estimator second-order accurate
(a conservative run drifts by O(dx^2)).

``energies`` measures one level of a loop's stacked rows, or a block of
levels along any leading axes, with the same array expressions either
way. A block takes 12 full-size array passes, every one of them written
into one of two work buffers of the block's shape: the first holds the
sum of the two levels, then the velocity and then the integrand, the
second the slope and then the trapezoid pairs. A
run records an energy every step, and at a few hundred nodes one call
is mostly fixed per-operation overhead, so an ``EnergyRecorder`` keeps
the recorded levels in a ring and measures them one block at a time. A
block is capped at ``ENERGY_BLOCK_BYTES`` (192 KiB) of levels: 81
levels of 3 x 101 nodes, or 5 of 3 x 1601. The ring and buffers are then
allocated once per run and cost about 0.6 MB at 3 x 1601 nodes (16
levels), while an uncapped block at 1601 nodes would leave the cache,
and per-call temporaries above glibc's 128 KiB mmap threshold would be
mapped and page-faulted afresh on every call. The recorder's buffers
start on a 64-byte boundary, the second at its element 1, so that only
the slope's squaring writes from an unaligned start: on an AVX-512 host,
a NumPy pass whose output did not took up to 2.5x as long.

The passes run in an ``_EnergyPass``, which checks the arguments and
cuts every view the passes use once: the recorder builds one over its
ring and work buffers and measures each full block through it, and
builds a transient one over their first levels for a run's last,
partial block; ``energies`` builds a transient one per call. The
one-sided differences take their end columns in pairs, (0, N), (1, N-1)
and (2, N-2), so both ends cost five small operations, not ten; the far
end's difference comes out negated, which is exact and squares alike.
The boundary terms are added a row's column of levels at a time, a few
array operations a row whatever the block's length, and f(0) is taken
only for tags that read it. Every factor is a 0-d array, as a ufunc
call with a Python float operand costs more for the same bits. On a
2-core AVX-512 Xeon with NumPy 2.4.6 a level of the recorder's 5-level
block at 3 x 1601 nodes took about 24 us, against 25 us when the
boundary terms were added record by record in Python floats, and a
level of an 81-level block at 3 x 101 nodes about 1.95 us, against
2.7 us. On one level those array operations cost more than the floats
did: a single-level ``energies`` call at 3 x 1601 nodes takes about
12 us longer, and a run makes no ``energies`` call.

An ``EnergyTrace`` keeps its records in two float64 columns
(``array('d')``), which the recorder fills a block at a time.
``fit_decay_rate`` fits the least-squares line through (t, ln E) in
closed form, with exact sums: each column is scaled to integers and
split into 20-bit digits, whose products NumPy sums in float64 chunks
small enough to stay exact, and Python ints add up the chunks. The rate
and the log amplitude are each the exact least-squares value, rounded
once. The fit runs no BLAS or LAPACK, NumPy only for exact steps, and
one inexact function, the C library's ``log``. So the fitted digits
depend neither on the OpenBLAS kernel nor on NumPy's SIMD path: they
are the same on any CPU whose C library computes the same logs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .wave_core import Grid, SystemParams, _aligned_empty

if TYPE_CHECKING:
    from array import array

__all__ = ["EnergyTrace", "EnergyRecorder", "NoFitError", "energies", "fit_decay_rate"]

SPACE_TAGS = ("H1", "H2", "H", "Hbb", "Hbb1")
ENERGY_BLOCK_BYTES = 192 * 1024
FIT_DIGIT_BITS = 20  # a decay fit's digit products stay below 2**40, so float64 sums
FIT_CHUNK = 2 ** 13  # of up to 2**13 of them are integers below 2**53: exact


class NoFitError(RuntimeError):
    """Raised when a decay fit has no usable samples."""


def float_column() -> array:
    """An empty float64 column, ``array('d')``, for one series of records.

    ``array`` is imported here, on first use, and not with the package:
    loading its extension module during the package import raised the
    peak RSS of a spectrum run, which makes no column, by up to 0.13 MB,
    though the run allocates the same (allocator layout).
    """
    from array import array

    return array("d")


@dataclass
class EnergyTrace:
    """Time series of one named energy, suitable for decay fitting: two
    float64 columns, ``times`` and ``values``. ``np.asarray`` of a column
    is a view, and while one lives the column cannot grow (BufferError)."""

    CSV_HEADER = "t,E,tag"

    space_tag: str
    times: array = field(default_factory=float_column)
    values: array = field(default_factory=float_column)

    def append(self, t: float, value: float) -> None:
        """Add one sample. A time that is not finite or does not exceed the
        last one, or an energy outside [0, inf), raises ValueError; the
        negated comparisons reject NaN too."""
        last = self.times[-1] if self.times else -math.inf
        if not last < t < math.inf:
            raise ValueError(f"times must be finite and strictly increasing, got {t}")
        if not 0.0 <= value < math.inf:
            raise ValueError(f"energy must be {'nonnegative' if value < 0.0 else 'finite'}, "
                             f"got {value}")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def read_csv(cls, path, space_tag: str) -> EnergyTrace:
        """Read back a run's ``energy_<row>_<tag>.csv``, which its writer
        ``scenarios._RecordWriter`` wrote; a missing header (an empty file
        too), a line that is not UTF-8 or a malformed line raises ValueError
        naming the file and line."""
        trace = cls(space_tag)
        lineno = 1
        with open(path, "rb") as fh:
            try:
                header = fh.readline().decode("utf-8").rstrip("\n")
                if header != cls.CSV_HEADER:
                    raise ValueError(f"expected the header {cls.CSV_HEADER}, got {header!r}")
                for lineno, line in enumerate(fh, start=2):
                    text = line.decode("utf-8").rstrip("\n")
                    fields = text.split(",")
                    if fields[2:] != [space_tag]:
                        raise ValueError(f"expected t,E,{space_tag}, got {text!r}")
                    trace.append(float(fields[0]), float(fields[1]))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
        return trace


def _check_tags(space_tags) -> None:
    for tag in space_tags:
        if tag not in SPACE_TAGS:
            raise ValueError(f"unknown space tag {tag!r}; expected one of {SPACE_TAGS}")


def energies(space_tags, prev, curr, etas, params: SystemParams, grid: Grid,
             work=None) -> list:
    """Discrete energies of stacked rows of levels, in one pass.

    ``prev`` and ``curr`` have shape (..., rows, N+1): one level of a
    stack of rows, or a block of them along any leading axes, with N+1
    the grid's node count. Row i is measured in ``space_tags[i]`` with
    boundary-dynamics state ``etas[..., i]`` (0 where the tag has none).
    f' is differenced centrally at interior nodes and one-sided at the
    ends; the integral is a trapezoid over the nodes. Returns nested
    lists of floats of shape (..., rows). ``work`` is two C-contiguous
    float arrays of the levels' shape, allocated here when not given;
    every full-size array operation writes into them.
    """
    return _EnergyPass(space_tags, prev, curr, work, params, grid)(etas).tolist()


class _EnergyPass:
    """The passes of ``energies`` over fixed levels and work buffers, with
    the arguments checked and every view the passes use cut once, so that
    a call runs only the passes and the boundary terms, a few operations
    per row. Each call measures whatever the levels then hold and returns
    the energies as an array of shape (..., rows), a buffer of the pass
    that the next call overwrites.
    """

    def __init__(self, space_tags, prev, curr, work, params: SystemParams, grid: Grid):
        _check_tags(space_tags)
        shape = prev.shape
        if (curr.shape != shape or len(shape) < 2
                or shape[-2:] != (len(space_tags), grid.n_nodes)):
            raise ValueError(f"levels must both have shape (..., {len(space_tags)}, "
                             f"{grid.n_nodes}), got {prev.shape} and {curr.shape}")
        if work is None:
            work = [np.empty(shape) for _ in range(2)]
        if len(work) != 2 or any(buf.shape != shape or not buf.flags.c_contiguous
                                 for buf in work):
            raise ValueError(f"work buffers must be two C-contiguous arrays of shape {shape}")
        s, fp = work
        n = grid.n_cells
        self.prev, self.curr, self.s, self.fp = prev, curr, s, fp
        self.shape = s.shape[:-1]
        sf, fpf = s.reshape(-1), fp.reshape(-1)
        self.s0 = sf[::n + 1]  # column 0 of every row, as one line
        # central differences over all rows as one line, whose row ends the
        # one-sided differences overwrite; the trapezoid pairs run over all
        # rows as one line too: each row's first column pairs two rows and
        # is left out of the sum
        self.central = sf[2:], sf[:-2], fpf[1:-1]
        self.pairs = sf[1:], sf[:-1], fpf[1:]
        self.body = fp[..., 1:]
        # the end columns in pairs (0, N), (1, N-1) and (2, N-2): the last
        # two pairs are read-only views over s's buffer (a tenth of the cost
        # of as_strided), whose strides of N-2 and N-4 items are 1, 0 or -1
        # on the coarsest grids
        item, lead = s.itemsize, s.strides[:-1]
        second, third = (np.ndarray((*self.shape, 2), s.dtype, s, j * item,
                                    (*lead, (n - 2 * j) * item)) for j in (1, 2))
        second.flags.writeable = third.flags.writeable = False
        self.ends = s[..., 0::n], second, third, fp[..., 0::n]
        # the factors as 0-d arrays: a ufunc call with a Python float operand
        # costs more, for the same bits
        self.factors = tuple(np.array(c) for c in (0.5, -3.0, 4.0, 4.0 * grid.dx,
                                                   grid.dt, grid.dx))
        # the totals and f(0) have fixed buffers, so each boundary term's
        # columns are cut here once: the row, its total and f(0), then beta
        # and the mass, None where the tag has no f(0) or no eta term
        p = params
        kinds = {"H1": (None, p.m), "H2": (p.beta, p.m),
                 "H": (None, p.m + p.alpha * p.a), "Hbb1": (p.beta, None)}
        self.totals, f0 = np.empty(self.shape), np.empty(self.shape)
        self.terms = tuple((i, self.totals[..., i], f0[..., i],
                            *(None if c is None else np.array(c) for c in kinds[tag]))
                           for i, tag in enumerate(space_tags) if tag in kinds)
        # f(0) as one line, taken only when some term reads it
        self.f0 = f0.reshape(-1) if any(term[3] is not None for term in self.terms) else None

    def __call__(self, etas) -> np.ndarray:
        eta_values = np.asarray(etas, dtype=float)
        if eta_values.shape != self.shape:
            raise ValueError(f"etas must have shape {self.shape}, got {eta_values.shape}")
        prev, curr, s, fp = self.prev, self.curr, self.s, self.fp
        half, minus_three, four, scale, dt, dx = self.factors
        # s = 2f; a difference of s over 4*dx is the same difference of f over
        # 2*dx, bit for bit, since halving is exact (a subnormal s rounds, but
        # there f' squares to 0 either way)
        np.add(curr, prev, s)
        if self.f0 is not None:
            np.multiply(half, self.s0, self.f0)
        right, left, mid = self.central
        np.subtract(right, left, mid)
        np.divide(mid, scale, mid)
        # both ends' one-sided differences at once, the far end's negated:
        # that is exact, as rounding is symmetric, and it squares alike. The
        # end columns of s are scratch once the first product has read them
        end, second, third, slope = self.ends
        np.multiply(minus_three, end, slope)
        np.add(slope, np.multiply(four, second, end), slope)
        np.subtract(slope, third, slope)
        np.divide(slope, scale, slope)
        # s is spent: g goes into its buffer
        g = s
        np.subtract(curr, prev, g)
        np.divide(g, dt, g)
        # integrand fp*fp + g*g in g; np.trapezoid's (dx * (y[1:] + y[:-1])) / 2.0
        # in fp[1:], halving by * 0.5, which rounds as / 2.0 does
        np.multiply(fp, fp, fp)
        np.multiply(g, g, g)
        np.add(fp, g, g)
        right, left, pairs = self.pairs
        np.add(right, left, pairs)
        np.multiply(dx, pairs, pairs)
        np.multiply(pairs, half, pairs)
        totals = np.add.reduce(self.body, -1, None, self.totals)
        # the boundary terms, a column of rows at a time, in the operand
        # order of total += beta * f0 * f0 + eta * eta / m
        for i, total, f0, beta, mass in self.terms:
            eta = eta_values[..., i]
            if beta is None:
                total += eta * eta / mass
            elif mass is None:
                total += beta * f0 * f0
            else:
                total += beta * f0 * f0 + eta * eta / mass
        return totals


class EnergyRecorder:
    """Appends one record per step to a loop's energy traces, measuring
    the recorded levels one block at a time.

    ``traces`` holds one trace per row of the loop's stack, in row order,
    each measured in its ``space_tag``. ``prev`` is the stack's level
    before the first recorded one. ``push`` must follow every step: a
    record measures its level against the one pushed before it. A block
    holds as many levels as fit in ``ENERGY_BLOCK_BYTES`` (at least one);
    each full block is measured by the one ``_EnergyPass`` the recorder
    builds over its ring and work buffers, and the partial one at
    ``flush`` by a pass cut over their first levels, so both run the same
    passes. A block's records reach the traces in record order, checked
    as ``EnergyTrace.append`` checks them but once per block.
    """

    def __init__(self, traces, prev, params: SystemParams, grid: Grid):
        self.traces = tuple(traces)
        self.tags = tuple(trace.space_tag for trace in self.traces)
        self.params, self.grid = params, grid
        self.size = max(1, ENERGY_BLOCK_BYTES // prev.nbytes)
        # slot 0 holds the level before the block's first record
        self.ring = np.empty((self.size + 1, *prev.shape))
        self.ring[0] = prev
        self.work = [_aligned_empty((self.size, *prev.shape), lead) for lead in (0, 1)]
        self.block = _EnergyPass(self.tags, self.ring[:-1], self.ring[1:], self.work,
                                 params, grid)
        self.times: list[float] = []
        self.etas: list = []

    def push(self, t: float, level, etas) -> None:
        """Record ``level`` (copied) at time ``t`` with one boundary-dynamics
        state per row."""
        self.times.append(t)
        self.etas.append(etas)
        self.ring[len(self.times)] = level
        if len(self.times) == self.size:
            self.flush()

    def flush(self) -> None:
        """Measure the pending records and append them to the traces."""
        n = len(self.times)
        if not n:
            return
        block = self.block
        if n < self.size:
            block = _EnergyPass(self.tags, self.ring[:n], self.ring[1:n + 1],
                                [buf[:n] for buf in self.work], self.params, self.grid)
        values = block(self.etas)
        times = self.times
        # NumPy's min and max propagate a NaN, so the value check misses none
        if (all(map(operator.lt, times, times[1:])) and times[-1] < math.inf
                and all((trace.times[-1] if trace.times else -math.inf) < times[0]
                        for trace in self.traces)
                and 0.0 <= values.min() and values.max() < math.inf):
            # fromlist sizes a column once; extend would grow it item by item
            for trace, column in zip(self.traces, values.T.tolist()):
                trace.times.fromlist(times)
                trace.values.fromlist(column)
        else:
            # ``append`` raises at the first bad record, in its own words
            for t, row in zip(times, values.tolist()):
                for trace, value in zip(self.traces, row):
                    trace.append(t, value)
        self.ring[0] = self.ring[n]
        self.times.clear()
        self.etas.clear()


def fit_decay_rate(trace: EnergyTrace, window: float = 0.5,
                   t_skip: float = 2.0) -> tuple[float, float]:
    """Least-squares line through (t, ln E) over the tail of a trace.

    ``window`` is the fraction of the time span kept at the tail; the
    first ``t_skip`` time units are always dropped (startup transient).
    Returns (rate, log_amplitude): E ~ exp(log_amplitude + rate * t).
    The energy is quadratic in the state, so the state decays at rate/2.
    Both are the exact least-squares line's, rounded once (see
    ``_fit_log_linear``).
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must lie in (0, 1], got {window}")
    if not len(trace):
        raise NoFitError("no samples")
    t, e = np.asarray(trace.times, dtype=float), np.asarray(trace.values, dtype=float)
    keep = e > 1e-300
    if not keep.any():
        raise NoFitError("all samples excluded (energy below 1e-300)")
    first, last = t[keep][[0, -1]]
    sel = keep & (t >= max(t_skip, first + (1.0 - window) * (last - first)))
    if sel.sum() < 20:
        raise NoFitError(f"need >= 20 samples in window, have {int(sel.sum())}")
    return _fit_log_linear(t[sel], e[sel])


def _fit_log_linear(t, values) -> tuple[float, float]:
    """Least-squares line through (t_i, math.log(values_i)): (slope,
    intercept), needing two distinct times.

    The closed form of the normal equations in exact arithmetic: each
    column is scaled by one power of two to integers, held as 20-bit
    digits (``_digits``); the four sums are exact (``_moment``), and each
    parameter is one correctly rounded int division.
    """
    t = np.asarray(t, dtype=float)
    # a memoryview yields Python floats, with no list of them
    logs = np.fromiter(map(math.log, memoryview(np.asarray(values, dtype=float))), float, t.size)
    (a, ts), (b, ys) = _digits(t), _digits(logs)
    ones = [np.ones(t.size)]
    n, st, sy = t.size, _moment(ts, ones), _moment(ys, ones)
    stt, sty = _moment(ts, ts), _moment(ts, ys)
    den = n * stt - st * st
    # t_i = T_i / 2**a and y_i = Y_i / 2**b: the slope is scaled by
    # 2**(a - b), the intercept by 2**-b
    return (_scaled_ratio(n * sty - st * sy, den, a - b),
            _scaled_ratio(stt * sy - st * sty, den, -b))


def _digits(x) -> tuple[int, list]:
    """(k, digits): the ints X_i = x_i * 2**k as signed base-2**20 digits,
    X_i = sum_j digits[j][i] * 2**(20 j), each digit an integer-valued
    float array. ldexp, trunc and the digit subtractions are exact."""
    exponents = np.frexp(x)[1]
    k = 53 - int(exponents.min())
    bits = int(exponents.max()) + k  # every |X_i| < 2**bits
    if bits > 1024:
        raise NoFitError(f"values spanning 2**{bits - 53} or more cannot be fitted exactly")
    digits = [np.trunc(np.ldexp(x, k - FIT_DIGIT_BITS * j))
              for j in range(-(-bits // FIT_DIGIT_BITS))]
    for low, high in zip(digits, digits[1:]):  # in order: high is still a truncation
        low -= np.ldexp(high, FIT_DIGIT_BITS)
    return k, digits


def _moment(us, vs) -> int:
    """sum_i U_i V_i, exactly, for the ints U and V with digits ``us`` and
    ``vs``: a digit product is below 2**40, so a float64 sum of up to
    ``FIT_CHUNK`` of them is an integer below 2**53, in any order."""
    return sum(int(np.add.reduce(u[i:i + FIT_CHUNK] * v[i:i + FIT_CHUNK]))
               << (FIT_DIGIT_BITS * (j + m))
               for j, u in enumerate(us) for m, v in enumerate(vs)
               for i in range(0, u.size, FIT_CHUNK))


def _scaled_ratio(num: int, den: int, k: int) -> float:
    """num / den * 2**k, correctly rounded (as int / int is)."""
    return (num << k) / den if k >= 0 else num / (den << -k)
