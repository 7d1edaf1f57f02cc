"""The cell formatter against Python's ``%``.

``format_block`` must write, byte for byte, what ``%`` writes for every
cell, a NaN cell empty.  Its exact path must do so for a block whose
every cell is inside its window, and refuse (return None for) a block
that holds any cell outside it: a ``%g`` cell that ``%`` prints in
exponent form, a ``%.Nf`` cell with ``N > 11`` or ``|x| * 10**N`` of
2**52 or more, an infinite cell.  The cells are drawn from a pool of
edges (signed zeros, halves at the last kept digit, carries, the ``%g``
form edges, the 2**52 edge, subnormals, the largest doubles, NaN and
the infinities), their neighbours, and any double.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errorkit._cellformat import _exact_lines, format_block

FORMATS = ["%g", "%.4f", "%.6f", *(f"%.{n}f" for n in range(2, 13))]


def _pool():
    rng = np.random.default_rng(30)
    pool = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1e308,
            math.nan, math.inf, -math.inf]
    # %g: the edges of the fixed form, halves and carries at the sixth
    # significant digit.
    pool += [1e-4, 1e-5, 1e6, 999999.5, 99999.95, 9.999995, 0.00009999995]
    for e in range(-6, 8):
        pool += [(float(k) + 0.5) * 10.0**(e - 5) for k in rng.integers(10**5, 10**6, 4)]
        pool.append(10.0**e * (1 - 5e-7))
    for n in range(13):
        scale = 10.0**-n
        # Halves at the last kept digit, decimal and exactly binary.
        pool += [(float(k) + 0.5) * scale for k in rng.integers(0, 10**6, 4)]
        pool += [(2 * float(k) + 1) / 2.0**j for k, j in zip(rng.integers(0, 10**4, 4),
                                                             rng.integers(1, 12, 4))]
        # Carries, and the 2**52 edge of the %.Nf window.
        pool += [10 - 0.5 * scale, 1 - 0.5 * scale, 2.0**52 * scale]
    pool += [-v for v in pool]
    return pool


POOL = _pool()


def _nudge(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


cells = st.one_of(
    st.builds(_nudge, st.sampled_from(POOL), st.integers(-2, 2)),
    st.floats(),
)


def _in_window(fmt, value):
    if math.isnan(value):
        return True
    if not math.isfinite(value):
        return False
    if fmt == "%g":
        return "e" not in fmt % value
    decimals = int(fmt[2:-1])
    return decimals <= 11 and abs(value) * 10**decimals < 2**52


def _percent(fmt, values):
    return "".join(("" if math.isnan(v) else fmt % v) + "\n" for v in values).encode()


@settings(max_examples=2000)
@given(fmt=st.sampled_from(FORMATS), values=st.lists(cells, min_size=1, max_size=6))
@example(fmt="%g", values=[999999.5])
@example(fmt="%g", values=[math.nextafter(999999.5, 0.0), 123456.5, -0.0, 0.0])
@example(fmt="%g", values=[0.00009999995, math.nextafter(1e-4, 0.0)])
@example(fmt="%.4f", values=[0.00005, 2.675, 0.125, -0.00001, 99999.99995])
@example(fmt="%.4f", values=[2.0**52 / 10**4])
def test_each_cell_is_what_percent_prints(fmt, values):
    want = _percent(fmt, values)
    assert format_block([fmt], [np.array(values)]) == want
    exact = _exact_lines([fmt], [np.array(values)])
    assert exact == (want if all(_in_window(fmt, v) for v in values) else None)


@settings(max_examples=200)
@given(
    formats=st.lists(st.sampled_from(FORMATS[:-1]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-4, 5),
    blanks=st.booleans(),
)
def test_a_line_is_its_cells_joined(formats, seed, exponent, blanks):
    rng = np.random.default_rng(seed)
    n = 300
    columns = [rng.standard_normal(n) * 10.0**exponent for _ in formats]
    for c in columns:
        short = rng.random(n) < 0.3
        c[short] = np.round(c[short], 3)
    if blanks:
        columns[-1][rng.random(n) < 0.4] = math.nan
    cells = [[("" if math.isnan(v) else f % v) for v in c.tolist()]
             for f, c in zip(formats, columns)]
    want = "".join(",".join(row) + "\n" for row in zip(*cells)).encode()
    assert format_block(formats, columns) == want
    exact = _exact_lines(formats, columns)
    in_window = all(_in_window(f, v) for f, c in zip(formats, columns) for v in c.tolist())
    assert exact == (want if in_window else None)
