"""The exact numpy cell formatter behind :func:`errorkit.dataset.write_table`.

:func:`format_block` writes a block of rows, one cell per column under
its format (``%g`` or ``%.Nf``), with the bytes ``%`` writes and a NaN
cell empty.  The exact formatter writes a block whose every cell is
inside its window; any other block is written by one ``%`` over its
cells.  The window holds NaN and the finite cells that are

* for ``%.Nf``: ``N`` of 11 or less and ``|x| * 10**N`` below ``2**52``;
* for ``%g``: printed in fixed form, not in exponent form.

Each cell is ``|x|`` scaled by a power of ten and rounded to an integer
``k`` with ``np.rint``: the product is exact but where it lands on a
half, and there Dekker's exact product error says which side of the
half the exact value lies, so ``k`` is the correctly rounded value
``%`` prints, ties to even.  ``%g`` scales by ``10**(5 - e)`` for the
exponent ``e`` that ``log10`` gives, corrected where ``k`` falls
outside ``[10**5, 10**6)``.

A column is laid out in fixed-width fields of bytes: sign, integer
digits, point, fraction digits, separator.  The digits are gathered
four at a time from a table of the 10**4 four-digit groups, viewed as
uint32.  A byte the cell does not print (a plus sign, a leading zero,
a trailing zero and point that ``%g`` strips, every byte of a NaN cell)
is NUL, and one pass over the block's bytes drops them all.

The tables are built when this module is imported, which
:mod:`errorkit.dataset` does on its first write.
"""

from __future__ import annotations

import numpy as np


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into halves of 26 bits, ``hi + lo == a``:
    the products of two doubles' halves are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POWERS = np.array([float(10**p) for p in range(17)])
_HI, _LO = _split(_POWERS[:12])

# The renderings of each four-digit group, at these offsets of _GROUPS:
# every digit, leading zeros NUL, leading zeros but the last NUL,
# trailing zeros NUL.
_ALL, _LEAD, _UNITS, _TRAIL = 0, 10_000, 20_000, 30_000
_groups = np.empty((4, 10_000, 4), np.uint8)
for _j in range(4):
    # Digit j of i steps every 10**(3 - j) values of i; it is a leading
    # zero if i < 10**(3 - j), a trailing one if 10**(4 - j) divides i.
    _groups[:, :, _j] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10**(3 - _j)),
                                10**_j)
    _groups[1:3 if _j < 3 else 2, :10**(3 - _j), _j] = 0
    _groups[3, ::10**(4 - _j), _j] = 0
_GROUPS = _groups.view(np.uint32).ravel()
del _groups, _j


def _rounded(ax: np.ndarray, p) -> np.ndarray:
    """``ax * 10**p`` rounded half to even from its exact value, the
    digits ``%`` prints; ``ax >= 0`` and ``ax * 10**p < 2**52``, ``p``
    an int or an int array in 0..11."""
    y = ax * _POWERS[p]
    k = np.rint(y)
    off = y - k
    tie = np.flatnonzero(np.abs(off, out=off) == 0.5)
    if tie.size:
        # The product sits on a half; the sign of its rounding error
        # says which side the exact value is on.
        yt = y[tie]
        pt = p[tie] if np.ndim(p) else p
        ah, al = _split(ax[tie])
        err = ((ah * _HI[pt] - yt) + ah * _LO[pt] + al * _HI[pt]) + al * _LO[pt]
        k[tie] = np.where(err == 0, k[tie], np.floor(yt) + (err > 0))
    return k


def _scaled(ax: np.ndarray, fmt: str):
    """``(k, decimals)``: each cell of ``fmt`` prints the digits of the
    integer-valued float ``k`` with the last ``decimals`` of them after
    the point (``%g`` then strips trailing zeros); None if a cell is
    outside the exact window."""
    if fmt != "%g":
        decimals = int(fmt[2:-1])
        if decimals > 11 or not float(ax.max()) * 10**decimals < 2**52:
            return None
        return _rounded(ax, decimals), decimals
    # %g keeps six significant digits, k in [10**5, 10**6) at scale p,
    # and prints in fixed form for p in 0..9.  0 is printed at p = 0.
    nonzero = ax != 0
    e = np.log10(ax, out=np.full(len(ax), 5.0), where=nonzero)
    if not e.max() < 6:
        return None
    p = (5.0 - np.maximum(np.floor(e, out=e), -5.0, out=e)).astype(np.intp)
    k = _rounded(ax, p)
    while True:
        low = (k < 1e5) & nonzero
        fix = np.flatnonzero(low | (k >= 1e6))
        if not fix.size:
            break
        p[fix] += np.where(low[fix], 1, -1)
        if not 0 <= p[fix].min() <= p[fix].max() <= 10:
            return None
        k[fix] = _rounded(ax[fix], p[fix])
    decimals = int(p.max())
    if decimals > 9:
        return None
    k *= _POWERS[decimals - p]
    return k, decimals


def _put_digits(dest: np.ndarray, value: np.ndarray, strip: int) -> None:
    """Write ``value``, integer-valued floats below ``10**dest.shape[1]``
    that it overwrites, into ``dest`` as ASCII digits: with leading
    zeros NUL but the last digit if ``strip`` is _UNITS, trailing zeros
    NUL if it is _TRAIL, every digit if it is _ALL."""
    n, digits = dest.shape
    below_zero = True
    # Four-digit groups from the last: a group takes the stripped
    # rendering while every group above it (for _UNITS) or below it
    # (for _TRAIL) is zero.
    for end in range(digits, 0, -4):
        above = None
        if end > 4:
            above = value / 10_000.0
            np.floor(above, out=above)
            value -= above * 10_000.0
        if strip == _UNITS:
            value += (_UNITS if end == digits else _LEAD) * (True if above is None else above == 0)
        elif strip == _TRAIL:
            zero = value == 0
            value += below_zero * _TRAIL
            below_zero = below_zero & zero
        text = _GROUPS[value.astype(np.intp)].view(np.uint8).reshape(n, 4)
        # Byte column by byte column: a copy of whole rows of a few
        # bytes is several times slower.
        for j in range(max(end - 4, 0), end):
            dest[:, j] = text[:, j + 4 - end]
        value = above


def format_block(formats, columns) -> bytes:
    """The lines of a block, one cell per column under its format, each
    line ended by a newline: by the exact formatter, or by ``%`` if a
    cell is outside its window."""
    lines = _exact_lines(formats, columns)
    return _percent_lines(formats, columns) if lines is None else lines


def _percent_lines(formats, columns) -> bytes:
    """The lines of a block by one ``%`` over its cells, one line
    template repeated per row: the path for a block with a cell outside
    the exact window."""
    cells = np.column_stack(columns)
    text = (",".join(formats) + "\n") * len(cells) % tuple(cells.ravel().tolist())
    # % prints NaN as "nan", which no finite or infinite cell holds.
    return text.replace("nan", "").encode()


def _exact_lines(formats, columns) -> bytes | None:
    """:func:`format_block`'s lines by the exact formatter; None if a
    cell is outside its window."""
    cells = []
    for fmt, x in zip(formats, columns):
        blank = np.isnan(x)
        scaled = _scaled(np.abs(np.where(blank, 0.0, x) if blank.any() else x), fmt)
        if scaled is None:
            return None
        k, decimals = scaled
        cells.append((fmt, x, blank, k, decimals, len(str(int(k.max()) // 10**decimals))))
    out = np.zeros((len(columns[0]), sum(3 + c[-2] + c[-1] for c in cells)), np.uint8)
    at = 0
    for fmt, x, blank, k, decimals, digits in cells:
        cell = out[:, at:at + 3 + digits + decimals]
        at += cell.shape[1]
        cell[:, 0][np.signbit(x)] = ord("-")
        if decimals:
            whole = k / _POWERS[decimals]
            np.floor(whole, out=whole)
            fraction = np.subtract(k, whole * _POWERS[decimals], out=k)
            _put_digits(cell[:, 1:1 + digits], whole, _UNITS)
            if fmt == "%g":
                cell[:, 1 + digits] = np.where(fraction == 0, 0, ord("."))
                _put_digits(cell[:, 2 + digits:-1], fraction, _TRAIL)
            else:
                cell[:, 1 + digits] = ord(".")
                _put_digits(cell[:, 2 + digits:-1], fraction, _ALL)
        else:
            _put_digits(cell[:, 1:1 + digits], k, _UNITS)
        if blank.any():
            cell[blank] = 0
        cell[:, -1] = ord(",")
    out[:, -1] = ord("\n")
    # Drop the layout before the compaction copies it.
    del cells
    text = out.tobytes()
    del out
    return text.translate(None, b"\0")
