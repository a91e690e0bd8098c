"""A run's CSV bytes.  ``cells`` writes ``"%.16e" % x`` for a whole float64
array with numpy, each value a NUL-padded row of ``SLOT`` bytes, and
``emit`` gathers a file's rows of cells, a separator in each last byte.

For |x| in [1e-280, 1e280], with k = floor(log10 |x|), the 17 significant
digits are N = round(|x| * 10**(16 - k)).  The product is Dekker's exact
double-double product (Numer. Math. 18, 224, 1971) of |x| with 10**(16 - k)
held as hi + lo, on Veltkamp-split halves because numpy has no fused
multiply-add; its fraction is good to about 1e-14.  N's digits are copied from
a table of 4-digit groups into a NUL-padded byte grid.  A cell this cannot
prove exact is formatted by Python: NaN, ±inf, |x| outside that range (±0
excepted) and a product within ``TIE_MARGIN`` of a rounding tie.

The margin is far above the product's error.  Once k is final the product
is below 1e17 + 1 < 2**57, so an ulp of hi is at most 16.  Dekker's terms
and sums are exact, so before its last term lo is a * hi(10**p) - hi
exactly, at most 8 in size.  The rest is rounded: a * lo(10**p), below
2**-53 * 2**57 = 16, costs at most 16 * 2**-53 < 2e-15, adding it to a sum
below 24 at most 32 * 2**-53 < 4e-15, and holding 10**p as hi + lo leaves a
relative error of 2**-106, under 2e-15 on the product; rint and the
subtraction are exact.  The fraction's error is thus below 8e-15, and 1e-9
is 1e5 times that, so only a fraction within 1e-9 of 0.5 could round N the
wrong way.  For uniformly spread fractions that is 2e-9 of the cells, about
1e-4 cells per default run of about 36k, so Python formats almost none.
"""
from __future__ import annotations

import functools

import numpy as np

#: |x| range of the vectorized path; its split products stay normal doubles
FAST_MIN, FAST_MAX = 1e-280, 1e280
#: bytes per cell: the widest "%.16e" text, "-d.<16 digits>e-ddd", and a separator
SLOT = 25
#: a product this close to a rounding tie goes to Python: 1e5 times its error
TIE_MARGIN = 1e-9
#: cells formatted at once, which bounds the formatter's temporaries
BLOCK_VALUES = 2048


@functools.cache
def _pow10(p: int) -> tuple[float, float]:
    """10**p as hi + lo: hi the double nearest to it, lo the double nearest to
    the rest, both from exact integer arithmetic."""
    if p >= 0:
        hi = float(10**p)
        return hi, float(10**p - int(hi))
    hi = 1 / 10**-p
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-p) / (den * 10**-p)


@functools.cache
def _four_digits() -> np.ndarray:
    """The ASCII bytes of "0000" .. "9999", each viewed as one uint32."""
    ascii_digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    return np.ascontiguousarray(ascii_digits).view(np.uint32).ravel()


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split x = hi + lo into 26-bit halves, whose products are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round(a * 10**(16 - k)) as int64, and the product minus N.

    The product must stay below 1e18; its fraction is good to 1e-14."""
    p = 16 - k
    base = int(p.min())
    his, los = np.array([_pow10(q) for q in range(base, int(p.max()) + 1)]).T
    ten_hi, ten_lo = his[p - base], los[p - base]
    hi = a * ten_hi
    a1, a2 = _split(a)
    t1, t2 = _split(ten_hi)
    lo = (((a1 * t1 - hi) + a1 * t2 + a2 * t1) + a2 * t2) + a * ten_lo
    rounded = np.rint(lo)
    return hi.astype(np.int64) + rounded.astype(np.int64), lo - rounded


def fallback(x: float) -> str:
    """Python's formatting, for the cells the vectorized path cannot prove."""
    return "%.16e" % x


def cells(x: np.ndarray) -> np.ndarray:
    """The "%.16e" bytes of each value of x, NUL-padded to SLOT - 1 bytes, in
    a uint8 array of shape x.shape + (SLOT,) whose last byte is left 0."""
    flat = x.ravel()
    a = np.abs(flat)
    zero = a == 0
    fast = zero | ((a >= FAST_MIN) & (a <= FAST_MAX))  # False for NaN and inf
    safe = np.where(fast & ~zero, a, 1.0)
    k = np.floor(np.log10(safe)).astype(np.int64)
    n, frac = _scaled(safe, k)
    # log10 can miss floor(log10 a) by one next to a power of ten: move k
    # until 1e16 <= a * 10**(16 - k), and below 1e17 unless it rounds up to it
    below = (n < 10**16) | ((n == 10**16) & (frac < 0))
    step = (n > 10**17).astype(np.int64) - below
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        n[moved], frac[moved] = _scaled(safe[moved], k[moved])
    carry = n == 10**17  # 9.99...95e(k) rounds to 1.0e(k + 1)
    n[carry] = 10**16
    k += carry
    fast &= (n >= 10**16) & (n < 10**17) & (np.abs(np.abs(frac) - 0.5) > TIE_MARGIN)
    n[zero] = 0
    k[zero] = 0

    digits = _four_digits()
    head, tail = np.divmod(n, 10**8)
    lead, head = np.divmod(head, 10**8)
    grid = np.zeros((flat.size, SLOT), np.uint8)
    grid[:, 0] = np.where(np.signbit(flat), ord("-"), 0)
    grid[:, 1] = lead + ord("0")
    grid[:, 2] = ord(".")
    groups = np.stack(np.divmod(head, 10**4) + np.divmod(tail, 10**4), axis=1)
    grid[:, 3:19] = digits[groups].view(np.uint8)
    grid[:, 19] = ord("e")
    grid[:, 20:24] = digits[np.abs(k)].view(np.uint8).reshape(-1, 4)
    grid[:, 20] = np.where(k < 0, ord("-"), ord("+"))
    grid[:, 21] *= np.abs(k) >= 100  # two exponent digits below 100
    for i in np.flatnonzero(~fast):
        text = fallback(float(flat[i])).encode()
        grid[i, :-1] = 0
        grid[i, :len(text)] = np.frombuffer(text, np.uint8)
    return grid.reshape(x.shape + (SLOT,))


def emit(tables: dict[str, tuple[list[str], list[np.ndarray | None]]]
         ) -> dict[str, bytes]:
    """Each table, a header and its (n,) or (n, k) float columns, as ASCII
    CSV bytes, formatting each distinct column once.

    A cell is the bytes of ``"%.16e" % x`` (which round-trips float64), and a
    None column is an empty cell.  Every column vector is keyed by its bytes,
    so bitwise-equal vectors share their cells across all the tables, while
    0.0 and -0.0 stay apart.  The distinct vectors are formatted end to end in
    blocks of ``BLOCK_VALUES`` cells, and each file gathers its rows of cells
    from them.  Nothing is kept between calls.
    """
    firsts: dict[bytes, int] = {}  # vector bytes -> its first row of cells
    total = 1  # row 0 of the cells is the empty cell
    layouts = {}
    for name, (header, columns) in tables.items():
        rows = next(len(column) for column in columns if column is not None)
        starts = []  # per CSV column, its first row of cells
        for column in columns:
            if column is None:
                starts.append(0)
                continue
            array = np.asarray(column, dtype=float).reshape(rows, -1)
            for j in range(array.shape[1]):
                key = array[:, j].tobytes()
                if key not in firsts:
                    firsts[key] = total
                    total += rows
                starts.append(firsts[key])
        layouts[name] = header, rows, np.array(starts)
    values = np.frombuffer(b"".join(firsts), dtype=float)
    del firsts  # its keys are a second copy of the values
    grid = np.zeros((total, SLOT), np.uint8)
    for start in range(0, len(values), BLOCK_VALUES):
        stop = start + BLOCK_VALUES  # both slices end at the last value
        grid[1 + start:1 + stop] = cells(values[start:stop])
    del values

    files = {}
    for name, (header, rows, starts) in layouts.items():
        separators = np.full(len(starts), ord(","), np.uint8)
        separators[-1] = ord("\n")
        parts = [",".join(header).encode("ascii") + b"\n"]
        block = max(1, BLOCK_VALUES // len(starts))
        for first in range(0, rows, block):
            offsets = np.arange(first, min(first + block, rows))[:, None]
            # every row of an empty column reads row 0
            part = np.take(grid, starts + offsets * (starts > 0), axis=0)
            part[..., -1] = separators
            parts.append(part.tobytes().translate(None, b"\0"))  # NUL padding goes
        files[name] = b"".join(parts)
    return files
