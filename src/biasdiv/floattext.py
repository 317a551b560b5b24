"""CSV rows of counterexamples as bytes, every float written as Python's
`repr` writes it, computed in numpy for a block of rows at a time.

`repr` prints the shortest decimal that reads back as the same double, the
one closest to it when several are that short, the even one on a tie.
`shortest_digits` finds those digits with Giulietti's Schubfach algorithm
("The Schubfach way to render doubles", 2020, as in the JDK's
`DoubleToDecimal`), which needs only 64-bit integer products and a table of
126-bit powers of ten. The digits are computed in `uint64` and exponents
and the layout in `int64`, converted explicitly: no operation mixes the
two, which numpy would promote to `float64`, and no result depends on how
a numpy version promotes Python integers.

`csv_rows` then lays the digits out as `repr` does in fixed notation:
every field of a row is a run of 4-byte words looked up in one table
(digit groups, digit groups with their leading or trailing zeros as NUL,
separators), and dropping the NUL bytes leaves the row's text. Values that
`repr` prints in exponent notation (|x| < 1e-4 or >= 1e16), subnormals and
non-finite values are rare in normalized data; a row holding one is written
with `repr` itself.

Imported only by the CSV writer, so `import biasdiv` does not load it; the
tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = 0xFFFF_FFFF
_M63 = 0x7FFF_FFFF_FFFF_FFFF
_K_MIN, _K_MAX = -324, 292     # decimal exponents of every finite double

# Word codes: each indexes a 4-byte word of `_words()`. A fraction's word
# is `(4 * strip + width - 1) * 10_000 + g`: the last `width` digits of the
# 4-digit group g (a fraction's first word may hold fewer than four), and
# with `strip` its trailing zeros NUL (at least one digit kept).
_PLAIN = 30_000       # + g: g's four digits (no strip, width 4)
_NUL = 80_000         # + g: NUL, whatever g
_LEAD = 90_000        # + g: g's four digits, leading zeros NUL (at least one digit kept)
_UNITS = 100_000      # + u: three digits of u and the decimal point
_UNITS_LEAD = 101_000 # + u: the same, leading zeros NUL (at least one digit kept)
_COMMA = 102_000      # + 1 for a negative value: ",-"
_END = 102_002        # "\r\n"

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _frozen(table: np.ndarray) -> np.ndarray:
    """A cached table, read-only, since every call shares it."""
    table.flags.writeable = False
    return table


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """g1 and g0 of every decimal exponent k in [_K_MIN, _K_MAX]: with
    10**-k = beta * 2**r and 2**125 <= beta < 2**126, g = floor(beta) + 1
    = g1 * 2**63 + g0."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    return (_frozen(np.array([v >> 63 for v in g], dtype=_U64)),
            _frozen(np.array([v & _M63 for v in g], dtype=_U64)))


@functools.cache
def _words() -> np.ndarray:
    """The word table of the codes above, as `uint32` holding four bytes."""
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    plain = (digits + ord("0")).astype(np.uint8)
    place = np.arange(4)
    frac = []
    for strip in (False, True):
        for width in (1, 2, 3, 4):
            word = plain.copy()
            word[:, place < 4 - width] = 0
            if strip:   # a trailing zero: it and every digit after it are 0
                trailing = g[:, None] % 10 ** (4 - place) == 0
                word[trailing & (place > 4 - width)] = 0
            frac.append(word)
    lead = plain.copy()
    lead[(g[:, None] < 10 ** (3 - place)) & (place < 3)] = 0
    units = np.zeros((1000, 4), dtype=np.uint8)
    units[:, :3] = plain[:1000, 1:]
    units[:, 3] = ord(".")
    units_lead = units.copy()
    units_lead[:, :3] = lead[:1000, 1:]
    tail = np.array([list(b",\0\0\0"), list(b",-\0\0"), list(b"\r\n\0\0")],
                    dtype=np.uint8)
    table = np.concatenate(frac + [np.zeros_like(plain), lead, units, units_lead, tail])
    return _frozen(table.view(np.uint32).ravel())


@functools.cache
def _frac_offsets() -> np.ndarray:
    """The code offsets of a fraction's words, most significant first, for
    each count of digits `fd` (0 to 20) after the point and each index
    `last` (0 to 4) of its last non-zero 4-digit group counted from the end
    (the first group when all are zero), at row `5 * fd + last`: a group
    beyond the fraction's first word or after `last` is NUL, the first word
    holds the digits left over from whole groups, and `last` drops its
    trailing zeros, keeping the "0" of an all-zero fraction."""
    rows = []
    for fd in range(21):
        first = (max(fd, 1) + 3) // 4 - 1
        width = max(fd, 1) - 4 * first
        for last in range(5):
            rows.append([_NUL if j > first or j < last else
                         (4 * (j == last) + (width if j == first else 4) - 1) * 10_000
                         for j in range(4, -1, -1)])
    return _frozen(np.array(rows, dtype=np.int64))


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products `a * b` of `uint64` arrays,
    from their 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _products(g1, g0, cp):
    """The 128-bit products g0 * cp and g1 * cp, each as (low, high)."""
    return g0 * cp, _mulhi(g0, cp), g1 * cp, _mulhi(g1, cp)


def _shifted(products, g1, g0, e, sign):
    """The `_products` of cp + sign * 2**e (1 <= e <= 5) from those of cp:
    g0 and g1 times 2**e added to or taken from them, with the carry."""
    x0, x1, y0, y1 = products
    parts = []
    for low, high, g in ((x0, x1, g0), (y0, y1, g1)):
        add_low, add_high = g << e, g >> (64 - e)
        if sign > 0:
            sum_low = low + add_low
            parts += [sum_low, high + add_high + (sum_low < low)]
        else:
            parts += [low - add_low, high - add_high - (low < add_low)]
    return parts


def _rop(products):
    """Schubfach's `rop` of g * cp from its `_products`: floor(g * cp /
    2**127) as the JDK computes it (without the low half of g0 * cp),
    rounded to odd: its last bit is set when the bits of z below it are not
    all zero."""
    _, x1, y0, y1 = products
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each double in `x`: digits and a decimal exponent, so that
    |x| = digits * 10**exponent is the shortest decimal that reads back as
    |x|, the closest such when several are that short, the even one on a
    tie. `digits` may end in zeros. Only normal doubles get digits; the
    third array marks them (zeros, subnormals, infinities and NaN do not).
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U64)
    bq = (bits >> 52) & 0x7FF
    t = bits & 0xF_FFFF_FFFF_FFFF
    normal = (bq != 0) & (bq != 0x7FF)
    c = t | (1 << 52)
    q = bq.astype(np.int64) - 1075
    irregular = (t == 0) & (bq > 1)      # a power of two: the double below is closer
    # k = floor(log10(2**q)), or of 3/4 2**q when irregular, and
    # h = q + floor(log2(10**-k)) + 2, in the JDK's integer forms
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U64)
    g1, g0 = (table.take(k - _K_MIN) for table in _powers())
    # 4v and the ends of its rounding interval, times 10**-k: g times
    # c << (h + 2), and times that -+ 2 << h (1 << h below the midpoint of an
    # irregular interval)
    products = _products(g1, g0, c << (h + 2))
    vb = _rop(products)
    vbl = _rop(_shifted(products, g1, g0, h + 1 - irregular, -1))
    vbr = _rop(_shifted(products, g1, g0, h + 1, +1))
    out = c & 1                           # an odd significand excludes the interval's ends
    s = vb >> 2
    # One digit shorter: the multiples of ten around s, at most one in the interval.
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    # Else s or s + 1: the one in the interval, or the closer, or the even.
    uin = vbl + out <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    mid = (s << 2) + 2
    up = np.where(uin == win, (vb > mid) | ((vb == mid) & (s & 1 == 1)), win)
    digits = np.where(upin != wpin, sp10 + wpin * _U64(10), s + up)
    return digits, k, normal


def _lead_codes(groups: list, keep_last: bool) -> list:
    """Codes of 4-digit groups (most significant first) written without
    leading zeros: all-zero groups before the first non-zero one are NUL and
    the first non-zero group drops its own; with `keep_last`, a value of 0
    keeps its last digit."""
    codes, above = [], True    # above: every earlier group is zero
    for j, g in enumerate(groups):
        zero = g == 0
        if keep_last and j == len(groups) - 1:
            codes.append(np.where(above, _LEAD + g, _PLAIN + g))
        else:
            codes.append(np.where(above, np.where(zero, _NUL, _LEAD + g), _PLAIN + g))
        above = above & zero
    return codes


def _int_groups(values: np.ndarray, count: int) -> list:
    """`count` 4-digit groups of non-negative integers, most significant first."""
    groups = []
    for _ in range(count):
        higher = values // 10_000
        groups.append(values - higher * 10_000)
        values = higher
    return groups[::-1]


def _int_word_count(values: np.ndarray) -> int:
    """4-digit groups needed for the largest of some non-negative integers."""
    return max(1, (len(str(int(values.max(initial=0)))) + 3) // 4)


def _float_codes(x: np.ndarray):
    """Word codes of each value in `x` (1-D) as `repr` writes it in fixed
    notation: its comma and sign, the integer part's words ending in the
    units word "ddd.", then the fraction's words with trailing zeros
    dropped. Returns the codes as (values, words) and which values `repr`
    writes that way, zeros included; the codes of the others are
    placeholders."""
    digits, k, normal = shortest_digits(x)
    decpt = 15 + (digits >= 10 ** 15).astype(np.int64) + (digits >= 10 ** 16) + k
    fixed = normal & (decpt >= -3) & (decpt <= 16)
    # digits has 15 to 17 digits, so a fixed-notation value has k <= 0 and
    # fd = -k <= 20 digits after the point before trailing zeros drop. Every
    # other value is laid out as 0, which is right for 0.0 and -0.0.
    d = np.where(fixed, digits, 0).astype(np.int64)
    fd = np.where(fixed, -k, 0)
    p = _POW10.take(np.minimum(fd, 18))
    integer = d // p
    rest = d - integer * p
    high = integer // 1000
    units = integer - high * 1000
    n = len(d)
    high_words = _int_word_count(high) if high.any() else 0
    nwords = (np.maximum(fd, 1) + 3) >> 2      # the fraction's 4-digit groups
    frac_words = int(nwords.max())

    codes = np.empty((n, 2 + high_words + frac_words), dtype=np.int64)
    codes[:, 0] = _COMMA + np.signbit(x)
    if high_words:
        codes[:, 1:1 + high_words] = np.stack(
            _lead_codes(_int_groups(high, high_words), keep_last=False), axis=1)
        codes[:, 1 + high_words] = np.where(high == 0, _UNITS_LEAD, _UNITS) + units
    else:
        codes[:, 1] = _UNITS_LEAD + units
    groups = _int_groups(rest, frac_words)
    last = nwords - 1
    for j in range(frac_words - 1, -1, -1):   # counted from the end
        last = np.where(groups[frac_words - 1 - j] != 0, j, last)
    offsets = _frac_offsets()[5 * fd + last, 5 - frac_words:]
    codes[:, 2 + high_words:] = offsets + np.stack(groups, axis=1)
    return codes, fixed | (x == 0)


def csv_rows(index, true, predicted, level, noisy: np.ndarray, level_text) -> bytes:
    """Rows "index,true,predicted,level,v1,...,vd\r\n", each float written
    as its `repr`: `index`, `true` and `predicted` hold non-negative
    integers, `level` each row's noise level and `level_text` the function
    that writes a level."""
    n, d = noisy.shape
    if n == 0:
        return b""
    fcodes, fixed = _float_codes(noisy.ravel())
    ints = [np.asarray(v, dtype=np.int64) for v in (index, true, predicted)]
    counts = [_int_word_count(v) for v in ints]
    levels, level_of = np.unique(level, return_inverse=True)
    texts = [level_text(v) for v in levels.tolist()]
    level_width = (max(len(t) for t in texts) + 3) >> 2
    level_words = np.frombuffer(b"".join(t.encode().ljust(4 * level_width, b"\0") for t in texts),
                                dtype=np.uint32).reshape(len(texts), level_width)

    # index, true and predicted each end in a comma; the level text ends in
    # the first value's comma
    table = _words()
    fields = [table.take(np.stack(_lead_codes(_int_groups(v, count), keep_last=True)
                                  + [np.full(n, _COMMA)], axis=1))
              for v, count in zip(ints, counts)]
    fields += [level_words[level_of], table.take(fcodes).reshape(n, -1),
               np.broadcast_to(table[_END], (n, 1))]
    words = np.concatenate(fields, axis=1)
    out = words.view(np.uint8)

    parts, begin = [], 0
    for row in np.flatnonzero(~fixed.reshape(n, d).all(axis=1)).tolist() + [n]:
        if row > begin:
            block = out[begin:row].ravel()
            parts.append(block[block != 0].tobytes())
        if row < n:
            parts.append((f"{ints[0][row]},{ints[1][row]},{ints[2][row]},"
                          f"{texts[level_of[row]]},"
                          f"{','.join(map(repr, noisy[row].tolist()))}\r\n").encode())
        begin = row + 1
    return b"".join(parts)
