"""Exact "%.17g" text of float64 arrays, spelled by numpy a whole array at
a time.

The kernel spells 0, -0 and every 2^-30 <= |x| < 1, the range of the
entries of a normalized k-step matrix on grids of about 1,000 states.
With |x| = m 2^e, m < 2^53, and the decade E = floor(log10 |x|), the 17
significant digits are y = |x| 10^(16 - E) = m 5^s / 2^sh rounded half to
even, with s = 16 - E and sh = -(e + s) <= 57.  The wrapping uint64
product m 5^s equals m 5^s mod 2^64, so it holds floor(y) mod 128 in its
bits [sh, sh + 7) and y's fraction in its bits below sh; a float estimate
of y within 32 of it then fixes floor(y) exactly.  Python's own "%.17g"
spells every other value (Adams, "Ryu: fast float-to-string conversion",
PLDI 2018, does the same exact integer work with 128-bit tables).
"""

from functools import lru_cache

import numpy as np

# below 2^-30 the digits need more bits than one uint64 product holds
_KERNEL_LOW = 2.0 ** -30
_E16, _E17 = np.int64(10 ** 16), np.int64(10 ** 17)
# The kernel lays each value out in one 32-byte slot, filled from
#
#     ,-0.000D.   DDDDDDDDDDDDDDDDe-XX
#
# with the 17 significant digits D at byte 7 and bytes 12..27 and the
# exponent's two digits at 30..31.  A keep-mask row per sign, form and
# count of significant digits picks out the bytes "%.17g" writes; the
# forms are 0..3 for 0.d, 0.0d, 0.00d and 0.000d, 4 for d.ddde-XX and 5
# for zero.
_PATTERN = b",-0.0000.   " + b"0" * 16 + b"e-00"
_SLOT = len(_PATTERN)
_FORMS = 6
_FIELD = ",%.17g"  # stands for a value outside, for Python's format


@lru_cache(maxsize=None)
def _spelling_tables():
    """The kernel's tables, built on first use: 5^s and fl(10^s) for s <
    28, each 4-digit group as one uint32 of ASCII digits with its count of
    trailing zeros, the exponent words, the keep-mask rows and their
    lengths."""
    pow5 = np.uint64(5) ** np.arange(28, dtype=np.uint64)  # 5^27 < 2^64
    pow10 = np.array([float(10 ** s) for s in range(28)])
    k = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        digits[:, i] = k // np.uint16(place) % np.uint16(10)
    trailing = (digits[:, ::-1] == 0).cumprod(axis=1, dtype=np.uint8).sum(
        axis=1, dtype=np.int64)
    digits += np.uint8(ord("0"))
    group = digits.view(np.uint32)[:, 0]
    exponent = digits[:100].copy()
    exponent[:, :2] = np.frombuffer(b"e-", np.uint8)
    sign = np.arange(2).reshape(2, 1, 1, 1) == 1
    form = np.arange(_FORMS).reshape(1, _FORMS, 1, 1)
    nsig = np.arange(18).reshape(1, 1, 18, 1)
    p = np.arange(_SLOT)
    fixed = form < 4
    keep = ((p == 0) | ((p == 1) & sign) | ((form != 4) & (p == 2))
            | (fixed & ((p == 3) | ((4 <= p) & (p < 4 + form))))
            | ((form <= 4) & ((p == 7) | ((12 <= p) & (p < 11 + nsig))))
            | ((form == 4) & (((p == 8) & (nsig > 1)) | (p >= 28))))
    keep = keep.reshape(-1, _SLOT)
    return (pow5, pow10, group, trailing, exponent.view(np.uint32)[:, 0],
            keep, keep.sum(axis=1, dtype=np.int64))


def _floor_and_round(ax, m, e, E):
    """floor(y) and whether y rounds half-even up, for y = |x| 10^(16 - E)
    = m 5^s / 2^sh with s = 16 - E and sh = -(e + s) <= 57, given a
    decade E at which y < 10^17 (1 + 2^-51).

    The float estimate g = |x| fl(10^s) is then within 32 of y, and the
    wrapping product m (5^s mod 2^64) = m 5^s mod 2^64 holds floor(y) mod
    128 in its bits [sh, sh + 7) and y's fraction in its bits below sh.
    """
    pow5, pow10 = _spelling_tables()[:2]
    s = np.int64(16) - E
    sh = (-(e + s)).astype(np.uint64)
    g = (ax * pow10[s]).astype(np.int64)
    wrapped = m * pow5[s]
    low = ((wrapped >> sh) & np.uint64(127)).astype(np.int64)
    floor = g + ((low - g + np.int64(64)) & np.int64(127)) - np.int64(64)
    fraction = wrapped & ((np.uint64(1) << sh) - np.uint64(1))
    half = np.uint64(1) << (sh - np.uint64(1))
    odd = (floor & np.int64(1)).astype(bool)
    return floor, (fraction > half) | ((fraction == half) & odd)


def _significand(ax):
    """The 17 significant digits d, as an integer in [10^16, 10^17), and
    the decade E of every |x| in [2^-30, 1), so that "%.17g" % x spells
    d 10^(E - 16) exactly."""
    pow10 = _spelling_tables()[1]
    mantissa, e = np.frexp(ax)
    m = (mantissa * 2.0 ** 53).astype(np.uint64)  # |x| = m 2^e exactly
    e = e.astype(np.int64) - np.int64(53)
    # floor(log10 2^(e + 52)), with log10 2 ~ 78913 / 2^18: E or E - 1
    E = ((e + np.int64(52)) * np.int64(78913)) >> np.int64(18)
    g = ax * pow10[np.int64(16) - E]
    E += (g >= 1e17).astype(np.int64) - (g < 1e16).astype(np.int64)
    floor, up = _floor_and_round(ax, m, e, E)
    # the decade is right when floor(y), not its rounding, has 17 digits
    off = np.flatnonzero((floor < _E16) | (floor >= _E17))
    while off.size:
        E[off] += np.where(floor[off] < _E16, np.int64(-1), np.int64(1))
        floor[off], up[off] = _floor_and_round(ax[off], m[off], e[off],
                                               E[off])
        off = off[(floor[off] < _E16) | (floor[off] >= _E17)]
    # no double in the domain rounds up to 10^17: that needs a relative
    # distance below 5e-18 under a power of ten, and the nearest doubles
    # lie farther off (the tests sweep every double near each 10^k)
    return floor + up, E


def spell(x):
    """The text "," + "%.17g" % v of each value v of the float64 vector x,
    with the field ",%.17g" in place of each value outside the kernel's
    domain; the length of each value's text; and the values outside."""
    _, _, group, trailing, exponent, keep_rows, kept = _spelling_tables()
    ax = np.abs(x)
    kernel = (ax < 1.0) & ((ax >= _KERNEL_LOW) | (ax == 0.0))
    inside = x[kernel]
    zero = inside == 0.0
    # a zero takes the digits of 2^-30, which its keep-mask row drops
    d, E = _significand(np.maximum(np.abs(inside), _KERNEL_LOW))
    lead = d // _E16
    tail = d - lead * _E16
    high = tail // np.int64(10 ** 8)
    low = tail - high * np.int64(10 ** 8)
    groups = np.stack([high // np.int64(10 ** 4), high % np.int64(10 ** 4),
                       low // np.int64(10 ** 4), low % np.int64(10 ** 4)], 1)
    zeros = trailing[groups[:, 3]]
    for i in (2, 1, 0):  # an earlier group counts while the later are 0000
        zeros += np.where(zeros == np.int64(12 - 4 * i),
                          trailing[groups[:, i]], np.int64(0))
    form = np.where(E >= np.int64(-4), np.int64(-1) - E, np.int64(4))
    form[zero] = np.int64(5)
    slots = np.empty((len(inside), _SLOT), np.uint8)
    slots[:] = np.frombuffer(_PATTERN, np.uint8)
    words = slots.view(np.uint32)
    words[:, 1] = group[lead]  # "000" and the leading digit
    words[:, 3:7] = group[groups]
    words[:, 7] = exponent[-E]
    sign = np.signbit(inside).astype(np.int64)
    row = ((sign * np.int64(_FORMS) + form) * np.int64(18)
           + (np.int64(17) - zeros))
    text = slots[np.take(keep_rows, row, axis=0)]
    length = np.full(len(x), len(_FIELD), np.int64)
    length[kernel] = kept[row]
    rest = np.flatnonzero(~kernel)
    if rest.size:  # a "%" marks the place of each value outside
        # the text of the kernel's values before each value outside
        ahead = np.concatenate([np.zeros(1, np.int64),
                                np.cumsum(kept[row])])
        marks = ahead[rest - np.arange(rest.size)] + np.arange(rest.size)
        own = np.ones(len(text) + rest.size, bool)
        own[marks] = False
        marked = np.full(len(own), ord("%"), np.uint8)
        marked[own] = text
        text = marked
    return (text.tobytes().decode("ascii").replace("%", _FIELD), length,
            x[rest].tolist())
