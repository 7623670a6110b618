"""The exact decimal text of int64 and float64 cells, made with numpy.

Each cell's text goes into a slot of SLOT bytes: the text's bytes in
order, with NUL bytes anywhere between them, and the last byte left NUL
for the caller's separator; dropping every NUL byte of a row of slots
gives the row's text.  An int is written as str() writes it.  A float is
written as format(x, ".17g") writes it, for the cells that format puts
in fixed notation (the decimal exponent of the 17 rounded digits in
[-4, 16]) and for +-0; float_cells reports every other cell (exponent
form, subnormal, infinite, NaN) as undecided and leaves its slot
undefined.

The 17 digits of a float come from its bits alone:
|x| = m * 2**e with a 53-bit m, so |x| * 10**s = m * 5**s * 2**(e+s),
and for the s that puts the result in [10**16, 10**17) the product
m * 5**s (at most 102 bits) is rounded half-even to 2**(e+s) in two
uint64 limbs.  The decimal exponent comes from exact tables of powers of
ten, not from a float logarithm, so no step is an estimate.  The bytes are
combined 8 at a time through uint64 views of uint8 arrays, so the layout
does not depend on the byte order.
"""

from __future__ import annotations

import numpy as np

SLOT = 24

_U64 = np.uint64
_LOWEST, _HIGHEST = -5, 17      # the decimal exponents the tables resolve

# "dddd" for each 4-digit group, as 4 bytes read as one uint32
_k = np.arange(10_000, dtype=np.int16)
_GROUP_TEXT = (np.stack([_k // 1000, _k // 100 % 10, _k // 10 % 10, _k % 10],
                        axis=1).astype(np.uint8)
               + ord("0")).view(np.uint32).ravel()
# the trailing zero digits of a 4-digit group; 4 for the group 0
_GROUP_ZEROS = sum((_k % p == 0).astype(np.int8)
                   for p in (10, 100, 1000, 10_000))
_POW5 = 5 ** np.arange(16 - _LOWEST + 1, dtype=np.uint64)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _at_least(k: int) -> float:
    """The least float >= 10**k."""
    t = float(f"1e{k}")         # the nearest float, which may lie below
    num, den = t.as_integer_ratio()
    return t if k >= 0 or num * 10 ** -k >= den else float(
        np.nextafter(t, np.inf))


# |x| >= 10**k exactly when |x| >= _POWERS[k - _LOWEST], for float x
_POWERS = np.array([_at_least(k) for k in range(_LOWEST, _HIGHEST + 1)])
# by biased binary exponent: the decimal exponent of 2**(E - 1023),
# clipped to [_LOWEST - 1, _HIGHEST], and the float from which a number
# of that binade has the next one; a binade holds at most one power of ten
_BINADE = np.ldexp(1.0, np.clip(np.arange(2048) - 1023, -1022, 1023))
_EXP_FLOOR = np.searchsorted(_POWERS, _BINADE, side="right") + (_LOWEST - 1)
_EXP_NEXT = np.append(_POWERS, np.inf)[_EXP_FLOOR + 1 - _LOWEST]


def _words(mask):
    """Rows of SLOT bytes (a bool mask, or byte values) as uint64 words."""
    return np.ascontiguousarray(mask, np.uint8).view(np.uint64)


def _float_layouts():
    """Per (exponent X in [-4, 16], trailing zero digits z of the 17,
    sign): the masks that keep the digits before and after the point, and
    the constant bytes, as 3 x SLOT // 8 words.

    The 17 digits sit at bytes 5-21 (A) and again at bytes 6-22 (B).
    X >= 0 takes A's first X + 1 digits, "." at byte 6 + X and B's other
    digits; X < 0 takes "0." at bytes 1-2, -X - 1 zeros just before byte
    6, and B.  Stripped zeros, and a point with no digit after it, are
    masked out; byte 0 holds the sign.
    """
    X = np.arange(-4, 17)[:, None, None, None]
    z = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    p = np.arange(SLOT)[None, None, None, :]
    fraction = np.where(X >= 0, 16 - X, 17)
    stripped = np.minimum(z, fraction)
    end = 23 - stripped - ((X >= 0) & (stripped == fraction))
    kept = (p < end) & (neg >= 0)       # broadcast over the sign too
    a = (X >= 0) & (p >= 5) & (p < 6 + X) & kept
    b = (p >= np.maximum(6, 7 + X)) & kept
    leading = (p == 1) | (p >= 7 + X) & (p < 6)    # "0." and zeros
    c = (np.where((X >= 0) & (p == 6 + X) & kept, ord("."), 0)
         + np.where((X < 0) & leading, ord("0"), 0)
         + np.where((X < 0) & (p == 2), ord("."), 0)
         + np.where((neg == 1) & (p == 0), ord("-"), 0))
    return np.concatenate([_words(a.reshape(-1, SLOT) * 0xff),
                           _words(b.reshape(-1, SLOT) * 0xff),
                           _words(c.reshape(-1, SLOT))], axis=1)


def _int_layouts():
    """Per (digit count in [0, 20], sign): the mask that keeps the digits
    at the end of bytes 3-22, and the sign byte, as words."""
    nd = np.arange(21)[:, None, None]
    neg = np.arange(2)[None, :, None]
    p = np.arange(SLOT)[None, None, :]
    keep = (p >= 23 - np.maximum(nd, 1)) & (p < 23) & (neg >= 0)
    sign = np.where((neg == 1) & (p == 0) & (nd >= 0), ord("-"), 0)
    return np.concatenate([_words(keep.reshape(-1, SLOT) * 0xff),
                           _words(sign.reshape(-1, SLOT))], axis=1)


_FLOAT_LAYOUTS = _float_layouts()
_INT_LAYOUTS = _int_layouts()


def _digits(u, raw, offsets):
    """Write the 20 digits of uint64 u, zero-padded, at each byte offset
    of raw (..., bytes); return the 4-digit groups, most significant
    first."""
    q = u // _U64(10 ** 8)
    low = (u - q * _U64(10 ** 8)).view(np.int64)
    q = q.view(np.int64)
    g0 = q // 10 ** 8
    mid = q - g0 * 10 ** 8
    g1, g3 = mid // 10 ** 4, low // 10 ** 4
    groups = (g0, g1, mid - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)
    for i, g in enumerate(groups):
        text = np.take(_GROUP_TEXT, g)
        for at in offsets:
            raw[..., at + 4 * i:at + 4 * i + 4].view(np.uint32)[..., 0] = text
    return groups


def int_cells(values, out) -> None:
    """Write int64 values into out, uint8 slots (values.shape, SLOT)."""
    u = np.abs(values).view(np.uint64)   # -2**63 reads as 2**63
    count = np.searchsorted(_POW10[1:], u, side="right") + 1
    raw = np.empty(values.shape + (SLOT,), np.uint8)
    _digits(u, raw, (3,))
    layout = np.take(_INT_LAYOUTS, count * 2 + (values < 0), axis=0)
    have, want = raw.view(np.uint64), out.view(np.uint64)
    for j in range(SLOT // 8):
        want[..., j] = have[..., j] & layout[..., j] | layout[..., 3 + j]


def float_cells(values, out):
    """Write float64 values into out, uint8 slots (values.shape, SLOT);
    return the mask of the cells written (decided)."""
    bits = values.view(np.uint64)
    biased = ((bits >> _U64(52)) & _U64(0x7ff)).view(np.int64)
    magnitude = np.abs(values)
    # floor(log10 |x|), exact: the binade's decimal exponent, plus one
    # when |x| reaches the next power of ten
    x0 = (np.take(_EXP_FLOOR, biased)
          + (magnitude >= np.take(_EXP_NEXT, biased)))
    s = np.clip(16 - x0, 0, len(_POW5) - 1)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    f = np.take(_POW5, s)
    # m * f as hi * 2**64 + lo, from 32-bit halves (m < 2**53, f < 2**49)
    m_hi, m_lo = m >> _U64(32), m & _U64(0xffffffff)
    f_hi, f_lo = f >> _U64(32), f & _U64(0xffffffff)
    low = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    lo = low + (mid << _U64(32))
    hi = m_hi * f_hi + (mid >> _U64(32)) + (lo < low)
    # divide by 2**shift, rounding half to even; a shift <= 0 multiplies
    # (the product then fits lo), and a shift count beyond 63 gives 0
    shift = 1075 - biased - s
    right = np.clip(shift, 0, 63).view(np.uint64)
    q = (lo >> right) | (hi << (_U64(64) - right))
    right -= _U64(1)
    half = (lo >> right) & _U64(1)
    rest = (lo & ((_U64(1) << right) - _U64(1))) != 0
    digits = (q + (half & (rest | q) & _U64(1))) << np.clip(
        -shift, 0, 63).view(np.uint64)
    # rounding up to 10**17 carries into the next decade
    carry = digits == _POW10[17]
    digits[carry] = _POW10[16]
    exponent = x0 + carry
    zero = magnitude == 0
    decided = (exponent >= -4) & (exponent <= 16) | zero
    exponent = np.where(zero, 0, np.clip(exponent, -4, 16))
    digits[zero] = 0
    raw = np.empty(values.shape + (2 * SLOT,), np.uint8)
    groups = _digits(digits, raw, (2, SLOT + 3))    # A at 5, B at 6 + SLOT
    zeros = np.take(_GROUP_ZEROS, groups[4])
    for i in (3, 2, 1):
        zeros += (zeros == 4 * (4 - i)) * np.take(_GROUP_ZEROS, groups[i])
    layout = np.take(_FLOAT_LAYOUTS,
                     ((exponent + 4) * 17 + zeros) * 2
                     + (bits >> _U64(63)).view(np.int64), axis=0)
    have, want = raw.view(np.uint64), out.view(np.uint64)
    for j in range(SLOT // 8):
        word = have[..., j] & layout[..., j]
        word |= have[..., 3 + j] & layout[..., 3 + j]
        word |= layout[..., 6 + j]
        want[..., j] = word
    return decided
