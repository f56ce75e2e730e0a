"""``%.17g`` CSV formatting of float64 rows, vectorised with numpy.

:func:`format_rows` returns the bytes that ``np.savetxt(fmt="%.17g",
delimiter=",")`` writes for a 2-D block: every value as Python's
``'%.17g' % value``, fields joined by ``,`` and each row ended by ``\\n``.

Decimal step.  Each value ``x`` becomes its 17-digit decimal integer
``D = round(|x| 10^(16-k))`` with ``k = floor(log10 |x|)``.  The scaling is
done in double-double arithmetic: Dekker's exact product (numpy has no
fma) against a table of ``10^(16-k)`` as unevaluated pairs ``hi + lo``.
The scaled value is then off by less than 1e-13, so ``D`` is certain when
the scaled value lies in ``[10^16, 10^17)`` and more than ``_TIE_MARGIN``
from a half-integer.  A zero is ``D = 0``.  Every other value is
formatted by ``%`` on its own: ties and near-ties, a wrong decade guess, a
round-up to ``10^17``, non-finite and subnormal values, and decades outside
the table.

Layout.  Each value gets a 48-byte slot, written as six 8-byte words::

    0       '-'
    1-5     '0.000'                   "0." and the zeros of 1e-4 <= |x| < 1
    6-7     d0 '.'
    8-39    d1 '.' d2 '.' ... d16 '.'  four words from a table of quads
    40-44   'e' sign X X X
    45      separator
    46-47   unused

A keep-mask, gathered from a table by (format class, last nonzero digit,
sign), picks the field's bytes, and ``np.compress`` packs them.  A value
formatted by ``%`` is written at the start of its slot and keeps its first
``len`` bytes and the separator.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["format_rows"]

# decades k = floor(log10|x|) in the table: 1e-280 <= |x| < 1e281, where
# neither the split of 10^(16-k) overflows nor its remainder is subnormal
_KMIN, _KMAX = -280, 280
_AMIN, _AMAX = 10.0**_KMIN, 10.0 ** (_KMAX + 1)
# a rounding is certified when the scaled value's fraction is further than
# this from 1/2; the double-double error is below 1e-13
_TIE_MARGIN = 1e-6
_DEKKER = 134217729.0  # 2**27 + 1
_SLOT = 48  # bytes per value
_SEP = 45  # the separator's byte in a slot
# format classes: %f-style fields for k in [-4, 16], then %e-style fields
# with a two-digit and with a three-digit exponent; 17 last digits, 2 signs
_FIXED = range(-4, 17)
_EXP2, _EXP3 = len(_FIXED), len(_FIXED) + 1
_FALLBACK = (_EXP3 + 1) * 34


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^(16-k) rounded, for k = _KMIN .. _KMAX
    hi_high: np.ndarray  # Dekker's split of hi
    hi_low: np.ndarray
    lo: np.ndarray  # 10^(16-k) - hi rounded
    key_base: np.ndarray  # 34 times the format class of decade k
    exponent: np.ndarray  # word "e±XXX" of decade k
    lead: np.ndarray  # word "-0.000" d0 "." for each digit d0
    quad: np.ndarray  # word "a.b.c.d." for each quad abcd
    trailing_zeros: np.ndarray  # of each quad
    masks: np.ndarray  # keep-mask words of each key


def _split(v):
    """Dekker's split of ``v`` into two halves of at most 26 significant bits."""
    c = _DEKKER * v
    hi = c - (c - v)
    return hi, v - hi


def _words(rows) -> np.ndarray:
    """Byte strings of 8 bytes as native 8-byte words."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


def _keep_masks() -> np.ndarray:
    """The keep-mask of every key, shape ``(keys, _SLOT // 8)`` in 8-byte words.

    Key ``(cls * 17 + last) * 2 + negative`` is a value of format class
    ``cls`` whose last nonzero digit is ``d_last``; key ``_FALLBACK + n``
    keeps the first ``n`` bytes and the separator.
    """
    pos = np.arange(_SLOT)
    cls = np.arange(_EXP3 + 1)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None] == 1
    fixed = cls < len(_FIXED)
    k = np.where(fixed, cls + _FIXED[0], 0)
    point = fixed & (k >= 0)  # %f with an integer part: the point follows d_k
    digit, dot = (pos - 6) // 2, (pos - 7) // 2
    is_digit = (pos >= 6) & (pos <= 38) & (pos % 2 == 0)
    is_dot = (pos >= 7) & (pos <= 39) & (pos % 2 == 1)
    keep = (
        ((pos == 0) & neg)
        | (pos == _SEP)
        | (is_digit & (digit <= np.where(point, np.maximum(k, last), last)))
        | (is_dot & point & (dot == k) & (last > k))
        | (is_dot & ~fixed & (dot == 0) & (last > 0))
        | (fixed & (k < 0) & (pos >= 1) & (pos < 2 - k))
        | (~fixed & (pos >= 40) & (pos <= 44) & ((pos != 42) | (cls == _EXP3)))
    )
    fallback = (pos < np.arange(40)[:, None]) | (pos == _SEP)
    masks = np.concatenate([keep.reshape(-1, _SLOT), fallback]).astype(np.uint8)
    return masks.view(np.uint64)


@functools.cache
def _tables() -> _Tables:
    """The formatter's tables, built on first use.

    The powers of ten come from exact integers: ``int / int`` and
    ``float(int)`` round correctly.
    """
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        p = 16 - k
        if p >= 0:
            h = float(10**p)
            rest = float(10**p - int(h))
        else:
            den = 10**-p
            h = 1 / den
            num, two = h.as_integer_ratio()
            rest = (two - num * den) / (two * den)
        hi.append(h)
        lo.append(rest)
    hi = np.array(hi)
    decades = np.arange(_KMIN, _KMAX + 1)
    cls = np.where(
        (decades >= _FIXED[0]) & (decades <= _FIXED[-1]),
        decades - _FIXED[0],
        np.where(np.abs(decades) >= 100, _EXP3, _EXP2),
    )
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quad = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    quad[..., 0] = digits[:, None, None, None]
    quad[..., 2] = digits[:, None, None]
    quad[..., 4] = digits[:, None]
    quad[..., 6] = digits
    z = (np.arange(10) == 0).astype(np.int64)
    trailing = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    tables = _Tables(
        hi,
        *_split(hi),
        np.array(lo),
        key_base=cls * 34,
        exponent=_words([b"e%+04d\0\0\0" % k for k in decades]),
        lead=_words([b"-0.000%d." % d for d in range(10)]),
        quad=quad.reshape(-1).view(np.uint64),
        trailing_zeros=trailing.reshape(-1),
        masks=_keep_masks(),
    )
    for table in tables:
        table.setflags(write=False)  # shared by every call
    return tables


def _decimal(x: np.ndarray, tb: _Tables):
    """17-digit decimal integers ``D`` and tabled decades of a flat float array.

    Returns ``(ok, D, k)``: ``ok`` marks the certified values, ``k``
    indexes the tables, so the decade is ``k + _KMIN``, and ``D`` is 0
    where ``ok`` is false.  A zero is certified as ``D = 0`` in decade 0.
    """
    a = np.abs(x)
    ok = (a >= _AMIN) & (a < _AMAX)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp) - _KMIN
    np.clip(k, 0, _KMAX - _KMIN, out=k)
    # the scaled value |x| 10^(16-k) as s + e, |e| <= ulp(s) / 2
    ph = a * tb.hi[k]
    a_high, a_low = _split(a)
    b_high, b_low = tb.hi_high[k], tb.hi_low[k]
    pl = ((a_high * b_high - ph) + a_high * b_low + a_low * b_high) + a_low * b_low
    t = pl + a * tb.lo[k]
    s = ph + t
    e = t - (s - ph)
    r = np.rint(e)
    ok &= np.abs(e - r) < 0.5 - _TIE_MARGIN
    ok &= (s < 1e17) & ((s > 1e16) | ((s == 1e16) & (e >= 0.0)))
    return ok | (x == 0.0), np.where(ok, s.astype(np.int64) + r.astype(np.int64), 0), k


def format_rows(block: np.ndarray) -> np.ndarray:
    """The bytes of ``np.savetxt(fmt="%.17g", delimiter=",")`` for a 2-D float block.

    Returns a ``uint8`` array; the rows are in order and each ends in ``\\n``.
    """
    tb = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    ok, d, k = _decimal(x, tb)
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    q1 = high // 10**4
    q2 = high - q1 * 10**4
    q3 = low // 10**4
    q4 = low - q3 * 10**4
    zeros = tb.trailing_zeros[q4]
    run = q4 == 0
    zeros += run * tb.trailing_zeros[q3]
    run &= q3 == 0
    zeros += run * tb.trailing_zeros[q2]
    run &= q2 == 0
    zeros += run * tb.trailing_zeros[q1]
    key = tb.key_base[k] + 2 * (16 - zeros) + np.signbit(x)

    slots = np.empty((x.size, _SLOT // 8), dtype=np.uint64)
    slots[:, 0] = tb.lead[lead]
    slots[:, 1] = tb.quad[q1]
    slots[:, 2] = tb.quad[q2]
    slots[:, 3] = tb.quad[q3]
    slots[:, 4] = tb.quad[q4]
    slots[:, 5] = tb.exponent[k]
    by_field = slots.view(np.uint8).reshape(rows, cols, _SLOT)
    by_field[:, :, _SEP] = ord(",")
    by_field[:, -1, _SEP] = ord("\n")
    flat = slots.view(np.uint8).reshape(-1)

    bad = np.flatnonzero(~ok)
    if bad.size:
        view = memoryview(flat)
        lengths = []
        for i, v in zip(bad.tolist(), x[bad].tolist()):
            field = b"%.17g" % v
            view[i * _SLOT : i * _SLOT + len(field)] = field
            lengths.append(len(field))
        key[bad] = _FALLBACK + np.array(lengths)
    return np.compress(tb.masks[key].view(np.bool_).reshape(-1), flat)
