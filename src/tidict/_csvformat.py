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

Layout.  Each value gets a 56-byte slot, written as seven 8-byte words::

    0       '-'
    1-5     '0.000'            "0." and the zeros of 1e-4 <= |x| < 1
    8-24    d0 d1 ... d16      first copy of the digits
    25      '.'
    32-48   d0 d1 ... d16      second copy
    49-53   'e' sign X X X
    54      separator

The digits come from a table of 4-digit quads.  A %f field with ``k >= 0``
keeps ``d0 .. dk`` of the first copy, the point, and ``d(k+1) ..`` of the
second copy; a %e field keeps ``d0``, the point and ``d1 ..`` the same
way; a %f field with ``k < 0`` keeps "0.", its zeros and the first copy.
A keep-mask, gathered from a table by (format class, last nonzero digit,
sign), picks the field's bytes, and a boolean index packs them.  The kept
bytes of a slot lie in a few runs, which numpy copies a run at a time.  A
value formatted by ``%`` is written at the start of its slot and keeps
its first ``len`` bytes and the separator.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["format_rows", "workspace"]

# decades k = floor(log10|x|) in the table: 1e-280 <= |x| < 1e281, where
# neither the split of 10^(16-k) overflows nor its remainder is subnormal
_KMIN, _KMAX = -280, 280
_AMIN, _AMAX = 10.0**_KMIN, 10.0 ** (_KMAX + 1)
# a rounding is certified when the scaled value's fraction is further than
# this from 1/2; the double-double error is below 1e-13
_TIE_MARGIN = 1e-6
_DEKKER = 134217729.0  # 2**27 + 1
_SLOT = 56  # bytes per value
_SEP = 54  # the separator's byte in a slot
# format classes: %f-style fields for k in [-4, 16], then %e-style fields
# with a two-digit and with a three-digit exponent; 17 last digits, 2 signs
_FIXED = range(-4, 17)
_EXP2, _EXP3 = len(_FIXED), len(_FIXED) + 1
_FALLBACK = (_EXP3 + 1) * 34
# a slot's first word: "-0.000" and two unused bytes
_HEAD = int.from_bytes(b"-0.000\0\0", "little")
# words per value of a workspace: eight numeric, seven of the slot, and
# the last one's eight bytes of flags
_WORDS, _FLAGS = 16, 15


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^(16-k) rounded, for k = _KMIN .. _KMAX
    hi_high: np.ndarray  # Dekker's split of hi
    hi_low: np.ndarray
    lo: np.ndarray  # 10^(16-k) - hi rounded
    key_base: np.ndarray  # 34 times the format class of decade k
    exponent: np.ndarray  # word "\0e±XXX" of decade k, a slot's last word less its d16
    quad: np.ndarray  # 4-byte "abcd" of each quad abcd
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
    # digits before the point: d0 .. dk of %f with k >= 0, every digit of
    # %f with k < 0, d0 of %e; the ones after it are d(k+1) .. or d1 ..
    before = np.where(fixed & (k >= 0), k, np.where(fixed, last, 0))
    after = np.where(fixed & (k < 0), 17, before + 1)
    keep = (
        ((pos == 0) & neg)
        | (pos == _SEP)
        | (fixed & (k < 0) & (pos >= 1) & (pos < 2 - k))
        | ((pos >= 8) & (pos - 8 <= before))
        | ((pos == 25) & (last >= after))
        | ((pos >= 32) & (pos <= 48) & (pos - 32 >= after) & (pos - 32 <= last))
        | (~fixed & (pos >= 49) & (pos <= 53) & ((pos != 51) | (cls == _EXP3)))
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
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    quad[..., 0] = digits[:, None, None, None]
    quad[..., 1] = digits[:, None, None]
    quad[..., 2] = digits[:, None]
    quad[..., 3] = digits
    z = (np.arange(10) == 0).astype(np.int64)
    trailing = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    tables = _Tables(
        hi,
        *_split(hi),
        np.array(lo),
        key_base=cls * 34,
        exponent=_words([b"\0e%+04d\0\0" % k for k in decades]),
        quad=quad.reshape(-1).view(np.uint32),
        trailing_zeros=trailing.reshape(-1),
        masks=_keep_masks(),
    )
    for table in tables:
        table.setflags(write=False)  # shared by every call
    return tables


def workspace(values: int) -> np.ndarray:
    """The buffers of :func:`format_rows` for blocks of up to ``values`` values.

    ``_WORDS`` rows of ``values`` 8-byte words: eight for the decimal step's
    floats and integers, seven for the slots, and one of flags, eight
    bytes per value.
    """
    return np.empty((_WORDS, values), dtype=np.uint64)


def _decimal(x: np.ndarray, tb: _Tables, ws: np.ndarray):
    """17-digit decimal integers ``D`` and tabled decades of a flat float array.

    Returns ``(ok, D, k)``: ``ok`` marks the certified values, ``k``
    indexes the tables, so the decade is ``k + _KMIN``, and ``D`` is 0
    where ``ok`` is false.  A zero is certified as ``D = 0`` in decade 0.
    The three are views of words 0 and 2 and of the flags of ``ws``, and
    words 1 and 3-7 are left free.
    """
    n = x.size
    ints = ws[:8, :n].view(np.int64)
    a, ph, _, ah, al, bh, bl, t = ws[:8, :n].view(np.float64)
    k = ints[2]
    ok, no, b2, b3, b4 = ws[_FLAGS].view(np.bool_).reshape(8, -1)[:5, :n]
    np.abs(x, out=a)
    np.greater_equal(a, _AMIN, out=ok)
    ok &= np.less(a, _AMAX, out=no)
    np.copyto(a, 1.0, where=np.logical_not(ok, out=no))
    np.log10(a, out=ph)
    np.copyto(k, np.floor(ph, out=ph), casting="unsafe")
    k -= _KMIN
    np.clip(k, 0, _KMAX - _KMIN, out=k)
    # the scaled value |x| 10^(16-k) as s + e, |e| <= ulp(s) / 2
    np.multiply(a, np.take(tb.hi, k, out=ph, mode="clip"), out=ph)
    # Dekker's split of a: c = 2**27 a + a, high = c - (c - a), low = a - high
    np.multiply(a, _DEKKER, out=ah)
    np.subtract(ah, a, out=al)
    np.subtract(ah, al, out=ah)
    np.subtract(a, ah, out=al)
    np.take(tb.hi_high, k, out=bh, mode="clip")
    np.take(tb.hi_low, k, out=bl, mode="clip")
    # ((ah bh - ph) + ah bl + al bh) + al bl, then + a lo
    np.subtract(np.multiply(ah, bh, out=t), ph, out=t)
    t += np.multiply(ah, bl, out=ah)
    t += np.multiply(al, bh, out=bh)
    t += np.multiply(al, bl, out=bl)
    t += np.multiply(a, np.take(tb.lo, k, out=bh, mode="clip"), out=bh)
    s, e, r = bl, ah, bh
    np.add(ph, t, out=s)
    np.subtract(t, np.subtract(s, ph, out=e), out=e)
    np.rint(e, out=r)
    ok &= np.less(np.abs(np.subtract(e, r, out=al), out=al), 0.5 - _TIE_MARGIN, out=no)
    # (s < 1e17) & ((s > 1e16) | ((s == 1e16) & (e >= 0)))
    np.equal(s, 1e16, out=b3)
    b3 &= np.greater_equal(e, 0.0, out=b4)
    b3 |= np.greater(s, 1e16, out=b2)
    b3 &= np.less(s, 1e17, out=b2)
    ok &= b3
    d = ints[0]
    np.copyto(d, s, casting="unsafe")
    np.copyto(ints[1], r, casting="unsafe")
    d += ints[1]
    np.copyto(d, 0, where=np.logical_not(ok, out=no))
    ok |= np.equal(x, 0.0, out=no)
    return ok, d, k


def format_rows(block: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """The bytes of ``np.savetxt(fmt="%.17g", delimiter=",")`` for a 2-D float block.

    Returns a ``uint8`` array; the rows are in order and each ends in
    ``\\n``.  ``ws`` is a :func:`workspace` for at least ``block.size``
    values, and every intermediate is written into it.  The one array of
    the block's size that is allocated is the packed text returned: numpy
    packs a masked selection only into a new array, and ``np.compress``
    would first allocate 8 bytes of indices per byte of text.  A value
    formatted by ``%`` allocates its field and index.
    """
    tb = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    n = x.size
    ok, d, k = _decimal(x, tb, ws)
    ints = ws[:8, :n].view(np.int64)
    run, flag = ws[_FLAGS].view(np.bool_).reshape(8, -1)[1:3, :n]
    # d = 10 (10^8 (10^4 q1 + q2) + 10^4 q3 + q4) + d16
    np.divmod(d, 10, out=(ints[1], d))
    np.divmod(ints[1], 10**8, out=(ints[3], ints[4]))
    np.divmod(ints[3:5], 10**4, out=(ints[5:7], ints[3:5]))
    d16, q1, q2, q3, q4 = ints[0], ints[5], ints[3], ints[6], ints[4]
    spare, key = ints[1], ints[7]
    # trailing zeros of d1 .. d16; a zero D has 17, of which 16 count
    zeros = spare
    np.copyto(zeros, np.equal(d16, 0, out=run))
    for q in (q4, q3, q2, q1):
        zeros += np.multiply(np.take(tb.trailing_zeros, q, out=key, mode="clip"), run, out=key)
        run &= np.equal(q, 0, out=flag)
    np.minimum(zeros, 16, out=zeros)
    np.subtract(16, zeros, out=zeros)
    zeros *= 2
    np.take(tb.key_base, k, out=key, mode="clip")
    key += zeros
    key += np.signbit(x, out=flag)

    words = _SLOT // 8
    slots = ws[8 : 8 + words].reshape(-1)[: n * words].reshape(n, words)
    slots[:, 0] = _HEAD
    quads = slots.view(np.uint32)
    scratch = ws[1, :n]
    for j, q in enumerate((q1, q2, q3, q4)):
        quads[:, 2 + j] = quads[:, 8 + j] = np.take(tb.quad, q, out=scratch.view(np.uint32)[:n], mode="clip")
    digit = d16.view(np.uint64)
    digit += ord("0")
    slots[:, 3] = np.add(digit, ord(".") << 8, out=scratch)
    slots[:, 6] = np.add(np.take(tb.exponent, k, out=scratch, mode="clip"), digit, out=scratch)
    by_field = slots.view(np.uint8).reshape(rows, cols, _SLOT)
    by_field[:, :, _SEP] = ord(",")
    by_field[:, -1, _SEP] = ord("\n")
    flat = slots.view(np.uint8).reshape(-1)

    bad = np.flatnonzero(np.logical_not(ok, out=flag))
    if bad.size:
        view = memoryview(flat)
        lengths = []
        for i, v in zip(bad.tolist(), x[bad].tolist()):
            field = b"%.17g" % v
            view[i * _SLOT : i * _SLOT + len(field)] = field
            lengths.append(len(field))
        key[bad] = _FALLBACK + np.array(lengths)
    keep = ws[:words].reshape(-1)[: n * words].reshape(n, words)
    np.take(tb.masks, key, axis=0, out=keep, mode="clip")
    return flat[keep.view(np.bool_).reshape(-1)]
