"""Exact ``"%.17g"`` formatting of float64 rows, vectorized in numpy.

:func:`format_rows` returns the bytes of
``",".join("%.17g" % v for v in row) + "\\n"`` for every row of a 2-D
float64 array.  ``"%.17g"`` writes the 17-digit integer
``D = round(|x| * 10**(16 - X))``, ``X`` the decimal exponent, in fixed
notation for ``-4 <= X < 17`` and in scientific notation otherwise, with
the trailing zeros of ``D`` dropped.

* ``X`` is ``floor(log10|x|)``, corrected once from the scaled value.
* ``|x| * 10**q`` is a double-double: Dekker's exact product of ``x`` and
  the correctly rounded head of ``10**q`` (T. J. Dekker, "A floating-point
  technique for extending the available precision", Numer. Math. 18,
  1971), plus ``x`` times the correctly rounded tail.  Its error, about
  ``2**-104`` relative, decides the rounding of ``D`` except near a tie.
* The decimal point goes in as a digit: with ``w`` digits before it, the
  18-digit integer ``Y`` is ``D`` with a 1 put in after its first ``w``.
  Its digits come from tables of 4-digit ASCII words, read from a variant
  with NUL for the zeros that end ``Y``: those of the fraction, never
  those of the integer part, which the 1 follows.
* Each value gets a 28-byte slot: the separator before it, its sign, room
  for the "0.000" prefix of ``-4 <= X <= -1``, the 18 digits of ``Y`` at
  one offset for every value, and the exponent "e+XX".  One template row
  per (``X``, decimal point, sign) class is XOR-ed over the slot: it turns
  the 1 into the point, or into NUL if no digit follows it, and writes the
  prefix, exponent, sign and separator.  NUL bytes are dropped at the
  end.

Values the product cannot decide (``|frac - 1/2| <= _TIE``), NaN, the
infinities and magnitudes outside ``[_LO, _HI)`` (subnormals included)
are formatted one by one with ``"%.17g" %`` itself.  The tables are
built on the first call, the first CSV write of a process.  No array of
a pass of 4096 values is over 112 KiB, below the 128 KiB from which glibc
maps each allocation afresh.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_LO, _HI = 1e-30, 1e30
_TIE = 1e-9
_PASS = 4096  # values per kernel pass
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_X_MIN, _X_MAX = -31, 30  # decimal exponents reached, before and after rounding
# slot layout: separator, sign, the "0.000" prefix (its last byte over
# Y's first), the 18 digits of Y from byte 6, the exponent from byte 24
_Y, _EXP, _WIDTH = 6, 24, 28


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _power(q: int) -> tuple:
    """10**q as hi + lo, each correctly rounded (int division rounds so)."""
    num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@cache
def _tables() -> tuple:
    exps = range(_X_MIN, _X_MAX + 1)
    # the powers 10**(16 - X): head, tail and the two halves of the head
    heads, tails = np.array([_power(16 - X) for X in exps]).T
    powers = np.column_stack([heads, tails, *_split(heads)])
    # per X: the digits w before the point (0 for the "0.000" prefix),
    # and 10**(17 - w)
    whole = [1 if X < -4 or X > 16 else max(X + 1, 0) for X in exps]
    unit = np.array([10 ** (17 - w) for w in whole], np.int64)
    # the 4-digit words 0000 ... 9999, then the same with the zeros that
    # end them as NUL (built in place: small temporaries keep the build's
    # memory down); the pairs 00 ... 99 in the last two bytes of a word
    pair = np.indices((10, 10), np.uint8).reshape(2, 100).T + np.uint8(ord("0"))
    groups = np.empty((2, 100, 100, 4), np.uint8)
    groups[..., :2], groups[..., 2:] = pair[:, None], pair
    kept = groups[1, ..., ::-1] != ord("0")
    groups[1] *= np.logical_or.accumulate(kept, axis=-1, out=kept)[..., ::-1]
    pairs = np.zeros((2, 100, 4), np.uint8)
    pairs[..., 2:] = groups[:, 0, :, 2:]
    # the XOR templates of the (X, point, sign) classes, over Y's words
    templates = np.zeros((len(exps), 2, 2, _WIDTH), np.uint8)
    templates[..., 0] = ord(",")
    templates[:, :, 1, 1] = ord("-")
    for i, X in enumerate(exps):
        at = _Y + whole[i]  # Y's 1, to NUL, the point or the prefix's last byte
        templates[i, :, :, at] = ord("1")
        if -4 <= X <= -1:
            text = np.frombuffer(b"0." + b"0" * (-X - 1), np.uint8)
            templates[i, :, :, at - len(text) + 1:at + 1] ^= text
        else:
            templates[i, 1, :, at] ^= ord(".")
        if X < -4 or X > 16:
            templates[i, :, :, _EXP:] = np.frombuffer(b"e%+03d" % X, np.uint8)
    tables = (powers, unit, groups.view(np.uint32).ravel(), pairs.view(np.uint32).ravel(),
              templates.reshape(-1, _WIDTH).view(np.uint32))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(v, i, powers):
    """``v * 10**(16 - X)`` as ``p + t``, ``i`` = ``X - _X_MIN``: ``p`` the
    rounded product, an integer for these magnitudes, and ``t`` the rest
    to about 2**-104."""
    ph, pl, phh, phl = powers.take(i, axis=0).T
    p = v * ph
    vh, vl = _split(v)
    e = ((vh * phh - p) + vh * phl + vl * phh) + vl * phl
    return p, e + v * pl


def format_rows(block) -> bytes:
    """The ``"%.17g"`` CSV lines of the rows of a 2-D float64 array."""
    # in passes of _PASS values: a call's temporaries are one pass's,
    # whatever its size.  A slot holds the separator before its value, so
    # the block's last line ends here, joined without a second copy
    a = np.asarray(block, dtype=np.float64)
    x, n_cols = a.ravel(), a.shape[1]
    return b"".join([*(_pass(x[s:s + _PASS], s, n_cols) for s in range(0, x.size, _PASS)), b"\n"])


def _pass(x, start: int, n_cols: int) -> bytes:
    powers, unit, groups, pairs, templates = _tables()
    ax = np.abs(x)
    regular = (ax >= _LO) & (ax < _HI)  # false for NaN
    zero = ax == 0.0
    v = np.where(regular, ax, 1.0)  # zeros go through as 1, then get D = 0
    del ax  # each array goes once it is used up

    i = np.floor(np.log10(v)).astype(np.intp) - _X_MIN
    p, t = _scaled(v, i, powers)
    low = (p - 1e16) + t < 0.0  # the sign of the exact sum
    high = (p - 1e17) + t >= 0.0
    fix = np.flatnonzero(low | high)
    if fix.size:
        i[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix], t[fix] = _scaled(v[fix], i[fix], powers)
    del v, low, high
    whole = np.floor(t)
    t -= whole  # the fraction
    D = p.astype(np.int64) + whole.astype(np.int64) + (t > 0.5)
    odd = np.flatnonzero(~(regular | zero) | (np.abs(t - 0.5) <= _TIE))
    del p, t, whole, regular
    up = np.flatnonzero(D == 10 ** 17)
    D[up] = 10 ** 16
    i[up] += 1
    D[zero] = 0

    # Y: D with a 1 after its first w digits
    u = unit.take(i)
    head = D // u * u
    point = D != head  # a digit of D follows the point
    Y = D + 9 * head + u
    del D, head, u, zero
    # its digits: a pair and four groups of four, each group from the
    # stripped words if every group after it is 0
    top = Y // 10 ** 16
    r = Y - top * 10 ** 16
    h12 = r // 10 ** 8
    h34 = r - h12 * 10 ** 8
    h1, h3 = h12 // 10 ** 4, h34 // 10 ** 4
    h2, h4 = h12 - h1 * 10 ** 4, h34 - h3 * 10 ** 4
    del Y, h12
    buf = templates.take(4 * i + 2 * point + np.signbit(x), axis=0)
    del i, point
    buf[:, 5] ^= groups.take(h4 + 10 ** 4)  # the words of Y are 1-5
    buf[:, 4] ^= groups.take(h3 + 10 ** 4 * (h4 == 0))
    buf[:, 3] ^= groups.take(h2 + 10 ** 4 * (h34 == 0))
    buf[:, 2] ^= groups.take(h1 + 10 ** 4 * (h2 + h34 == 0))
    buf[:, 1] ^= pairs.take(top + 100 * (r == 0))
    del top, r, h1, h2, h3, h4, h34
    buf = buf.view(np.uint8)
    buf[-start % n_cols::n_cols, 0] = ord("\n")  # before each row's first value
    if start == 0:  # and nothing before the block's
        buf[0, 0] = 0
    if odd.size:  # "%.17g" itself, after the separator
        text = b"".join(("%.17g" % y).encode().ljust(_WIDTH - 1, b"\0") for y in x[odd].tolist())
        buf[odd, 1:] = np.frombuffer(text, np.uint8).reshape(odd.size, _WIDTH - 1)
    return buf.tobytes().translate(None, b"\0")
