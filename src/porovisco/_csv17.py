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
* Each value gets a fixed-width slot of ASCII bytes, laid out by one
  template row per (``X``, decimal point present).  NUL bytes mark the
  unused positions and are dropped at the end.

Values the product cannot decide (``|frac - 1/2| <= _TIE``), NaN, the
infinities and magnitudes outside ``[_LO, _HI)`` (subnormals included)
are formatted one by one with ``"%.17g" %`` itself, and so is a whole
block of fewer than ``_SMALL`` values, below the kernel's fixed cost.
The tables are built on the first call that needs them, so a run that
writes only small tables never builds them.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_LO, _HI = 1e-30, 1e30
_TIE = 1e-9
_SMALL = 128  # the "%.17g" loop is faster below about 100-200 values
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_X_MIN, _X_MAX = -31, 30  # decimal exponents reached, before and after rounding
# slot layout: sign, the "0.000" prefix of -4 <= X <= -1, the 17 digits
# at even offsets with a possible decimal point after each of the first 16,
# the exponent "e+XX", and the separator
_DIGITS = 6
_EXP = _DIGITS + 33
_WIDTH = _EXP + 5


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
    # the powers 10**(16 - X): head, tail and the two halves of the head
    pw = np.array([_power(16 - X) for X in range(_X_MIN, _X_MAX + 1)])
    powers = np.vstack([pw.T, *_split(pw[:, 0])])
    templates = np.zeros((_X_MAX - _X_MIN + 1, 2, _WIDTH), np.uint8)
    for X in range(_X_MIN, _X_MAX + 1):
        row = templates[X - _X_MIN]
        if -4 <= X <= -1:
            prefix = np.frombuffer(b"0." + b"0" * (-X - 1), np.uint8)
            row[:, 1:1 + len(prefix)] = prefix
        elif 0 <= X < 16:
            row[1, _DIGITS + 2 * X + 1] = ord(".")
        elif X < -4 or X > 16:
            row[1, _DIGITS + 1] = ord(".")
            row[:, _EXP:_EXP + 4] = np.frombuffer(b"e%+03d" % X, np.uint8)
    # the 4-digit groups 0000 ... 9999 as ASCII words, and their trailing
    # zeros, from the 100 pairs 00 ... 99 (small temporaries keep the
    # build's memory down)
    pairs = np.indices((10, 10), np.uint8).reshape(2, 100).T + np.uint8(ord("0"))
    groups = np.empty((100, 100, 4), np.uint8)
    groups[:, :, :2] = pairs[:, None]
    groups[:, :, 2:] = pairs[None, :]
    pair_zeros = np.zeros(100, np.uint8)
    pair_zeros[::10] = 1
    pair_zeros[0] = 2
    trailing = np.empty((100, 100), np.uint8)
    trailing[:] = pair_zeros
    trailing[:, 0] += pair_zeros
    # a row of digits is five words: three padding bytes and the lead
    # digit, then the four groups; the masks keep its first k digits
    leads = np.frombuffer(b"".join(b"\0\0\0%d" % d for d in range(10)), np.uint32)
    keep = np.frombuffer(b"".join(b"\xff" * (3 + k) + b"\0" * (17 - k) for k in range(18)), np.uint32)
    tables = (powers, templates.reshape(-1, _WIDTH), leads, groups.view(np.uint32).ravel(),
              trailing.ravel(), keep.reshape(18, 5))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(v, X, powers):
    """``v * 10**(16 - X)`` as ``p + t``: ``p`` the rounded product, an
    integer for these magnitudes, and ``t`` the rest to about 2**-104."""
    ph, pl, phh, phl = np.take(powers, X - _X_MIN, axis=1)
    p = v * ph
    vh, vl = _split(v)
    e = ((vh * phh - p) + vh * phl + vl * phh) + vl * phl
    return p, e + v * pl


def _loop(a) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in a.tolist()).encode()


def format_rows(block) -> bytes:
    """The ``"%.17g"`` CSV lines of the rows of a 2-D float64 array."""
    a = np.asarray(block, dtype=np.float64)
    return _loop(a) if a.size < _SMALL else _kernel(a)


def _kernel(a) -> bytes:
    powers, templates, leads, groups, trailing, keep = _tables()
    n_rows, n_cols = a.shape
    x = a.ravel()
    ax = np.abs(x)
    regular = (ax >= _LO) & (ax < _HI)  # false for NaN
    zero = ax == 0.0
    v = np.where(regular, ax, 1.0)  # zeros go through as 1, then get the digit 0

    X = np.floor(np.log10(v)).astype(np.intp)
    p, t = _scaled(v, X, powers)
    low = (p - 1e16) + t < 0.0  # the sign of the exact sum
    high = (p - 1e17) + t >= 0.0
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += high[fix].astype(np.intp) - low[fix]
        p[fix], t[fix] = _scaled(v[fix], X[fix], powers)
    whole = np.floor(t)
    frac = t - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    up = D == 10 ** 17
    D[up] = 10 ** 16
    X[up] += 1

    # the 17 digits, in ASCII: the lead digit and four groups of four
    lead = D // 10 ** 16
    rest = D - lead * 10 ** 16
    g12 = rest // 10 ** 8
    g34 = rest - g12 * 10 ** 8
    g1 = g12 // 10 ** 4
    g3 = g34 // 10 ** 4
    g2 = g12 - g1 * 10 ** 4
    g4 = g34 - g3 * 10 ** 4
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = leads.take(lead)
    for k, g in enumerate((g1, g2, g3, g4), 1):
        words[:, k] = groups.take(g)
    tz = trailing.take(g1)
    for g in (g2, g3, g4):
        tz = trailing.take(g) + (g == 0) * tz
    # the trailing zeros of the fraction go; those of the integer part stay
    significant = 17 - tz
    whole_digits = np.where((X < -4) | (X > 16), 1, X + 1)
    point = significant > whole_digits
    words &= keep.take(np.maximum(significant, whole_digits), axis=0)
    words[zero, 0] = leads[0]

    buf = templates.take(2 * (X - _X_MIN) + point, axis=0)
    buf[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    buf[:, _DIGITS:_EXP:2] = words.view(np.uint8)[:, 3:]
    odd = np.flatnonzero(~(regular | zero) | (np.abs(frac - 0.5) <= _TIE))
    if odd.size:
        text = b"".join(("%.17g" % y).encode().ljust(_WIDTH - 1, b"\0") for y in x[odd].tolist())
        buf[odd, :-1] = np.frombuffer(text, np.uint8).reshape(odd.size, _WIDTH - 1)
    buf[:, -1] = ord(",")
    buf.reshape(n_rows, n_cols * _WIDTH)[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")
