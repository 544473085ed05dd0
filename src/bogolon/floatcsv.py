"""Float64 tables as CSV lines, each cell byte for byte what ``repr`` prints.

``repr`` gives the shortest decimal that reads back as the same double,
the closest such one, ties to even.  Those digits come here from the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020): one 126-bit constant per decimal exponent and three 64x64-bit
products per value, so numpy finds them for a block of cells at a time.
The text follows ``repr``'s layout: fixed notation when the decimal point
position p lies in -4 < p <= 16 (``0.00012``, ``123.0``), else
``d[.ddd]e+XX`` with at least two exponent digits.  Subnormal, infinite and
nan cells are rare; each goes through ``repr`` itself.

A cell's text is first written to a row of six uint64 words, NUL where it
has no character: the sign, "0." and zeros from byte 0, digit j at byte
6 + 2j and the point after it at 7 + 2j, "e+XX" from byte 40 and the
separator at byte 47.  Deleting the NULs leaves the text.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
#: Cells per block: the temporaries of a block stay in cache.
_BLOCK = 4096
#: Decimal exponents of the constants g(k) ~ 10^-k, k = _K_MIN .. 292.
_K_MIN = -324
#: Bytes of a cell's row (see above).
_ROW = 48
#: Offsets of the four quads' parts of the ``last`` table.
_QUAD_OFFSETS = np.arange(0, 40_000, 10_000)[:, None]


def _flog2pow10(e):
    """floor(e log2(10)), exact for |e| < 1000."""
    return (e * 913_124_641_741) >> 38


def _words(texts) -> np.ndarray:
    """Each text of at most 8 bytes as one uint64, padded with NULs."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=_U)


@cache
def _tables():
    """(g, quads, last, masks, prefix, exponent), built on first use.

    g: rows g1, hi and lo 32 bits of g1, of g0, where g(k) = g1 2^63 + g0 is
    floor(10^-k 2^-r) + 1, scaled into [2^125, 2^126).  For the 16 digits
    after the first, in four quads v = 0..9999: quads[v] their characters,
    each followed by a NUL; last[w * 10000 + v] the place (1..16) of the
    last nonzero digit in quad w, 0 if none; masks[n] keeps the first n - 1
    digits.  prefix[neg * 5 + z]: the sign, then for z > 0 "0." and z - 1
    zeros.  exponent[p + 399] for a point position p: "e+XX" or "e-XX" with
    exponent p - 1; entry 0 is empty.
    """
    rows = []
    for k in range(_K_MIN, 293):
        r = int(_flog2pow10(-k)) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g = (num << -r if r < 0 else num) // (den << r if r > 0 else den) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((g1, g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1)))
    g = np.array(rows, dtype=_U).T.copy()
    v = np.arange(10_000)
    chars = np.zeros((10_000, 8), dtype=np.uint8)
    chars[:, ::2] = v[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    trailing = (v[:, None] % [10, 100, 1000] == 0).sum(axis=1)
    last = ((4 * np.arange(1, 5)[:, None] - trailing) * (v > 0)).astype(np.int8)
    masks = _words(b"\xff\0" * n for n in range(5))[
        np.clip(np.arange(18)[:, None] - [1, 5, 9, 13], 0, 4)]
    prefix = _words(b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"")
                    for neg in (0, 1) for z in range(5))
    exponent = _words([b""] + [b"e%+03d" % (p - 1) for p in range(-398, 400)])
    return g, chars.view(_U).ravel(), last.ravel(), masks, prefix, exponent


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the 128-bit product of two uint64 given as 32-bit limbs."""
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _U(32)) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _U(32)) + (cross >> _U(32))


def _rop(g, cp):
    """floor(g cp / 2^127), its last bit set if the quotient is inexact."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    vbp = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(left, p) for the positive normal doubles ``bits``: the shortest
    digits that read back as each, left-aligned in 17 (trailing zeros
    filled in), and the position p of the decimal point, so that the value
    reads 0.ddd 10^p."""
    exp_bits = (bits >> _U(52)).astype(np.int64)
    q = exp_bits - 1075
    frac = bits & _U(2**52 - 1)
    c = frac | _U(2**52)
    # at a power of two the lower neighbour is twice as close
    asym = (frac == _U(0)) & (exp_bits > 1)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) at a power of two
    k = (q * 661_971_961_083 - asym * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)   # 2..5: cb << h < 2^60
    g = np.take(_tables()[0], k - _K_MIN, axis=1)
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    # the interval [vbl, vbr] keeps its ends for an even c only
    vbl = _rop(g, (cb - _U(2) + asym) << h) + (c & _U(1))
    vbr = _rop(g, (cb + _U(2)) << h) - (c & _U(1))
    s = vb >> _U(2)
    # s has 16 or 17 digits, and the interval holds one multiple of 10 at most
    s10 = s // _U(10)
    s10_in, t10_in = vbl <= s10 * _U(40), s10 * _U(40) + _U(40) <= vbr
    short = s10_in != t10_in
    # else s or t = s + 1: the one inside, else the closer, else the even
    mid = s * _U(4) + _U(2)
    closer_t = (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool))
    s_in, t_in = vbl <= s << _U(2), (s << _U(2)) + _U(4) <= vbr
    d = np.where(short, s10 + t10_in,
                 s + np.where(s_in == t_in, closer_t, t_in))
    # d 10^k has 15, 16 or 17 digits; pad them to 17
    wide, wider = d >= _U(10**15), d >= _U(10**16)
    return (d * np.where(wide, np.where(wider, _U(1), _U(10)), _U(100)),
            k + short + 15 + wide + wider)


def _block(x, first: int, ncol: int) -> bytes:
    """The CSV text of the flat cells ``x``, cell ``first`` of the table
    being x[0]; each cell ends in ',' or, in the last column, '\\n'."""
    _, quads, last, masks, prefix, exponent = _tables()
    bits = x.view(_U)
    exp_bits = (bits >> _U(52)) & _U(0x7FF)
    odd = (exp_bits == _U(0)) | (exp_bits == _U(0x7FF))
    zero = (bits << _U(1)) == _U(0)
    # zero and the special cells take 1.0's digits and point, p = 1
    left, p = _shortest(np.where(odd, _U(0x3FF0000000000000), bits & _M63))
    left[zero] = 0
    rest = left % _U(10**16)
    hi = (rest // _U(10**8)).astype(np.intp)
    lo = (rest % _U(10**8)).astype(np.intp)
    quad = np.stack([hi // 10**4, hi % 10**4, lo // 10**4, lo % 10**4])
    count = np.take(last, quad + _QUAD_OFFSETS).max(axis=0) + 1
    fixed = (p > -4) & (p <= 16)
    # fixed notation shows an integer's zeros up to the point and one after
    shown = np.where(fixed & (p >= count), p + 1, count)
    m = x.size
    row = np.empty((m, _ROW // 8), dtype=_U)
    row[:, 0] = np.take(prefix, (bits >> _U(63)).astype(np.intp) * 5
                        + np.where(fixed & (p <= 0), 1 - p, 0))
    row[:, 1:5] = np.take(quads, quad).T & np.take(masks, shown, axis=0)
    row[:, 5] = np.take(exponent, np.where(fixed, 0, p + 399))
    text = row.view(np.uint8)
    text[:, 6] = left // _U(10**16) + _U(ord("0"))
    dotted = np.flatnonzero(np.where(fixed, p > 0, count > 1))
    text.reshape(-1)[dotted * _ROW + 5 + 2 * np.where(fixed, p, 1)[dotted]] = ord(".")
    text[:, -1] = ord(",")
    text[(ncol - 1 - first) % ncol::ncol, -1] = ord("\n")
    for i in np.flatnonzero(odd & ~zero):
        text[i, :-1] = 0
        cell = repr(float(x[i])).encode()
        text[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def csv_lines(rows: np.ndarray) -> str:
    """The float64 table ``rows`` as CSV lines, each ending in '\\n'; every
    cell reads as ``repr(float(cell))``."""
    ncol = rows.shape[1]
    flat = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    return b"".join(_block(flat[i:i + _BLOCK], i, ncol)
                    for i in range(0, flat.size, _BLOCK)).decode("ascii")
