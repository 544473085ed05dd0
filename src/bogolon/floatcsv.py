"""Float64 tables as CSV lines, each cell byte for byte what ``repr`` prints.

``repr`` gives the shortest decimal that reads back as the same double,
the closest such one, ties to even.  Those digits come here from Dragonbox
(J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal Conversion
Algorithm", 2020), nearest to even, kappa = 2: one 64x128-bit product per
value and a division by 1000 (or 100), so numpy finds them for a block of
cells at a time.  The text follows ``repr``'s layout: fixed notation when
the decimal point position p lies in -4 < p <= 16 (``0.00012``, ``123.0``),
else ``d[.ddd]e+XX`` with at least two exponent digits.  Powers of two,
whose lower neighbour is twice as close, and subnormal, infinite and nan
cells are rare; they go through ``repr`` itself, in one batch per block.

A cell's text is first written to a row of six uint64 words, NUL where it
has no character: the sign, "0." and zeros from byte 0, digit j at byte
6 + 2j and the point after it at 7 + 2j, "e+XX" from byte 40 and the
separator at byte 47.  Deleting the NULs leaves the text.  ``csv_blocks``
yields it a block at a time: a writer holds the table and one block.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
#: Cells per block: the temporaries of a block stay in cache.
_BLOCK = 4096
#: Factors that pad 15, 16, 17 digits to 17.
_PAD = np.array([100, 10, 1], dtype=_U)
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
    """(by_exp, quads, last, masks, prefix, exponent), built on first use.

    by_exp[:, f], for the doubles c 2^q of exponent field f (q = f - 1075)
    and k = floor(log10(2^q)) - 2, has four rows: hi and lo of
    phi(-k) = hi 2^64 + lo, where phi(j) = ceil(10^j 2^(127 - floor(j log2
    10))); the shift b = q + floor(-k log2 10); and k + 18, held as int64
    bits.  For the 16 digits after the first, in four quads v = 0..9999:
    quads[v] their characters, each followed by a NUL; last[w * 10000 + v]
    the place (1..16) of the last nonzero digit in quad w, 0 if none;
    masks[n] keeps the first n - 1 digits.  prefix[neg * 5 + z]: the sign,
    then for z > 0 "0." and z - 1 zeros.  exponent[p + 399] for a point
    position p: "e+XX" or "e-XX" with exponent p - 1; entry 0 is empty.
    """
    phi = []
    for j in range(-292, 327):
        s = 127 - int(_flog2pow10(j))
        num = 10**max(j, 0) << max(s, 0)
        phi.append(-(-num // (10**max(-j, 0) << max(-s, 0))))
    phi = np.array([(x >> 64, x & (2**64 - 1)) for x in phi], dtype=_U).T
    q = np.arange(-1075, 973)
    k = ((q * 661_971_961_083) >> 41) - 2
    by_exp = np.vstack([phi[:, 292 - k],
                        np.stack([q + _flog2pow10(-k), k + 18]).astype(_U)])
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
    return by_exp, chars.view(_U).ravel(), last.ravel(), masks, prefix, exponent


def _divmod(a, n: int):
    """(a // n, a % n) for uint64 a; numpy's // by a scalar is fast, its % not."""
    quotient = a // _U(n)
    return quotient, a - quotient * _U(n)


def _mulhi(a, b_hi, b_lo):
    """High 64 bits of the 128-bit product of two uint64, b as 32-bit limbs."""
    a_hi, a_lo = a >> _U(32), a & _M32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _U(32)) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _U(32)) + (cross >> _U(32))


def _shortest(bits):
    """(left, p) for the positive normal doubles ``bits``, none a power of
    two: the shortest digits that read back as each, left-aligned in 17
    (trailing zeros filled in), and the point position p: the value reads
    0.ddd 10^p."""
    c = (bits & _U(2**52 - 1)) | _U(2**52)
    by_exp = _tables()[0]
    hi, lo, b, p = np.take(by_exp, (bits >> _U(52)).astype(np.intp), axis=1)
    # z = floor((c + 1/2) 2^q 10^-k): the top 128 of the 192 bits of u phi
    u = ((c << _U(1)) | _U(1)) << b
    u_hi, u_lo = u >> _U(32), u & _M32
    low = u * hi
    mid = low + _mulhi(lo, u_hi, u_lo)
    z = _mulhi(hi, u_hi, u_lo) + (mid < low)
    # [z - delta, z] is c's rounding interval, its ends in for an even c only
    delta = hi >> (_U(63) - b)
    s, r = _divmod(z, 1000)
    # an integer z at an excluded right end: one multiple of 1000 down
    at = np.flatnonzero(r == _U(0))
    at = at[(mid[at] == _U(0)) & (c[at] & _U(1)).astype(bool)]
    s[at] -= _U(1)
    r[at] = _U(1000)
    small = r > delta
    # s 10^(k + 3) if r < delta, or at r == delta if z - delta is in; else
    # one more digit, nearest to c: tail, or tail - 1 by the parity of c's
    # own product where 100 divides dist, or at such a tie for an even d.
    # One product serves both tests: x = 2c - 1 where r == delta, else 2c
    dist = r - (delta >> _U(1)) + _U(50)
    tail, rem = _divmod(dist, 100)
    at = np.flatnonzero(r == delta)
    ties = np.flatnonzero((r >= delta) & (rem == _U(0)))
    cells = np.concatenate([at, ties])
    x = (c[cells] << _U(1)) - (np.arange(cells.size) < at.size)
    x_hi, x_lo, x_b = hi[cells], lo[cells], b[cells]
    top = x * x_hi + _mulhi(x_lo, x >> _U(32), x & _M32)
    # floor(x phi / 2^(128 - b)): its parity, and if its 64 fraction bits are 0
    parity = ((top >> (_U(64) - x_b)) & _U(1)).astype(bool)
    integer = ((top << x_b) | ((x * x_lo) >> (_U(64) - x_b))) == _U(0)
    n = at.size
    small[at] = ~(parity[:n] | (integer[:n] & (c[at] & _U(1) == _U(0))))
    d = np.where(small, s * _U(10) + tail, s)
    d[ties] -= small[ties] & (
        (parity[n:] != ((dist[ties] ^ _U(50)) & _U(1)).astype(bool))
        | (integer[n:] & (d[ties] & _U(1)).astype(bool)))
    # d 10^(k + 3 - small) has 15, 16 or 17 digits; pad them to 17
    p = p.view(np.int64) - small
    wide = (d >= _U(10**15)).view(np.int8) + (d >= _U(10**16)).view(np.int8)
    return d * np.take(_PAD, wide), p + wide


def _block(x, first: int, ncol: int) -> bytes:
    """The CSV text of the flat cells ``x``, cell ``first`` of the table
    being x[0]; each cell ends in ',' or, in the last column, '\\n'."""
    _, quads, last, masks, prefix, exponent = _tables()
    bits = x.view(_U)
    exp_bits = (bits >> _U(52)) & _U(0x7FF)
    # powers of two (a lower neighbour twice as close), subnormal, infinite
    # and nan cells go through repr below
    odd = ((exp_bits == _U(0)) | (exp_bits == _U(0x7FF))
           | ((bits & _U(2**52 - 1)) == _U(0)))
    zero = (bits << _U(1)) == _U(0)
    # zero and the repr cells take 1.5's point, p = 1
    left, p = _shortest(np.where(odd, _U(0x3FF8000000000000), bits & _M63))
    left[zero] = 0
    lead, rest = _divmod(left, 10**16)
    hi, lo = _divmod(rest, 10**8)
    quad = np.stack([*_divmod(hi, 10**4), *_divmod(lo, 10**4)]).astype(np.intp)
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
    text[:, 6] = lead + _U(ord("0"))
    dotted = np.flatnonzero(np.where(fixed, p > 0, count > 1))
    text.reshape(-1)[dotted * _ROW + 5 + 2 * np.where(fixed, p, 1)[dotted]] = ord(".")
    text[:, -1] = ord(",")
    text[(ncol - 1 - first) % ncol::ncol, -1] = ord("\n")
    rare = odd & ~zero
    cells = np.array([repr(v).encode() for v in x[rare].tolist()],
                     dtype=f"S{_ROW - 1}")
    text[rare, :-1] = cells.view(np.uint8).reshape(-1, _ROW - 1)
    return text.tobytes().translate(None, b"\0")


def csv_blocks(rows: np.ndarray):
    """The float64 table ``rows`` as ASCII CSV lines, each ending in '\\n',
    yielded _BLOCK cells at a time; every cell reads as ``repr(float(cell))``."""
    ncol = rows.shape[1]
    flat = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    for i in range(0, flat.size, _BLOCK):
        yield _block(flat[i:i + _BLOCK], i, ncol)


def csv_lines(rows: np.ndarray) -> str:
    """The text of :func:`csv_blocks`, as one string."""
    return b"".join(csv_blocks(rows)).decode("ascii")
