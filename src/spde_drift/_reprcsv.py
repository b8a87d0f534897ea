"""Trajectory CSV lines in the bytes ``csv.writer`` writes, a block at a time.

``csv.writer`` writes a float as ``repr`` does: the shortest decimal that
rounds back to the double, the nearest one of that length.  ``_digits``
finds it for a whole array by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020, the algorithm of Java's ``DoubleToDecimal``) in
``uint64`` arithmetic only.  ``_slots`` lays the digits out by ``repr``'s
rules: exponent form ``d[.ddd]e±XX`` when the decimal point would sit more
than 16 places right of the first digit or 4 or more left of it, else
``ddd.ddd`` with at least one digit on each side.  Each value becomes five
little-endian words, NUL-padded: the sign with any leading ``0.000``, three
words of digits and point, the exponent.  No string object is made per value:
``write_trajectory`` packs ``t,k,x`` lines of these slots into one byte
buffer per block of snapshots and drops its NULs.  Every table is built on
first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import _block_length

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_C_MIN = _U(1 << 52)  # the hidden bit of a normal double
_ONE = _U(0x3FF0000000000000)  # the bits of 1.0, put through in place of 0, inf and nan
_K_MIN, _K_MAX = -324, 292  # the decimal exponents of Schubfach's g table
_DIGIT_WORDS = 3  # 17 digits and the point
_NONE = 8 * _DIGIT_WORDS  # a point position that inserts no point
#: a value's slot: its prefix word, its digit words, its exponent word
_SLOT_BYTES = 8 * (_DIGIT_WORDS + 2)


def _word(text: str) -> int:
    """``text`` (at most 8 ASCII bytes) as a little-endian word."""
    return int.from_bytes(text.encode(), "little")


@functools.cache
def _tables() -> dict:
    """The kernel's lookup tables, built with Python ints on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125  # g = floor(10^-k / 2^r) + 1 in [2^125, 2^126)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num, den << r) if r >= 0 else (num << -r, den)
        g.append(num // den + 1)
    g1, g0 = [x >> 63 for x in g], [x & ((1 << 63) - 1) for x in g]
    groups = np.arange(10_000, dtype=np.uint16)  # small types: nothing large to free
    digits = np.stack([groups // 1000, groups // 100 % 10, groups // 10 % 10, groups % 10],
                      axis=1).astype(np.uint8)
    # each 4-digit group's characters in the low half of a word, and in the
    # high half 32 + its digits up to the last nonzero one (0 for "0000")
    kept = np.max((digits > 0) * np.arange(33, 37, dtype=np.uint8), axis=1)
    chars = (digits + np.uint8(0x30)).view("<u4").ravel()
    point = range(_NONE + 1)
    return {
        "g": np.array([[x >> 32 for x in g1], [x & 0xFFFFFFFF for x in g1],
                       [x >> 32 for x in g0], [x & 0xFFFFFFFF for x in g0], g1], dtype=_U),
        "pow10": np.array([10**n for n in range(18)], dtype=_U),
        "groups": chars.astype(_U) | (kept.astype(_U) << _U(32)),
        # the bytes of word w below position n, and a point at position n
        "below": np.array([[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in point]
                           for w in range(_DIGIT_WORDS)], dtype=_U),
        "point": np.array([[0x2E << 8 * (n - 8 * w) if 0 <= n - 8 * w < 8 else 0 for n in point]
                           for w in range(_DIGIT_WORDS)], dtype=_U),
        # index e + 324 for the exponents -324..308, then none
        "suffix": np.array([_word(f"e{e:+03d}") for e in range(-324, 309)] + [0], dtype=_U),
        # index 5 * negative + zeros after "0." + 1, or + 0 for no "0."
        "prefix": np.array([_word(s + lead) for s in ("", "-")
                            for lead in ("", "0.", "0.0", "0.00", "0.000")], dtype=_U),
        "special": {0x7FF0000000000000: "inf", 0xFFF0000000000000: "-inf"},
    }


def _mulhi(a1, a0, b1, b0):
    """The high words of the 128-bit products a b, for a < 2^63 in 32-bit
    halves a1, a0 and b < 2^60 in b1, b0: no partial sum overflows."""
    return a1 * b1 + ((a0 * b1 + a1 * b0 + ((a0 * b0) >> _U(32))) >> _U(32))


def _rop(g, cp):
    """Java's ``DoubleToDecimal.rop``: g cp / 2^127 rounded down, with a
    sticky low bit, for g = g1 2^63 + g0 given as ``g[0:2]`` (g1's halves),
    ``g[2:4]`` (g0's) and ``g[4]`` (g1)."""
    b1, b0 = cp >> _U(32), cp & _M32
    z = ((g[4] * cp) >> _U(1)) + _mulhi(g[2], g[3], b1, b0)
    return (_mulhi(g[0], g[1], b1, b0) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _digits(magnitude, tab):
    """(f, e): f 10^e is the shortest decimal that rounds to each positive
    finite double of ``magnitude`` (its bits), the nearest one on a tie.
    This is Schubfach, except that Java prints at least two digits and
    Python tries one."""
    t = magnitude & (_C_MIN - _U(1))
    bq = magnitude >> _U(52)
    c = t | _C_MIN
    q = bq.astype(np.int64) - 1075
    dk = 0
    subnormal = bq == _U(0)
    if subnormal.any():
        tiny = subnormal & (t < _U(3))  # 5e-324 and 1e-323: 10 c, one decimal place down
        c = np.where(subnormal, np.where(tiny, t * _U(10), t), c)
        q[subnormal] = -1074
        dk = -tiny.astype(np.int64)
    irregular = c == _C_MIN  # a power of two: the interval below is half as wide
    out = c & _U(1)  # an odd c's rounding interval leaves out its ends
    cb = c << _U(2)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U)
    g = tab["g"].take(k - _K_MIN, axis=1)[:, None, :]
    vb, vbl, vbr = _rop(g, np.stack([cb, cb - _U(2) + irregular, cb + _U(2)]) << h)
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    low, high = vbl + out, vbr - out
    upin = low <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= high
    uin = low <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= high
    mid = (s << _U(2)) + _U(2)
    closer = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    f = s + ~np.where(uin != win, uin, closer)
    f = np.where((upin != wpin) & (s >= _U(10)), sp10 + _U(10) * ~upin, f)
    return f, k + dk


def _slots(x):
    """The repr of each float of ``x`` as a ``_SLOT_BYTES`` row whose bytes,
    NULs dropped, are its text, and the (start, stop) byte columns of the
    rows that can hold any."""
    tab = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(_U)
    negative = (bits >> _U(63)).astype(np.intp)
    magnitude = bits & _M63
    regular = magnitude - _U(1) < _U(0x7FEFFFFFFFFFFFFF)  # finite and nonzero
    every = regular.all()
    if not every:
        magnitude = np.where(regular, magnitude, _ONE)
    f, e = _digits(magnitude, tab)
    # f has n digits (from its bit length); f 10^(17 - n) has 17
    bitlen = (f.astype(np.float64).view(_U) >> _U(52)).astype(np.intp) - 1022
    n = (bitlen * 1233) >> 12
    n += f >= tab["pow10"][n]
    decpt = n + e  # the value is 0.ddd 10^decpt
    f *= tab["pow10"][17 - n]
    if not every:
        zero = bits << _U(1) == _U(0)
        decpt[zero] = 1
        f[zero] = 0
    high = f // _U(10**9)
    low = (f - high * _U(10**9)).astype(np.uint32)
    high = high.astype(np.uint32)
    mid = low // np.uint32(10)
    first, third = high // np.uint32(10**4), mid // np.uint32(10**4)
    quads = tab["groups"].take(np.stack([first, high - first * np.uint32(10**4),
                                         third, mid - third * np.uint32(10**4)]))
    words = np.stack([(quads[0] & _M32) | (quads[1] << _U(32)),
                      (quads[2] & _M32) | (quads[3] << _U(32)),
                      (low - mid * np.uint32(10) + np.uint32(0x30)).astype(_U)])
    # the significant digits: up to the last nonzero one (all zeros: fewer than 1)
    kept = np.maximum.reduce([quads[0] >> _U(32), (quads[1] >> _U(32)) + _U(4),
                              (quads[2] >> _U(32)) + _U(8), (quads[3] >> _U(32)) + _U(12),
                              (words[2] > _U(0x30)) * _U(49)]).astype(np.intp) - 32
    exponent = (decpt <= -4) | (decpt > 16)
    plain = ~exponent & (decpt > 0)  # ddd.ddd, else 0.000ddd or d.ddde±XX
    kept = np.where(plain, np.maximum(kept, decpt + 1), kept)
    point = np.where(plain, decpt, np.where(exponent & (kept > 1), 1, _NONE))
    words &= tab["below"].take(kept, axis=1)
    head = words & tab["below"].take(point, axis=1)
    tail = words ^ head
    words = head | (tail << _U(8)) | tab["point"].take(point, axis=1)
    words[1:] |= tail[:-1] >> _U(56)
    small = ~exponent & ~plain
    prefix = 5 * negative + small * (1 - decpt)
    suffix = np.where(exponent, decpt + 323, len(tab["suffix"]) - 1)
    slots = np.empty((len(bits), _DIGIT_WORDS + 2), dtype="<u8")
    slots[:, 0] = tab["prefix"][prefix]
    slots[:, 1:-1] = words.T
    slots[:, -1] = tab["suffix"][suffix]
    lead = negative + small * (2 - decpt)
    if not every:
        for i in np.flatnonzero(~regular & (bits << _U(1) != _U(0))):  # inf, nan
            text = tab["special"].get(int(bits[i]), "nan")
            slots[i] = (_word(text), 0, 0, 0, 0)
            lead[i] = len(text)
    spans = [(0, lead.max()), (8, 8 + (kept + (point < _NONE)).max())]
    if exponent.any():
        spans.append((_SLOT_BYTES - 8, _SLOT_BYTES - 3))
    return slots.view(np.uint8), spans


def write_trajectory(fh, times, trajectory):
    """Write the ``t,k,x`` lines of ``trajectory`` (snapshots by modes) to
    the binary file ``fh``, a block of snapshots at a time."""
    n_rows, n_modes = trajectory.shape
    k_fields = np.array([f",{k},".encode() for k in range(1, n_modes + 1)])
    k_fields = k_fields.view(np.uint8).reshape(n_modes, -1)
    widest = 2 * _SLOT_BYTES + k_fields.shape[1] + 2
    rows = _block_length(n_rows, n_modes * -(-widest // 8))
    buffer = np.empty(rows * n_modes * widest, dtype=np.uint8)
    for start in range(0, n_rows, rows):
        stop = min(start + rows, n_rows)
        t, t_spans = _slots(times[start:stop])
        x, x_spans = _slots(trajectory[start:stop])
        x = x.reshape(stop - start, n_modes, -1)
        parts = [t[:, None, a:b] for a, b in t_spans] + [k_fields]
        parts += [x[:, :, a:b] for a, b in x_spans] + [np.frombuffer(b"\r\n", dtype=np.uint8)]
        width = sum(part.shape[-1] for part in parts)
        lines = buffer[: (stop - start) * n_modes * width].reshape(stop - start, n_modes, width)
        at = 0
        for part in parts:
            lines[:, :, at : at + part.shape[-1]] = part
            at += part.shape[-1]
        fh.write(lines.tobytes().translate(None, b"\0"))
