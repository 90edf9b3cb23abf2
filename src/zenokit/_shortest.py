"""``repr(float(v))`` for a whole float64 array at once, as NUL-padded lines.

:func:`repr_lines` writes each value's ``repr`` and a newline into a row
of :data:`SLOTS` bytes.  Every byte the text can need has a fixed slot
and the slots a value leaves empty hold NUL, so deleting the NULs
(``bytes.translate(None, b"\\0")``) leaves exactly ``repr(float(v))``
followed by ``"\\n"``.

The digits are Schubfach's shortest round-trip digits (R. Giulietti,
"The Schubfach way to render doubles", 2020; Java's ``DoubleToDecimal``),
computed in uint64 numpy arithmetic: multiply, shift, compare, floor
division and table gathers, never a float operation, so the bytes do
not depend on numpy's SIMD dispatch.  Like CPython's ``repr``, Schubfach
picks the shortest decimal that rounds back to the value and, among
those, the nearest, ties going to the even digit.  The text follows
``repr``'s layout: fixed notation for ``1e-4 <= |v| < 1e16``, else
``d.ddde±XX``.  Zeros, subnormals and non-finite values are written by
``repr`` itself.
"""
from __future__ import annotations

import numpy as np

# One value's slots, in 8-byte words: a sign; "0." and up to three zeros
# ahead of the digits of a fixed-notation value below 1; 17 digits, each
# but the last followed by a slot for the decimal point; the "0" of an
# integer value's ".0"; "e", the exponent's sign and three digits; two
# NULs and the newline.
SLOTS = 48
WORDS = SLOTS // 8
_DIGIT, _DOT0, _EXP = 6, 39, 40

_C_MIN = 1 << 52
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1

# k = floor(log10(2^q)) over every normal exponent q = -1074 .. 971, or
# floor(log10(3/4 2^q)) at the irregular spacing below c = 2^52
_K_MIN, _K_MAX = -324, 292


def _g_table():
    """Per ``k``: ``floor(log2(10^-k))``, and ``g = floor(10^-k 2^(125 -
    floor(log2(10^-k)))) + 1`` as its high and low 63-bit halves."""
    e2, g1, g0 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            e = p.bit_length() - 1
            g = (p << (125 - e) if e <= 125 else p >> (e - 125)) + 1
        else:
            # 10^k is no power of 2, so floor(log2(10^-k)) = -bit_length
            p = 10**k
            e = -p.bit_length()
            g = (1 << (125 - e)) // p + 1
        e2.append(e)
        g1.append(g >> 63)
        g0.append(g & _M63)
    return np.array(e2, np.int64), np.array(g1, np.uint64), np.array(g0, np.uint64)


def _words(rows) -> np.ndarray:
    """Byte strings of equal length as rows of native uint64 words, so a
    byte keeps its slot on either endianness."""
    return np.frombuffer(b"".join(rows), np.uint64).reshape(len(rows), -1)


def _templates():
    """Per layout case, the literal bytes and the mask of the digit slots.

    The cases are numbered as :func:`repr_lines` numbers them: fixed
    notation by the decimal point's place and the count of digits, then
    scientific notation by the exponent's sign, whether it has three
    digits, and the count of digits."""
    literals, masks = [], []
    digit = [_DIGIT + 2 * j for j in range(17)]
    for fixed, decpt, n_digits, exp_sign, hundreds in [
        *((True, decpt, n, "", False) for decpt in range(-3, 17) for n in range(1, 18)),
        *((False, 0, n, s, h) for s in "+-" for h in (False, True) for n in range(1, 18)),
    ]:
        literal, mask = bytearray(SLOTS), bytearray(SLOTS)
        mask[0] = 0xFF
        literal[-1] = ord("\n")
        if fixed:
            if decpt <= 0:
                literal[1 : 3 - decpt] = b"0." + b"0" * -decpt
            else:
                literal[digit[decpt - 1] + 1] = ord(".")
            for j in digit[: max(n_digits, decpt)]:
                mask[j] = 0xFF
            if n_digits <= decpt:
                literal[_DOT0] = ord("0")
        else:
            for j in digit[:n_digits]:
                mask[j] = 0xFF
            if n_digits > 1:
                literal[_DIGIT + 1] = ord(".")
            literal[_EXP : _EXP + 2] = b"e" + exp_sign.encode()
            mask[_EXP + 2 + (not hundreds) : _EXP + 5] = b"\xff" * (2 + hundreds)
        literals.append(bytes(literal))
        masks.append(bytes(mask))
    return _words(literals), _words(masks)


def _group_tables():
    """Per four-digit group 0000 .. 9999: its ASCII digits with a NUL after
    each, as one word, and its count of trailing zero digits (4 for 0000)."""
    group = np.arange(10_000, dtype=np.uint16)
    text = np.zeros((group.size, 8), np.uint8)
    trailing = np.zeros(group.size, np.int64)
    for j, place in enumerate((1000, 100, 10, 1)):
        text[:, 2 * j] = group // place % 10 + 48
        trailing += group % (10 * place) == 0
    return text.view(np.uint64).ravel(), trailing


_E2, _G1, _G0 = _g_table()
_LITERAL, _MASK = _templates()
# word 0 of the sign and the first digit; words 1-4 of four digits with
# a NUL after each; word 5 of an exponent's three digits
_FIRST = _words([s + bytes(5) + bytes([48 + d, 0]) for s in (b"\0", b"-") for d in range(10)]).ravel()
_EXPONENT = _words([bytes(2) + b"%03d" % e + bytes(3) for e in range(325)]).ravel()
_GROUP, _TRAILING = _group_tables()


def _limbs(x):
    return x & _M32, x >> 32


def _mul_high(a, b):
    """The high 64 bits of the 128-bit products ``a * b``, from limbs."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> 32) + (hi_lo & _M32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> 32) + (cross >> 32)


def _round_to_odd(g, cp):
    """The top bits of ``g cp`` rounded to odd, for ``g = g1 2^63 + g0``
    given as ``(g1, limbs of g1, limbs of g0)``."""
    g1, g1_limbs, g0_limbs = g
    cp_limbs = _limbs(cp)
    z = ((g1 * cp) >> 1) + _mul_high(g0_limbs, cp_limbs)
    return (_mul_high(g1_limbs, cp_limbs) + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """Schubfach on the bits of finite normal doubles: ``(d, k)`` with
    ``d 10^k`` the shortest nearest decimal, ``d`` of 16 or 17 digits
    (trailing zeros included)."""
    biased = (bits >> 52) & 0x7FF
    t = bits & (_C_MIN - 1)
    c = t | _C_MIN
    q = biased.astype(np.int64) - 1075
    irregular = (t == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    index = k - _K_MIN
    h = (q + _E2.take(index) + 2).astype(np.uint64)
    g1 = _G1.take(index)
    g = (g1, _limbs(g1), _limbs(_G0.take(index)))
    odd = c & 1
    cb = c << 2
    vb = _round_to_odd(g, cb << h)
    # the rounding interval is closed for even c, so its ends take +-odd
    vbl = _round_to_odd(g, (cb - 2 + irregular) << h) + odd
    vbr = _round_to_odd(g, (cb + 2) << h) - odd
    s = vb >> 2
    # one digit shorter, if exactly one multiple of 10 next to s is inside
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    # else s or s + 1, whichever is inside; if both, the nearer, ties to even s
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), s + ~pick_s)
    return d, k


def repr_lines(values, out) -> None:
    """Write ``repr(float(v)) + "\\n"`` of each of the 1-D float64 ``values``
    into the matching row of ``out``, a ``(values.size, WORDS)`` uint64
    array, NULs between and after its bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    special = (biased == 0) | (biased == 0x7FF)
    # a stand-in normal keeps the table lookups in range; its row is
    # overwritten below
    d, k = _shortest(np.where(special, 1 << 62, bits))
    long = d >= 10**16
    digits = np.where(long, d, d * 10)
    decpt = k + 16 + long
    # the 17 digits: the first, then four groups of four
    high = digits // 10**8
    low = digits - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    groups = []
    for eight in (high, low):
        top = eight // 10**4
        groups += [top, eight - top * 10**4]
    trailing = _TRAILING[groups[3]]
    for i in (2, 1, 0):
        trailing += (trailing == 4 * (3 - i)) * _TRAILING[groups[i]]
    fixed = (decpt > -4) & (decpt <= 16)
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    case = 16 - trailing + np.where(
        fixed, (decpt + 3) * 17, 340 + 34 * (exponent < 0) + 17 * (magnitude >= 100)
    )
    text = np.empty((values.size, WORDS), np.uint64)
    text[:, 0] = _FIRST.take(first + 10 * (bits >> 63))
    for i, group in enumerate(groups):
        text[:, 1 + i] = _GROUP.take(group)
    text[:, 5] = _EXPONENT.take(magnitude)
    text &= _MASK.take(case, axis=0)
    text |= _LITERAL.take(case, axis=0)
    out[...] = text
    rows = np.flatnonzero(special)
    if rows.size:
        lines = [repr(v).encode().ljust(SLOTS - 1, b"\0") + b"\n" for v in values[rows].tolist()]
        out[rows] = _words(lines)
