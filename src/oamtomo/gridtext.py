"""np.savetxt's '%.9g' text of a grid, made by numpy a block of rows at a time.

fileio.write_grid imports this module on the first grid it writes, so its
tables are built then (in about 1 ms) and no other command pays for them.

The mantissa.  With e = floor(log10|x|), s = |x| * 10**(8 - e) takes the
correctly rounded power of ten from a table (after a prescale by 1e200 below
1e-290, where the power would overflow).  That is at most four roundings of
relative size 2**-53, so s is within 4.5e-7 of the exact |x| * 10**(8 - e),
and where s is in [1e8, 1e9), rint(s) is the correctly rounded 9-digit
mantissa unless frac(s) is within 1e-6 of 1/2; a mantissa that rounds to 1e9
carries to 1e8 and e + 1.  Values in that band of 1e-6, values whose s is
outside [1e8, 1e9) (log10 rounded across an integer: |x| within about 1e-15
of a power of ten), and non-finite values get Python's '%.9g' instead: 0 to
4 values of a 512 x 512 grid of the mode export.  Zero is 0 or -0.

The text.  A value's text is gathered from five 4-byte words: its mantissa
digits as 'ddd.', 'ddd0' and 'ddde', its exponent as '+ddd', and '-', the
separator (a newline at the end of a row), NUL, NUL.  A template of byte
positions, chosen by sign, layout (fixed notation for e in -4..8, else two or
three exponent digits) and number of significant digits, picks the text's
bytes, padded to _WIDTH with NULs, which are then dropped.
"""

import numpy as np

_WIDTH = 17  # the longest text and its separator: "-1.23456789e-100 "
_E0 = 400  # index of exponent 0 in the tables by exponent
_P0 = 320  # index of 10**0 in _POWERS


def _template(sign: int, layout: int, digits: int) -> list:
    """Byte positions, in the five words of a value, of its text and separator;
    layout is e + 4 for fixed notation, 13 or 14 for two or three exponent
    digits, and 0 digits is zero's text."""
    mantissa = [0, 1, 2, 4, 5, 6, 8, 9, 10]  # d1 .. d9; '.' is byte 3, '0' byte 7
    point = layout - 4
    if digits == 0:
        text = [7]
    elif layout < 13 and point >= 0:
        text = mantissa[:max(digits, point + 1)]
        if digits > point + 1:
            text.insert(point + 1, 3)
    elif layout < 13:
        text = [7, 3] + [7] * (-point - 1) + mantissa[:digits]
    else:
        text = mantissa[:1] + ([3] + mantissa[1:digits] if digits > 1 else []) + [11, 12]
        text += [14, 15] if layout == 13 else [13, 14, 15]
    text = [16] * sign + text + [17]
    return text + [18] * (_WIDTH - len(text))


def _words(*columns) -> np.ndarray:
    """uint32 words of four byte columns."""
    return np.column_stack(columns).astype(np.uint8).view(np.uint32)[:, 0]


_THREE = np.arange(1000)
_DIGITS = np.stack([_THREE // 100, _THREE // 10 % 10, _THREE % 10], 1) + ord("0")
_DIGIT_WORDS = [_words(_DIGITS, np.full(1000, ord(end))) for end in ".0e"]
_EXPONENTS = np.arange(-_E0, _E0)
_EXPONENT_WORDS = _words(np.where(_EXPONENTS < 0, ord("-"), ord("+")),
                         _DIGITS[np.abs(_EXPONENTS)])
# template index of 9 significant digits, by exponent
_LAYOUT_KEYS = 10 * np.select([np.abs(_EXPONENTS - 2) <= 6, np.abs(_EXPONENTS) < 100],
                              [_EXPONENTS + 4, 13], 14) + 9
_TRAILING_ZEROS = (_THREE % 10 == 0).astype(np.intp) + (_THREE % 100 == 0) + (_THREE == 0)
_TEMPLATES = np.array([_template(s, c, d) for s in range(2) for c in range(15)
                       for d in range(10)])
_POWERS = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])


def _decimal(x, floats, ints, flags):
    """(e, m, slow) of a 1-D float64 array: |x| is m * 10**(e - 8) with m the
    correctly rounded 9-digit mantissa (0 for 0), except where slow is set.
    floats, ints and flags are scratch rows of x's length; e, m and slow are
    rows of ints and flags."""
    ax, s = floats
    e, m = ints
    slow, nonzero, off = flags
    np.abs(x, out=ax)
    np.logical_not(np.isfinite(ax, out=slow), out=slow)
    ax[slow] = 0.0
    np.greater(ax, 0.0, out=nonzero)
    s.fill(0.0)
    np.log10(ax, out=s, where=nonzero)
    np.floor(s, out=s)
    np.copyto(e, s, casting="unsafe")
    k = np.subtract(_P0 + 8, e, out=m)  # the index of 10**(8 - e) in _POWERS
    if k.max() > _P0 + 298:  # |x| < 1e-290
        tiny = np.flatnonzero(k > _P0 + 298)
        ax[tiny] *= 1e200
        k[tiny] -= 200
    np.take(_POWERS, k, out=s, mode="clip")
    s *= ax
    np.less(s, 1e8, out=off)
    off &= nonzero
    slow |= off
    slow |= s >= 1e9
    rounded = np.rint(s, out=ax)
    s -= rounded
    slow |= np.abs(s, out=s) > 0.5 - 1e-6
    carry = np.flatnonzero(rounded >= 1e9)
    rounded[carry] = 1e8
    e[carry] += 1
    np.copyto(m, rounded, casting="unsafe")
    return e, m, slow


def grid_text(samples, value=None, order=None):
    """Yield the '%.9g' text of the values of a 2-D array of samples, as
    np.savetxt writes them without a header, in uint8 arrays of one block of
    rows each.  value(block, out) makes the float64 values of a block of
    samples in out (a row of the block's size); without value the samples are
    the values.  With order, an index array, line r holds row order[r] with its
    samples taken at order, gathered one block at a time.

    A block is 1/32 of a square grid.  Its scratch, about 273 B a value (136 B
    the byte index of its text), is allocated once and reused for every block;
    a gathered block of complex samples adds 16 B a value while it is read.
    Every take is mode='clip', which writes straight into out (mode='raise'
    buffers the whole output): each index is in range by construction, and a
    wrong one would still be clipped into its table.
    """
    n_rows, n_cols = samples.shape
    rows = max(1, n_rows // 32)
    size = rows * n_cols
    planes = np.zeros((5, size), np.uint32)  # the words of value i are column i
    tail = planes[4].view(np.uint8).reshape(rows, n_cols, 4)
    tail[..., 0] = ord("-")
    tail[..., 1] = ord(" ")
    tail[:, -1, 1] = ord("\n")
    source = planes.view(np.uint8).ravel()
    # each template as offsets into source of value 0, and value i's offset
    templates = (_TEMPLATES // 4 * (4 * size) + _TEMPLATES % 4).astype(np.intp)
    templates = templates.view(np.dtype((np.void, 8 * _WIDTH))).ravel()
    base = np.arange(0, 4 * size, 4)[:, None]
    floats = np.empty((3, size))  # the values, and _decimal's two rows
    ints = np.empty((6, size), np.intp)
    flags = np.empty((3, size), bool)
    index = np.empty((size, _WIDTH), np.intp)
    text = np.empty((size, _WIDTH), np.uint8)
    keep = np.empty((size, _WIDTH), bool)
    for r0 in range(0, n_rows, rows):
        if order is None:
            x = samples[r0:r0 + rows].ravel()
        else:
            x = samples[np.ix_(order[r0:r0 + rows], order)].ravel()
        n = x.size
        if value is not None:
            x = value(x, floats[0, :n])
        e, m, slow = _decimal(x, floats[1:, :n], ints[:2, :n], flags[:, :n])
        a, b, c, key = ints[2:, :n]  # the mantissa's three groups of digits
        np.floor_divide(m, 1000000, out=a)
        np.floor_divide(m, 1000, out=b)
        np.multiply(b, -1000, out=c)
        c += m
        np.multiply(a, -1000, out=m)
        b += m
        for plane, words, group in zip(planes, _DIGIT_WORDS, (a, b, c)):
            np.take(words, group, out=plane[:n], mode="clip")
        e += _E0
        np.take(_EXPONENT_WORDS, e, out=planes[3, :n], mode="clip")
        np.take(_LAYOUT_KEYS, e, out=key, mode="clip")
        key -= np.take(_TRAILING_ZEROS, c, out=m, mode="clip")
        ends = np.flatnonzero(c == 0)  # trailing zeros also before the last three digits
        key[ends] -= _TRAILING_ZEROS[b[ends]] + (b[ends] == 0) * _TRAILING_ZEROS[a[ends]]
        key += np.multiply(np.signbit(x, out=flags[2, :n]), 150, out=m)  # 15 layouts x 10
        np.take(templates, key, out=index[:n].view(templates.dtype).ravel(), mode="clip")
        index[:n] += base[:n]
        t = np.take(source, index[:n], out=text[:n], mode="clip")
        for i in np.flatnonzero(slow):
            t[i] = 0
            line = b"%.9g%c" % (x[i], 10 if (i + 1) % n_cols == 0 else 32)
            t[i, :len(line)] = np.frombuffer(line, np.uint8)
        yield t[np.not_equal(t, 0, out=keep[:n])]
