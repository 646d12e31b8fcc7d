"""TLE field-level encodings: checksums, alpha-5 catalog numbers, and
the "assumed decimal point" exponent notation.

These are the low-level quirks of the 1970s-era format; keeping them in
one module means the parser and formatter stay readable.

Each bulk decoder (``checksums`` and the ``*_columns`` functions) reads
one fixed-width field of many ASCII lines at once and returns the
decoded values with an ``ok`` mask.  A line is ``ok`` only when its text
has the plain shape the decoder proves equal to the scalar codec's
result; every other line is left to the scalar codec, which gives the
value or the error.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TLEFieldError, TLEFormatError

#: Alpha-5 letters: I and O are excluded to avoid confusion with 1 and 0.
_ALPHA5_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"
_ALPHA5_VALUES = {letter: 10 + i for i, letter in enumerate(_ALPHA5_LETTERS)}
_ALPHA5_REVERSE = {v: k for k, v in _ALPHA5_VALUES.items()}

TLE_LINE_LENGTH = 69


def checksum(line: str) -> int:
    """Modulo-10 checksum of the first 68 columns of a TLE line.

    Digits add their value; a minus sign adds 1; everything else adds 0.
    """
    body = line[:68]
    return (sum(map(int, filter(str.isdigit, body))) + body.count("-")) % 10


def verify_checksum(line: str) -> bool:
    """True when the line's final column matches its checksum."""
    if len(line) < TLE_LINE_LENGTH or not line[68].isdigit():
        return False
    return int(line[68]) == checksum(line)


def append_checksum(line68: str) -> str:
    """Append the checksum digit to a 68-column line body."""
    if len(line68) != 68:
        raise TLEFormatError(f"line body must be 68 columns, got {len(line68)}")
    return line68 + str(checksum(line68))


def decode_alpha5(field: str) -> int:
    """Decode a 5-character catalog number field (alpha-5 scheme).

    Plain digits cover 0-99999; a leading letter (A=10 … Z=33, skipping
    I and O) extends the range to 339999.
    """
    field = field.strip()
    if not field:
        raise TLEFieldError("empty catalog number field")
    head = field[0]
    if head.isdigit():
        try:
            return int(field)
        except ValueError as exc:
            raise TLEFieldError(f"bad catalog number: {field!r}") from exc
    if head.upper() not in _ALPHA5_VALUES:
        raise TLEFieldError(f"bad alpha-5 leading character: {field!r}")
    tail = field[1:]
    if not tail.isdigit() or len(tail) != 4:
        raise TLEFieldError(f"bad alpha-5 catalog number: {field!r}")
    return _ALPHA5_VALUES[head.upper()] * 10000 + int(tail)


def encode_alpha5(catalog_number: int) -> str:
    """Encode a catalog number into the 5-character alpha-5 field."""
    if catalog_number < 0:
        raise TLEFieldError(f"catalog number must be non-negative: {catalog_number}")
    if catalog_number <= 99999:
        return f"{catalog_number:5d}"
    head, tail = divmod(catalog_number, 10000)
    if head not in _ALPHA5_REVERSE:
        raise TLEFieldError(f"catalog number too large for alpha-5: {catalog_number}")
    return f"{_ALPHA5_REVERSE[head]}{tail:04d}"


def parse_implied_decimal(field: str) -> float:
    """Parse the TLE "assumed decimal point" notation.

    ``' 12345-4'`` means ``0.12345e-4``; a leading sign applies to the
    mantissa.  An all-blank or all-zero field is 0.
    """
    field = field.strip()
    if not field or field in {"00000-0", "00000+0", "0"}:
        return 0.0
    sign = 1.0
    if field[0] in "+-":
        if field[0] == "-":
            sign = -1.0
        field = field[1:]
    # Exponent is the trailing signed digit.
    if len(field) >= 2 and field[-2] in "+-":
        mantissa_text, exp_text = field[:-2], field[-2:]
    else:
        mantissa_text, exp_text = field, "+0"
    if not mantissa_text.isdigit():
        raise TLEFieldError(f"bad implied-decimal field: {field!r}")
    mantissa = int(mantissa_text) / (10 ** len(mantissa_text))
    return sign * mantissa * 10 ** int(exp_text)


def format_implied_decimal(value: float) -> str:
    """Format a float into the 8-column assumed-decimal-point field."""
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0 else " "
    magnitude = abs(value)
    exponent = 0
    # Normalize the mantissa into [0.1, 1).
    while magnitude >= 1.0:
        magnitude /= 10.0
        exponent += 1
    while magnitude < 0.1:
        magnitude *= 10.0
        exponent -= 1
    mantissa = round(magnitude * 100000)
    if mantissa >= 100000:  # rounding carried, e.g. 0.999999
        mantissa = 10000
        exponent += 1
    if exponent < -9:
        # Below the field's resolution: underflows to zero, matching
        # how real TLE producers emit negligible drag terms.
        return " 00000+0"
    if exponent > 9:
        raise TLEFieldError(f"value out of implied-decimal range: {value}")
    exp_sign = "-" if exponent < 0 else "+"
    return f"{sign}{mantissa:05d}{exp_sign}{abs(exponent)}"


def parse_assumed_point_fraction(field: str) -> float:
    """Parse a 7-digit field with an assumed leading ``0.`` (eccentricity)."""
    field = field.strip()
    if not field.isdigit():
        raise TLEFieldError(f"bad assumed-point fraction: {field!r}")
    return int(field) / 10 ** len(field)


# --- bulk decoders over many lines at once --------------------------------
# Each takes a field as a ``(width, N)`` uint8 array, one row per text
# column and one column per line, so every step is a vector over lines.
_SPACE, _PLUS, _MINUS, _DOT = (ord(c) for c in " +-.")

#: What each byte adds to a checksum: digits their value, '-' one.
_CHECKSUM_VALUES = np.zeros(256, dtype=np.uint8)
_CHECKSUM_VALUES[ord("0") : ord("9") + 1] = np.arange(10)
_CHECKSUM_VALUES[_MINUS] = 1

#: Powers of ten as integers and as doubles (each up to 10**18 is
#: exact in both).
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)
_FLOAT_POWERS_OF_TEN = _POWERS_OF_TEN.astype(np.float64)

#: ``10 ** k`` for the implied-decimal exponents -9..9, computed by
#: Python so each factor is the one ``parse_implied_decimal`` uses.
_EXPONENT_FACTORS = np.array([float(10**k) for k in range(-9, 10)])


def checksums(lines: np.ndarray) -> np.ndarray:
    """:func:`checksum` of every line of a ``(>=68, N)`` ASCII array."""
    return np.take(_CHECKSUM_VALUES, lines[:68]).sum(axis=0, dtype=np.uint16) % 10


def _digits(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digit values (0 where not a digit) and the digit mask."""
    values = block - np.uint8(ord("0"))  # wraps for bytes below '0'
    is_digit = values < 10
    return np.where(is_digit, values, 0).astype(np.int64), is_digit


def _spelled(digits: np.ndarray) -> np.ndarray:
    """The integer each line's rows of digits spell, one place per row."""
    return _POWERS_OF_TEN[len(digits) - 1 :: -1] @ digits


def _blanks_lead(is_blank: np.ndarray) -> np.ndarray:
    """Whether each line's blanks all come before its other bytes."""
    return ~(is_blank[1:] & ~is_blank[:-1]).any(axis=0)


def int_columns(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-justified unsigned integers; an all-blank field reads 0,
    as in the parser's integer fields."""
    digits, is_digit = _digits(block)
    is_blank = block == _SPACE
    ok = (is_blank | is_digit).all(axis=0) & _blanks_lead(is_blank)
    return _spelled(digits), ok


def decimal_columns(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain decimals: leading blanks, an optional sign, then digits with
    at most one ``.``.

    The value is the digits' integer over a power of ten.  Both are
    exact doubles (a field holds at most 12 digits), so the one rounded
    division gives the double nearest the decimal, which is what
    ``float`` returns for the same text.
    """
    digits, is_digit = _digits(block)
    is_blank = block == _SPACE
    is_dot = block == _DOT
    is_sign = (block == _PLUS) | (block == _MINUS)
    ok = (
        (is_blank | is_digit | is_dot | is_sign).all(axis=0)
        & _blanks_lead(is_blank)
        & ~(is_sign[1:] & ~is_blank[:-1]).any(axis=0)  # sign right after blanks
        & (is_dot.sum(axis=0) <= 1)
        & is_digit.any(axis=0)
    )
    # The dot reads as a 0 digit, one place above the decimals: drop
    # that place from the digits before it.
    spelled = _spelled(digits)
    has_dot = is_dot.any(axis=0)
    decimals = np.where(has_dot, len(block) - 1 - is_dot.argmax(axis=0), 0)
    tail = spelled % _POWERS_OF_TEN[decimals]
    whole = np.where(has_dot, (spelled - tail) // 10 + tail, spelled)
    number = whole / _FLOAT_POWERS_OF_TEN[decimals]
    return np.where((block == _MINUS).any(axis=0), -number, number), ok


def implied_decimal_columns(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-column assumed-decimal-point fields in the formatter's shape,
    ``[ +-]ddddd[+-]d``, computed with the operations of
    :func:`parse_implied_decimal`."""
    digits, is_digit = _digits(block)
    head, exponent_sign = block[0], block[6]
    ok = (
        ((head == _SPACE) | (head == _PLUS) | (head == _MINUS))
        & is_digit[1:6].all(axis=0)
        & ((exponent_sign == _PLUS) | (exponent_sign == _MINUS))
        & is_digit[7]
    )
    mantissa = _spelled(digits[1:6]) / 100000
    sign = np.where(head == _MINUS, -1.0, 1.0)
    exponent = np.where(exponent_sign == _MINUS, -digits[7], digits[7])
    return sign * mantissa * _EXPONENT_FACTORS[exponent + 9], ok


def catalog_columns(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """5-column catalog numbers written in digits; an alpha-5 letter
    (a catalog number above 99999) is left to :func:`decode_alpha5`."""
    numbers, ok = int_columns(block)
    return numbers, ok & (block[-1] != _SPACE)  # a blank field is an error
