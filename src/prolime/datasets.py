"""The benchmark's dataset file: labeled (credit, risk) rows, validated once,
and the CSV form they are written in and read back from, header
credit,risk,label and each float as its ``repr``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import stat
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["Dataset", "DatasetFormatError", "read_dataset_csv", "write_dataset_csv"]


def _first_invalid_row(features: np.ndarray, labels: np.ndarray) -> tuple[int, str] | None:
    """Index of the first row with a non-finite feature or a label other than
    0/1, with the reason; the feature check comes first within a row."""
    finite = np.isfinite(features)
    good_labels = (labels == 0) | (labels == 1)
    # A reduction along the rows' short axis is slow; only a failure pays for it.
    if finite.all() and good_labels.all():
        return None
    bad_features = ~finite.all(axis=1)
    bad = bad_features | ~good_labels
    index = int(np.argmax(bad))
    if bad_features[index]:
        row = features[index]
        return index, f"feature values must be finite, got {row[~np.isfinite(row)][0].item()!r}"
    return index, f"label must be 0 or 1, got {labels[index:index + 1].tolist()[0]!r}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled benchmark rows: a read-only, finite ``(n, 2)`` float ``features``
    array of (credit, risk) and a read-only ``(n,)`` int array of 0/1
    ``labels``. ``n`` may be 0. Each array is copied once and validated."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=float, order="C")
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError(f"features must be an (n, 2) array, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(f"labels must have shape ({features.shape[0]},), got {labels.shape}")
        invalid = _first_invalid_row(features, labels)
        if invalid is not None:
            raise ValueError(f"row {invalid[0]}: {invalid[1]}")
        labels = labels.astype(np.int64)
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.features, other.features) and np.array_equal(self.labels, other.labels)


class DatasetFormatError(ValueError):
    """A dataset CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


def _overwrite(path: str, chunks: Iterable[bytes]) -> None:
    """Write the byte pieces ``chunks`` in order to ``path``, created if
    missing, in place: a regular file is overwritten from its start and then
    cut at the file offset, the bytes written, also when a write or making a
    piece fails; any other target, such as ``/dev/null``, is written through.

    Not ``open(path, "w")``: ext4 (its ``auto_da_alloc`` heuristic) flushes a
    non-empty file truncated to zero and rewritten when it is closed. Neither
    way is atomic. A failure leaves a prefix of the new data; after a crash,
    a file overwritten in place may hold old and new blocks mixed, where that
    flush made the new data or an empty file more likely.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view):]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


_U64 = np.uint64
# Rows formatted in one numpy pass; bounds the writer's temporaries at a few MB.
_CHUNK_ROWS = 4096
_POW5 = np.array([5**q for q in range(24)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)


def _word(text: str) -> int:
    """``text`` as the little-endian uint64 of its ASCII bytes, NUL-padded to 8."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _zone_masks() -> tuple[np.ndarray, ...]:
    """Per word w of a value's three digit words and per 18 * (point + 4) + n,
    for 0.d1...dn * 10**point with point in [-4, 16]: the mask of the bytes
    taken from the digits, the mask of those taken from the digits moved one
    byte up, and the "." in its byte.

    For |x| >= 1 the zone is the digits up to max(n, point + 1), with "." at
    byte point; below 1 it is the n digits, after the head word's "0." and zeros.
    """
    point = np.arange(-4, 17).reshape(-1, 1, 1)
    n = np.arange(18).reshape(1, -1, 1)
    byte = np.arange(24)
    dotted = point >= 1
    at = np.where(dotted, point, 24)
    end = np.where(dotted, np.maximum(n, point + 1) + 1, n)

    def words(where: np.ndarray, fill: int) -> np.ndarray:
        masks = np.where(where & (byte < end), fill, 0).astype(np.uint8)
        return np.ascontiguousarray(masks.view("<u8").reshape(-1, 3).T)

    return words(byte < at, 0xFF), words(byte > at, 0xFF), words(byte == at, ord("."))


_DIGIT_MASK, _MOVED_MASK, _DOT = _zone_masks()
# The head word's "0." and zeros after the sign for 1e-4 <= |x| < 1, by point + 4.
_PREFIX = np.array(
    [_word(("0." + "0" * -point).rjust(8, "\0") if point <= 0 else "") for point in range(-4, 17)],
    dtype=np.uint64,
)
# The head word's comma before a risk value.
_SEPARATOR = np.array([0, ord(",")], dtype=np.uint64)


def _bounds(bits: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """vr, whether vr is exact, vm and vp of :func:`_shortest_digits` for the doubles with these bits."""
    shift = (1077 - (bits >> _U64(52)).astype(np.intp) - q).astype(np.uint64)
    five = _POW5[q]
    # 4m * 5**q as two uint64 limbs, hi and lo, from 32-bit halves; hi starts as 4m.
    hi = ((bits & _U64(2**52 - 1)) | _U64(2**52)) << _U64(2)
    low32 = _U64(2**32 - 1)
    lo = (hi & low32) * (five & low32)
    cross = (hi >> _U64(32)) * (five & low32) + (hi & low32) * (five >> _U64(32))
    hi = (hi >> _U64(32)) * (five >> _U64(32)) + (cross >> _U64(32))
    cross <<= _U64(32)
    lo += cross
    hi += lo < cross
    # At s = 0, hi << 64 is 0 in numpy, and hi is 0 anyway.
    up = _U64(64) - shift
    vr = (hi << up) | (lo >> shift)
    vr_exact = (lo & ((_U64(1) << shift) - _U64(1))) == 0
    # The lower neighbour subtracts 5**q below a power of two, else 2 * 5**q.
    np.subtract(lo, five << ((bits & _U64(2**52 - 1)) != 0).astype(np.uint64), out=cross)
    vm = ((hi - (cross > lo)) << up) | (cross >> shift)
    five <<= _U64(1)
    lo += five
    hi += lo < five
    hi <<= up
    hi |= lo >> shift
    return vr, vr_exact, vm, hi


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits and decimal exponent of ``repr`` of each positive double in
    [2**-14, 2**53), given as its uint64 bits: ``repr(x)`` reads as
    ``digits * 10**exponent``, ``digits`` the fewest that round-trip, nearest
    to ``x``, ties to even.

    Ryū's digit removal (Adams, PLDI 2018, the general case) run on exact
    bounds: x and its halfway neighbours times 10**q for q = 17 - floor(log10 x),
    floored, and whether the floor of x dropped nothing. With x = m * 2**e,
    x * 10**q is 4m * 5**q, a product of two uint64 limbs, shifted right by
    s = 2 - e - q >= 0; a halfway neighbour adds 2 * 5**q or subtracts 5**q
    (2 * 5**q unless m is a power of two).

    Ryū also tracks whether the neighbours' floors are exact, for an output on
    a neighbour, and moves up an output rounded below the lower neighbour.
    Neither is needed in this range. A neighbour times 10**q has at most one
    factor of 2, so it is exact only where s <= 1, for x in [2**51, 2**53),
    and there it ends in 25, 50 or 75, never in a removed zero. Rounding below
    the lower neighbour needs it nearer than the upper one, so x a power of
    two, and a test writes every power of two in this range.
    """
    q = 17 - np.floor(np.log10(bits.view(np.float64))).astype(np.intp)
    vr, vr_exact, vm, vp = _bounds(bits, q)
    # The most digits k that can go: a multiple of 10**k lies in (vm, vp]. The
    # test only turns false as k grows, so every value divides every round.
    removed = np.zeros(len(bits), dtype=np.intp)
    while True:
        vp, vm = vp // _U64(10), vm // _U64(10)
        more = vp > vm
        if not more.any():
            break
        removed += more
    scale = _POW10[removed]
    digits = vr // scale
    twice_rest = (vr - digits * scale) << _U64(1)
    tie_to_even = vr_exact & (twice_rest == scale) & ((digits & _U64(1)) == 0)
    digits += (twice_rest >= scale) & ~tie_to_even
    return digits, removed - q


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Each x < 10**8 as its 8 zero-padded digits in a little-endian uint64
    of ASCII, the first digit in the low byte: split into 32-bit lanes of 4
    digits, 16-bit lanes of 2, then bytes, dividing by multiply and shift."""
    tens = x // _U64(10000)
    lanes = tens | ((x - tens * _U64(10000)) << _U64(32))
    tens = ((lanes * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)
    lanes = tens | ((lanes - tens * _U64(100)) << _U64(16))
    tens = ((lanes * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return tens | ((lanes - tens * _U64(10)) << _U64(8)) | _U64(_word("0" * 8))


def _digits8(text: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_ascii8`: each little-endian uint64 of 8 digits,
    the first in the low byte, each its ASCII byte or its value, as the number
    they spell. Neighbouring digits join into bytes of 2, 16-bit lanes of 4,
    then the 8."""
    x = text & _U64(0x0F0F0F0F0F0F0F0F)
    lanes = np.empty_like(x)
    for digits, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF)):
        np.right_shift(x, _U64(8 * digits), out=lanes)
        x *= _U64(10**digits)
        x += lanes
        x &= _U64(mask)
    return x


def _format_rows(features: np.ndarray, labels: np.ndarray) -> bytearray:
    """The CSV lines of the rows, ``f"{credit!r},{risk!r},{label}\\n"`` each,
    built in one numpy pass as NUL-padded ASCII in one buffer: deleting the
    NULs gives the lines.

    Each row takes 9 uint64 words: per value a head word (comma, sign,
    "0.000" prefix) and three words of digits with the point, then a word
    with the comma, the label and the newline. Values outside [1e-4, 2**53),
    and those whose ``repr`` is scientific, are written with ``repr``, which
    never exceeds 24 bytes.
    """
    rows = len(labels)
    bulk = (np.abs(features) >= 2.0**-14) & (np.abs(features) < 2.0**53)
    # Every other value is formatted as 1.0 here and then overwritten.
    digits, point = _shortest_digits(np.where(bulk, np.abs(features), 1.0).view(np.uint64).ravel())
    digits, point = digits.reshape(rows, 2), point.reshape(rows, 2)
    n = np.searchsorted(_POW10, digits, side="right")
    point += n  # repr is 0.d1...dn * 10**point
    bulk &= point >= -3
    # The 17 digits d1..dn0..0 as three words of 8, 8 and 1 ASCII bytes.
    digits *= _POW10[17 - n]
    high = digits // _U64(10**9)
    digits -= high * _U64(10**9)
    middle = digits // _U64(10)
    digits -= middle * _U64(10) - _U64(ord("0"))
    high, middle = _ascii8(high), _ascii8(middle)
    text = (high, middle, digits)
    n += (point + 4) * 18  # now the zone
    buffer = bytearray(72 * rows)
    words = np.frombuffer(buffer, "<u8").reshape(rows, 9)
    cells = words[:, :8].reshape(rows, 2, 4).transpose(2, 0, 1)
    cells[0] = _PREFIX[point + 4] | ((features.view(np.uint64) >> _U64(63)) * _U64(ord("-") << 8)) | _SEPARATOR
    for w in range(3):
        # The digits after the point come from the digits moved one byte up.
        moved = (text[w] << _U64(8)) | (text[w - 1] >> _U64(56)) if w else text[0] << _U64(8)
        moved &= _MOVED_MASK[w][n]
        moved |= _DOT[w][n]
        np.bitwise_and(text[w], _DIGIT_MASK[w][n], out=cells[1 + w])
        cells[1 + w] |= moved
    words[:, 8] = (labels.astype(np.uint64) << _U64(8)) | _U64(_word(",0\n"))
    fallback = np.nonzero(~bulk)
    if fallback[0].size:
        reprs = "".join([f"{value!r:\0<24}" for value in features[fallback].tolist()]).encode("ascii")
        cells[0][fallback] = _SEPARATOR[fallback[1]]
        cells[1:, fallback[0], fallback[1]] = np.frombuffer(reprs, dtype="<u8").reshape(-1, 3).T
    return buffer


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as CSV with header credit,risk,label, each float as its
    ``repr`` and each label as 0 or 1.

    The floats are formatted in bulk (see :func:`_format_rows`), in chunks of
    a fixed number of rows, to the bytes ``repr`` gives; a property test pins
    them to a per-row ``repr`` writer. ±0, subnormals, values below 1e-4 or
    from 2**53 up, and any whose ``repr`` is scientific are written with
    ``repr`` itself.
    """
    features, labels = dataset.features, dataset.labels
    # Each chunk is written as it is made, so the file is never held whole.
    rows = (slice(start, start + _CHUNK_ROWS) for start in range(0, len(labels), _CHUNK_ROWS))
    chunks = (_format_rows(features[chunk], labels[chunk]).translate(None, b"\0") for chunk in rows)
    _overwrite(path, itertools.chain((_HEADER,), chunks))


def _undecodable(row: list[str]) -> ValueError | None:
    """The first byte that was not valid UTF-8, read as a lone surrogate."""
    for char in "".join(row):
        if "\udc80" <= char <= "\udcff":
            return ValueError(f"byte {ord(char) - 0xdc00:#04x} is not valid UTF-8")
    return None


_HEADER = b"credit,risk,label\n"
# Every character of the rows write_dataset_csv writes: float reprs, 0/1 labels, commas, \n.
_ROW_BYTES = b"0123456789+-.e,\n"
# Lines read in one numpy pass: up to the first newline past this many bytes.
_CHUNK_BYTES = 1 << 16
# Each field is read from the 24 bytes that end at its comma, which hold every
# float repr; a chunk is read after 24 NULs, so that its first field has them.
_WINDOW = 24


def _columns(windows: list[bytes]) -> np.ndarray:
    """Each 24-byte window as a column of its three little-endian uint64 words."""
    return np.ascontiguousarray(np.frombuffer(b"".join(windows), "<u8").reshape(-1, 3).T)


# Per k in [0, 24], the window whose last k bytes are 0xFF.
_TAIL = _columns([bytes(_WINDOW - k) + b"\xff" * k for k in range(_WINDOW + 1)])
# Per place p in [0, 23], "0"s with "." before the last p bytes, and at p = 24
# no "."; a window XORed with a field's column holds its digits' values.
_XOR = _columns([b"0" * (23 - p) + b"." + b"0" * p for p in range(_WINDOW)] + [b"0" * _WINDOW])
# A field's digits d, with its point at place p read as a 0 digit, are
# d - (d // _SCALE[p]) * _NINES[p] without that 0, for d < 10**19.
_SCALE = np.array([10 ** min(p + 1, 19) for p in range(_WINDOW + 1)], dtype=np.uint64)
_NINES = np.array([9 * 10**p if p < 19 else 0 for p in range(_WINDOW + 1)], dtype=np.uint64)
_TEN = np.array([float(10**k) for k in range(23)])


def _nearest_double(digits: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """The bits of the double nearest each ``digits / 10**fraction``, ties to
    even, for digits < 2**64 and fraction <= 22.

    The digits, rounded to a double, are divided by 10**fraction, itself a
    double. Up to 2**53 the digits are exact and the quotient is the nearest
    double (Clinger, PLDI 1990). Above, the digits and so the quotient are off
    by at most 2**-53 of the value v, and rounding is monotone, so the quotient
    c = M * 2**e is the nearest double or a neighbour of it. Which one follows
    from d = 4 * 5**fraction * (v - c) / 2**e = digits * 2**s - 4M * 5**fraction,
    s = 2 - e - fraction, against the halfway points to c's neighbours, at
    d = ±2 * 5**fraction, or -5**fraction below a power of two, M = 2**52 (as
    in Lemire, "Number parsing at a gigabyte per second", 2021). Where s < 0,
    the terms are scaled by 2**-s instead. |v - c| is at most 2 ulps, so |d| is
    at most 8 * 5**fraction * 2**max(-s, 0), below 2**56, and the low uint64
    limb of d, read as int64, is d.
    """
    bits = (digits.astype(np.float64) / _TEN[fraction]).view(np.uint64)
    mantissa = (bits & _U64(2**52 - 1)) | _U64(2**52)
    shift = 1077 - (bits >> _U64(52)).astype(np.intp) - fraction
    unit = _POW5[fraction] << np.maximum(-shift, 0).astype(np.uint64)
    d = ((digits << np.maximum(shift, 0).astype(np.uint64)) - (mantissa << _U64(2)) * unit).view(np.int64)
    above = np.left_shift(unit, _U64(1), out=unit).view(np.int64)
    below = -(above >> (mantissa == _U64(2**52)))
    # A tie leaves an even mantissa and moves an odd one. Digits up to 2**53 are exact.
    odd = (bits & _U64(1)).view(np.int64)
    bits += (digits > _U64(2**53)) & (d + odd > above)
    bits -= (digits > _U64(2**53)) & (d - odd < below)
    return bits


def _float_fields(data: bytes, starts: np.ndarray, stops: np.ndarray) -> list[float]:
    """``float()`` of each field ``data[start:stop]``."""
    return [float(data[start:stop]) for start, stop in zip(starts.tolist(), stops.tolist())]


def _read_lines(data: bytes, start: int, stop: int, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The two values and the label of each line of ``data[start:stop]``, whole
    lines over the form's characters, if each line is two fields and a 0/1
    label, and no field is longer than ``limit``; else None.

    A field of digits with an optional sign and point, at most 22 digits after
    it, is read in bulk where its digits and point, the point read as a 0, are
    below 10**19: :func:`_digits8` reads them from the field's window, and
    :func:`_nearest_double` rounds their value. Any other field, such as
    ``1e-05``, is read with ``float()``, and a ``ValueError`` where it fails
    is raised.
    """
    text = np.zeros(_WINDOW + stop - start, dtype=np.uint8)
    text[_WINDOW:] = np.frombuffer(data, np.uint8, stop - start, start)
    ends = np.flatnonzero(text == ord("\n"))
    commas = np.flatnonzero(text == ord(","))
    labels = text[ends - 1] - np.uint8(ord("0"))
    # Two commas a line, the second before a one-digit label: no line is blank.
    if len(commas) != 2 * len(ends) or (commas[1::2] != ends - 2).any() or (labels > 1).any():
        return None
    # The fields credit, risk of each line in turn, each ending at a comma.
    starts = np.empty_like(commas)
    starts[0], starts[2::2], starts[1::2] = _WINDOW, ends[:-1] + 1, commas[::2] + 1
    # The csv module refuses a field longer than its limit, which float() reads.
    if (commas - starts).max() > limit:
        return None
    head = text[starts]
    negative = head == ord("-")
    body = commas - starts - (negative | (head == ord("+")))
    # The writer puts one point in each field, but in exponent forms such as
    # 1e-05. A field with two keeps one among its digits, which float() refuses.
    points = np.flatnonzero(text == ord("."))
    pointed = slice(None)
    if len(points) != len(commas) or not ((starts <= points) & (points < commas)).all():
        pointed = np.searchsorted(commas, points)
    point, fraction = np.zeros(len(commas), dtype=bool), np.zeros_like(commas)
    point[pointed], fraction[pointed] = True, commas[pointed] - points - 1
    place = np.where(point, np.minimum(fraction, 23), 24)
    # The 24 bytes that end at each comma, as three words; the text is done with.
    words = np.ndarray((len(text) - _WINDOW + 1,), f"V{_WINDOW}", text, strides=(1,))[commas - _WINDOW]
    del text
    words = words.view("<u8").reshape(-1, 3).T
    words ^= np.take(_XOR, place, axis=1)
    words &= np.take(_TAIL, np.minimum(body, _WINDOW), axis=1)
    bulk = (body > point) & (body <= _WINDOW) & (fraction <= 22) & ~(words & _U64(0xF0F0F0F0F0F0F0F0)).any(axis=0)
    words = _digits8(words)
    bulk &= words[0] < _U64(1000)
    # The field's digits, and then without its point.
    words = words[0] * _U64(10**16) + words[1] * _U64(10**8) + words[2]
    words -= (words // _SCALE[place]) * _NINES[place]
    bits = _nearest_double(words, np.minimum(fraction, 22))
    values = (bits | (negative.astype(np.uint64) << _U64(63))).view(np.float64)
    slow = np.flatnonzero(~bulk)
    if slow.size:
        values[slow] = _float_fields(data, starts[slow] + start - _WINDOW, commas[slow] + start - _WINDOW)
    return values, labels


def _read_writer_form(data: bytes) -> Dataset | None:
    """The valid dataset in ``data``, read in numpy passes over chunks of lines
    (see :func:`_read_lines`), if ``data`` is in :func:`write_dataset_csv`'s
    own form; else None.

    Over the form's characters each field reads to what ``float()`` or
    ``int()`` gives, or fails where they fail. Other characters, such as
    spaces, control characters, quotes, carriage returns, underscores and
    non-ASCII digits, are left to the per-row reader.
    """
    if not data.startswith(_HEADER) or len(data) == len(_HEADER) or not data.endswith(b"\n"):
        return None
    if data.translate(None, _ROW_BYTES) != _HEADER.translate(None, _ROW_BYTES):
        return None
    limit = csv.field_size_limit()
    chunks = []
    start = len(_HEADER)
    try:
        while start < len(data):
            stop = data.find(b"\n", start + _CHUNK_BYTES) + 1 or len(data)
            chunk = _read_lines(data, start, stop, limit)
            if chunk is None:
                return None
            chunks.append(chunk)
            start = stop
        values, labels = (np.concatenate(parts) if len(parts) > 1 else parts[0] for parts in zip(*chunks))
        # Dataset rejects the rows the per-row reader names.
        return Dataset(values.reshape(-1, 2), labels)
    except ValueError:
        return None


def read_dataset_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    An empty file reads as an empty dataset. Raises
    :class:`DatasetFormatError` naming the first line that fails.
    """
    # Read once: the path may be a pipe, which a second open finds drained.
    with open(path, "rb") as fh:
        data = fh.read()
    dataset = _read_writer_form(data)
    return dataset if dataset is not None else _read_rows(data)


def _read_rows(data: bytes) -> Dataset:
    """:func:`read_dataset_csv` row by row: every file the writer's form
    refuses, each error message and line number."""
    values: list[float] = []
    labels: list[int] = []
    failure = None
    # Undecodable bytes read as lone surrogates, which no number parses, so a
    # bad byte fails on its own line and lines after a failure are never split.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        line_number = 0  # the last line read whole
        try:
            header = next(reader, None)
            line_number = 1
            columns = _HEADER.decode("ascii").rstrip("\n")
            if header is not None and header != columns.split(","):
                raise DatasetFormatError(1, f"expected header {columns}")
            for line_number, row in enumerate(reader, start=2):
                try:
                    if len(row) != 3:
                        raise ValueError(f"expected 3 columns, got {len(row)}")
                    credit, risk, label = float(row[0]), float(row[1]), int(row[2])
                except ValueError as exc:
                    failure = line_number, _undecodable(row) or exc
                    break
                values += (credit, risk)
                labels.append(label)
        except csv.Error as exc:
            failure = line_number + 1, exc
    features = np.array(values, dtype=float).reshape(-1, 2)
    label_array = np.array(labels)
    # Rows before a parse failure may hold an earlier non-finite value or bad label.
    invalid = _first_invalid_row(features, label_array)
    if invalid is not None:
        raise DatasetFormatError(invalid[0] + 2, invalid[1])
    if failure is not None:
        line_number, exc = failure
        raise DatasetFormatError(line_number, str(exc)) from exc
    return Dataset(features, label_array)
