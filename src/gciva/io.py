"""File formats: WAV audio, key=value config files, JSON reports, CSV traces.

WAV audio goes through a small RIFF codec over ``struct`` and
``numpy.frombuffer``, so reading and writing audio loads no scipy. The reader
accepts RIFF and RIFX files of 8-, 16-, 24- or 32-bit integer PCM or 32- or
64-bit IEEE float, plain or ``WAVE_FORMAT_EXTENSIBLE``, and raises OSError
naming the path and the cause for any other file (see :func:`read_wav`). The
writer stores float32 samples and rejects any beyond float32's range.

CSV numbers are written with ``%.12g``; JSON floats with the shortest repr
that round-trips (``json.dumps``), so ``report.json`` keeps 16 to 17
significant digits. Both formats are deterministic, so repeated runs with the
same seed produce byte-identical artifacts. A change of the code that only
reorders a sum can still move a ``%.12g`` cell in its last digit: a value
near the rounding boundary of its twelfth significant digit flips with a
difference of one rounding error, and a value that is a small difference of
large terms (such as a late gc-grad ``j_iva``) carries that error magnified.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError, checked_scalar

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_FORMATS = {(_PCM, 8), (_PCM, 16), (_PCM, 24), (_PCM, 32), (_IEEE_FLOAT, 32), (_IEEE_FLOAT, 64)}
# the last 8 bytes of every WAVE_FORMAT_EXTENSIBLE subformat GUID (RFC 2361)
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _unreadable(path, cause: str) -> OSError:
    return OSError(f"{path}: not a readable WAV file ({cause})")


def _wav_format(path, body, order: str) -> tuple[int, int, int, int]:
    """``(format tag, channels, rate, bits per sample)`` of a ``fmt `` chunk,
    with an extensible format resolved to its subformat."""
    if len(body) < 16:
        raise _unreadable(path, f"fmt chunk of {len(body)} bytes, need 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", body)
    if tag == _EXTENSIBLE:
        guid = bytes(body[24:40])
        if guid[4:] != struct.pack(order + "HH", 0, 0x10) + _GUID_TAIL:
            raise _unreadable(path, "extensible fmt chunk without a known subformat")
        tag = struct.unpack_from(order + "I", guid)[0]
    if (tag, bits) not in _FORMATS:
        raise _unreadable(path, f"unsupported sample format: tag {tag:#06x}, {bits} bits")
    if rate == 0:
        raise _unreadable(path, "sample rate 0")
    if channels == 0 or block_align != channels * bits // 8:
        raise _unreadable(path, f"block align {block_align} does not fit "
                                f"{channels} channels of {bits} bits")
    return tag, channels, rate, bits


def _decode(raw, tag: int, bits: int, order: str) -> np.ndarray:
    """Flat float64 samples of a data chunk."""
    if tag == _IEEE_FLOAT:
        # a signalling NaN would warn in the cast; read_wav rejects it after
        with np.errstate(invalid="ignore"):
            return np.frombuffer(raw, f"{order}f{bits // 8}").astype(np.float64)
    if bits == 8:  # 8-bit PCM is unsigned
        return (np.frombuffer(raw, np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 24:  # left-justified in an int32, x / 2**23 is the int32's x / 2**31
        word = np.zeros((len(raw) // 3, 4), np.uint8)
        high = slice(1, 4) if order == "<" else slice(0, 3)  # the int32's top 3 bytes
        word[:, high] = np.frombuffer(raw, np.uint8).reshape(-1, 3)
        raw, bits = word, 32
    ints = np.frombuffer(raw, f"{order}i{bits // 8}")
    return ints.astype(np.float64) / 2.0 ** (bits - 1)


def _check_finite(path, samples: np.ndarray, channels: int) -> None:
    # two reductions, no temporary as large as the samples, unless one is
    # not finite; a NaN propagates through both
    with np.errstate(invalid="ignore"):
        if np.isfinite(np.min(samples, initial=0.0) + np.max(samples, initial=0.0)):
            return
        frame, channel = divmod(int(np.argmin(np.isfinite(samples))), channels)
    raise _unreadable(path, f"non-finite sample at frame {frame}, channel {channel}")


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as float64, integer PCM scaled to [-1, 1).

    Accepts RIFF (little-endian) and RIFX (big-endian) files whose ``fmt ``
    chunk, given directly or as ``WAVE_FORMAT_EXTENSIBLE``, names one of:

    * integer PCM at 8 bits (unsigned), scaled as ``(x - 128) / 128``;
    * integer PCM at 16, 24 or 32 bits, scaled by ``2**-15``, ``2**-23`` or
      ``2**-31``;
    * IEEE float at 32 or 64 bits, read as stored.

    Other chunks (``fact``, ``LIST``, ...) are skipped, pad byte included.
    Returns ``(samples, rate)`` with samples shaped (frames,) for a mono file
    and (frames, channels) otherwise.

    Raises OSError naming the path and the cause when the file cannot be
    opened, or has a bad RIFF/WAVE tag, is RF64, lacks a ``fmt `` or
    ``data`` chunk or has a short one, holds data that is not a whole
    number of frames, has any other sample format (such as mu-law or
    12-bit PCM), or holds a float sample that is not finite (naming its
    frame and channel).
    """
    buf = memoryview(Path(path).read_bytes())
    riff = bytes(buf[:4])
    if riff == b"RF64":
        raise _unreadable(path, "RF64 files are not supported")
    if riff not in (b"RIFF", b"RIFX") or bytes(buf[8:12]) != b"WAVE":
        raise _unreadable(path, "no RIFF/WAVE header")
    order = "<" if riff == b"RIFF" else ">"
    fmt = None
    pos = 12
    while pos + 8 <= len(buf):
        chunk, size = struct.unpack_from(order + "4sI", buf, pos)
        body = buf[pos + 8 : pos + 8 + size]
        if chunk == b"fmt ":
            fmt = _wav_format(path, body, order)
        elif chunk == b"data":
            if fmt is None:
                raise _unreadable(path, "data chunk before the fmt chunk")
            tag, channels, rate, bits = fmt
            if len(body) < size:
                raise _unreadable(path, f"data chunk holds {len(body)} of its {size} bytes")
            if size % (channels * bits // 8):
                raise _unreadable(path, f"{size} data bytes are not a whole number of "
                                        f"{channels}-channel {bits}-bit frames")
            samples = _decode(body, tag, bits, order)
            if tag == _IEEE_FLOAT:
                _check_finite(path, samples, channels)
            return (samples.reshape(-1, channels) if channels > 1 else samples), rate
        pos += 8 + size + size % 2
    raise _unreadable(path, "no data chunk" if fmt is not None else "no fmt chunk")


def check_wav_samples(data) -> None:
    """Raise InvalidInputError naming the peak unless every sample is finite
    and at most float32's largest value in magnitude."""
    x = np.asarray(data, dtype=np.float64)
    # two reductions, no temporary as large as x; a NaN propagates through both
    peak = float(np.maximum(-np.min(x, initial=0.0), np.max(x, initial=0.0)))
    if not peak <= float(np.finfo(np.float32).max):  # a NaN peak fails too
        raise InvalidInputError(f"WAV samples peak at {peak:g}, beyond float32's range")


def write_wav(path, data, rate: int) -> None:
    """Write samples unclipped as a float32 WAV file, after
    :func:`check_wav_samples`; a level above 1 is kept.

    The header is an 18-byte ``fmt `` chunk (``cbSize = 0``), a ``fact``
    chunk holding the frame count, then the ``data`` chunk. Raises
    InvalidInputError unless ``rate`` is a whole number of Hz from 1 up to
    the largest whose byte rate fits the header's 32-bit field."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise InvalidInputError("WAV data must be a non-empty 1-D or 2-D array")
    check_wav_samples(x)
    channels = 1 if x.ndim == 1 else x.shape[1]
    rate = checked_scalar(rate, "WAV sample rate", 1.0, (2**32 - 1) // (4 * channels))
    if not rate.is_integer():
        raise InvalidInputError(f"WAV sample rate {rate} is not a whole number of Hz")
    samples = x.astype("<f4", order="C")  # written from its buffer, which must be C-ordered
    rate = int(rate)
    header = b"".join((
        b"RIFF", struct.pack("<I", 50 + samples.nbytes), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHHH", 18, _IEEE_FLOAT, channels, rate, rate * 4 * channels,
                             4 * channels, 32, 0),
        b"fact", struct.pack("<II", 4, x.shape[0]),
        b"data", struct.pack("<I", samples.nbytes),
    ))
    with open(path, "wb") as f:
        f.write(header)
        f.write(samples)


def read_keyvalue(path) -> dict[str, str]:
    """Parse a UTF-8 ``key = value`` file ('#' starts a comment; a leading
    byte-order mark is skipped). Raises ConfigError naming the file and the
    line for a byte that is not UTF-8, a line without '=', an empty key or a
    key given twice."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; a sentinel closes its line
        lineno = len((raw[: exc.start].decode("utf-8-sig") + "x").splitlines())
        raise ConfigError(f"{path}:{lineno}: byte {raw[exc.start]:#04x} is not UTF-8 "
                          f"text") from None
    result: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        result[key] = value.strip()
    return result


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _json_value(value):
    """``value`` with every non-finite float, at any depth, spelled by its
    str() ("inf", "-inf", "nan"), which strict JSON has no number for."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    return value


def write_json(path, payload: dict) -> None:
    text = json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def write_cost_trace_csv(path, trace) -> None:
    """Cost trace CSV: iteration, both cost terms, total, and the IVA term
    normalized to its initial value."""
    rows = [[f"{i}", a, b, a + b, norm]
            for i, (a, b, norm) in enumerate(zip(trace.j_iva, trace.j_prior, trace.normalized_iva()))]
    write_csv(path, ["iteration", "j_iva", "j_prior", "j_total", "j_iva_normalized"], rows)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
