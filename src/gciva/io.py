"""File formats: WAV audio, key=value config files, JSON reports, CSV traces.

All numeric text output is formatted with ``%.12g`` so repeated runs with the
same seed produce byte-identical artifacts.
"""

import json
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, InvalidInputError

DEFAULT_SAMPLE_RATE = 16000


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as float64, integer PCM scaled to [-1, 1).

    Supports 16-bit and 32-bit integer PCM and 32/64-bit float. Returns
    ``(samples, rate)`` with samples shaped (frames,) or (frames, channels).
    A file that is not a readable WAV raises OSError naming the path.
    """
    try:
        rate, data = wavfile.read(str(path))
    except (ValueError, struct.error) as exc:  # malformed RIFF content
        raise OSError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.dtype == np.int16:
        out = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        out = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        out = data.astype(np.float64)
    else:
        raise InvalidInputError(f"unsupported WAV sample format {data.dtype} in {path}")
    return out, int(rate)


def write_wav(path, data, rate: int = DEFAULT_SAMPLE_RATE) -> None:
    """Write samples as a float32 WAV file. Float32 keeps any finite level,
    so a mixture peaking above 1 is stored unclipped."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise InvalidInputError("WAV data must be a non-empty 1-D or 2-D array")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("WAV data contains non-finite samples")
    wavfile.write(str(path), int(rate), x.astype(np.float32))


def read_keyvalue(path) -> dict[str, str]:
    """Parse a plain-text ``key = value`` file ('#' starts a comment)."""
    result: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
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
    lines = ["iteration,j_iva,j_prior,j_total,j_iva_normalized"]
    for i, (a, b, norm) in enumerate(zip(trace.j_iva, trace.j_prior, trace.normalized_iva())):
        lines.append(f"{i},{_fmt(a)},{_fmt(b)},{_fmt(a + b)},{_fmt(norm)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
