"""STFT analysis and weighted overlap-add synthesis.

Spectrograms are one-sided (``n_bins = window_length // 2 + 1``) and indexed
``(bin, frame, channel)``. The synthesis path divides the overlap-added
windowed frames by the overlap-added squared window, which makes the
analyze/synthesize round trip exact up to floating point everywhere the
window sum is positive (always, for Hamming and Hann).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, checked_array, checked_index, checked_scalar

WINDOW_KINDS = ("hamming", "hann")


def _window(kind: str, length: int) -> np.ndarray:
    # periodic (DFT-even) windows, nonnegative by construction
    n = np.arange(length)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    raise InvalidInputError(f"unknown window kind: {kind!r}")


@dataclass(frozen=True)
class StftConfig:
    """Transform configuration.

    Defaults give a 2048-sample Hamming window with 50% overlap at 16 kHz,
    i.e. 1025 one-sided bins spaced 7.8125 Hz apart.
    """

    window_length: int = 2048
    hop: int = 1024
    sample_rate: float = 16000.0
    window_kind: str = "hamming"

    def __post_init__(self) -> None:
        length = checked_index(self.window_length, "window_length", low=1)
        checked_index(self.hop, "hop", low=1, high=length + 1)  # hop <= window_length
        checked_scalar(self.sample_rate, "sample_rate", low=0.0, strict=True)
        if self.window_kind not in WINDOW_KINDS:
            raise InvalidInputError(f"unknown window kind: {self.window_kind!r}")

    @property
    def n_bins(self) -> int:
        return self.window_length // 2 + 1

    def bin_frequency(self, f) -> np.ndarray | float:
        """Center frequency in Hz of one-sided bin ``f`` (0-based)."""
        return np.asarray(f) * self.sample_rate / self.window_length

    def window(self) -> np.ndarray:
        return _window(self.window_kind, self.window_length)


@dataclass
class ComplexSpectrogram:
    """One-sided multichannel STFT, ``data[bin, frame, channel]``."""

    data: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self) -> None:
        self.data = checked_array(self.data, "spectrogram", np.complex128)
        if self.data.ndim != 3:
            raise InvalidInputError("spectrogram data must be (bin, frame, channel)")
        if self.data.shape[0] != self.config.n_bins:
            raise InvalidInputError(
                f"expected {self.config.n_bins} bins, got {self.data.shape[0]}"
            )

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


def _as_signal_matrix(signal) -> np.ndarray:
    x = checked_array(signal, "signal")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError("signal must be a non-empty 1-D or (samples, channels) array")
    return x


def analyze(signal, config: StftConfig) -> ComplexSpectrogram:
    """Forward STFT of a multichannel time signal.

    The number of frames is ``ceil((T - window_length) / hop) + 1``; the last
    frame is zero-padded. Requires at least one full window of samples.

    Parameters
    ----------
    signal : array, shape (samples,) or (samples, channels)
    config : StftConfig
    """
    x = _as_signal_matrix(signal)
    n_samples, n_channels = x.shape
    length, hop = config.window_length, config.hop
    if n_samples < length:
        raise InvalidInputError(
            f"signal has {n_samples} samples, needs at least window_length={length}"
        )
    n_frames = int(np.ceil((n_samples - length) / hop)) + 1
    padded = np.zeros((n_channels, (n_frames - 1) * hop + length))
    padded[:, :n_samples] = x.T

    # (channel, frame, sample) windows of the padded signal: a strided view,
    # so the only copy made is the windowed one the transform reads, and the
    # transform writes straight into the (bin, frame, channel) layout
    frames = np.lib.stride_tricks.sliding_window_view(padded, length, axis=1)[:, ::hop]
    spectra = np.empty((config.n_bins, n_frames, n_channels), dtype=np.complex128)
    np.fft.rfft(frames * config.window(), axis=2, out=spectra.transpose(2, 1, 0))
    return ComplexSpectrogram(spectra, config)


def synthesize(spec: ComplexSpectrogram) -> np.ndarray:
    """Weighted overlap-add inverse of :func:`analyze`.

    Returns a ``((n_frames - 1) * hop + window_length, channels)`` array; the
    caller crops to the original length if it is known.
    """
    if not isinstance(spec, ComplexSpectrogram):
        raise InvalidInputError("synthesize expects a ComplexSpectrogram")
    data = np.asarray(spec.data)
    config = spec.config
    if data.ndim != 3 or data.shape[0] != config.n_bins:
        raise InvalidInputError("spectrogram dimensions do not match its config")
    length, hop = config.window_length, config.hop
    n_frames, n_channels = data.shape[1], data.shape[2]

    frames = np.fft.irfft(data, n=length, axis=0)  # (length, frame, channel)
    win = config.window()
    total = (n_frames - 1) * hop + length
    out = np.zeros((total, n_channels))
    norm = np.zeros(total)
    for n in range(n_frames):
        lo = n * hop
        out[lo : lo + length] += win[:, None] * frames[:, n, :]
        norm[lo : lo + length] += win**2
    # edge samples where the window vanishes (Hann endpoints) are lost by
    # the analysis and stay zero instead of dividing by zero
    covered = norm > 1e-12 * norm.max()
    np.divide(out, norm[:, None], out=out, where=covered[:, None])
    out[~covered] = 0.0
    return out
