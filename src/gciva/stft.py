"""STFT analysis and weighted overlap-add synthesis.

Spectrograms are one-sided (``n_bins = window_length // 2 + 1``) and indexed
``(bin, frame, channel)``. The synthesis path divides the overlap-added
windowed frames by the overlap-added squared window, which makes the
analyze/synthesize round trip exact up to floating point everywhere. The
window is periodic Hamming, at least 0.08, and ``hop <= window_length`` puts
every sample in some frame, so no window sum is below 0.0064.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, checked_array, checked_index, checked_scalar

# frames that analysis windows and synthesis inverts at a time: a block's
# working arrays are small beside the signal and the spectrogram
_BLOCK_FRAMES = 8


@dataclass(frozen=True)
class StftConfig:
    """Transform configuration.

    Defaults give a 2048-sample Hamming window with 50% overlap at 16 kHz,
    i.e. 1025 one-sided bins spaced 7.8125 Hz apart.
    """

    window_length: int = 2048
    hop: int = 1024
    sample_rate: float = 16000.0

    def __post_init__(self) -> None:
        length = checked_index(self.window_length, "window_length", low=1)
        checked_index(self.hop, "hop", low=1, high=length + 1)  # hop <= window_length
        checked_scalar(self.sample_rate, "sample_rate", low=0.0, strict=True)

    @property
    def n_bins(self) -> int:
        return self.window_length // 2 + 1

    @property
    def bin_frequencies(self) -> np.ndarray:
        """Center frequency in Hz of each one-sided bin, shape (n_bins,)."""
        return np.arange(self.n_bins, dtype=float) * self.sample_rate / self.window_length

    def window(self) -> np.ndarray:
        # periodic (DFT-even) Hamming, at least 0.08
        n = np.arange(self.window_length)
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / self.window_length)


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


def analysis_blocks(signal, config: StftConfig):
    """The STFT of a multichannel time signal a block of frames at a time.

    Returns ``(n_frames, n_channels, blocks)``: ``blocks`` yields ``(first
    frame, spectra)`` with ``spectra`` the complex (frames, channels, bins)
    transform of up to a few frames, in frame order. Each block is a view
    into one buffer that the next block overwrites. The signal is checked
    before this returns; see :func:`analyze` for the framing.
    """
    x = _as_signal_matrix(signal)
    n_samples, n_channels = x.shape
    length, hop = config.window_length, config.hop
    if n_samples < length:
        raise InvalidInputError(
            f"signal has {n_samples} samples, needs at least window_length={length}"
        )
    n_frames = int(np.ceil((n_samples - length) / hop)) + 1

    def blocks():
        win = config.window()
        buffer = np.empty((min(_BLOCK_FRAMES, n_frames), n_channels, config.n_bins),
                          dtype=np.complex128)
        # (frame, channel, sample) windows of the frames inside the signal: a
        # strided view, windowed and transformed a block at a time, so neither
        # a padded signal nor all windowed frames exist at once
        frames = np.lib.stride_tricks.sliding_window_view(x, length, axis=0)[::hop]
        for lo in range(0, len(frames), _BLOCK_FRAMES):
            block = frames[lo : lo + _BLOCK_FRAMES]
            yield lo, np.fft.rfft(block * win, axis=2, out=buffer[: len(block)])
        if len(frames) < n_frames:  # one frame runs past the last sample
            start = len(frames) * hop
            tail = np.zeros((1, n_channels, length))
            tail[0, :, : n_samples - start] = x[start:].T
            yield len(frames), np.fft.rfft(tail * win, axis=2, out=buffer[:1])

    return n_frames, n_channels, blocks()


def analyze(signal, config: StftConfig) -> ComplexSpectrogram:
    """Forward STFT of a multichannel time signal.

    The number of frames is ``ceil((T - window_length) / hop) + 1``; the last
    frame is zero-padded. Requires at least one full window of samples.

    Parameters
    ----------
    signal : array, shape (samples,) or (samples, channels)
    config : StftConfig
    """
    n_frames, n_channels, blocks = analysis_blocks(signal, config)
    spectra = np.empty((config.n_bins, n_frames, n_channels), dtype=np.complex128)
    out = spectra.transpose(1, 2, 0)  # (frame, channel, bin) view the blocks fill
    for first, block in blocks:
        out[first : first + len(block)] = block
    return ComplexSpectrogram(spectra, config)


def _window_sums(win_sq: np.ndarray, hop: int, n_frames: int, lo: int, hi: int) -> np.ndarray:
    """Samples ``lo:hi`` of the overlap-added squared window, each sample's
    terms added in frame order, as over the whole signal."""
    length = len(win_sq)
    norm = np.zeros(hi - lo)
    for n in range(max(0, (lo - length) // hop + 1), min(n_frames, (hi - 1) // hop + 1)):
        start = n * hop
        a, b = max(start, lo), min(start + length, hi)
        norm[a - lo : b - lo] += win_sq[a - start : b - start]
    return norm


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
    win = config.window()
    win_sq = win**2
    total = (n_frames - 1) * hop + length
    out = np.zeros((total, n_channels))
    # inverse transforms a block of frames at a time, each frame added in
    # order, so no (length, frame, channel) array of all frames exists
    for first in range(0, n_frames, _BLOCK_FRAMES):
        frames = np.fft.irfft(data[:, first : first + _BLOCK_FRAMES], n=length, axis=0)
        for j in range(frames.shape[1]):
            lo = (first + j) * hop
            out[lo : lo + length] += win[:, None] * frames[:, j, :]
    # the window sums are made and divided out a span at a time; none
    # vanishes (see the module docstring)
    step = _BLOCK_FRAMES * hop
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        out[lo:hi] /= _window_sums(win_sq, hop, n_frames, lo, hi)[:, None]
    return out
