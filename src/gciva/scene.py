"""Free-field steering vectors and anechoic multichannel scene rendering.

Directions of arrival are degrees in the array's x-y plane from +x, so a pair
on the x-axis sees 0 degrees end-fire and 90 broadside, and each delay is a
microphone's offset from the reference projected on (cos doa, sin doa, 0):
:meth:`ArrayGeometry.path_offsets`. Rendering uses fractional delays realized
with a 63-tap windowed sinc, which keeps the time-domain channels consistent
with the frequency-domain steering model up to the interpolator's error.

Everything here is numpy, so rendering a scene loads no scipy. The synthetic
sources' Butterworth highpass and their IIR filtering repeat scipy's
``butter`` and ``lfilter`` operation for operation, so the rendered samples
are the ones those functions give, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .stft import StftConfig

SPEED_OF_SOUND = 343.0
FRACTIONAL_DELAY_TAPS = 63


def _check_doa(doa_deg: float) -> None:
    """The one range rule for a source direction: [0, 180] degrees."""
    if not 0.0 <= doa_deg <= 180.0:
        raise InvalidInputError(f"DOA {doa_deg} outside [0, 180] degrees")


def _cos_degrees(theta_deg: float) -> float:
    # sin(90 - theta) so broadside (90 deg) gives exactly 0
    return float(np.sin(np.deg2rad(90.0 - theta_deg)))


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters; the first entry is the reference."""

    mic_positions: np.ndarray
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.mic_positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidInputError("mic_positions must be (n_mics, 3)")
        if pos.shape[0] < 2:
            raise InvalidInputError("need at least 2 microphones")
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("mic_positions contain non-finite values")
        if not np.isfinite(self.speed_of_sound) or self.speed_of_sound <= 0:
            raise InvalidInputError("speed_of_sound must be positive")
        object.__setattr__(self, "mic_positions", pos)

    @classmethod
    def linear_pair(cls, spacing: float, speed_of_sound: float = SPEED_OF_SOUND):
        """Two microphones ``spacing`` meters apart on the array axis."""
        return cls(np.array([[0.0, 0.0, 0.0], [spacing, 0.0, 0.0]]), speed_of_sound)

    @property
    def n_mics(self) -> int:
        return self.mic_positions.shape[0]

    def path_offsets(self, doa_deg: float) -> np.ndarray:
        """Microphone offsets from the reference (m) projected on (cos doa, sin doa, 0)."""
        d = self.mic_positions - self.mic_positions[0]
        return d[:, 0] * _cos_degrees(doa_deg) + d[:, 1] * np.sin(np.deg2rad(doa_deg))


def steering_vector(f: int, doa_deg: float, geometry: ArrayGeometry, config: StftConfig) -> np.ndarray:
    """Free-field relative transfer function of bin ``f`` for one DOA.

    Entry m is ``exp(j * 2*pi*nu_f / c * (r_m - r_1) . (cos doa, sin doa, 0))``;
    the reference microphone entry is exactly 1 and all have unit modulus.
    """
    if not 0 <= f < config.n_bins:
        raise InvalidInputError(f"bin index {f} outside [0, {config.n_bins})")
    return steering_stack(doa_deg, geometry, config)[f]


def steering_stack(doa_deg: float, geometry: ArrayGeometry, config: StftConfig) -> np.ndarray:
    """Steering vectors for all bins at once, shape (n_bins, n_mics)."""
    _check_doa(doa_deg)
    nu = config.bin_frequency(np.arange(config.n_bins))  # (F,)
    proj = geometry.path_offsets(doa_deg)  # (M,)
    phase = 2.0 * np.pi / geometry.speed_of_sound * nu[:, None] * proj[None, :]
    return np.exp(1j * phase)


@dataclass
class SceneSpec:
    """A determined mixing scenario: one source per microphone.

    ``rirs`` optionally carries finite impulse responses shaped
    (source, mic, taps); when absent the free-field fractional-delay model
    consistent with :func:`steering_vector` is used.
    """

    source_signals: np.ndarray
    source_doas: tuple
    snr_db: float = np.inf
    rirs: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            sig = np.asarray(self.source_signals, dtype=np.float64)
        except ValueError as exc:
            raise InvalidInputError("source signals must all have the same length") from exc
        if sig.ndim == 1:
            sig = sig[None, :]
        if sig.ndim != 2 or sig.shape[1] == 0:
            raise InvalidInputError("source_signals must be (n_sources, n_samples)")
        if not np.all(np.isfinite(sig)):
            raise InvalidInputError("source signals contain non-finite samples")
        self.source_signals = sig
        doas = tuple(float(d) for d in np.atleast_1d(self.source_doas))
        if len(doas) != sig.shape[0]:
            raise InvalidInputError("need one DOA per source")
        for d in doas:
            _check_doa(d)
        self.source_doas = doas
        if np.isnan(self.snr_db) or (np.isinf(self.snr_db) and self.snr_db < 0):
            raise InvalidInputError("snr_db must be finite or +inf")
        if self.rirs is not None:
            rirs = np.asarray(self.rirs, dtype=np.float64)
            if rirs.ndim != 3 or rirs.shape[0] != sig.shape[0]:
                raise InvalidInputError("rirs must be (n_sources, n_mics, taps)")
            self.rirs = rirs

    @property
    def n_sources(self) -> int:
        return self.source_signals.shape[0]

    @property
    def n_samples(self) -> int:
        return self.source_signals.shape[1]


def fractional_delay(signal: np.ndarray, delay_samples: float, n_taps: int = FRACTIONAL_DELAY_TAPS) -> np.ndarray:
    """Delay a 1-D signal by a (possibly fractional) number of samples.

    Uses a Blackman-windowed sinc with the window shifted along with the
    sinc center; integer delays are exact because the kernel then reduces to
    a unit impulse.
    """
    x = np.asarray(signal, dtype=np.float64)
    center = (n_taps - 1) // 2
    d_int = int(np.floor(delay_samples))
    frac = delay_samples - d_int
    offset = np.arange(n_taps) - center - frac
    half = center + 1.0
    window = np.where(
        np.abs(offset) <= half,
        0.42 + 0.5 * np.cos(np.pi * offset / half) + 0.08 * np.cos(2.0 * np.pi * offset / half),
        0.0,
    )
    taps = window * np.sinc(offset)
    y = np.convolve(x, taps)
    out = np.zeros_like(x)
    src_start = center - d_int  # index into y that lands on out[0]
    lo = max(0, -src_start)
    hi = min(x.shape[0], y.shape[0] - src_start)
    if hi > lo:
        out[lo:hi] = y[lo + src_start : hi + src_start]
    return out


def simulate_mixture(spec: SceneSpec, geometry: ArrayGeometry, config: StftConfig):
    """Render a scene to microphone signals plus ground-truth source images.

    Returns ``(mixture, images)`` with mixture shaped (samples, mics) and
    images (sources, samples, mics). The mixture equals the sum of the images
    plus white Gaussian noise scaled so that the ratio of channel-averaged
    image power to noise power matches ``snr_db`` exactly; with
    ``snr_db = inf`` the noise branch is skipped entirely.
    """
    n_mics = geometry.n_mics
    if spec.n_sources != n_mics:
        raise InvalidInputError(
            f"determined scenario requires sources == mics, got {spec.n_sources} != {n_mics}"
        )
    n_samples = spec.n_samples
    fs = config.sample_rate
    images = np.zeros((spec.n_sources, n_samples, n_mics))

    if spec.rirs is not None:
        if spec.rirs.shape[1] != n_mics:
            raise InvalidInputError(
                f"rirs cover {spec.rirs.shape[1]} mics, geometry has {n_mics}"
            )
        # linear convolution through a real FFT at least as long as the full output
        size = 1 << (n_samples + spec.rirs.shape[2] - 2).bit_length()
        for k in range(spec.n_sources):
            spectra = np.fft.rfft(spec.source_signals[k], size) * np.fft.rfft(spec.rirs[k], size)
            images[k] = np.fft.irfft(spectra, size)[:, :n_samples].T
    else:
        # plane-wave arrival offsets in samples (source, mic), shifted to be causal
        offsets = np.array([-geometry.path_offsets(doa) / geometry.speed_of_sound * fs
                            for doa in spec.source_doas])
        base = max(0.0, -offsets.min())
        for k in range(spec.n_sources):
            for m in range(n_mics):
                images[k, :, m] = fractional_delay(spec.source_signals[k], base + offsets[k, m])

    clean = images.sum(axis=0)
    if np.isinf(spec.snr_db):
        return clean, images

    power = float(np.mean(clean**2))
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal(clean.shape)
    if power > 0.0:
        target = power / 10.0 ** (spec.snr_db / 10.0)
        noise *= np.sqrt(target / np.mean(noise**2))
    else:
        noise[:] = 0.0
    return clean + noise, images


def _butter_highpass2(edge_hz: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(b, a)`` of the second-order Butterworth highpass with
    its -3 dB edge at ``edge_hz``, equal bit for bit to scipy's
    ``butter(2, edge_hz / (sample_rate / 2), btype="high")``.

    It follows scipy's zero-pole chain with the same operations in the same
    order: the analog prototype's poles (``buttap``), the edge prewarped at a
    sample rate of 2 and the lowpass-to-highpass inversion (``lp2hp_zpk``),
    the bilinear transform (``bilinear_zpk``) and the expansion into
    polynomials (``zpk2tf``). The two zeros, at s = 0 and then at z = 1,
    enter each step as exact constants.
    """
    poles = -np.exp(1j * np.pi * np.arange(-1.0, 2.0, 2.0) / 4)  # cutoff 1 rad/s
    warped = float(4.0 * np.tan(np.pi * (edge_hz / (sample_rate / 2.0)) / 2.0))
    gain = np.real(1.0 / np.prod(-poles))
    poles = warped / poles
    gain = gain * np.real(16.0 / np.prod(4.0 - poles))
    poles = (4.0 + poles) / (4.0 - poles)
    a = np.ones(1, dtype=complex)
    for pole in poles:
        a = np.convolve(a, [1.0, -pole])
    return gain * np.array([1.0, -2.0, 1.0]), np.real(a)  # the poles are a conjugate pair


def _tilt_highpass(noise: np.ndarray, alpha: float, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``noise`` through the one-pole lowpass ``(1 - alpha) / (1 - alpha z^-1)``
    and then the biquad ``b / a`` (``a[0] = 1``).

    Each sample runs both filters in the transposed direct form II of
    scipy's ``lfilter``, with its operation order, so the output is the one
    two chained ``lfilter`` calls give, bit for bit. The one-pole's state
    update ``x * 0.0 - y * -alpha`` is written as its exact equal
    ``y * alpha``.
    """
    gain = 1.0 - alpha
    b0, b1, b2 = b.tolist()
    _, a1, a2 = a.tolist()
    state = z1 = z2 = 0.0
    out = noise.tolist()
    for n, x in enumerate(out):
        u = state + gain * x
        state = u * alpha
        y = z1 + b0 * u
        z1 = z2 + u * b1 - y * a1
        z2 = u * b2 - y * a2
        out[n] = y
    return np.array(out)


def synthetic_sources(n_sources: int, duration: float, sample_rate: float, seed: int = 0,
                      envelope_rate_hz: float = 25.0, band_hz: tuple = (150.0, 600.0)) -> np.ndarray:
    """Independent speech-like test sources, unit RMS each.

    Amplitude-modulated noise with a speech-shaped spectrum: a one-pole
    lowpass tilt above ``band_hz[1]`` and a second-order Butterworth
    highpass below ``band_hz[0]``. The slowly varying random envelopes make
    the signals super-Gaussian and non-stationary, which is what the
    separation model assumes; the spectral shape keeps the energy away from
    the bands where a widely spaced microphone pair cannot distinguish
    directions.

    The filters are numpy ports of scipy's ``butter`` and ``lfilter``
    (see :func:`_butter_highpass2` and :func:`_tilt_highpass`), so the
    samples equal those of the scipy formulation bit for bit while loading
    no scipy.

    Raises InvalidInputError unless ``n_sources >= 1``, the duration renders
    at least one sample and ``0 < band_hz[0] < sample_rate / 2``.
    """
    if n_sources < 1:
        raise InvalidInputError("need n_sources >= 1")
    nyquist = sample_rate / 2.0
    if not 0.0 < band_hz[0] < nyquist:
        raise InvalidInputError(f"highpass edge {band_hz[0]:g} Hz must lie above 0 and below "
                                f"the Nyquist frequency {nyquist:g} Hz of the "
                                f"{sample_rate:g} Hz sample rate")
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration * sample_rate))
    if n_samples < 1:
        raise InvalidInputError(f"duration {duration:g} s at {sample_rate:g} Hz renders "
                                f"{n_samples} samples; need at least 1")
    segment = max(1, int(round(sample_rate / envelope_rate_hz)))
    n_nodes = n_samples // segment + 2
    out = np.empty((n_sources, n_samples))
    t = np.arange(n_samples, dtype=np.float64)
    node_t = np.arange(n_nodes, dtype=np.float64) * segment
    alpha = float(np.exp(-2.0 * np.pi * band_hz[1] / sample_rate))
    b_hp, a_hp = _butter_highpass2(band_hz[0], sample_rate)
    for k in range(n_sources):
        carrier = _tilt_highpass(rng.standard_normal(n_samples), alpha, b_hp, a_hp)
        envelope = np.interp(t, node_t, 0.05 + np.abs(rng.standard_normal(n_nodes)))
        x = carrier * envelope
        out[k] = x / np.sqrt(np.mean(x**2))
    return out
