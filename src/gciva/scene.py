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
are the ones those functions give, bit for bit. The sources have one fixed
shape, a 150 Hz highpass, a 600 Hz tilt and 25 Hz envelopes, so none of it
is a parameter.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, checked_array, checked_index, checked_scalar
from .stft import StftConfig

SPEED_OF_SOUND = 343.0
FRACTIONAL_DELAY_TAPS = 63
_HIGHPASS_HZ = 150.0  # -3 dB edge of the synthetic sources' Butterworth highpass
_TILT_HZ = 600.0  # edge of their one-pole lowpass tilt
_ENVELOPE_RATE_HZ = 25.0  # node rate of their random envelopes
_FILTER_BLOCK = 4096  # samples per Python-float block of _tilt_highpass


def _cos_degrees(theta_deg: float) -> float:
    # sin(90 - theta) so broadside (90 deg) gives exactly 0
    return float(np.sin(np.deg2rad(90.0 - theta_deg)))


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in meters; the first entry is the reference."""

    mic_positions: np.ndarray
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self) -> None:
        pos = np.atleast_2d(checked_array(self.mic_positions, "mic_positions"))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidInputError("mic_positions must be (n_mics, 3)")
        if pos.shape[0] < 2:
            raise InvalidInputError("need at least 2 microphones")
        checked_scalar(self.speed_of_sound, "speed_of_sound", low=0.0, strict=True)
        object.__setattr__(self, "mic_positions", pos)

    @classmethod
    def linear_pair(cls, spacing: float, speed_of_sound: float = SPEED_OF_SOUND):
        """Two microphones ``spacing`` meters apart on the array axis."""
        offset = [checked_scalar(spacing, "spacing"), 0.0, 0.0]
        return cls(np.array([[0.0, 0.0, 0.0], offset]), speed_of_sound)

    @property
    def n_mics(self) -> int:
        return self.mic_positions.shape[0]

    def path_offsets(self, doa_deg: float) -> np.ndarray:
        """Microphone offsets from the reference (m) projected on (cos doa, sin doa, 0),
        for a DOA in [0, 180] degrees."""
        doa_deg = checked_scalar(doa_deg, "DOA", 0.0, 180.0)
        d = self.mic_positions - self.mic_positions[0]
        return d[:, 0] * _cos_degrees(doa_deg) + d[:, 1] * np.sin(np.deg2rad(doa_deg))


def steering_vector(f: int, doa_deg: float, geometry: ArrayGeometry, config: StftConfig) -> np.ndarray:
    """Free-field relative transfer function of bin ``f`` for one DOA.

    Entry m is ``exp(j * 2*pi*nu_f / c * (r_m - r_1) . (cos doa, sin doa, 0))``;
    the reference microphone entry is exactly 1 and all have unit modulus.
    """
    f = checked_index(f, "bin index", high=config.n_bins)
    return steering_stack(doa_deg, geometry, config)[f]


def steering_stack(doa_deg: float, geometry: ArrayGeometry, config: StftConfig) -> np.ndarray:
    """Steering vectors for all bins at once, shape (n_bins, n_mics), for a
    DOA in [0, 180] degrees."""
    nu = config.bin_frequencies  # (F,)
    proj = geometry.path_offsets(doa_deg)  # (M,)
    phase = 2.0 * np.pi / geometry.speed_of_sound * nu[:, None] * proj[None, :]
    return np.exp(1j * phase)


@dataclass
class SceneSpec:
    """A determined mixing scenario: one source per microphone, the
    signals shaped (n_sources, n_samples).

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
        signals = self.source_signals
        if isinstance(signals, (list, tuple)) and len({np.shape(s) for s in signals}) > 1:
            raise InvalidInputError("source signals must all have the same length")
        sig = checked_array(signals, "source signals")
        if sig.ndim != 2 or sig.shape[1] == 0:
            raise InvalidInputError("source_signals must be (n_sources, n_samples)")
        self.source_signals = sig
        self.source_doas = tuple(checked_scalar(d, "DOA", 0.0, 180.0)
                                 for d in np.ravel(self.source_doas).tolist())
        if len(self.source_doas) != sig.shape[0]:
            raise InvalidInputError("need one DOA per source")
        self.snr_db = checked_scalar(self.snr_db, "snr_db", inf_ok=True)
        self.seed = checked_index(self.seed, "seed")
        if self.rirs is not None:
            rirs = checked_array(self.rirs, "rirs")
            if rirs.ndim != 3 or rirs.shape[0] != sig.shape[0]:
                raise InvalidInputError("rirs must be (n_sources, n_mics, taps)")
            self.rirs = rirs

    @property
    def n_sources(self) -> int:
        return self.source_signals.shape[0]

    @property
    def n_samples(self) -> int:
        return self.source_signals.shape[1]


def fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a 1-D signal by a (possibly fractional) number of samples.

    Uses a ``FRACTIONAL_DELAY_TAPS``-tap Blackman-windowed sinc with the
    window shifted along with the sinc center; integer delays are exact
    because the kernel then reduces to a unit impulse.
    """
    x = checked_array(signal, "signal")
    delay_samples = checked_scalar(delay_samples, "delay")
    center = (FRACTIONAL_DELAY_TAPS - 1) // 2
    d_int = int(np.floor(delay_samples))
    frac = delay_samples - d_int
    offset = np.arange(FRACTIONAL_DELAY_TAPS) - center - frac
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
    images (sources, samples, mics): :func:`render_images`, then
    :func:`add_noise` on their sum at the scene's SNR and seed.
    """
    images = render_images(spec, geometry, config)
    return add_noise(images.sum(axis=0), spec.snr_db, spec.seed), images


def render_images(spec: SceneSpec, geometry: ArrayGeometry, config: StftConfig) -> np.ndarray:
    """Noiseless source images of a scene, shaped (sources, samples, mics).

    They do not depend on the scene's SNR or seed.
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
    return images


def add_noise(clean: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """``clean`` (samples, mics) plus white Gaussian noise drawn from
    ``seed`` and scaled so that the ratio of channel-averaged clean power to
    noise power matches ``snr_db`` exactly. With ``snr_db = inf`` the noise
    branch is skipped and ``clean`` itself is returned; a silent ``clean``
    gets zero noise."""
    snr_db = checked_scalar(snr_db, "snr_db", inf_ok=True)
    rng = np.random.default_rng(checked_index(seed, "seed"))
    clean = checked_array(clean, "clean signal")
    if np.isinf(snr_db):
        return clean
    power = float(np.mean(clean**2))
    noise = rng.standard_normal(clean.shape)
    if power > 0.0:
        target = power / 10.0 ** (snr_db / 10.0)
        noise *= np.sqrt(target / np.mean(noise**2))
    else:
        noise[:] = 0.0
    return clean + noise


def _butter_highpass2(sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(b, a)`` of the second-order Butterworth highpass with
    its -3 dB edge at ``_HIGHPASS_HZ``, equal bit for bit to scipy's
    ``butter(2, _HIGHPASS_HZ / (sample_rate / 2), btype="high")``.

    It follows scipy's zero-pole chain with the same operations in the same
    order: the analog prototype's poles (``buttap``), the edge prewarped at a
    sample rate of 2 and the lowpass-to-highpass inversion (``lp2hp_zpk``),
    the bilinear transform (``bilinear_zpk``) and the expansion into
    polynomials (``zpk2tf``). The two zeros, at s = 0 and then at z = 1,
    enter each step as exact constants.
    """
    poles = -np.exp(1j * np.pi * np.arange(-1.0, 2.0, 2.0) / 4)  # cutoff 1 rad/s
    warped = float(4.0 * np.tan(np.pi * (_HIGHPASS_HZ / (sample_rate / 2.0)) / 2.0))
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
    ``y * alpha``. The samples run through Python floats in blocks of
    ``_FILTER_BLOCK``, so no list as long as the signal is built.
    """
    gain = 1.0 - alpha
    b0, b1, b2 = b.tolist()
    _, a1, a2 = a.tolist()
    state = z1 = z2 = 0.0
    out = np.empty_like(noise)
    for start in range(0, noise.shape[0], _FILTER_BLOCK):
        block = noise[start : start + _FILTER_BLOCK].tolist()
        for n, x in enumerate(block):
            u = state + gain * x
            state = u * alpha
            y = z1 + b0 * u
            z1 = z2 + u * b1 - y * a1
            z2 = u * b2 - y * a2
            block[n] = y
        out[start : start + len(block)] = block
    return out


def synthetic_sources(n_sources: int, duration: float, sample_rate: float, seed: int = 0) -> np.ndarray:
    """Independent speech-like test sources, unit RMS each.

    Amplitude-modulated noise with a speech-shaped spectrum of one fixed
    shape: a one-pole lowpass tilt above 600 Hz and a second-order
    Butterworth highpass below 150 Hz. The slowly varying random envelopes,
    with nodes 1/25 s apart, make the signals super-Gaussian and
    non-stationary, which is what the separation model assumes; the spectral
    shape keeps the energy away from the bands where a widely spaced
    microphone pair cannot distinguish directions.

    The filters are numpy ports of scipy's ``butter`` and ``lfilter``
    (see :func:`_butter_highpass2` and :func:`_tilt_highpass`), so the
    samples equal those of the scipy formulation bit for bit while loading
    no scipy.

    Raises InvalidInputError unless ``n_sources >= 1``, ``sample_rate`` is
    above 300 Hz (twice the highpass edge) and the duration renders at least
    one sample and no more than an array can index or memory can hold.
    """
    n_sources = checked_index(n_sources, "n_sources", low=1)
    sample_rate = checked_scalar(sample_rate, "sample_rate", low=2.0 * _HIGHPASS_HZ, strict=True)
    duration = checked_scalar(duration, "duration")
    rng = np.random.default_rng(checked_index(seed, "seed"))
    count = duration * sample_rate
    if not count < np.iinfo(np.intp).max:  # inf if the product overflows
        raise InvalidInputError(f"duration {duration:g} s at {sample_rate:g} Hz renders "
                                f"{count:g} samples, more than an array can index")
    n_samples = int(round(count))
    if n_samples < 1:
        raise InvalidInputError(f"duration {duration:g} s at {sample_rate:g} Hz renders "
                                f"{n_samples} samples; need at least 1")
    segment = int(round(sample_rate / _ENVELOPE_RATE_HZ))
    n_nodes = n_samples // segment + 2
    try:
        out = np.empty((n_sources, n_samples))
        t = np.arange(n_samples, dtype=np.float64)
    except MemoryError:
        raise InvalidInputError(f"duration {duration:g} s at {sample_rate:g} Hz renders "
                                f"{n_samples} samples, more than memory holds") from None
    node_t = np.arange(n_nodes, dtype=np.float64) * segment
    alpha = float(np.exp(-2.0 * np.pi * _TILT_HZ / sample_rate))
    b_hp, a_hp = _butter_highpass2(sample_rate)
    for k in range(n_sources):
        carrier = _tilt_highpass(rng.standard_normal(n_samples), alpha, b_hp, a_hp)
        envelope = np.interp(t, node_t, 0.05 + np.abs(rng.standard_normal(n_nodes)))
        x = carrier * envelope
        out[k] = x / np.sqrt(np.mean(x**2))
    return out
