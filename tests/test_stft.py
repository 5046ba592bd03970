import tracemalloc

import numpy as np
import pytest

import gciva.stft
from gciva import ComplexSpectrogram, InvalidInputError, StftConfig, analyze, synthesize

BLOCK = gciva.stft._BLOCK_FRAMES


def small_config(length=64, hop=32, rate=1000.0):
    return StftConfig(window_length=length, hop=hop, sample_rate=rate)


def direct_dft_energy(signal, config):
    """Oracle: total spectral energy from a direct DFT of each windowed frame.

    Builds the DFT as an explicit matrix product (no FFT) and accumulates
    the full two-sided energy per frame, per channel.
    """
    x = np.atleast_2d(np.asarray(signal, dtype=float).T).T
    length, hop = config.window_length, config.hop
    n_frames = int(np.ceil((x.shape[0] - length) / hop)) + 1
    padded = np.zeros(((n_frames - 1) * hop + length, x.shape[1]))
    padded[: x.shape[0]] = x
    win = config.window()
    t = np.arange(length)
    dft = np.exp(-2j * np.pi * np.outer(t, t) / length)
    total = 0.0
    for n in range(n_frames):
        frame = win[:, None] * padded[n * hop : n * hop + length]
        total += np.sum(np.abs(dft @ frame) ** 2)
    return total


def gathered_spectrogram(signal, config):
    """Oracle: the gather formulation of the forward STFT. An index array
    picks each (sample, frame) out of the zero-padded signal, the gathered
    frames are windowed and transformed along the sample axis."""
    x = np.atleast_2d(np.asarray(signal, dtype=float).T).T
    length, hop = config.window_length, config.hop
    n_frames = int(np.ceil((x.shape[0] - length) / hop)) + 1
    padded = np.zeros(((n_frames - 1) * hop + length, x.shape[1]))
    padded[: x.shape[0]] = x
    idx = np.arange(length)[:, None] + hop * np.arange(n_frames)[None, :]
    frames = padded[idx, :] * config.window()[:, None, None]  # (length, frame, channel)
    return np.fft.rfft(frames, axis=0)


def whole_overlap_add(spec):
    """Oracle: weighted overlap-add over the whole signal at once. Every
    frame is inverted in one call, and the squared-window sums are built
    for all samples before any is divided out."""
    config = spec.config
    length, hop = config.window_length, config.hop
    frames = np.fft.irfft(spec.data, n=length, axis=0)  # (length, frame, channel)
    win = config.window()
    total = (spec.n_frames - 1) * hop + length
    out = np.zeros((total, spec.n_channels))
    norm = np.zeros(total)
    for n in range(spec.n_frames):
        out[n * hop : n * hop + length] += win[:, None] * frames[:, n, :]
        norm[n * hop : n * hop + length] += win**2
    covered = norm > 1e-12 * norm.max()
    np.divide(out, norm[:, None], out=out, where=covered[:, None])
    out[~covered] = 0.0
    return out


def one_sided_energy(spec):
    """Two-sided spectral energy reconstructed from the one-sided transform."""
    weights = np.full(spec.n_bins, 2.0)
    weights[0] = 1.0
    if spec.config.window_length % 2 == 0:
        weights[-1] = 1.0
    return np.sum(weights[:, None, None] * np.abs(spec.data) ** 2)


class TestAnalyze:
    def test_zero_signal_single_frame(self):
        config = StftConfig()
        spec = analyze(np.zeros(2048), config)
        assert spec.n_frames == 1
        assert spec.n_bins == 1025
        assert np.all(spec.data == 0)

    def test_bin_centered_tone_peaks_at_its_bin(self):
        config = StftConfig()
        t = np.arange(4 * 2048)
        tone = np.sin(2 * np.pi * 100 * t / 2048)  # bin 100 center frequency
        spec = analyze(tone, config)
        peaks = np.argmax(np.abs(spec.data[:, :, 0]), axis=0)
        assert np.all(peaks == 100)

    def test_parseval_against_direct_dft_oracle(self):
        config = StftConfig()
        rng = np.random.default_rng(41)
        x = rng.standard_normal((16000, 2))
        spec = analyze(x, config)
        expected = direct_dft_energy(x, config)
        assert one_sided_energy(spec) == pytest.approx(expected, rel=1e-9)

    def test_frame_count_covers_tail(self):
        config = small_config()
        spec = analyze(np.ones(100), config)
        # 100 samples, window 64, hop 32: frames at 0, 32, 64 (padded)
        assert spec.n_frames == 3

    @pytest.mark.parametrize("bad", [np.array([]), np.full(2048, np.nan)])
    def test_invalid_signal_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            analyze(bad, StftConfig())

    def test_too_short_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            analyze(np.ones(100), StftConfig())

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    # eight frames per window, half the window, no divisor of it, and the
    # whole window (no overlap)
    @pytest.mark.parametrize("hop", [8, 32, 23, 64])
    @pytest.mark.parametrize("tail", [0, 7])  # frames end on the last sample, or past it
    def test_strided_frames_equal_gathered_frames(self, n_channels, hop, tail):
        config = small_config(hop=hop)
        n_samples = 64 + 9 * hop + tail
        signal = np.random.default_rng(n_channels).standard_normal((n_samples, n_channels))
        spec = analyze(signal, config)
        expected = gathered_spectrogram(signal, config)
        assert spec.data.shape == expected.shape == (33, 10 + (tail > 0), n_channels)
        assert np.array_equal(spec.data, expected)
        assert spec.data.flags.c_contiguous

    def test_linearity(self):
        config = small_config()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        z = rng.standard_normal(300)
        lhs = analyze(2.5 * x - 1.25 * z, config).data
        rhs = 2.5 * analyze(x, config).data - 1.25 * analyze(z, config).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSynthesize:
    def test_round_trip_interior(self):
        config = StftConfig()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((16000, 2))
        y = synthesize(analyze(x, config))[: x.shape[0]]
        lo, hi = 2048, x.shape[0] - 2048
        err = np.max(np.abs(y[lo:hi] - x[lo:hi])) / np.max(np.abs(x[lo:hi]))
        assert err <= 1e-3  # -60 dB criterion; exact compensation gives ~1e-15

    def test_zero_spectrogram_gives_zero_signal(self):
        config = small_config()
        spec = ComplexSpectrogram(np.zeros((config.n_bins, 4, 2)), config)
        assert np.all(synthesize(spec) == 0)

    def test_tone_round_trip(self):
        config = StftConfig()
        t = np.arange(16000)
        tone = np.cos(2 * np.pi * 50 * t / 2048)
        y = synthesize(analyze(tone, config))[: tone.shape[0], 0]
        lo, hi = 2048, tone.shape[0] - 2048
        err = np.max(np.abs(y[lo:hi] - tone[lo:hi]))
        assert err <= 1e-3

    # window-sum compensation accounts for partial coverage at the ends. At
    # hop = window_length each sample lies in exactly one frame, so its
    # window sum is one squared window value, down to 0.0064 at a frame's
    # start; nothing is lost there
    @pytest.mark.parametrize("hop", [32, 1, 23, 64])
    def test_round_trip_is_exact_at_edges_too(self, hop):
        config = small_config(hop=hop)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(256)
        y = synthesize(analyze(x, config))[: x.shape[0], 0]
        np.testing.assert_allclose(y, x, atol=1e-12)

    def test_analyze_synthesize_analyze_idempotent(self):
        config = small_config()
        rng = np.random.default_rng(13)
        x = rng.standard_normal(512)
        first = analyze(x, config)
        second = analyze(synthesize(first)[:512, 0], config)
        interior = slice(1, first.n_frames - 1)
        num = np.abs(second.data[:, interior] - first.data[:, interior]).max()
        assert num / np.abs(first.data[:, interior]).max() <= 1e-6

    def test_dimension_mismatch_rejected(self):
        config = small_config()
        spec = ComplexSpectrogram(np.zeros((config.n_bins, 2, 1)), config)
        spec.data = np.zeros((config.n_bins - 1, 2, 1), dtype=complex)
        with pytest.raises(InvalidInputError):
            synthesize(spec)


class TestFrameBlocks:
    """Analysis and synthesis run a block of frames at a time; the result is
    the whole-array formulas' bit for bit, whatever the frame count."""

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    # the frames end on the last sample (tail 0), or the last runs past it,
    # which one frame alone cannot
    @pytest.mark.parametrize("n_frames, tail", [
        (n, tail) for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 78) for tail in (0, 7)
        if n > 1 or not tail])
    @pytest.mark.parametrize("hop", [32, 23])
    def test_blocks_equal_whole_array_formulas(self, n_channels, n_frames, tail, hop):
        config = small_config(hop=hop)
        n_samples = 64 + (n_frames - 1) * hop - (hop - tail if tail else 0)
        signal = np.random.default_rng(n_frames).standard_normal((n_samples, n_channels))
        spec = analyze(signal, config)
        expected = gathered_spectrogram(signal, config)
        assert spec.data.shape == expected.shape == (33, n_frames, n_channels)
        assert np.array_equal(spec.data, expected)
        rng = np.random.default_rng(n_channels)
        for data in (spec.data, rng.standard_normal(expected.shape)
                     + 1j * rng.standard_normal(expected.shape)):
            given = ComplexSpectrogram(data, config)
            assert np.array_equal(synthesize(given), whole_overlap_add(given))

    def test_minute_of_stereo_holds_little_beside_the_output(self):
        # beside what it returns, analysis holds a few blocks of windowed
        # frames and the one-byte-per-entry mask of the spectrogram's
        # finiteness check; synthesis a few blocks of inverted frames. Whole
        # arrays of frames would take 30 MB more each.
        config = StftConfig()
        signal = np.random.default_rng(60).standard_normal((60 * 16000, 2))
        block = BLOCK * 2 * config.window_length * 8  # one block of real frames, in bytes
        tracemalloc.start()
        try:
            spec = analyze(signal, config)
            analysis_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = synthesize(spec)
            synthesis_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert analysis_peak <= spec.data.nbytes + spec.data.size + 4 * block
        assert synthesis_peak <= out.nbytes + 4 * block


class TestConfig:
    def test_default_matches_operating_point(self):
        config = StftConfig()
        assert config.window_length == 2048
        assert config.hop == 1024
        assert config.window_length % config.hop == 0
        assert config.n_bins == 1025
        assert config.bin_frequencies[128] == pytest.approx(1000.0)

    def test_window_is_real_nonnegative_and_full_length(self):
        win = StftConfig().window()
        assert win.shape == (2048,)
        # nonnegative, and the floor that keeps every window sum from zero
        assert win.min() >= 0.08
        assert np.isrealobj(win)

    def test_hamming_overlap_add_is_constant_on_interior(self):
        # periodic Hamming at 50% overlap sums to 1.08 everywhere
        config = StftConfig()
        win = config.window()
        ola = win[: config.hop] + win[config.hop :]
        np.testing.assert_allclose(ola, 1.08, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_length": 0},
            {"hop": 0},
            {"hop": 4096},
            {"sample_rate": -1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            StftConfig(**kwargs)

    def test_spectrogram_rejects_nonfinite(self):
        config = small_config()
        data = np.zeros((config.n_bins, 2, 1), dtype=complex)
        data[0, 0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            ComplexSpectrogram(data, config)
