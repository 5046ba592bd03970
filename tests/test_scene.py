import numpy as np
import pytest
from scipy.signal import butter, lfilter

from gciva import (
    ArrayGeometry,
    InvalidInputError,
    SceneSpec,
    StftConfig,
    fractional_delay,
    simulate_mixture,
    steering_stack,
    steering_vector,
    synthetic_sources,
)
from gciva.scene import _butter_highpass2, _tilt_highpass

CONFIG = StftConfig()  # 2048-sample window at 16 kHz
PAIR = ArrayGeometry.linear_pair(0.21)
MIRRORED_PAIR = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [-0.21, 0.0, 0.0]]))


class TestSteeringVector:
    def test_zero_frequency_is_all_ones(self):
        h = steering_vector(0, 37.0, PAIR, CONFIG)
        np.testing.assert_array_equal(h, np.ones(2, dtype=complex))

    def test_broadside_is_all_ones(self):
        for f in (1, 100, 1024):
            h = steering_vector(f, 90.0, PAIR, CONFIG)
            np.testing.assert_array_equal(h, np.ones(2, dtype=complex))

    def test_endfire_phase_matches_scalar_formula(self):
        # bin 128 of a 2048-point transform at 16 kHz sits exactly at 1000 Hz
        h = steering_vector(128, 0.0, PAIR, CONFIG)
        phi = 2.0 * np.pi * 1000.0 * 0.21 / 343.0
        assert h[0] == 1.0 + 0.0j
        assert h[1] == pytest.approx(np.exp(1j * phi), rel=1e-12)

    def test_unit_modulus_and_reference_entry(self):
        rng = np.random.default_rng(2)
        geometry = ArrayGeometry(rng.uniform(-0.2, 0.2, size=(4, 3)))
        for doa in rng.uniform(0.0, 180.0, size=10):
            stack = steering_stack(doa, geometry, CONFIG)
            np.testing.assert_allclose(np.abs(stack), 1.0, atol=1e-12)
            np.testing.assert_array_equal(stack[:, 0], np.ones(CONFIG.n_bins))

    @pytest.mark.parametrize("doa", [0.0, 20.0, 45.0, 135.0])
    def test_mirrored_pair_sees_the_mirrored_direction(self, doa):
        # the second microphone on -x: a wave from doa reaches it as one
        # from 180 - doa reaches the pair on +x
        np.testing.assert_allclose(steering_stack(doa, MIRRORED_PAIR, CONFIG),
                                   steering_stack(180.0 - doa, PAIR, CONFIG),
                                   rtol=0.0, atol=1e-12)

    def test_y_axis_microphone_phase_uses_sin(self):
        geometry = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]))
        np.testing.assert_array_equal(geometry.path_offsets(90.0), [0.0, 0.0, 0.1])
        h = steering_vector(128, 90.0, geometry, CONFIG)  # 1000 Hz
        phi = 2.0 * np.pi * 1000.0 * 0.1 / 343.0  # 1.83 rad
        assert np.angle(h[2]) == pytest.approx(phi, rel=1e-12)
        assert h[1] == 1.0 + 0.0j

    def test_out_of_range_bin_rejected(self):
        with pytest.raises(InvalidInputError):
            steering_vector(CONFIG.n_bins, 45.0, PAIR, CONFIG)

    def test_out_of_range_doa_rejected(self):
        with pytest.raises(InvalidInputError):
            steering_vector(0, 181.0, PAIR, CONFIG)
        with pytest.raises(InvalidInputError, match=r"^DOA 200\.0 outside \[0, 180\] degrees$"):
            steering_stack(200.0, PAIR, CONFIG)


class TestFractionalDelay:
    def test_integer_delay_is_exact(self):
        x = np.zeros(64)
        x[10] = 1.0
        y = fractional_delay(x, 5.0)
        np.testing.assert_allclose(y, np.roll(x, 5), atol=1e-12)

    def test_fractional_delay_of_tone(self):
        t = np.arange(4000, dtype=float)
        x = np.sin(2 * np.pi * 0.05 * t)
        y = fractional_delay(x, 2.5)
        expected = np.sin(2 * np.pi * 0.05 * (t - 2.5))
        np.testing.assert_allclose(y[100:-100], expected[100:-100], atol=1e-3)


class TestSimulateMixture:
    def _scene(self, doas, snr_db=np.inf, seed=0, n=8000):
        rng = np.random.default_rng(seed)
        signals = rng.standard_normal((2, n))
        return SceneSpec(signals, doas, snr_db, seed=seed)

    def test_broadside_sources_give_identical_channels(self):
        mixture, _ = simulate_mixture(self._scene((90.0, 90.0)), PAIR, CONFIG)
        np.testing.assert_array_equal(mixture[:, 0], mixture[:, 1])

    def test_noiseless_mixture_is_sum_of_images(self):
        mixture, images = simulate_mixture(self._scene((40.0, 120.0)), PAIR, CONFIG)
        np.testing.assert_array_equal(mixture, images.sum(axis=0))

    def test_impulse_cross_correlation_lag(self):
        # oracle: the two channels of an end-fire impulse source are offset by
        # round(0.21 / 343 * 16000) = 10 samples
        n = 2000
        impulse = np.zeros(n)
        impulse[600] = 1.0
        silent = np.zeros(n)
        spec = SceneSpec(np.stack([impulse, silent]), (0.0, 90.0), np.inf)
        mixture, _ = simulate_mixture(spec, PAIR, CONFIG)
        corr = np.correlate(mixture[:, 0], mixture[:, 1], mode="full")
        lag = int(np.argmax(corr)) - (n - 1)
        assert lag == round(0.21 / 343.0 * 16000)

    def test_requested_snr_is_met_exactly(self):
        scene = self._scene((45.0, 135.0), snr_db=20.0, n=16000)
        mixture, images = simulate_mixture(scene, PAIR, CONFIG)
        clean = images.sum(axis=0)
        noise = mixture - clean
        measured = 10 * np.log10(np.mean(clean**2) / np.mean(noise**2))
        assert measured == pytest.approx(20.0, abs=0.1)

    def test_same_seed_is_bit_identical(self):
        a, _ = simulate_mixture(self._scene((45.0, 135.0), 10.0, seed=7), PAIR, CONFIG)
        b, _ = simulate_mixture(self._scene((45.0, 135.0), 10.0, seed=7), PAIR, CONFIG)
        np.testing.assert_array_equal(a, b)

    def test_time_render_matches_steering_model(self):
        # STFT phase ratio between mics should follow the free-field model
        scene = self._scene((30.0, 150.0))
        _, images = simulate_mixture(scene, PAIR, CONFIG)
        from gciva import analyze

        spec = analyze(images[0], CONFIG)
        f = 200  # well below Nyquist, where the interpolator is accurate
        h = steering_vector(f, 30.0, PAIR, CONFIG)
        ratio = np.sum(spec.data[f, :, 1] * spec.data[f, :, 0].conj()) / np.sum(
            np.abs(spec.data[f, :, 0]) ** 2
        )
        # window leakage slightly shrinks the magnitude; phase is the model
        assert abs(np.angle(ratio / h[1])) < 0.02
        assert abs(ratio) == pytest.approx(1.0, abs=0.05)

    def test_mirrored_pair_renders_the_mirrored_scene(self):
        mirrored, _ = simulate_mixture(self._scene((45.0, 100.0)), MIRRORED_PAIR, CONFIG)
        normal, _ = simulate_mixture(self._scene((135.0, 80.0)), PAIR, CONFIG)
        np.testing.assert_allclose(mirrored, normal, rtol=0.0, atol=1e-12)

    def test_rir_branch_convolves(self):
        n = 4000
        rng = np.random.default_rng(1)
        signals = rng.standard_normal((2, n))
        rirs = np.zeros((2, 2, 5))
        rirs[0, 0, 2] = 1.0   # source 1 -> mic 1: 2-sample delay
        rirs[0, 1, 0] = 0.5
        rirs[1, 0, 1] = 1.0
        rirs[1, 1, 3] = -0.25
        spec = SceneSpec(signals, (45.0, 135.0), np.inf, rirs=rirs)
        _, images = simulate_mixture(spec, PAIR, CONFIG)
        expected = np.convolve(signals[0], rirs[0, 0])[:n]
        np.testing.assert_allclose(images[0, :, 0], expected, atol=1e-12)

    def test_source_mic_count_mismatch_rejected(self):
        signals = np.zeros((3, 4000))
        spec = SceneSpec(signals, (10.0, 90.0, 170.0), np.inf)
        with pytest.raises(InvalidInputError):
            simulate_mixture(spec, PAIR, CONFIG)

    def test_invalid_scene_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            SceneSpec([np.zeros(100), np.zeros(50)], (45.0, 135.0))
        with pytest.raises(InvalidInputError):
            SceneSpec(np.zeros((2, 100)), (45.0, 135.0), snr_db=np.nan)
        with pytest.raises(InvalidInputError):
            SceneSpec(np.zeros((2, 100)), (45.0, 190.0))
        with pytest.raises(InvalidInputError, match=r"^DOA 200\.0 outside \[0, 180\] degrees$"):
            SceneSpec(np.zeros((2, 100)), (45.0, 200.0))


class TestSyntheticSources:
    def test_shapes_seeding_and_normalization(self):
        a = synthetic_sources(2, 1.0, 16000.0, seed=3)
        b = synthetic_sources(2, 1.0, 16000.0, seed=3)
        c = synthetic_sources(2, 1.0, 16000.0, seed=4)
        assert a.shape == (2, 16000)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_allclose(np.sqrt(np.mean(a**2, axis=1)), 1.0, atol=1e-12)

    def test_sources_are_super_gaussian(self):
        x = synthetic_sources(1, 2.0, 16000.0, seed=0)[0]
        kurtosis = np.mean(x**4) / np.mean(x**2) ** 2
        assert kurtosis > 3.5  # Gaussian would be 3

    @pytest.mark.parametrize("duration, n_samples", [(1e-5, 0), (0.0, 0), (-1.0, -16000)])
    def test_duration_without_samples_rejected(self, duration, n_samples):
        with pytest.raises(InvalidInputError) as err:
            synthetic_sources(2, duration, 16000.0)
        assert (f"duration {duration:g} s at 16000 Hz renders {n_samples} samples"
                in str(err.value))

    def test_one_sample_is_rendered(self):
        assert synthetic_sources(2, 0.6 / 16000.0, 16000.0).shape == (2, 1)


RATES = (8000, 16000, 22050, 44100, 48000)


class TestFiltersAgainstScipy:
    """The numpy filter design and IIR loop against scipy.signal, a test-only
    oracle: both must give scipy's floats exactly, not approximately."""

    @pytest.mark.parametrize("rate", RATES)
    def test_highpass_coefficients_equal_butter(self, rate):
        b, a = _butter_highpass2(150.0, rate)
        b_ref, a_ref = butter(2, 150.0 / (rate / 2.0), btype="high")
        np.testing.assert_array_equal(b, b_ref)
        np.testing.assert_array_equal(a, a_ref)
        assert b.dtype == a.dtype == np.float64

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_filtered_output_equals_lfilter(self, rate, seed):
        b, a = _butter_highpass2(150.0, rate)
        alpha = float(np.exp(-2.0 * np.pi * 600.0 / rate))
        noise = np.random.default_rng(seed).standard_normal(rate // 4)
        expected = lfilter(b, a, lfilter([1.0 - alpha], [1.0, -alpha], noise))
        np.testing.assert_array_equal(_tilt_highpass(noise, alpha, b, a), expected)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sources_equal_the_scipy_formulation(self, rate, seed):
        # synthetic_sources as written with scipy.signal before the port
        n = rate // 4
        segment = round(rate / 25.0)
        rng = np.random.default_rng(seed)
        alpha = np.exp(-2.0 * np.pi * 600.0 / rate)
        b, a = butter(2, 150.0 / (rate / 2.0), btype="high")
        expected = np.empty((2, n))
        for k in range(2):
            carrier = lfilter(b, a, lfilter([1.0 - alpha], [1.0, -alpha], rng.standard_normal(n)))
            nodes = 0.05 + np.abs(rng.standard_normal(n // segment + 2))
            x = carrier * np.interp(np.arange(n), np.arange(len(nodes)) * segment, nodes)
            expected[k] = x / np.sqrt(np.mean(x**2))
        np.testing.assert_array_equal(synthetic_sources(2, 0.25, rate, seed), expected)


class TestBandEdgeRejected:
    @pytest.mark.parametrize("rate", [300.0, 200.0, 0.0, -16000.0])
    def test_highpass_edge_at_or_above_nyquist(self, rate):
        with pytest.raises(InvalidInputError) as err:
            synthetic_sources(2, 1.0, rate)
        assert "150 Hz" in str(err.value)
        assert f"Nyquist frequency {rate / 2:g} Hz" in str(err.value)

    @pytest.mark.parametrize("edge", [0.0, -10.0])
    def test_nonpositive_edge(self, edge):
        with pytest.raises(InvalidInputError, match="Nyquist frequency 8000 Hz"):
            synthetic_sources(2, 1.0, 16000.0, band_hz=(edge, 600.0))
