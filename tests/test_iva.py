import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gciva.iva
from gciva import (
    ArrayGeometry,
    ComplexSpectrogram,
    CostOverflowError,
    DemixingStack,
    HermitianCache,
    InvalidInputError,
    PriorConfig,
    SceneSpec,
    SingularUpdateError,
    SourceModel,
    StftConfig,
    analyze,
    demix,
    demix_and_project,
    demixed_energies,
    evaluate_cost,
    gradient_update,
    penalty_gradient,
    prior_matrix,
    project_back,
    run_gradient_iva,
    run_informed_iva,
    simulate_mixture,
    steering_stack,
    synthetic_sources,
    update_constrained,
    update_unconstrained,
    weighted_covariance,
)

PAIR = ArrayGeometry.linear_pair(0.21)


def tiny_config(n_bins):
    if n_bins == 1:
        return StftConfig(window_length=1, hop=1)
    return StftConfig(window_length=2 * (n_bins - 1), hop=n_bins - 1)


def random_spec(rng, n_bins, n_frames, n_channels, scale=1.0):
    data = scale * (
        rng.standard_normal((n_bins, n_frames, n_channels))
        + 1j * rng.standard_normal((n_bins, n_frames, n_channels))
    )
    return ComplexSpectrogram(data, tiny_config(n_bins))


def random_hpd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a.conj().T @ a + 0.1 * np.eye(n)


def inv2(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def bins_last(matrices):
    return gciva.iva._bins_last(matrices)


def cache_energies(cache, matrices):
    # the loop's frame energies of an (F, K, K) stack
    return gciva.iva._cache_energies(cache, gciva.iva._form_coefficients(bins_last(matrices)))


def solve_rows(matrices, systems, channel, context=""):
    # the loop's row solve on (F, K, K) stacks: the new vectors w, (F, K)
    w = bins_last(matrices)
    with np.errstate(all="ignore"):
        gciva.iva._solve_rows(w, gciva.iva._cache_layout(systems), channel, context)
    return w[channel].T.conj()


def cache_layouts(matrices):
    # (F, C, K, K) Hermitian stacks -> the (C, K^2, F) cache layout of each
    return np.stack([gciva.iva._cache_layout(matrices[:, c])
                     for c in range(matrices.shape[1])])


def anechoic_scene(seed, doas=(45.0, 135.0), snr_db=20.0, duration=1.0,
                   window=512, sample_rate=16000.0):
    config = StftConfig(window_length=window, hop=window // 2, sample_rate=sample_rate)
    sources = synthetic_sources(2, duration, sample_rate, seed)
    scene = SceneSpec(sources, doas, snr_db, seed=seed)
    mixture, images = simulate_mixture(scene, PAIR, config)
    return analyze(mixture, config), images, config


class TestDemixedEnergies:
    def test_zero_spectrogram(self):
        spec = ComplexSpectrogram(np.zeros((4, 3, 2)), tiny_config(4))
        w = DemixingStack.identity(4, 2)
        np.testing.assert_array_equal(demixed_energies(spec, w, 0), np.zeros(3))

    def test_single_bin_is_magnitude(self):
        rng = np.random.default_rng(0)
        spec = random_spec(rng, 1, 5, 2)
        w = DemixingStack.identity(1, 2)
        np.testing.assert_allclose(
            demixed_energies(spec, w, 1), np.abs(spec.data[0, :, 1]), rtol=1e-12
        )

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        spec = random_spec(rng, 4, 3, 2)
        w = DemixingStack(
            rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        )
        for channel in range(2):
            expected = np.zeros(3)
            for n in range(3):
                acc = 0.0
                for f in range(4):
                    y = sum(w.matrices[f, channel, j] * spec.data[f, n, j] for j in range(2))
                    acc += abs(y) ** 2
                expected[n] = np.sqrt(acc)
            np.testing.assert_allclose(
                demixed_energies(spec, w, channel), expected, rtol=1e-12
            )

    def test_channel_out_of_range(self):
        spec = ComplexSpectrogram(np.zeros((2, 2, 2)), tiny_config(2))
        with pytest.raises(InvalidInputError):
            demixed_energies(spec, DemixingStack.identity(2, 2), 2)


class TestDemixLayout:
    @staticmethod
    def per_bin_loop(data, mats):
        # y[f, n] = W_f x[f, n], one bin and frame at a time
        out = np.empty(data.shape, dtype=complex)
        for f in range(data.shape[0]):
            for n in range(data.shape[1]):
                out[f, n] = mats[f] @ data[f, n]
        return out

    @pytest.mark.parametrize("n_ch", [2, 3])
    @pytest.mark.parametrize("strided", [False, True])
    def test_demix_and_energies_match_per_bin_loop(self, n_ch, strided):
        rng = np.random.default_rng(40 + n_ch)
        n_bins, n_frames = 5, 7
        full = rng.standard_normal((n_bins, 2 * n_frames, n_ch + 1)) + 1j * rng.standard_normal(
            (n_bins, 2 * n_frames, n_ch + 1))
        # every other frame and all but the last channel: a non-contiguous view
        data = full[:, ::2, :n_ch] if strided else np.ascontiguousarray(full[:, :n_frames, :n_ch])
        spec = ComplexSpectrogram(data, tiny_config(n_bins))
        assert spec.data.flags.c_contiguous != strided
        w = DemixingStack(rng.standard_normal((n_bins, n_ch, n_ch))
                          + 1j * rng.standard_normal((n_bins, n_ch, n_ch)))
        expected = self.per_bin_loop(data, w.matrices)
        demixed = demix(spec, w)
        assert demixed.data.shape == (n_bins, n_frames, n_ch)
        np.testing.assert_allclose(demixed.data, expected, rtol=1e-12)
        for channel in range(n_ch):
            np.testing.assert_allclose(demixed_energies(spec, w, channel),
                                       np.sqrt(np.sum(np.abs(expected[:, :, channel]) ** 2,
                                                      axis=0)), rtol=1e-12)


class TestWeightedCovariance:
    def test_single_frame(self):
        x = np.array([[1.0, 1.0j]])
        spec = ComplexSpectrogram(x[None], tiny_config(1))
        v = weighted_covariance(spec, np.array([2.0]), SourceModel(), 0)
        np.testing.assert_allclose(v, 0.5 * np.outer(x[0], x[0].conj()), rtol=1e-12)

    def test_constant_weight_factors_out(self):
        rng = np.random.default_rng(2)
        spec = random_spec(rng, 1, 6, 2)
        x = spec.data[0]
        c = 1.7
        v = weighted_covariance(spec, np.full(6, c), SourceModel(), 0)
        sample_cov = x.T @ x.conj() / 6
        np.testing.assert_allclose(v, sample_cov / c, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 2, 5, 2)
        energies = rng.uniform(0.5, 2.0, size=5)
        v = weighted_covariance(spec, energies, SourceModel(), 1)
        expected = np.zeros((2, 2), dtype=complex)
        for n in range(5):
            x = spec.data[1, n]
            expected += np.outer(x, x.conj()) / energies[n]
        expected /= 5
        np.testing.assert_allclose(v, expected, rtol=1e-12)

    def test_hermitian_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, 3, 10, 3)
        w = DemixingStack.identity(3, 3)
        energies = demixed_energies(spec, w, 0)
        for f in range(3):
            v = weighted_covariance(spec, energies, SourceModel(), f)
            norm = np.linalg.norm(v)
            assert np.max(np.abs(v - v.conj().T)) <= 1e-12 * norm
            assert np.linalg.eigvalsh(v).min() >= -1e-10 * norm


class TestPairProducts:
    @pytest.mark.parametrize("n_ch", [1, 2, 3])
    @pytest.mark.parametrize("re_scale, im_scale", [(1.0, 1.0), (2.0, -2.0)])
    def test_match_per_pair_formulas(self, n_ch, re_scale, im_scale):
        # |x_i|^2 per channel, then the scaled real and then imaginary parts
        # of x_i conj(x_j) per pair i < j, on a contiguous and a strided x
        rng = np.random.default_rng(90 + n_ch)
        wide = rng.standard_normal((5, n_ch, 14)) + 1j * rng.standard_normal((5, n_ch, 14))
        pairs = [(i, j) for i in range(n_ch) for j in range(i + 1, n_ch)]
        for x in (wide[..., :7].copy(), wide[..., ::2]):
            out = gciva.iva._pair_products(x, re_scale, im_scale)
            assert out.shape == (5, n_ch * n_ch, 7) and out.dtype == np.float64
            expected = np.empty(out.shape)
            for a in range(5):
                for f in range(7):
                    v = [complex(x[a, i, f]) for i in range(n_ch)]
                    products = [v[i] * v[j].conjugate() for i, j in pairs]
                    expected[a, :, f] = ([abs(c) ** 2 for c in v]
                                         + [re_scale * c.real for c in products]
                                         + [im_scale * c.imag for c in products])
            np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)

    def test_cache_build_holds_no_channel_sized_temporary(self):
        # beside the cache, the build holds one block of frames: its scratch
        # buffer and numpy's ufunc buffers, at most one block for each
        # operand of a three-operand ufunc. Any (N, F) array, such as one
        # channel pair's complex product over all frames, would be more
        rng = np.random.default_rng(95)
        n_bins, n_frames, n_ch = 513, 78, 6
        shape = (n_bins, n_frames, n_ch)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = gciva.iva._BLOCK_FRAMES * n_bins * 8
        bound = 4 * block + 16 * 1024
        assert bound < n_frames * n_bins * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cache = gciva.iva._hermitian_cache(data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - cache.nbytes <= bound


class TestHermitianCache:
    """The cache's bits do not depend on how its frames are blocked or laid
    out, nor on whether it is built from a signal or from its spectrogram."""

    @pytest.mark.parametrize("n_ch", [1, 2, 3])
    def test_any_blocking_gives_the_same_bits(self, n_ch):
        rng = np.random.default_rng(40 + n_ch)
        config = StftConfig(window_length=64, hop=23)
        signal = rng.standard_normal((64 + 76 * 23 + 5, n_ch))  # 78 frames, a padded tail
        spec = analyze(signal, config)
        n_bins, n_frames, _ = spec.data.shape
        noise = rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(spec.data.shape)
        for data in (spec.data, noise):
            cache = HermitianCache.from_spectrogram(ComplexSpectrogram(data, config)).data
            assert cache.shape == (n_frames, n_ch * n_ch, n_bins) and cache.flags.c_contiguous
            frames = data.transpose(1, 2, 0)
            for size in (1, 3, 8, 37):
                blocks = ((lo, frames[lo : lo + size]) for lo in range(0, n_frames, size))
                built = gciva.iva._cache_of_blocks(n_frames, n_ch, n_bins, blocks)
                assert np.array_equal(built, cache)
            whole = gciva.iva._cache_of_blocks(n_frames, n_ch, n_bins,
                                               [(0, np.ascontiguousarray(frames))])
            assert np.array_equal(whole, cache)
        from_signal = HermitianCache.from_signal(signal, config)
        assert np.array_equal(from_signal.data,
                              HermitianCache.from_spectrogram(spec).data)
        assert from_signal.config == config and from_signal.n_channels == n_ch

    @pytest.mark.parametrize("algorithm", ["aux", "gc-aux", "gc-grad"])
    def test_solvers_given_the_cache_return_the_spectrograms_results(self, algorithm):
        spec, _, config = anechoic_scene(12, duration=0.5, window=128)
        cache = HermitianCache.from_spectrogram(spec)
        if algorithm == "gc-grad":
            runs = [run_gradient_iva(data, (0,), (45.0,), PAIR, SourceModel(), 4)
                    for data in (spec, cache)]
        else:
            prior = (PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
                     if algorithm == "gc-aux" else None)
            runs = [run_informed_iva(data, prior, SourceModel(), 4) for data in (spec, cache)]
        (stack, demixed, trace), (cache_stack, nothing, cache_trace) = runs
        assert nothing is None
        np.testing.assert_array_equal(cache_stack.matrices, stack.matrices)
        np.testing.assert_array_equal(demixed.data, demix(spec, stack).data)
        np.testing.assert_array_equal(cache_trace.j_iva, trace.j_iva)
        np.testing.assert_array_equal(cache_trace.j_prior, trace.j_prior)


class TestRankCheck:
    @pytest.mark.parametrize("n_ch", [2, 3])
    @pytest.mark.parametrize("algorithm", ["aux", "gc-aux", "gc-grad"])
    def test_copied_channels_rejected_before_the_first_iteration(self, n_ch, algorithm):
        # one channel scaled and copied to all makes every bin's covariance
        # rank one; no iteration runs
        rng = np.random.default_rng(60 + n_ch)
        spec = random_spec(rng, 5, 12, 1)
        copies = ComplexSpectrogram(spec.data * np.array([1.0, -0.5, 2.0j])[:n_ch],
                                    spec.config)
        done = []
        with pytest.raises(SingularUpdateError,
                           match=rf"^{algorithm} input is rank deficient: its channels are "
                                 rf"linearly dependent in 5 of the 5 bins with power$"):
            geometry = ArrayGeometry.linear_pair(0.21) if n_ch == 2 else ArrayGeometry(
                [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
            if algorithm == "gc-grad":
                run_gradient_iva(copies, (0,), (45.0,), geometry, SourceModel(), 3,
                                 callback=lambda l, w: done.append(l))
            else:
                prior = (PriorConfig.constant((0,), (135.0,), geometry, 5)
                         if algorithm == "gc-aux" else None)
                run_informed_iva(copies, prior, SourceModel(), 3,
                                 callback=lambda l, w: done.append(l))
        assert done == []

    def test_half_the_powered_bins_is_not_enough(self):
        # two bins are copies and one holds no power, which is not counted:
        # 2 of the 3 bins with power are dependent, so the check fires; with
        # two independent bins, 2 of 4 are not more than half
        rng = np.random.default_rng(63)
        data = rng.standard_normal((5, 12, 2)) + 1j * rng.standard_normal((5, 12, 2))
        data[:2, :, 1] = 3.0 * data[:2, :, 0]
        data[4] = 0.0
        spec = ComplexSpectrogram(data[[0, 1, 2, 4]].copy(), tiny_config(4))
        with pytest.raises(SingularUpdateError, match="in 2 of the 3 bins with power"):
            run_informed_iva(spec, None, SourceModel(), 1)
        stack, _, _ = run_informed_iva(ComplexSpectrogram(data[:4].copy(), tiny_config(4)),
                                       None, SourceModel(), 1)
        assert np.all(np.isfinite(stack.matrices))

    @staticmethod
    def solve(algorithm, data, iterations=2):
        if algorithm == "gc-grad":
            return run_gradient_iva(data, (0,), (45.0,), PAIR, SourceModel(), iterations)
        prior = (PriorConfig.constant((0,), (135.0,), PAIR, data.n_bins)
                 if algorithm == "gc-aux" else None)
        return run_informed_iva(data, prior, SourceModel(), iterations)

    @pytest.mark.parametrize("algorithm", ["aux", "gc-aux", "gc-grad"])
    def test_one_loud_frame_is_not_rank_deficient(self, algorithm):
        # two samples of unit noise made 1e15 and 1e11 dominate the plain
        # frame sum, whose every bin then reads as dependent; each frame's
        # covariance over its trace weighs every frame alike, and copies of
        # one channel still read as dependent
        x = np.random.default_rng(65).standard_normal((4096, 2))
        x[5, 0], x[7, 1] = 1.36e15, -4.45e11
        cache = HermitianCache.from_signal(x, StftConfig())
        stack, _, trace = self.solve(algorithm, cache)
        assert np.all(np.isfinite(trace.total))
        copies = HermitianCache.from_signal(x[:, [0, 0]], StftConfig())
        with pytest.raises(SingularUpdateError, match=(
                rf"^{algorithm} input is rank deficient: its channels are linearly "
                rf"dependent in 1025 of the 1025 bins with power$")):
            self.solve(algorithm, copies)

    @pytest.mark.parametrize("algorithm, n_frames, n_ch", [
        ("aux", 1, 2), ("gc-aux", 1, 2), ("gc-grad", 1, 2), ("aux", 2, 3)])
    def test_fewer_frames_than_channels_fail_before_solving(self, algorithm, n_frames, n_ch):
        # no bin's covariance has full rank, and the check says why
        spec = random_spec(np.random.default_rng(66), 5, n_frames, n_ch)
        with pytest.raises(SingularUpdateError, match=(
                rf"^{algorithm} input is too short: it has {n_frames} "
                rf"frames? for {n_ch} channels, and needs at least one per channel$")):
            self.solve(algorithm, spec)

    def test_a_silent_channel_is_left_to_the_solver(self):
        # no bin has power in both channels, so none is counted, and the
        # solve runs as before the check
        rng = np.random.default_rng(64)
        spec = random_spec(rng, 5, 12, 2)
        spec.data[:, :, 1] = 0.0
        _, _, trace = run_informed_iva(spec, None, SourceModel(), 2)
        assert np.all(np.isfinite(trace.total))


class TestCovarianceKernel:
    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_all_channels_match_loop_oracle(self, n_ch):
        rng = np.random.default_rng(20 + n_ch)
        spec = random_spec(rng, 4, 7, n_ch)
        weights = rng.uniform(0.2, 3.0, size=(7, n_ch))
        cache = gciva.iva._hermitian_cache(spec.data)
        assert cache.dtype == np.float64 and cache.shape == (7, n_ch * n_ch, 4)
        # a strided view of the same data gives the same cache
        strided = np.swapaxes(np.swapaxes(spec.data, 1, 2).copy(), 1, 2)
        np.testing.assert_array_equal(gciva.iva._hermitian_cache(strided), cache)
        assert cache.flags.c_contiguous  # else every GEMM copies the cache first
        v = gciva.iva._weighted_covariances(cache, weights)
        assert v.shape == (n_ch, n_ch * n_ch, 4)
        expected = np.zeros((4, n_ch, n_ch, n_ch), dtype=complex)
        for f in range(4):
            for c in range(n_ch):
                for n in range(7):
                    x = spec.data[f, n]
                    expected[f, c] += weights[n, c] * np.outer(x, x.conj())
        expected = cache_layouts(expected / 7)
        assert np.max(np.abs(v - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_cache_energies_match_loop_oracle(self, n_ch):
        rng = np.random.default_rng(40 + n_ch)
        spec = random_spec(rng, 4, 7, n_ch)
        w = rng.standard_normal((4, n_ch, n_ch)) + 1j * rng.standard_normal((4, n_ch, n_ch))
        cache = gciva.iva._hermitian_cache(spec.data)
        r = cache_energies(cache, w)
        assert r.shape == (7, n_ch)
        expected = np.zeros((7, n_ch))
        for n in range(7):
            for k in range(n_ch):
                expected[n, k] = np.sqrt(sum(abs(w[f, k] @ spec.data[f, n]) ** 2
                                             for f in range(4)))
        np.testing.assert_allclose(r, expected, rtol=1e-12)

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_gradient_score_matches_direct_formula(self, n_ch):
        rng = np.random.default_rng(30 + n_ch)
        spec = random_spec(rng, 4, 9, n_ch)
        w = rng.standard_normal((4, n_ch, n_ch)) + 1j * rng.standard_normal((4, n_ch, n_ch))
        y = np.einsum("fkj,fnj->fnk", w, spec.data)
        r = np.sqrt(np.sum(np.abs(y) ** 2, axis=0))
        phi = np.stack([SourceModel().weight(r[:, k]) for k in range(n_ch)], axis=1)
        expected = np.einsum("fnk,fnl->fkl", phi[None] * y, y.conj()) / 9
        cov = gciva.iva._weighted_covariances(gciva.iva._hermitian_cache(spec.data),
                                              SourceModel().weight(r))
        score = gciva.iva._score(bins_last(w), cov)
        score = score.transpose(2, 0, 1)
        assert np.max(np.abs(score - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_gradient_step_matches_matmul_formula(self, n_ch):
        # W + mu (I - W V W^H) W - mu grad_penalty with batched matmul, row k
        # of the score taken against channel k's covariance
        rng = np.random.default_rng(60 + n_ch)
        w = rng.standard_normal((5, n_ch, n_ch)) + 1j * rng.standard_normal((5, n_ch, n_ch))
        cov = np.stack([np.stack([random_hpd(rng, n_ch) for _ in range(n_ch)])
                        for _ in range(5)])
        h_field = {0: rng.standard_normal((5, n_ch)) + 1j * rng.standard_normal((5, n_ch))}
        stack, mu, weight = DemixingStack(w), 0.05, 0.5
        score = np.stack([np.stack([w[f, k] @ cov[f, k] @ w[f].conj().T
                                    for k in range(n_ch)]) for f in range(5)])
        expected = (w + mu * np.matmul(np.eye(n_ch) - score, w)
                    - mu * penalty_gradient(stack, h_field, weight))
        field = {0: h_field[0].T.copy()}
        step = gciva.iva._gradient_step(bins_last(w), cache_layouts(cov), field, mu, weight)
        step = step.transpose(2, 0, 1)
        assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_two_channel_closed_forms_match_lapack(self):
        # the K = 2 row solve and log|det| against batched LU on
        # well-conditioned stacks
        rng = np.random.default_rng(50)
        w = np.stack([np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                         + 1j * rng.standard_normal((2, 2)))
                      for _ in range(64)])
        m = np.stack([random_hpd(rng, 2) + np.eye(2) for _ in range(64)])
        assert np.max(np.linalg.cond(w @ m)) < 1e3
        for channel in range(2):
            u = gciva.iva._inverse_columns(bins_last(w), gciva.iva._cache_layout(m),
                                           channel).T
            expected = np.linalg.solve(w @ m, np.eye(2)[channel][None, :, None]
                                       .repeat(64, axis=0))[:, :, 0]
            np.testing.assert_allclose(u, expected, rtol=1e-12)
        np.testing.assert_allclose(gciva.iva._log_abs_det(bins_last(w)),
                                   np.linalg.slogdet(w)[1], rtol=1e-12, atol=1e-12)

    def test_three_channel_log_abs_det_matches_per_bin_slogdet(self):
        # K > 2 takes batched LU; an exactly singular bin gives -inf
        rng = np.random.default_rng(52)
        w = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
        w[4, 2] = 0.0
        logdet = gciva.iva._log_abs_det(bins_last(w))
        expected = [np.linalg.slogdet(w[f])[1] for f in range(6)]
        np.testing.assert_allclose(logdet, expected, rtol=1e-12, atol=1e-12)
        assert logdet[4] == -np.inf and np.all(np.isfinite(np.delete(logdet, 4)))

    def test_three_channel_singular_bin_comes_back_nan(self):
        # one exactly singular system makes the batched solve raise; the
        # other bins keep np.linalg.solve's answer
        rng = np.random.default_rng(53)
        w = np.eye(3) + 0.3 * (rng.standard_normal((5, 3, 3))
                               + 1j * rng.standard_normal((5, 3, 3)))
        m = np.stack([random_hpd(rng, 3) + np.eye(3) for _ in range(5)])
        m[2] = 0.0
        for channel in range(3):
            u = gciva.iva._inverse_columns(bins_last(w), gciva.iva._cache_layout(m),
                                           channel).T
            assert np.all(np.isnan(u[2]))
            ok = [0, 1, 3, 4]
            expected = np.linalg.solve((w @ m)[ok], np.eye(3)[channel][None, :, None]
                                       .repeat(4, axis=0))[:, :, 0]
            np.testing.assert_allclose(u[ok], expected, rtol=1e-12)

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_hermitian_form_matches_per_bin_loop(self, n_ch):
        # the form coefficients of rows a = u^H against a Hermitian stack in
        # the cache layout give u^H M u
        rng = np.random.default_rng(70 + n_ch)
        m = np.stack([random_hpd(rng, n_ch) - 2.0 * np.eye(n_ch) for _ in range(6)])
        m = 0.5 * (m + m.conj().transpose(0, 2, 1))  # exactly Hermitian, indefinite
        u = rng.standard_normal((6, n_ch)) + 1j * rng.standard_normal((6, n_ch))
        h = gciva.iva._cache_layout(m)
        assert h.shape == (n_ch * n_ch, 6)
        form = np.einsum("rf,rf->f", gciva.iva._form_coefficients(u.conj().T), h)
        expected = np.array([np.real(u[f].conj() @ m[f] @ u[f]) for f in range(6)])
        assert np.max(np.abs(form - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_residual_matches_per_bin_loop(self, n_ch):
        # w^H h - 1 per bin, for (K, F) rows w^H
        rng = np.random.default_rng(80 + n_ch)
        w = rng.standard_normal((5, n_ch, n_ch)) + 1j * rng.standard_normal((5, n_ch, n_ch))
        h = rng.standard_normal((5, n_ch)) + 1j * rng.standard_normal((5, n_ch))
        residual = gciva.iva._residual(bins_last(w)[1], h.T.copy())
        expected = np.array([w[f, 1] @ h[f] - 1.0 for f in range(5)])
        np.testing.assert_allclose(residual, expected, rtol=1e-12)

    def test_nulled_frame_energy_clamped_at_zero(self):
        # row 0 cancels the frame exactly in every bin (w^H x = x1 x0 - x0 x1),
        # so its quadratic form is 0 up to rounding of either sign
        rng = np.random.default_rng(51)
        for _ in range(40):
            x = rng.standard_normal((3, 1, 2)) + 1j * rng.standard_normal((3, 1, 2))
            w = np.zeros((3, 2, 2), dtype=complex)
            w[:, 0, 0], w[:, 0, 1], w[:, 1, 1] = x[:, 0, 1], -x[:, 0, 0], 1.0
            with np.errstate(invalid="raise"):
                r = cache_energies(gciva.iva._hermitian_cache(x), w)
            scale = np.sqrt(np.sum(np.sum(np.abs(w[:, 0]) ** 2, axis=1)
                                   * np.sum(np.abs(x[:, 0]) ** 2, axis=1)))
            assert 0.0 <= r[0, 0] <= 1e-7 * scale

    def test_silent_frames_keep_cache_energies_exact_and_trace_monotone(self):
        # frames of exact silence and of one source alone, where the
        # quadratic form cancels most: the cache energies stay within rounding
        # of the direct demix and never go negative
        config = StftConfig(window_length=256, hop=128)
        sources = synthetic_sources(2, 0.6, 16000.0, 9)
        sources[:, 2000:4000] = 0.0
        sources[1, 6000:8000] = 0.0
        mixture, _ = simulate_mixture(SceneSpec(sources, (45.0, 135.0), np.inf, seed=9),
                                      PAIR, config)
        spec = analyze(mixture, config)
        x_norms = np.sum(np.abs(spec.data) ** 2, axis=2)  # (F, N) ||x_fn||^2
        assert np.any(np.all(x_norms == 0.0, axis=0))  # some frames are silent
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        snaps = [DemixingStack.identity(config.n_bins, 2)]
        _, _, trace = run_informed_iva(spec, prior, SourceModel(), 15,
                                       callback=lambda l, w: snaps.append(w))
        total = trace.total
        assert np.all(np.diff(total) <= 1e-8 * np.abs(total[:-1]))
        cache = gciva.iva._hermitian_cache(spec.data)
        eps = np.finfo(np.float64).eps
        for w in snaps:
            r = cache_energies(cache, w.matrices)
            assert np.all(r >= 0.0)
            w_norms = np.sum(np.abs(w.matrices) ** 2, axis=2)  # (F, K) ||w_fk||^2
            bound = eps * (w_norms.T @ x_norms).T  # (N, K)
            for k in range(2):
                direct = demixed_energies(spec, w, k) ** 2
                assert np.all(np.abs(r[:, k] ** 2 - direct) <= 16 * bound[:, k])


class TestPriorMatrix:
    def test_rank_one_spectrum(self):
        h = np.exp(1j * np.array([0.0, 0.4]))
        d = prior_matrix(h, 1.0, 0.0)
        eig = np.sort(np.linalg.eigvalsh(d))
        np.testing.assert_allclose(eig, [0.0, 2.0], atol=1e-12)

    def test_reference_operating_point(self):
        # sigma2 = 40 with Tikhonov weight 1e-3
        h = np.exp(1j * np.array([0.2, -0.7]))
        d = prior_matrix(h, 40.0, 1e-3)
        eig = np.sort(np.linalg.eigvalsh(d))
        assert eig[0] == pytest.approx(1e-3 / 40.0, rel=1e-12)
        assert eig[1] == pytest.approx((1e-3 + 2.0) / 40.0, rel=1e-12)
        assert np.trace(d).real == pytest.approx((1e-3 * 2 + 2) / 40.0, rel=1e-12)

    def test_hand_expanded_example(self):
        d = prior_matrix(np.ones(2, dtype=complex), 2.0, 1.0)
        np.testing.assert_allclose(d, np.array([[1.0, 0.5], [0.5, 1.0]]), atol=1e-15)

    def test_invalid_sigma2(self):
        with pytest.raises(InvalidInputError):
            prior_matrix(np.ones(2), 0.0, 1e-3)

    def test_sigma2_that_overflows_the_prior_is_rejected(self):
        # (lambda_e + |h|^2) / sigma2 must be finite, for the prior matrix of
        # one bin and for the prior config's steering vectors alike
        message = r"^sigma2 1e-320 overflows the prior matrix \(lambda_e I \+ h h\^H\) / sigma2$"
        with pytest.raises(InvalidInputError, match=message):
            prior_matrix(np.ones(2), 1e-320, 1e-3)
        with pytest.raises(InvalidInputError, match=message):
            PriorConfig.constant((0,), (45.0,), PAIR, 3, sigma2=1e-320)
        with pytest.raises(InvalidInputError, match=r"^sigma2 1e-300 overflows"):
            prior_matrix(np.full(2, 1e5), 1e-300, 0.0)
        assert np.all(np.isfinite(prior_matrix(np.ones(2), 1e-300, 1e-3)))
        PriorConfig.constant((0,), (45.0,), PAIR, 3, sigma2=1e-300)


class TestUpdateUnconstrained:
    def test_scalar_case(self):
        w0 = 0.3 - 1.2j
        v = np.array([[2.5 + 0j]])
        w = DemixingStack(np.array([[[w0]]]))
        vec = update_unconstrained(w, v, 0, 0)
        expected = (w0.conjugate() / abs(w0)) / np.sqrt(2.5)
        assert vec[0] == pytest.approx(expected, rel=1e-12)
        assert np.real(vec.conj() @ v @ vec) == pytest.approx(1.0, abs=1e-10)

    def test_identity_fixed_point(self):
        w = DemixingStack.identity(1, 2)
        vec = update_unconstrained(w, np.eye(2, dtype=complex), 0, 1)
        np.testing.assert_array_equal(vec, np.array([0, 1], dtype=complex))
        np.testing.assert_array_equal(w.matrices[0], np.eye(2))

    def test_matches_two_by_two_inverse_oracle(self):
        rng = np.random.default_rng(5)
        for k in range(2):
            v = random_hpd(rng, 2)
            w = DemixingStack.identity(1, 2)
            vec = update_unconstrained(w, v, 0, k)
            pre = inv2(np.eye(2) @ v)[:, k]
            expected = pre / np.sqrt(np.real(pre.conj() @ v @ pre))
            np.testing.assert_allclose(vec, expected, rtol=1e-12)
            assert np.real(vec.conj() @ v @ vec) == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_array_equal(w.matrices[0, k, :], vec.conj())

    def test_normalization_postcondition_random_sweep(self):
        rng = np.random.default_rng(6)
        w = DemixingStack(
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        )
        for f in range(3):
            for k in range(2):
                v = random_hpd(rng, 2)
                vec = update_unconstrained(w, v, f, k)
                assert np.real(vec.conj() @ v @ vec) == pytest.approx(1.0, abs=1e-10)

    def test_zero_covariance_raises_singular(self):
        w = DemixingStack.identity(1, 2)
        with pytest.raises(SingularUpdateError):
            update_unconstrained(w, np.zeros((2, 2), dtype=complex), 0, 0)

    def test_singular_bins_retried_with_diagonal_load(self):
        rng = np.random.default_rng(12)
        matrices = np.stack([random_hpd(rng, 2) for _ in range(4)])
        systems = np.stack([random_hpd(rng, 2) for _ in range(4)])
        systems[1] = np.ones((2, 2))  # rank one: det(W M) is exactly zero
        regular = solve_rows(matrices[[0, 2, 3]], systems[[0, 2, 3]], 1)
        rows = solve_rows(matrices, systems, 1)
        # the regular bins are untouched by the retry
        np.testing.assert_array_equal(rows[[0, 2, 3]], regular)
        loaded = systems[1] + 1e-10 * np.eye(2)  # trace 2, over two channels
        expected = np.linalg.solve(matrices[1] @ loaded, [0.0, 1.0])
        expected /= np.sqrt(np.real(expected.conj() @ loaded @ expected))
        # the loaded system's condition number is about 2e10, so w^H M w
        # cancels to about 1e-6 relative in either summation order
        np.testing.assert_allclose(rows[1], expected, rtol=1e-5)
        systems[2] = 0.0  # no load helps a zero system
        with pytest.raises(SingularUpdateError, match="bin 2, channel 1, iteration 5"):
            solve_rows(matrices, systems, 1, context=", iteration 5")


    @pytest.mark.parametrize("bad_value", [np.inf, np.nan])
    def test_non_finite_column_is_retried(self, monkeypatch, bad_value):
        # a non-finite solution makes w^H M w non-finite, so the form alone
        # flags the bin for the loaded retry
        rng = np.random.default_rng(13)
        matrices = np.stack([np.eye(2) + 0.2 * random_hpd(rng, 2) for _ in range(4)])
        systems = np.stack([random_hpd(rng, 2) for _ in range(4)])
        solved = []
        original = gciva.iva._inverse_columns

        def flaky(w, m, channel):
            u = original(w, m, channel)
            if not solved:
                u[0, 2] = bad_value  # bin 2's first entry
            solved.append(u.shape[1])
            return u

        monkeypatch.setattr(gciva.iva, "_inverse_columns", flaky)
        rows = solve_rows(matrices, systems, 0)
        assert solved == [4, 1]  # all bins, then bin 2 alone
        assert np.all(np.isfinite(rows))
        loaded = systems[2] + 1e-10 * np.trace(systems[2]).real / 2 * np.eye(2)
        assert np.real(rows[2].conj() @ loaded @ rows[2]) == pytest.approx(1.0, rel=1e-12)


class TestUpdateConstrained:
    def test_vanishing_prior_matches_unconstrained(self):
        rng = np.random.default_rng(7)
        v = random_hpd(rng, 2)
        h = np.exp(1j * rng.uniform(size=2))
        d = prior_matrix(h, 1e12, 1e-3)
        w1 = DemixingStack.identity(1, 2)
        w2 = DemixingStack.identity(1, 2)
        vec_con = update_constrained(w1, v, d, 0, 0)
        vec_unc = update_unconstrained(w2, v, 0, 0)
        np.testing.assert_allclose(vec_con, vec_unc, atol=1e-5)

    def test_prior_only_system(self):
        h = np.exp(1j * np.array([0.0, -0.3]))
        d = prior_matrix(h, 1.0, 0.5)
        w = DemixingStack.identity(1, 2)
        vec = update_constrained(w, np.zeros((2, 2), dtype=complex), d, 0, 1)
        # the returned vector solves D w = beta e_k up to normalization
        image = d @ vec
        assert abs(image[0]) <= 1e-12 * np.linalg.norm(image)
        assert np.real(vec.conj() @ d @ vec) == pytest.approx(1.0, abs=1e-10)

    def test_matches_two_by_two_inverse_oracle(self):
        rng = np.random.default_rng(8)
        v = random_hpd(rng, 2)
        h = np.exp(1j * rng.uniform(size=2))
        d = prior_matrix(h, 40.0, 1e-3)
        start = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
        w = DemixingStack(start.copy())
        vec = update_constrained(w, v, d, 0, 0)
        m = v + d
        pre = inv2(start[0] @ m)[:, 0]
        expected = pre / np.sqrt(np.real(pre.conj() @ m @ pre))
        np.testing.assert_allclose(vec, expected, rtol=1e-10)
        assert np.real(vec.conj() @ m @ vec) == pytest.approx(1.0, abs=1e-10)


class TestOracleInputs:
    """The per-bin oracles take array-likes and reject a misshapen or
    non-finite array with an InvalidInputError that names it."""

    CASES = ("nan-covariance", "nan-covariance-unconstrained", "inf-prior-matrix",
             "short-list-covariance", "short-list-covariance-unconstrained",
             "short-list-prior-matrix", "ragged-list-covariance", "nan-steering-vector",
             "inf-steering-vector", "ragged-steering-vector", "nan-energies", "inf-energies")

    @pytest.mark.parametrize("case", CASES)
    def test_bad_input_rejected(self, case):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 2, 4, 2)
        w = DemixingStack.identity(2, 2)
        v, d = random_hpd(rng, 2), prior_matrix(np.ones(2), 40.0, 1e-3)
        bad_v = v.copy()
        bad_v[0, 1] = np.nan
        energies = np.ones(4)
        energies[2] = np.nan if case.startswith("nan") else np.inf
        non_finite = "{} contains non-finite entries".format
        calls = {
            "nan-covariance": (lambda: update_constrained(w, bad_v, d, 0, 0),
                               non_finite("covariance")),
            "nan-covariance-unconstrained": (lambda: update_unconstrained(w, bad_v, 0, 0),
                                             non_finite("covariance")),
            "inf-prior-matrix": (lambda: update_constrained(
                w, v, np.where(np.eye(2), np.inf, d), 0, 0), non_finite("prior matrix")),
            "short-list-covariance": (lambda: update_constrained(w, [[1.0, 0.0]], d, 0, 0),
                                      "covariance must be K x K"),
            "short-list-covariance-unconstrained": (
                lambda: update_unconstrained(w, [[1.0, 0.0]], 0, 0), "covariance must be K x K"),
            "short-list-prior-matrix": (lambda: update_constrained(w, v, [[1.0, 0.0]], 0, 0),
                                        "prior matrix shape must match covariance"),
            "ragged-list-covariance": (lambda: update_constrained(w, [[1.0, 0.0], [1.0]], d, 0, 0),
                                       "covariance is not a numeric array"),
            "nan-steering-vector": (lambda: prior_matrix([1.0, np.nan], 40.0, 1e-3),
                                    non_finite("steering vector")),
            "inf-steering-vector": (lambda: prior_matrix([1.0, 1j * np.inf], 40.0, 1e-3),
                                    non_finite("steering vector")),
            "ragged-steering-vector": (lambda: prior_matrix([1.0, [1.0]], 40.0, 1e-3),
                                       "steering vector is not a numeric array"),
            "nan-energies": (lambda: weighted_covariance(spec, energies, SourceModel(), 0),
                             non_finite("energy vector")),
            "inf-energies": (lambda: weighted_covariance(spec, energies, SourceModel(), 0),
                             non_finite("energy vector")),
        }
        call, message = calls[case]
        with pytest.raises(InvalidInputError, match=message):
            call()
        np.testing.assert_array_equal(w.matrices, DemixingStack.identity(2, 2).matrices)

    def test_lists_give_the_arrays_results(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng, 2, 4, 2)
        v, h = random_hpd(rng, 2), np.exp(1j * rng.uniform(size=2))
        d = prior_matrix(h, 40.0, 1e-3)
        np.testing.assert_array_equal(prior_matrix(h.tolist(), 40.0, 1e-3), d)
        energies = rng.uniform(0.5, 2.0, size=4)
        np.testing.assert_array_equal(
            weighted_covariance(spec, energies.tolist(), SourceModel(), 1),
            weighted_covariance(spec, energies, SourceModel(), 1))
        for update, args in ((update_constrained, (v, d)), (update_unconstrained, (v,))):
            w, w_list = DemixingStack.identity(1, 2), DemixingStack.identity(1, 2)
            vec = update(w, *args, 0, 1)
            vec_list = update(w_list, *(a.tolist() for a in args), 0, 1)
            np.testing.assert_array_equal(vec_list, vec)
            np.testing.assert_array_equal(w_list.matrices, w.matrices)


class TestPenaltyGradient:
    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_bad_constraint_weight_rejected(self, weight):
        w = DemixingStack.identity(3, 2)
        with pytest.raises(InvalidInputError) as err:
            penalty_gradient(w, {0: np.ones((3, 2))}, weight)
        assert str(err.value) == f"constraint_weight {weight} outside [0, inf)"

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(9)
        n_bins, n_ch = 2, 2
        w = DemixingStack(
            rng.standard_normal((n_bins, n_ch, n_ch))
            + 1j * rng.standard_normal((n_bins, n_ch, n_ch))
        )
        h = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n_bins, n_ch)))
        gamma = 0.7
        field = {0: h}

        def penalty(mats):
            total = 0.0
            for f in range(n_bins):
                total += gamma * abs(mats[f, 0, :] @ h[f] - 1.0) ** 2
            return total

        grad = penalty_gradient(w, field, gamma)
        eps = 1e-6
        for f in range(n_bins):
            for i in range(n_ch):
                for j in range(n_ch):
                    for direction in (1.0, 1.0j):
                        bumped = w.matrices.copy()
                        bumped[f, i, j] += eps * direction
                        dipped = w.matrices.copy()
                        dipped[f, i, j] -= eps * direction
                        fd = (penalty(bumped) - penalty(dipped)) / (2 * eps)
                        part = grad[f, i, j].real if direction == 1.0 else grad[f, i, j].imag
                        assert part == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestSteeringField:
    """penalty_gradient and gradient_update take a steering field of
    array-likes and reject a non-finite one by channel."""

    @staticmethod
    def entry_points(rng):
        spec = random_spec(rng, 3, 6, 2)
        w = DemixingStack(np.eye(2) + 0.3 * (rng.standard_normal((3, 2, 2))
                                             + 1j * rng.standard_normal((3, 2, 2))))
        return {
            "penalty_gradient": lambda field: penalty_gradient(w, field, 0.5),
            "gradient_update":
                lambda field: gradient_update(w, spec, SourceModel(), field, 0.05, 0.5).matrices,
        }

    @pytest.mark.parametrize("entry", ["penalty_gradient", "gradient_update"])
    def test_list_field_gives_the_arrays_result(self, entry):
        rng = np.random.default_rng(16)
        call = self.entry_points(rng)[entry]
        h = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 2)))
        np.testing.assert_array_equal(call({1: h.tolist()}), call({1: h}))

    @pytest.mark.parametrize("entry", ["penalty_gradient", "gradient_update"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "ragged"])
    def test_bad_field_rejected_by_name(self, entry, bad):
        rng = np.random.default_rng(17)
        call = self.entry_points(rng)[entry]
        h = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 2)))
        if bad == "ragged":
            h, message = [[1.0, 1.0], [1.0], [1.0, 1.0]], "is not a numeric array"
        else:
            h[1, 0], message = bad, "contains non-finite entries"
        with pytest.raises(InvalidInputError, match=f"steering field of channel 1 {message}"):
            call({0: np.ones((3, 2)), 1: h})


class TestGradientUpdate:
    def test_zero_stepsize_is_bitwise_identity(self):
        rng = np.random.default_rng(10)
        spec = random_spec(rng, 2, 4, 2)
        w = DemixingStack(
            rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        )
        out = gradient_update(w, spec, SourceModel(), {}, 0.0, 0.5)
        np.testing.assert_array_equal(out.matrices, w.matrices)

    def test_natural_gradient_fixed_point(self):
        # unit-modulus frames with orthogonal phase patterns give
        # E{phi(y) y^H} = I exactly, so the update vanishes
        data = np.empty((1, 4, 2), dtype=complex)
        data[0, :, 0] = 1.0
        data[0, :, 1] = 1.0j ** np.arange(4)
        spec = ComplexSpectrogram(data, tiny_config(1))
        w = DemixingStack.identity(1, 2)
        out = gradient_update(w, spec, SourceModel(), {}, 0.05, 0.0)
        np.testing.assert_array_equal(out.matrices, w.matrices)

    def test_penalty_moves_toward_unit_response(self):
        rng = np.random.default_rng(11)
        spec = random_spec(rng, 2, 8, 2)
        h = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(2, 2)))
        w = DemixingStack.identity(2, 2)
        field = {0: h}

        def residual(stack):
            return sum(
                abs(stack.matrices[f, 0, :] @ h[f] - 1.0) ** 2 for f in range(2)
            )

        out = gradient_update(w, spec, SourceModel(), field, 0.005, 10.0)
        assert residual(out) < residual(w)

    @pytest.mark.parametrize("iterations", [0, 1])
    @pytest.mark.parametrize("step, message", [
        ({"stepsize": -1.0}, "stepsize -1.0 outside [0, inf)"),
        ({"stepsize": np.nan}, "stepsize nan outside [0, inf)"),
        ({"constraint_weight": -2.0}, "constraint_weight -2.0 outside [0, inf)"),
    ], ids=["negative-stepsize", "nan-stepsize", "negative-weight"])
    def test_bad_step_parameters_rejected_before_any_step(self, iterations, step, message):
        spec = random_spec(np.random.default_rng(12), 3, 4, 2)
        with pytest.raises(InvalidInputError) as err:
            run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), iterations, **step)
        assert str(err.value) == message
        args = {"stepsize": 0.05, "constraint_weight": 0.5, **step}
        with pytest.raises(InvalidInputError) as err:
            gradient_update(DemixingStack.identity(3, 2), spec, SourceModel(), {},
                            args["stepsize"], args["constraint_weight"])
        assert str(err.value) == message


class TestEvaluateCost:
    def test_identity_demixing_no_prior(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, 3, 4, 2)
        w = DemixingStack.identity(3, 2)
        j_iva, j_prior = evaluate_cost(spec, w, SourceModel())
        r = np.sqrt(np.sum(np.abs(spec.data) ** 2, axis=0))
        assert j_prior == 0.0
        assert j_iva == pytest.approx(np.sum(np.mean(r, axis=0)), rel=1e-12)

    def test_phase_invariance(self):
        rng = np.random.default_rng(13)
        spec = random_spec(rng, 3, 4, 2)
        w = DemixingStack(
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        )
        prior = PriorConfig.constant((0,), (120.0,), PAIR, 3, sigma2=40.0)
        base = evaluate_cost(spec, w, SourceModel(), prior)
        rotated = w.copy()
        rotated.matrices[1] *= np.exp(1j * 0.9)
        after = evaluate_cost(spec, rotated, SourceModel(), prior)
        assert after[0] == pytest.approx(base[0], rel=1e-12)
        assert after[1] == pytest.approx(base[1], rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        spec = random_spec(rng, 3, 4, 2)
        config = spec.config
        w = DemixingStack(
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        )
        prior = PriorConfig.constant((1,), (60.0,), PAIR, 3, sigma2=5.0, lambda_e=0.2)
        j_iva, j_prior = evaluate_cost(spec, w, SourceModel(), prior)

        expected_iva = 0.0
        for k in range(2):
            acc = 0.0
            for n in range(4):
                energy = 0.0
                for f in range(3):
                    y = sum(w.matrices[f, k, j] * spec.data[f, n, j] for j in range(2))
                    energy += abs(y) ** 2
                acc += np.sqrt(energy)
            expected_iva += acc / 4
        for f in range(3):
            expected_iva -= 2.0 * np.log(abs(np.linalg.det(w.matrices[f])))
        assert j_iva == pytest.approx(expected_iva, rel=1e-10)

        dists = np.array([0.0, 0.21])  # PAIR's microphones on the x-axis
        expected_prior = 0.0
        for f in range(3):
            nu = config.bin_frequencies[f]
            h = np.exp(1j * 2 * np.pi * nu / 343.0 * dists * np.cos(np.deg2rad(60.0)))
            d = (0.2 * np.eye(2) + np.outer(h, h.conj())) / 5.0
            wk = w.matrices[f, 1, :].conj()
            expected_prior += np.real(wk.conj() @ d @ wk)
        assert j_prior == pytest.approx(expected_prior, rel=1e-10)

    def test_degenerate_determinant_raises(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng, 2, 3, 2)
        mats = np.stack([np.eye(2), 1e-200 * np.eye(2)]).astype(complex)
        with pytest.raises(CostOverflowError):
            evaluate_cost(spec, DemixingStack(mats), SourceModel())


class TestRunInformedIva:
    def test_zero_iterations(self):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 3, 4, 2)
        for stack, demixed, trace in (
                run_informed_iva(spec, None, SourceModel(), 0),
                run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 0)):
            np.testing.assert_array_equal(stack.matrices, DemixingStack.identity(3, 2).matrices)
            np.testing.assert_array_equal(demixed.data, spec.data)
            assert not np.shares_memory(demixed.data, spec.data)
            assert len(trace.j_iva) == 1

    def test_empty_prior_is_bitwise_plain_auxiva(self):
        spec, _, config = anechoic_scene(0, duration=0.5, window=128)
        prior = PriorConfig(
            (), (), np.full(config.n_bins, 40.0), 1e-3, PAIR
        )
        snaps_a, snaps_b = [], []
        run_informed_iva(spec, None, SourceModel(), 8,
                         callback=lambda l, w: snaps_a.append(w.matrices))
        run_informed_iva(spec, prior, SourceModel(), 8,
                         callback=lambda l, w: snaps_b.append(w.matrices))
        for a, b in zip(snaps_a, snaps_b):
            np.testing.assert_array_equal(a, b)

    def test_vanishing_prior_tracks_plain_trajectory(self):
        spec, _, config = anechoic_scene(1, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins,
                                     sigma2=1e12, lambda_e=0.0)
        snaps_plain, snaps_gc = [], []
        run_informed_iva(spec, None, SourceModel(), 20,
                         callback=lambda l, w: snaps_plain.append(w.matrices))
        run_informed_iva(spec, prior, SourceModel(), 20,
                         callback=lambda l, w: snaps_gc.append(w.matrices))
        for a, b in zip(snaps_plain, snaps_gc):
            dist = np.linalg.norm((a - b).reshape(a.shape[0], -1), axis=1).max()
            assert dist <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_total_cost_monotone(self, seed):
        spec, _, config = anechoic_scene(seed, duration=0.6, window=256)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        _, _, trace = run_informed_iva(spec, prior, SourceModel(), 25)
        total = trace.total
        assert np.all(np.diff(total) <= 1e-8 * np.abs(total[:-1]))

    def test_trace_lengths_and_initial_entry(self):
        spec, _, config = anechoic_scene(3, duration=0.5, window=128)
        _, _, trace = run_informed_iva(spec, None, SourceModel(), 5)
        assert len(trace.j_iva) == len(trace.j_prior) == 6
        assert np.all(trace.j_prior == 0.0)

    def test_stack_stays_invertible(self):
        spec, _, config = anechoic_scene(5, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        stack, _, _ = run_informed_iva(spec, prior, SourceModel(), 15)
        assert stack.min_abs_det() > 1e-12

    def test_constrained_channel_carries_intended_source(self):
        # null the second source's direction on the first output channel
        spec, images, config = anechoic_scene(
            4, doas=(45.0, 135.0), duration=2.0, window=1024
        )
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins,
                                     sigma2=40.0, lambda_e=1e-3)
        _, demixed, _ = run_informed_iva(spec, prior, SourceModel(), 100)

        def coherence(a, b):
            x = np.abs(a).ravel()
            y = np.abs(b).ravel()
            return float(x @ y / np.sqrt((x @ x) * (y @ y)))

        img_specs = [analyze(images[k][:, 0], config) for k in range(2)]
        out0 = demixed.data[:, :, 0]
        c_target = coherence(out0, img_specs[0].data[:, :, 0])
        c_interferer = coherence(out0, img_specs[1].data[:, :, 0])
        assert c_target > c_interferer

    def test_singular_update_carries_context(self):
        # bin 0 alone has no power, so the input is neither silent nor rank
        # deficient, and bin 0's update system is zero at the first update
        spec = random_spec(np.random.default_rng(45), 3, 6, 2)
        spec.data[0] = 0.0
        with pytest.raises(SingularUpdateError, match="bin 0, channel 0, iteration 1"):
            run_informed_iva(spec, None, SourceModel(), 2)

    @pytest.mark.parametrize("solver, n_ch", [
        ("aux", 1), ("aux", 2), ("aux", 3), ("gc-aux", 2), ("gc-grad", 2)])
    def test_silent_input_fails_before_solving(self, solver, n_ch):
        # an all-zero input has no update system to solve; each solver says
        # so by name, before any iteration, whatever its channel count
        spec = ComplexSpectrogram(np.zeros((3, 4, n_ch), dtype=complex), tiny_config(3))
        with pytest.raises(SingularUpdateError, match=(
                f"^{solver} input is silent: no channel has power in any of its 3 bins$")):
            if solver == "gc-grad":
                run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 2)
            else:
                prior = PriorConfig.constant((0,), (45.0,), PAIR, 3) if solver == "gc-aux" else None
                run_informed_iva(spec, prior, SourceModel(), 2)

    def test_negative_iterations_rejected(self):
        rng = np.random.default_rng(17)
        spec = random_spec(rng, 2, 3, 2)
        with pytest.raises(InvalidInputError):
            run_informed_iva(spec, None, SourceModel(), -1)


class TestSharedSolverLoop:
    def test_informed_trace_matches_evaluate_cost(self):
        spec, _, config = anechoic_scene(6, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        snaps = [DemixingStack.identity(config.n_bins, 2)]
        _, _, trace = run_informed_iva(spec, prior, SourceModel(), 6,
                                       callback=lambda l, w: snaps.append(w))
        assert len(snaps) == len(trace.j_iva) == 7
        for entry, w in enumerate(snaps):
            j_iva, j_prior = evaluate_cost(spec, w, SourceModel(), prior)
            assert trace.j_iva[entry] == pytest.approx(j_iva, rel=1e-12)
            assert trace.j_prior[entry] == pytest.approx(j_prior, rel=1e-12)

    def test_informed_prior_trace_matches_per_bin_oracle(self):
        # the trace's prior term against sum_f w_f^H D_f w_f, one bin at a time
        spec, _, config = anechoic_scene(11, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins,
                                     sigma2=40.0, lambda_e=1e-3)
        snaps = [DemixingStack.identity(config.n_bins, 2)]
        _, _, trace = run_informed_iva(spec, prior, SourceModel(), 6,
                                       callback=lambda l, w: snaps.append(w))
        h = steering_stack(135.0, PAIR, config)
        for entry, w in enumerate(snaps):
            expected = 0.0
            for f in range(config.n_bins):
                wk = w.matrices[f, 0].conj()  # the row is w^H
                expected += np.real(wk.conj() @ prior_matrix(h[f], 40.0, 1e-3) @ wk)
            assert trace.j_prior[entry] == pytest.approx(expected, rel=1e-12)

    def test_informed_prior_trace_matches_long_double_oracle(self):
        # the trace's prior term against sum_f (lambda ||w||^2 + |w^H h|^2) /
        # sigma2 in long double: the constrained row nearly nulls h, and only
        # a sum of nonnegative terms stays within a few rounding errors
        spec, _, config = anechoic_scene(11, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins,
                                     sigma2=40.0, lambda_e=1e-3)
        snaps = [DemixingStack.identity(config.n_bins, 2)]
        _, _, trace = run_informed_iva(spec, prior, SourceModel(), 30,
                                       callback=lambda l, w: snaps.append(w))
        h = steering_stack(135.0, PAIR, config).astype(np.clongdouble)
        for entry, w in enumerate(snaps):
            row = w.matrices[:, 0].astype(np.clongdouble)  # w^H per bin
            response = np.sum(row * h, axis=1)
            norm = np.sum(row.real**2 + row.imag**2, axis=1)
            terms = (np.longdouble(1e-3) * norm + response.real**2 + response.imag**2)
            expected = np.sum(terms / np.longdouble(40.0))
            assert abs(np.longdouble(trace.j_prior[entry]) - expected) <= 1e-15 * expected

    def test_gradient_trace_matches_evaluate_cost(self):
        spec, _, config = anechoic_scene(7, duration=0.5, window=128)
        h = steering_stack(45.0, PAIR, config)
        snaps = [DemixingStack.identity(config.n_bins, 2)]
        _, _, trace = run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 6,
                                       constraint_weight=0.5,
                                       callback=lambda l, w: snaps.append(w))
        assert len(snaps) == len(trace.j_iva) == 7
        for entry, w in enumerate(snaps):
            j_iva, _ = evaluate_cost(spec, w, SourceModel())
            assert trace.j_iva[entry] == pytest.approx(j_iva, rel=1e-12)
            residual = np.sum(w.matrices[:, 0, :] * h, axis=1) - 1.0
            penalty = 0.5 * np.sum(np.abs(residual) ** 2)
            assert trace.j_prior[entry] == pytest.approx(penalty, rel=1e-12)

    def test_one_demix_per_iteration_and_priors_built_once(self, monkeypatch):
        counts = Counter()

        def count(name):
            original = getattr(gciva.iva, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(gciva.iva, name, counted)

        for name in ("evaluate_cost", "_steering_field", "steering_stack", "_demix_data",
                     "_hermitian_cache"):
            count(name)
        spec, _, config = anechoic_scene(8, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        run_informed_iva(spec, prior, SourceModel(), 5)
        # the loop reads the cache; the output is demixed once, at the end
        assert dict(counts) == {"_steering_field": 1, "steering_stack": 1, "_demix_data": 1,
                                "_hermitian_cache": 1}
        counts.clear()
        run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 5)
        assert dict(counts) == {"_steering_field": 1, "steering_stack": 1, "_demix_data": 1,
                                "_hermitian_cache": 1}

    def test_diverging_gradient_fails_fast(self):
        # twice the level of the default 5 s scene drives the natural-gradient
        # step to overflow; the solve stops at the first non-finite cost
        config = StftConfig(2048, 1024, 16000.0)
        sources = synthetic_sources(2, 5.0, 16000.0, 0)
        mixture, _ = simulate_mixture(SceneSpec(sources, (45.0, 135.0), 20.0, seed=0),
                                      PAIR, config)
        spec = analyze(2.0 * mixture, config)
        done = []
        with pytest.raises(CostOverflowError, match=r"gc-grad cost is not finite at iteration"):
            run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 350,
                             callback=lambda l, w: done.append(l))
        assert len(done) < 50

    @pytest.mark.parametrize("algorithm", ["aux", "gc-aux", "gc-grad"])
    def test_overflowing_data_fails_at_iteration_zero(self, algorithm):
        # |x|^2 of a 1e200-level spectrogram overflows in the Hermitian cache;
        # the loop reports it as a non-finite cost, without a numpy warning
        spec, _, config = anechoic_scene(10, duration=0.5, window=128)
        spec = ComplexSpectrogram(1e200 * spec.data, config)
        with pytest.raises(CostOverflowError, match="cost is not finite at iteration 0"):
            if algorithm == "gc-grad":
                run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 3)
            else:
                prior = (PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
                         if algorithm == "gc-aux" else None)
                run_informed_iva(spec, prior, SourceModel(), 3)


class TestThreeMicrophones:
    LINE = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]]))

    @pytest.mark.parametrize("constrained", [False, True], ids=["aux", "gc-aux"])
    def test_total_cost_monotone(self, constrained):
        # K = 3 runs the batched-LU row solve and log|det| inside the loop
        config = StftConfig(512, 256)
        sources = synthetic_sources(3, 2.0, config.sample_rate, 0)
        mixture, _ = simulate_mixture(SceneSpec(sources, (30.0, 90.0, 150.0), 20.0, seed=0),
                                      self.LINE, config)
        spec = analyze(mixture, config)
        prior = (PriorConfig.constant((0,), (90.0,), self.LINE, config.n_bins)
                 if constrained else None)
        stack, _, trace = run_informed_iva(spec, prior, SourceModel(), 30)
        assert stack.n_channels == 3
        total = trace.total
        assert np.all(np.diff(total) <= 1e-8 * np.abs(total[:-1]))


class TestProjectBack:
    def test_oracle_demixer_recovers_reference_images(self):
        rng = np.random.default_rng(18)
        n_bins, n_frames = 3, 5
        mixing = rng.standard_normal((n_bins, 2, 2)) + 1j * rng.standard_normal((n_bins, 2, 2))
        mixing += 2.0 * np.eye(2)
        sources = rng.standard_normal((n_bins, n_frames, 2)) + 1j * rng.standard_normal(
            (n_bins, n_frames, 2)
        )
        mixed = np.einsum("fij,fnj->fni", mixing, sources)
        spec = ComplexSpectrogram(mixed, tiny_config(n_bins))
        w = DemixingStack(np.linalg.inv(mixing))
        projected = project_back(demix(spec, w), w, reference=0)
        expected = np.einsum("fj,fnj->fnj", mixing[:, 0, :], sources)
        np.testing.assert_allclose(projected.data, expected, rtol=1e-9, atol=1e-12)

    def test_row_scaling_cancels(self):
        rng = np.random.default_rng(19)
        spec = random_spec(rng, 3, 4, 2)
        w = DemixingStack(
            rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        )
        base = project_back(demix(spec, w), w, reference=0)
        scaled = w.copy()
        scaled.matrices[:, 1, :] *= 3.0 - 0.5j
        after = project_back(demix(spec, scaled), scaled, reference=0)
        np.testing.assert_allclose(after.data, base.data, rtol=1e-12)

    def test_matches_closed_form_inverse(self):
        rng = np.random.default_rng(20)
        spec = random_spec(rng, 2, 4, 2)
        mats = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        w = DemixingStack(mats)
        demixed = demix(spec, w)
        projected = project_back(demixed, w, reference=0)
        for f in range(2):
            inv = inv2(mats[f])
            for k in range(2):
                np.testing.assert_allclose(
                    projected.data[f, :, k], inv[0, k] * demixed.data[f, :, k], rtol=1e-12
                )

    def test_diagonal_reference_keeps_identity_untouched(self):
        rng = np.random.default_rng(21)
        spec = random_spec(rng, 2, 4, 2)
        w = DemixingStack.identity(2, 2)
        projected = project_back(demix(spec, w), w)
        np.testing.assert_array_equal(projected.data, spec.data)

    @pytest.mark.parametrize("n_ch", [2, 3])
    @pytest.mark.parametrize("n_frames", [1, 7])
    def test_in_place_blocks_equal_project_back_of_demix(self, n_ch, n_frames):
        rng = np.random.default_rng(23 + n_ch + n_frames)
        n_bins = 2 * gciva.iva._BLOCK_BINS + 3  # a partial last block of bins
        spec = random_spec(rng, n_bins, n_frames, n_ch)
        w = DemixingStack(rng.standard_normal((n_bins, n_ch, n_ch))
                          + 1j * rng.standard_normal((n_bins, n_ch, n_ch)))
        for reference in (None, 0, n_ch - 1):
            expected = project_back(demix(spec, w), w, reference).data
            copy = ComplexSpectrogram(spec.data.copy(), spec.config)
            assert demix_and_project(copy, w, reference) is copy
            assert np.array_equal(copy.data, expected)

    def test_singular_stack_rejected(self):
        rng = np.random.default_rng(22)
        spec = random_spec(rng, 1, 3, 2)
        w = DemixingStack(np.zeros((1, 2, 2), dtype=complex))
        with pytest.raises(SingularUpdateError):
            project_back(spec, w, reference=0)


class TestSourceModel:
    def test_weight_is_positive_and_finite(self):
        model = SourceModel()
        r = np.array([0.0, 1e-20, 0.5, 3.0])
        weights = model.weight(r)
        assert np.all(np.isfinite(weights))
        assert np.all(weights > 0)

    @pytest.mark.parametrize("gain", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_weight_scales_as_inverse_gain(self, gain):
        # the first frame is near-silent, so the floor acts on it
        model = SourceModel()
        r = np.array([1e-12, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(gain * model.weight(gain * r), model.weight(r), rtol=1e-12)
        assert model.weight(r)[0] == pytest.approx(1e8 / np.sqrt(np.mean(r**2)), rel=1e-12)

    def test_weight_columns_match_per_channel_calls(self):
        rng = np.random.default_rng(60)
        r = np.abs(rng.standard_normal((3, 9))).T  # (N, K), F-ordered
        r[4, 1] = 0.0
        weights = SourceModel().weight(r)
        assert weights.flags.c_contiguous
        for k in range(3):
            np.testing.assert_array_equal(weights[:, k], SourceModel().weight(r[:, k]))

    def test_prior_config_validation(self):
        with pytest.raises(InvalidInputError):
            PriorConfig((0, 0), (10.0, 20.0), np.ones(4), 1e-3, PAIR)
        with pytest.raises(InvalidInputError):
            PriorConfig((0,), (10.0,), np.zeros(4), 1e-3, PAIR)
        with pytest.raises(InvalidInputError):
            PriorConfig((0,), (10.0,), np.ones(4), -1.0, PAIR)

    @pytest.mark.parametrize("channels, doas, message", [
        ((0, 0), (45.0, 90.0), "constrained channels must be unique"),
        ((-1,), (45.0,), r"constrained channel -1 outside \[0, inf\)"),
        ((0,), (45.0, 90.0), "need one DOA per constrained channel, got 2 for 1"),
    ])
    def test_both_constrained_separators_check_constraints_alike(self, channels, doas, message):
        spec = random_spec(np.random.default_rng(23), 3, 4, 2)
        with pytest.raises(InvalidInputError, match=message):
            PriorConfig.constant(channels, doas, PAIR, spec.n_bins)
        with pytest.raises(InvalidInputError, match=message):
            run_gradient_iva(spec, channels, doas, PAIR, SourceModel(), 1)
