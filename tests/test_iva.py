from collections import Counter

import numpy as np
import pytest

import gciva.iva
from gciva import (
    ArrayGeometry,
    ComplexSpectrogram,
    CostOverflowError,
    DemixingStack,
    InvalidInputError,
    PriorConfig,
    SceneSpec,
    SingularUpdateError,
    SourceModel,
    StftConfig,
    analyze,
    demix,
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


class TestCovarianceKernel:
    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_all_channels_match_loop_oracle(self, n_ch):
        rng = np.random.default_rng(20 + n_ch)
        spec = random_spec(rng, 4, 7, n_ch)
        weights = rng.uniform(0.2, 3.0, size=(7, n_ch))
        outer = gciva.iva._outer_products(gciva.iva._transposed(spec.data))
        assert outer.flags.c_contiguous  # else every GEMM copies the cache first
        v = gciva.iva._weighted_covariances(outer, weights)
        assert v.shape == (4, n_ch, n_ch, n_ch)
        expected = np.zeros_like(v)
        for f in range(4):
            for c in range(n_ch):
                for n in range(7):
                    x = spec.data[f, n]
                    expected[f, c] += weights[n, c] * np.outer(x, x.conj())
        expected /= 7
        assert np.max(np.abs(v - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_ch", [2, 3])
    def test_gradient_score_matches_direct_formula(self, n_ch):
        rng = np.random.default_rng(30 + n_ch)
        spec = random_spec(rng, 4, 9, n_ch)
        w = rng.standard_normal((4, n_ch, n_ch)) + 1j * rng.standard_normal((4, n_ch, n_ch))
        y = np.einsum("fkj,fnj->fnk", w, spec.data)
        r = np.sqrt(np.sum(np.abs(y) ** 2, axis=0))
        phi = np.stack([SourceModel().weight(r[:, k]) for k in range(n_ch)], axis=1)
        expected = np.einsum("fnk,fnl->fkl", phi[None] * y, y.conj()) / 9
        xt = gciva.iva._transposed(spec.data)
        cov = gciva.iva._weighted_covariances(gciva.iva._outer_products(xt),
                                              gciva.iva._source_weights(SourceModel(), r))
        score = gciva.iva._score(w, cov)
        assert np.max(np.abs(score - expected)) <= 1e-12 * np.max(np.abs(expected))


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
        systems[1] = np.ones((2, 2))  # rank one: an exact zero pivot in the batch LU
        regular = gciva.iva._solve_rows(matrices[[0, 2, 3]], systems[[0, 2, 3]], 1)
        rows = gciva.iva._solve_rows(matrices, systems, 1)
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
            gciva.iva._solve_rows(matrices, systems, 1, context=", iteration 5")


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


class TestPenaltyGradient:
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

        dists = PAIR.reference_distances()
        expected_prior = 0.0
        for f in range(3):
            nu = config.bin_frequency(f)
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
        spec = ComplexSpectrogram(np.zeros((2, 3, 2)), tiny_config(2))
        with pytest.raises(SingularUpdateError, match="iteration 1"):
            run_informed_iva(spec, None, SourceModel(), 2)

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

        for name in ("evaluate_cost", "prior_matrices", "steering_stack", "_demix_data",
                     "_outer_products"):
            count(name)
        spec, _, config = anechoic_scene(8, duration=0.5, window=128)
        prior = PriorConfig.constant((0,), (135.0,), PAIR, config.n_bins)
        run_informed_iva(spec, prior, SourceModel(), 5)
        assert dict(counts) == {"prior_matrices": 1, "steering_stack": 1, "_demix_data": 6,
                                "_outer_products": 1}
        counts.clear()
        run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 5)
        assert dict(counts) == {"steering_stack": 1, "_demix_data": 6, "_outer_products": 1}


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

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            SourceModel(kind="cauchy")

    def test_prior_config_validation(self):
        with pytest.raises(InvalidInputError):
            PriorConfig((0, 0), (10.0, 20.0), np.ones(4), 1e-3, PAIR)
        with pytest.raises(InvalidInputError):
            PriorConfig((0,), (10.0,), np.zeros(4), 1e-3, PAIR)
        with pytest.raises(InvalidInputError):
            PriorConfig((0,), (10.0,), np.ones(4), -1.0, PAIR)

    @pytest.mark.parametrize("channels, doas, message", [
        ((0, 0), (45.0, 90.0), "constrained channels must be unique"),
        ((-1,), (45.0,), "channel indices must be nonnegative"),
        ((0,), (45.0, 90.0), "need one DOA per constrained channel, got 2 for 1"),
    ])
    def test_both_constrained_separators_check_constraints_alike(self, channels, doas, message):
        spec = random_spec(np.random.default_rng(23), 3, 4, 2)
        with pytest.raises(InvalidInputError, match=message):
            PriorConfig.constant(channels, doas, PAIR, spec.n_bins)
        with pytest.raises(InvalidInputError, match=message):
            run_gradient_iva(spec, channels, doas, PAIR, SourceModel(), 1)
