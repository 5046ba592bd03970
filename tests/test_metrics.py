import itertools

import numpy as np
import pytest

from gciva import (
    ArrayGeometry,
    DegenerateReferenceError,
    InvalidInputError,
    ReferenceProjector,
    SceneSpec,
    StftConfig,
    decompose_sir_sdr,
    match_permutation,
    simulate_mixture,
    synthetic_sources,
)


def oracle_projection(references, estimate, flen, indices):
    """Independent least-squares oracle: build the delayed-copies matrix
    explicitly column by column and solve with lstsq (no FFT, no Toeplitz)."""
    n = references.shape[1]
    cols = []
    for i in indices:
        padded = np.concatenate((references[i], np.zeros(flen - 1)))
        for tau in range(flen):
            cols.append(np.roll(padded, tau) * (np.arange(n + flen - 1) >= tau))
    basis = np.stack(cols, axis=1)
    target = np.concatenate((estimate, np.zeros(flen - 1)))
    coeffs, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return basis @ coeffs


def make_refs(n=6000, seed=42):
    # white references with silent tails, so a delayed copy loses nothing
    # when truncated to the common length
    rng = np.random.default_rng(seed)
    refs = rng.standard_normal((2, n))
    refs[:, -32:] = 0.0
    return refs


class TestDecompose:
    def test_perfect_estimate_hits_cap(self):
        refs = make_refs()
        sir, sdr, best = decompose_sir_sdr(refs[0], refs, filter_len=8)
        assert sir == 100.0
        assert sdr == 100.0
        assert best == 0

    def test_equal_power_orthogonal_interference(self):
        rng = np.random.default_rng(0)
        s1 = rng.standard_normal(4000)
        s2 = rng.standard_normal(4000)
        s2 -= (s1 @ s2) / (s1 @ s1) * s1
        s2 *= np.linalg.norm(s1) / np.linalg.norm(s2)
        sir, _, best = decompose_sir_sdr(s1 + s2, np.stack([s1, s2]), filter_len=1)
        assert sir == pytest.approx(0.0, abs=1e-6)
        assert best in (0, 1)

    def test_delay_and_scale_absorbed_by_filter(self):
        refs = make_refs()
        estimate = 0.5 * np.roll(refs[0], 3)
        estimate[:3] = 0.0
        sir, sdr, best = decompose_sir_sdr(estimate, refs, filter_len=16)
        assert best == 0
        assert sir == 100.0
        assert sdr >= 60.0

    # 1e-3 leaves the interference about 43 dB below the target
    @pytest.mark.parametrize("leak", [0.3, 1e-3])
    def test_matches_explicit_least_squares_oracle(self, leak):
        rng = np.random.default_rng(1)
        refs = rng.standard_normal((2, 1500))
        flen = 12
        taps = rng.standard_normal(5)
        estimate = np.convolve(refs[0], taps)[:1500] + leak * refs[1] \
            + 0.1 * rng.standard_normal(1500)

        scores = ReferenceProjector(refs, flen).score(estimate[None])
        per_ref, p_full_energy = scores.energies[0], scores.full_energy[0]

        oracle_full = oracle_projection(refs, estimate, flen, [0, 1])
        oracle_best = oracle_projection(refs, estimate, flen, [0])
        assert p_full_energy == pytest.approx(np.sum(oracle_full**2), rel=1e-6)
        target, interference, distortion = per_ref[0]
        assert target == pytest.approx(np.sum(oracle_best**2), rel=1e-6)
        assert interference == pytest.approx(
            np.sum((oracle_full - oracle_best) ** 2), rel=1e-4
        )
        padded = np.concatenate((estimate, np.zeros(flen - 1)))
        assert distortion == pytest.approx(
            np.sum((padded - oracle_best) ** 2), rel=1e-6
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        refs = rng.standard_normal((2, 3000))
        estimate = refs[0] + 0.2 * refs[1] + 0.05 * rng.standard_normal(3000)
        base = decompose_sir_sdr(estimate, refs, filter_len=32)
        scaled = decompose_sir_sdr(17.3 * estimate, refs, filter_len=32)
        assert abs(base[0] - scaled[0]) <= 1e-6
        assert abs(base[1] - scaled[1]) <= 1e-6

    def test_energy_decomposition_is_pythagorean(self):
        rng = np.random.default_rng(3)
        refs = rng.standard_normal((2, 3000))
        estimate = 0.8 * refs[0] + 0.4 * refs[1] + 0.2 * rng.standard_normal(3000)
        scores = ReferenceProjector(refs, 64).score(estimate[None])
        per_ref, p_full_energy = scores.energies[0], scores.full_energy[0]
        for target, interference, _ in per_ref:
            assert p_full_energy == pytest.approx(target + interference, rel=1e-9)

    def test_sdr_not_above_sir_with_artifacts(self):
        rng = np.random.default_rng(4)
        refs = rng.standard_normal((2, 3000))
        estimate = refs[0] + 0.1 * refs[1] + 0.3 * rng.standard_normal(3000)
        sir, sdr, _ = decompose_sir_sdr(estimate, refs, filter_len=32)
        assert sdr <= sir + 1e-9

    def test_rank_deficient_references_rejected(self):
        s = np.sin(np.arange(6000) / 5.0)
        with pytest.raises(DegenerateReferenceError):
            decompose_sir_sdr(s, np.stack([s, s]), filter_len=8)

    def test_short_signals_rejected(self):
        refs = make_refs(100)
        with pytest.raises(InvalidInputError):
            decompose_sir_sdr(refs[0], refs, filter_len=512)

    def test_length_mismatch_rejected(self):
        refs = make_refs()
        with pytest.raises(InvalidInputError):
            decompose_sir_sdr(refs[0][:-1], refs, filter_len=8)

    @pytest.mark.filterwarnings("error")
    def test_correlations_that_overflow_rejected(self):
        # finite samples whose correlations exceed the float range, rejected
        # without a numpy warning
        refs = make_refs()
        with pytest.raises(InvalidInputError, match="overflow the reference correlations"):
            ReferenceProjector(1e300 * refs, 8)
        with pytest.raises(InvalidInputError, match="overflow the cross-correlations"):
            ReferenceProjector(refs, 8).score(1e306 * refs[:1])


def delayed(signal, n):
    out = np.zeros_like(signal)
    out[n:] = signal[:-n]
    return out


@pytest.fixture(scope="module")
def scene_images():
    # first-microphone images of the seed-0 3 s scene, sources at 45 and 135 degrees
    config = StftConfig()
    sources = synthetic_sources(2, 3.0, config.sample_rate, seed=0)
    _, images = simulate_mixture(SceneSpec(sources, (45.0, 135.0)),
                                 ArrayGeometry.linear_pair(0.21), config)
    return images[:, :, 0]


class TestReferenceCheck:
    def test_delayed_copy_rejected(self, scene_images):
        # the truncated tail leaves about 2.5e-6 of the copy's energy unexplained
        copy = 0.5 * delayed(scene_images[0], 5)
        with pytest.raises(DegenerateReferenceError,
                           match="reference 1 is a filtered copy of reference 0"):
            ReferenceProjector(np.stack([scene_images[0], copy]))

    def test_copy_delayed_past_the_filter_accepted(self, scene_images):
        copy = 0.5 * delayed(scene_images[0], 600)  # beyond the 512-tap filter
        ReferenceProjector(np.stack([scene_images[0], copy]))

    def test_distinct_images_accepted(self, scene_images):
        ReferenceProjector(scene_images)

    def test_silent_reference_rejected(self, scene_images):
        refs = np.stack([scene_images[0], np.zeros_like(scene_images[0])])
        with pytest.raises(DegenerateReferenceError, match="reference 1 is silent"):
            ReferenceProjector(refs)


class TestMatchPermutation:
    def test_identity(self):
        refs = make_refs()
        perm, matched = match_permutation(refs, refs, filter_len=8)
        assert perm == (0, 1)
        assert matched is True

    def test_swap_detected(self):
        refs = make_refs()
        perm, matched = match_permutation(refs[::-1], refs, filter_len=8)
        assert perm == (1, 0)
        assert matched is False

    def test_recovers_shuffle_of_filtered_scaled_references(self):
        rng = np.random.default_rng(5)
        refs = rng.standard_normal((3, 4000))
        taps = [rng.standard_normal(4) for _ in range(3)]
        shuffle = (2, 0, 1)
        estimates = np.stack(
            [3.0 * np.convolve(refs[shuffle[i]], taps[i])[:4000] for i in range(3)]
        )
        perm, matched = match_permutation(estimates, refs, filter_len=16)
        assert perm == shuffle
        assert matched is False

        # exhaustive oracle over the SIR matrix built with the lstsq oracle
        def oracle_sir(estimate, j):
            p_full = oracle_projection(refs, estimate, 16, [0, 1, 2])
            p_j = oracle_projection(refs, estimate, 16, [j])
            num = np.sum(p_j**2)
            den = np.sum((p_full - p_j) ** 2)
            return 10 * np.log10(num / den) if den > 0 else 100.0

        sir = np.array([[oracle_sir(estimates[i], j) for j in range(3)] for i in range(3)])
        best = max(itertools.permutations(range(3)),
                   key=lambda p: sum(sir[i, p[i]] for i in range(3)))
        assert perm == best

    def test_small_delays_and_scalings_do_not_flip(self):
        refs = make_refs()
        estimates = np.stack([
            0.25 * np.roll(refs[0], 4),
            -1.5 * np.roll(refs[1], 2),
        ])
        perm, matched = match_permutation(estimates, refs, filter_len=16)
        assert perm == (0, 1)
        assert matched is True

    def test_shape_mismatch_rejected(self):
        refs = make_refs()
        with pytest.raises(InvalidInputError):
            match_permutation(refs[:1], refs, filter_len=8)


class TestOneProjector:
    """One projector on the references in their own order reproduces the
    per-call metrics on every reordering of those references."""

    def test_reordered_scores_match_per_call_metrics(self):
        rng = np.random.default_rng(6)
        refs = rng.standard_normal((3, 2000))
        mixing = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)[[1, 2, 0]]
        estimates = mixing @ refs + 0.2 * rng.standard_normal((3, 2000))
        scores = ReferenceProjector(refs, 16).score(estimates)
        for order in itertools.permutations(range(3)):
            ordered = refs[list(order)]
            assert scores.assignment(order) == match_permutation(estimates, ordered, 16)[0]
            for k in range(3):
                sir, sdr, best = decompose_sir_sdr(estimates[k], ordered, filter_len=16)
                assert scores.sir_db[k] == pytest.approx(sir, rel=1e-9, abs=1e-9)
                assert scores.sdr_db[k] == pytest.approx(sdr, rel=1e-9, abs=1e-9)
                assert scores.best[k] == order[best]



class TestBatchedScore:
    """``score`` handles all rows at once; each row must come out as if it
    were scored alone, and every cross vector must be a plain correlation."""

    @staticmethod
    def estimates(refs, rng, n_rows):
        # filtered mixtures of both references plus noise, so that no energy
        # of the decomposition is a tiny difference of large ones
        n = refs.shape[1]
        rows = []
        for _ in range(n_rows):
            taps = rng.standard_normal((2, 6))
            mixed = sum(np.convolve(refs[i], taps[i])[:n] for i in range(2))
            rows.append(mixed + 0.3 * rng.standard_normal(n))
        return np.stack(rows)

    @pytest.mark.parametrize("n_rows", [1, 2, 12])
    def test_rows_scored_together_match_rows_scored_alone(self, n_rows):
        rng = np.random.default_rng(70 + n_rows)
        refs = make_refs()
        projector = ReferenceProjector(refs, 64)
        estimates = self.estimates(refs, rng, n_rows)
        together = projector.score(estimates)
        for i, row in enumerate(estimates):
            alone = projector.score(row[None])
            np.testing.assert_allclose(together.energies[i], alone.energies[0], rtol=1e-12)
            np.testing.assert_allclose(together.full_energy[i], alone.full_energy[0],
                                       rtol=1e-12)
            assert together.best[i] == alone.best[0]

    def test_cross_vectors_and_gram_are_direct_correlations(self):
        # <reference i delayed by d, signal> is np.correlate(signal, ref_i) at
        # lag d; estimates concentrated in their first or last flen samples
        # meet any wrap-around of a too-short FFT at the negative or the
        # positive lags
        flen, n = 64, 6000
        rng = np.random.default_rng(80)
        refs = rng.standard_normal((2, n))
        projector = ReferenceProjector(refs, flen)
        estimates = np.zeros((2, n))
        estimates[0, :flen] = rng.standard_normal(flen)
        estimates[1, -flen:] = rng.standard_normal(flen)
        lags = np.arange(-(flen - 1), flen)
        est_cross = projector._cross(np.fft.rfft(estimates, n=projector.n_fft))
        for signals, cross in ((estimates, est_cross), (refs, projector.gram[:, ::flen])):
            for m, signal in enumerate(signals):
                for i, ref in enumerate(refs):
                    direct = np.correlate(signal, ref, "full")[lags + n - 1]
                    np.testing.assert_allclose(cross[i * flen : (i + 1) * flen, m],
                                               direct[flen - 1 :], atol=1e-9)
        # block (0, 1) holds every lag -(flen-1)..flen-1 of the reference
        # pair: entry (d, e) is lag d - e
        direct = np.correlate(refs[1], refs[0], "full")[lags + n - 1]
        block = projector.gram[:flen, flen:]
        for d in range(flen):
            np.testing.assert_allclose(block[d], direct[d : d + flen][::-1], atol=1e-9)

    @pytest.mark.parametrize("n, flen", [(6000, 64), (80000, 512), (8192, 1), (12289, 100)])
    def test_fft_length_is_the_smallest_5_smooth_cover(self, n, flen):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        n_fft = ReferenceProjector(make_refs(n), flen).n_fft
        assert smooth(n_fft) and n_fft >= n + flen - 1
        assert not any(smooth(m) for m in range(n + flen - 1, n_fft))
