import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, toeplitz

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

    def test_score_changes_neither_the_spectra_nor_its_input(self):
        # the cross vectors conjugate their spectra in place; that must be a
        # fresh transform, never the references' own spectra or the caller's
        rng = np.random.default_rng(75)
        refs = make_refs()
        projector = ReferenceProjector(refs, 64)
        estimates = self.estimates(refs, rng, 2)
        given = estimates.copy()
        first = projector.score(estimates)
        assert np.array_equal(projector.spectra, np.fft.rfft(refs, n=projector.n_fft, axis=1))
        assert np.array_equal(projector.score(estimates).energies, first.energies)
        assert np.array_equal(estimates, given)

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
        for signals, cross in ((estimates, est_cross), (refs, projector.ref_cross)):
            for m, signal in enumerate(signals):
                for i, ref in enumerate(refs):
                    direct = np.correlate(signal, ref, "full")[lags + n - 1]
                    np.testing.assert_allclose(cross[i * flen : (i + 1) * flen, m],
                                               direct[flen - 1 :], atol=1e-9)
        # the Gram block (0, 1) holds every lag -(flen-1)..flen-1 of the
        # reference pair: entry (d, e) is lag d - e
        direct = np.correlate(refs[1], refs[0], "full")[lags + n - 1]
        block = projector._block(0, 1)
        for d in range(flen):
            np.testing.assert_allclose(block[d], direct[d : d + flen][::-1], atol=1e-9)

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_row_by_row_cross_vectors_equal_the_batched_transforms(self, n_rows):
        # each row is correlated on its own; its cross vectors equal, bit for
        # bit, those of one batched rfft, product and irfft over all rows,
        # and a row scored in a stack has the cross vectors it has alone
        flen = 64
        rng = np.random.default_rng(85 + n_rows)
        refs = make_refs()
        projector = ReferenceProjector(refs, flen)
        estimates = self.estimates(refs, rng, n_rows)
        spectra = np.fft.rfft(estimates, n=projector.n_fft, axis=1)
        batched = np.empty((2 * flen, n_rows))
        for i in range(2):
            corr = np.fft.irfft(projector.spectra[i] * spectra.conj(), n=projector.n_fft, axis=1)
            batched[i * flen : (i + 1) * flen] = corr[:, -np.arange(flen)].T
        cross = projector._cross(spectra)
        assert np.array_equal(cross, batched)
        for m in range(n_rows):
            assert np.array_equal(projector._cross(spectra[m : m + 1])[:, 0], cross[:, m])
        assert np.array_equal(projector.ref_cross,
                              projector._cross(np.fft.rfft(refs, n=projector.n_fft, axis=1)))

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


class TestProjectorMemory:
    """A projector keeps its Cholesky factors and the references' spectra
    and cross vectors; no Gram block is kept, and the Gram matrix itself is
    never held whole."""

    MIB = 2**20

    @staticmethod
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from TestProjectorMemory.arrays(item)
        elif isinstance(value, dict):
            for item in value.values():
                yield from TestProjectorMemory.arrays(item)

    def test_two_5_s_references_at_512_taps(self):
        # the references are a view into a larger stack, as the benchmark's
        # first-microphone images are
        stack = np.random.default_rng(90).standard_normal((2, 80000, 2))
        refs = stack[:, :, 0]
        flen = 512
        ReferenceProjector(refs, flen)  # lazy imports and FFT plans load outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            projector = ReferenceProjector(refs, flen)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # four 2 MiB flen-square arrays, their 64-row blocks' inverses
        # (0.75 MiB) and the spectra (1.24 MiB): 10.0 MiB kept, and a peak of
        # 10.1 MiB, as the one transient flen-square array, the right-hand
        # side of the panel, is made while the second reference's diagonal
        # block is not yet factored on its own; 12.0 and 13.8 MiB with the
        # Gram block kept, that copy held through the full factor and the
        # references' spectra copied whole for their cross vectors
        assert (kept - before) / self.MIB <= 10.5
        assert (peak - before) / self.MIB <= 10.5
        # the full factor is kept as its span blocks: two diagonal factors and
        # one panel, the first diagonal factor shared with the first
        # reference's own; with the second reference's own factor, four
        # flen-square arrays and none of the full order
        arrays = [a for v in vars(projector).values() for a in self.arrays(v)]
        assert not [a for a in arrays if a.shape == (2 * flen, 2 * flen)]
        assert len({id(a) for a in arrays if a.shape == (flen, flen)}) == 4
        assert projector.factor_single[0] is projector.factor_full[0]
        # the references' shape is kept, not their samples
        assert not [a for a in arrays if np.shares_memory(a, stack)]
        assert not [a for a in arrays if a.shape == refs.shape]
        assert (projector.n_refs, projector.n_samples) == refs.shape


class TestScipyOracle:
    """``score`` against the dense formulation solved by scipy: the whole
    loaded Gram matrix built from ``np.correlate``, factored by
    ``cho_factor``, and every energy a quadratic form in it."""

    @staticmethod
    def dense_energies(refs, estimates, flen):
        n_refs, n = refs.shape
        dim = n_refs * flen
        span = [slice(i * flen, (i + 1) * flen) for i in range(n_refs)]
        gram = np.empty((dim, dim))
        for i in range(n_refs):
            for j in range(n_refs):
                # <ref i delayed by d, ref j delayed by e> is the lag d - e
                corr = np.correlate(refs[j], refs[i], "full")
                gram[span[i], span[j]] = toeplitz(corr[n - 1 : n - 1 + flen],
                                                  corr[n - flen : n][::-1])
        cross = np.stack([np.concatenate([np.correlate(est, ref, "full")[n - 1 : n - 1 + flen]
                                          for ref in refs]) for est in estimates], axis=1)
        loaded = gram + 1e-10 * np.trace(gram) / dim * np.eye(dim)
        full = cho_solve(cho_factor(loaded), cross)
        energies = np.empty((len(estimates), n_refs, 3))
        for j in range(n_refs):
            coeffs = cho_solve(cho_factor(loaded[span[j], span[j]]), cross[span[j]])
            single = np.zeros_like(full)
            single[span[j]] = coeffs
            rest = full - single
            energies[:, j, 0] = np.einsum("ij,ik,kj->j", single, gram, single)
            energies[:, j, 1] = np.einsum("ij,ik,kj->j", rest, gram, rest)
            energies[:, j, 2] = (np.sum(estimates**2, axis=1)
                                 - 2.0 * np.sum(cross[span[j]] * coeffs, axis=0)
                                 + energies[:, j, 0])
        return energies, np.einsum("ij,ik,kj->j", full, gram, full)

    def test_gram_blocks_equal_scipy_toeplitz(self):
        flen = 100
        refs = np.random.default_rng(7).standard_normal((3, 1200))
        projector = ReferenceProjector(refs, flen)
        cross = projector.ref_cross
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            np.testing.assert_array_equal(
                projector._block(i, j), toeplitz(cross[i * flen : (i + 1) * flen, j],
                                                 cross[j * flen : (j + 1) * flen, i]))

    # only 512 is a multiple of the 64-row blocks the factors are inverted in
    @pytest.mark.parametrize("flen", [1, 12, 100, 512])
    @pytest.mark.parametrize("n_refs", [1, 2, 3])
    def test_energies_match_dense_cholesky(self, n_refs, flen):
        rng = np.random.default_rng(100 * n_refs + flen)
        n = 10 * flen + 200
        refs = rng.standard_normal((n_refs, n))
        # filtered mixtures of every reference plus noise, so that no energy is
        # a small difference of large ones
        estimates = np.stack([
            sum(np.convolve(ref, rng.standard_normal(4))[:n] for ref in refs)
            + 0.3 * rng.standard_normal(n) for _ in range(2)])
        scores = ReferenceProjector(refs, flen).score(estimates)
        energies, full_energy = self.dense_energies(refs, estimates, flen)
        np.testing.assert_allclose(scores.energies, energies, rtol=1e-9)
        np.testing.assert_allclose(scores.full_energy, full_energy, rtol=1e-9)
