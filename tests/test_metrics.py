import itertools

import numpy as np
import pytest

from gciva import (
    DegenerateReferenceError,
    InvalidInputError,
    decompose_sir_sdr,
    match_permutation,
)
from gciva.metrics import _ReferenceProjector


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

        scores = _ReferenceProjector(refs, flen).score(estimate[None])
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
        scores = _ReferenceProjector(refs, 64).score(estimate[None])
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
        scores = _ReferenceProjector(refs, 16).score(estimates)
        for order in itertools.permutations(range(3)):
            ordered = refs[list(order)]
            assert scores.assignment(order) == match_permutation(estimates, ordered, 16)[0]
            for k in range(3):
                sir, sdr, best = decompose_sir_sdr(estimates[k], ordered, filter_len=16)
                assert scores.sir_db[k] == pytest.approx(sir, rel=1e-9, abs=1e-9)
                assert scores.sdr_db[k] == pytest.approx(sdr, rel=1e-9, abs=1e-9)
                assert scores.best[k] == order[best]

