"""Separation quality metrics against ground-truth source images.

An estimate is decomposed by least-squares projection onto the span of
delayed reference copies (a time-invariant allowed-distortion filter per
reference). The projection onto the best-matching single reference is the
target, the remainder of the full-span projection is interference, and what
the full span cannot explain is artifact. Projections are held as filter
coefficients solved from the normal equations, and every energy is a
quadratic form in the Gram matrix of the delayed copies: nothing is
re-synthesized. Ratios are reported in dB, capped at +-100.
"""

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DegenerateReferenceError, InvalidInputError

DEFAULT_FILTER_LEN = 512
DB_CAP = 100.0


def _db_ratio(num: float, den: float) -> float:
    if den <= 0.0:
        return DB_CAP
    if num <= 0.0:
        return -DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


class Scores(NamedTuple):
    """Metrics of a stack of estimates against one set of references.

    ``energies[i, j]`` holds the target, interference and distortion
    energies of estimate ``i`` against reference ``j``, and
    ``full_energy[i]`` the energy of its full-span projection. ``best[i]``
    is the reference whose span captures the most target energy;
    ``sir_db[i]`` and ``sdr_db[i]`` are the ratios against it, and
    ``sir_matrix[i, j]`` is the SIR against every reference.
    """

    sir_db: np.ndarray
    sdr_db: np.ndarray
    best: np.ndarray
    sir_matrix: np.ndarray
    energies: np.ndarray
    full_energy: np.ndarray

    def assignment(self, order) -> tuple:
        """Best estimate-to-reference assignment by total SIR, exhaustive
        over permutations (intended for up to 4 channels), with the
        references taken in ``order``: ``assignment[i]`` is the position in
        ``order`` of the reference for estimate ``i``."""
        n = self.sir_matrix.shape[0]
        if self.sir_matrix.shape[1] != n or sorted(order) != list(range(n)):
            raise InvalidInputError("need one reference per estimate, taken in a permuted order")
        sir = self.sir_matrix[:, list(order)]
        best_perm, best_score = None, -np.inf
        for perm in itertools.permutations(range(n)):
            score = sum(sir[i, perm[i]] for i in range(n))
            if score > best_score:
                best_perm, best_score = perm, score
        return tuple(best_perm)


class _ReferenceProjector:
    """Shared least-squares machinery for one set of references.

    Precomputes the Gram matrix G of delayed reference copies (via FFT
    cross-correlations assembled into Toeplitz blocks) and the Cholesky
    factors of its loaded form, for the full span and each single-reference
    span. A projection is its coefficient vector c, and energies are
    quadratic forms such as ``c @ G @ c``: no signal is re-synthesized.
    Build one per reference set and score every estimate with ``score``.
    """

    def __init__(self, references, filter_len: int = DEFAULT_FILTER_LEN):
        from scipy.linalg import cho_factor, toeplitz  # lazy: slow to import
        references = np.atleast_2d(np.asarray(references, dtype=np.float64))
        if filter_len < 1:
            raise InvalidInputError("filter_len must be positive")
        if references.ndim != 2 or references.shape[0] < 1:
            raise InvalidInputError("references must be (n_refs, n_samples)")
        if references.shape[1] < 10 * filter_len:
            raise InvalidInputError(
                f"signals must span at least 10 * filter_len = {10 * filter_len} samples"
            )
        if not np.all(np.isfinite(references)):
            raise InvalidInputError("metric inputs contain non-finite samples")
        self.refs = references
        self.flen = filter_len
        n_refs, n_samples = references.shape
        n_fft = self.n_fft = int(2 ** np.ceil(np.log2(n_samples + filter_len - 1)))
        self.spectra = np.fft.rfft(references, n=n_fft, axis=1)

        gram = self.gram = np.empty((n_refs * filter_len, n_refs * filter_len))
        for i in range(n_refs):
            for j in range(i + 1):
                corr = np.fft.irfft(self.spectra[i] * self.spectra[j].conj(), n=n_fft)
                block = toeplitz(
                    np.concatenate(([corr[0]], corr[-1 : -filter_len : -1])),
                    r=corr[:filter_len],
                )
                gram[i * filter_len : (i + 1) * filter_len,
                     j * filter_len : (j + 1) * filter_len] = block
                gram[j * filter_len : (j + 1) * filter_len,
                     i * filter_len : (i + 1) * filter_len] = block.T
        load = 1e-10 * np.trace(gram) / gram.shape[0]
        loaded = gram + load * np.eye(gram.shape[0])
        try:
            self.factor_full = cho_factor(loaded)
            self.factor_single = [
                cho_factor(loaded[i * filter_len : (i + 1) * filter_len,
                                  i * filter_len : (i + 1) * filter_len])
                for i in range(n_refs)
            ]
        except np.linalg.LinAlgError as exc:
            raise DegenerateReferenceError(
                "reference correlation system is not positive definite"
            ) from exc
        self._check_distinguishable()

    def _project_single(self, cross: np.ndarray, j: int, energy: float):
        """Project a signal of ``energy`` with cross vector ``cross`` onto
        reference ``j``'s span: ``(coefficients, target energy, leftover
        energy)``, the leftover being what that span leaves unexplained."""
        from scipy.linalg import cho_solve  # lazy: slow to import
        span = slice(j * self.flen, (j + 1) * self.flen)
        coeffs = cho_solve(self.factor_single[j], cross[span])
        target = float(coeffs @ self.gram[span, span] @ coeffs)
        return coeffs, target, energy - 2.0 * float(cross[span] @ coeffs) + target

    def _check_distinguishable(self) -> None:
        # a reference that is a filtered copy of another makes source
        # attribution ambiguous; reference i's cross vector is Gram column i * flen
        for i in range(self.refs.shape[0]):
            energy = float(self.gram[i * self.flen, i * self.flen])
            if energy == 0.0:
                raise DegenerateReferenceError(f"reference {i} is silent")
            cross = self.gram[:, i * self.flen]
            for j in range(self.refs.shape[0]):
                if j != i and self._project_single(cross, j, energy)[2] <= 1e-10 * energy:
                    raise DegenerateReferenceError(
                        f"reference {i} is a filtered copy of reference {j}"
                    )

    def cross_vector(self, estimate: np.ndarray) -> np.ndarray:
        est_spectrum = np.fft.rfft(estimate, n=self.n_fft)
        parts = []
        for i in range(self.refs.shape[0]):
            corr = np.fft.irfft(self.spectra[i] * est_spectrum.conj(), n=self.n_fft)
            parts.append(np.concatenate(([corr[0]], corr[-1 : -self.flen : -1])))
        return np.concatenate(parts)

    def score(self, estimates) -> Scores:
        """Decompose each row of ``estimates`` (n_estimates, n_samples) once
        against every reference."""
        from scipy.linalg import cho_solve  # lazy: slow to import
        estimates = np.asarray(estimates, dtype=np.float64)
        if estimates.ndim != 2 or estimates.shape[1] != self.refs.shape[1]:
            raise InvalidInputError("estimate and references must have equal lengths")
        if not np.all(np.isfinite(estimates)):
            raise InvalidInputError("metric inputs contain non-finite samples")
        n_est, n_refs = estimates.shape[0], self.refs.shape[0]
        energies = np.empty((n_est, n_refs, 3))
        full_energy = np.empty(n_est)
        for i, estimate in enumerate(estimates):
            cross, energy = self.cross_vector(estimate), float(estimate @ estimate)
            full = cho_solve(self.factor_full, cross)
            full_energy[i] = full @ self.gram @ full
            for j in range(n_refs):
                coeffs, target, distortion = self._project_single(cross, j, energy)
                # the interference filter itself, so no two large energies cancel
                rest = full.copy()
                rest[j * self.flen : (j + 1) * self.flen] -= coeffs
                energies[i, j] = target, rest @ self.gram @ rest, distortion
        sir_matrix = np.array([[_db_ratio(t, e) for t, e, _ in row] for row in energies])
        best = np.argmax(energies[:, :, 0], axis=1)
        rows = np.arange(n_est)
        sdr = np.array([_db_ratio(t, d) for t, _, d in energies[rows, best]])
        return Scores(sir_matrix[rows, best], sdr, best, sir_matrix, energies, full_energy)


def decompose_sir_sdr(estimate, references, filter_len: int = DEFAULT_FILTER_LEN):
    """SIR and SDR of one estimate against ground-truth references.

    Returns ``(sir_db, sdr_db, best_index)`` where ``best_index`` is the
    reference whose filtered span captures the most estimate energy.
    """
    scores = _ReferenceProjector(references, filter_len).score(np.asarray(estimate)[None])
    return float(scores.sir_db[0]), float(scores.sdr_db[0]), int(scores.best[0])


def match_permutation(estimates, references, filter_len: int = DEFAULT_FILTER_LEN):
    """Best channel-to-source assignment by total SIR.

    Exhaustive over permutations (intended for up to 4 channels). Returns
    ``(assignment, matched)`` where ``assignment[i]`` is the reference for
    estimate ``i`` and ``matched`` is True iff it is the identity, i.e. the
    separation already produced the intended ordering.
    """
    estimates = np.atleast_2d(estimates)
    n = estimates.shape[0]
    perm = _ReferenceProjector(references, filter_len).score(estimates).assignment(range(n))
    return perm, perm == tuple(range(n))
