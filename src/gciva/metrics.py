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
COPY_MATCH = 1e-3  # a 30 dB match, see ReferenceProjector


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


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT splits into small radices."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


class ReferenceProjector:
    """Shared least-squares machinery for one set of references.

    Precomputes the Gram matrix G of delayed reference copies (via FFT
    cross-correlations assembled into Toeplitz blocks) and the Cholesky
    factors of its loaded form, for the full span and each single-reference
    span. A projection is its coefficient vector c, and energies are
    quadratic forms such as ``c @ G @ c``: no signal is re-synthesized.
    Build one per reference set and score every estimate with ``score``,
    which handles all of its rows at once. A silent reference, or one that
    another's span explains to within ``COPY_MATCH`` of its energy (a scaled
    or delayed copy), raises DegenerateReferenceError.
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
        # long enough that no lag within the filter wraps around
        self.n_fft = _smooth_length(n_samples + filter_len - 1)
        # finite samples can still overflow here; the check below rejects that
        with np.errstate(over="ignore", invalid="ignore"):
            self.spectra = np.fft.rfft(references, n=self.n_fft, axis=1)
            # block (i, j) is Toeplitz: its first column is reference j's
            # cross vector against the copies of reference i, its first row
            # reference i's against those of j
            cross = self._cross(self.spectra)
            gram = self.gram = np.empty((n_refs * filter_len, n_refs * filter_len))
            for i in range(n_refs):
                for j in range(i + 1):
                    block = toeplitz(cross[self._span(i), j], r=cross[self._span(j), i])
                    gram[self._span(i), self._span(j)] = block
                    gram[self._span(j), self._span(i)] = block.T
        if not np.all(np.isfinite(gram)):
            raise InvalidInputError("metric inputs overflow the reference correlations")
        loaded = gram.copy()
        loaded.flat[:: gram.shape[0] + 1] += 1e-10 * np.trace(gram) / gram.shape[0]
        try:  # the Gram matrix is checked finite above
            self.factor_full = cho_factor(loaded, check_finite=False)
            self.factor_single = [
                cho_factor(loaded[self._span(i), self._span(i)], check_finite=False)
                for i in range(n_refs)
            ]
        except np.linalg.LinAlgError as exc:
            raise DegenerateReferenceError(
                "reference correlation system is not positive definite"
            ) from exc
        self._check_distinguishable()

    def _span(self, i: int) -> slice:
        return slice(i * self.flen, (i + 1) * self.flen)

    def _cross(self, spectra: np.ndarray) -> np.ndarray:
        """Cross vectors of the signals whose ``rfft`` rows are ``spectra``:
        column m holds the inner products of signal m with every delayed
        reference copy, reference by reference, shaped (n_refs * flen, n)."""
        lags = -np.arange(self.flen)  # copy delayed by d: correlation lag -d
        cross = np.empty((self.refs.shape[0] * self.flen, spectra.shape[0]))
        # one conjugate and one product buffer for all references: fewer
        # MB-sized temporaries keep a long sweep's heap from fragmenting
        conj = spectra.conj()
        product = np.empty_like(conj)
        for i in range(self.refs.shape[0]):
            np.multiply(self.spectra[i], conj, out=product)
            corr = np.fft.irfft(product, n=self.n_fft, axis=1)
            cross[self._span(i)] = corr[:, lags].T
        return cross

    def _project_single(self, cross: np.ndarray, j: int, energy: np.ndarray):
        """Project signals with cross vectors ``cross`` (one column each) and
        energies ``energy`` onto reference ``j``'s span: ``(coefficients,
        G[:, span] @ coefficients, target energies, leftover energies)``, the
        leftover being what that span leaves unexplained. Callers pass only
        cross vectors already checked finite, so the solve skips the scan."""
        from scipy.linalg import cho_solve  # lazy: slow to import
        span = self._span(j)
        coeffs = cho_solve(self.factor_single[j], cross[span], check_finite=False)
        gram_coeffs = self.gram[:, span] @ coeffs
        target = _column_dots(coeffs, gram_coeffs[span])
        return coeffs, gram_coeffs, target, energy - 2.0 * _column_dots(cross[span], coeffs) + target

    def _check_distinguishable(self) -> None:
        # reference i's cross vector is Gram column i * flen
        n_refs = self.refs.shape[0]
        cross = self.gram[:, :: self.flen]
        energy = np.diagonal(self.gram)[:: self.flen]
        leftover = [self._project_single(cross, j, energy)[3] for j in range(n_refs)]
        for i in range(n_refs):
            if energy[i] == 0.0:
                raise DegenerateReferenceError(f"reference {i} is silent")
            for j in range(n_refs):
                if j != i and leftover[j][i] <= COPY_MATCH * energy[i]:
                    raise DegenerateReferenceError(
                        f"reference {i} is a filtered copy of reference {j}"
                    )

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
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            cross = self._cross(np.fft.rfft(estimates, n=self.n_fft, axis=1))
        if not np.all(np.isfinite(cross)):
            raise InvalidInputError("metric inputs overflow the cross-correlations")
        energy = np.einsum("ij,ij->i", estimates, estimates)
        full = cho_solve(self.factor_full, cross, check_finite=False)
        gram_full = self.gram @ full
        full_energy = _column_dots(full, gram_full)
        energies = np.empty((n_est, n_refs, 3))
        for j in range(n_refs):
            coeffs, gram_coeffs, target, distortion = self._project_single(cross, j, energy)
            # the interference filter itself, so no two large energies cancel
            rest = full.copy()
            rest[self._span(j)] -= coeffs
            energies[:, j] = np.stack(
                (target, _column_dots(rest, gram_full - gram_coeffs), distortion), axis=1)
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
    scores = ReferenceProjector(references, filter_len).score(np.asarray(estimate)[None])
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
    perm = ReferenceProjector(references, filter_len).score(estimates).assignment(range(n))
    return perm, perm == tuple(range(n))
