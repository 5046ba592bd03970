"""Separation quality metrics against ground-truth source images.

An estimate is decomposed by least-squares projection onto the span of
delayed reference copies (a time-invariant allowed-distortion filter per
reference). The projection onto the best-matching single reference is the
target, the remainder of the full-span projection is interference, and what
the full span cannot explain is artifact. Projections are held as filter
coefficients solved from the normal equations, and every energy is a
quadratic form in the Gram matrix G of the delayed copies: nothing is
re-synthesized. G itself is never held whole. Coefficients c solved on a
span from the diagonally loaded system ``(G + load * I) c = cross`` give
``G @ c = cross - load * c`` on that span for free, so the energies need
only the Cholesky factors, the cross vectors and, for an interference
term, one off-diagonal block of G per reference pair. Ratios are reported
in dB, capped at +-100.

Everything here is numpy: the Toeplitz blocks of G are copied out of strided
views of the correlations, and the Cholesky factors and their triangular
solves are blocked over ``np.linalg.cholesky`` and small explicit inverses,
so scoring loads no scipy.
"""

import itertools
from typing import NamedTuple

import numpy as np

from .errors import DegenerateReferenceError, InvalidInputError, checked_array, checked_index

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
        if not np.iterable(order):
            raise InvalidInputError(f"reference order {order!r} is not a sequence")
        order = [checked_index(i, "reference order entry") for i in order]
        if self.sir_matrix.shape[1] != n or sorted(order) != list(range(n)):
            raise InvalidInputError("need one reference per estimate, taken in a permuted order")
        sir = self.sir_matrix[:, order]
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


def _toeplitz(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The Toeplitz matrix with first column ``column`` and first row ``row``
    (``row[0]`` is ignored): entry (d, e) is ``column[d - e]`` for d >= e and
    ``row[e - d]`` otherwise. Row d is the window of ``column`` reversed
    followed by ``row[1:]`` that starts at ``n - 1 - d``; the strided view of
    those windows is copied out."""
    values = np.concatenate((column[::-1], row[1:]))
    return np.lib.stride_tricks.sliding_window_view(values, row.size)[::-1].copy()


_LEAF = 64  # order of the diagonal blocks whose factors are inverted explicitly


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, list]:
    """Lower Cholesky factor L of the symmetric positive definite ``a``,
    computed in place block column by block column, and the inverses of
    L's diagonal blocks of order ``_LEAF``. Each block column first loses
    what the columns before it explain; its diagonal block is then factored
    by ``np.linalg.cholesky`` and the rows below are multiplied by the
    inverse of that factor. Raises np.linalg.LinAlgError if ``a`` is not
    positive definite."""
    inverses = []
    for k in range(0, a.shape[0], _LEAF):
        e = k + _LEAF
        a[k:, k:e] -= a[k:, :k] @ a[k:e, :k].T
        a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        inverses.append(np.linalg.inv(a[k:e, k:e]))
        a[e:, k:e] = a[e:, k:e] @ inverses[-1].T
        a[k:e, e:] = 0.0
    return a, inverses


def _solve_lower(factor: tuple, b: np.ndarray) -> np.ndarray:
    """``L^-1 b`` for a factor ``(L, inverses)`` of :func:`_cholesky`, by
    forward substitution over its diagonal blocks."""
    lower, inverses = factor
    y = np.empty_like(b)
    for i, inverse in enumerate(inverses):
        k, e = i * _LEAF, (i + 1) * _LEAF
        np.matmul(inverse, b[k:e] - lower[k:e, :k] @ y[:k], out=y[k:e])
    return y


def _solve_upper(factor: tuple, y: np.ndarray) -> np.ndarray:
    """``L^-T y`` for a factor ``(L, inverses)`` of :func:`_cholesky`, by
    back substitution over its diagonal blocks."""
    lower, inverses = factor
    x = np.empty_like(y)
    for i in reversed(range(len(inverses))):
        k, e = i * _LEAF, (i + 1) * _LEAF
        np.matmul(inverses[i].T, y[k:e] - lower[e:, k:e].T @ x[e:], out=x[k:e])
    return x


def _cho_solve(factor: tuple, b: np.ndarray) -> np.ndarray:
    return _solve_upper(factor, _solve_lower(factor, b))


class ReferenceProjector:
    """Shared least-squares machinery for one set of references.

    Holds the Cholesky factors of the loaded Gram matrix ``G + load * I`` of
    delayed reference copies, for the full span and for each single-reference
    span, plus the references' own cross vectors (``ref_cross``, shaped
    (n_refs * flen, n_refs)), from which every block of G is built where it
    is used; no block of G is kept. Neither G nor its full factor is stored
    whole: the full factor L is kept as its span blocks, the diagonal ones
    in ``factor_full[i]`` and ``panels[i, j] = L[span_j, span_i].T`` for
    ``i < j``. Its first diagonal block is also the first reference's own
    factor, ``factor_single[0]``. Each factor is ``(lower, inverses)``, a
    lower triangular array and the inverses of its diagonal blocks of order
    64, through which every triangular solve is a short sequence of matrix
    products. Of the references themselves it keeps their spectra and their
    shape (``n_refs``, ``n_samples``), not their samples, so building one
    from a view keeps nothing of the array that view looks into.

    A projection is its coefficient vector c, and every energy is a
    quadratic form ``c @ G @ c`` whose Gram product the normal equations
    just solved give: c solves ``(G + load * I) c = cross``, so
    ``G @ c = cross - load * c`` on the span it was solved on, and only the
    off-diagonal blocks are multiplied, each built once per ``score`` call.
    No signal is re-synthesized. Build one per reference set and score every
    estimate with ``score``, which solves for all of its rows at once after
    correlating them one row at a time. A silent reference, or one that
    another's span explains to within ``COPY_MATCH`` of its energy (a scaled
    or delayed copy), raises DegenerateReferenceError. The projector needs
    numpy alone.
    """

    def __init__(self, references, filter_len: int = DEFAULT_FILTER_LEN):
        references = np.atleast_2d(checked_array(references, "references"))
        filter_len = checked_index(filter_len, "filter_len", low=1)
        if references.ndim != 2 or references.shape[0] < 1:
            raise InvalidInputError("references must be (n_refs, n_samples)")
        if references.shape[1] < 10 * filter_len:
            raise InvalidInputError(
                f"signals must span at least 10 * filter_len = {10 * filter_len} samples"
            )
        n_refs, n_samples = references.shape
        # the shape, not the samples: a view into a larger stack would keep
        # all of it alive
        self.n_refs, self.n_samples = n_refs, n_samples
        self.flen = filter_len
        # long enough that no lag within the filter wraps around
        self.n_fft = _smooth_length(n_samples + filter_len - 1)
        # finite samples can still overflow here; the check below rejects that
        with np.errstate(over="ignore", invalid="ignore"):
            self.spectra = np.fft.rfft(references, n=self.n_fft, axis=1)
            cross = self.ref_cross = self._cross(self.spectra)
        # every Gram entry is one of these correlations
        if not np.all(np.isfinite(cross)):
            raise InvalidInputError("metric inputs overflow the reference correlations")
        # a diagonal block's diagonal holds its reference's energy (see _block)
        energy = cross[np.arange(n_refs) * filter_len, np.arange(n_refs)]
        # G's trace, its diagonal summed entry by entry as np.trace sums it
        self.load = 1e-10 * np.repeat(energy, filter_len).sum() / (n_refs * filter_len)
        try:  # the correlations are checked finite above
            self._factor_full()
            # the first block's factor is also the first reference's own; the
            # others are factored from their blocks built again, not from
            # copies held through the full factor's Schur complements
            self.factor_single = [self.factor_full[0], *(
                _cholesky(self._loaded_block(j)) for j in range(1, n_refs))]
        except np.linalg.LinAlgError as exc:
            raise DegenerateReferenceError(
                "reference correlation system is not positive definite"
            ) from exc
        self._check_distinguishable()

    def _factor_full(self) -> None:
        """Factor the loaded Gram matrix span by span: each diagonal block
        minus what the earlier spans explain of it (its Schur complement),
        and the panels below it by forward substitution."""
        n_refs = self.n_refs
        loaded = [self._loaded_block(i) for i in range(n_refs)]
        self.factor_full, self.panels = [], {}
        for i in range(n_refs):
            factor = _cholesky(loaded[i])
            self.factor_full.append(factor)
            for j in range(i + 1, n_refs):
                rhs = self._block(i, j)
                for k in range(i):
                    rhs = rhs - self.panels[k, i].T @ self.panels[k, j]
                panel = self.panels[i, j] = _solve_lower(factor, rhs)
                # the spent right-hand side takes the product
                loaded[j] -= np.matmul(panel.T, panel, out=rhs)

    def _loaded_block(self, i: int) -> np.ndarray:
        """The diagonal block ``G[span_i, span_i] + load * I``."""
        block = self._block(i, i)
        block.flat[:: self.flen + 1] += self.load
        return block

    def _span(self, i: int) -> slice:
        return slice(i * self.flen, (i + 1) * self.flen)

    def _block(self, i: int, j: int) -> np.ndarray:
        """The Gram block ``G[span_i, span_j]``, ``i <= j``, built from the
        references' cross vectors where it is used: it is Toeplitz, its
        first column reference j's cross vector against the copies of
        reference i, its first row reference i's against those of j."""
        cross = self.ref_cross
        return _toeplitz(cross[self._span(i), j], cross[self._span(j), i])

    def _cross(self, spectra) -> np.ndarray:
        """Cross vectors of the signals whose ``rfft`` rows ``spectra`` holds
        or yields: column m holds the inner products of signal m with every
        delayed reference copy, reference by reference, shaped
        (n_refs * flen, n). The rows are correlated one at a time, so only
        one row's conjugate, product and ``irfft`` exist at once; no row is
        changed."""
        lags = -np.arange(self.flen)  # copy delayed by d: correlation lag -d
        conj, product = np.empty((2, self.spectra.shape[1]), np.complex128)
        columns = []
        for spectrum in spectra:
            np.conjugate(spectrum, out=conj)
            column = np.empty(self.n_refs * self.flen)
            for i in range(self.n_refs):
                np.multiply(self.spectra[i], conj, out=product)
                column[self._span(i)] = np.fft.irfft(product, n=self.n_fft)[lags]
            columns.append(column)
        return np.stack(columns, axis=1)

    def _solve_full(self, cross: np.ndarray) -> np.ndarray:
        """Coefficients on the full span: block forward substitution with the
        span blocks of the full factor, then block back substitution."""
        n_refs = self.n_refs
        forward = []
        for j in range(n_refs):
            rhs = cross[self._span(j)]
            for i in range(j):
                rhs = rhs - self.panels[i, j].T @ forward[i]
            forward.append(_solve_lower(self.factor_full[j], rhs))
        coeffs = [None] * n_refs
        for i in reversed(range(n_refs)):
            rhs = forward[i]
            for j in range(i + 1, n_refs):
                rhs = rhs - self.panels[i, j] @ coeffs[j]
            coeffs[i] = _solve_upper(self.factor_full[i], rhs)
        return np.concatenate(coeffs)

    def _project_single(self, cross: np.ndarray, j: int, energy: np.ndarray):
        """Project signals with cross vectors ``cross`` (one column each) and
        energies ``energy`` onto reference ``j``'s span: ``(coefficients,
        G[span, span] @ coefficients, target energies, leftover energies)``,
        the leftover being what that span leaves unexplained."""
        span = self._span(j)
        coeffs = _cho_solve(self.factor_single[j], cross[span])
        gram_coeffs = cross[span] - self.load * coeffs  # from the normal equations
        target = _column_dots(coeffs, gram_coeffs)
        return coeffs, gram_coeffs, target, energy - 2.0 * _column_dots(cross[span], coeffs) + target

    def _check_distinguishable(self) -> None:
        n_refs = self.n_refs
        energy = self.ref_cross[np.arange(n_refs) * self.flen, np.arange(n_refs)]
        leftover = [self._project_single(self.ref_cross, j, energy)[3] for j in range(n_refs)]
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
        estimates = checked_array(estimates, "estimates")
        if estimates.ndim != 2 or estimates.shape[1] != self.n_samples:
            raise InvalidInputError("estimate and references must have equal lengths")
        n_est, n_refs = estimates.shape[0], self.n_refs
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            cross = self._cross(np.fft.rfft(row, n=self.n_fft) for row in estimates)
        if not np.all(np.isfinite(cross)):
            raise InvalidInputError("metric inputs overflow the cross-correlations")
        energy = np.einsum("ij,ij->i", estimates, estimates)
        full = self._solve_full(cross)
        gram_full = cross - self.load * full  # G @ full, from the normal equations
        full_energy = _column_dots(full, gram_full)
        singles = [self._project_single(cross, j, energy) for j in range(n_refs)]
        # G[:, span_j] @ coeffs_j: its own span from the normal equations, each
        # other span through an off-diagonal block, built once per pair
        gram = [np.empty_like(cross) for _ in range(n_refs)]
        for j, (_, gram_single, _, _) in enumerate(singles):
            gram[j][self._span(j)] = gram_single
        for i, j in itertools.combinations(range(n_refs), 2):
            block = self._block(i, j)
            gram[j][self._span(i)] = block @ singles[j][0]
            gram[i][self._span(j)] = block.T @ singles[i][0]
            del block  # not held beside the next
        energies = np.empty((n_est, n_refs, 3))
        for j, (coeffs, _, target, distortion) in enumerate(singles):
            # the interference filter itself, so no two large energies cancel
            rest = full.copy()
            rest[self._span(j)] -= coeffs
            energies[:, j] = np.stack(
                (target, _column_dots(rest, gram_full - gram[j]), distortion), axis=1)
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
