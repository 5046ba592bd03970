"""Independent vector analysis with an optional directional prior.

The demixing stack holds one K x K matrix per frequency bin; row k of
``matrices[f]`` is the conjugate-transposed demixing vector for output
channel k, so demixing is ``y[f, n] = matrices[f] @ x[f, n]``.

The data come in two layouts only: the spectrogram's own (F, N, K), which
:func:`demix` multiplies by each bin's transposed stack without making a
transposed copy, and the solver loop's (N, K^2, F) Hermitian cache below.
Every Hermitian matrix of both solvers, the weighted covariances and the
prior matrices alike, comes in one layout only, the cache layout below.

Both solvers share one loop: from identity, each iteration applies the
solver's update, then reads the new stack's frame energies, which give the
cost-trace entry (IVA term plus the solver's penalty) and the next update's
weights. The loop never demixes: the demixed output is formed once, after the
last iteration. :func:`evaluate_cost`, :func:`demixed_energies` and
:func:`demix` demix directly and are the public oracles of the loop.

The data never change during a solve, so the loop holds them once, in no
other form than a real Hermitian cache. A Hermitian K x K matrix X is held in
the *cache layout*: the K diagonal entries, then the real and then the
imaginary parts of the K(K-1)/2 upper-triangle entries, K^2 reals per bin.
The cache holds ``x_n x_n^H`` of every frame and bin in that layout, frame
by frame: F*K^2*N real values, half the bytes of the frames' complex outer
products (about 2.6 MB for a 5 s stereo scene at 2048/1024). It is built a
block of frames at a time, each cross term in the real form by real ufuncs,
so its bits depend on neither the blocking nor the layout of the frames.
:class:`HermitianCache` carries it, built from a spectrogram or straight
from the signal's analysis blocks; either solver takes it in place of the
spectrogram, and a cache the solver builds itself is freed before the
output is demixed. One routine writes the cache and the K^2 real
coefficients ``c`` of a row ``a`` with ``a X a^H = c . X`` for any X in that
layout, through which every Hermitian form of the solvers goes. Two
real matrix products per iteration read the cache, and they are nearly all of
an iteration's memory traffic:

* the frame energies ``r_nk^2 = sum_f w_k^H x_n x_n^H w_k``, as the cache
  against the (K, K^2*F) form coefficients of W's rows (clamped at 0, since
  cancellation can leave a silent frame slightly negative);
* the weighted covariances ``V_k = mean_n phi(r_nk) x_n x_n^H`` of all K
  channels in the cache layout, as the N x K frame weights against the cache.

Inside the loop every per-bin array keeps the bins on its last axis: the
demixing stack as (K, K, F), so each elementwise operation runs over all F
bins at once. The MM sweep solves against ``V_k`` and normalizes each new
row by its form against the same system; those coefficients, rescaled, are
also the next energies' coefficients. The prior term of the cost is summed
in its nonnegative form ``(lambda_e ||w||^2 + |w^H h|^2) / sigma2`` per bin,
from each constrained row's squared norm and its response toward h, not as
a form in the cache layout: the constrained row nearly nulls h, so the
cache-layout terms would cancel to a fraction of their size. The gradient
step forms row k of its score ``E{phi(y) y^H}`` as ``W[k, :] V_k W^H``, with
``W[k, :] V_k`` read from the cache layout by the product that the MM row
solve also takes, for all K rows in one call. With two channels the MM row
solve and ``log|det W|`` are elementwise 2 x 2 adjugate formulas; larger
stacks use batched LAPACK. The K x K products are sums of K broadcast
products at every K, which beat batched matmul on stacks this small.

* :func:`run_informed_iva` performs majorize-minimize row updates; channels
  listed in the prior are updated against the covariance plus the
  direction-penalizing prior matrix, all other channels against the
  covariance alone. With no prior this is exactly the plain
  auxiliary-function IVA (same code path).
* :func:`run_gradient_iva` is the gradient-based baseline: natural-gradient
  steps on the IVA cost plus a quadratic penalty steering a unit response
  toward a target direction per constrained channel.
* :func:`project_back` resolves the scaling ambiguity afterwards;
  :func:`demix_and_project` demixes and projects back in place.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (CostOverflowError, InvalidInputError, SingularUpdateError, checked_array,
                     checked_index, checked_scalar)
from .scene import ArrayGeometry, steering_stack
from .stft import ComplexSpectrogram, StftConfig, analysis_blocks

_LOG_DET_FLOOR = math.log(1e-300)
# frames of the Hermitian cache built at a time, as analysis transforms them,
# and bins demixed in place at a time
_BLOCK_FRAMES = 8
_BLOCK_BINS = 16
# the largest 1 - |r01|^2 / (r00 r11) of a bin whose channels are linearly dependent
_RANK_FLOOR = 1e-10
# each source model weight column's magnitude floor, relative to the column's RMS
_WEIGHT_FLOOR = 1e-8


@dataclass(frozen=True)
class SourceModel:
    """Laplacian spherical source prior: contrast ``G(r) = r`` and
    contribution weight ``G'(r)/r``.

    ``weight(r)`` of magnitudes shaped (N,) or (N, K), one column per
    channel, is C-contiguous ``1 / max(r, floor)``; each column's floor is
    1e-8 times its RMS (1e-8 for a silent column), so near-silent frames
    cannot blow up the statistics and the weights scale as 1/gain.
    """

    def weight(self, r) -> np.ndarray:
        r = np.atleast_1d(checked_array(r, "magnitudes"))
        rms = np.sqrt((r**2).sum(axis=0) / max(r.shape[0], 1))
        floor = np.where(rms > 0.0, _WEIGHT_FLOOR * rms, _WEIGHT_FLOOR)
        return np.ascontiguousarray(1.0 / np.maximum(r, floor))


@dataclass
class DemixingStack:
    """Per-bin demixing matrices, shape (n_bins, K, K)."""

    matrices: np.ndarray

    def __post_init__(self) -> None:
        w = checked_array(self.matrices, "demixing stack", np.complex128)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise InvalidInputError("demixing stack must be (n_bins, K, K)")
        self.matrices = w

    @classmethod
    def identity(cls, n_bins: int, n_channels: int) -> "DemixingStack":
        eye = np.eye(checked_index(n_channels, "n_channels"), dtype=np.complex128)
        return cls(np.tile(eye, (checked_index(n_bins, "n_bins"), 1, 1)))

    def copy(self) -> "DemixingStack":
        return DemixingStack(self.matrices.copy())

    @property
    def n_bins(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_channels(self) -> int:
        return self.matrices.shape[1]

    def min_abs_det(self) -> float:
        return float(np.min(np.abs(np.linalg.det(self.matrices))))


def _constraint_pairs(channels, doas) -> tuple[tuple, tuple]:
    """Constrained channels and their DOAs as int and float tuples; raises
    InvalidInputError unless the channels are unique indices and each has
    one DOA."""
    channels = tuple(checked_index(k, "constrained channel") for k in channels)
    doas = tuple(float(d) for d in np.atleast_1d(checked_array(doas, "DOAs")))
    if len(set(channels)) != len(channels):
        raise InvalidInputError("constrained channels must be unique")
    if len(doas) != len(channels):
        raise InvalidInputError(f"need one DOA per constrained channel, got "
                                f"{len(doas)} for {len(channels)}")
    return channels, doas


@dataclass
class PriorConfig:
    """Directional prior: which channels are constrained, the direction each
    one suppresses, per-bin prior variances and the Tikhonov weight.

    ``sigma2_per_bin`` is the frame-count-folded variance (the experiment
    default is a constant 40), ``lambda_e`` penalizes filter energy and makes
    the prior matrix positive definite when nonzero.
    """

    constrained_channels: tuple
    doa_per_channel: tuple
    sigma2_per_bin: np.ndarray
    lambda_e: float
    geometry: ArrayGeometry

    def __post_init__(self) -> None:
        channels, doas = _constraint_pairs(self.constrained_channels, self.doa_per_channel)
        sigma2 = checked_array(self.sigma2_per_bin, "sigma2_per_bin")
        if sigma2.ndim != 1 or np.any(sigma2 <= 0):
            raise InvalidInputError("sigma2_per_bin must be a positive 1-D array")
        self.lambda_e = checked_scalar(self.lambda_e, "lambda_e", low=0.0)
        _check_prior_scale(sigma2, self.lambda_e)
        self.constrained_channels = channels
        self.doa_per_channel = doas
        self.sigma2_per_bin = sigma2

    @classmethod
    def constant(cls, constrained_channels, doa_per_channel, geometry: ArrayGeometry,
                 n_bins: int, sigma2: float = 40.0, lambda_e: float = 1e-3) -> "PriorConfig":
        """Constant prior variance across bins (the experiment default)."""
        sigma2, lambda_e = checked_prior_scale(sigma2, lambda_e)
        return cls(tuple(constrained_channels), tuple(np.atleast_1d(doa_per_channel)),
                   np.full(checked_index(n_bins, "n_bins"), sigma2), lambda_e, geometry)


@dataclass
class CostTrace:
    """Per-iteration cost values; entry 0 is the initial point."""

    j_iva: np.ndarray
    j_prior: np.ndarray

    def __post_init__(self) -> None:
        a, b = checked_array(self.j_iva, "j_iva"), checked_array(self.j_prior, "j_prior")
        if a.shape != b.shape or a.ndim != 1:
            raise InvalidInputError("cost trace components must be 1-D and equally long")
        self.j_iva, self.j_prior = a, b

    @property
    def total(self) -> np.ndarray:
        return self.j_iva + self.j_prior

    def normalized_iva(self) -> np.ndarray:
        j0 = self.j_iva[0] if self.j_iva.size and self.j_iva[0] != 0.0 else 1.0
        return self.j_iva / j0


def _check_prior_scale(sigma2, lambda_e: float, h=None) -> None:
    # raises InvalidInputError naming sigma2 unless (lambda_e + max |h_i|^2)
    # / sigma2, the largest entry of a prior matrix (lambda_e I + h h^H) /
    # sigma2, is finite; steering vectors, the default h, have |h_i| = 1
    smallest = np.min(sigma2)
    with np.errstate(over="ignore"):
        peak = 1.0 if h is None else np.max(np.square(np.abs(h)), initial=0.0)
        largest = (lambda_e + peak) / smallest
    if not np.isfinite(largest):
        raise InvalidInputError(f"sigma2 {float(smallest)} overflows the prior matrix "
                                f"(lambda_e I + h h^H) / sigma2")


def checked_prior_scale(sigma2: float, lambda_e: float, h=None) -> tuple[float, float]:
    """``(sigma2, lambda_e)`` as floats, checked by the one input rule:
    sigma2 in (0, inf), lambda_e in [0, inf), and the prior matrix
    ``(lambda_e I + h h^H) / sigma2`` of ``h`` (by default any steering
    vector) finite. Raises InvalidInputError naming the value at fault."""
    sigma2 = checked_scalar(sigma2, "sigma2", low=0.0, strict=True)
    lambda_e = checked_scalar(lambda_e, "lambda_e", low=0.0)
    _check_prior_scale(sigma2, lambda_e, h)
    return sigma2, lambda_e


def _prior_formula(h: np.ndarray, sigma2, lambda_e: float) -> np.ndarray:
    # (lambda_e * I + h h^H) / sigma2 over the leading axes of h (..., M) and sigma2
    outer = h[..., :, None] * h[..., None, :].conj()
    return (lambda_e * np.eye(h.shape[-1]) + outer) / np.asarray(sigma2)[..., None, None]


def prior_matrix(h: np.ndarray, sigma2: float, lambda_e: float) -> np.ndarray:
    """Prior matrix ``(lambda_e * I + h h^H) / sigma2`` for one bin."""
    h = checked_array(h, "steering vector", np.complex128)
    if h.ndim != 1:
        raise InvalidInputError("steering vector must be 1-D")
    sigma2, lambda_e = checked_prior_scale(sigma2, lambda_e, h)
    return _prior_formula(h, sigma2, lambda_e)


def _demix_data(data: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    # y[f, n, k] = sum_j matrices[f, k, j] x[f, n, j], both in (F, N, K) layout
    return np.matmul(data, matrices.transpose(0, 2, 1))


def _frame_energies(y: np.ndarray) -> np.ndarray:
    # r[n, k] = ||y[:, n, k]||_2 over all bins, from (F, N, K) outputs
    return np.sqrt(np.sum(np.abs(y) ** 2, axis=0))


def _bins_last(matrices: np.ndarray) -> np.ndarray:
    # (F, K, K) stack -> C-contiguous (K, K, F) copy
    return np.ascontiguousarray(matrices.transpose(1, 2, 0))


def _upper_pairs(n_ch: int) -> list[tuple[int, int]]:
    # the (i, j), i < j, of a K x K upper triangle, in the cache layout's order
    return [(i, j) for i in range(n_ch) for j in range(i + 1, n_ch)]


def _pair_products(x: np.ndarray, re_scale: float, im_scale: float, out=None,
                   scratch=None) -> np.ndarray:
    # (..., K^2, F) reals in the cache layout's order from (..., K, F) x: |x_i|^2,
    # then re_scale Re and im_scale Im of x_i conj(x_j) per pair i < j, into
    # out if given. Every entry comes from real ufuncs in the real form
    # (a.re b.re + a.im b.im, a.im b.re - a.re b.im), whose bits do not depend
    # on x's layout or on how its leading axes are blocked, as a complex
    # product's can. scratch, a (..., F) buffer, is the only temporary.
    n_ch = x.shape[-2]
    pairs = _upper_pairs(n_ch)
    if out is None:
        out = np.empty(x.shape[:-2] + (n_ch * n_ch, x.shape[-1]))
    if scratch is None:
        scratch = np.empty(x.shape[:-2] + x.shape[-1:])
    re, im = x.real, x.imag
    for i in range(n_ch):
        np.square(re[..., i, :], out=out[..., i, :])
        out[..., i, :] += np.square(im[..., i, :], out=scratch)
    for p, (i, j) in enumerate(pairs):
        real, imag = out[..., n_ch + p, :], out[..., n_ch + len(pairs) + p, :]
        np.multiply(re[..., i, :], re[..., j, :], out=real)
        real += np.multiply(im[..., i, :], im[..., j, :], out=scratch)
        real *= re_scale
        np.multiply(im[..., i, :], re[..., j, :], out=imag)
        imag -= np.multiply(re[..., i, :], im[..., j, :], out=scratch)
        imag *= im_scale
    return out


def _hermitian_cache(data: np.ndarray) -> np.ndarray:
    # (N, K^2, F) cache of x x^H per frame and bin, from (F, N, K)
    # spectrogram data, a block of frames at a time
    n_bins, n_frames, n_ch = data.shape
    blocks = ((lo, data[:, lo : lo + _BLOCK_FRAMES].transpose(1, 2, 0))
              for lo in range(0, n_frames, _BLOCK_FRAMES))
    return _cache_of_blocks(n_frames, n_ch, n_bins, blocks)


def _cache_of_blocks(n_frames: int, n_ch: int, n_bins: int, blocks) -> np.ndarray:
    # the (N, K^2, F) cache, each frame in the cache layout, filled from
    # blocks of (first frame, (frames, K, F) spectra) through one scratch
    # buffer. C-contiguous, so its flat (N, K^2*F) view costs no copy per
    # iteration, and frame-major, the order in which BLAS streams it fastest
    # through both GEMMs. An overflow shows in the solver's first cost.
    cache = np.empty((n_frames, n_ch * n_ch, n_bins))
    scratch = None  # sized by the first block, the largest
    with np.errstate(over="ignore", invalid="ignore"):
        for first, x in blocks:
            if scratch is None:
                scratch = np.empty((len(x), n_bins))
            _pair_products(x, 1.0, 1.0, cache[first : first + len(x)], scratch[: len(x)])
    return cache


@dataclass(frozen=True)
class HermitianCache:
    """All that the solvers read of an analyzed mixture: ``x_n x_n^H`` of
    every frame and bin, as (N, K^2, F) reals in the cache layout (see the
    module docstring), with the STFT configuration that analyzed it.

    Build it with :meth:`from_spectrogram`, or with :meth:`from_signal` a
    block of frames at a time, so that no spectrogram exists beside it. The
    two are equal bit for bit, as is a cache of any other frame blocking.
    A solver given a cache returns no demixed spectrogram.
    """

    data: np.ndarray
    config: StftConfig

    def __post_init__(self) -> None:
        data = self.data
        n_ch = math.isqrt(data.shape[1]) if isinstance(data, np.ndarray) and data.ndim == 3 else 0
        if (n_ch < 1 or data.dtype != np.float64
                or data.shape[1:] != (n_ch * n_ch, self.config.n_bins)):
            raise InvalidInputError("Hermitian cache must be a float64 (frames, K^2, n_bins) array")

    @classmethod
    def from_spectrogram(cls, spec: ComplexSpectrogram) -> "HermitianCache":
        if not isinstance(spec, ComplexSpectrogram):
            raise InvalidInputError("from_spectrogram expects a ComplexSpectrogram")
        return cls(_hermitian_cache(spec.data), spec.config)

    @classmethod
    def from_signal(cls, signal, config: StftConfig) -> "HermitianCache":
        """The cache of ``analyze(signal, config)``, built from its analysis
        blocks: beside the cache, only one block of frames is held."""
        n_frames, n_ch, blocks = analysis_blocks(signal, config)
        return cls(_cache_of_blocks(n_frames, n_ch, config.n_bins, blocks), config)

    @property
    def n_channels(self) -> int:
        return math.isqrt(self.data.shape[1])

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]


def _cache_layout(matrices: np.ndarray) -> np.ndarray:
    # (K^2, F) cache layout of an (F, K, K) Hermitian stack, from its upper triangle
    n_ch = matrices.shape[1]
    rows, cols = np.triu_indices(n_ch, 1)
    upper = matrices[:, rows, cols].T
    diagonal = np.diagonal(matrices, axis1=1, axis2=2).T
    return np.concatenate([diagonal.real, upper.real, upper.imag])


def _form_coefficients(rows: np.ndarray) -> np.ndarray:
    # the (..., K^2, F) real c with a X a^H = sum_r c[..., r, f] h[r, f] for
    # every row a = rows[..., :, f] and Hermitian X in the cache layout h:
    # |a_i|^2 on the diagonal, 2 Re and -2 Im of a_i conj(a_j) for a pair
    return _pair_products(rows, 2.0, -2.0)


def _cache_energies(cache: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # r[n, k] = sqrt(sum_f w_k^H x_n x_n^H w_k) from the (K, K^2, F) form
    # coefficients of a stack's rows w_k^H: one (N, K^2*F) x (K^2*F, K) GEMM
    # of the cache against them. Cancellation can leave a silent frame's
    # square slightly negative, hence the clamp at 0.
    squares = cache.reshape(cache.shape[0], -1) @ coef.reshape(coef.shape[0], -1).T
    return np.sqrt(np.maximum(squares, 0.0))


def demix(spec: ComplexSpectrogram, w: DemixingStack) -> ComplexSpectrogram:
    """Apply the demixing stack to a spectrogram."""
    _check_shapes(spec, w)
    return ComplexSpectrogram(_demix_data(spec.data, w.matrices), spec.config)


def _check_shapes(spec: ComplexSpectrogram, w: DemixingStack) -> None:
    if w.n_bins != spec.n_bins or w.n_channels != spec.n_channels:
        raise InvalidInputError(
            f"demixing stack {w.matrices.shape} does not match spectrogram "
            f"{spec.data.shape}"
        )


def demixed_energies(spec: ComplexSpectrogram, w: DemixingStack, channel: int) -> np.ndarray:
    """Broadband frame magnitudes ``r_n = ||y_n||_2`` of one output channel."""
    _check_shapes(spec, w)
    channel = checked_index(channel, "channel", high=spec.n_channels)
    return _frame_energies(_demix_data(spec.data, w.matrices))[:, channel]


def _weighted_covariances(cache: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # V_c = mean_n weights[n, c] x_n x_n^H for every weight column c, in the
    # cache layout: (C, K^2, F) from one real GEMM against the cache
    n_frames = cache.shape[0]
    v = (weights / n_frames).T @ cache.reshape(n_frames, -1)
    return v.reshape((-1,) + cache.shape[1:])


def weighted_covariance(spec: ComplexSpectrogram, energies, model: SourceModel, f: int) -> np.ndarray:
    """Frame-weighted microphone covariance of bin ``f``.

    The weights are the source-model contributions ``G'(r_n)/r_n`` of the
    channel under update, evaluated from the supplied broadband energies.
    """
    f = checked_index(f, "bin index", high=spec.n_bins)
    energies = checked_array(energies, "energy vector")
    if energies.shape != (spec.n_frames,):
        raise InvalidInputError("energies must hold one value per frame")
    x = spec.data[f]
    return (model.weight(energies)[:, None] * x).T @ x.conj() / spec.n_frames


def _times_hermitian(matrices: np.ndarray, h: np.ndarray) -> np.ndarray:
    # W M per bin for bins-last (R, K, F) rows W and Hermitian M in the
    # (K^2, F) cache layout, column by column: A[:, j] = sum_l W[:, l] M[l, j].
    # An (R, K^2, F) h gives each row r its own M[r].
    n_ch = matrices.shape[-2]
    pairs = _upper_pairs(n_ch)
    entries = {}  # the off-diagonal M[l, j] as complex (..., F) arrays
    for p, (i, j) in enumerate(pairs):
        m = np.empty(h.shape[:-2] + h.shape[-1:], dtype=np.complex128)
        m.real, m.imag = h[..., n_ch + p, :], h[..., n_ch + len(pairs) + p, :]
        entries[i, j], entries[j, i] = m, m.conj()
    a = np.empty_like(matrices)
    for j in range(n_ch):
        np.multiply(matrices[:, j], h[..., j, :], out=a[:, j])
        for l in range(n_ch):
            if l != j:
                a[:, j] += matrices[:, l] * entries[l, j]
    return a


def _inverse_columns(matrices: np.ndarray, systems: np.ndarray, channel: int) -> np.ndarray:
    """Column ``channel`` of ``(W_f M_f)^-1`` per bin, for a bins-last
    (K, K, F) W and Hermitian M in the (K^2, F) cache layout: the (K, F)
    solution of ``(W_f M_f) u = e_k``; a bin without one comes back
    non-finite.

    Two channels take the adjugate column of ``W_f M_f`` over its
    determinant. Larger stacks run a batched LU, which locates the bins with
    an exact zero pivot only when the batch meets one.
    """
    a = _times_hermitian(matrices, systems)
    if a.shape[0] == 2:
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        # (a11, -a10) / det for channel 0, (-a01, a00) / det for channel 1
        other = a[1 - channel]
        u = np.empty((2, det.shape[0]), dtype=np.complex128)
        np.divide(other[1], det, out=u[0])
        np.divide(other[0], det, out=u[1])
        u[1 - channel] *= -1.0
        return u
    a = a.transpose(2, 0, 1)
    rhs = np.zeros(a.shape[:2] + (1,), dtype=np.complex128)
    rhs[:, channel, 0] = 1.0
    try:
        return np.linalg.solve(a, rhs)[:, :, 0].T
    except np.linalg.LinAlgError:
        ok = np.abs(np.linalg.det(a)) > 0.0
        u = np.full(a.shape[:2], np.nan, dtype=np.complex128)
        u[ok] = np.linalg.solve(a[ok], rhs[ok])[:, :, 0]
        return u.T


def _unusable(quad: np.ndarray) -> np.ndarray:
    # bins whose w^H M w is not finite and positive (a non-finite w always
    # gives a non-finite form); two reductions clear the usual all-usable case
    if quad.min() > 0.0 and quad.max() < np.inf:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~(quad > 0.0) | np.isinf(quad))


def _solve_rows(matrices: np.ndarray, systems: np.ndarray, channel: int,
                context: str = "") -> np.ndarray:
    """Replaces row ``channel`` of a bins-last (K, K, F) demixing stack in
    place and returns the new row's (K^2, F) form coefficients.

    Solves ``(W_f M_f) w = e_k`` per bin, for Hermitian ``M_f`` given in the
    (K^2, F) cache layout, and stores the rows ``w^H`` rescaled so that
    ``w^H M_f w = 1``. The bins whose form ``w^H M_f w`` is not finite
    and positive are retried once, together, with a small trace-scaled
    diagonal load on ``M_f``; a bin that fails again raises a
    SingularUpdateError. Run under ``np.errstate(all="ignore")``: a bin
    without a usable solution is retried, not warned about.
    """
    n_ch = matrices.shape[0]
    rows = _inverse_columns(matrices, systems, channel).conj()
    coef = _form_coefficients(rows)
    quad = np.einsum("rf,rf->f", coef, systems)  # w^H M_f w
    bad = _unusable(quad)
    if bad.size:
        m = systems[:, bad]
        m[:n_ch] += 1e-10 * np.sum(m[:n_ch], axis=0) / n_ch
        rows[:, bad] = _inverse_columns(matrices[:, :, bad], m, channel).conj()
        coef[:, bad] = _form_coefficients(rows[:, bad])
        quad[bad] = np.einsum("rf,rf->f", coef[:, bad], m)
        failed = bad[_unusable(quad[bad])]
        if failed.size:
            raise SingularUpdateError(
                f"singular update system at bin {failed[0]}, channel {channel}{context}"
            )
    inverse = 1.0 / quad
    scale = np.sqrt(inverse)
    new = matrices[channel]
    np.multiply(rows.real, scale, out=new.real)
    np.multiply(rows.imag, scale, out=new.imag)
    return np.multiply(coef, inverse, out=coef)


def update_constrained(w: DemixingStack, cov: np.ndarray, prior_mat: np.ndarray,
                       f: int, channel: int) -> np.ndarray:
    """Majorize-minimize row update of bin ``f`` against covariance plus prior
    matrix: replaces row ``channel`` in place and returns the new demixing
    vector, normalized so that ``w^H (V + D) w = 1``."""
    f = checked_index(f, "bin index", high=w.n_bins)
    channel = checked_index(channel, "channel", high=w.n_channels)
    cov = checked_array(cov, "covariance", np.complex128)
    prior_mat = checked_array(prior_mat, "prior matrix", np.complex128)
    if cov.shape != (w.n_channels, w.n_channels):
        raise InvalidInputError("covariance must be K x K")
    if prior_mat.shape != cov.shape:
        raise InvalidInputError("prior matrix shape must match covariance")
    matrices = _bins_last(w.matrices[f : f + 1])
    with np.errstate(all="ignore"):
        _solve_rows(matrices, _cache_layout((cov + prior_mat)[None]), channel)
    w.matrices[f, channel, :] = matrices[channel, :, 0]
    return matrices[channel, :, 0].conj()


def update_unconstrained(w: DemixingStack, cov: np.ndarray, f: int, channel: int) -> np.ndarray:
    """Majorize-minimize row update without a prior, normalized so that
    ``w^H V w = 1``: :func:`update_constrained` with a zero prior matrix."""
    return update_constrained(w, cov, np.zeros_like(cov), f, channel)


def _log_abs_det(matrices: np.ndarray) -> np.ndarray:
    # log|det W_f| per bin of a bins-last (K, K, F) stack: elementwise for
    # 2 x 2 stacks, batched LU otherwise; an exactly singular bin gives -inf
    # (and a divide warning unless ignored), a 2 x 2 product that overflows +inf
    if matrices.shape[0] == 2:
        det = matrices[0, 0] * matrices[1, 1] - matrices[0, 1] * matrices[1, 0]
        return np.log(np.abs(det))
    return np.linalg.slogdet(matrices.transpose(2, 0, 1))[1]


def _iva_cost(r: np.ndarray, matrices: np.ndarray) -> float:
    # averaged Laplacian contrast G(r) = r of the (N, K) frame energies minus
    # twice the log-determinants of the bins-last stack
    logdet = _log_abs_det(matrices)
    if logdet.min() < _LOG_DET_FLOOR:
        raise CostOverflowError("demixing determinant below 1e-300")
    return float(r.sum()) / r.shape[0] - 2.0 * float(logdet.sum())


def _steering_field(channels, doas, geometry: ArrayGeometry,
                    spec: ComplexSpectrogram) -> dict[int, np.ndarray]:
    # each constrained channel's C-contiguous (K, F) steering vectors toward
    # its DOA, after checking the channels and geometry against spec
    for k in channels:
        checked_index(k, "constrained channel", high=spec.n_channels)
    if geometry.n_mics != spec.n_channels:
        raise InvalidInputError(f"geometry has {geometry.n_mics} mics, "
                                f"spectrogram has {spec.n_channels} channels")
    return {k: np.ascontiguousarray(steering_stack(d, geometry, spec.config).T)
            for k, d in zip(channels, doas)}


class _Prior(NamedTuple):
    """One constrained channel's prior matrices D_f = (lambda_e I + h_f
    h_f^H) / sigma2_f: in the (K^2, F) cache layout for the row solves, and
    as their parts, the (K, F) steering vectors h and the weights, for the
    cost."""

    matrices: np.ndarray
    steering: np.ndarray
    lambda_e: float
    sigma2: np.ndarray


def _priors(prior: PriorConfig | None, spec: ComplexSpectrogram) -> dict[int, _Prior]:
    """The priors of the constrained channels, checked against ``spec``."""
    if prior is None or not prior.constrained_channels:
        return {}
    field = _steering_field(prior.constrained_channels, prior.doa_per_channel,
                            prior.geometry, spec)
    sigma2 = prior.sigma2_per_bin
    if sigma2.shape[0] != spec.n_bins:
        raise InvalidInputError(
            f"sigma2_per_bin has {sigma2.shape[0]} entries, expected {spec.n_bins}")
    return {channel: _Prior(_cache_layout(_prior_formula(h.T, sigma2, prior.lambda_e)), h,
                            prior.lambda_e, sigma2)
            for channel, h in field.items()}


def _prior_cost(w: np.ndarray, coef: np.ndarray, priors: dict[int, _Prior]) -> float:
    # sum over bins of w_k^H D_k w_k = (lambda_e ||w_k||^2 + |w_k^H h_k|^2) /
    # sigma2, a sum of nonnegative terms, for the bins-last (K, K, F) stack w
    # whose rows have the (K, K^2, F) form coefficients coef: their first K
    # entries are the rows' squared moduli
    n_ch = w.shape[0]
    total = 0.0
    for channel, p in priors.items():
        response = _response(w[channel], p.steering)
        terms = p.lambda_e * np.sum(coef[channel, :n_ch], axis=0)
        terms += np.square(response.real) + np.square(response.imag)
        total += float(np.sum(terms / p.sigma2))
    return total


def evaluate_cost(spec: ComplexSpectrogram, w: DemixingStack, model: SourceModel,
                  prior: PriorConfig | None = None) -> tuple[float, float]:
    """Source-separation cost split into its IVA and prior terms.

    The IVA term is the averaged Laplacian contrast ``G(r) = r`` of the
    outputs' frame energies minus twice the summed log-magnitude
    determinants; the prior term is the nonnegative quadratic form of the
    constrained rows against their prior matrices.
    """
    _check_shapes(spec, w)
    r = _frame_energies(_demix_data(spec.data, w.matrices))
    matrices = w.matrices.transpose(1, 2, 0)
    with np.errstate(divide="ignore"):  # a singular bin fails the determinant floor
        j_iva = _iva_cost(r, matrices)
    return j_iva, _prior_cost(matrices, _form_coefficients(matrices), _priors(prior, spec))


def _check_degenerate(total: np.ndarray, solver: str) -> None:
    """Raises SingularUpdateError if ``total``, the (K^2, F) frame sum of
    the cache, shows a mixture no update can separate. First if no channel
    has power in any bin, as for an all-zero mixture, whose every update
    system is zero. Then if the channels are linearly dependent in more than
    half of the bins where every channel has power, as copies of one
    channel are: ``1 - |r01|^2 / (r00 r11)`` for two channels, the ratio of
    the smallest to the largest eigenvalue for more, is at most 1e-10 there.
    Bins without power, and bins whose sum overflowed, are left to the
    solver."""
    n_ch = math.isqrt(total.shape[0])
    power = total[:n_ch] > 0.0
    if not np.any(power):
        raise SingularUpdateError(f"{solver} input is silent: no channel has power "
                                  f"in any of its {total.shape[1]} bins")
    if n_ch < 2:
        return
    powered = np.all(power, axis=0)
    with np.errstate(all="ignore"):
        if n_ch == 2:
            r00, r11, re, im = total
            independence = 1.0 - (re / r00) * (re / r11) - (im / r00) * (im / r11)
        else:
            independence = np.full(total.shape[1], np.nan)
            usable = powered & np.all(np.isfinite(total), axis=0)
            eye = np.repeat(np.eye(n_ch, dtype=np.complex128)[:, :, None],
                            np.count_nonzero(usable), axis=2)
            # the summed covariances as (K, K, F) matrices I M, eigenvalues ascending
            eig = np.linalg.eigvalsh(_times_hermitian(eye, total[:, usable]).transpose(2, 0, 1))
            independence[usable] = eig[:, 0] / eig[:, -1]
    n_powered = np.count_nonzero(powered)
    dependent = np.count_nonzero(powered & (independence <= _RANK_FLOOR))
    if 2 * dependent > n_powered:
        raise SingularUpdateError(
            f"{solver} input is rank deficient: its channels are linearly dependent "
            f"in {dependent} of the {n_powered} bins with power")


def _check_data(spec) -> None:
    if not isinstance(spec, (ComplexSpectrogram, HermitianCache)):
        raise InvalidInputError("solver data must be a ComplexSpectrogram or a HermitianCache")


def _solve(spec, model: SourceModel, iterations: int, update, penalty, callback,
           solver: str) -> tuple[DemixingStack, ComplexSpectrogram | None, CostTrace]:
    # spec is a ComplexSpectrogram or a HermitianCache; update(it, w, cov)
    # returns the next bins-last (K, K, F) array and the (K, K^2, F) form
    # coefficients of its rows, from w and the (K, K^2, F) cache-layout
    # weighted covariances cov[k] of w's outputs; penalty(w, coef) fills the
    # trace's second column and is taken for every stack before an update
    # starts from it; solver names the algorithm in an error
    iterations = checked_index(iterations, "iterations")
    w = _bins_last(DemixingStack.identity(spec.n_bins, spec.n_channels).matrices)
    coef = _form_coefficients(w)
    cache = spec.data if isinstance(spec, HermitianCache) else _hermitian_cache(spec.data)
    with np.errstate(all="ignore"):  # an overflowed sum is left to the solver
        total = cache.sum(axis=0)
    _check_degenerate(total, solver)
    trace = []  # (IVA term, penalty) per iteration, entry 0 at identity
    for it in range(iterations + 1):
        with np.errstate(all="ignore"):  # a bad update shows in the cost or a retry
            if it:
                w, coef = update(it, w, _weighted_covariances(cache, model.weight(r)))
            r = _cache_energies(cache, coef)
            try:
                entry = (_iva_cost(r, w), penalty(w, coef))
            except CostOverflowError as exc:
                raise CostOverflowError(f"{solver} {exc} at iteration {it}") from None
        if not (math.isfinite(entry[0]) and math.isfinite(entry[1])):
            raise CostOverflowError(f"{solver} cost is not finite at iteration {it}")
        trace.append(entry)
        if it and callback is not None:
            callback(it, DemixingStack(w.transpose(2, 0, 1).copy()))
    del cache  # a cache built here is not held while the output is demixed
    stack = DemixingStack(np.ascontiguousarray(w.transpose(2, 0, 1)))
    demixed = None if isinstance(spec, HermitianCache) else demix(spec, stack)
    return stack, demixed, CostTrace(*np.array(trace).T)


def run_informed_iva(spec: ComplexSpectrogram | HermitianCache, prior: PriorConfig | None,
                     model: SourceModel, iterations: int,
                     callback=None) -> tuple[DemixingStack, ComplexSpectrogram | None, CostTrace]:
    """Majorize-minimize demixing estimation with an optional directional prior.

    Starts from identity matrices and sweeps channels sequentially; every
    bin of a channel gets a fresh weighted covariance from that channel's
    broadband energies and a row update (constrained for channels in the
    prior, unconstrained otherwise). The returned trace holds the cost
    after every iteration, entry 0 being the initial point, and the total
    cost is non-increasing.

    ``callback(l, stack)``, if given, is invoked after each iteration with a
    snapshot of the current demixing stack.

    ``spec`` is the analyzed mixture or its :class:`HermitianCache`, which
    is all the solve reads. Returns ``(stack, demixed, trace)``; the demixed
    spectrogram is None when given a cache. A silent input, and channels
    that are linearly dependent in most bins, raise SingularUpdateError
    before the first iteration.
    """
    _check_data(spec)
    if spec.n_channels < 1:
        raise InvalidInputError("need at least one channel")
    priors = _priors(prior, spec)

    def sweep(it, w, covs):
        # Channel k's energies depend on row k alone, which no earlier
        # channel of the sweep changes, so every channel's covariance comes
        # from the iteration's one pass over the cache. Each row solve also
        # gives the form coefficients of its new row, which the next
        # energies and the prior term read.
        coef = np.empty(covs.shape)
        for channel in range(spec.n_channels):
            # The tight majorizer of the contrast term carries a factor 1/2
            # on the weighted covariance (r <= r^2/(2 r0) + r0/2); using it
            # keeps the total cost non-increasing. The prior term is exact
            # and enters with its own coefficient.
            systems = 0.5 * covs[channel]
            if channel in priors:
                systems += priors[channel].matrices
            coef[channel] = _solve_rows(w, systems, channel, context=f", iteration {it}")
        return w, coef

    return _solve(spec, model, iterations, sweep,
                  lambda w, coef: _prior_cost(w, coef, priors), callback,
                  "gc-aux" if priors else "aux")


def _response(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    # w^H h per bin, for (K, F) rows w^H and steering vectors h
    out = rows[0] * h[0]
    for j in range(1, rows.shape[0]):
        out += rows[j] * h[j]
    return out


def _residual(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    # w^H h - 1 per bin, for (K, F) rows w^H and steering vectors h
    return _response(rows, h) - 1.0


def _penalty_row(rows: np.ndarray, h: np.ndarray, constraint_weight: float) -> np.ndarray:
    # the (K, F) row of penalty_gradient for (K, F) rows w^H and steering
    # vectors h: 2 c (w^H h - 1) conj(h)
    return (2.0 * constraint_weight * _residual(rows, h)) * h.conj()


def penalty_gradient(w: DemixingStack, h_field: dict[int, np.ndarray],
                     constraint_weight: float) -> np.ndarray:
    """Gradient of ``constraint_weight * sum_k |w_k^H h_k - 1|^2`` w.r.t. the
    stored rows, in the real/imaginary (Wirtinger, factor two) convention so
    it matches finite differences on the real and imaginary parts directly.
    """
    constraint_weight = checked_scalar(constraint_weight, "constraint_weight", low=0.0)
    matrices = w.matrices.transpose(1, 2, 0)
    grad = np.zeros_like(w.matrices)
    for channel, h in _check_field(w, h_field).items():
        grad[:, channel] = _penalty_row(matrices[channel], h, constraint_weight).T
    return grad


def _check_field(w: DemixingStack, h_field: dict) -> dict[int, np.ndarray]:
    # the (n_bins, K) steering stacks of h_field, checked against w, as
    # C-contiguous complex (K, n_bins) arrays
    field = {}
    for channel, h in h_field.items():
        channel = checked_index(channel, "constrained channel", high=w.n_channels)
        h = checked_array(h, f"steering field of channel {channel}", np.complex128)
        if h.shape != (w.n_bins, w.n_channels):
            raise InvalidInputError("steering field must be (n_bins, K) per channel")
        field[channel] = np.ascontiguousarray(h.T)
    return field


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # c[k, m] = sum_j a[k, j] b[k, j, m] per bin for bins-last (K, K, F) a,
    # with b's k axis of length K or 1 (so b[None] gives the per-bin product
    # a @ b), as K broadcast products over whole (K, K, F) blocks
    out = a[:, 0, None] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[:, j]
    return out


def _score(matrices: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # E{phi(y) y^H} per bin: row k is W[k, :] V_k W^H, for a bins-last
    # (K, K, F) W and the (K, K^2, F) cache-layout V_k = cov[k]
    return _row_products(_times_hermitian(matrices, cov),
                         matrices.conj().transpose(1, 0, 2)[None])


def _gradient_step(w: np.ndarray, cov: np.ndarray, field: dict, stepsize: float,
                   constraint_weight: float) -> np.ndarray:
    # gradient_update of the bins-last (K, K, F) array w from the (K, K^2, F)
    # cache-layout weighted covariances cov[k] of its outputs and the (K, F)
    # steering field of its constrained rows, with checked step parameters:
    # W + mu (W - E{phi(y) y^H} W), then the penalty step on the constrained rows
    if stepsize == 0.0:
        return w.copy()
    step = _row_products(_score(w, cov), w[None])  # E{phi(y) y^H} W
    np.subtract(w, step, out=step)
    step *= stepsize
    step += w
    for channel, h in field.items():
        step[channel] -= stepsize * _penalty_row(w[channel], h, constraint_weight)
    return step


def checked_step(stepsize: float, constraint_weight: float) -> tuple[float, float]:
    """``(stepsize, constraint_weight)`` of the gradient baseline as floats,
    each in [0, inf); raises InvalidInputError naming the value at fault."""
    return (checked_scalar(stepsize, "stepsize", low=0.0),
            checked_scalar(constraint_weight, "constraint_weight", low=0.0))


def gradient_update(w: DemixingStack, spec: ComplexSpectrogram, model: SourceModel,
                    h_field: dict[int, np.ndarray], stepsize: float,
                    constraint_weight: float) -> DemixingStack:
    """One natural-gradient step with a directional penalty.

    Computes ``W + mu * (I - E{phi(y) y^H}) W - mu * grad_penalty`` per bin,
    where phi applies the source-model weight of each channel's broadband
    frame magnitude.
    """
    _check_shapes(spec, w)
    stepsize, constraint_weight = checked_step(stepsize, constraint_weight)
    field = _check_field(w, h_field)
    weights = model.weight(_frame_energies(_demix_data(spec.data, w.matrices)))
    cov = _weighted_covariances(_hermitian_cache(spec.data), weights)
    step = _gradient_step(_bins_last(w.matrices), cov, field, stepsize, constraint_weight)
    return DemixingStack(np.ascontiguousarray(step.transpose(2, 0, 1)))


def run_gradient_iva(spec: ComplexSpectrogram | HermitianCache, constrained_channels,
                     target_doas, geometry: ArrayGeometry, model: SourceModel,
                     iterations: int, stepsize: float = 0.05, constraint_weight: float = 0.5,
                     callback=None) -> tuple[DemixingStack, ComplexSpectrogram | None, CostTrace]:
    """Gradient-based baseline steering a unit response per constrained channel.

    The trace's prior column records the quadratic constraint penalty of the
    baseline rather than a directional-prior term. ``spec`` and the result
    are as for :func:`run_informed_iva`.
    """
    _check_data(spec)
    channels, doas = _constraint_pairs(constrained_channels, target_doas)
    field = _steering_field(channels, doas, geometry, spec)
    stepsize, constraint_weight = checked_step(stepsize, constraint_weight)

    def step(it, w, covs):
        w = _gradient_step(w, covs, field, stepsize, constraint_weight)
        return w, _form_coefficients(w)

    def penalty(w, coef) -> float:
        residuals = (_residual(w[channel], h) for channel, h in field.items())
        return sum(constraint_weight * float(np.vdot(e, e).real) for e in residuals)

    return _solve(spec, model, iterations, step, penalty, callback, "gc-grad")


def _projection_scale(w: DemixingStack, reference) -> np.ndarray:
    # the (F, K) scale of each bin's output channels, see project_back
    try:
        inv = np.linalg.inv(w.matrices)
    except np.linalg.LinAlgError as exc:
        raise SingularUpdateError("demixing stack is singular, cannot project back") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularUpdateError("demixing stack is singular, cannot project back")
    if reference is None:
        return np.einsum("fkk->fk", inv)
    return inv[:, checked_index(reference, "reference channel", high=w.n_channels), :]


def project_back(demixed: ComplexSpectrogram, w: DemixingStack,
                 reference: int | None = None) -> ComplexSpectrogram:
    """Rescale separated channels with entries of the inverse demixing stack.

    With ``reference`` given, channel k of bin f is scaled by
    ``[W_f^-1][reference, k]``, its minimal-distortion image at that
    microphone. With ``reference=None`` each channel is scaled by the
    diagonal entry ``[W_f^-1][k, k]`` (its image at its own microphone),
    which leaves identity demixing untouched.
    """
    _check_shapes(demixed, w)
    scale = _projection_scale(w, reference)
    return ComplexSpectrogram(demixed.data * scale[:, None, :], demixed.config)


def demix_and_project(spec: ComplexSpectrogram, w: DemixingStack,
                      reference: int | None = None) -> ComplexSpectrogram:
    """``project_back(demix(spec, w), w, reference)``, bit for bit, written
    over ``spec``'s data a block of bins at a time, so that no second
    spectrogram is made; returns ``spec``. Each bin is demixed by the same
    matrix product as in :func:`demix`, whose bits a block of frames could
    change."""
    _check_shapes(spec, w)
    scale = _projection_scale(w, reference)[:, None, :]
    data = spec.data
    for lo in range(0, spec.n_bins, _BLOCK_BINS):
        block = slice(lo, lo + _BLOCK_BINS)
        np.multiply(_demix_data(data[block], w.matrices[block]), scale[block], out=data[block])
    return spec
