"""Independent vector analysis with an optional directional prior.

The demixing stack holds one K x K matrix per frequency bin; row k of
``matrices[f]`` is the conjugate-transposed demixing vector for output
channel k, so demixing is ``y[f, n] = matrices[f] @ x[f, n]``.

Both solvers share one loop: from identity, each iteration applies the
solver's update, then demixes once. That pass yields the cost-trace entry (IVA
term plus the solver's penalty), the next update's input and, after the last
iteration, the demixed output. :func:`evaluate_cost` is the public oracle.

The data never change during a solve, so each solve holds them once in
(bin, channel, frame) layout, in which demixing is one matrix product per bin
and the frame energies reduce over bins; the demixed output returns to the
spectrogram's (bin, frame, channel) layout once, after the last iteration.
Each frame's microphone outer products ``x x^H`` are likewise built once per
solve and stored flat, one row per (bin, i, j) entry and one column per
frame: F*K^2*N complex values, K times the spectrogram (about 5 MB for a 5 s
stereo scene at 2048/1024). The weighted covariances
``V_k = mean_n phi(r_nk) x_n x_n^H`` of all K channels then come from one
matrix product with the N x K frame weights per iteration, and both updates
read them: the MM sweep solves against V_k, and the gradient step forms row
k of its score ``E{phi(y) y^H}`` as ``W[k, :] V_k W^H``.

* :func:`run_informed_iva` performs majorize-minimize row updates; channels
  listed in the prior are updated against the covariance plus the
  direction-penalizing prior matrix, all other channels against the
  covariance alone. With no prior this is exactly the plain
  auxiliary-function IVA (same code path).
* :func:`run_gradient_iva` is the gradient-based baseline: natural-gradient
  steps on the IVA cost plus a quadratic penalty steering a unit response
  toward a target direction per constrained channel.
* :func:`project_back` resolves the scaling ambiguity afterwards.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CostOverflowError, InvalidInputError, SingularUpdateError
from .scene import ArrayGeometry, steering_stack
from .stft import ComplexSpectrogram, StftConfig

_LOG_DET_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class SourceModel:
    """Spherical source prior: contrast G(r) and contribution weight G'(r)/r.

    Only the Laplacian model ``G(r) = r`` is implemented; its weight is
    ``1 / max(r, floor)`` with a floor relative to the mean frame energy so
    near-silent frames cannot blow up the statistics.
    """

    kind: str = "laplace"
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind != "laplace":
            raise InvalidInputError(f"unknown source model kind: {self.kind!r}")
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")

    def contrast(self, r) -> np.ndarray:
        return np.asarray(r, dtype=np.float64)

    def weight(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        mean_energy = float(np.mean(r**2)) if r.size else 0.0
        floor = self.epsilon * mean_energy if mean_energy > 0.0 else self.epsilon
        return 1.0 / np.maximum(r, floor)


@dataclass
class DemixingStack:
    """Per-bin demixing matrices, shape (n_bins, K, K)."""

    matrices: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.matrices, dtype=np.complex128)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise InvalidInputError("demixing stack must be (n_bins, K, K)")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("demixing stack contains non-finite entries")
        self.matrices = w

    @classmethod
    def identity(cls, n_bins: int, n_channels: int) -> "DemixingStack":
        eye = np.eye(n_channels, dtype=np.complex128)
        return cls(np.tile(eye, (n_bins, 1, 1)))

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
    InvalidInputError unless the channels are unique and nonnegative and
    each has one DOA."""
    channels = tuple(int(k) for k in channels)
    doas = tuple(float(d) for d in np.atleast_1d(np.asarray(doas, dtype=float)))
    if len(set(channels)) != len(channels):
        raise InvalidInputError("constrained channels must be unique")
    if any(k < 0 for k in channels):
        raise InvalidInputError("channel indices must be nonnegative")
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
        sigma2 = np.asarray(self.sigma2_per_bin, dtype=np.float64)
        if sigma2.ndim != 1 or not np.all(np.isfinite(sigma2)) or np.any(sigma2 <= 0):
            raise InvalidInputError("sigma2_per_bin must be a positive 1-D array")
        if not np.isfinite(self.lambda_e) or self.lambda_e < 0:
            raise InvalidInputError("lambda_e must be nonnegative")
        self.constrained_channels = channels
        self.doa_per_channel = doas
        self.sigma2_per_bin = sigma2

    @classmethod
    def constant(cls, constrained_channels, doa_per_channel, geometry: ArrayGeometry,
                 n_bins: int, sigma2: float = 40.0, lambda_e: float = 1e-3) -> "PriorConfig":
        """Constant prior variance across bins (the experiment default)."""
        return cls(tuple(constrained_channels), tuple(np.atleast_1d(doa_per_channel)),
                   np.full(n_bins, float(sigma2)), float(lambda_e), geometry)


@dataclass
class CostTrace:
    """Per-iteration cost values; entry 0 is the initial point."""

    j_iva: np.ndarray
    j_prior: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.j_iva, dtype=np.float64)
        b = np.asarray(self.j_prior, dtype=np.float64)
        if a.shape != b.shape or a.ndim != 1:
            raise InvalidInputError("cost trace components must be 1-D and equally long")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InvalidInputError("cost trace contains non-finite values")
        self.j_iva, self.j_prior = a, b

    @property
    def total(self) -> np.ndarray:
        return self.j_iva + self.j_prior

    def normalized_iva(self) -> np.ndarray:
        j0 = self.j_iva[0] if self.j_iva.size and self.j_iva[0] != 0.0 else 1.0
        return self.j_iva / j0


def prior_matrix(h: np.ndarray, sigma2: float, lambda_e: float) -> np.ndarray:
    """Prior matrix ``(lambda_e * I + h h^H) / sigma2`` for one bin."""
    if not np.isfinite(sigma2) or sigma2 <= 0:
        raise InvalidInputError("sigma2 must be positive")
    if not np.isfinite(lambda_e) or lambda_e < 0:
        raise InvalidInputError("lambda_e must be nonnegative")
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise InvalidInputError("steering vector must be 1-D")
    return (lambda_e * np.eye(h.shape[0]) + np.outer(h, h.conj())) / sigma2


def prior_matrices(prior: PriorConfig, config: StftConfig) -> dict[int, np.ndarray]:
    """Per-channel stacks of prior matrices, each shaped (n_bins, K, K)."""
    n_bins = config.n_bins
    if prior.sigma2_per_bin.shape[0] != n_bins:
        raise InvalidInputError(
            f"sigma2_per_bin has {prior.sigma2_per_bin.shape[0]} entries, expected {n_bins}"
        )
    n_mics = prior.geometry.n_mics
    eye = np.eye(n_mics)
    out = {}
    for channel, doa in zip(prior.constrained_channels, prior.doa_per_channel):
        h = steering_stack(doa, prior.geometry, config)  # (F, M)
        outer = h[:, :, None] * h[:, None, :].conj()
        out[channel] = (prior.lambda_e * eye[None] + outer) / prior.sigma2_per_bin[:, None, None]
    return out


def _transposed(data: np.ndarray) -> np.ndarray:
    # C-contiguous (F, K, N) copy of (F, N, K) data (or back): the layout in
    # which demixing is one plain GEMM per bin
    return np.ascontiguousarray(data.transpose(0, 2, 1))


def _demix_data(xt: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    # y[f, k, n] = sum_j matrices[f, k, j] x[f, j, n], both in (F, K, N) layout
    return np.matmul(matrices, xt)


def _frame_energies(yt: np.ndarray) -> np.ndarray:
    # r[n, k] = ||y[:, k, n]||_2 over all bins, from (F, K, N) outputs: the
    # squares of the interleaved (re, im) float view summed over bins, then
    # each (re, im) pair added, which skips abs()'s hypot per value
    parts = yt.view(np.float64)
    squares = np.einsum("fkn,fkn->kn", parts, parts)
    return np.sqrt(squares.reshape(yt.shape[1], yt.shape[2], 2).sum(axis=2)).T


def demix(spec: ComplexSpectrogram, w: DemixingStack) -> ComplexSpectrogram:
    """Apply the demixing stack to a spectrogram."""
    _check_shapes(spec, w)
    return ComplexSpectrogram(_transposed(_demix_data(_transposed(spec.data), w.matrices)),
                              spec.config)


def _check_shapes(spec: ComplexSpectrogram, w: DemixingStack) -> None:
    if w.n_bins != spec.n_bins or w.n_channels != spec.n_channels:
        raise InvalidInputError(
            f"demixing stack {w.matrices.shape} does not match spectrogram "
            f"{spec.data.shape}"
        )


def demixed_energies(spec: ComplexSpectrogram, w: DemixingStack, channel: int) -> np.ndarray:
    """Broadband frame magnitudes ``r_n = ||y_n||_2`` of one output channel."""
    _check_shapes(spec, w)
    if not 0 <= channel < spec.n_channels:
        raise InvalidInputError(f"channel {channel} outside [0, {spec.n_channels})")
    return _frame_energies(_demix_data(_transposed(spec.data), w.matrices))[:, channel]


def _outer_products(xt: np.ndarray) -> np.ndarray:
    # P[f, i, j, n] = x[f, i, n] conj(x[f, j, n]) from the (F, K, N) layout; a
    # C-contiguous xt makes P C-contiguous, so its flat (F*K*K, N) view costs
    # no copy per iteration
    return xt[:, :, None, :] * xt.conj()[:, None, :, :]


def _source_weights(model: SourceModel, r: np.ndarray) -> np.ndarray:
    # (N, K) source-model weights of every channel's frame energies
    return np.stack([model.weight(r[:, k]) for k in range(r.shape[1])], axis=1)


def _weighted_covariances(outer: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # V[f, c] = mean_n weights[n, c] x[f, n] x[f, n]^H for every weight column c,
    # all from one GEMM; shape (F, C, K, K)
    n_bins, n_ch, _, n_frames = outer.shape
    v = (outer.reshape(-1, n_frames) @ weights) / n_frames
    return v.reshape(n_bins, n_ch, n_ch, -1).transpose(0, 3, 1, 2)


def weighted_covariance(spec: ComplexSpectrogram, energies, model: SourceModel, f: int) -> np.ndarray:
    """Frame-weighted microphone covariance of bin ``f``.

    The weights are the source-model contributions ``G'(r_n)/r_n`` of the
    channel under update, evaluated from the supplied broadband energies.
    """
    if not 0 <= f < spec.n_bins:
        raise InvalidInputError(f"bin index {f} outside [0, {spec.n_bins})")
    energies = np.asarray(energies, dtype=np.float64)
    if energies.shape != (spec.n_frames,):
        raise InvalidInputError("energies must hold one value per frame")
    weights = model.weight(energies)[:, None]
    return _weighted_covariances(_outer_products(_transposed(spec.data[f : f + 1])),
                                 weights)[0, 0]


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``solve(a, b)[..., 0]``; a bin whose LU meets an exact zero
    pivot comes back NaN. Only a failed batch pays for locating them."""
    try:
        return np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        ok = np.abs(np.linalg.det(a)) > 0.0
        u = np.full(b.shape[:2], np.nan, dtype=np.complex128)
        u[ok] = np.linalg.solve(a[ok], b[ok])[:, :, 0]
        return u


def _solve_rows(matrices: np.ndarray, systems: np.ndarray, channel: int,
                context: str = "") -> np.ndarray:
    """New demixing vectors for one channel across a stack of bins.

    Solves ``(W_f M_f) w = e_k`` per bin and rescales so ``w^H M_f w = 1``.
    The bins whose system is singular are retried once, together, with a
    small trace-scaled diagonal load on ``M_f``; a bin still singular raises
    a SingularUpdateError.
    """
    n_bins, n_ch = matrices.shape[0], matrices.shape[1]
    rhs = np.zeros((n_bins, n_ch, 1), dtype=np.complex128)
    rhs[:, channel, 0] = 1.0

    def quad_form(m, u):  # w^H M w per bin, and where it is unusable
        quad = np.real(np.einsum("fi,fij,fj->f", u.conj(), m, u))
        return quad, ~(np.isfinite(quad) & (quad > 0.0) & np.all(np.isfinite(u), axis=1))

    u = _solve_or_nan(matrices @ systems, rhs)
    quad, failed = quad_form(systems, u)
    bad = np.flatnonzero(failed)
    if bad.size:
        m = systems[bad]
        load = 1e-10 * np.real(np.trace(m, axis1=1, axis2=2)) / n_ch
        m = m + load[:, None, None] * np.eye(n_ch)
        u[bad] = _solve_or_nan(matrices[bad] @ m, rhs[bad])
        quad[bad], failed = quad_form(m, u[bad])
        if np.any(failed):
            raise SingularUpdateError(
                f"singular update system at bin {bad[failed][0]}, channel {channel}{context}"
            )
    return u / np.sqrt(quad)[:, None]


def update_unconstrained(w: DemixingStack, cov: np.ndarray, f: int, channel: int) -> np.ndarray:
    """Majorize-minimize row update without a prior.

    Replaces row ``channel`` of bin ``f`` in place and returns the new
    demixing vector, normalized so that ``w^H V w = 1``.
    """
    _check_update_args(w, cov, f, channel)
    vec = _solve_rows(w.matrices[f : f + 1], cov[None], channel)[0]
    w.matrices[f, channel, :] = vec.conj()
    return vec


def update_constrained(w: DemixingStack, cov: np.ndarray, prior_mat: np.ndarray,
                       f: int, channel: int) -> np.ndarray:
    """Majorize-minimize row update against covariance plus prior matrix,
    normalized so that ``w^H (V + D) w = 1``."""
    _check_update_args(w, cov, f, channel)
    if prior_mat.shape != cov.shape:
        raise InvalidInputError("prior matrix shape must match covariance")
    vec = _solve_rows(w.matrices[f : f + 1], (cov + prior_mat)[None], channel)[0]
    w.matrices[f, channel, :] = vec.conj()
    return vec


def _check_update_args(w: DemixingStack, cov: np.ndarray, f: int, channel: int) -> None:
    if not 0 <= f < w.n_bins:
        raise InvalidInputError(f"bin index {f} outside [0, {w.n_bins})")
    if not 0 <= channel < w.n_channels:
        raise InvalidInputError(f"channel {channel} outside [0, {w.n_channels})")
    if cov.shape != (w.n_channels, w.n_channels):
        raise InvalidInputError("covariance must be K x K")


def _iva_cost(r: np.ndarray, matrices: np.ndarray, model: SourceModel) -> float:
    # averaged contrast of the frame energies r minus twice the log-determinants
    _, logdet = np.linalg.slogdet(matrices)
    if np.any(~np.isfinite(logdet)) or np.any(logdet < _LOG_DET_FLOOR):
        raise CostOverflowError("demixing matrix determinant below 1e-300")
    return float(np.sum(np.mean(model.contrast(r), axis=0))) - 2.0 * float(np.sum(logdet))


def _check_constraints(channels, geometry: ArrayGeometry, spec: ComplexSpectrogram) -> None:
    if any(not 0 <= k < spec.n_channels for k in channels):
        raise InvalidInputError("constrained channel outside the channel range")
    if geometry.n_mics != spec.n_channels:
        raise InvalidInputError(f"geometry has {geometry.n_mics} mics, "
                                f"spectrogram has {spec.n_channels} channels")


def _prior_stacks(prior: PriorConfig | None, spec: ComplexSpectrogram) -> dict[int, np.ndarray]:
    """Prior-matrix stacks of the constrained channels, checked against ``spec``."""
    if prior is None or not prior.constrained_channels:
        return {}
    _check_constraints(prior.constrained_channels, prior.geometry, spec)
    return prior_matrices(prior, spec.config)


def _prior_cost(matrices: np.ndarray, stacks: dict[int, np.ndarray]) -> float:
    j_prior = 0.0
    for channel, mats in stacks.items():
        rows = matrices[:, channel, :]  # (F, K) = w^H
        j_prior += float(np.sum(np.real(np.einsum("fi,fij,fj->f", rows, mats, rows.conj()))))
    return j_prior


def evaluate_cost(spec: ComplexSpectrogram, w: DemixingStack, model: SourceModel,
                  prior: PriorConfig | None = None) -> tuple[float, float]:
    """Source-separation cost split into its IVA and prior terms.

    The IVA term is the averaged source contrast minus twice the summed
    log-magnitude determinants; the prior term is the nonnegative quadratic
    form of the constrained rows against their prior matrices.
    """
    _check_shapes(spec, w)
    r = _frame_energies(_demix_data(_transposed(spec.data), w.matrices))
    return _iva_cost(r, w.matrices, model), _prior_cost(w.matrices, _prior_stacks(prior, spec))


def _solve(spec: ComplexSpectrogram, model: SourceModel, iterations: int, update,
           penalty, callback) -> tuple[DemixingStack, ComplexSpectrogram, CostTrace]:
    # update(it, w, cov) returns the next stack from w and the (F, K, K, K)
    # weighted covariances cov[:, k] of w's outputs; penalty(w) fills the
    # trace's second column
    if iterations < 0:
        raise InvalidInputError("iterations must be nonnegative")
    w = DemixingStack.identity(spec.n_bins, spec.n_channels)
    xt = _transposed(spec.data)
    outer = _outer_products(xt)
    trace = []  # (IVA term, penalty) per iteration, entry 0 at identity
    for it in range(iterations + 1):
        if it:
            w = update(it, w, _weighted_covariances(outer, _source_weights(model, r)))
        yt = _demix_data(xt, w.matrices)
        r = _frame_energies(yt)
        trace.append((_iva_cost(r, w.matrices, model), penalty(w)))
        if it and callback is not None:
            callback(it, w.copy())
    return w, ComplexSpectrogram(_transposed(yt), spec.config), CostTrace(*np.array(trace).T)


def run_informed_iva(spec: ComplexSpectrogram, prior: PriorConfig | None,
                     model: SourceModel, iterations: int,
                     callback=None) -> tuple[DemixingStack, ComplexSpectrogram, CostTrace]:
    """Majorize-minimize demixing estimation with an optional directional prior.

    Starts from identity matrices and sweeps channels sequentially; every
    bin of a channel gets a fresh weighted covariance from that channel's
    broadband energies and a row update (constrained for channels in the
    prior, unconstrained otherwise). The returned trace holds the cost
    after every iteration, entry 0 being the initial point, and the total
    cost is non-increasing.

    ``callback(l, stack)``, if given, is invoked after each iteration with a
    snapshot of the current demixing stack.
    """
    if spec.n_channels < 1:
        raise InvalidInputError("need at least one channel")
    stacks = _prior_stacks(prior, spec)

    def sweep(it, w, covs):
        # Channel k's energies depend on row k alone, which no earlier
        # channel of the sweep changes, so every channel's covariance comes
        # from the iteration's one demixing pass.
        for channel in range(spec.n_channels):
            cov = covs[:, channel]
            # The tight majorizer of the contrast term carries a factor 1/2
            # on the weighted covariance (r <= r^2/(2 r0) + r0/2); using it
            # keeps the total cost non-increasing. The prior term is exact
            # and enters with its own coefficient.
            systems = 0.5 * cov + stacks[channel] if channel in stacks else 0.5 * cov
            rows = _solve_rows(w.matrices, systems, channel, context=f", iteration {it}")
            w.matrices[:, channel, :] = rows.conj()
        return w

    return _solve(spec, model, iterations, sweep,
                  lambda w: _prior_cost(w.matrices, stacks), callback)


def _residual(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.einsum("fj,fj->f", rows, h) - 1.0  # w^H h - 1


def penalty_gradient(w: DemixingStack, h_field: dict[int, np.ndarray],
                     constraint_weight: float) -> np.ndarray:
    """Gradient of ``constraint_weight * sum_k |w_k^H h_k - 1|^2`` w.r.t. the
    stored rows, in the real/imaginary (Wirtinger, factor two) convention so
    it matches finite differences on the real and imaginary parts directly.
    """
    grad = np.zeros_like(w.matrices)
    for channel, h in h_field.items():
        if not 0 <= channel < w.n_channels:
            raise InvalidInputError(f"constrained channel {channel} outside stack")
        if h.shape != (w.n_bins, w.n_channels):
            raise InvalidInputError("steering field must be (n_bins, K) per channel")
        residual = _residual(w.matrices[:, channel, :], h)
        grad[:, channel, :] = 2.0 * constraint_weight * residual[:, None] * h.conj()
    return grad


def _score(matrices: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # E{phi(y) y^H} per bin: row k is W[k, :] V_k W^H, with V_k = cov[:, k]
    rows = np.matmul(matrices[:, :, None, :], cov)[:, :, 0, :]
    return np.matmul(rows, matrices.conj().transpose(0, 2, 1))


def _gradient_step(w: DemixingStack, cov: np.ndarray, h_field: dict, stepsize: float,
                   constraint_weight: float) -> DemixingStack:
    # gradient_update from the weighted covariances cov[:, k] of w's outputs
    if not np.isfinite(stepsize) or stepsize < 0:
        raise InvalidInputError("stepsize must be nonnegative")
    if not np.isfinite(constraint_weight) or constraint_weight < 0:
        raise InvalidInputError("constraint_weight must be nonnegative")
    if stepsize == 0.0:
        return w.copy()
    delta = np.matmul(np.eye(w.n_channels)[None] - _score(w.matrices, cov), w.matrices)
    return DemixingStack(w.matrices + stepsize * delta
                         - stepsize * penalty_gradient(w, h_field, constraint_weight))


def gradient_update(w: DemixingStack, spec: ComplexSpectrogram, model: SourceModel,
                    h_field: dict[int, np.ndarray], stepsize: float,
                    constraint_weight: float) -> DemixingStack:
    """One natural-gradient step with a directional penalty.

    Computes ``W + mu * (I - E{phi(y) y^H}) W - mu * grad_penalty`` per bin,
    where phi applies the source-model weight of each channel's broadband
    frame magnitude.
    """
    _check_shapes(spec, w)
    xt = _transposed(spec.data)
    weights = _source_weights(model, _frame_energies(_demix_data(xt, w.matrices)))
    cov = _weighted_covariances(_outer_products(xt), weights)
    return _gradient_step(w, cov, h_field, stepsize, constraint_weight)


def run_gradient_iva(spec: ComplexSpectrogram, constrained_channels, target_doas,
                     geometry: ArrayGeometry, model: SourceModel, iterations: int,
                     stepsize: float = 0.05, constraint_weight: float = 0.5,
                     callback=None) -> tuple[DemixingStack, ComplexSpectrogram, CostTrace]:
    """Gradient-based baseline steering a unit response per constrained channel.

    The trace's prior column records the quadratic constraint penalty of the
    baseline rather than a directional-prior term.
    """
    channels, doas = _constraint_pairs(constrained_channels, target_doas)
    _check_constraints(channels, geometry, spec)
    h_field = {k: steering_stack(d, geometry, spec.config)
               for k, d in zip(channels, doas)}

    def penalty(w: DemixingStack) -> float:
        return sum(constraint_weight * float(np.sum(np.abs(_residual(w.matrices[:, k], h)) ** 2))
                   for k, h in h_field.items())

    return _solve(spec, model, iterations,
                  lambda it, w, cov: _gradient_step(w, cov, h_field, stepsize,
                                                    constraint_weight),
                  penalty, callback)


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
    try:
        inv = np.linalg.inv(w.matrices)
    except np.linalg.LinAlgError as exc:
        raise SingularUpdateError("demixing stack is singular, cannot project back") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularUpdateError("demixing stack is singular, cannot project back")
    if reference is None:
        scale = np.einsum("fkk->fk", inv)
    else:
        if not 0 <= reference < w.n_channels:
            raise InvalidInputError(f"reference channel {reference} outside [0, {w.n_channels})")
        scale = inv[:, reference, :]
    return ComplexSpectrogram(demixed.data * scale[:, None, :], demixed.config)
