"""Correctness routines of the benchmark, written in numpy alone.

Nothing here imports ``gciva``: the benchmark checks the program's outputs
against these independent computations, never against stored copies of
earlier outputs.
"""

import itertools

import numpy as np

STFT_WINDOW = 2048
STFT_HOP = 512


def _frames(signal: np.ndarray) -> np.ndarray:
    """Hann-windowed one-sided spectra, shaped (bins, frames)."""
    x = np.asarray(signal, dtype=np.float64)
    n_frames = max(1, 1 + (x.shape[0] - STFT_WINDOW) // STFT_HOP)
    idx = np.arange(STFT_WINDOW)[None, :] + STFT_HOP * np.arange(n_frames)[:, None]
    padded = np.concatenate((x, np.zeros(max(0, idx.max() + 1 - x.shape[0]))))
    return np.fft.rfft(padded[idx] * np.hanning(STFT_WINDOW), axis=1).T


def component_energies(output: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Energy of each image's component in ``output``.

    Per STFT bin, ``output`` is fitted by least squares as a complex gain
    times each image (all images jointly, over the frames); the energy of
    image k's fitted component, summed over bins, is entry k.
    """
    y = _frames(output)  # (F, N)
    s = np.stack([_frames(img) for img in images], axis=2)  # (F, N, K)
    energies = np.zeros(s.shape[2])
    for f in range(y.shape[0]):
        gains, *_ = np.linalg.lstsq(s[f], y[f], rcond=None)
        energies += np.sum(np.abs(s[f] * gains[None, :]) ** 2, axis=0)
    return energies


def sir_table_db(outputs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Per-bin least-squares SIR of every output for every image.

    Entry (i, k) is image k's component energy in output i over the summed
    energy of the other images' components, in dB.
    """
    table = []
    for output in np.atleast_2d(outputs):
        energies = component_energies(output, images)
        others = np.maximum(np.sum(energies) - energies, 1e-300)
        table.append(10.0 * np.log10(energies / others))
    return np.array(table)


def best_permutation_sir_db(outputs: np.ndarray, images: np.ndarray) -> tuple[tuple, float]:
    """Assignment of outputs to images with the highest mean SIR.

    ``outputs`` is (channels, samples); returns ``(assignment, mean_sir_db)``
    where ``assignment[k]`` is the image carried by output k.
    """
    table = sir_table_db(outputs, images)
    best = max(itertools.permutations(range(len(images))),
               key=lambda perm: sum(table[i, p] for i, p in enumerate(perm)))
    return best, float(np.mean([table[i, p] for i, p in enumerate(best)]))


def iterations_to_1pct(total_cost) -> int:
    """First iteration from which the cost stays within 1 % of its final
    value, i.e. ``|J[l] - J[-1]| <= 0.01 * |J[-1]|`` for every later l."""
    cost = np.asarray(total_cost, dtype=np.float64)
    outside = np.flatnonzero(np.abs(cost - cost[-1]) > 0.01 * abs(cost[-1]))
    return int(outside[-1] + 1) if outside.size else 0


def is_nonincreasing(total_cost, rel_tol: float = 1e-12) -> bool:
    """True when no step raises the cost by more than float rounding."""
    cost = np.asarray(total_cost, dtype=np.float64)
    return bool(np.all(np.diff(cost) <= rel_tol * np.max(np.abs(cost))))


def aggregate_runs(rows: list[dict]) -> dict[tuple, tuple]:
    """Per (scenario, snr_db, algorithm): mean channel SIR, mean channel SDR,
    mean input SIR, permutation success rate and run count, in first-seen
    order, computed from ``runs.csv`` rows."""
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["scenario"], float(row["snr_db"]), row["algorithm"])
        groups.setdefault(key, []).append(row)
    out = {}
    for key, members in groups.items():
        sir = [(float(r["sir_ch1_db"]) + float(r["sir_ch2_db"])) / 2 for r in members]
        sdr = [(float(r["sdr_ch1_db"]) + float(r["sdr_ch2_db"])) / 2 for r in members]
        out[key] = (float(np.mean(sir)), float(np.mean(sdr)),
                    float(np.mean([float(r["input_sir_db"]) for r in members])),
                    float(np.mean([int(r["perm_matched"]) for r in members])),
                    len(members))
    return out
