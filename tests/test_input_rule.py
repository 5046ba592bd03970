"""Every public entry point checks its arrays, indices and counts by one
rule: a bad one raises InvalidInputError naming the input, never a numpy or
Python error and never a silent result."""

import numpy as np
import pytest

from gciva import (
    ArrayGeometry,
    ComplexSpectrogram,
    CostTrace,
    DemixingStack,
    InvalidInputError,
    PriorConfig,
    ReferenceProjector,
    SceneSpec,
    SourceModel,
    StftConfig,
    add_noise,
    analyze,
    demixed_energies,
    fractional_delay,
    penalty_gradient,
    prior_matrix,
    project_back,
    run_gradient_iva,
    run_informed_iva,
    steering_vector,
    synthetic_sources,
    update_constrained,
    weighted_covariance,
)

PAIR = ArrayGeometry.linear_pair(0.21)
CONFIG = StftConfig(window_length=4, hop=2)  # 3 bins
RAGGED = [[1.0, 2.0], [1.0]]


def spec_and_stack():
    rng = np.random.default_rng(25)
    data = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    return ComplexSpectrogram(data, CONFIG), DemixingStack.identity(3, 2)


def references():
    return np.random.default_rng(26).standard_normal((2, 640))


CASES = ("string-field-key", "string-reference", "string-bin", "fractional-bin",
         "fractional-iterations-aux", "fractional-iterations-grad", "float-source-count",
         "fractional-channel", "fractional-steering-bin", "ragged-signal",
         "ragged-mic-positions", "ragged-spectrogram", "ragged-cost-trace", "ragged-sigma2",
         "ragged-references", "ragged-estimates", "nan-delay", "float-filter-length",
         "fractional-prior-channel", "float-window-length", "nan-clean-signal", "nan-rirs")


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises_naming_the_input(case):
    spec, w = spec_and_stack()
    h, v = np.ones((3, 2)), np.eye(2)
    d = prior_matrix(np.ones(2), 40.0, 1e-3)
    nan_clean = np.zeros((8, 2))
    nan_clean[3, 1] = np.nan
    calls = {  # case -> (call, the whole message, which names the input)
        "string-field-key": (lambda: penalty_gradient(w, {"0": h}, 0.5),
                             "constrained channel '0' is not an integer"),
        "string-reference": (lambda: project_back(spec, w, "0"),
                             "reference channel '0' is not an integer"),
        "string-bin": (lambda: weighted_covariance(spec, np.ones(4), SourceModel(), "1"),
                       "bin index '1' is not an integer"),
        "fractional-bin": (lambda: update_constrained(w, v, d, 0.5, 0),
                           "bin index 0.5 is not an integer"),
        "fractional-iterations-aux": (lambda: run_informed_iva(spec, None, SourceModel(), 2.5),
                                      "iterations 2.5 is not an integer"),
        "fractional-iterations-grad": (
            lambda: run_gradient_iva(spec, (0,), (45.0,), PAIR, SourceModel(), 2.5),
            "iterations 2.5 is not an integer"),
        "float-source-count": (lambda: synthetic_sources(2.0, 0.01, 16000.0),
                               "n_sources 2.0 is not an integer"),
        "fractional-channel": (lambda: demixed_energies(spec, w, 0.5),
                               "channel 0.5 is not an integer"),
        "fractional-steering-bin": (lambda: steering_vector(1.5, 45.0, PAIR, CONFIG),
                                    "bin index 1.5 is not an integer"),
        "ragged-signal": (lambda: analyze(RAGGED, CONFIG), "signal is not a numeric array"),
        "ragged-mic-positions": (lambda: ArrayGeometry([[0.0, 0.0, 0.0], [0.2, 0.0]]),
                                 "mic_positions is not a numeric array"),
        "ragged-spectrogram": (lambda: ComplexSpectrogram([RAGGED] * 3, CONFIG),
                               "spectrogram is not a numeric array"),
        "ragged-cost-trace": (lambda: CostTrace([0.0, [1.0]], [0.0, 0.0]),
                              "j_iva is not a numeric array"),
        "ragged-sigma2": (lambda: PriorConfig((0,), (45.0,), [1.0, [1.0]], 1e-3, PAIR),
                          "sigma2_per_bin is not a numeric array"),
        "ragged-references": (lambda: ReferenceProjector([np.ones(640), np.ones(600)], 64),
                              "references is not a numeric array"),
        "ragged-estimates": (lambda: ReferenceProjector(references(), 64).score(
            [np.ones(640), np.ones(600)]), "estimates is not a numeric array"),
        "nan-delay": (lambda: fractional_delay(np.ones(64), np.nan),
                      "delay contains non-finite entries"),
        "float-filter-length": (lambda: ReferenceProjector(references(), 64.0),
                                "filter_len 64.0 is not an integer"),
        "fractional-prior-channel": (
            lambda: PriorConfig((0.7,), (45.0,), np.ones(3), 1e-3, PAIR),
            "constrained channel 0.7 is not an integer"),
        "float-window-length": (lambda: StftConfig(window_length=2048.0, hop=1024.0),
                                "window_length 2048.0 is not an integer"),
        "nan-clean-signal": (lambda: add_noise(nan_clean, 20.0, 0),
                             "clean signal contains non-finite entries"),
        "nan-rirs": (lambda: SceneSpec(np.ones((2, 16)), (45.0, 135.0),
                                       rirs=np.full((2, 2, 4), np.nan)),
                     "rirs contains non-finite entries"),
    }
    call, message = calls[case]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integers_are_indices():
    spec, w = spec_and_stack()
    for index in (np.int64(1), np.uint8(1), np.array(1)):
        np.testing.assert_array_equal(demixed_energies(spec, w, index),
                                      demixed_energies(spec, w, 1))
        np.testing.assert_array_equal(project_back(spec, w, index).data,
                                      project_back(spec, w, 1).data)
    with pytest.raises(InvalidInputError, match=r"^channel 2 outside \[0, 2\)$"):
        demixed_energies(spec, w, np.int64(2))
