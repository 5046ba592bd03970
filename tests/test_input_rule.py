"""Every public entry point checks its arrays, indices, counts, seeds and
scalars by one rule: a bad one raises InvalidInputError naming the input,
never a numpy or Python error and never a silent result."""

import inspect
import math
import random
from dataclasses import fields
from types import FunctionType

import numpy as np
import pytest

import gciva
from gciva.cli import ExperimentConfig, main
from gciva import (
    ArrayGeometry,
    ComplexSpectrogram,
    CostTrace,
    DemixingStack,
    HermitianCache,
    InvalidInputError,
    PriorConfig,
    ReferenceProjector,
    SceneSpec,
    SourceModel,
    StftConfig,
    add_noise,
    analyze,
    decompose_sir_sdr,
    demixed_energies,
    fractional_delay,
    gradient_update,
    match_permutation,
    penalty_gradient,
    prior_matrix,
    project_back,
    run_gradient_iva,
    run_informed_iva,
    steering_stack,
    steering_vector,
    synthetic_sources,
    update_constrained,
    update_unconstrained,
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
         "fractional-prior-channel", "float-window-length", "nan-clean-signal", "nan-rirs",
         "float-prior-bin-count", "float-stack-bin-count",
         "string-sigma2", "string-epsilon", "string-sample-rate", "string-speed-of-sound",
         "string-doa", "string-noise-snr", "string-scene-snr", "fractional-noise-seed",
         "negative-noise-seed", "fractional-sources-seed", "negative-sources-seed",
         "string-duration", "fractional-scene-seed", "negative-scene-seed", "nan-sample-rate",
         "string-mic-positions", "string-source-signals", "bytes-signal",
         "overflowing-duration", "unallocatable-duration", "string-magnitudes", "nan-magnitudes",
         "ragged-magnitudes", "fractional-order-entry", "nan-path-doa", "string-path-doa",
         "scalar-order", "none-order", "bool-magnitudes", "bool-signal", "bool-cache-signal",
         "misshapen-cache", "array-cache-spectrogram", "array-solver-data-aux",
         "array-solver-data-grad")


@pytest.mark.parametrize("case", CASES)
def test_bad_input_raises_naming_the_input(case):
    spec, w = spec_and_stack()
    h, v = np.ones((3, 2)), np.eye(2)
    d = prior_matrix(np.ones(2), 40.0, 1e-3)
    nan_clean = np.zeros((8, 2))
    nan_clean[3, 1] = np.nan
    scene = (np.ones((2, 16)), (45.0, 135.0))
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
                      "delay nan outside (-inf, inf)"),
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
        "float-prior-bin-count": (lambda: PriorConfig.constant((0,), (45.0,), PAIR, n_bins=3.0),
                                  "n_bins 3.0 is not an integer"),
        "float-stack-bin-count": (lambda: DemixingStack.identity(3.0, 2),
                                  "n_bins 3.0 is not an integer"),
        "string-sigma2": (lambda: prior_matrix(np.ones(2), "40", 1e-3),
                          "sigma2 '40' is not a real number"),
        "string-epsilon": (lambda: SourceModel("1e-8"), "epsilon '1e-8' is not a real number"),
        "string-sample-rate": (lambda: StftConfig(sample_rate="16000"),
                               "sample_rate '16000' is not a real number"),
        "string-speed-of-sound": (lambda: ArrayGeometry.linear_pair(0.21, "343"),
                                  "speed_of_sound '343' is not a real number"),
        "string-doa": (lambda: steering_stack("45", PAIR, CONFIG), "DOA '45' is not a real number"),
        "string-noise-snr": (lambda: add_noise(np.zeros((8, 2)), "20", 0),
                             "snr_db '20' is not a real number"),
        "string-scene-snr": (lambda: SceneSpec(*scene, "20"), "snr_db '20' is not a real number"),
        "fractional-noise-seed": (lambda: add_noise(np.zeros((8, 2)), 20.0, 0.5),
                                  "seed 0.5 is not an integer"),
        "negative-noise-seed": (lambda: add_noise(np.zeros((8, 2)), 20.0, -1),
                                "seed -1 outside [0, inf)"),
        "fractional-sources-seed": (lambda: synthetic_sources(2, 0.01, 16000.0, 0.5),
                                    "seed 0.5 is not an integer"),
        "negative-sources-seed": (lambda: synthetic_sources(2, 0.01, 16000.0, -1),
                                  "seed -1 outside [0, inf)"),
        "string-duration": (lambda: synthetic_sources(2, "1", 16000.0),
                            "duration '1' is not a real number"),
        "fractional-scene-seed": (lambda: SceneSpec(*scene, seed=0.5),
                                  "seed 0.5 is not an integer"),
        "negative-scene-seed": (lambda: SceneSpec(*scene, seed=-1), "seed -1 outside [0, inf)"),
        # the sample rate must exceed twice the 150 Hz highpass edge
        "nan-sample-rate": (lambda: synthetic_sources(2, 1.0, np.nan),
                            "sample_rate nan outside (300, inf)"),
        # numeric strings are not parsed
        "string-mic-positions": (lambda: ArrayGeometry([["0", "0", "0"], ["0.21", "0", "0"]]),
                                 "mic_positions is not a numeric array"),
        "string-source-signals": (lambda: SceneSpec(np.full((2, 16), "1"), (45.0, 135.0)),
                                  "source signals is not a numeric array"),
        "bytes-signal": (lambda: analyze([b"0"] * 8, CONFIG), "signal is not a numeric array"),
        "overflowing-duration": (lambda: synthetic_sources(2, 1e305, 16000.0),
                                 "duration 1e+305 s at 16000 Hz renders inf samples, "
                                 "more than an array can index"),
        # 2 x 1.6e16 float64 samples, more than any allocator grants at once
        "unallocatable-duration": (lambda: synthetic_sources(2, 1e12, 16000.0),
                                   "duration 1e+12 s at 16000 Hz renders 16000000000000000 "
                                   "samples, more than memory holds"),
        "string-magnitudes": (lambda: SourceModel().weight(["1", "4"]),
                              "magnitudes is not a numeric array"),
        "nan-magnitudes": (lambda: SourceModel().weight([np.nan, 1.0]),
                           "magnitudes contains non-finite entries"),
        "ragged-magnitudes": (lambda: SourceModel().weight(RAGGED),
                              "magnitudes is not a numeric array"),
        "fractional-order-entry": (lambda: ReferenceProjector(references(), 64).score(
            references()).assignment((0.0, 1.0)), "reference order entry 0.0 is not an integer"),
        "nan-path-doa": (lambda: PAIR.path_offsets(np.nan), "DOA nan outside [0, 180]"),
        "string-path-doa": (lambda: PAIR.path_offsets("45"), "DOA '45' is not a real number"),
        "scalar-order": (lambda: ReferenceProjector(references(), 64).score(
            references()).assignment(2), "reference order 2 is not a sequence"),
        "none-order": (lambda: ReferenceProjector(references(), 64).score(
            references()).assignment(None), "reference order None is not a sequence"),
        # bools are not numbers, as for scalars
        "bool-magnitudes": (lambda: SourceModel().weight(True), "magnitudes is not a numeric array"),
        "bool-signal": (lambda: analyze(np.ones((8, 2), dtype=bool), CONFIG),
                        "signal is not a numeric array"),
        "bool-cache-signal": (lambda: HermitianCache.from_signal(np.ones((8, 2), dtype=bool),
                                                                 CONFIG),
                              "signal is not a numeric array"),
        "array-cache-spectrogram": (lambda: HermitianCache.from_spectrogram(np.zeros((3, 4, 2))),
                                    "from_spectrogram expects a ComplexSpectrogram"),
        "array-solver-data-aux": (
            lambda: run_informed_iva(np.zeros((3, 4, 2)), None, SourceModel(), 1),
            "solver data must be a ComplexSpectrogram or a HermitianCache"),
        "array-solver-data-grad": (
            lambda: run_gradient_iva(np.zeros((3, 4, 2)), (0,), (45.0,), PAIR, SourceModel(), 1),
            "solver data must be a ComplexSpectrogram or a HermitianCache"),
        # K^2 = 3 entries per bin make no Hermitian matrix
        "misshapen-cache": (lambda: HermitianCache(np.ones((4, 3, 3)), CONFIG),
                            "Hermitian cache must be a float64 (frames, K^2, n_bins) array"),
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


# One value of each bad kind, drawn from a fixed seed: a string (a mistyped
# number, which a config file cannot parse either), a fractional count, NaN,
# both infinities and a negative number.
_DRAW = random.Random(26).randint(2, 9)
BAD = {"string": f"{_DRAW}o", "float-count": _DRAW + 0.5, "nan": math.nan, "+inf": math.inf,
       "-inf": -math.inf, "negative": -_DRAW}
# (callable, parameter) -> the kinds it accepts; a float count is a valid
# value of every float parameter
ACCEPTED = {("SceneSpec", "snr_db"): {"+inf", "negative"},
            ("add_noise", "snr_db"): {"+inf", "negative"},
            ("fractional_delay", "delay_samples"): {"negative"},
            ("ArrayGeometry.linear_pair", "spacing"): {"negative"}}
# parameter -> the name its messages give it, where the two differ
SPOKEN = {"f": "bin index", "doa_deg": "DOA", "delay_samples": "delay",
          "reference": "reference channel"}
SCALARS = (int, float, int | None)


def valid_calls():
    """One valid keyword call of each public callable that takes a number."""
    spec, w = spec_and_stack()
    refs = references()
    v, h = np.eye(2), np.ones((3, 2))
    d = prior_matrix(np.ones(2), 40.0, 1e-3)
    return {
        "ArrayGeometry": dict(mic_positions=PAIR.mic_positions, speed_of_sound=343.0),
        "ArrayGeometry.linear_pair": dict(spacing=0.21, speed_of_sound=343.0),
        "ArrayGeometry.path_offsets": dict(self=PAIR, doa_deg=45.0),
        "DemixingStack.identity": dict(n_bins=3, n_channels=2),
        "PriorConfig": dict(constrained_channels=(0,), doa_per_channel=(45.0,),
                            sigma2_per_bin=np.ones(3), lambda_e=1e-3, geometry=PAIR),
        "PriorConfig.constant": dict(constrained_channels=(0,), doa_per_channel=(45.0,),
                                     geometry=PAIR, n_bins=3, sigma2=40.0, lambda_e=1e-3),
        "ReferenceProjector": dict(references=refs, filter_len=64),
        "SceneSpec": dict(source_signals=np.ones((2, 16)), source_doas=(45.0, 135.0),
                          snr_db=20.0, seed=0),
        "SourceModel": dict(epsilon=1e-8),
        "StftConfig": dict(window_length=4, hop=2, sample_rate=16000.0),
        "add_noise": dict(clean=np.ones((8, 2)), snr_db=20.0, seed=0),
        "decompose_sir_sdr": dict(estimate=refs[0], references=refs, filter_len=64),
        "demix_and_project": dict(spec=spec, w=w, reference=0),
        "demixed_energies": dict(spec=spec, w=w, channel=1),
        "fractional_delay": dict(signal=np.ones(64), delay_samples=1.5),
        "gradient_update": dict(w=w, spec=spec, model=SourceModel(), h_field={0: h},
                                stepsize=0.05, constraint_weight=0.5),
        "match_permutation": dict(estimates=refs, references=refs, filter_len=64),
        "penalty_gradient": dict(w=w, h_field={0: h}, constraint_weight=0.5),
        "prior_matrix": dict(h=np.ones(2), sigma2=40.0, lambda_e=1e-3),
        "project_back": dict(demixed=spec, w=w, reference=0),
        "run_gradient_iva": dict(spec=spec, constrained_channels=(0,), target_doas=(45.0,),
                                 geometry=PAIR, model=SourceModel(), iterations=1,
                                 stepsize=0.05, constraint_weight=0.5),
        "run_informed_iva": dict(spec=spec, prior=None, model=SourceModel(), iterations=1),
        "steering_stack": dict(doa_deg=45.0, geometry=PAIR, config=CONFIG),
        "steering_vector": dict(f=1, doa_deg=45.0, geometry=PAIR, config=CONFIG),
        "synthetic_sources": dict(n_sources=2, duration=0.01, sample_rate=16000.0, seed=0),
        "update_constrained": dict(w=w, cov=v, prior_mat=d, f=1, channel=0),
        "update_unconstrained": dict(w=w, cov=v, f=1, channel=0),
        "weighted_covariance": dict(spec=spec, energies=np.ones(4), model=SourceModel(), f=1),
    }


def public_callables():
    """(qualified name, callable) of every public function, class and public
    classmethod or method that ``gciva`` exports, exceptions aside; a method
    is called with ``self`` as a keyword."""
    found = []
    for name in gciva.__all__:
        obj = getattr(gciva, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        found.append((name, obj))
        if isinstance(obj, type):
            found += [(f"{name}.{attr}", getattr(obj, attr)) for attr, raw in vars(obj).items()
                      if isinstance(raw, (classmethod, FunctionType)) and not attr.startswith("_")]
    return found


def scalar_parameters():
    # (qualified name, parameter, its annotation) of every numeric parameter
    return [(name, p.name, p.annotation) for name, obj in public_callables()
            for p in inspect.signature(obj).parameters.values() if p.annotation in SCALARS]


def table_cases():
    cases = []
    for name, param, kind in scalar_parameters():
        for bad, value in BAD.items():
            if bad in ACCEPTED.get((name, param), ()) or (bad == "float-count" and kind is float):
                continue
            cases.append(pytest.param(name, param, value, id=f"{name}-{param}-{bad}"))
    return cases


def test_every_numeric_parameter_has_a_valid_call():
    calls = valid_calls()
    assert {name for name, _, _ in scalar_parameters()} == set(calls)
    for name, obj in public_callables():
        if name in calls:
            obj(**calls[name])


@pytest.mark.parametrize("name, param, value", table_cases())
def test_bad_number_raises_naming_the_parameter(name, param, value):
    call = dict(public_callables())[name]
    with pytest.raises(InvalidInputError) as info:
        call(**{**valid_calls()[name], param: value})
    assert str(info.value).startswith(f"{SPOKEN.get(param, param)} ")


# config key -> the command that reads it, as the keys a config file gives
# besides the one under test
COMMANDS = {"iterations": {"algorithm": "gc-aux", "doas": "135"},
            "sigma2": {"algorithm": "gc-aux", "doas": "135", "iterations": "1"},
            "lambda_e": {"algorithm": "gc-aux", "doas": "135", "iterations": "1"},
            "stepsize": {"algorithm": "gc-grad", "doas": "45", "iterations": "1"},
            "constraint_weight": {"algorithm": "gc-grad", "doas": "45", "iterations": "1"}}
CLI_ACCEPTED = {("snr_db", "+inf"), ("snr_db", "negative"), ("mic_spacing", "negative")}


def config_cases():
    cases = []
    for f in fields(ExperimentConfig):
        if f.type in SCALARS:
            cases += [pytest.param(f.name, str(value), id=f"{f.name}-{bad}")
                      for bad, value in BAD.items() if (f.name, bad) not in CLI_ACCEPTED
                      and not (bad == "float-count" and f.type is float)]
    return cases


@pytest.fixture(scope="module")
def mixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main(["simulate", "--duration", "0.5", "--out", str(out)]) == 0
    return out / "mixture.wav"


@pytest.mark.parametrize("key, text", config_cases())
def test_bad_config_number_exits_one(key, text, mixture, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    if key in COMMANDS:
        lines = {**COMMANDS[key], key: text}
        argv = ["separate", str(mixture)]
    else:
        lines = {"duration": "0.5", key: text}
        argv = ["simulate"]
    config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gc-iva: config error: ") and "Traceback" not in err
    assert {"mic_spacing": "spacing"}.get(key, key) in err
    assert not out.exists()


# sigma2 and lambda_e: every bad kind of a float, and a sigma2 so small that
# the prior matrices overflow
PRIOR_CASES = [pytest.param(key, str(value), id=f"{key}-{bad}") for key in ("sigma2", "lambda_e")
               for bad, value in BAD.items() if bad != "float-count"]
PRIOR_CASES.append(pytest.param("sigma2", "1e-320", id="sigma2-overflowing"))
PRIOR_COMMANDS = {"simulate": ["simulate", "--duration", "0.5"],
                  "separate": ["separate", "--algorithm", "aux"],
                  "benchmark": ["benchmark", "--duration", "0.5", "--snr", "20", "--seed", "0",
                                "--doa", "45:135", "--iterations", "1"]}


@pytest.mark.parametrize("command", sorted(PRIOR_COMMANDS))
@pytest.mark.parametrize("key, text", PRIOR_CASES)
def test_bad_prior_scale_exits_one_in_every_command(command, key, text, mixture, tmp_path,
                                                     capsys):
    # ExperimentConfig checks sigma2 and lambda_e when it is made, so a
    # command that builds no prior matrix (simulate, an aux separate, a
    # benchmark before its first gc-aux run) rejects them too
    argv = PRIOR_COMMANDS[command] + ([str(mixture)] if command == "separate" else [])
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    assert main([*argv, f"{flag}={text}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gc-iva: config error: ") and "Traceback" not in err
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_overflowing_duration_exits_one(command, tmp_path, capsys):
    # the sample count of a finite duration overflows a float
    out = tmp_path / "out"
    assert main([command, "--duration", "1e305", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("gc-iva: config error: duration 1e+305 s at 16000 Hz renders inf samples, "
                   "more than an array can index\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
def test_unallocatable_duration_exits_one(command, tmp_path, capsys):
    # the sample count fits an index but not memory, so the allocation
    # fails at once
    out = tmp_path / "out"
    assert main([command, "--duration", "1e12", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("gc-iva: config error: duration 1e+12 s at 16000 Hz "
                                       "renders 16000000000000000 samples, more than memory "
                                       "holds\n")
    assert not out.exists()
