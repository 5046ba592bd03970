"""Rules README states, checked over generated inputs.

Every property runs derandomized and keeps no example database, so the
suite stays deterministic. Hypothesis still caches the constants it reads
from the loaded modules under ``.hypothesis/constants``, which git ignores.
"""

import math
from dataclasses import fields

from hypothesis import HealthCheck, given, settings, strategies as st

from gciva import ConfigError
from gciva.cli import ALGORITHMS, FLAGS, ExperimentConfig, build_parser, resolve_config


PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _listed(entries, text=str):
    """(config text, value) of a list of 0-3 distinct ``entries``."""
    return st.lists(entries, max_size=3, unique=True).map(
        lambda v: (",".join(map(text, v)), tuple(v)))


def _scalar(values, text=repr):
    return values.map(lambda v: (text(v), v))


_DOA = st.floats(0.0, 180.0)
# key -> strategy of (config text, value), every value valid
VALUES = {
    "algorithms": _listed(st.sampled_from(ALGORITHMS)),
    "iterations": st.one_of(st.just(("", None)), _scalar(st.integers(0, 500), str)),
    "sigma2": _scalar(st.floats(1e-3, 1e6)),
    "lambda_e": _scalar(st.floats(0.0, 10.0)),
    "doas": _listed(_DOA, repr),
    "constrained_channels": _listed(st.integers(0, 1)),
    "stepsize": _scalar(st.floats(0.0, 10.0)),
    "constraint_weight": _scalar(st.floats(0.0, 10.0)),
    "snrs": _listed(st.one_of(st.floats(-100.0, 100.0), st.just(math.inf)), repr),
    "doa_pairs": _listed(st.tuples(_DOA, _DOA), lambda pair: f"{pair[0]!r}:{pair[1]!r}"),
    "seeds": _listed(st.integers(0, 2**31)),
    "duration": _scalar(st.floats(1e-3, 100.0)),
    "mic_spacing": _scalar(st.floats(-1.0, 1.0)),
    "sources": _listed(st.sampled_from(["a.wav", "b.wav", "in/c.wav"])),
    "refs": _listed(st.sampled_from(["a.wav", "b.wav", "in/c.wav"])),
    "out_dir": _scalar(st.sampled_from([".", "out", "runs/a"]), str),
}
# what README's key table states: each command's defaults, which apply
# below the file and the flags, and the lists it reads
COMMAND_DEFAULTS = {"simulate": {"seeds": (0,), "snrs": (20.0,)},
                    "separate": {"algorithms": ("gc-aux",)},
                    "benchmark": {}}
ONE_ENTRY = {"simulate": ("seeds", "snrs"), "separate": ("algorithms",), "benchmark": ()}
NON_EMPTY = {"simulate": (), "separate": (),
             "benchmark": ("doa_pairs", "snrs", "seeds", "algorithms")}


def _flag_keys(command: str) -> dict[str, str]:
    """config key -> the flag that sets it in ``command``."""
    doa_key = "doa_pairs" if command == "benchmark" else "doas"
    return {doa_key if key == "doas" else key: flag for flag, (key, _) in FLAGS.items()
            if flag != "--refs" or command == "separate"}


@st.composite
def invocations(draw):
    """A command, and valid (text, value) settings of random keys split
    between a config file and the command's flags."""
    command = draw(st.sampled_from(sorted(COMMAND_DEFAULTS)))
    file_keys = draw(st.lists(st.sampled_from(sorted(VALUES)), unique=True))
    flag_keys = draw(st.lists(st.sampled_from(sorted(_flag_keys(command))), unique=True))
    in_file = {key: draw(VALUES[key]) for key in file_keys}
    # benchmark's --doa tells its pairs by their colons, so it takes at least one
    in_flags = {key: draw(VALUES[key].filter(lambda tv: key != "doa_pairs" or tv[1]))
                for key in flag_keys}
    return command, in_file, in_flags


@PROPERTY
@given(invocations())
def test_resolution_is_defaults_then_command_then_file_then_flags(tmp_path, invocation):
    command, in_file, in_flags = invocation
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{key} = {text}\n" for key, (text, _) in in_file.items()))
    flags = _flag_keys(command)
    argv = [command, *(["mixture.wav"] if command == "separate" else []), "--config",
            str(config), *(f"{flags[key]}={text}" for key, (text, _) in in_flags.items())]

    expected = {f.name: f.default for f in fields(ExperimentConfig)}
    expected.update(COMMAND_DEFAULTS[command])
    expected.update({key: value for key, (_, value) in in_file.items()})
    expected.update({key: value for key, (_, value) in in_flags.items()})
    bad_lengths = ([key for key in ONE_ENTRY[command] if len(expected[key]) != 1]
                   + [key for key in NON_EMPTY[command] if not expected[key]])

    try:
        cfg = resolve_config(build_parser().parse_args(argv))
    except ConfigError as exc:
        assert bad_lengths and any(key in str(exc) for key in bad_lengths), exc
    else:
        assert not bad_lengths
        assert {f.name: getattr(cfg, f.name) for f in fields(cfg)} == expected
