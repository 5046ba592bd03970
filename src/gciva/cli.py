"""Command-line front end: scene simulation, separation runs, benchmarks.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical
failure. All artifacts are deterministic for a fixed seed; CSV outputs are
byte-identical across reruns of the same configuration.
"""

import argparse
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    ConfigError,
    CostOverflowError,
    DegenerateReferenceError,
    GcivaError,
    InvalidInputError,
    SingularUpdateError,
    checked_index,
)
from .iva import (HermitianCache, PriorConfig, SourceModel, checked_prior_scale, checked_step,
                  demix_and_project, run_gradient_iva, run_informed_iva)
from .metrics import ReferenceProjector
from .scene import (ArrayGeometry, SceneSpec, add_noise, checked_doa, checked_duration,
                    checked_snr, render_images, simulate_mixture, synthetic_sources)
from .stft import ComplexSpectrogram, StftConfig, analyze, synthesize

ALGORITHMS = ("aux", "gc-aux", "gc-grad")
DEFAULT_ITERATIONS = {"aux": 100, "gc-aux": 100, "gc-grad": 350}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings (defaults mirror the reference
    operating point: sigma2 = 40, lambda_e = 1e-3, stepsize 0.05 with
    constraint weight 0.5, a 0.21 m microphone pair, and an SNR sweep over
    10/20/30 dB). The rest of that point is fixed, not configured: every
    transform is ``StftConfig``'s 2048-sample Hamming window with hop 1024
    at the rate of the WAV read, or at its 16 kHz for a synthetic scene,
    and sound travels at ``scene.SPEED_OF_SOUND``. Checks every value when
    made, by ``replace()`` too, each by the rule of the library check that
    reads it, so a command that never reads a key still rejects a bad value
    of it rather than echo it into its JSON; a sweep list must not repeat an
    entry, which would count one run twice. Only the paths are left to the
    commands that open them."""

    algorithm: str = "gc-aux"
    algorithms: tuple[str, ...] = ALGORITHMS
    iterations: int | None = None
    sigma2: float = 40.0
    lambda_e: float = 1e-3
    doas: tuple[float, ...] = ()
    constrained_channels: tuple[int, ...] = (0,)
    stepsize: float = 0.05
    constraint_weight: float = 0.5
    snr_db: float = 20.0
    snrs: tuple[float, ...] = (10.0, 20.0, 30.0)
    doa_pairs: tuple[tuple[float, float], ...] = ((45.0, 135.0), (45.0, 90.0), (20.0, 160.0))
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    seed: int = 0
    duration: float = 5.0
    mic_spacing: float = 0.21
    sources: tuple[str, ...] = ()
    refs: tuple[str, ...] = ()
    out_dir: str = "."

    def __post_init__(self) -> None:
        for name in (self.algorithm, *self.algorithms):
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
        if self.iterations is not None:
            checked_index(self.iterations, "iterations")
        checked_index(self.seed, "seed")
        for seed in self.seeds:
            checked_index(seed, "seeds")
        checked_prior_scale(self.sigma2, self.lambda_e)
        checked_step(self.stepsize, self.constraint_weight)
        n_mics = self.geometry().n_mics
        for channel in self.constrained_channels:
            checked_index(channel, "constrained_channels", high=n_mics)
        for doa in self.doas:
            checked_doa(doa, "doas")
        for doa in (doa for pair in self.doa_pairs for doa in pair):
            checked_doa(doa, "doa_pairs")
        for snr in self.snrs:
            checked_snr(snr, "snrs")
        checked_snr(self.snr_db)
        checked_duration(self.duration, StftConfig.sample_rate)
        for key in ("algorithms", "seeds", "snrs", "doa_pairs"):
            entries = getattr(self, key)
            for i, entry in enumerate(entries):
                if entry in entries[:i]:
                    raise ConfigError(f"{key} repeats the entry {entry!r}; "
                                      f"each is one independent run")

    def resolved_iterations(self, algorithm: str) -> int:
        if self.iterations is not None:
            return self.iterations
        return DEFAULT_ITERATIONS[algorithm]

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.linear_pair(self.mic_spacing)

    def echo(self) -> dict:
        """Resolved configuration for report embedding (artifact paths are
        left out so reruns in other directories stay byte-identical)."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}


def _parse(kind, text: str):
    """Parse ``text`` as a value of the annotated field type ``kind``:
    ``tuple[T, ...]`` is a comma list, a fixed-size tuple such as
    ``tuple[float, float]`` is colon-separated, and an optional scalar is
    None when empty."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        if args[-1] is Ellipsis:
            return tuple(_parse(args[0], part.strip()) for part in text.split(",") if part.strip())
        parts = text.split(":")
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} colon-separated values")
        return tuple(_parse(arg, part) for arg, part in zip(args, parts))
    if type(None) in args:
        return _parse(args[0], text) if text.strip() else None
    return kind(text)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    # float() reads "inf" but not the "infinite" an SNR may be given as
    text = raw.lower().replace("infinite", "inf") if key in ("snr_db", "snrs") else raw
    try:
        return _parse(_FIELD_TYPES[key], text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc


# flag -> (config key, help). A flag's text is parsed exactly like the key's
# value in a config file.
FLAGS = {
    "--algorithm": ("algorithm", "aux, gc-aux or gc-grad"),
    "--iterations": ("iterations", "solver iterations"),
    "--sigma2": ("sigma2", "prior variance (gc-aux)"),
    "--lambda-e": ("lambda_e", "Tikhonov weight of the prior (gc-aux)"),
    "--doa": ("doas", "DOAs in degrees: a comma list like 45,135 for simulate and "
                      "separate, colon pairs like 45:135,45:90 for benchmark"),
    "--constrained-channels": ("constrained_channels",
                               "comma list of 0-based output channels to constrain"),
    "--snr": ("snrs", "comma list of SNRs in dB"),
    "--seed": ("seed", "random seed"),
    "--duration": ("duration", "scene duration in seconds"),
    "--out": ("out_dir", "output directory"),
    "--refs": ("refs", "comma list of ground-truth image WAVs "
                       "(enables SIR/SDR in the report)"),
}
# the key --doa sets for each command, and the form its text takes there
_DOA_FORMS = {"simulate": ("doas", "a comma list like 45,135"),
              "separate": ("doas", "a comma list like 45,135"),
              "benchmark": ("doa_pairs", "colon pairs like 45:135,45:90")}
# key -> the other keys it also sets, from its parsed value, unless the same
# source (the config file or the flags) names them itself
_COMPANIONS = {
    "algorithm": lambda algorithm: {"algorithms": (algorithm,)},
    "seed": lambda seed: {"seeds": (seed,)},
    "snrs": lambda snrs: {"snr_db": snrs[0]} if snrs else {},
}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # (how the source names snrs, key -> text), in rising precedence
    sources = []
    if getattr(args, "config", None):
        sources.append((f"snrs in {args.config}", io.read_keyvalue(args.config)))
    flags = {key: raw for key, _ in FLAGS.values()
             if (raw := getattr(args, key, None)) is not None}
    if "doas" in flags:
        # only --doa maps to a key by command; a config file names the key
        key, form = _DOA_FORMS[args.command]
        if (":" in flags["doas"]) != (key == "doa_pairs"):
            raise ConfigError(f"{args.command} --doa takes {form}, got {flags['doas']!r}")
        flags[key] = flags.pop("doas")
    sources.append(("--snr", flags))
    values, snr_source = {}, None
    for snrs_name, texts in sources:
        parsed = {key: _coerce(key, raw) for key, raw in texts.items()}
        for key, value in parsed.items():
            if key in _COMPANIONS:
                values.update(_COMPANIONS[key](value))
        values.update(parsed)  # after the companions, so a key the source names wins
        if "snrs" in texts:
            snr_source = None if "snr_db" in texts else (snrs_name, texts["snrs"])
    cfg = replace(ExperimentConfig(), **values)
    # simulate renders one scene, so the snrs that set its SNR hold exactly one
    if args.command == "simulate" and snr_source and len(cfg.snrs) != 1:
        name, text = snr_source
        raise ConfigError(f"simulate {name} takes one SNR in dB like 20 or inf, got {text!r}")
    return cfg


def _read_channel0(kind: str, paths, rate: int | None = None):
    """Channel 0 of each ``kind`` WAV in ``paths`` and the rate they share,
    each checked to be at ``rate`` Hz, or at the first file's rate if None."""
    signals = []
    for path in paths:
        data, file_rate = io.read_wav(path)
        rate = file_rate if rate is None else rate
        if file_rate != rate:
            raise ConfigError(f"{kind} {path} has rate {file_rate} Hz, expected {rate} Hz")
        signals.append(data[:, 0] if data.ndim == 2 else data)
    return signals, rate


def _load_sources(cfg: ExperimentConfig, n_synthetic: int):
    """The sources ``simulate`` renders and their rate in Hz: the source
    WAVs' rate, or 16 kHz for synthetic ones."""
    if not cfg.sources:
        rate = int(StftConfig.sample_rate)
        return synthetic_sources(n_synthetic, cfg.duration, rate, cfg.seed), rate
    return _read_channel0("source", cfg.sources)  # SceneSpec checks lengths


def run_separation(spec, cfg: ExperimentConfig):
    """Run ``cfg.algorithm`` on an analyzed mixture or its HermitianCache.

    Output channels ``cfg.constrained_channels`` are constrained toward
    ``cfg.doas``: for ``gc-aux`` these are directions to suppress, for
    ``gc-grad`` directions to preserve. Returns ``(stack, demixed, trace)``,
    with no demixed spectrogram for a cache.
    """
    iterations = cfg.resolved_iterations(cfg.algorithm)
    model = SourceModel()
    if cfg.algorithm == "gc-grad":
        return run_gradient_iva(spec, cfg.constrained_channels, cfg.doas, cfg.geometry(), model,
                                iterations, cfg.stepsize, cfg.constraint_weight)
    prior = None if cfg.algorithm == "aux" else PriorConfig.constant(
        cfg.constrained_channels, cfg.doas, cfg.geometry(), spec.n_bins, cfg.sigma2, cfg.lambda_e)
    return run_informed_iva(spec, prior, model, iterations)


def _outputs(spec: ComplexSpectrogram, stack, n_samples: int) -> np.ndarray:
    """Time-domain outputs (samples x channels) cropped to ``n_samples``,
    each projected back to the reference microphone 0: a copy of ``spec``
    is demixed and projected in place, so beside ``spec`` one
    spectrogram-sized array is made."""
    copy = ComplexSpectrogram(spec.data.copy(), spec.config)
    return synthesize(demix_and_project(copy, stack, 0))[:n_samples]


def _score(projector: ReferenceProjector, outputs: np.ndarray, order):
    """Per-channel SIR/SDR of ``outputs`` (samples x channels), the best
    assignment of channels to the references taken in ``order``, and
    whether that assignment is the identity."""
    scores = projector.score(outputs.T)
    perm = scores.assignment(order)
    return scores.sir_db, scores.sdr_db, perm, perm == tuple(range(len(perm)))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    doas = cfg.doas or (45.0, 135.0)
    signals, rate = _load_sources(cfg, len(doas))
    scene = SceneSpec(signals, doas, cfg.snr_db, seed=cfg.seed)
    mixture, images = simulate_mixture(scene, cfg.geometry(), StftConfig(sample_rate=rate))
    for samples in (mixture, images):  # source WAVs may carry any level
        io.check_wav_samples(samples)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_wav(out / "mixture.wav", mixture, rate)
    image_files = []
    for k in range(images.shape[0]):
        name = f"source{k + 1:02d}.wav"
        io.write_wav(out / name, images[k], rate)
        image_files.append(name)
    meta = {
        "config": cfg.echo(),
        "doas": list(doas),
        "snr_db": cfg.snr_db,
        "seed": cfg.seed,
        "n_samples": int(mixture.shape[0]),
        "files": {"mixture": "mixture.wav", "images": image_files},
    }
    io.write_json(out / "scene.json", meta)
    return 0


def cmd_separate(cfg: ExperimentConfig, mixture_path: str) -> int:
    mixture, rate = io.read_wav(mixture_path)
    if mixture.ndim != 2 or mixture.shape[1] < 2:
        raise InvalidInputError(f"{mixture_path} is not a multichannel mixture")
    if cfg.refs and len(cfg.refs) != mixture.shape[1]:
        raise ConfigError(f"--refs names {len(cfg.refs)} reference WAVs; the "
                          f"{mixture.shape[1]}-channel mixture needs {mixture.shape[1]}")
    refs, _ = _read_channel0("reference", cfg.refs, rate)
    for path, ref in zip(cfg.refs, refs):
        if len(ref) != mixture.shape[0]:
            print(f"gc-iva: warning: reference {path} has {len(ref)} samples, "
                  f"mixture has {mixture.shape[0]}; comparing the common length",
                  file=sys.stderr)
    # the solve reads only the mixture's Hermitian cache, built from the
    # signal and dropped once solved; each output is analyzed again and
    # demixed and projected back in place, and the mixture is dropped before
    # the last synthesis, so no two spectrogram-sized arrays are ever held
    n_samples = mixture.shape[0]
    stft_cfg = StftConfig(sample_rate=rate)
    stack, _, trace = run_separation(HermitianCache.from_signal(mixture, stft_cfg), cfg)

    report: dict = {"config": cfg.echo(), "algorithm": cfg.algorithm,
                    "iterations": cfg.resolved_iterations(cfg.algorithm),
                    "sample_rate": rate}
    if refs:
        # metrics compare against the first (reference) microphone, so they
        # are computed on reference-projected outputs; the written WAVs keep
        # the per-channel own-microphone scaling
        ref_outputs = synthesize(demix_and_project(analyze(mixture, stft_cfg), stack, 0))
        ref_outputs = ref_outputs[:n_samples]
        n = min(ref_outputs.shape[0], min(len(r) for r in refs))
        projector = ReferenceProjector(np.stack([r[:n] for r in refs]))
        sir, sdr, perm, matched = _score(projector, ref_outputs[:n], range(len(refs)))
        del projector, ref_outputs
        report["metrics"] = {"sir_db": sir.tolist(), "sdr_db": sdr.tolist(),
                             "permutation": list(perm), "permutation_matched": matched}
    spec = analyze(mixture, stft_cfg)
    del mixture
    outputs = synthesize(demix_and_project(spec, stack, None))[:n_samples]
    del spec
    report["cost_trace"] = {
        "j_iva": [float(v) for v in trace.j_iva],
        "j_prior": [float(v) for v in trace.j_prior],
    }
    io.check_wav_samples(outputs)
    # nothing below can reject the run, so a rejected run leaves no directory
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(outputs.shape[1]):
        io.write_wav(out / f"separated{k + 1:02d}.wav", outputs[:, k], rate)
    io.write_cost_trace_csv(out / "cost_trace.csv", trace)
    io.write_json(out / "report.json", report)
    return 0


def _benchmark_runs(cfg: ExperimentConfig, cache: HermitianCache, doas):
    """Yields the (constrained source, demixing stack, intended reference
    order) runs of ``cfg.algorithm`` on one analyzed two-source scene, each
    solved from the scene's Hermitian ``cache``.

    aux runs once, unconstrained (constrained source -1), with the reference
    order (0, 1). gc-aux and gc-grad run once per target source with output
    channel 0 constrained and the reference order (target, other): gc-aux
    nulls the other source's DOA, gc-grad preserves the target's.
    """
    for target in (-1,) if cfg.algorithm == "aux" else range(len(doas)):
        run_cfg, order = cfg, (0, 1)
        if target >= 0:
            other = 1 - target
            doa = doas[other] if cfg.algorithm == "gc-aux" else doas[target]
            run_cfg, order = replace(cfg, constrained_channels=(0,), doas=(doa,)), (target, other)
        yield target, run_separation(cache, run_cfg)[0], order


def _benchmark_pair_seed(cfg: ExperimentConfig, pair, seed: int, swap: int):
    """The runs.csv rows of one DOA pair and seed, one list per SNR of
    ``cfg.snrs``, with the pair's DOAs swapped if ``swap``. A unit of the
    sweep that needs nothing else: it renders the seed's sources itself.

    The clean images and the reference projector depend on the pair and the
    seed alone, so every SNR shares them; only the noise, the mixture and
    what is computed from it are made per SNR. Each large array is dropped
    at its last use: the sources once imaged, the images once the projector
    and their sum exist, the sum once the last mixture is made, a mixture
    once analyzed. Every run of an SNR solves from one Hermitian cache of
    its spectrogram, which is dropped before any run's outputs are formed:
    those are projected back to the reference microphone, matching the
    ground-truth images the metrics compare against, and scored one run at
    a time."""
    stft_cfg = StftConfig()
    doas = (pair[0], pair[1]) if swap == 0 else (pair[1], pair[0])
    sources = synthetic_sources(2, cfg.duration, stft_cfg.sample_rate, seed)
    images = render_images(SceneSpec(sources, doas, seed=seed), cfg.geometry(), stft_cfg)
    del sources
    projector = ReferenceProjector(images[:, :, 0])  # keeps no view into images
    clean = images.sum(axis=0)
    del images
    n_samples = clean.shape[0]
    label = f"{pair[0]:g}-{pair[1]:g}"
    rows_per_snr = []
    for i, snr in enumerate(cfg.snrs):
        mixture = add_noise(clean, snr, seed)
        if i == len(cfg.snrs) - 1:
            del clean  # its last use (at an infinite SNR, mixture is clean itself)
        input_sir = float(np.mean(projector.score(mixture.T).sir_db))
        spec = analyze(mixture, stft_cfg)
        del mixture
        cache = HermitianCache.from_spectrogram(spec)
        runs = [(algorithm, *run) for algorithm in cfg.algorithms
                for run in _benchmark_runs(replace(cfg, algorithm=algorithm), cache, doas)]
        del cache
        rows = []
        for algorithm, target, stack, order in runs:
            sir, sdr, _, matched = _score(projector, _outputs(spec, stack, n_samples), order)
            rows.append([
                label, snr, f"{seed}", algorithm, f"{target}",
                sir[0], sir[1], sdr[0], sdr[1], input_sir,
                int(matched),
            ])
        rows_per_snr.append(rows)
    return rows_per_snr


def _sweep_rows(cfg: ExperimentConfig, unit_rows: dict) -> list:
    """The runs.csv rows in pair -> SNR -> seed order, from ``unit_rows``,
    which maps each (pair, seed) unit to its rows per SNR whatever order
    the units ran in."""
    return [row for pair in cfg.doa_pairs for s in range(len(cfg.snrs))
            for seed in cfg.seeds for row in unit_rows[pair, seed][s]]


def cmd_benchmark(cfg: ExperimentConfig) -> int:
    for key in ("doa_pairs", "snrs", "seeds", "algorithms"):
        if not getattr(cfg, key):
            raise ConfigError(f"benchmark needs a non-empty {key} list")
    # the DOA swap depends on the seed alone
    swaps = {seed: int(np.random.default_rng([seed, 1]).integers(0, 2)) for seed in cfg.seeds}
    # each unit holds its own projector, so one is alive at a time
    run_rows = _sweep_rows(cfg, {(pair, seed): _benchmark_pair_seed(cfg, pair, seed, swaps[seed])
                                 for pair in cfg.doa_pairs for seed in cfg.seeds})

    groups: dict[tuple, list] = {}  # (scenario, snr_db, algorithm) -> its runs.csv rows
    for row in run_rows:
        groups.setdefault((row[0], row[1], row[3]), []).append(row)
    agg_rows = []
    for key, rows in groups.items():
        # SIR and SDR: the mean over runs of each run's channel mean
        columns = ([np.mean(r[5:7]) for r in rows], [np.mean(r[7:9]) for r in rows],
                   [r[9] for r in rows], [r[10] for r in rows])
        agg_rows.append([*key, *(float(np.mean(c)) for c in columns), f"{len(rows)}"])
    out = Path(cfg.out_dir)  # made only once the sweep has run
    out.mkdir(parents=True, exist_ok=True)
    io.write_csv(out / "runs.csv",
                 ["scenario", "snr_db", "seed", "algorithm", "constrained_source",
                  "sir_ch1_db", "sir_ch2_db", "sdr_ch1_db", "sdr_ch2_db",
                  "input_sir_db", "perm_matched"],
                 run_rows)
    io.write_csv(out / "benchmark.csv",
                 ["scenario", "snr_db", "algorithm", "sir_db", "sdr_db",
                  "input_sir_db", "perm_success_rate", "n_runs"],
                 agg_rows)
    io.write_json(out / "benchmark.json", {"config": cfg.echo()})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto the config exit code
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gc-iva", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scene to mixture and image WAVs")
    p_sep = sub.add_parser("separate", help="separate a multichannel mixture WAV")
    p_sep.add_argument("mixture", help="input mixture WAV file")
    p_bench = sub.add_parser("benchmark", help="sweep scenes x SNRs x seeds x algorithms")
    for p in (p_sim, p_sep, p_bench):
        p.add_argument("--config", help="key = value configuration file")
        for flag, (key, text) in FLAGS.items():
            if flag != "--refs" or p is p_sep:
                p.add_argument(flag, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "separate":
            return cmd_separate(cfg, args.mixture)
        return cmd_benchmark(cfg)  # the parser admits no other command
    except (ConfigError, InvalidInputError) as exc:
        print(f"gc-iva: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gc-iva: I/O error: {exc}", file=sys.stderr)
        return 2
    except (SingularUpdateError, CostOverflowError, DegenerateReferenceError) as exc:
        print(f"gc-iva: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GcivaError as exc:
        print(f"gc-iva: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
