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
)
from .iva import PriorConfig, SourceModel, project_back, run_gradient_iva, run_informed_iva
from .metrics import ReferenceProjector
from .scene import SPEED_OF_SOUND, ArrayGeometry, SceneSpec, simulate_mixture, synthetic_sources
from .stft import StftConfig, analyze, synthesize

ALGORITHMS = ("aux", "gc-aux", "gc-grad")
DEFAULT_ITERATIONS = {"aux": 100, "gc-aux": 100, "gc-grad": 350}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment settings (defaults mirror the reference
    operating point: 2048-sample Hamming window at 16 kHz, sigma2 = 40,
    lambda_e = 1e-3, stepsize 0.05 with constraint weight 0.5, a 0.21 m
    microphone pair, and an SNR sweep over 10/20/30 dB)."""

    algorithm: str = "gc-aux"
    algorithms: tuple[str, ...] = ALGORITHMS
    iterations: int | None = None
    window_length: int = StftConfig.window_length
    hop: int = StftConfig.hop
    sample_rate: float = StftConfig.sample_rate
    window_kind: str = StftConfig.window_kind
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
    speed_of_sound: float = SPEED_OF_SOUND
    sources: tuple[str, ...] = ()
    refs: tuple[str, ...] = ()
    out_dir: str = "."

    def resolved_iterations(self, algorithm: str) -> int:
        if self.iterations is not None:
            return self.iterations
        return DEFAULT_ITERATIONS[algorithm]

    def stft_config(self, sample_rate: float | None = None) -> StftConfig:
        rate = self.sample_rate if sample_rate is None else sample_rate
        return StftConfig(self.window_length, self.hop, rate, self.window_kind)

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.linear_pair(self.mic_spacing, self.speed_of_sound)

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


def load_config(path) -> dict:
    return {key: _coerce(key, raw) for key, raw in io.read_keyvalue(path).items()}


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
    for name in (cfg.algorithm, *cfg.algorithms):
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if cfg.iterations is not None and cfg.iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    return cfg


def _read_channel0(kind: str, paths, rate: float) -> list[np.ndarray]:
    """Channel 0 of each ``kind`` WAV in ``paths``, each checked to be at ``rate`` Hz."""
    signals = []
    for path in paths:
        data, file_rate = io.read_wav(path)
        if file_rate != rate:
            raise ConfigError(f"{kind} {path} has rate {file_rate} Hz, expected {rate:g} Hz")
        signals.append(data[:, 0] if data.ndim == 2 else data)
    return signals


def _load_sources(cfg: ExperimentConfig, n_synthetic: int) -> np.ndarray:
    if not cfg.sources:
        return synthetic_sources(n_synthetic, cfg.duration, cfg.sample_rate, cfg.seed)
    signals = _read_channel0("source", cfg.sources, cfg.sample_rate)
    if len({len(s) for s in signals}) != 1:
        raise InvalidInputError("source signals must all have the same length")
    return np.stack(signals)


def run_separation(spec, cfg: ExperimentConfig):
    """Run ``cfg.algorithm`` on an analyzed mixture.

    Output channels ``cfg.constrained_channels`` are constrained toward
    ``cfg.doas``: for ``gc-aux`` these are directions to suppress, for
    ``gc-grad`` directions to preserve. Returns ``(stack, demixed, trace)``.
    """
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    iterations = cfg.resolved_iterations(cfg.algorithm)
    model = SourceModel()
    if cfg.algorithm == "gc-grad":
        return run_gradient_iva(spec, cfg.constrained_channels, cfg.doas, cfg.geometry(), model,
                                iterations, cfg.stepsize, cfg.constraint_weight)
    prior = None if cfg.algorithm == "aux" else PriorConfig.constant(
        cfg.constrained_channels, cfg.doas, cfg.geometry(), spec.n_bins, cfg.sigma2, cfg.lambda_e)
    return run_informed_iva(spec, prior, model, iterations)


def _outputs(demixed, stack, reference: int | None, n_samples: int) -> np.ndarray:
    """Time-domain outputs (samples x channels) cropped to ``n_samples``:
    ``reference=None`` scales each to its own microphone (identity demixing
    stays untouched), an integer projects every one back to that microphone."""
    return synthesize(project_back(demixed, stack, reference))[:n_samples]


def _score(projector: ReferenceProjector, outputs: np.ndarray, order):
    """Per-channel SIR/SDR of ``outputs`` (samples x channels), the best
    assignment of channels to the references taken in ``order``, and
    whether that assignment is the identity."""
    scores = projector.score(outputs.T)
    perm = scores.assignment(order)
    return scores.sir_db, scores.sdr_db, perm, perm == tuple(range(len(perm)))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if not float(cfg.sample_rate).is_integer():
        raise ConfigError(f"sample_rate {cfg.sample_rate:g} Hz is not a whole number, "
                          f"which the WAV header needs")
    doas = cfg.doas or (45.0, 135.0)
    signals = _load_sources(cfg, len(doas))
    scene = SceneSpec(signals, doas, cfg.snr_db, seed=cfg.seed)
    mixture, images = simulate_mixture(scene, cfg.geometry(), cfg.stft_config())
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_wav(out / "mixture.wav", mixture, int(cfg.sample_rate))
    image_files = []
    for k in range(images.shape[0]):
        name = f"source{k + 1:02d}.wav"
        io.write_wav(out / name, images[k], int(cfg.sample_rate))
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
    refs = _read_channel0("reference", cfg.refs, rate)
    for path, ref in zip(cfg.refs, refs):
        if len(ref) != mixture.shape[0]:
            print(f"gc-iva: warning: reference {path} has {len(ref)} samples, "
                  f"mixture has {mixture.shape[0]}; comparing the common length",
                  file=sys.stderr)
    # the spectrogram is not held past the solve, which lowers the peak
    # memory of the output stage
    stack, demixed, trace = run_separation(analyze(mixture, cfg.stft_config(rate)), cfg)
    outputs = _outputs(demixed, stack, None, mixture.shape[0])

    report: dict = {"config": cfg.echo(), "algorithm": cfg.algorithm,
                    "iterations": cfg.resolved_iterations(cfg.algorithm),
                    "sample_rate": rate}
    if refs:
        # metrics compare against the first (reference) microphone, so they
        # are computed on reference-projected outputs; the written WAVs keep
        # the per-channel own-microphone scaling
        ref_outputs = _outputs(demixed, stack, 0, mixture.shape[0])
        n = min(ref_outputs.shape[0], min(len(r) for r in refs))
        projector = ReferenceProjector(np.stack([r[:n] for r in refs]))
        sir, sdr, perm, matched = _score(projector, ref_outputs[:n], range(len(refs)))
        report["metrics"] = {"sir_db": sir.tolist(), "sdr_db": sdr.tolist(),
                             "permutation": list(perm), "permutation_matched": matched}
    report["cost_trace"] = {
        "j_iva": [float(v) for v in trace.j_iva],
        "j_prior": [float(v) for v in trace.j_prior],
    }
    # nothing below can reject the run, so a rejected run leaves no directory
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(outputs.shape[1]):
        io.write_wav(out / f"separated{k + 1:02d}.wav", outputs[:, k], rate)
    io.write_cost_trace_csv(out / "cost_trace.csv", trace)
    io.write_json(out / "report.json", report)
    return 0


def _benchmark_runs(cfg: ExperimentConfig, spec, doas, n_samples: int):
    """Yields the (constrained source, outputs, intended reference order)
    runs of ``cfg.algorithm`` on one analyzed two-source scene.

    aux runs once, unconstrained (constrained source -1), with the reference
    order (0, 1). gc-aux and gc-grad run once per target source with output
    channel 0 constrained and the reference order (target, other): gc-aux
    nulls the other source's DOA, gc-grad preserves the target's. Outputs are
    projected back to the reference microphone, matching the ground-truth
    images the metrics compare against.
    """
    for target in (-1,) if cfg.algorithm == "aux" else range(len(doas)):
        run_cfg, order = cfg, (0, 1)
        if target >= 0:
            other = 1 - target
            doa = doas[other] if cfg.algorithm == "gc-aux" else doas[target]
            run_cfg, order = replace(cfg, constrained_channels=(0,), doas=(doa,)), (target, other)
        stack, demixed, _ = run_separation(spec, run_cfg)
        outputs = _outputs(demixed, stack, 0, n_samples)
        del stack, demixed  # not held while the caller scores the outputs
        yield target, outputs, order


def cmd_benchmark(cfg: ExperimentConfig) -> int:
    for key in ("doa_pairs", "snrs", "seeds", "algorithms"):
        if not getattr(cfg, key):
            raise ConfigError(f"benchmark needs a non-empty {key} list")
    geometry = cfg.geometry()
    stft_cfg = cfg.stft_config()
    run_rows = []
    for pair in cfg.doa_pairs:
        label = f"{pair[0]:g}-{pair[1]:g}"
        for snr in cfg.snrs:
            for seed in cfg.seeds:
                signals = synthetic_sources(2, cfg.duration, cfg.sample_rate, seed)
                swap = int(np.random.default_rng([seed, 1]).integers(0, 2))
                doas = (pair[0], pair[1]) if swap == 0 else (pair[1], pair[0])
                scene = SceneSpec(signals, doas, snr, seed=seed)
                mixture, images = simulate_mixture(scene, geometry, stft_cfg)
                projector = ReferenceProjector(images[:, :, 0])
                input_sir = float(np.mean(projector.score(mixture.T).sir_db))
                spec = analyze(mixture, stft_cfg)
                for algorithm in cfg.algorithms:
                    for target, outputs, order in _benchmark_runs(
                            replace(cfg, algorithm=algorithm), spec, doas, mixture.shape[0]):
                        sir, sdr, _, matched = _score(projector, outputs, order)
                        run_rows.append([
                            label, snr, f"{seed}", algorithm, f"{target}",
                            sir[0], sir[1], sdr[0], sdr[1], input_sir,
                            int(matched),
                        ])

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
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
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
