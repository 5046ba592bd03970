import argparse
import csv
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import gciva
from gciva import ReferenceProjector, io as gio
from gciva.cli import FLAGS, ExperimentConfig, main, resolve_config, build_parser


def run_cli(*args):
    return main([str(a) for a in args])


def run_python(code, *args, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this gciva."""
    src = str(Path(gciva.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, **kwargs)


def scipy_check():
    """Code that ends a fresh interpreter's run: it exits 1, naming them, if
    any scipy module is loaded."""
    return ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)")


def test_cli_import_skips_scipy_signal():
    # gciva needs numpy alone
    proc = run_python(f"import sys, gciva, gciva.cli; {scipy_check()}",
                      capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def resolve_file(path):
    """The configuration a ``--config`` file alone resolves to."""
    return resolve_config(argparse.Namespace(command="benchmark", config=str(path)))


def simulate_small(out_dir, seed=0, snr="20", doa="45,135"):
    return run_cli(
        "simulate", "--out", out_dir, "--seed", seed, "--snr", snr,
        "--doa", doa, "--duration", "1.0",
    )


class TestConfigResolution:
    def test_defaults_match_operating_point(self):
        args = build_parser().parse_args(["simulate"])
        cfg = resolve_config(args)
        assert cfg.window_length == 2048
        assert cfg.hop == 1024
        assert cfg.sample_rate == 16000.0
        assert cfg.sigma2 == 40.0
        assert cfg.lambda_e == 1e-3
        assert cfg.stepsize == 0.05
        assert cfg.constraint_weight == 0.5
        assert cfg.mic_spacing == 0.21
        assert cfg.snrs == (10.0, 20.0, 30.0)
        assert cfg.resolved_iterations("aux") == 100
        assert cfg.resolved_iterations("gc-aux") == 100
        assert cfg.resolved_iterations("gc-grad") == 350

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sigma2 = 20\niterations = 7\nalgorithm = aux\n")
        args = build_parser().parse_args(
            ["separate", "mix.wav", "--config", str(path), "--sigma2", "55"]
        )
        cfg = resolve_config(args)
        assert cfg.sigma2 == 55.0  # flag wins
        assert cfg.iterations == 7
        assert cfg.algorithm == "aux"

    def test_unknown_config_key_names_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sigma3 = 1\n")
        with pytest.raises(Exception, match="sigma3"):
            resolve_file(path)

    def test_window_kind_is_an_unknown_key(self, tmp_path, capsys):
        # the window is Hamming only, so no key selects it
        path = tmp_path / "exp.cfg"
        path.write_text("window_kind = hamming\n")
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 1
        assert "unknown config key: 'window_kind'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (b"sigma2 = 40\n\xff = 3\n", "exp.cfg:2: byte 0xff is not UTF-8 text"),
        (b"sigma2 = 40\n# again\nsigma2 = 50\n", "exp.cfg:3: key 'sigma2' repeats line 1"),
    ], ids=["undecodable-byte", "repeated-key"])
    def test_bad_config_file_exits_one_naming_file_and_line(self, tmp_path, capsys,
                                                              content, message):
        path = tmp_path / "exp.cfg"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--duration", "0.5", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("gc-iva: config error: ") and err.endswith(f"{message}\n")
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_file_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_bytes("sigma2 = 41\n".encode("utf-8-sig"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--duration", "0.5", "--out", out) == 0
        assert json.loads((out / "scene.json").read_text())["config"]["sigma2"] == 41.0

    def test_readme_documents_every_config_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| config key | default | what it sets |") + 2  # past the rule
        keys = set()
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            keys.add(line.split("|")[1].strip().strip("`"))
        assert keys == {f.name for f in fields(ExperimentConfig)}

    def test_defaults_round_trip_through_config_text(self, tmp_path):
        def text(value):
            if value is None:
                return ""
            if isinstance(value, tuple):
                return ",".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v)
                                for v in value)
            return str(value)

        defaults = ExperimentConfig()
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(f"{f.name} = {text(getattr(defaults, f.name))}\n"
                                for f in fields(ExperimentConfig)))
        assert resolve_file(path) == defaults

    def test_infinite_snr_spellings(self, tmp_path):
        path = tmp_path / "exp.cfg"
        inf = float("inf")
        for spelling in ("inf", "infinite", "Infinite"):
            path.write_text(f"snr_db = {spelling}\nsnrs = 10, {spelling}\n")
            loaded = resolve_file(path)
            assert (loaded.snr_db, loaded.snrs) == (inf, (10.0, inf))
            cfg = resolve_config(build_parser().parse_args(["simulate", "--snr", spelling]))
            assert (cfg.snr_db, cfg.snrs) == (inf, (inf,))

    # one case per flag: the flag's text, and config-file text that must
    # resolve to the same configuration, companion keys included
    FLAG_CASES = [
        ("--algorithm", "gc-grad", "algorithm = gc-grad\nalgorithms = gc-grad\n"),
        ("--iterations", "7", "iterations = 7\n"),
        ("--sigma2", "2.5e1", "sigma2 = 2.5e1\n"),
        ("--lambda-e", "0.01", "lambda_e = 0.01\n"),
        ("--doa", "60, 120", "doas = 60, 120\n"),
        ("--doa", "45:135,20:160", "doa_pairs = 45:135,20:160\n"),
        ("--constrained-channels", "0,1", "constrained_channels = 0,1\n"),
        ("--snr", "infinite,10", "snrs = infinite,10\nsnr_db = infinite\n"),
        ("--seed", "4", "seed = 4\nseeds = 4\n"),
        ("--duration", "1.5", "duration = 1.5\n"),
        ("--out", "runs/a", "out_dir = runs/a\n"),
        ("--refs", "a.wav,b.wav", "refs = a.wav,b.wav\n"),
    ]

    @pytest.mark.parametrize("flag, text, config_text", FLAG_CASES)
    def test_flag_parses_like_config_text(self, tmp_path, flag, text, config_text):
        assert {case[0] for case in self.FLAG_CASES} == set(FLAGS)
        assert {key for key, _ in FLAGS.values()} <= {f.name for f in fields(ExperimentConfig)}
        path = tmp_path / "exp.cfg"
        path.write_text(config_text)
        parser = build_parser()
        # colon DOA pairs are benchmark's --doa form; separate takes a comma list
        command = ["benchmark"] if flag == "--doa" and ":" in text else ["separate", "m.wav"]
        from_file = resolve_config(parser.parse_args([*command, "--config", str(path)]))
        from_flag = resolve_config(parser.parse_args([*command, flag, text]))
        assert from_flag == from_file != ExperimentConfig()
        # a file's key sets its companions as the flag does (seed = 4 alone)
        path.write_text(config_text.splitlines(keepends=True)[0])
        assert resolve_config(parser.parse_args([*command, "--config", str(path)])) == from_flag

    def test_file_seed_and_algorithm_narrow_a_benchmark(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 3\nalgorithm = aux\n")
        parser = build_parser()
        from_file = resolve_config(parser.parse_args(["benchmark", "--config", str(path)]))
        from_flags = resolve_config(parser.parse_args(
            ["benchmark", "--seed", "3", "--algorithm", "aux"]))
        assert from_file == from_flags
        assert (from_file.seeds, from_file.algorithms) == ((3,), ("aux",))

    @pytest.mark.parametrize("config_text, flags, seeds", [
        ("seeds = 1,2\nseed = 3\n", [], (1, 2)),  # a companion the source names is kept
        ("seeds = 1,2\n", ["--seed", "5"], (5,)),  # a later source's companion wins
    ])
    def test_companion_precedence(self, tmp_path, config_text, flags, seeds):
        path = tmp_path / "exp.cfg"
        path.write_text(config_text)
        args = build_parser().parse_args(["benchmark", "--config", str(path), *flags])
        assert resolve_config(args).seeds == seeds

    def test_unknown_algorithm_exits_one(self, tmp_path):
        code = run_cli("separate", tmp_path / "none.wav", "--algorithm", "fastica")
        assert code == 1

    def test_usage_error_exits_one(self, capsys):
        assert run_cli("separate") == 1
        # a bad flag value is reported like a bad config-file value
        assert run_cli("separate", "m.wav", "--iterations", "7.5") == 1
        assert "invalid value for 'iterations': '7.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    @pytest.mark.parametrize("flag, value, key", [
        ("--duration", "nan", "duration"), ("--duration", "inf", "duration"),
        ("--seed", "-1", "seed"), ("--iterations", "-1", "iterations")])
    def test_bad_duration_or_seed_exits_one(self, tmp_path, command, flag, value, key):
        out = tmp_path / "out"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          command, flag, value, "--out", str(out),
                          capture_output=True, text=True)
        assert proc.returncode == 1
        assert f"gc-iva: config error: {key} " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_negative_seed_in_a_list_names_seeds(self, tmp_path):
        config = tmp_path / "seeds.cfg"
        config.write_text("seeds = 0,-2\n")
        with pytest.raises(gciva.InvalidInputError, match=r"^seeds -2 outside \[0, inf\)$"):
            resolve_file(config)

    @pytest.mark.parametrize("changes, error, message", [
        ({"seed": -1}, gciva.InvalidInputError, "seed -1 outside [0, inf)"),
        ({"seeds": (0, -2)}, gciva.InvalidInputError, "seeds -2 outside [0, inf)"),
        ({"iterations": -1}, gciva.InvalidInputError, "iterations -1 outside [0, inf)"),
        ({"algorithm": "x"}, gciva.ConfigError,
         "unknown algorithm 'x', expected one of ('aux', 'gc-aux', 'gc-grad')"),
        ({"algorithms": ("aux", "x")}, gciva.ConfigError,
         "unknown algorithm 'x', expected one of ('aux', 'gc-aux', 'gc-grad')"),
    ])
    def test_replace_checks_each_value(self, changes, error, message):
        # every configuration is checked when made, so a replace() of a
        # valid one is too, not only the configurations the CLI resolves
        with pytest.raises(error) as info:
            replace(ExperimentConfig(), **changes)
        assert str(info.value) == message


class TestSimulate:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "scene"
        assert simulate_small(out) == 0
        mixture, rate = gio.read_wav(out / "mixture.wav")
        assert rate == 16000
        assert mixture.shape == (16000, 2)
        img1, _ = gio.read_wav(out / "source01.wav")
        img2, _ = gio.read_wav(out / "source02.wav")
        assert img1.shape == img2.shape == (16000, 2)
        meta = json.loads((out / "scene.json").read_text())
        assert meta["doas"] == [45.0, 135.0]
        assert meta["files"]["mixture"] == "mixture.wav"
        assert meta["config"]["seed"] == 0

    def test_infinite_snr_is_noiseless(self, tmp_path):
        out = tmp_path / "scene"
        assert simulate_small(out, snr="inf") == 0
        mixture, _ = gio.read_wav(out / "mixture.wav")
        img1, _ = gio.read_wav(out / "source01.wav")
        img2, _ = gio.read_wav(out / "source02.wav")
        np.testing.assert_allclose(mixture, img1 + img2, atol=1e-6)
        def reject(token):  # standard JSON has no Infinity or NaN
            raise ValueError(f"scene.json holds the non-standard constant {token}")
        meta = json.loads((out / "scene.json").read_text(), parse_constant=reject)
        assert meta["snr_db"] == "inf"
        assert meta["config"]["snrs"] == ["inf"]

    def test_simulate_loads_no_scipy(self, tmp_path):
        out = tmp_path / "scene"
        proc = run_python(f"import sys; from gciva.cli import main; rc = main(sys.argv[1:]); "
                          f"rc and sys.exit(rc); {scipy_check()}",
                          "simulate", "--seed", "0", "--duration", "1.0", "--out", str(out),
                          capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "mixture.wav").exists()

    @pytest.mark.parametrize("rate, nyquist", [("300", "150"), ("250", "125")])
    def test_band_edge_at_or_above_nyquist_exits_one(self, tmp_path, capsys, rate, nyquist):
        config = tmp_path / "low.cfg"
        config.write_text(f"sample_rate = {rate}\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--duration", "1.0", "--out", out) == 1
        err = capsys.readouterr().err
        # a Nyquist frequency at or below the 150 Hz highpass edge: the rate
        # must exceed twice the edge
        assert f"config error: sample_rate {float(rate)} outside (300, inf)\n" in err
        assert not out.exists()

    def test_fractional_sample_rate_exits_one(self, tmp_path, capsys):
        config = tmp_path / "odd.cfg"
        config.write_text("sample_rate = 16000.7\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--duration", "1.0", "--out", out) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "sample_rate 16000.7 Hz is not a whole number" in err
        assert not out.exists()

    def test_duration_without_samples_exits_one(self, tmp_path):
        out = tmp_path / "scene"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "simulate", "--duration", "0.00001", "--out", str(out),
                          capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error: duration 1e-05 s at 16000 Hz renders 0 samples" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_colon_doa_exits_one(self, tmp_path, capsys):
        # simulate places one source per DOA; colon pairs are benchmark's form
        out = tmp_path / "scene"
        assert run_cli("simulate", "--doa", "45:90", "--duration", "1.0", "--out", out) == 1
        assert ("simulate --doa takes a comma list like 45,135, got '45:90'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_out_of_range_doa_exits_one(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert simulate_small(out, doa="45,200") == 1
        assert "config error: DOA 200.0 outside [0, 180]\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["10,30", ","])
    def test_snr_list_exits_one(self, tmp_path, capsys, snr):
        # simulate renders one scene, so it takes exactly one SNR
        out = tmp_path / "scene"
        assert simulate_small(out, snr=snr) == 1
        assert (f"simulate --snr takes one SNR in dB like 20 or inf, got {snr!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_snrs_sets_the_rendered_snr(self, tmp_path):
        # a file's one-entry snrs renders like --snr with the same text
        config = tmp_path / "exp.cfg"
        config.write_text("snrs = 10\n")
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert run_cli("simulate", "--config", config, "--seed", "0", "--duration", "1.0",
                       "--out", from_file) == 0
        assert simulate_small(from_flag, snr="10") == 0
        assert json.loads((from_file / "scene.json").read_text())["snr_db"] == 10.0
        assert ((from_file / "mixture.wav").read_bytes()
                == (from_flag / "mixture.wav").read_bytes())

    def test_config_snr_list_exits_one(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("snrs = 10, 30\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--duration", "1.0", "--out", out) == 1
        assert (f"simulate snrs in {config} takes one SNR in dB like 20 or inf, got '10, 30'"
                in capsys.readouterr().err)
        assert not out.exists()
        # --snr replaces the file's list, and a file's own snr_db is kept
        assert run_cli("simulate", "--config", config, "--snr", "15", "--duration", "1.0",
                       "--out", out) == 0
        assert json.loads((out / "scene.json").read_text())["snr_db"] == 15.0
        config.write_text("snrs = 10, 30\nsnr_db = 25\n")
        assert run_cli("simulate", "--config", config, "--duration", "1.0", "--out", out) == 0
        assert json.loads((out / "scene.json").read_text())["snr_db"] == 25.0

    def test_config_without_snrs_renders_at_20_db(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("seed = 0\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--duration", "1.0", "--out", out) == 0
        assert json.loads((out / "scene.json").read_text())["snr_db"] == 20.0

    def sources_config(self, tmp_path, *wavs):
        """A config file naming ``wavs``, each given as (name, samples, rate)."""
        rng = np.random.default_rng(8)
        for name, n, rate in wavs:
            gio.write_wav(tmp_path / name, 0.1 * rng.standard_normal(n), rate)
        config = tmp_path / "scene.cfg"
        config.write_text(f"sources = {','.join(str(tmp_path / w[0]) for w in wavs)}\n")
        return config

    def test_source_rate_mismatch_exits_one(self, tmp_path, capsys):
        config = self.sources_config(tmp_path, ("a.wav", 16000, 16000),
                                     ("slow.wav", 8000, 8000))
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert "slow.wav" in err and "8000" in err and "16000" in err
        assert not out.exists()

    def test_source_length_mismatch_exits_one(self, tmp_path, capsys):
        config = self.sources_config(tmp_path, ("a.wav", 16000, 16000),
                                     ("b.wav", 12000, 16000))
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--out", out) == 1
        assert "source signals must all have the same length" in capsys.readouterr().err
        assert not out.exists()

    def test_sources_beyond_float32_exit_one(self, tmp_path, capsys):
        # float64 source WAVs at 1e39 render a scene no float32 WAV can hold
        rng = np.random.default_rng(8)
        for name in ("a.wav", "b.wav"):
            wavfile.write(str(tmp_path / name), 16000, 1e39 * rng.standard_normal(16000))
        config = tmp_path / "scene.cfg"
        config.write_text(f"sources = {tmp_path / 'a.wav'},{tmp_path / 'b.wav'}\n")
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", config, "--out", out) == 1
        assert "WAV samples peak at" in capsys.readouterr().err
        assert not out.exists()

    def test_scene_description_file_with_wav_sources(self, tmp_path):
        rng = np.random.default_rng(8)
        for name in ("a.wav", "b.wav"):
            gio.write_wav(tmp_path / name, 0.1 * rng.standard_normal(16000), 16000)
        scene_file = tmp_path / "scene.cfg"
        scene_file.write_text(
            "# desk scene\n"
            f"sources = {tmp_path / 'a.wav'},{tmp_path / 'b.wav'}\n"
            "doas = 60, 120\n"
            "snr_db = 25\n"
            "seed = 4\n"
            "mic_spacing = 0.21\n"
        )
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", scene_file, "--out", out) == 0
        meta = json.loads((out / "scene.json").read_text())
        assert meta["doas"] == [60.0, 120.0]
        assert meta["config"]["snr_db"] == 25.0
        assert meta["config"]["seed"] == 4
        mixture, _ = gio.read_wav(out / "mixture.wav")
        assert mixture.shape == (16000, 2)


class TestSeparate:
    def test_zero_iterations_is_bit_identical(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        code = run_cli("separate", scene / "mixture.wav", "--algorithm", "aux",
                       "--iterations", "0", "--out", out)
        assert code == 0
        mixture, _ = gio.read_wav(scene / "mixture.wav")
        for k in range(2):
            channel, _ = gio.read_wav(out / f"separated{k + 1:02d}.wav")
            np.testing.assert_array_equal(channel, mixture[:, k])

    @pytest.mark.parametrize("refs", [False, True])
    def test_arrays_die_at_their_last_use(self, tmp_path, monkeypatch, refs):
        # the solve holds the mixture and its Hermitian cache, no
        # spectrogram; each output is analyzed from the mixture once the
        # cache is gone, and the mixture is dropped before the written
        # outputs' spectrogram is synthesized; scoring synthesizes first
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        made, alive = {}, []

        def living(stage):
            gc.collect()
            alive.append((stage, sorted(name for name, ref in made.items() if ref() is not None)))

        def reading(path, original=gciva.cli.io.read_wav):
            data, rate = original(path)
            made.setdefault("mixture", weakref.ref(data))  # the first file read
            return data, rate

        def solving(data, cfg, original=gciva.cli.run_separation):
            made["cache"] = weakref.ref(data)
            living("solve")
            stack, demixed, trace = original(data, cfg)
            assert isinstance(data, gciva.HermitianCache) and demixed is None
            return stack, demixed, trace

        def analyzing(mixture, config, original=gciva.cli.analyze):
            living("analyze")
            spec = original(mixture, config)
            made[f"spectrogram{sum(name.startswith('spec') for name in made) + 1}"] = \
                weakref.ref(spec)
            return spec

        def synthesizing(spec, original=gciva.cli.synthesize):
            living("synthesize")
            return original(spec)

        monkeypatch.setattr(gciva.cli.io, "read_wav", reading)
        monkeypatch.setattr(gciva.cli, "run_separation", solving)
        monkeypatch.setattr(gciva.cli, "analyze", analyzing)
        monkeypatch.setattr(gciva.cli, "synthesize", synthesizing)
        argv = ["separate", scene / "mixture.wav", "--algorithm", "gc-aux", "--doa", "135",
                "--iterations", "2", "--out", tmp_path / "sep"]
        if refs:
            argv += ["--refs", f"{scene / 'source01.wav'},{scene / 'source02.wav'}"]
        assert run_cli(*argv) == 0
        last = "spectrogram2" if refs else "spectrogram1"
        scoring = [("analyze", ["mixture"]), ("synthesize", ["mixture", "spectrogram1"])]
        assert alive == [("solve", ["cache", "mixture"]), *(scoring if refs else []),
                         ("analyze", ["mixture"]), ("synthesize", [last])]

    def test_peak_is_the_mixture_the_cache_and_one_spectrogram(self, tmp_path):
        # an in-process separate never holds more than the mixture, its
        # Hermitian cache and one spectrogram-sized array (1.28, 2.56 and
        # 2.56 MB for this 5 s scene); a solve that held the spectrogram
        # beside the cache and its build would need more
        scene = tmp_path / "scene"
        assert run_cli("simulate", "--out", scene, "--seed", "0", "--duration", "5.0") == 0
        mixture, _ = gio.read_wav(scene / "mixture.wav")
        config = ExperimentConfig().stft_config()
        bound = (mixture.nbytes + gciva.analyze(mixture, config).data.nbytes
                 + gciva.HermitianCache.from_signal(mixture, config).data.nbytes)
        del mixture
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-aux",
                           "--doa", "135", "--iterations", "2", "--out", tmp_path / "sep") == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound

    # the bits of each value as a 32- and a 64-bit IEEE float
    NON_FINITE = {"quiet-nan": (0x7FC00000, 0x7FF8000000000000),
                  "signalling-nan": (0x7F800001, 0x7FF0000000000001),
                  "+inf": (0x7F800000, 0x7FF0000000000000),
                  "-inf": (0xFF800000, 0xFFF0000000000000)}

    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("value", sorted(NON_FINITE))
    def test_non_finite_float_sample_exits_two(self, tmp_path, capsys, value, bits):
        # the reader names the file and the first bad frame; a signalling
        # NaN is decoded without numpy's invalid-cast warning
        samples = np.random.default_rng(29).standard_normal((4000, 2)).astype(f"f{bits // 8}")
        samples[3, 0] = np.nan  # a later bad frame is not the one named
        samples.view(f"u{bits // 8}")[1, 1] = self.NON_FINITE[value][bits // 64]
        path = tmp_path / "mixture.wav"
        wavfile.write(path, 16000, samples)
        out = tmp_path / "sep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("separate", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (f"gc-iva: I/O error: {path}: not a readable WAV file "
                       f"(non-finite sample at frame 1, channel 1)\n")
        assert not out.exists()

    def test_report_and_trace_artifacts(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        code = run_cli(
            "separate", scene / "mixture.wav", "--algorithm", "gc-aux",
            "--iterations", "3", "--doa", "135", "--constrained-channels", "0",
            "--out", out,
            "--refs", f"{scene / 'source01.wav'},{scene / 'source02.wav'}",
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["algorithm"] == "gc-aux"
        assert report["iterations"] == 3
        assert len(report["cost_trace"]["j_iva"]) == 4
        metrics = report["metrics"]
        assert metrics["permutation"] in ([0, 1], [1, 0])
        for key in ("sir_db", "sdr_db"):
            assert len(metrics[key]) == 2
            assert all(isinstance(v, float) and np.isfinite(v) for v in metrics[key])
        assert isinstance(metrics["permutation_matched"], bool)
        assert report["config"]["sigma2"] == 40.0
        assert "config" not in report["metrics"]  # held once, at top level
        lines = (out / "cost_trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,j_iva,j_prior,j_total,j_iva_normalized"
        assert len(lines) == 5

    def test_gradient_baseline_runs(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        code = run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-grad",
                       "--iterations", "2", "--doa", "45", "--out", out)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 2
        assert (out / "separated02.wav").exists()

    def test_separate_without_refs_loads_no_scipy(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        proc = run_python(f"import sys; from gciva.cli import main; rc = main(sys.argv[1:]); "
                          f"rc and sys.exit(rc); {scipy_check()}",
                          "separate", str(scene / "mixture.wav"), "--doa", "135",
                          "--iterations", "3", "--out", str(tmp_path / "sep"),
                          capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sep" / "report.json").exists()

    def test_8_bit_mixture_separates(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        mixture, _ = gio.read_wav(scene / "mixture.wav")
        pcm = np.round(128 + 127 * mixture / np.max(np.abs(mixture))).astype(np.uint8)
        wavfile.write(str(tmp_path / "mix8.wav"), 16000, pcm)
        code = run_cli("separate", tmp_path / "mix8.wav", "--algorithm", "aux",
                       "--iterations", "3", "--out", tmp_path / "sep")
        assert code == 0
        separated, _ = gio.read_wav(tmp_path / "sep" / "separated01.wav")
        assert separated.shape == (16000,)

    def test_missing_mixture_exits_two(self, tmp_path):
        assert run_cli("separate", tmp_path / "nope.wav", "--out", tmp_path) == 2

    def test_malformed_wav_exits_two(self, tmp_path):
        whole = tmp_path / "whole.wav"
        gio.write_wav(whole, np.zeros((1000, 2)), 16000)
        truncated, noise = tmp_path / "truncated.wav", tmp_path / "noise.wav"
        truncated.write_bytes(whole.read_bytes()[:30])
        noise.write_bytes(np.random.default_rng(0).bytes(4096))
        zero_rate = tmp_path / "zero_rate.wav"  # the fmt chunk's rate field is bytes 24-27
        zero_rate.write_bytes(whole.read_bytes()[:24] + bytes(4) + whole.read_bytes()[28:])
        for path in (truncated, noise, zero_rate):
            proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                              "separate", str(path), "--out", str(tmp_path / "x"),
                              capture_output=True, text=True)
            assert proc.returncode == 2
            assert "I/O error" in proc.stderr and path.name in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_silent_mixture_exits_three(self, tmp_path):
        gio.write_wav(tmp_path / "silent.wav", np.zeros((4096, 2)), 16000)
        code = run_cli("separate", tmp_path / "silent.wav", "--algorithm", "aux",
                       "--iterations", "1", "--out", tmp_path / "x")
        assert code == 3

    def test_gradient_geometry_mismatch_is_config_error(self, tmp_path):
        # the CLI geometry is a microphone pair, so a 3-channel mixture cannot
        # be steered; gc-grad must say so rather than crash in its penalty
        mixture = tmp_path / "three.wav"
        noise = np.random.default_rng(0).standard_normal((16000, 3)).astype(np.float32)
        gio.write_wav(mixture, 0.1 * noise, 16000)
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "separate", str(mixture), "--algorithm", "gc-grad", "--doa", "45",
                          "--iterations", "1", "--out", str(tmp_path / "x"),
                          capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gc_requires_matching_doas(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        code = run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-aux",
                       "--iterations", "1", "--doa", "10,20,30", "--out", tmp_path / "x")
        assert code == 1

    def test_out_of_range_doa_exits_one(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        assert run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-aux",
                       "--iterations", "1", "--doa", "200", "--out", out) == 1
        assert "config error: DOA 200.0 outside [0, 180]\n" in capsys.readouterr().err
        assert not out.exists()

    def test_colon_doa_exits_one(self, tmp_path, capsys):
        # separate reads one DOA per constrained channel, not benchmark's pairs
        out = tmp_path / "sep"
        assert run_cli("separate", tmp_path / "m.wav", "--algorithm", "gc-aux",
                       "--doa", "45:90", "--out", out) == 1
        assert ("separate --doa takes a comma list like 45,135, got '45:90'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_run_leaves_no_output_directory(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        code = run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-aux",
                       "--iterations", "1", "--constrained-channels", "2", "--doa", "45",
                       "--out", out)
        assert code == 1
        assert "constrained channel 2 outside [0, 2)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iterations", ["0", "1"])
    def test_negative_stepsize_exits_one(self, tmp_path, capsys, iterations):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        config = tmp_path / "grad.cfg"
        config.write_text("stepsize = -1\n")
        out = tmp_path / "sep"
        code = run_cli("separate", scene / "mixture.wav", "--config", config,
                       "--algorithm", "gc-grad", "--doa", "45", "--iterations", iterations,
                       "--out", out)
        assert code == 1
        assert "config error: stepsize -1.0 outside [0, inf)\n" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_gradient_exits_three(self, tmp_path):
        # twice the default level makes gc-grad's step overflow; the solve
        # stops at the first non-finite cost instead of running all 350 iterations
        scene = tmp_path / "scene"
        assert run_cli("simulate", "--out", scene, "--seed", "0", "--snr", "20",
                       "--doa", "45,135", "--duration", "5.0") == 0
        mixture, rate = gio.read_wav(scene / "mixture.wav")
        gio.write_wav(tmp_path / "loud.wav", 2.0 * mixture, rate)
        out = tmp_path / "sep"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "separate", str(tmp_path / "loud.wav"), "--algorithm", "gc-grad",
                          "--doa", "45", "--out", str(out), capture_output=True, text=True)
        assert proc.returncode == 3
        assert "numerical failure: gc-grad cost is not finite at iteration" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_determinant_floor_names_solver_and_iteration(self, tmp_path):
        # a float64 mixture at 1e150 squares near float64's limit, and the
        # demixing determinant falls below the floor; the failure names the
        # separator and the iteration it stopped at
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        mixture, rate = gio.read_wav(scene / "mixture.wav")
        wavfile.write(str(tmp_path / "huge.wav"), rate, 1e150 * mixture)
        out = tmp_path / "sep"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "separate", str(tmp_path / "huge.wav"), "--algorithm", "aux",
                          "--out", str(out), capture_output=True, text=True)
        assert proc.returncode == 3
        assert re.search(r"numerical failure: aux demixing determinant below 1e-300 "
                         r"at iteration [1-9]\d*$", proc.stderr.strip())
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, doa", [("aux", "135"), ("gc-aux", "135"),
                                                ("gc-grad", "45")])
    def test_copied_channels_exit_three_before_solving(self, tmp_path, algorithm, doa):
        # two copies of one channel are linearly dependent in every bin with
        # power, which every separator rejects before its first iteration
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        mixture, rate = gio.read_wav(scene / "mixture.wav")
        mixture[:, 1] = mixture[:, 0]
        gio.write_wav(tmp_path / "copied.wav", mixture, rate)
        out = tmp_path / "sep"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "separate", str(tmp_path / "copied.wav"), "--algorithm", algorithm,
                          "--doa", doa, "--out", str(out), capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == (f"gc-iva: numerical failure: {algorithm} input is rank "
                               f"deficient: its channels are linearly dependent in 1025 of "
                               f"the 1025 bins with power\n")
        assert not out.exists()

    def test_overflowing_sigma2_exits_one(self, tmp_path, capsys):
        # sigma2 = 1e-320 passes as positive, but the prior matrices'
        # (1 + lambda_e) / sigma2 overflows
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        assert run_cli("separate", scene / "mixture.wav", "--algorithm", "gc-aux",
                       "--doa", "135", "--sigma2", "1e-320", "--out", out) == 1
        assert capsys.readouterr().err == ("gc-iva: config error: sigma2 1e-320 overflows the "
                                           "prior matrix (lambda_e I + h h^H) / sigma2\n")
        assert not out.exists()

    def test_overflowing_gradient_step_exits_three(self, tmp_path, capsys):
        # a step of 1e308 overflows the demixing stack itself on the first
        # iteration; the solve loop reports it as a numerical failure
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        config = tmp_path / "grad.cfg"
        config.write_text("stepsize = 1e308\n")
        out = tmp_path / "sep"
        code = run_cli("separate", scene / "mixture.wav", "--config", config,
                       "--algorithm", "gc-grad", "--doa", "45", "--iterations", "5",
                       "--out", out)
        assert code == 3
        assert ("numerical failure: gc-grad cost is not finite at iteration 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_output_beyond_float32_exits_one(self, tmp_path, capsys):
        # a float64 mixture at 1e39 separates, but float32 WAVs cannot hold it
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        mixture, rate = gio.read_wav(scene / "mixture.wav")
        wavfile.write(str(tmp_path / "huge.wav"), rate, 1e39 * mixture)
        out = tmp_path / "sep"
        code = run_cli("separate", tmp_path / "huge.wav", "--algorithm", "aux",
                       "--iterations", "3", "--out", out)
        assert code == 1
        assert re.search(r"config error: WAV samples peak at \d\.\d+e\+(39|40), "
                         r"beyond float32's range", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["gc-aux", "gc-grad"])
    def test_repeated_constrained_channel_exits_one(self, tmp_path, capsys, algorithm):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        code = run_cli("separate", scene / "mixture.wav", "--algorithm", algorithm,
                       "--iterations", "1", "--constrained-channels", "0,0",
                       "--doa", "45,90", "--out", tmp_path / "x")
        assert code == 1
        assert "config error: constrained channels must be unique" in capsys.readouterr().err


@pytest.fixture
def projector_builds(monkeypatch):
    builds = []
    original = ReferenceProjector.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ReferenceProjector, "__init__", counting_init)
    return builds


class TestReferenceMetrics:
    def separate(self, scene, out, refs):
        return run_cli("separate", scene / "mixture.wav", "--algorithm", "aux",
                       "--iterations", "2", "--out", out,
                       "--refs", ",".join(str(r) for r in refs))

    def test_one_projector_per_reference_set(self, tmp_path, projector_builds):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        refs = [scene / "source01.wav", scene / "source02.wav"]
        assert self.separate(scene, tmp_path / "sep", refs) == 0
        assert len(projector_builds) == 1
        projector_builds.clear()
        assert run_cli("benchmark", "--out", tmp_path / "bench", "--snr", "20",
                       "--seed", "0", "--doa", "45:135", "--duration", "1.0",
                       "--iterations", "2") == 0
        assert len(projector_builds) == 1

    def test_reference_rate_mismatch_exits_one(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        image, _ = gio.read_wav(scene / "source02.wav")
        odd = tmp_path / "odd_rate.wav"
        gio.write_wav(odd, image, 8000)
        code = self.separate(scene, tmp_path / "sep", [scene / "source01.wav", odd])
        assert code == 1
        err = capsys.readouterr().err
        assert "odd_rate.wav" in err and "8000" in err and "16000" in err

    def test_scoring_loads_no_scipy(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        proc = run_python(f"import sys; from gciva.cli import main; rc = main(sys.argv[1:]); "
                          f"rc and sys.exit(rc); {scipy_check()}",
                          "separate", str(scene / "mixture.wav"), "--algorithm", "aux",
                          "--iterations", "2", "--out", str(tmp_path / "sep"), "--refs",
                          f"{scene / 'source01.wav'},{scene / 'source02.wav'}",
                          capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "metrics" in json.loads((tmp_path / "sep" / "report.json").read_text())

    def test_reference_count_mismatch_exits_before_solving(self, tmp_path):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        out = tmp_path / "sep"
        proc = run_python("import sys; from gciva.cli import main; sys.exit(main())",
                          "separate", str(scene / "mixture.wav"), "--algorithm", "aux",
                          "--out", str(out), "--refs", str(scene / "source01.wav"),
                          capture_output=True, text=True)
        assert proc.returncode == 1
        assert "--refs" in proc.stderr and "1 reference" in proc.stderr
        assert "2-channel" in proc.stderr
        assert not out.exists()

    def test_delayed_copy_reference_exits_three(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run_cli("simulate", "--out", scene, "--seed", "0", "--duration", "3") == 0
        image, rate = gio.read_wav(scene / "source01.wav")
        copy = np.zeros_like(image[:, 0])
        copy[5:] = 0.5 * image[:-5, 0]
        gio.write_wav(tmp_path / "d.wav", copy, rate)
        out = tmp_path / "sep"
        assert self.separate(scene, out, [scene / "source01.wav", tmp_path / "d.wav"]) == 3
        assert ("numerical failure: reference 1 is a filtered copy of reference 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_reference_length_mismatch_warns(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert simulate_small(scene) == 0
        image, _ = gio.read_wav(scene / "source02.wav")
        short = tmp_path / "short.wav"
        gio.write_wav(short, image[:12000], 16000)
        code = self.separate(scene, tmp_path / "sep", [scene / "source01.wav", short])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err and "short.wav" in err
        assert "12000" in err and "16000" in err
        report = json.loads((tmp_path / "sep" / "report.json").read_text())
        assert len(report["metrics"]["sir_db"]) == 2


class TestBenchmark:
    def bench(self, out, extra=()):
        return run_cli(
            "benchmark", "--out", out, "--snr", "10,20,30", "--seed", "0",
            "--doa", "45:135", "--duration", "1.0", "--iterations", "2", *extra
        )

    def test_snr_rows_per_algorithm(self, tmp_path):
        out = tmp_path / "bench"
        assert self.bench(out) == 0
        lines = (out / "benchmark.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["scenario", "snr_db", "algorithm", "sir_db"]
        rows = [line.split(",") for line in lines[1:]]
        for algorithm in ("aux", "gc-aux", "gc-grad"):
            snrs = sorted(float(r[1]) for r in rows if r[2] == algorithm)
            assert snrs == [10.0, 20.0, 30.0]

    def test_runs_csv_has_per_run_rows(self, tmp_path):
        out = tmp_path / "bench"
        assert self.bench(out) == 0
        lines = (out / "runs.csv").read_text().splitlines()
        # 3 SNRs x (1 aux + 2 gc-aux + 2 gc-grad) runs
        assert len(lines) == 1 + 3 * 5

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self.bench(out1, extra=("--algorithm", "gc-aux")) == 0
        assert self.bench(out2, extra=("--algorithm", "gc-aux")) == 0
        for name in ("benchmark.csv", "runs.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_one_analysis_per_scene(self, tmp_path, monkeypatch):
        # the five separations of a scene share one spectrogram
        calls = []
        analyze = gciva.cli.analyze
        monkeypatch.setattr(gciva.cli, "analyze",
                            lambda *args: calls.append(1) or analyze(*args))
        assert self.bench(tmp_path / "bench") == 0
        assert len(calls) == 3  # 3 SNRs x 1 seed x 1 DOA pair

    def test_scene_arrays_die_before_the_separations(self, tmp_path, monkeypatch):
        # the projector keeps no view into the rendered images, and a
        # mixture is dropped once analyzed, so neither is held while the
        # scene's separations run
        made, alive = [], []
        for name in ("render_images", "add_noise"):
            def recording(*args, original=getattr(gciva.cli, name)):
                result = original(*args)
                made.append(weakref.ref(result))
                return result
            monkeypatch.setattr(gciva.cli, name, recording)
        run_separation = gciva.cli.run_separation

        def checking(spec, cfg):
            if not alive:
                gc.collect()
                alive.append([ref() is not None for ref in made])
            return run_separation(spec, cfg)

        monkeypatch.setattr(gciva.cli, "run_separation", checking)
        assert run_cli("benchmark", "--out", tmp_path / "bench", "--snr", "20", "--seed", "0",
                       "--doa", "45:135", "--duration", "1.0", "--iterations", "1") == 0
        assert alive == [[False, False]]  # the images, then the finite-SNR mixture

    def test_outputs_are_the_demixed_spectrogram_projected_back(self, tmp_path, monkeypatch):
        # each run solves from the scene spectrogram's Hermitian cache and
        # demixes and projects a copy of the spectrogram in place: its stack
        # is the one solved from the spectrogram, its outputs are, bit for
        # bit, synthesize(project_back(demix(spec, stack), stack, 0)), and
        # the spectrogram the five runs share is left as analyzed
        specs, runs = [], []
        analyze, run_separation = gciva.cli.analyze, gciva.cli.run_separation
        score = gciva.cli._score

        def analyzing(*args):
            spec = analyze(*args)
            specs.append((spec, spec.data.copy()))
            return spec

        def solving(data, cfg):
            result = run_separation(data, cfg)
            runs.append((data, cfg, result[0]))
            return result

        def scoring(projector, outputs, order):
            runs[-1] += (outputs.copy(),)
            return score(projector, outputs, order)

        monkeypatch.setattr(gciva.cli, "analyze", analyzing)
        monkeypatch.setattr(gciva.cli, "run_separation", solving)
        monkeypatch.setattr(gciva.cli, "_score", scoring)
        assert run_cli("benchmark", "--out", tmp_path / "bench", "--snr", "20", "--seed", "0",
                       "--doa", "45:135", "--duration", "1.0", "--iterations", "3") == 0
        [(spec, analyzed)] = specs
        assert np.array_equal(spec.data, analyzed)
        assert len(runs) == 5
        for data, cfg, stack, outputs in runs:
            assert isinstance(data, gciva.HermitianCache)
            assert np.array_equal(run_separation(spec, cfg)[0].matrices, stack.matrices)
            expected = gciva.synthesize(gciva.project_back(gciva.demix(spec, stack), stack, 0))
            assert outputs.shape == (16000, 2)
            assert np.array_equal(outputs, expected[:16000])

    def test_peak_is_the_projector_the_spectrogram_its_copy_the_cache_and_a_row(self, tmp_path):
        # a one-scene benchmark holds the projector's kept arrays, the
        # sources, their clean sum and the scene spectrogram throughout; on
        # top of them, a run's Hermitian cache while it solves, one copy of
        # the spectrogram while its outputs are formed, and one row's FFT
        # buffers (its spectrum, conjugate, product and irfft) while they are
        # scored. The bound sums all of these (23.3 MB for this 5 s scene);
        # a projector that kept its Gram block, a run that demixed into a
        # new array and projected back into another, and a score that
        # transformed all rows at once needed 26.1 MB
        cfg = ExperimentConfig()
        stft = cfg.stft_config()
        sources = gciva.synthetic_sources(2, cfg.duration, cfg.sample_rate, 0)
        images = gciva.render_images(gciva.SceneSpec(sources, (45.0, 135.0), seed=0),
                                     cfg.geometry(), stft)
        projector = ReferenceProjector(images[:, :, 0])
        kept = {}
        values = list(vars(projector).values())
        while values:
            value = values.pop()
            if isinstance(value, np.ndarray):
                kept[id(value)] = value.nbytes
            elif isinstance(value, (list, tuple, dict)):
                values += list(value.values() if isinstance(value, dict) else value)
        clean = images.sum(axis=0)
        spec = gciva.analyze(clean, stft)
        bound = (sum(kept.values()) + sources.nbytes + clean.nbytes + 2 * spec.data.nbytes
                 + gciva.HermitianCache.from_spectrogram(spec).data.nbytes
                 + 4 * projector.spectra[0].nbytes)
        del projector, images, clean, spec
        argv = ("benchmark", "--snr", "20", "--seed", "0", "--doa", "45:135",
                "--iterations", "2", "--out")
        assert run_cli(*argv, tmp_path / "warm") == 0  # lazy imports and FFT plans
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_cli(*argv, tmp_path / "bench") == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_sweep_is_its_scenes_in_pair_snr_seed_order(self, tmp_path, monkeypatch,
                                                        projector_builds):
        # sources and DOA swap once per seed, clean images and projector once
        # per (pair, seed), and the same runs.csv rows as one scene at a time
        pairs, snrs, seeds = ("45:135", "20:160"), ("10", "30"), ("0", "2")
        common = ("--duration", "1", "--iterations", "1")
        rendered = []
        synthetic_sources = gciva.cli.synthetic_sources
        monkeypatch.setattr(gciva.cli, "synthetic_sources",
                            lambda *args: rendered.append(args[3]) or synthetic_sources(*args))
        config = tmp_path / "seeds.cfg"  # --seed takes one seed
        config.write_text(f"seeds = {','.join(seeds)}\n")
        out = tmp_path / "sweep"
        assert run_cli("benchmark", "--config", config, "--out", out, "--doa", ",".join(pairs),
                       "--snr", ",".join(snrs), *common) == 0
        assert rendered == [0, 2]
        assert len(projector_builds) == 4
        header, *rows = (out / "runs.csv").read_bytes().splitlines(keepends=True)
        expected = []
        for pair in pairs:
            for snr in snrs:
                for seed in seeds:
                    scene = tmp_path / f"{pair}-{snr}-{seed}".replace(":", "_")
                    assert run_cli("benchmark", "--out", scene, "--doa", pair, "--snr", snr,
                                   "--seed", seed, *common) == 0
                    scene_header, *scene_rows = (scene / "runs.csv").read_bytes().splitlines(
                        keepends=True)
                    assert scene_header == header
                    expected += scene_rows
        assert len(rows) == 8 * 5
        assert rows == expected

    def two_seed_sweep(self, tmp_path):
        """A sweep over seeds 0 and 2 (set from a config file) at two SNRs;
        seed 0 swaps the 45:135 pair to (135, 45), seed 2 keeps it."""
        config = tmp_path / "seeds.cfg"
        config.write_text("seeds = 0,2\n")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--config", config, "--out", out, "--doa", "45:135",
                       "--snr", "10,30", "--duration", "1", "--iterations", "2") == 0
        return out

    def test_benchmark_rows_are_group_means_of_runs(self, tmp_path):
        out = self.two_seed_sweep(tmp_path)
        with open(out / "runs.csv", newline="") as f:
            runs = list(csv.DictReader(f))
        with open(out / "benchmark.csv", newline="") as f:
            bench = list(csv.DictReader(f))
        groups = {}
        for row in runs:
            groups.setdefault((row["scenario"], row["snr_db"], row["algorithm"]), []).append(row)
        # one row per group, in the order the groups first appear in runs.csv
        assert [(r["scenario"], r["snr_db"], r["algorithm"]) for r in bench] == list(groups)
        assert len(bench) == 2 * 3
        for row in bench:
            rows = groups[row["scenario"], row["snr_db"], row["algorithm"]]
            assert int(row["n_runs"]) == len(rows)
            for name in ("sir", "sdr"):
                channel_means = [(float(r[f"{name}_ch1_db"]) + float(r[f"{name}_ch2_db"])) / 2
                                 for r in rows]
                # abs guards a mean near 0 dB against the CSV's 12 significant digits
                assert float(row[f"{name}_db"]) == pytest.approx(
                    np.mean(channel_means), rel=1e-9, abs=1e-9)
            assert float(row["input_sir_db"]) == pytest.approx(
                np.mean([float(r["input_sir_db"]) for r in rows]), rel=1e-9)
            assert float(row["perm_success_rate"]) == pytest.approx(
                np.mean([int(r["perm_matched"]) for r in rows]), rel=1e-9)

    def test_runs_each_separator_makes(self, tmp_path, monkeypatch):
        calls = []
        run_separation = gciva.cli.run_separation
        monkeypatch.setattr(gciva.cli, "run_separation", lambda spec, cfg: calls.append(
            (cfg.algorithm, cfg.constrained_channels, cfg.doas)) or run_separation(spec, cfg))
        self.two_seed_sweep(tmp_path)
        assert len(calls) == 4 * 5
        scenes = [calls[i:i + 5] for i in range(0, len(calls), 5)]
        # seed 0 (pair swapped) then seed 2, each at SNR 10 then 30: the
        # sweep solves seed by seed, though runs.csv lists SNR by SNR
        for scene, (first, second) in zip(scenes, [(135.0, 45.0)] * 2 + [(45.0, 135.0)] * 2):
            assert [algorithm for algorithm, _, _ in scene] == [
                "aux", "gc-aux", "gc-aux", "gc-grad", "gc-grad"]
            # target 0, then target 1: gc-aux nulls the other source's DOA,
            # gc-grad preserves the target's
            assert scene[1:] == [("gc-aux", (0,), (second,)), ("gc-aux", (0,), (first,)),
                                 ("gc-grad", (0,), (first,)), ("gc-grad", (0,), (second,))]

    def test_plain_doa_list_exits_one(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--doa", "45,135", "--duration", "1.0", "--out", out) == 1
        assert ("benchmark --doa takes colon pairs like 45:135,45:90, got '45,135'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_sweep_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--doa", "45:135", "--snr", "20", "--seed", "0",
                       "--duration", "0.00001", "--out", out) == 1
        assert "renders 0 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_one_scene_loads_no_scipy(self, tmp_path):
        # scene rendering and the metric projector's solves are numpy
        out = tmp_path / "bench"
        proc = run_python(f"import sys; from gciva.cli import main; rc = main(sys.argv[1:]); "
                          f"rc and sys.exit(rc); {scipy_check()}",
                          "benchmark", "--out", str(out), "--snr", "20", "--seed", "0",
                          "--doa", "45:135", "--duration", "1.0", "--iterations", "2",
                          capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "runs.csv").exists()

    def test_config_file_narrows_the_sweep(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("doa_pairs = 45:135\nsnrs = 20\nseed = 0\nalgorithm = aux\n"
                          "duration = 1\niterations = 2\n")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--config", config, "--out", out) == 0
        rows = [line.split(",") for line in (out / "runs.csv").read_text().splitlines()[1:]]
        assert [row[:4] for row in rows] == [["45-135", "20", "0", "aux"]]

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        code = run_cli("benchmark", "--out", tmp_path, "--snr", "", "--duration", "1.0")
        assert code == 1
        path = tmp_path / "exp.cfg"
        path.write_text("algorithms =\n")
        code = run_cli("benchmark", "--config", path, "--out", tmp_path / "b", "--snr", "20",
                       "--seed", "0", "--doa", "45:135", "--duration", "1.0")
        assert code == 1
        assert "benchmark needs a non-empty algorithms list" in capsys.readouterr().err
        assert not (tmp_path / "b" / "benchmark.csv").exists()
