import json

import numpy as np
import pytest
from scipy.io import wavfile

from gciva import ConfigError, CostTrace, InvalidInputError
from gciva import io as gio


class TestWav:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = (0.5 * rng.standard_normal((400, 2))).astype(np.float32).astype(np.float64)
        assert np.max(np.abs(x)) > 1.0  # levels above 1 are kept, not clipped
        path = tmp_path / "x.wav"
        gio.write_wav(path, x, 16000)
        y, rate = gio.read_wav(path)
        assert rate == 16000
        np.testing.assert_array_equal(y, x)

    def test_pcm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pcm = rng.integers(-32768, 32768, size=300).astype(np.int16)
        path = tmp_path / "x.wav"
        wavfile.write(str(path), 16000, pcm)
        y, rate = gio.read_wav(path)
        assert rate == 16000
        assert y.shape == (300,)
        np.testing.assert_array_equal(y, pcm / 32768.0)

    def test_mono_and_multichannel_shapes(self, tmp_path):
        gio.write_wav(tmp_path / "m.wav", np.zeros(50), 16000)
        gio.write_wav(tmp_path / "s.wav", np.zeros((50, 3)), 16000)
        mono, _ = gio.read_wav(tmp_path / "m.wav")
        multi, _ = gio.read_wav(tmp_path / "s.wav")
        assert mono.ndim == 1
        assert multi.shape == (50, 3)

    def test_rejects_bad_data(self, tmp_path):
        with pytest.raises(InvalidInputError):
            gio.write_wav(tmp_path / "bad.wav", np.array([np.nan]), 16000)


class TestKeyValue:
    def test_parses_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "# scene description\n"
            "doas = 45, 135   # degrees\n"
            "snr_db = 20\n"
            "\n"
            "seed=3\n"
        )
        parsed = gio.read_keyvalue(path)
        assert parsed == {"doas": "45, 135", "snr_db": "20", "seed": "3"}

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a pair\n")
        with pytest.raises(ConfigError):
            gio.read_keyvalue(path)


class TestTraceCsv:
    def test_columns_and_normalization(self, tmp_path):
        trace = CostTrace(np.array([10.0, 5.0, 4.0]), np.array([1.0, 0.5, 0.25]))
        path = tmp_path / "trace.csv"
        gio.write_cost_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,j_iva,j_prior,j_total,j_iva_normalized"
        assert lines[1].split(",") == ["0", "10", "1", "11", "1"]
        assert lines[2].split(",") == ["1", "5", "0.5", "5.5", "0.5"]

    def test_deterministic_bytes(self, tmp_path):
        trace = CostTrace(np.array([3.0, 1.5]), np.array([0.0, 0.0]))
        gio.write_cost_trace_csv(tmp_path / "a.csv", trace)
        gio.write_cost_trace_csv(tmp_path / "b.csv", trace)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestJson:
    def test_non_finite_floats_spelled_by_str(self, tmp_path):
        path = tmp_path / "x.json"
        inf = float("inf")
        gio.write_json(path, {"a": [1.5, -inf], "b": {"c": ((inf, float("nan")), 2)}})
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text) == {"a": [1.5, "-inf"], "b": {"c": [["inf", "nan"], 2]}}
