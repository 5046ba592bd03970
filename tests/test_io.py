import json
import struct
import tracemalloc

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

    def test_rejects_samples_beyond_float32(self, tmp_path):
        # finite in float64, but float32 would store it as inf
        with pytest.raises(InvalidInputError, match=r"WAV samples peak at 1e\+39"):
            gio.write_wav(tmp_path / "big.wav", np.array([0.5, -1e39, 0.25]), 16000)
        assert not (tmp_path / "big.wav").exists()
        gio.check_wav_samples(np.array([np.finfo(np.float32).max, 0.0]))  # the edge is kept

    @pytest.mark.parametrize("bad, peak", [
        (np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"), (-1e39, "1e+39")])
    def test_peak_names_the_worst_sample(self, bad, peak):
        for data in (np.array([0.5, bad, -0.25]), np.array([[1.0, 2.0], [3.0, bad]])):
            with pytest.raises(InvalidInputError) as err:
                gio.check_wav_samples(data)
            assert str(err.value) == f"WAV samples peak at {peak}, beyond float32's range"

    def test_check_makes_no_copy_of_the_samples(self):
        # 5 s of stereo at 16 kHz (1.28 MB) is checked by reductions alone
        data = np.random.default_rng(27).standard_normal((80000, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gio.check_wav_samples(data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("rate", [0, -1, 16000.5, -16000.0, 2**29, float("nan")])
    def test_rejects_rate_that_the_header_cannot_hold(self, tmp_path, rate):
        # the byte rate, rate * 4 bytes * 2 channels, must fit a uint32
        with pytest.raises(InvalidInputError) as err:
            gio.write_wav(tmp_path / "bad.wav", np.zeros((10, 2)), rate)
        expected = (f"WAV sample rate {rate} is not a whole number of Hz" if rate == 16000.5
                    else f"WAV sample rate {float(rate)} outside [1, {2**29 - 1}]")
        assert str(err.value) == expected
        assert not (tmp_path / "bad.wav").exists()

    def test_whole_float_rate_is_written_as_an_integer(self, tmp_path):
        gio.write_wav(tmp_path / "x.wav", np.zeros(10), 16000.0)
        assert gio.read_wav(tmp_path / "x.wav")[1] == 16000


def scipy_scaled(path):
    """scipy's reading of ``path`` with the scaling ``read_wav`` documents."""
    rate, data = wavfile.read(str(path))
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128) / 128, rate
    if data.dtype.kind == "i":
        return data.astype(np.float64) / 2.0 ** (8 * data.dtype.itemsize - 1), rate
    return data.astype(np.float64), rate


def chunk(name, body, order="<"):
    return name + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def riff(*chunks, order="<"):
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFF" if order == "<" else b"RIFX") + struct.pack(order + "I", len(body)) + body


def fmt_chunk(tag, channels, bits, rate=16000, order="<"):
    block = channels * bits // 8
    return chunk(b"fmt ", struct.pack(order + "HHIIHH", tag, channels, rate, rate * block,
                                      block, bits), order)


class TestWavCodecAgainstScipy:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_reads_what_scipy_writes(self, tmp_path, dtype, channels):
        rng = np.random.default_rng(5)
        shape = (301,) if channels == 1 else (301, channels)
        if np.dtype(dtype).kind == "f":
            data = (2.0 * rng.standard_normal(shape)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, size=shape, endpoint=True).astype(dtype)
        path = tmp_path / "x.wav"
        wavfile.write(str(path), 22050, data)
        y, rate = gio.read_wav(path)
        expected, expected_rate = scipy_scaled(path)
        assert rate == expected_rate == 22050
        assert y.dtype == np.float64 and y.shape == shape
        np.testing.assert_array_equal(y, expected)
        if dtype == np.uint8:  # 8-bit PCM is unsigned
            np.testing.assert_array_equal(y, (data.astype(np.float64) - 128) / 128)

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_24_bit_pcm_little_and_big_endian(self, tmp_path, order):
        rng = np.random.default_rng(6)
        ints = rng.integers(-2**23, 2**23, size=(200, 2))
        ints[:2] = [[-2**23, 2**23 - 1], [0, -1]]
        raw = (ints % 2**24).astype(order + "u4").view(np.uint8).reshape(-1, 4)
        raw = raw[:, 1:] if order == ">" else raw[:, :3]
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(1, 2, 24, order=order),
                              chunk(b"data", raw.tobytes(), order), order=order))
        y, rate = gio.read_wav(path)
        assert rate == 16000
        np.testing.assert_array_equal(y, scipy_scaled(path)[0])
        np.testing.assert_array_equal(y, ints / 2.0**23)

    def test_extensible_format_resolves_to_subformat(self, tmp_path):
        pcm = np.arange(-600, 600, 7, dtype=np.int16).reshape(-1, 2)
        guid = struct.pack("<IHH", 1, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 2, 16000, 64000, 4, 16, 22, 16, 0x3) + guid
        path = tmp_path / "x.wav"
        path.write_bytes(riff(chunk(b"fmt ", fmt), chunk(b"data", pcm.tobytes())))
        y, _ = gio.read_wav(path)
        np.testing.assert_array_equal(y, scipy_scaled(path)[0])
        np.testing.assert_array_equal(y, pcm / 32768.0)

    def test_skips_odd_length_list_chunk(self, tmp_path):
        pcm = np.arange(-50, 50, dtype=np.int16)
        path = tmp_path / "x.wav"
        path.write_bytes(riff(fmt_chunk(1, 1, 16), chunk(b"LIST", b"INFOx"),
                              chunk(b"data", pcm.tobytes())))
        assert len(path.read_bytes()) % 2 == 0  # the LIST chunk carries its pad byte
        y, _ = gio.read_wav(path)
        np.testing.assert_array_equal(y, scipy_scaled(path)[0])
        np.testing.assert_array_equal(y, pcm / 32768.0)

    @pytest.mark.parametrize("shape", [(500,), (500, 2)])
    def test_writes_the_bytes_scipy_writes(self, tmp_path, shape):
        x = 3.0 * np.random.default_rng(7).standard_normal(shape)
        gio.write_wav(tmp_path / "ours.wav", x, 16000)
        wavfile.write(str(tmp_path / "scipy.wav"), 16000, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


class TestUnreadableWav:
    PCM = np.arange(12, dtype=np.int16).tobytes()  # 6 stereo frames

    CASES = {
        "bad tag": b"JUNK" + riff(fmt_chunk(1, 2, 16), chunk(b"data", PCM))[4:],
        "not WAVE": riff(fmt_chunk(1, 2, 16), chunk(b"data", PCM)).replace(b"WAVE", b"AVI ", 1),
        "RF64": b"RF64" + riff(fmt_chunk(1, 2, 16), chunk(b"data", PCM))[4:],
        "no fmt chunk": riff(chunk(b"data", PCM)),
        "short fmt chunk": riff(chunk(b"fmt ", b"\x01\x00\x02\x00"), chunk(b"data", PCM)),
        "no data chunk": riff(fmt_chunk(1, 2, 16)),
        "data cut mid-frame": riff(fmt_chunk(1, 2, 16), chunk(b"data", PCM))[:-3],
        "partial frame": riff(fmt_chunk(1, 2, 16), chunk(b"data", PCM[:-2])),
        "mu-law": riff(fmt_chunk(7, 2, 8), chunk(b"data", PCM)),
        "12-bit PCM": riff(fmt_chunk(1, 2, 12), chunk(b"data", PCM)),
        "64-bit PCM": riff(fmt_chunk(1, 1, 64), chunk(b"data", PCM[:16])),
        "sample rate 0": riff(fmt_chunk(1, 2, 16, rate=0), chunk(b"data", PCM)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_oserror_naming_path(self, tmp_path, case):
        path = tmp_path / "input.wav"
        path.write_bytes(self.CASES[case])
        with pytest.raises(OSError, match="input.wav"):
            gio.read_wav(path)


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
