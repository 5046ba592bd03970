"""Fast tests of the benchmark's own correctness routines and span arithmetic,
on constructed inputs with known answers."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import spans  # noqa: E402


def _images(n_samples=32000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, n_samples))


def test_sir_of_known_mix_of_two_images():
    images = _images()
    # 20 dB more energy of image 0 than image 1 in the output
    output = 1.0 * images[0] + 0.1 * images[1]
    table = oracle.sir_table_db(output, images)
    assert table[0] == pytest.approx([20.0, -20.0], abs=0.05)


def test_sir_ignores_a_per_bin_gain_and_delay():
    images = _images()
    # a filtered copy of image 0 plus image 1 at -30 dB
    delayed = np.convolve(images[0], [0.0, 0.0, 0.6, 0.3])[: images.shape[1]]
    output = delayed + 10 ** (-30 / 20) * 0.67 * images[1]
    assert oracle.sir_table_db(output, images)[0, 0] == pytest.approx(30.0, abs=0.5)


def test_best_permutation_finds_swapped_outputs():
    images = _images()
    outputs = np.stack([images[1] + 0.01 * images[0], images[0] + 0.01 * images[1]])
    assignment, mean_sir = oracle.best_permutation_sir_db(outputs, images)
    assert assignment == (1, 0)
    assert mean_sir == pytest.approx(40.0, abs=0.1)


@pytest.mark.parametrize("cost, expected", [
    ([10.0, 5.0, 2.0, 1.5, 1.005, 1.0], 4),     # 1.005 is within 1 % of 1.0
    ([-100.0, -150.0, -199.0, -200.0], 2),       # negative costs: |J - J_L| <= 2
    ([1.0, 1.0, 1.0], 0),                        # converged from the start
    ([5.0, 1.0, 3.0, 1.0], 3),                   # must stay within, not just touch
])
def test_iterations_to_1pct(cost, expected):
    assert oracle.iterations_to_1pct(cost) == expected


def test_nonincreasing_allows_rounding_only():
    assert oracle.is_nonincreasing([3.0, 2.0, 2.0 + 1e-14, 1.0])
    assert not oracle.is_nonincreasing([3.0, 2.0, 2.001, 1.0])


def test_aggregate_runs_means_per_group():
    row = dict(scenario="45-135", snr_db="20", seed="0", input_sir_db="3",
               sdr_ch1_db="1", sdr_ch2_db="3")
    rows = [dict(row, algorithm="aux", sir_ch1_db="10", sir_ch2_db="20", perm_matched="0"),
            dict(row, algorithm="gc-aux", sir_ch1_db="10", sir_ch2_db="20", perm_matched="1"),
            dict(row, algorithm="gc-aux", sir_ch1_db="30", sir_ch2_db="40", perm_matched="0")]
    out = oracle.aggregate_runs(rows)
    assert list(out) == [("45-135", 20.0, "aux"), ("45-135", 20.0, "gc-aux")]
    assert out[("45-135", 20.0, "gc-aux")] == (25.0, 2.0, 3.0, 0.5, 2)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_direct_children_only():
    # parent 0..10 with children 1..3 and 5..9; grandchild 6..8 inside the second
    recorded = [["a", 0.0, 10.0, -1, 0, {}], ["b", 1.0, 3.0, 0, 0, {}],
                ["c", 5.0, 9.0, 0, 0, {}], ["d", 6.0, 8.0, 2, 0, {}]]
    assert spans.self_times(recorded) == [4.0, 2.0, 2.0, 2.0]


def test_recorder_nests_spans_and_skips_calls_outside_operations():
    recorder = spans.Recorder()
    inner = recorder.wrap("io.write_csv", lambda: None)
    outer = recorder.wrap("cli.main", lambda: inner())
    outer()  # no operation set: not recorded
    recorder.op = 3
    outer()
    assert [(s[0], s[3], s[4]) for s in recorder.spans] == [("cli.main", -1, 3),
                                                           ("io.write_csv", 0, 3)]
    metrics = spans.per_layer_metrics(recorder.spans + [["cli.main", 0.0, 1.0, -1, 0, {}]],
                                      n_ops=4, import_s=1.5, setup_render=False,
                                      iters_to_1pct=oracle.iterations_to_1pct)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["import.gciva_s"] == 1.5
    assert metrics["iva.iter_ms.gc-grad"] == 0.0
