"""tools/artifacts.py compares two rendered artifact trees file by file."""

import importlib.util
import json
import runpy
from pathlib import Path

import numpy as np

from gciva import io as gio

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)


def write_pair(root: Path, name: str, before: str, after: str) -> None:
    for side, text in (("parent", before), ("change", after)):
        path = root / side / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_each_file_gets_its_verdict(tmp_path):
    header = "scenario,snr_db,sir_ch1_db,sdr_ch1_db\n"
    write_pair(tmp_path, "sweep/runs.csv", header + "45-135,20,10,4\n",
               header + "45-135,20,10,4\n")
    write_pair(tmp_path, "sweep/benchmark.csv", header + "45-135,20,10,4\n45-90,20,-20,2\n",
               header + "45-135,20,10.5,4\n45-90,20,-20,2\n")
    write_pair(tmp_path, "renamed/runs.csv", header + "45-135,20,10,4\n",
               header + "20-160,20,10,4\n")
    write_pair(tmp_path, "sweep/benchmark.json",
               json.dumps({"config": {"window_kind": "hamming", "seed": 0}}),
               json.dumps({"config": {"seed": 1}, "claims": {}}))
    write_pair(tmp_path, "run/report.json",
               json.dumps({"cost_trace": {"j_iva": [4.0, 2.0]}, "iterations": 2}),
               json.dumps({"cost_trace": {"j_iva": [4.0, 2.1]}, "iterations": 2}))
    signal = np.linspace(-0.5, 0.5, 64).reshape(32, 2)
    for side, scale in (("parent", 1.0), ("change", 1.0)):
        gio.write_wav(tmp_path / side / "run" / "same.wav", signal * scale, 16000)
    moved = signal.copy()
    moved[3, 1] += 0.25
    gio.write_wav(tmp_path / "parent" / "run" / "moved.wav", signal, 16000)
    gio.write_wav(tmp_path / "change" / "run" / "moved.wav", moved, 16000)
    (tmp_path / "parent" / "gone.csv").write_text(header)
    (tmp_path / "change" / "new.csv").write_text(header)

    verdicts = dict(artifacts.compare_dirs(tmp_path / "parent", tmp_path / "change"))
    assert verdicts == {
        "gone.csv": "only in parent",
        "new.csv": "only in change",
        "renamed/runs.csv": "scenario text changed in 1 rows",
        "run/moved.wav": "channel 1 0.5",  # 0.25 over the column's peak 0.5
        "run/report.json": "changed cost_trace.j_iva 0.025",
        "run/same.wav": "identical",
        # 0.5 over the column's peak |-20|
        "sweep/benchmark.csv": "sir_ch1_db 0.025",
        "sweep/benchmark.json": "added claims; changed config.seed; removed config.window_kind",
        "sweep/runs.csv": "identical",
    }


def test_numbers_spelled_differently_are_named(tmp_path):
    write_pair(tmp_path, "a.csv", "x\n1.0\n", "x\n1\n")
    assert artifacts.compare_dirs(tmp_path / "parent", tmp_path / "change") == [
        ("a.csv", "x same values, other digits")]


def test_the_rendered_set_is_the_fixed_one(tmp_path):
    scene, out = tmp_path / "scene", tmp_path / "out"
    jobs = dict(artifacts.commands(scene, out))
    assert list(jobs) == ["sweep0", "sweep1", "sweep2", "default-sweep", "simulate",
                          "separate-aux", "separate-aux-refs", "separate-gc-aux",
                          "separate-gc-aux-refs", "separate-gc-grad", "separate-gc-grad-refs"]
    assert jobs["default-sweep"] == ["benchmark", "--iterations", "30",
                                     "--out", str(out / "default-sweep")]
    assert jobs["separate-gc-aux-refs"] == [
        "separate", str(scene / "mixture.wav"), "--algorithm", "gc-aux", "--doa", "135",
        "--refs", f"{scene / 'source01.wav'},{scene / 'source02.wav'}",
        "--out", str(out / "separate-gc-aux-refs")]


def test_the_sweep_jobs_are_the_benchmark_workload(tmp_path):
    # the sweep scenes follow perfbench/workloads.py, run from its source
    workloads = runpy.run_path(str(WORKLOADS))
    jobs = dict(artifacts.commands(tmp_path / "scene", tmp_path))
    scenes = range(len(workloads["SWEEP_SCENES"]))
    assert [jobs[f"sweep{i}"] for i in scenes] == [
        workloads["sweep_args"](i, str(tmp_path / f"sweep{i}")) for i in scenes]
    assert jobs["default-sweep"][:3] == ["benchmark", "--iterations",
                                         str(workloads["SWEEP_ITERATIONS"])]
