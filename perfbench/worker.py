"""One benchmark process.

Role ``setup`` prepares a workload's inputs and exits. Role ``run``
prepares them, runs whole rounds of timed operations, then checks every
output against the benchmark's own numpy computations (``oracle.py``) or
against properties the method must have. Results go to ``--result`` as
JSON. ``run.py`` starts this script with PYTHONPATH naming the gciva source
tree and BLAS/OpenMP threads set to 1.
"""

import argparse
import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gciva
import gciva.cli

import oracle
import spans
import workloads as wl


def _read_wav(path) -> np.ndarray:
    data, _ = gciva.io.read_wav(path)
    return data


def _csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _numpy_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration")}


class Workload:
    """Inputs, one operation and the output checks of one workload."""

    audio_s_per_op = 0.0

    def __init__(self, scratch: Path, traced: bool):
        self.scratch = scratch
        self.traced = traced

    def setup(self) -> None:
        pass

    def round(self, order: list[int]) -> list[int]:
        """The scenes one round visits, given the seeded order."""
        return order

    def operation(self, index: int, scene: int) -> dict:
        raise NotImplementedError

    def check(self, ops: list[dict]) -> tuple[list, list, list]:
        """Returns gciva's per-separation SIRs and SDRs and the problems found."""
        raise NotImplementedError


class SeparateCli(Workload):
    """``gc-iva separate`` as a fresh process per operation (in-process
    ``gciva.cli.main`` when traced)."""

    n_scenes = len(wl.CLI_SCENES)
    audio_s_per_op = wl.CLI_DURATION_S

    def __init__(self, scratch, traced, scenes_dir):
        super().__init__(scratch, traced)
        self.scenes_dir = Path(scenes_dir) if scenes_dir else scratch / "scenes"

    def scene_dir(self, scene: int) -> Path:
        return self.scenes_dir / f"scene{scene}"

    def setup(self):
        if self.traced:  # untraced runs get scenes rendered by run.py
            for scene in range(self.n_scenes):
                rc = gciva.cli.main(wl.simulate_args(scene, str(self.scene_dir(scene))))
                if rc != 0:
                    raise RuntimeError(f"gc-iva simulate exited {rc}")

    def round(self, order):
        # the first scene again at the end: its two outputs must be identical
        return order + order[:1]

    def operation(self, index, scene):
        out = self.scratch / f"op{index}"
        argv = wl.separate_args(scene, str(self.scene_dir(scene)), str(out))
        if self.traced:
            rc, rss_kb = gciva.cli.main(argv), 0
        else:
            with open(self.scratch / f"op{index}.stderr", "wb") as err:
                proc = subprocess.Popen([sys.executable, *wl.CLI, *argv],
                                        stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
            rc = proc.returncode = os.waitstatus_to_exitcode(status)
            rss_kb = usage.ru_maxrss
        if rc != 0:
            raise RuntimeError(f"gc-iva separate exited {rc}")
        return {"dir": str(out), "rss_kb": rss_kb}

    def check(self, ops):
        sirs, sdrs, problems = [], [], []
        first_dir = {}
        for op in ops:
            if not op["ok"]:
                continue
            scene, out = op["scene"], Path(op["dir"])
            mixture = _read_wav(self.scene_dir(scene) / "mixture.wav")
            images = np.stack([_read_wav(self.scene_dir(scene) / f"source0{k + 1}.wav")[:, 0]
                               for k in range(2)])
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            cost = np.add(report["cost_trace"]["j_iva"], report["cost_trace"]["j_prior"])
            if not oracle.is_nonincreasing(cost):
                problems.append(f"op {op['index']}: total cost increases")
            outputs = [_read_wav(out / f"separated0{k + 1}.wav") for k in range(2)]
            if any(o.shape != mixture.shape[:1] or not np.all(np.isfinite(o)) for o in outputs):
                problems.append(f"op {op['index']}: outputs not finite or not mixture length")
                continue
            if scene in first_dir:
                # a rerun must reproduce the first separation byte for byte;
                # it is then not measured again, so every run averages the
                # same separations
                for name in ("separated01.wav", "separated02.wav", "report.json",
                             "cost_trace.csv"):
                    if (out / name).read_bytes() != (first_dir[scene] / name).read_bytes():
                        problems.append(f"op {op['index']}: {name} differs from a rerun")
                continue
            first_dir[scene] = out
            margin = oracle.sir_table_db(outputs[0], images)[0, 0]
            if margin < wl.CHECK_MARGIN_DB:
                problems.append(f"op {op['index']}: channel 0 SIR of source 1 is {margin:.2f} dB")
            for o in outputs:
                sir, sdr, _ = gciva.decompose_sir_sdr(o, images)
                sirs.append(sir)
                sdrs.append(sdr)
        return sirs, sdrs, problems


class Sweep(Workload):
    """One in-process ``gc-iva benchmark`` scene per operation."""

    n_scenes = len(wl.SWEEP_SCENES)
    audio_s_per_op = wl.SWEEP_SEPARATIONS * wl.CLI_DURATION_S

    def operation(self, index, scene):
        out = self.scratch / f"op{index}"
        rc = gciva.cli.main(wl.sweep_args(scene, str(out)))
        if rc != 0:
            raise RuntimeError(f"gc-iva benchmark exited {rc}")
        return {"dir": str(out)}

    def check(self, ops):
        sirs, sdrs, problems = [], [], []
        expected = [("aux", "-1"), ("gc-aux", "0"), ("gc-aux", "1"),
                    ("gc-grad", "0"), ("gc-grad", "1")]
        numeric = ("sir_ch1_db", "sir_ch2_db", "sdr_ch1_db", "sdr_ch2_db", "input_sir_db")
        for op in ops:
            if not op["ok"]:
                continue
            out, tag = Path(op["dir"]), f"op {op['index']}"
            (doa_a, doa_b), snr, seed = wl.SWEEP_SCENES[op["scene"]]
            runs = _csv_rows(out / "runs.csv")
            keys = [(r["scenario"], float(r["snr_db"]), r["seed"], r["algorithm"],
                     r["constrained_source"]) for r in runs]
            if keys != [(f"{doa_a:g}-{doa_b:g}", snr, str(seed), a, c) for a, c in expected]:
                problems.append(f"{tag}: runs.csv rows {keys}")
                continue
            values = np.array([[float(r[k]) for k in numeric] for r in runs])
            if not np.all(np.isfinite(values)):
                problems.append(f"{tag}: runs.csv has non-finite values")
            for r in runs:
                if r["algorithm"] == "gc-aux" and (
                        r["perm_matched"] != "1"
                        or min(float(r["sir_ch1_db"]), float(r["sir_ch2_db"]))
                        <= float(r["input_sir_db"])):
                    problems.append(f"{tag}: gc-aux row {r}")
            summary = _csv_rows(out / "benchmark.csv")
            ours = oracle.aggregate_runs(runs)
            if [(r["scenario"], float(r["snr_db"]), r["algorithm"]) for r in summary] \
                    != list(ours):
                problems.append(f"{tag}: benchmark.csv groups differ from runs.csv")
            else:
                for r, mine in zip(summary, ours.values()):
                    theirs = (float(r["sir_db"]), float(r["sdr_db"]), float(r["input_sir_db"]),
                              float(r["perm_success_rate"]), int(r["n_runs"]))
                    if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                               for a, b in zip(theirs, mine)):
                        problems.append(f"{tag}: benchmark.csv row {r} != {mine}")
            sirs.extend(values[:, 0:2].ravel())
            sdrs.extend(values[:, 2:4].ravel())
        return sirs, sdrs, problems


def run_rounds(workload, order, seconds: float, recorder) -> list[dict]:
    """Whole rounds of operations until the timed phase reaches ``seconds``."""
    ops = []
    while True:
        for scene in workload.round(order):
            index = len(ops)
            recorder.op = index
            start = time.perf_counter()
            try:
                detail, ok = workload.operation(index, scene), True
            except Exception:  # a failed operation is counted, the run goes on
                detail, ok = {"error": traceback.format_exc()}, False
                print(f"perfbench: operation {index} failed:\n{detail['error']}",
                      file=sys.stderr)
            wall = time.perf_counter() - start
            recorder.op = None
            ops.append({"index": index, "scene": scene, "wall": wall, "ok": ok, **detail})
        if sum(op["wall"] for op in ops) >= seconds:
            return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--scenes-dir", help="separate-cli: scenes rendered by run.py")
    parser.add_argument("--import-s", type=float, default=0.0,
                        help="traced run: import time measured in a fresh process")
    args = parser.parse_args()

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    recorder = spans.Recorder()  # records only once installed
    uninstall = recorder.install() if traced else None
    if args.workload == "separate-cli":
        workload = SeparateCli(scratch, traced, args.scenes_dir)
    else:
        workload = Sweep(scratch, traced)
    recorder.op = "setup"
    workload.setup()
    recorder.op = None
    result = {"ready": time.monotonic()}

    if args.role == "run":
        ops = run_rounds(workload, wl.scene_order(workload.n_scenes, args.seed),
                         args.seconds, recorder)
        if uninstall is not None:
            uninstall()
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cli_rss_kb = max((op.get("rss_kb", 0) for op in ops), default=0)
        sirs, sdrs, problems = workload.check(ops)
        result.update(
            ops=[{k: op[k] for k in ("index", "scene", "wall", "ok")} for op in ops],
            audio_s=sum(workload.audio_s_per_op for op in ops if op["ok"]),
            peak_rss_kb=cli_rss_kb if args.workload == "separate-cli" and not traced
            else own_rss_kb,
            sir_db=float(np.mean(sirs)) if sirs else None,
            sdr_db=float(np.mean(sdrs)) if sdrs else None,
            problems=problems, env=_numpy_env())
        if traced:
            span_path = Path(args.result).with_suffix(".spans.jsonl")
            recorder.write(span_path)
            result["spans"] = str(span_path)
            result["per_layer"] = spans.per_layer_metrics(
                recorder.spans, len(ops), args.import_s,
                setup_render=args.workload == "separate-cli",
                iters_to_1pct=oracle.iterations_to_1pct)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
