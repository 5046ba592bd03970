"""Benchmark of the gciva pipeline.

    python3 perfbench/run.py --workload {separate-cli,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``. Each run also writes a full record,
including the environment it ran in, to ``perfbench/results/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"setup_s": "s", "op_p50_s": "s", "audio_s_per_s": "audio_s/s",
         "peak_rss_mb": "MB", "sir_db": "dB", "sdr_db": "dB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gciva, gciva.cli; "
                "print(time.perf_counter() - t)")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _run(argv, env, what: str) -> str:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _worker(role: str, args, scratch: Path, env, extra=()) -> tuple[float, dict]:
    """Starts a fresh worker process; returns its set-up time and result."""
    result_path = scratch / f"{role}-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", str(scratch / "work"), "--result", str(result_path), *extra]
    start = time.monotonic()
    _run(argv, env, f"worker ({role})")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["ready"] - start, result


def _render_cli_scenes(scenes_dir: Path, env) -> float:
    """Renders the separate-cli scenes with ``gc-iva simulate``; returns the
    wall time from the first process start to the last exit."""
    start = time.monotonic()
    for scene in range(len(wl.CLI_SCENES)):
        _run([sys.executable, *wl.CLI, *wl.simulate_args(scene, str(scenes_dir / f"scene{scene}"))],
             env, "gc-iva simulate")
    return time.monotonic() - start


def _environment(env) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "machine": platform.machine(),
            "threads": {v: env[v] for v in THREAD_VARS}, "loadavg": os.getloadavg()}


def measure(args, scratch: Path) -> dict:
    env = _env()
    record = {"args": vars(args), "environment": _environment(env)}
    if args.trace:
        imports = [float(_run([sys.executable, "-c", IMPORT_PROBE], env, "import probe"))
                   for _ in range(wl.SETUP_REPEATS)]
        _, result = _worker("run", args, scratch, env,
                            ["--import-s", str(statistics.median(imports))])
        record["import_s"] = imports
    else:
        extra = []
        if args.workload == "separate-cli":
            setups = [_render_cli_scenes(scratch / f"setup{i}", env)
                      for i in range(wl.SETUP_REPEATS)]
            extra = ["--scenes-dir", str(scratch / f"setup{wl.SETUP_REPEATS - 1}")]
        else:
            setups = [_worker("setup", args, scratch, env)[0]
                      for _ in range(wl.SETUP_REPEATS - 1)]
        setup_s, result = _worker("run", args, scratch, env, extra)
        if args.workload != "separate-cli":
            setups.append(setup_s)
        record["setup_s"] = setups
    record["worker"] = result
    record["environment"].update(result["env"])

    walls = [op["wall"] for op in result["ops"] if op["ok"]]
    attempted = len(result["ops"])
    failed = attempted - len(walls)
    if args.trace:
        metrics, units = result["per_layer"], spans.PER_LAYER
        record["traced_op_p50_s"] = statistics.median(walls) if walls else None
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(walls),
            "audio_s_per_s": result["audio_s"] / sum(walls),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "sir_db": result["sir_db"],
            "sdr_db": result["sdr_db"],
        }
        units = UNITS
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record["line"] = {
        "correct": not result["problems"] and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gciva" / "cli.py").is_file():
        print(f"perfbench: no gciva sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = HERE / "scratch" / tag
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    scratch.mkdir(parents=True)
    try:
        record = measure(args, scratch)
        spans_file = record["worker"].pop("spans", None)
        if spans_file:
            shutil.move(spans_file, results / f"{tag}.spans.jsonl")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
