"""Compare the artifacts two checkouts of gciva render from one fixed set of
commands.

    python3 tools/artifacts.py --parent <checkout> [--change <checkout>] [--work <dir>]

``--change`` defaults to the checkout holding this script, ``--work`` to a
new temporary directory. Each checkout renders, from its own ``src`` and
each command in a fresh process (one BLAS thread, no bytecode written):

- ``benchmark`` on each scene of the perfbench ``sweep`` workload, with the
  arguments ``perfbench/workloads.py`` gives it, and the default sweep at
  the workload's iteration count;
- ``simulate --seed 0``;
- ``separate`` with aux, gc-aux (``--doa 135``) and gc-grad (``--doa 45``),
  each with and without ``--refs``, all on the parent's ``simulate`` scene,
  so both checkouts separate the same input.

Then it prints one line per file: ``identical``; for a CSV or WAV file, the
largest relative move of each numeric column (a CSV column, a WAV channel)
that moved, taken as the largest absolute change over the column's largest
parent magnitude; for a JSON file, each key whose value changed, was added
or was removed, with the relative move of a numeric list. It exits 0 when
every file is identical and 1 otherwise.
"""

import argparse
import csv
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's workload definitions, run from source so that no bytecode
# is written under perfbench/
workloads = SimpleNamespace(**runpy.run_path(str(ROOT / "perfbench" / "workloads.py")))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SEPARATIONS = (("aux", ()), ("gc-aux", ("--doa", "135")), ("gc-grad", ("--doa", "45")))


def commands(scene: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(output directory name, gc-iva arguments) of every rendered artifact
    set, each written under ``out``; ``scene`` is the ``simulate`` directory
    that ``separate`` reads."""
    def job(name: str, *argv: str) -> tuple[str, list[str]]:
        return name, [*argv, "--out", str(out / name)]

    jobs = [(f"sweep{i}", workloads.sweep_args(i, str(out / f"sweep{i}")))
            for i in range(len(workloads.SWEEP_SCENES))]
    jobs.append(job("default-sweep", "benchmark", "--iterations", str(workloads.SWEEP_ITERATIONS)))
    jobs.append(job("simulate", "simulate", "--seed", "0"))
    refs = f"{scene / 'source01.wav'},{scene / 'source02.wav'}"
    for algorithm, extra in SEPARATIONS:
        for with_refs in (False, True):
            name = f"separate-{algorithm}" + ("-refs" if with_refs else "")
            jobs.append(job(name, "separate", str(scene / "mixture.wav"), "--algorithm",
                            algorithm, *extra, *(("--refs", refs) if with_refs else ())))
    return jobs


def render(tree: Path, out: Path, scene: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(THREAD_VARS, "1")}
    for _, argv in commands(scene, out):
        proc = subprocess.run([sys.executable, *workloads.CLI, *argv],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: gc-iva {' '.join(argv)} exited {proc.returncode}:\n"
                             f"{proc.stderr}")


def _relative_move(before: np.ndarray, after: np.ndarray) -> float:
    scale = np.max(np.abs(before), initial=0.0)
    with np.errstate(invalid="ignore"):
        change = np.max(np.abs(after - before), initial=0.0)
    return float(change / scale) if scale else float(change)


def _numeric(values: list) -> np.ndarray | None:
    try:
        return np.array([float(v) for v in values])
    except (TypeError, ValueError):
        return None


def _column_moves(before: dict, after: dict) -> str:
    # before and after map a column name to its list of values
    if list(before) != list(after):
        return f"columns {list(before)} -> {list(after)}"
    moves = []
    for name, old in before.items():
        new = after[name]
        if len(old) != len(new):
            return f"{len(old)} -> {len(new)} rows"
        if old == new:
            continue
        a, b = _numeric(old), _numeric(new)
        if a is None or b is None:
            changed = sum(x != y for x, y in zip(old, new))
            moves.append(f"{name} text changed in {changed} rows")
        elif not np.array_equal(a, b, equal_nan=True):
            moves.append(f"{name} {_relative_move(a, b):.3g}")
        else:
            moves.append(f"{name} same values, other digits")
    return "; ".join(moves)


def _csv_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _wav_columns(path: Path) -> dict:
    from gciva.io import read_wav  # the comparing checkout's reader

    data, rate = read_wav(path)
    data = data.reshape(len(data), -1)
    return {"rate": [rate], **{f"channel {k}": data[:, k].tolist()
                               for k in range(data.shape[1])}}


def _flat(value, key: str = "") -> dict:
    # a nested JSON object as {dotted key: leaf value}; an empty object is a leaf
    if isinstance(value, dict) and value:
        return {k: v for name, item in value.items()
                for k, v in _flat(item, f"{key}.{name}" if key else name).items()}
    return {key: value}


def _json_moves(before: dict, after: dict) -> str:
    old, new = _flat(before), _flat(after)
    moves = [f"removed {key}" for key in old if key not in new]
    moves += [f"added {key}" for key in new if key not in old]
    for key in old.keys() & new.keys():
        if old[key] != new[key]:
            a, b = (_numeric(v) if isinstance(v, list) else None for v in (old[key], new[key]))
            if a is not None and b is not None and a.shape == b.shape:
                moves.append(f"changed {key} {_relative_move(a, b):.3g}")
            else:
                moves.append(f"changed {key}")
    return "; ".join(sorted(moves))


def compare_files(before: Path, after: Path) -> str:
    """``identical``, or how ``after`` differs from ``before``."""
    if before.read_bytes() == after.read_bytes():
        return "identical"
    if before.suffix == ".json":
        moves = _json_moves(json.loads(before.read_text(encoding="utf-8")),
                            json.loads(after.read_text(encoding="utf-8")))
    elif before.suffix == ".csv":
        moves = _column_moves(_csv_columns(before), _csv_columns(after))
    elif before.suffix == ".wav":
        moves = _column_moves(_wav_columns(before), _wav_columns(after))
    else:
        moves = ""
    return moves or "bytes differ"


def compare_dirs(before: Path, after: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) of every file under either directory."""
    names = sorted({p.relative_to(d).as_posix() for d in (before, after)
                    for p in d.rglob("*") if p.is_file()})
    verdicts = []
    for name in names:
        a, b = before / name, after / name
        if not b.is_file():
            verdicts.append((name, "only in parent"))
        elif not a.is_file():
            verdicts.append((name, "only in change"))
        else:
            verdicts.append((name, compare_files(a, b)))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="the checkout compared against")
    parser.add_argument("--change", type=Path, default=ROOT, help="the checkout compared")
    parser.add_argument("--work", type=Path, help="where both render (default: a new temp dir)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.change.resolve() / "src"))
    work = args.work or Path(tempfile.mkdtemp(prefix="gciva-artifacts-"))
    parent, change = (tree.resolve() for tree in (args.parent, args.change))
    scene = work / "parent" / "simulate"
    render(parent, work / "parent", scene)
    render(change, work / "change", scene)
    verdicts = compare_dirs(work / "parent", work / "change")
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} files identical (rendered in {work})")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
