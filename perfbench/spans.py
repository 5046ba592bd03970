"""In-memory span tracing of gciva's public functions, and the per-layer
metrics derived from the spans.

A span is ``[name, start, end, parent, op, attrs]``: start and end come
from ``time.perf_counter``, ``parent`` is the index of the enclosing span
(-1 at top level) and ``op`` identifies the operation the span belongs to
(an integer, or ``"setup"``). Calls made while ``Recorder.op`` is None, such
as the benchmark's own checks, are not recorded.
"""

import functools
import json
import statistics
import sys
import time

# layer prefix -> module -> public functions wrapped by the traced run
TARGETS = {
    "stft": ("gciva.stft", ("analyze", "synthesize")),
    "iva": ("gciva.iva", ("run_informed_iva", "run_gradient_iva", "evaluate_cost",
                          "gradient_update", "project_back")),
    "metrics": ("gciva.metrics", ("decompose_sir_sdr", "match_permutation")),
    "scene": ("gciva.scene", ("synthetic_sources", "simulate_mixture")),
    "io": ("gciva.io", ("read_wav", "read_keyvalue", "write_wav", "write_json",
                        "write_csv", "write_cost_trace_csv")),
    "cli": ("gciva.cli", ("main",)),
}

ALGORITHMS = ("aux", "gc-aux", "gc-grad")

# per-layer metric -> unit
PER_LAYER = {
    "import.gciva_s": "s", "stft.analyze_s": "s", "stft.synthesize_s": "s",
    "iva.solve_self_s": "s", "iva.cost_s": "s", "iva.cost_calls": "count",
    "iva.grad_step_s": "s", "iva.grad_step_calls": "count", "iva.iter_ms.aux": "ms",
    "iva.iter_ms.gc-aux": "ms", "iva.iter_ms.gc-grad": "ms", "iva.iters_to_1pct": "count",
    "iva.project_back_s": "s", "metrics.decompose_s": "s", "metrics.decompose_calls": "count",
    "metrics.match_s": "s", "metrics.match_calls": "count", "scene.render_s": "s",
    "io.read_s": "s", "io.write_s": "s", "cli.self_s": "s",
}


def _solver_attrs(name, args, kwargs, result):
    """Algorithm, iteration count and total cost trace of one solve."""
    if name == "iva.run_gradient_iva":
        algorithm = "gc-grad"
        iterations = args[5] if len(args) > 5 else kwargs["iterations"]
    else:
        prior = args[1] if len(args) > 1 else kwargs["prior"]
        algorithm = "gc-aux" if prior is not None and prior.constrained_channels else "aux"
        iterations = args[3] if len(args) > 3 else kwargs["iterations"]
    trace = result[2]
    return {"algorithm": algorithm, "iterations": int(iterations),
            "cost_total": [float(v) for v in trace.j_iva + trace.j_prior]}


class Recorder:
    """Keeps spans in memory; ``op`` selects what new spans belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        solver = name in ("iva.run_informed_iva", "iva.run_gradient_iva")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if solver:
                span[5] = _solver_attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever gciva's modules hold it (the defining
        module, the package namespace, names imported into ``gciva.cli``).
        Returns a function that restores the originals."""
        import gciva.cli  # noqa: F401  (loads every traced module)

        modules = [m for key, m in sys.modules.items()
                   if key == "gciva" or key.startswith("gciva.")]
        restore = []
        for layer, (module_name, names) in TARGETS.items():
            for fname in names:
                original = getattr(sys.modules[module_name], fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            restore.append((module, attr, original))

        def uninstall():
            for module, attr, original in restore:
                setattr(module, attr, original)

        return uninstall

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[3], []).append((span[1], span[2]))
    return [s[2] - s[1] - covered(s[1], s[2], children.get(i, ())) for i, s in enumerate(spans)]


def per_layer_metrics(spans, n_ops: int, import_s: float, setup_render: bool,
                      iters_to_1pct) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Sums and counts are taken per operation and reported as the median over
    the ``n_ops`` operations; ``scene.render_s`` is per set-up when
    ``setup_render`` (the workload renders before its operations).
    ``iva.iter_ms.*`` and ``iva.iters_to_1pct`` are medians over solves; an
    algorithm that did not run reports 0.
    """
    selfs = self_times(spans)
    per_op = [dict.fromkeys(PER_LAYER, 0.0) for _ in range(n_ops)]
    setup_render_s = 0.0
    iter_ms = {a: [] for a in ALGORITHMS}
    to_1pct = []
    for span, self_s in zip(spans, selfs):
        name, start, end, _, op, attrs = span
        duration = end - start
        layer = name.split(".", 1)[0]
        if op == "setup":
            if layer == "scene":
                setup_render_s += duration
            continue
        row = per_op[op]
        if name in ("stft.analyze", "stft.synthesize"):
            row[f"{name}_s"] += duration
        elif name in ("iva.run_informed_iva", "iva.run_gradient_iva"):
            row["iva.solve_self_s"] += self_s
            if attrs.get("iterations"):  # absent when the solve raised
                iter_ms[attrs["algorithm"]].append(1000.0 * duration / attrs["iterations"])
                to_1pct.append(iters_to_1pct(attrs["cost_total"]))
        elif name == "iva.evaluate_cost":
            row["iva.cost_s"] += duration
            row["iva.cost_calls"] += 1
        elif name == "iva.gradient_update":
            row["iva.grad_step_s"] += duration
            row["iva.grad_step_calls"] += 1
        elif name == "iva.project_back":
            row["iva.project_back_s"] += duration
        elif name == "metrics.decompose_sir_sdr":
            row["metrics.decompose_s"] += duration
            row["metrics.decompose_calls"] += 1
        elif name == "metrics.match_permutation":
            row["metrics.match_s"] += duration
            row["metrics.match_calls"] += 1
        elif layer == "scene":
            row["scene.render_s"] += duration
        elif name in ("io.read_wav", "io.read_keyvalue"):
            row["io.read_s"] += duration
        elif layer == "io":
            row["io.write_s"] += duration
        elif name == "cli.main":
            row["cli.self_s"] += self_s
    out = {key: statistics.median(row[key] for row in per_op) for key in PER_LAYER}
    out["import.gciva_s"] = import_s
    if setup_render:
        out["scene.render_s"] = setup_render_s
    for algorithm, values in iter_ms.items():
        out[f"iva.iter_ms.{algorithm}"] = statistics.median(values) if values else 0.0
    out["iva.iters_to_1pct"] = statistics.median(to_1pct) if to_1pct else 0.0
    return out
