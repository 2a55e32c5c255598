"""Spans around railchan's public entry points, installed from outside the
package.

``SpanRecorder.install`` replaces each entry point in ``ENTRY_POINTS`` by a
wrapper that records a span (iteration, id, parent id, name, start, end)
and, for some, a deterministic counter taken from the arguments or the
result.  ``uninstall`` puts the originals back, so untraced iterations run
the unmodified program.  An entry point that a refactor renamed or removed
is listed in ``absent`` and its layer reads 0; nothing crashes.

``layer_metrics`` turns the spans of one iteration into the per-layer
metrics.  Every span's self time (its duration minus its children's) is
credited to exactly one ``*_s`` metric, with the CLI root span's self time
as ``cli.other_s``, so those metrics add up to the traced wall.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module:attribute path, span name)
ENTRY_POINTS = (
    ("railchan.cli:load_preset", "config.load"),
    ("railchan.cli:load_config_file", "config.load"),
    ("railchan.config:ScenarioConfig.load_scene", "scene.load"),
    ("railchan.cli:stream_snapshots", "dynamics.stream"),
    ("railchan.specular:SpecularTracer.trace", "specular.trace"),
    ("railchan.specular:trace_rooftop", "specular.rooftop"),
    ("railchan.specular:compose_path_matrix", "em.compose"),
    ("railchan.scene:Scene.segments_blocked", "scene.occlusion"),
    ("railchan.scatter:ScatterEngine.paths", "scatter.paths"),
    ("railchan.dynamics:match_paths", "dynamics.match"),
    ("railchan.dynamics:apply_birth_death", "dynamics.birth_death"),
    ("railchan.dynamics:interpolate_path", "dynamics.interpolate"),
    ("railchan.cli:metric_series", "metrics.series"),
    ("railchan.cli:synthesize_tv_cir", "metrics.tvcir"),
    ("railchan.cli:power_decomposition", "metrics.power_split"),
    ("railchan.cli:write_trace_csv", "traceio.trace_csv"),
    ("railchan.cli:file_sha256", "traceio.digest"),
)
ROOT_SPAN = "cli.main"

# span name -> metric credited with the span's self time
SELF_TIME = {
    ROOT_SPAN: "cli.other_s",
    "config.load": "config.load_s",
    "scene.load": "scene.load_s",
    "dynamics.stream": "dynamics.stream_s",
    "specular.trace": "specular.trace_s",
    "specular.rooftop": "specular.rooftop_s",
    "em.compose": "em.compose_s",
    # occlusion tests outside a scatter span come from the tracer
    "scene.occlusion.specular": "scene.occlusion_s.specular",
    "scene.occlusion.scatter": "scene.occlusion_s.scatter",
    "scatter.paths": "scatter.paths_s",
    "dynamics.match": "dynamics.match_s",
    "dynamics.birth_death": "dynamics.birth_death_s",
    "dynamics.interpolate": "dynamics.interpolate_s",
    "metrics.series": "metrics.series_s",
    "metrics.tvcir": "metrics.tvcir_s",
    "metrics.power_split": "metrics.power_split_s",
    "traceio.trace_csv": "traceio.trace_csv_s",
    "traceio.other_csv": "traceio.other_csv_s",
    "traceio.digest": "traceio.digest_s",
}
# span name -> counter that counts its calls
CALL_COUNTERS = {
    "specular.trace": "specular.solves",
    "specular.rooftop": "specular.rooftop_calls",
    "em.compose": "em.compose_calls",
    "scatter.paths": "scatter.calls",
    "dynamics.interpolate": "dynamics.interpolate_calls",
}
_SCATTER_PARENT = "scatter.paths"


def _resolve(target: str):
    """(owner, attribute name, current value) for ``module:Attr.path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _other_writers() -> tuple:
    """Every traceio writer the CLI imports besides the trace writer."""
    try:
        cli = importlib.import_module("railchan.cli")
    except ImportError:
        return ()
    return tuple(
        (f"railchan.cli:{attr}", "traceio.other_csv")
        for attr, fn in sorted(vars(cli).items())
        if attr.startswith("write_")
        and attr != "write_trace_csv"
        and getattr(fn, "__module__", None) == "railchan.traceio"
    )


class SpanRecorder:
    """In-memory span and counter store for traced iterations."""

    def __init__(self):
        self.spans: list = []  # (iteration, id, parent, name, start, end)
        self.counters: Counter = Counter()
        self.stream_timings: dict[str, float] = {}
        self.absent: list[str] = []
        self.iteration = -1
        self._stack: list[tuple[int, str]] = [(-1, "")]
        self._originals: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for target, name in ENTRY_POINTS + _other_writers():
            try:
                owner, attr, fn = _resolve(target)
            except (ImportError, AttributeError):
                if target not in self.absent:
                    self.absent.append(target)
                continue
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    # -- recording ------------------------------------------------------
    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self.counters = Counter()
        self.stream_timings = {}

    @contextlib.contextmanager
    def root(self):
        sid = self._open(ROOT_SPAN)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, ROOT_SPAN, start)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append((sid, name))
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (self.iteration, sid, self._stack[-1][0], name, start, end)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name
            if name == "scene.occlusion":
                under_scatter = any(n == _SCATTER_PARENT for _, n in self._stack)
                span_name = name + (".scatter" if under_scatter else ".specular")
            sid = self._open(span_name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, span_name, start)
            if observe is not None:
                observe(span_name, args, result)
            return result

        return wrapper

    # -- counters taken at the boundaries -------------------------------
    def _observe_specular_trace(self, name, args, result):
        self.counters["specular.paths"] += len(result)

    def _observe_scene_occlusion(self, name, args, result):
        layer = name.rsplit(".", 1)[1]
        self.counters["scene.segments_tested." + layer] += len(result)
        self.counters["scene.segments_clear." + layer] += int(len(result) - result.sum())

    def _observe_scatter_paths(self, name, args, result):
        self.counters["scatter.paths"] += len(result)

    def _observe_dynamics_match(self, name, args, result):
        matched, births, deaths = result
        self.counters["dynamics.matched"] += len(matched)
        self.counters["dynamics.births"] += len(births)
        self.counters["dynamics.deaths"] += len(deaths)

    def _observe_dynamics_interpolate(self, name, args, result):
        self.counters["dynamics.interpolated"] += result is not None

    def _observe_dynamics_stream(self, name, args, result):
        self.counters["dynamics.rows"] += sum(len(s.paths) for s in result.snapshots)
        for key in ("keyframe", "interpolation", "scatter"):
            self.stream_timings[f"dynamics.{key}_s"] = float(
                getattr(result, f"{key}_seconds", 0.0)
            )

    def _observe_traceio_trace_csv(self, name, args, result):
        with open(args[0], "rb") as fh:
            self.counters["traceio.trace_csv_bytes"] += fh.seek(0, 2)

    # -- output ---------------------------------------------------------
    def write_spans(self, path) -> None:
        """Every recorded span as gzipped CSV, written once at the end."""
        with gzip.open(path, "wt") as fh:
            fh.write("iteration,id,parent,name,start_s,end_s\n")
            for it, sid, parent, name, start, end in self.spans:
                fh.write(f"{it},{sid},{parent},{name},{start!r},{end!r}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between observed values; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: SpanRecorder, iteration: int) -> tuple[dict, dict, float]:
    """(timings, counters, root duration) of one traced iteration."""
    spans = [s for s in recorder.spans if s is not None and s[0] == iteration]
    child = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        child[parent] += end - start
    timings = {metric: 0.0 for metric in SELF_TIME.values()}
    calls: Counter = Counter()
    solve_ms = []
    root = 0.0
    for _, sid, _, name, start, end in spans:
        timings[SELF_TIME[name]] += (end - start) - child[sid]
        calls[name] += 1
        if name == "specular.trace":
            solve_ms.append((end - start) * 1e3)
        if name == ROOT_SPAN:
            root = end - start
    timings["specular.solve_ms_p50"] = _quantile(solve_ms, 50)
    timings["specular.solve_ms_p90"] = _quantile(solve_ms, 90)
    for key in ("dynamics.keyframe_s", "dynamics.interpolation_s", "dynamics.scatter_s"):
        timings[key] = recorder.stream_timings.get(key, 0.0)

    c = recorder.counters
    counters = {metric: calls[name] for name, metric in CALL_COUNTERS.items()}
    for key in (
        "specular.paths",
        "scatter.paths",
        "dynamics.matched",
        "dynamics.births",
        "dynamics.deaths",
        "dynamics.rows",
    ):
        counters[key] = c[key]
    for layer in ("specular", "scatter"):
        tested = c["scene.segments_tested." + layer]
        counters["scene.segments_tested." + layer] = tested
        counters["scene.segments_clear_frac." + layer] = _ratio(
            c["scene.segments_clear." + layer], tested
        )
    counters["specular.yield"] = _ratio(c["specular.paths"], calls["em.compose"])
    counters["dynamics.interp_yield"] = _ratio(
        c["dynamics.interpolated"], calls["dynamics.interpolate"]
    )
    counters["traceio.trace_csv_mb"] = c["traceio.trace_csv_bytes"] / 1e6
    counters["trace.spans"] = len(spans)
    counters["trace.absent_entry_points"] = len(recorder.absent)
    return timings, counters, root


# every per-layer metric the traced run reports, in BENCHMARK.json order
PER_LAYER = (
    "config.load_s",
    "scene.load_s",
    "specular.trace_s",
    "specular.solve_ms_p50",
    "specular.solve_ms_p90",
    "specular.solves",
    "specular.paths",
    "specular.rooftop_s",
    "specular.rooftop_calls",
    "specular.yield",
    "em.compose_s",
    "em.compose_calls",
    "scene.occlusion_s.specular",
    "scene.segments_tested.specular",
    "scene.segments_clear_frac.specular",
    "scene.occlusion_s.scatter",
    "scene.segments_tested.scatter",
    "scene.segments_clear_frac.scatter",
    "scatter.paths_s",
    "scatter.calls",
    "scatter.paths",
    "dynamics.stream_s",
    "dynamics.match_s",
    "dynamics.birth_death_s",
    "dynamics.interpolate_s",
    "dynamics.interpolate_calls",
    "dynamics.matched",
    "dynamics.births",
    "dynamics.deaths",
    "dynamics.rows",
    "dynamics.interp_yield",
    "dynamics.keyframe_s",
    "dynamics.interpolation_s",
    "dynamics.scatter_s",
    "metrics.series_s",
    "metrics.tvcir_s",
    "metrics.power_split_s",
    "traceio.trace_csv_s",
    "traceio.trace_csv_mb",
    "traceio.other_csv_s",
    "traceio.digest_s",
    "cli.other_s",
    "cli.cpu_s",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.spans",
    "trace.absent_entry_points",
)


def unit(metric: str) -> str:
    if "_ms_" in metric:
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if "frac" in metric or "yield" in metric:
        return "ratio"
    return "count"
