"""Command-line front end.

Subcommands:

run            simulate one scenario; write trace.csv, metrics.csv, manifest.json
sweep          accuracy/cost study over keyframe intervals; write nrmse.csv,
               timing.csv, error_cdf.csv, manifest.json
scatter-study  windowed study of discrete-scatterer contributions; write
               tvcir_total.csv, tvcir_scatter.csv, power_split.csv,
               scatter_summary.csv, manifest.json
bench          micro-benchmarks of the solver stages; write bench.csv, and
               trace.csv of the snapshots the writer stage times
validate-scene check a scene file and print its inventory

Exit codes: 0 success, 2 configuration/scene errors, 3 unexpected failures.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DEFAULT_PRESET,
    ConfigError,
    ScenarioConfig,
    load_config_file,
    load_preset,
    scene_file,
)
from .dynamics import (
    SCATTER_MODES,
    StepSchedule,
    Trajectory,
    stream_snapshots,
    whole_steps,
)
from .em import CarrierConfig
from .metrics import (
    compare_series,
    metric_series,
    power_decomposition,
    synthesize_tv_cir,
)
from .rays import SCATTERING, TAG_SCATTER, token
from .scatter import ScatterEngine, inside_scatterers
from .scene import EPS_GEOM, SceneError, load_scene_file
from .specular import SOLVE_STAGES, SpecularTracer
from .traceio import (
    file_sha256,
    write_bench_csv,
    write_error_cdf_csv,
    write_manifest,
    write_metrics_csv,
    write_nrmse_csv,
    write_power_split_csv,
    write_scatter_summary_csv,
    write_timing_csv,
    write_trace_csv,
    write_tvcir_csv,
)


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------
def _add_scenario_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH", help="scenario JSON file")
    src.add_argument(
        "--preset",
        metavar="NAME",
        help=f"bundled scenario preset (default: {DEFAULT_PRESET})",
    )
    p.add_argument("--output-dir", metavar="DIR", help="directory for output files")
    p.add_argument("--duration", type=float, metavar="S", help="override duration_s")
    p.add_argument("--update-step", type=float, metavar="S", help="override update_step_s")
    p.add_argument("--kf-interval", type=float, metavar="S", help="override kf_interval_s")
    p.add_argument(
        "--scatter", choices=SCATTER_MODES, help="override scatter_mode"
    )
    p.add_argument("--seed", type=int, metavar="N", help="override seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railchan",
        description="Deterministic dynamic radio-channel simulation for rail links.",
    )
    parser.add_argument("--version", action="version", version=f"railchan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write the channel trace")
    _add_scenario_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="interpolation accuracy and cost across keyframe intervals"
    )
    _add_scenario_options(p_sweep)
    p_sweep.add_argument(
        "--intervals",
        metavar="S,S,...",
        help="comma-separated keyframe intervals overriding sweep_intervals_s",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_sc = sub.add_parser(
        "scatter-study", help="windowed discrete-scatterer contribution study"
    )
    _add_scenario_options(p_sc)
    p_sc.add_argument(
        "--window",
        metavar="START:STOP",
        help="seconds window overriding scatter_window_s, e.g. 18.5:23.9",
    )
    p_sc.set_defaults(func=cmd_scatter_study)

    p_bench = sub.add_parser("bench", help="micro-benchmarks of the solver stages")
    _add_scenario_options(p_bench)
    p_bench.add_argument("--repeats", type=int, default=3, metavar="N", help="timing repeats")
    p_bench.set_defaults(func=cmd_bench)

    p_val = sub.add_parser("validate-scene", help="check a scene file and print its inventory")
    p_val.add_argument("scene", help="scene JSON path or bundled preset name")
    p_val.set_defaults(func=cmd_validate_scene)

    return parser


def _scenario_from_args(args) -> ScenarioConfig:
    overrides = {
        "duration_s": args.duration,
        "update_step_s": args.update_step,
        "kf_interval_s": args.kf_interval,
        "scatter_mode": args.scatter,
        "seed": args.seed,
    }
    if getattr(args, "intervals", None) is not None:
        parts = args.intervals.split(",")
        if not any(v.strip() for v in parts):
            raise ConfigError("--intervals must name at least one interval")
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ConfigError(f"--intervals must be comma-separated numbers, got {args.intervals!r}")
        overrides["sweep_intervals_s"] = vals
    if getattr(args, "window", None) is not None:
        parts = args.window.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--window must be START:STOP seconds, got {args.window!r}")
        try:
            overrides["scatter_window_s"] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise ConfigError(f"--window must be START:STOP seconds, got {args.window!r}")
    if args.config:
        return load_config_file(args.config, overrides=overrides)
    return load_preset(args.preset or DEFAULT_PRESET, overrides=overrides)


def _out_dir(args, command: str) -> Path:
    out = Path(args.output_dir) if args.output_dir else Path("railchan-out") / command
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {str(out)!r}: {exc.strerror}") from None
    return out


def _check_antennas(cfg: ScenarioConfig, scene, traj: Trajectory, solved, scattered) -> None:
    """ConfigError when an antenna position the command evaluates is invalid.

    At the ``solved`` times (seconds) the command traces exactly, the
    receiver on ``traj`` must lie outside every building and apart from the
    transmitter.  When the command evaluates the scatter engine, at the
    ``scattered`` times, neither antenna may lie inside a scatterer body.
    """
    tx = cfg.tx_position
    rx = traj.position(solved)
    # vecdot gives each row the bits np.linalg.norm gives a single vector
    d = rx - tx
    faults = np.stack([scene.contains_points(rx), np.sqrt(np.vecdot(d, d)) < EPS_GEOM])
    if faults.any():
        k = np.argmax(faults.any(axis=0))
        fault = "lies inside a building of the scene" if faults[0, k] else "meets 'tx_position_m'"
        raise ConfigError(f"the receiver track at t = {solved[k]:g} s, {rx[k].tolist()}, {fault}")
    if not scattered:
        return
    antennas = np.concatenate([tx[None], traj.position(scattered)])
    inside = np.argwhere(inside_scatterers(scene.scatterers, antennas))
    if len(inside):
        k, m = inside[0]
        name = f"the receiver track at t = {scattered[k - 1]:g} s" if k else "'tx_position_m'"
        raise ConfigError(f"{name}, {antennas[k].tolist()}, lies inside scatterer {scene.scatterers[m].id} of the scene")


def _check_stream(cfg: ScenarioConfig, scene, traj: Trajectory, kf_interval: float, start_step: int = 0) -> None:
    """:func:`_check_antennas` for the stream :func:`_run_stream` runs with the
    same arguments: at its keyframes, and where it evaluates the scatter
    engine, at every snapshot in ``exact`` mode, the keyframes in
    ``interpolated`` mode, none when scattering is off."""
    sched = StepSchedule(cfg.update_step_s, kf_interval, start_step, traj.duration)
    scattered = {"exact": sched.snapshots, "interpolated": sched.keyframes}.get(cfg.scatter_mode, [])
    _check_antennas(cfg, scene, traj, sched.seconds(sched.keyframes), sched.seconds(scattered))


def _rss_mb() -> float:
    """The process's peak RSS so far, its ``ru_maxrss`` high-water mark, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _Stages:
    """The stages of a command in order: each one's seconds, from the end
    of the stage before it (or from construction), and the process's RSS
    high-water mark after it."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.rss_mb: dict[str, float] = {}
        self._start = time.perf_counter()

    def mark(self, stage: str) -> None:
        """End ``stage`` now and start the next."""
        self.seconds[stage] = time.perf_counter() - self._start
        self.rss_mb[stage] = _rss_mb()
        self._start = time.perf_counter()


def _stream_manifest(command: str, cfg: ScenarioConfig, result, out: Path, names, stages: _Stages, **fields) -> dict:
    """What a stream command reports: the command, the package version, the
    scenario echo, the scene's digest and the seed; the command's own
    ``fields``, its ``n_snapshots`` among them; the stream's deterministic
    ``counters`` apart from the ``timings_s`` of its layers, of the whole
    stream (``total``, the ``stream`` stage) and of each later stage by
    name; the process's peak RSS, and ``rss_mb_after``, its high-water mark
    after each stage of the command, by stage in stage order; and the
    digests of the output files ``names``."""
    later = {stage: seconds for stage, seconds in stages.seconds.items() if stage != "stream"}
    return {
        "command": command,
        "package_version": __version__,
        "config": cfg.echo(),
        "scene_sha256": file_sha256(cfg.scene_path),
        "seed": cfg.seed,
        "rt_invocations": result.rt_invocations,
        **fields,
        "counters": result.counters,
        "timings_s": {
            "keyframe": result.keyframe_seconds,
            "interpolation": result.interpolation_seconds,
            "scatter": result.scatter_seconds,
            "total": stages.seconds["stream"],
            **later,
        },
        "peak_rss_mb": _rss_mb(),
        # [stage, MB] pairs: the manifest's keys are sorted, the stages are not
        "rss_mb_after": [[stage, mb] for stage, mb in stages.rss_mb.items()],
        "outputs": {name: file_sha256(out / name) for name in names},
    }


def _run_stream(cfg: ScenarioConfig, scene, traj: Trajectory, kf_interval: float, start_step: int = 0):
    return stream_snapshots(
        scene,
        traj,
        cfg.tx_position,
        CarrierConfig(cfg.carrier_hz),
        cfg.update_step_s,
        kf_interval,
        limits=cfg.limits,
        scatter_mode=cfg.scatter_mode,
        seed=cfg.seed,
        start_step=start_step,
    )


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    cfg = _scenario_from_args(args)
    scene = cfg.load_scene()
    traj = cfg.trajectory()
    _check_stream(cfg, scene, traj, cfg.kf_interval_s)
    out = _out_dir(args, "run")
    stages = _Stages()
    result = _run_stream(cfg, scene, traj, cfg.kf_interval_s)
    stages.mark("stream")

    ids = write_trace_csv(out / "trace.csv", result.snapshots)
    stages.mark("trace.csv")
    table = metric_series(result.snapshots, cfg.tx_power_dbm)
    stages.mark("metrics")
    write_metrics_csv(out / "metrics.csv", table)
    stages.mark("metrics.csv")

    n_rows = result.counters["rows"]
    names = ["trace.csv", "metrics.csv"]
    counts = {"n_snapshots": len(result.snapshots), "n_path_rows": n_rows, "n_distinct_paths": len(ids)}
    manifest = _stream_manifest("run", cfg, result, out, names, stages, **counts)
    write_manifest(out / "manifest.json", manifest)
    print(
        f"run: {len(result.snapshots)} snapshots, {n_rows} path rows, "
        f"{len(ids)} distinct paths, {result.rt_invocations} exact solves, "
        f"{stages.seconds['stream']:.2f} s"
    )
    print(f"outputs in {out}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def cmd_sweep(args) -> int:
    cfg = _scenario_from_args(args)
    if not cfg.sweep_intervals_s:
        raise ConfigError("no sweep intervals configured; set 'sweep_intervals_s' or --intervals")
    scene = cfg.load_scene()
    # the reference stream solves every step; the swept streams solve a subset
    traj = cfg.trajectory()
    _check_stream(cfg, scene, traj, cfg.update_step_s)
    out = _out_dir(args, "sweep")

    stages = _Stages()
    reference = _run_stream(cfg, scene, traj, cfg.update_step_s)
    stages.mark("stream")
    ref_wall = stages.seconds["stream"]
    # each stream is reduced to its metric table and its snapshots dropped
    # before the next stream is built: one stream is alive at a time
    ref_table = metric_series(reference.snapshots, cfg.tx_power_dbm)
    reference.snapshots = None
    stages.mark("metrics")

    rows = []
    timing = []
    for interval in cfg.sweep_intervals_s:
        t0 = time.perf_counter()
        test = _run_stream(cfg, scene, traj, interval)
        test_wall = time.perf_counter() - t0
        errors = compare_series(ref_table, metric_series(test.snapshots, cfg.tx_power_dbm))
        test.snapshots = None
        rows.append((interval, errors))
        normalized = test_wall / ref_wall
        timing.append(
            (interval, ref_wall, test_wall, normalized, reference.rt_invocations, test.rt_invocations)
        )
        nrmse_vv = errors["power_vv"].nrmse
        print(
            f"kf={interval:g}s: NRMSE(vv power)={nrmse_vv:.4f}, "
            f"time={test_wall:.2f}s ({normalized:.3f}x ref), "
            f"solves={test.rt_invocations}"
        )

    # the swept streams and their comparisons with the reference
    stages.mark("sweep")
    write_nrmse_csv(out / "nrmse.csv", rows)
    stages.mark("nrmse.csv")
    write_timing_csv(out / "timing.csv", timing)
    stages.mark("timing.csv")
    write_error_cdf_csv(out / "error_cdf.csv", rows)
    stages.mark("error_cdf.csv")
    # the stream blocks report the reference stream
    manifest = _stream_manifest(
        "sweep",
        cfg,
        reference,
        out,
        ["nrmse.csv", "timing.csv", "error_cdf.csv"],
        stages,
        n_snapshots=len(ref_table["timestamp_s"]),
        intervals_s=list(cfg.sweep_intervals_s),
        nrmse_vv_by_interval={"%g" % interval: errors["power_vv"].nrmse for interval, errors in rows},
    )
    write_manifest(out / "manifest.json", manifest)
    print(f"outputs in {out}")
    return 0


# ----------------------------------------------------------------------
# scatter-study
# ----------------------------------------------------------------------
def cmd_scatter_study(args) -> int:
    cfg = _scenario_from_args(args)
    scene = cfg.load_scene()
    if not scene.scatterers:
        raise ConfigError("the scene has no discrete scatterers to study")
    if cfg.scatter_mode == "off":
        raise ConfigError("scatter-study needs scatter_mode 'exact' or 'interpolated'")

    w0, w1 = cfg.scatter_window_s
    w1 = min(w1, cfg.duration_s)
    if w0 >= w1:
        raise ConfigError(
            f"scatter window [{cfg.scatter_window_s[0]}, {cfg.scatter_window_s[1]}] s "
            f"lies outside the {cfg.duration_s} s run"
        )
    step = cfg.update_step_s
    for name, edge in (("start", w0), ("stop", w1)):
        if whole_steps(edge, step) is None:
            raise ConfigError(f"window {name} {edge} must be an integer multiple of update_step_s {step}")
    start_step = whole_steps(w0, step)
    traj = Trajectory(waypoints=cfg.waypoints.copy(), speed=cfg.speed_mps, duration=w1)
    _check_stream(cfg, scene, traj, cfg.kf_interval_s, start_step)

    out = _out_dir(args, "scatter-study")
    stages = _Stages()
    result = _run_stream(cfg, scene, traj, cfg.kf_interval_s, start_step)
    stages.mark("stream")

    cir = synthesize_tv_cir(result.snapshots, cfg.bandwidth_hz, cfg.rolloff)
    stages.mark("tvcir")
    decomp = power_decomposition(result.snapshots, cfg.tx_power_dbm)
    summary = _scatter_summary(scene, result.snapshots, cfg.tx_power_dbm)
    stages.mark("power_split")

    names = ["tvcir_total.csv", "tvcir_scatter.csv", "power_split.csv", "scatter_summary.csv"]
    tables = [cir, replace(cir, amplitude=cir.scattered), decomp, summary]
    writers = [write_tvcir_csv, write_tvcir_csv, write_power_split_csv, write_scatter_summary_csv]
    for name, table, write in zip(names, tables, writers):
        write(out / name, table)
        stages.mark(name)

    manifest = _stream_manifest(
        "scatter-study",
        cfg,
        result,
        out,
        names,
        stages,
        n_snapshots=len(result.snapshots),
        window_s=[w0, w1],
        specular_fraction=decomp.specular_fraction,
        scattered_fraction=decomp.scattered_fraction,
    )
    write_manifest(out / "manifest.json", manifest)
    print(
        f"scatter-study: window [{w0:g}, {w1:g}] s, {len(result.snapshots)} snapshots, "
        f"scattered power fraction {decomp.scattered_fraction:.3e}"
    )
    print(f"outputs in {out}")
    return 0


def _scatter_summary(scene, snapshots, tx_power_dbm: float) -> list[tuple]:
    """One row per scatterer in ``scatter_summary.csv`` column order: its id,
    its path rows, the snapshots that see it, its mean power, and its mean
    delay past the earliest specular path, over the rows whose snapshot has
    a specular path.  Every scatter row is an echo of one scatterer, whose
    token is its signature.

    The scatter rows of every snapshot, in snapshot order, are one array
    pass; ``np.bincount`` adds its weights in input order, so each sum has
    the bits of adding the rows one by one."""
    n = len(scene.scatterers)
    scatterer = {token(SCATTERING, s.id, 0): j for j, s in enumerate(scene.scatterers)}
    blocks = [snap.paths for snap in snapshots]
    scatter = [rows.tag == TAG_SCATTER for rows in blocks]
    signature = np.concatenate([rows.signature[m] for rows, m in zip(blocks, scatter)])
    transfer = np.concatenate([rows.transfer[m] for rows, m in zip(blocks, scatter)])
    delay = np.concatenate([rows.delay_s[m] for rows, m in zip(blocks, scatter)])
    snap = np.repeat(np.arange(len(blocks)), np.array([m.sum() for m in scatter], dtype=np.intp))
    col = np.fromiter(map(scatterer.__getitem__, signature), dtype=np.intp, count=len(signature))
    # each row's Frobenius-squared transfer power
    power = np.bincount(col, weights=np.sum(np.abs(transfer) ** 2, axis=(1, 2)), minlength=n)
    count = np.bincount(col, minlength=n)
    # each row's snapshot's earliest specular delay, inf without a specular path
    base = np.array([rows.delay_s[~m].min(initial=np.inf) for rows, m in zip(blocks, scatter)])[snap]
    spec = base < np.inf
    excess = (delay[spec] - base[spec]) * 1e9
    excess_sum = np.bincount(col[spec], weights=excess, minlength=n)
    excess_rows = np.bincount(col[spec], minlength=n)
    seen = np.zeros((len(blocks), n), dtype=bool)
    seen[snap, col] = True
    return [
        (
            s.id,
            n_rows,
            n_snaps,
            tx_power_dbm + 10.0 * np.log10(acc / n_rows) if n_rows and acc > 0 else -np.inf,
            ex_acc / ex_rows if ex_rows else np.nan,
        )
        for s, n_rows, n_snaps, acc, ex_rows, ex_acc in zip(
            scene.scatterers, *(a.tolist() for a in (count, seen.sum(axis=0), power, excess_rows, excess_sum))
        )
    ]


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    cfg = _scenario_from_args(args)
    carrier = CarrierConfig(cfg.carrier_hz)

    # the interpolation bracket spans 10 update steps of the run
    n_steps = whole_steps(cfg.duration_s, cfg.update_step_s)
    if n_steps < 10:
        raise ConfigError(
            f"bench needs a run of at least 10 update steps, got {n_steps}; raise --duration"
        )

    scene = cfg.load_scene()
    traj = cfg.trajectory()
    fractions = (0.2, 0.35, 0.5, 0.65, 0.8)
    rx_times = [f * cfg.duration_s for f in fractions]
    # the scatter stage runs whenever the scene has scatterers
    _check_antennas(cfg, scene, traj, rx_times, rx_times)
    # the interpolation bracket: a stream of 10 update steps at mid-run, one
    # keyframe at each end
    step_a = min(n_steps // 2, n_steps - 10)
    kf_interval = 10 * cfg.update_step_s
    bracket_traj = Trajectory(
        waypoints=cfg.waypoints.copy(), speed=cfg.speed_mps, duration=(step_a + 10) * cfg.update_step_s
    )
    _check_stream(cfg, scene, bracket_traj, kf_interval, step_a)
    out = _out_dir(args, "bench")
    rows = []

    def add_row(stage: str, repeat: int, units: int, seconds: float) -> None:
        """One ``bench.csv`` row, its columns in order."""
        rows.append((stage, repeat, units, seconds, seconds / units * 1e3))

    def timed(stage: str, units: int, work) -> None:
        """One ``stage`` row per repeat, timing ``work()``."""
        for rep in range(args.repeats):
            t0 = time.perf_counter()
            work()
            add_row(stage, rep, units, time.perf_counter() - t0)

    timed("scene_load", 1, cfg.load_scene)

    rx_list = traj.position(rx_times)
    for rep in range(args.repeats):
        # a fresh tracer builds its scene's and its transmitter's tables, once
        # per stream; the solve's stages are the tracer's own timers over the
        # one chunked solve of the five receivers
        t0 = time.perf_counter()
        tracer = SpecularTracer(scene, carrier, cfg.tx_position)
        add_row("tx_tables", rep, 1, time.perf_counter() - t0)
        t0 = time.perf_counter()
        tracer.trace(rx_list, cfg.limits)
        add_row("specular_trace", rep, len(rx_list), time.perf_counter() - t0)
        for stage in SOLVE_STAGES:
            add_row(f"{stage}_solve", rep, len(rx_list), tracer.timings[stage])

    if scene.scatterers:
        # the engine call per receiver, and the same seconds per live facet
        # term the call summed
        engine = ScatterEngine(scene, carrier, cfg.tx_position)
        for rep in range(args.repeats):
            terms = engine.counters["facet_terms"]
            t0 = time.perf_counter()
            engine.paths(rx_list)
            el = time.perf_counter() - t0
            add_row("scatter_snapshot", rep, len(rx_list), el)
            terms = engine.counters["facet_terms"] - terms
            if terms:
                add_row("facet_term", rep, terms, el)

    # the stream's own interpolation time over the bracket's 9 interior snapshots
    for rep in range(args.repeats):
        stream = _run_stream(cfg, scene, bracket_traj, kf_interval, step_a)
        add_row("interpolate_snapshot", rep, 9, stream.interpolation_seconds)

    # metrics, TV-CIR synthesis and the two large writers over the bracket's
    # snapshots: trace.csv per row, the TV-CIR per cell
    snaps = stream.snapshots
    n_rows = max(1, stream.counters["rows"])
    timed("metric_snapshot", len(snaps), lambda: metric_series(snaps, cfg.tx_power_dbm))
    timed("tvcir_snapshot", len(snaps), lambda: synthesize_tv_cir(snaps, cfg.bandwidth_hz, cfg.rolloff))
    timed("trace_csv_row", n_rows, lambda: write_trace_csv(out / "trace.csv", snaps))
    cir = synthesize_tv_cir(snaps, cfg.bandwidth_hz, cfg.rolloff)
    n_cells = len(cir.delays) * (1 + 2 * len(cir.times))
    timed("tvcir_csv_cell", n_cells, lambda: write_tvcir_csv(out / "tvcir.csv", cir))

    write_bench_csv(out / "bench.csv", rows)
    stages = {}
    for stage, *_, per_unit_ms in rows:
        stages.setdefault(stage, []).append(per_unit_ms)
    for stage, vals in stages.items():
        print(f"{stage}: {min(vals):.3g} ms best of {len(vals)}")
    print(f"outputs in {out}")
    return 0


# ----------------------------------------------------------------------
# validate-scene
# ----------------------------------------------------------------------
def cmd_validate_scene(args) -> int:
    path = scene_file(args.scene)
    scene = load_scene_file(path)
    n_wedges = scene.n_wedges
    all_xy = np.concatenate([b.footprint for b in scene.buildings]) if scene.buildings else np.zeros((0, 2))
    print(f"scene OK: {path}")
    print(f"  buildings:  {len(scene.buildings)}")
    print(f"  facades:    {scene.n_facades}")
    print(f"  wedges:     {n_wedges}")
    print(f"  scatterers: {len(scene.scatterers)}")
    if len(all_xy):
        print(
            f"  extent:     x [{all_xy[:, 0].min():g}, {all_xy[:, 0].max():g}] m, "
            f"y [{all_xy[:, 1].min():g}, {all_xy[:, 1].max():g}] m, "
            f"max height {max(b.height for b in scene.buildings):g} m"
        )
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
