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
    preset_path,
)
from .dynamics import (
    SCATTER_MODES,
    ChannelSnapshot,
    Trajectory,
    interpolate_bracket,
    keyframe_steps,
    stream_snapshots,
    track_interval,
)
from .em import CarrierConfig
from .metrics import (
    compare_streams,
    metric_series,
    power_decomposition,
    synthesize_tv_cir,
)
from .rays import SCATTERING, TAG_SCATTER
from .scatter import ScatterEngine, _inside_bounding_cylinder
from .scene import EPS_GEOM, SceneError, load_scene_file
from .specular import SpecularTracer
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
    if getattr(args, "intervals", None):
        try:
            vals = [float(v) for v in args.intervals.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--intervals must be comma-separated numbers, got {args.intervals!r}")
        if not vals:
            raise ConfigError("--intervals must name at least one interval")
        overrides["sweep_intervals_s"] = vals
    if getattr(args, "window", None):
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


def _check_antennas(cfg: ScenarioConfig, scene, solved, scattered) -> None:
    """ConfigError when an antenna position the command evaluates is invalid.

    At the ``solved`` times (seconds) the command traces exactly, the
    receiver track must lie outside every building and apart from the
    transmitter.  When the command evaluates the scatter engine, at the
    ``scattered`` times, neither antenna may lie inside a scatterer body.
    """
    traj = cfg.trajectory()
    tx = cfg.tx_position
    for t in solved:
        rx = traj.position(t)
        if scene.contains_point(rx):
            raise ConfigError(
                f"the receiver track at t = {t:g} s, {rx.tolist()}, lies inside a building of the scene"
            )
        if np.linalg.norm(rx - tx) < EPS_GEOM:
            raise ConfigError(
                f"the receiver track at t = {t:g} s, {rx.tolist()}, meets 'tx_position_m'"
            )
    if not scattered:
        return
    antennas = [("'tx_position_m'", tx)]
    antennas += [(f"the receiver track at t = {t:g} s", traj.position(t)) for t in scattered]
    for name, p in antennas:
        for cyl in scene.scatterers:
            if _inside_bounding_cylinder(cyl, p):
                raise ConfigError(f"{name}, {p.tolist()}, lies inside scatterer {cyl.id} of the scene")


def _solved_times(cfg: ScenarioConfig, kf_interval: float, start_step: int = 0, stop_s=None) -> list:
    """Times of the keyframes a stream of ``cfg`` solves (see :func:`_run_stream`)."""
    step = cfg.update_step_s
    n_steps = int(round((cfg.duration_s if stop_s is None else stop_s) / step))
    stride = max(1, int(round(kf_interval / step)))
    return [i * step for i in keyframe_steps(start_step, n_steps, stride)]


def _scattered_times(cfg: ScenarioConfig, solved: list, start_step: int = 0, stop_s=None) -> list:
    """Times at which a stream of ``cfg`` with keyframes at ``solved`` evaluates
    the scatter engine: every snapshot in ``exact`` mode, the keyframes in
    ``interpolated`` mode, none when scattering is off."""
    if cfg.scatter_mode == "exact":
        return _solved_times(cfg, cfg.update_step_s, start_step, stop_s)
    return solved if cfg.scatter_mode == "interpolated" else []


def _base_manifest(command: str, cfg: ScenarioConfig) -> dict:
    return {
        "command": command,
        "package_version": __version__,
        "config": cfg.echo(),
        "scene_sha256": file_sha256(cfg.scene_path),
        "seed": cfg.seed,
    }


def _digests(out: Path, names) -> dict:
    return {name: file_sha256(out / name) for name in names}


def _run_stream(cfg: ScenarioConfig, scene, *, kf_interval=None, start_step=0, duration=None):
    traj = cfg.trajectory()
    if duration is not None:
        traj = Trajectory(waypoints=cfg.waypoints.copy(), speed=cfg.speed_mps, duration=duration)
    return stream_snapshots(
        scene,
        traj,
        cfg.tx_position,
        CarrierConfig(cfg.carrier_hz),
        cfg.update_step_s,
        kf_interval if kf_interval is not None else cfg.kf_interval_s,
        limits=cfg.limits,
        scatter_mode=cfg.scatter_mode,
        leg_policy=cfg.leg_policy,
        seed=cfg.seed,
        start_step=start_step,
    )


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    cfg = _scenario_from_args(args)
    scene = cfg.load_scene()
    solved = _solved_times(cfg, cfg.kf_interval_s)
    _check_antennas(cfg, scene, solved, _scattered_times(cfg, solved))
    out = _out_dir(args, "run")
    t0 = time.perf_counter()
    result = _run_stream(cfg, scene)
    wall = time.perf_counter() - t0

    ids = write_trace_csv(out / "trace.csv", result.snapshots)
    timestamps = [s.timestamp for s in result.snapshots]
    series = metric_series(result.snapshots, cfg.tx_power_dbm)
    write_metrics_csv(out / "metrics.csv", timestamps, series)

    n_rows = sum(len(s.paths) for s in result.snapshots)
    manifest = _base_manifest("run", cfg)
    manifest.update(
        {
            "n_snapshots": len(result.snapshots),
            "n_path_rows": n_rows,
            "n_distinct_paths": len(ids),
            "rt_invocations": result.rt_invocations,
            "timings_s": {
                "keyframe": result.keyframe_seconds,
                "interpolation": result.interpolation_seconds,
                "scatter": result.scatter_seconds,
                "total": wall,
            },
            "outputs": _digests(out, ["trace.csv", "metrics.csv"]),
        }
    )
    write_manifest(out / "manifest.json", manifest)
    print(
        f"run: {len(result.snapshots)} snapshots, {n_rows} path rows, "
        f"{len(ids)} distinct paths, {result.rt_invocations} exact solves, "
        f"{wall:.2f} s"
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
    solved = _solved_times(cfg, cfg.update_step_s)
    _check_antennas(cfg, scene, solved, _scattered_times(cfg, solved))
    out = _out_dir(args, "sweep")

    t0 = time.perf_counter()
    reference = _run_stream(cfg, scene, kf_interval=cfg.update_step_s)
    ref_wall = time.perf_counter() - t0

    rows = []
    timing = []
    for interval in cfg.sweep_intervals_s:
        t0 = time.perf_counter()
        test = _run_stream(cfg, scene, kf_interval=interval)
        test_wall = time.perf_counter() - t0
        report = compare_streams(reference.snapshots, test.snapshots, cfg.tx_power_dbm)
        rows.append((interval, report))
        normalized = test_wall / ref_wall
        timing.append(
            (interval, ref_wall, test_wall, normalized, reference.rt_invocations, test.rt_invocations)
        )
        nrmse_vv = report.metrics["power_vv"].nrmse
        print(
            f"kf={interval:g}s: NRMSE(vv power)={nrmse_vv:.4f}, "
            f"time={test_wall:.2f}s ({normalized:.3f}x ref), "
            f"solves={test.rt_invocations}"
        )

    write_nrmse_csv(out / "nrmse.csv", rows)
    write_timing_csv(out / "timing.csv", timing)
    write_error_cdf_csv(out / "error_cdf.csv", rows)
    manifest = _base_manifest("sweep", cfg)
    manifest.update(
        {
            "intervals_s": list(cfg.sweep_intervals_s),
            "reference_rt_invocations": reference.rt_invocations,
            "reference_seconds": ref_wall,
            "nrmse_vv_by_interval": {
                "%g" % interval: report.metrics["power_vv"].nrmse for interval, report in rows
            },
            "outputs": _digests(out, ["nrmse.csv", "timing.csv", "error_cdf.csv"]),
        }
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
        if abs(round(edge / step) * step - edge) > 1e-6:
            raise ConfigError(f"window {name} {edge} must be an integer multiple of update_step_s {step}")
    start_step = int(round(w0 / step))
    solved = _solved_times(cfg, cfg.kf_interval_s, start_step, w1)
    _check_antennas(cfg, scene, solved, _scattered_times(cfg, solved, start_step, w1))

    out = _out_dir(args, "scatter-study")
    t0 = time.perf_counter()
    result = _run_stream(cfg, scene, start_step=start_step, duration=w1)
    wall = time.perf_counter() - t0

    cir_total = synthesize_tv_cir(result.snapshots, cfg.bandwidth_hz, cfg.rolloff, "vv")
    scatter_snaps = [
        replace(s, paths=[p for p in s.paths if p.tag == TAG_SCATTER]) for s in result.snapshots
    ]
    cir_scatter = synthesize_tv_cir(
        scatter_snaps, cfg.bandwidth_hz, cfg.rolloff, "vv", delay_grid=cir_total.delays
    )
    decomp = power_decomposition(result.snapshots, "vv", cfg.tx_power_dbm)

    summary = _scatter_summary(scene, result.snapshots, cfg.tx_power_dbm)

    write_tvcir_csv(out / "tvcir_total.csv", cir_total)
    write_tvcir_csv(out / "tvcir_scatter.csv", cir_scatter)
    write_power_split_csv(out / "power_split.csv", decomp)
    write_scatter_summary_csv(out / "scatter_summary.csv", summary)

    manifest = _base_manifest("scatter-study", cfg)
    manifest.update(
        {
            "window_s": [w0, w1],
            "n_snapshots": len(result.snapshots),
            "rt_invocations": result.rt_invocations,
            "specular_fraction": decomp.specular_fraction,
            "scattered_fraction": decomp.scattered_fraction,
            "wall_seconds": wall,
            "outputs": _digests(
                out,
                [
                    "tvcir_total.csv",
                    "tvcir_scatter.csv",
                    "power_split.csv",
                    "scatter_summary.csv",
                ],
            ),
        }
    )
    write_manifest(out / "manifest.json", manifest)
    print(
        f"scatter-study: window [{w0:g}, {w1:g}] s, {len(result.snapshots)} snapshots, "
        f"scattered power fraction {decomp.scattered_fraction:.3e}"
    )
    print(f"outputs in {out}")
    return 0


def _scatter_summary(scene, snapshots, tx_power_dbm: float) -> list[dict]:
    by_id: dict[int, dict] = {
        s.id: {"rows": 0, "snaps": 0, "power_acc": 0.0, "excess_acc": 0.0}
        for s in scene.scatterers
    }
    for snap in snapshots:
        spec_delays = [p.delay_s for p in snap.paths if p.tag != TAG_SCATTER]
        base = min(spec_delays) if spec_delays else None
        seen: set[int] = set()
        for p in snap.paths:
            if p.tag != TAG_SCATTER:
                continue
            sid = next(
                (rec.object_id for rec in p.interactions if rec.kind == SCATTERING), None
            )
            if sid is None or sid not in by_id:
                continue
            acc = by_id[sid]
            acc["rows"] += 1
            acc["power_acc"] += p.power
            if base is not None:
                acc["excess_acc"] += (p.delay_s - base) * 1e9
            seen.add(sid)
        for sid in seen:
            by_id[sid]["snaps"] += 1
    rows = []
    for s in scene.scatterers:
        acc = by_id[s.id]
        n = acc["rows"]
        if n and acc["power_acc"] > 0:
            mean_dbm = tx_power_dbm + 10.0 * np.log10(acc["power_acc"] / n)
        else:
            mean_dbm = -np.inf
        rows.append(
            {
                "scatterer_id": s.id,
                "n_path_rows": n,
                "n_snapshots_visible": acc["snaps"],
                "mean_power_dbm": mean_dbm,
                "mean_excess_delay_ns": acc["excess_acc"] / n if n else np.nan,
            }
        )
    return rows


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    cfg = _scenario_from_args(args)
    carrier = CarrierConfig(cfg.carrier_hz)

    # the interpolation bracket spans 10 update steps of the run
    n_steps = round(cfg.duration_s / cfg.update_step_s)
    if n_steps < 10:
        raise ConfigError(
            f"bench needs a run of at least 10 update steps, got {n_steps}; raise --duration"
        )

    t0 = time.perf_counter()
    scene = cfg.load_scene()
    el = time.perf_counter() - t0

    traj = cfg.trajectory()
    fractions = (0.2, 0.35, 0.5, 0.65, 0.8)
    rx_times = [f * cfg.duration_s for f in fractions]
    # the interpolation bracket: 10 update steps at mid-run, on the step clock
    step_a = min(n_steps // 2, n_steps - 10)
    kf_steps = (step_a, step_a + 10)
    # the scatter stage runs whenever the scene has scatterers
    _check_antennas(cfg, scene, rx_times + [i * cfg.update_step_s for i in kf_steps], rx_times)
    out = _out_dir(args, "bench")
    rows = []

    def add_row(stage: str, repeat: int, units: int, seconds: float) -> None:
        rows.append(
            {
                "stage": stage,
                "repeat": repeat,
                "units": units,
                "seconds": seconds,
                "per_unit_ms": seconds / units * 1e3,
            }
        )

    add_row("scene_load", 0, 1, el)

    rx_list = [traj.position(t) for t in rx_times]
    tracer = SpecularTracer(scene, carrier)
    tracer.trace(cfg.tx_position, rx_list[0], cfg.limits)  # warm the tables

    for rep in range(args.repeats):
        t0 = time.perf_counter()
        for rx in rx_list:
            tracer.trace(cfg.tx_position, rx, cfg.limits)
        add_row("specular_trace", rep, len(rx_list), time.perf_counter() - t0)

    if scene.scatterers:
        engine = ScatterEngine(scene, carrier, leg_policy=cfg.leg_policy)
        engine.paths(cfg.tx_position, rx_list[0])  # warm the incident cache
        for rep in range(args.repeats):
            t0 = time.perf_counter()
            for rx in rx_list:
                engine.paths(cfg.tx_position, rx)
            add_row("scatter_snapshot", rep, len(rx_list), time.perf_counter() - t0)

    # interpolation microbench across the bracket
    kfs = []
    for i in kf_steps:
        t = i * cfg.update_step_s
        rx = traj.position(t)
        paths = tracer.trace(cfg.tx_position, rx, cfg.limits)
        kfs.append(ChannelSnapshot(i, t, rx, paths, at_keyframe=True))
    bracket = track_interval(kfs[0], kfs[1], np.random.default_rng(cfg.seed))
    steps = range(step_a + 1, step_a + 10)
    times = [i * cfg.update_step_s for i in steps]
    for rep in range(args.repeats):
        t0 = time.perf_counter()
        rx = [traj.position(t) for t in times]
        v = [traj.velocity(t) for t in times]
        interior = interpolate_bracket(bracket, times, rx, v, carrier)
        add_row("interpolate_snapshot", rep, len(times), time.perf_counter() - t0)

    # TV-CIR synthesis and the trace writer over the bracket's snapshots
    snaps = [
        kfs[0],
        *(ChannelSnapshot(*row, at_keyframe=False) for row in zip(steps, times, rx, interior)),
        kfs[1],
    ]
    n_rows = max(1, sum(len(s.paths) for s in snaps))
    for rep in range(args.repeats):
        t0 = time.perf_counter()
        synthesize_tv_cir(snaps, cfg.bandwidth_hz, cfg.rolloff, "vv")
        add_row("tvcir_snapshot", rep, len(snaps), time.perf_counter() - t0)
    for rep in range(args.repeats):
        t0 = time.perf_counter()
        write_trace_csv(out / "trace.csv", snaps)
        add_row("trace_csv_row", rep, n_rows, time.perf_counter() - t0)

    write_bench_csv(out / "bench.csv", rows)
    stages = {}
    for r in rows:
        stages.setdefault(r["stage"], []).append(r["per_unit_ms"])
    for stage, vals in stages.items():
        print(f"{stage}: {min(vals):.2f} ms best of {len(vals)}")
    print(f"outputs in {out}")
    return 0


# ----------------------------------------------------------------------
# validate-scene
# ----------------------------------------------------------------------
def cmd_validate_scene(args) -> int:
    spec = args.scene
    if spec.endswith(".json"):
        path = Path(spec)
        if not path.is_file():
            raise ConfigError(f"scene file not found: {path}")
    else:
        path = preset_path(spec, "scene")
    scene = load_scene_file(path)
    n_wedges = len(scene.wedges())
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
