"""End-to-end tests of the command-line front end.

Each scenario here uses short duration overrides so the whole module stays
fast; physical accuracy is covered by the solver and acceptance tests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from path_oracle import Interaction, RayPath, rows_of

import railchan
import railchan.cli
import railchan.metrics
import railchan.specular
from railchan.cli import _scatter_summary, main
from railchan.config import DEFAULT_PRESET, ConfigError, load_preset, preset_path
from railchan.dynamics import ChannelSnapshot
from railchan.rays import SCATTERING, TAG_SCATTER, TAG_SPECULAR
from railchan.scatter import ScatterEngine
from railchan.scene import CylinderScatterer, Scene
from railchan.specular import SpecularTracer


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


# ----------------------------------------------------------------------
# preset contents
# ----------------------------------------------------------------------
def test_preset_matches_published_scenario():
    cfg = load_preset()
    assert cfg.carrier_hz == pytest.approx(1.9e9)
    assert cfg.tx_position[2] == pytest.approx(20.5)
    assert abs(cfg.tx_position[1]) == pytest.approx(20.0)
    assert cfg.speed_mps == pytest.approx(100.0 / 3.6)
    assert cfg.waypoints[0][2] == pytest.approx(4.5)  # receiver height on the track
    assert cfg.tx_power_dbm == pytest.approx(43.0)
    assert cfg.limits.max_reflections == 2
    assert cfg.limits.max_vertical_diffractions == 1
    assert cfg.limits.rooftop is True
    assert cfg.update_step_s == pytest.approx(0.01)
    assert cfg.duration_s == pytest.approx(60.0)

    scene = cfg.load_scene()
    assert scene.scatterers, "the bundled scene carries catenary pylons"
    for s in scene.scatterers:
        assert s.radius == pytest.approx(0.375)
        assert s.height == pytest.approx(8.2)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _run_args(out):
    return [
        "run",
        "--duration",
        "0.4",
        "--kf-interval",
        "0.1",
        "--output-dir",
        str(out),
    ]


def test_run_produces_trace_metrics_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(out)) == 0
    assert (out / "trace.csv").is_file()
    assert (out / "metrics.csv").is_file()
    assert (out / "manifest.json").is_file()

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["n_snapshots"] == 41
    assert manifest["rt_invocations"] == 5  # keyframes at 0, .1, .2, .3, .4

    rows = _read_csv(out / "trace.csv")
    assert len(rows) == manifest["n_path_rows"]
    stamps = sorted({float(r["timestamp_s"]) for r in rows})
    assert len(stamps) == 41
    assert stamps[0] == 0.0 and stamps[-1] == pytest.approx(0.4)

    mrows = _read_csv(out / "metrics.csv")
    assert len(mrows) == 41
    assert "power_vv" in mrows[0]

    banner = capsys.readouterr().out
    assert "41 snapshots" in banner


def test_run_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(_run_args(out_a)) == 0
    assert main(_run_args(out_b)) == 0
    assert _sha(out_a / "trace.csv") == _sha(out_b / "trace.csv")
    assert _sha(out_a / "metrics.csv") == _sha(out_b / "metrics.csv")


def test_run_manifest_counters_repeat_and_outputs_carry_no_timing(tmp_path):
    # run, scatter-study and sweep report their streams alike, sweep its
    # reference stream, which solves all 41 steps; each command runs twice
    window = ["scatter-study", "--kf-interval", "0.5", "--window", "20.5:21.0"]
    sweep = ["sweep", "--duration", "0.4", "--intervals", "0.2", "--scatter", "off"]
    commands = {
        "run": (_run_args, 5),
        "scatter-study": (lambda out: window + ["--output-dir", str(out)], 2),
        "sweep": (lambda out: sweep + ["--output-dir", str(out)], 41),
    }
    rss_stages = {
        "run": ["stream", "trace.csv", "metrics", "metrics.csv"],
        "scatter-study": [
            "stream",
            "tvcir",
            "power_split",
            "tvcir_total.csv",
            "tvcir_scatter.csv",
            "power_split.csv",
            "scatter_summary.csv",
        ],
        "sweep": ["stream", "metrics", "sweep", "nrmse.csv", "timing.csv", "error_cdf.csv"],
    }
    manifests_by_command = {}
    for command, (argv, solves) in commands.items():
        manifests = []
        for name in ("a", "b"):
            assert main(argv(tmp_path / command / name)) == 0
            manifests.append(json.loads((tmp_path / command / name / "manifest.json").read_text()))
        a, b = manifests
        manifests_by_command[command] = a
        assert a["command"] == command
        # the counters are deterministic and kept apart from the timings and
        # the peak RSS; the digested outputs repeat although the timings of
        # the two runs differ, all but sweep's timing.csv, which holds them
        assert a["counters"] == b["counters"], command
        repeated = set(a["outputs"]) - {"timing.csv"}
        assert {k: a["outputs"][k] for k in repeated} == {k: b["outputs"][k] for k in repeated}, command
        assert set(a["timings_s"]) == {"keyframe", "interpolation", "scatter", "total"}, command
        assert a["peak_rss_mb"] > 0.0, command
        counters = a["counters"]
        assert counters["exact_solves"] == a["rt_invocations"] == solves, command
        families = counters["families"]
        assert list(families) == sorted(["LoS", "R", "RR", "D", "RD", "DR", "K"])
        for name, c in families.items():
            assert all(isinstance(v, int) for v in c.values()), name
            assert c["generated"] >= c["clear"] >= c["kept"] >= 0, name
        assert families["LoS"]["generated"] == solves, command
        # K counts the rooftop polylines built, and each is clear
        assert families["K"]["generated"] == families["K"]["clear"], command
        # at most three occlusion rounds, each testing fewer segments
        rounds = counters["occlusion_segments"]
        assert 1 <= len(rounds) <= 3 and all(isinstance(n, int) for n in rounds)
        assert rounds == sorted(rounds, reverse=True)
        # the stream's brackets and rows: run and scatter-study track paths
        # across brackets, sweep's reference solves every step
        assert all(isinstance(counters[k], int) for k in ("matched", "births", "deaths", "rows")), command
        assert (counters["matched"] > 0) == (command != "sweep"), command
        assert counters["rows"] >= counters["matched"], command
        if command == "run":
            assert counters["rows"] == a["n_path_rows"]
        # the scatter engine's counters: exact scatter at every snapshot of
        # run and scatter-study, one leg per pylon for the transmitter and
        # per pylon and snapshot; sweep here runs with scatter off
        # the RSS high-water mark after each stage, apart from the counters:
        # it never falls, and the manifest's peak is read last
        stages, values = zip(*a["rss_mb_after"])
        assert list(stages) == rss_stages[command], command
        values = list(values)
        assert 0.0 < values[0] and values == sorted(values) and values[-1] <= a["peak_rss_mb"], command
        scatter = counters["scatter"]
        assert set(scatter) == {"snapshots", "legs_tested", "echoes", "facet_terms"}, command
        assert all(isinstance(v, int) for v in scatter.values()), command
        if command == "sweep":
            assert set(scatter.values()) == {0}
            continue
        assert scatter["snapshots"] == a["n_snapshots"], command
        pylons = len(load_preset().load_scene().scatterers)
        assert scatter["legs_tested"] == pylons * (1 + a["n_snapshots"]), command
        assert 0 < scatter["echoes"] <= pylons * a["n_snapshots"] < scatter["facet_terms"], command
    # every echo is one scatter row of the study's summary
    summary = _read_csv(tmp_path / "scatter-study" / "a" / "scatter_summary.csv")
    scatter_rows = sum(int(r["n_path_rows"]) for r in summary)
    assert scatter_rows == manifests_by_command["scatter-study"]["counters"]["scatter"]["echoes"]


def test_intervals_within_the_step_rule_run_at_their_whole_stride(tmp_path):
    # 5.000000003 s is 100 update steps of 0.05 s under the relative 1e-9
    # rule that the config check applies; the stream applies the same rule,
    # so the run takes the stride of --kf-interval 5, byte for byte
    odd, whole, sweep = tmp_path / "odd", tmp_path / "whole", tmp_path / "sweep"
    run = ["run", "--duration", "10", "--update-step", "0.05", "--scatter", "off"]
    assert main(run + ["--kf-interval", "5.000000003", "--output-dir", str(odd)]) == 0
    assert main(run + ["--kf-interval", "5", "--output-dir", str(whole)]) == 0
    for name in ("trace.csv", "metrics.csv"):
        assert (odd / name).read_bytes() == (whole / name).read_bytes()
    argv = ["sweep", "--duration", "1.0", "--update-step", "0.05", "--kf-interval", "0.05"]
    argv += ["--intervals", "5.000000003", "--scatter", "off", "--output-dir", str(sweep)]
    assert main(argv) == 0
    names = {"nrmse.csv", "timing.csv", "error_cdf.csv", "manifest.json"}
    assert names <= {p.name for p in sweep.iterdir()}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--duration", "1.0", "--kf-interval", "0.5", "--scatter", "exact"],
        ["run", "--duration", "1.0", "--kf-interval", "0.5", "--scatter", "interpolated"],
        ["scatter-study", "--kf-interval", "0.5", "--window", "20.5:21.0"],
    ],
    ids=["run_exact", "run_interpolated", "scatter_study_window"],
)
def test_streams_evaluate_exactly_where_the_antenna_check_looked(tmp_path, monkeypatch, argv):
    # the receiver positions the tracer and the scatter engine are given are
    # those of the times the pre-check validated, in order: the keyframes,
    # and every snapshot (exact) or the keyframes (interpolated); the engine
    # takes its receivers in batches, and every row of each batch counts
    checked, traced, scattered = [], [], []
    check = railchan.cli._check_antennas

    def spy_check(*args):
        checked.append(args[-2:])
        return check(*args)

    def spy(method, seen):
        def wrapper(self, rx, *rest):
            rows = np.array(rx)
            seen.extend(rows if rows.ndim == 2 else [rows])
            return method(self, rx, *rest)

        return wrapper

    monkeypatch.setattr(railchan.cli, "_check_antennas", spy_check)
    monkeypatch.setattr(SpecularTracer, "trace", spy(SpecularTracer.trace, traced))
    monkeypatch.setattr(ScatterEngine, "paths", spy(ScatterEngine.paths, scattered))
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 0

    ((solved_s, scattered_s),) = checked
    traj = load_preset().trajectory()
    for seen, times in ((traced, solved_s), (scattered, scattered_s)):
        assert len(seen) == len(times) > 0
        np.testing.assert_array_equal(seen, [traj.position(t) for t in times])


def test_longer_kf_interval_means_fewer_exact_solves(tmp_path):
    out_fine = tmp_path / "fine"
    out_coarse = tmp_path / "coarse"
    assert main(["run", "--duration", "0.4", "--kf-interval", "0.01", "--output-dir", str(out_fine)]) == 0
    assert main(["run", "--duration", "0.4", "--kf-interval", "0.2", "--output-dir", str(out_coarse)]) == 0
    fine = json.loads((out_fine / "manifest.json").read_text())
    coarse = json.loads((out_coarse / "manifest.json").read_text())
    assert fine["rt_invocations"] == 41
    assert coarse["rt_invocations"] == 3
    assert coarse["rt_invocations"] < fine["rt_invocations"]


# ----------------------------------------------------------------------
# error handling
# ----------------------------------------------------------------------
def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.config.json"
    assert main(["run", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.config.json"
    bad.write_text('{"version": 1, "bogus_key": 3}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("scene", "urban_canyon"), ("carrier_hz", 2.4e9)])
def test_fixed_key_cannot_be_overridden(key, value):
    # only the keys a command-line option sets may be overridden; the scene
    # and the carrier come from the scenario file alone
    with pytest.raises(ConfigError, match=f"key '{key}' cannot be overridden"):
        load_preset(overrides={key: value})


def test_missing_scene_file_exits_2(tmp_path, capsys):
    assert main(["validate-scene", str(tmp_path / "gone.json")]) == 2
    err = capsys.readouterr().err
    assert "gone.json" in err


def test_bad_window_format_exits_2(capsys):
    assert main(["scatter-study", "--window", "18.5"]) == 2
    assert "START:STOP" in capsys.readouterr().err


def test_window_outside_run_exits_2(capsys):
    assert main(["scatter-study", "--duration", "10.0", "--window", "18.5:23.9"]) == 2
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scatter-study", "--kf-interval", "0.5", "--window", "20.5:20.605"], "window stop"),
        (["run", "--config", "tx_inside.json", "--duration", "0.05"], "inside a building"),
        (["sweep", "--config", "tx_inside.json", "--duration", "0.05"], "inside a building"),
        (["scatter-study", "--config", "tx_inside.json"], "inside a building"),
        (["bench", "--config", "tx_inside.json", "--duration", "0.5"], "inside a building"),
        (["sweep", "--duration", "0.05", "--intervals", "", "--scatter", "off"], "at least one interval"),
        (["sweep", "--duration", "0.05", "--intervals", "0.05,,0.1", "--scatter", "off"], "comma-separated"),
        (["scatter-study", "--window", ""], "START:STOP"),
    ],
    ids=[
        "window_stop_off_step",
        "run_tx_inside",
        "sweep_tx_inside",
        "scatter_study_tx_inside",
        "bench_tx_inside",
        "sweep_empty_intervals",
        "sweep_empty_interval_entry",
        "scatter_study_empty_window",
    ],
)
def test_bad_inputs_exit_2_before_output(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    raw["tx_position_m"] = [30.0, 18.0, 5.0]  # inside building 0 of the preset scene
    (tmp_path / "tx_inside.json").write_text(json.dumps(raw))
    assert main(argv + ["--output-dir", "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, first",
    [
        (["run", "--duration", "0.05"], "t = 0.01 s, [0.2777777777777778, 18.0, 5.0]"),
        (["run", "--duration", "1.0", "--kf-interval", "0.5"], "t = 0.5 s, [13.88888888888889, 18.0, 5.0]"),
        (["sweep", "--duration", "0.05"], "t = 0.01 s, [0.2777777777777778, 18.0, 5.0]"),
        (["scatter-study", "--kf-interval", "0.5", "--window", "0.0:0.5"], "t = 0.5 s, [13.88888888888889, 18.0, 5.0]"),
        (["bench", "--duration", "0.5"], "t = 0.1 s, [2.777777777777778, 18.0, 5.0]"),
    ],
    ids=["run", "run_kf_0.5", "sweep", "scatter_study", "bench"],
)
def test_receiver_inside_building_exits_2_before_output(tmp_path, monkeypatch, capsys, argv, first):
    # the track runs along y = 18 m, through building 0 (x 0-60 m, y 8-28 m,
    # 12 m high); at t = 0 the receiver is on its wall, not inside, so the
    # message names the first time the command solves after it
    monkeypatch.chdir(tmp_path)
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    raw["trajectory"]["waypoints_m"] = [[0.0, 18.0, 5.0], [1666.7, 18.0, 5.0]]
    (tmp_path / "rx_inside.json").write_text(json.dumps(raw))
    assert main(argv + ["--config", "rx_inside.json", "--output-dir", "out"]) == 2
    assert capsys.readouterr().err == f"error: the receiver track at {first}, lies inside a building of the scene\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value, argv, message",
    [
        (
            "tx_position_m",
            [833.33, 20.0, -3.0],
            ["run", "--duration", "0.1"],
            "'tx_position_m' [833.33, 20.0, -3.0] lies below the ground",
        ),
        (
            "waypoints_m",
            [[0.0, 0.0, -1.0], [1666.7, 0.0, -1.0]],
            ["run", "--duration", "0.1"],
            "'trajectory.waypoints_m'[0] [0.0, 0.0, -1.0] lies below the ground",
        ),
        (
            "waypoints_m",
            [[0.0, -5.0, 4.5], [1666.7, -5.0, 4.5]],
            ["scatter-study", "--kf-interval", "0.5", "--window", "20.5:21.0"],
            "the receiver track at t = 20.69 s, [574.7222222222223, -5.0, 4.5], lies inside scatterer 303",
        ),
        (
            "tx_position_m",
            [515.0, -5.0, 4.0],
            ["run", "--duration", "0.1"],
            "'tx_position_m', [515.0, -5.0, 4.0], lies inside scatterer 301",
        ),
        ("tx_position_m", [0.0, 0.0, 4.5], ["run", "--duration", "0.1"], "meets 'tx_position_m'"),
    ],
    ids=["tx_underground", "track_underground", "rx_through_pylon", "tx_in_pylon", "tx_on_track"],
)
def test_bad_antenna_positions_exit_2_before_output(tmp_path, capsys, field, value, argv, message):
    # the preset pylons stand at y = -5 m, x = 515, 545, ..., 665 m; the
    # preset track starts at (0, 0, 4.5)
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    if field == "tx_position_m":
        raw["tx_position_m"] = value
    else:
        raw["trajectory"]["waypoints_m"] = value
    cfg = tmp_path / "antenna.config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_output_dir_naming_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["run", "--duration", "0.05", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "output directory" in err and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_duration_beyond_track_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    # the preset track takes 60.0012 s at 100 km/h
    assert main(["run", "--duration", "61", "--output-dir", str(out)]) == 2
    assert "traverse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "limits",
    [
        {"max_reflections": 3},
        {"max_vertical_diffractions": 2},
        {"power_floor_db": 0.0},
        {"max_reflections": True},  # passes TraceLimits' range check, since True == 1
    ],
)
def test_out_of_range_limits_exit_2(tmp_path, capsys, limits):
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    raw["limits"].update(limits)
    cfg = tmp_path / "limits.config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--duration", "0.1", "--output-dir", str(out)]) == 2
    assert "limits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--duration", "nan"],
        ["run", "--update-step", "nan"],
        ["run", "--kf-interval", "nan"],
        ["run", "--kf-interval", "inf"],
        ["sweep", "--intervals", "nan"],
        ["sweep", "--intervals", "inf"],
        ["run", "--config", "carrier_1e999.json"],
        ["scatter-study", "--window", "20.5:inf"],
        ["scatter-study", "--config", "window_1e999.json"],
    ],
    ids=" ".join,
)
def test_non_finite_numbers_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    # JSON reads the literal 1e999 as an infinite float
    text = preset_path(DEFAULT_PRESET, "config").read_text()
    for finite, infinite, name in (
        ('"carrier_hz": 1.9e9', '"carrier_hz": 1e999', "carrier_1e999.json"),
        ('"scatter_window_s": [18.5, 23.9]', '"scatter_window_s": [18.5, 1e999]', "window_1e999.json"),
    ):
        assert finite in text
        (tmp_path / name).write_text(text.replace(finite, infinite))
    assert main(argv + ["--output-dir", "out"]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, "a", None, True], ids=["NaN", "Infinity", "text", "null", "true"]
)
@pytest.mark.parametrize("field", ["tx_position_m", "waypoints_m"])
def test_non_finite_positions_exit_2(tmp_path, capsys, field, value):
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    if field == "tx_position_m":
        raw["tx_position_m"][0] = value
    else:
        raw["trajectory"]["waypoints_m"][1][1] = value
    cfg = tmp_path / "positions.config.json"
    cfg.write_text(json.dumps(raw))  # writes the JSON literals NaN / Infinity
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--duration", "0.1", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "path, value",
    [
        (("buildings", 0, "id"), "x"),
        (("buildings", 0, "height"), "tall"),
        (("buildings", 0, "height"), math.nan),
        (("buildings", 0, "footprint", 1), ["a", 1]),
        (("buildings", 0, "footprint", 1), [60.0, 8.0, 0.0]),
        (("scatterers", 0, "id"), 1.5),
        (("scatterers", 0, "base"), [1, 2]),
        (("scatterers", 0, "radius"), math.inf),
        (("scatterers", 0, "height"), "tall"),
        (("materials", "concrete", "eps_r"), math.nan),
        (("materials", "concrete", "sigma"), "wet"),
        (("materials", "metal", "pec"), "no"),
    ],
    ids=[
        "building_id_text",
        "building_height_text",
        "building_height_NaN",
        "footprint_text",
        "footprint_triple",
        "scatterer_id_float",
        "scatterer_base_pair",
        "scatterer_radius_Infinity",
        "scatterer_height_text",
        "eps_r_NaN",
        "sigma_text",
        "pec_text",
    ],
)
def test_bad_scene_numbers_exit_2(tmp_path, capsys, path, value):
    raw = json.loads(preset_path(DEFAULT_PRESET, "scene").read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    assert path[-1] in node if isinstance(node, dict) else path[-1] < len(node)
    node[path[-1]] = value
    (tmp_path / "bad.scene.json").write_text(json.dumps(raw))
    cfg = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    cfg["scene"] = "bad.scene.json"
    (tmp_path / "bad.config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["run", "--config", str(tmp_path / "bad.config.json"), "--duration", "0.05", "--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    field = [key for key in path if isinstance(key, str)][-1]
    assert path[0] in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "validate-scene"])
def test_lossy_scatterer_exits_2_before_output(tmp_path, capsys, command):
    raw = json.loads(preset_path(DEFAULT_PRESET, "scene").read_text())
    pylon = raw["scatterers"][2]
    pylon["material"] = "concrete"
    (tmp_path / "lossy.scene.json").write_text(json.dumps(raw))
    cfg = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    cfg["scene"] = "lossy.scene.json"
    (tmp_path / "lossy.config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(tmp_path / "lossy.config.json"), "--duration", "0.05", "--output-dir", str(out)]
    else:
        argv = ["validate-scene", str(tmp_path / "lossy.scene.json")]
    assert main(argv) == 2
    assert f"scatterer {pylon['id']} must be a perfect conductor" in capsys.readouterr().err
    assert not out.exists()


def test_ground_material_key_exits_2(tmp_path, capsys):
    # the ground is an occluder only: no path reflects off it, so a scene
    # file cannot give it a material
    raw = json.loads(preset_path(DEFAULT_PRESET, "scene").read_text())
    raw["ground_material"] = "concrete"
    (tmp_path / "ground.scene.json").write_text(json.dumps(raw))
    assert main(["validate-scene", str(tmp_path / "ground.scene.json")]) == 2
    assert "unknown top-level scene keys ['ground_material']" in capsys.readouterr().err


def test_leg_policy_key_exits_2(tmp_path, capsys):
    # a scatterer echo runs straight between the antennas: the legs to it
    # cannot reflect, so a scenario cannot choose a leg policy
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    raw["leg_policy"] = "direct-only"
    (tmp_path / "legs.config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = ["run", "--config", str(tmp_path / "legs.config.json"), "--duration", "0.05", "--output-dir", str(out)]
    assert main(argv) == 2
    assert "unknown key 'leg_policy'" in capsys.readouterr().err
    assert not out.exists()


def test_scene_section_of_the_wrong_type_exits_2(tmp_path, capsys):
    (tmp_path / "bad.scene.json").write_text(json.dumps({"version": 1, "buildings": 5}))
    assert main(["validate-scene", str(tmp_path / "bad.scene.json")]) == 2
    assert "buildings must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate-scene"])
def test_file_that_is_not_utf8_exits_2_before_output(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(bad), "--duration", "0.05", "--output-dir", str(out)]
    else:
        argv = ["validate-scene", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8 text" in err
    assert not out.exists()


def test_validate_scene_preset_ok(capsys):
    assert main(["validate-scene", "urban_canyon"]) == 0
    out = capsys.readouterr().out
    assert "buildings:" in out and "scatterers:" in out


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def test_sweep_outputs(tmp_path, monkeypatch):
    # the reference's series are computed once, not once per interval
    series_of = []
    for module in (railchan.cli, railchan.metrics):
        real = module.metric_series

        def spy(snapshots, tx_power_dbm=0.0, real=real):
            series_of.append(len(snapshots))
            return real(snapshots, tx_power_dbm)

        monkeypatch.setattr(module, "metric_series", spy)
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--duration",
            "0.4",
            "--intervals",
            "0.1,0.2",
            "--output-dir",
            str(out),
        ]
    )
    assert rc == 0
    nrmse = _read_csv(out / "nrmse.csv")
    intervals = sorted({float(r["kf_interval_s"]) for r in nrmse})
    assert intervals == [pytest.approx(0.1), pytest.approx(0.2)]
    assert {"rmse", "nrmse", "q10", "q90"} <= set(nrmse[0])

    timing = _read_csv(out / "timing.csv")
    assert len(timing) == 2
    for row in timing:
        assert float(row["normalized_compute_time"]) > 0
        assert int(row["rt_invocations_test"]) < int(row["rt_invocations_reference"])

    cdf = _read_csv(out / "error_cdf.csv")
    assert {"quantile_pct", "abs_error"} <= set(cdf[0])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["intervals_s"] == [0.1, 0.2]
    assert series_of == [41, 41, 41]  # the reference, then each interval's stream


# ----------------------------------------------------------------------
# scatter-study
# ----------------------------------------------------------------------
def test_scatter_study_outputs(tmp_path):
    out = tmp_path / "sc"
    rc = main(
        [
            "scatter-study",
            "--duration",
            "24.0",
            "--window",
            "19.0:19.3",
            "--output-dir",
            str(out),
        ]
    )
    assert rc == 0
    for name in (
        "tvcir_total.csv",
        "tvcir_scatter.csv",
        "power_split.csv",
        "scatter_summary.csv",
        "manifest.json",
    ):
        assert (out / name).is_file(), name

    with open(out / "tvcir_total.csv", newline="") as fh:
        total = list(csv.reader(fh))
    with open(out / "tvcir_scatter.csv", newline="") as fh:
        scat = list(csv.reader(fh))
    # identical delay grid so the two surfaces can be compared bin by bin
    assert [r[0] for r in total] == [r[0] for r in scat]

    split = _read_csv(out / "power_split.csv")
    assert len(split) == 31  # 0.3 s window at 10 ms steps, inclusive ends
    assert all(float(r["total_dbm"]) > -200.0 for r in split)

    summary = _read_csv(out / "scatter_summary.csv")
    assert len(summary) == 6  # one row per pylon in the bundled scene
    visible = [r for r in summary if int(r["n_path_rows"]) > 0]
    assert visible, "at least one pylon contributes inside the window"
    for r in visible:
        assert float(r["mean_excess_delay_ns"]) > 0.0


def test_scatter_summary_excess_delay_over_rows_with_a_specular_path():
    # a specular path at 100 ns and a pylon echo at 150 ns: 50 ns excess; a
    # second snapshot holding only the echo has no reference and adds nothing
    scene = Scene(
        buildings=[],
        scatterers=[CylinderScatterer(id=7, base_center=np.zeros(3), radius=0.375, height=8.2)],
    )
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    t = np.eye(2, dtype=complex)

    def path(delay, tag, inters=()):
        return RayPath(inters, verts, delay, (0.0, 0.0), (0.0, 0.0), t, tag)

    spec = path(100e-9, TAG_SPECULAR)
    echo = path(150e-9, TAG_SCATTER, (Interaction(SCATTERING, 7, 0),))
    one = [ChannelSnapshot(0.0, rows_of([spec, echo]))]
    two = one + [ChannelSnapshot(0.01, rows_of([echo]))]
    for snaps in (one, two):
        (row,) = _scatter_summary(scene, snaps, 0.0)
        assert row["mean_excess_delay_ns"] == pytest.approx(50.0, rel=1e-12)
    (row,) = _scatter_summary(scene, two[1:], 0.0)
    assert row["n_path_rows"] == 1 and math.isnan(row["mean_excess_delay_ns"])


def test_scatter_study_requires_scatter_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["scatter-study", "--duration", "24.0", "--scatter", "off"])
    assert rc == 2
    assert "scatter" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no output directory for a rejected config


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def test_bench_outputs(tmp_path, monkeypatch):
    solves = []
    original = railchan.specular.SpecularTracer.trace

    def spy(self, receivers, *rest):
        solves.append(len(receivers))
        return original(self, receivers, *rest)

    monkeypatch.setattr(railchan.specular.SpecularTracer, "trace", spy)
    out = tmp_path / "bench"
    rc = main(["bench", "--repeats", "2", "--output-dir", str(out)])
    assert rc == 0
    # per repeat, the trace stage's one chunked solve of five receivers;
    # then per repeat the bracket stream solves its two keyframes in one
    # chunk
    assert solves == [5, 5, 2, 2]
    rows = _read_csv(out / "bench.csv")
    assert list(rows[0]) == ["stage", "repeat", "units", "seconds", "per_unit_ms"]
    stages = {r["stage"] for r in rows}
    assert {
        "scene_load",
        "tx_tables",
        "specular_trace",
        "candidate_solve",
        "occlusion_solve",
        "compose_solve",
        "rooftop_solve",
        "scatter_snapshot",
        "facet_term",
        "interpolate_snapshot",
        "metric_snapshot",
        "tvcir_snapshot",
        "trace_csv_row",
        "tvcir_csv_cell",
    } <= stages
    for stage in (
        "scene_load",
        "tx_tables",
        "specular_trace",
        "candidate_solve",
        "occlusion_solve",
        "compose_solve",
        "rooftop_solve",
        "metric_snapshot",
        "tvcir_snapshot",
        "trace_csv_row",
        "tvcir_csv_cell",
    ):
        timed = [r for r in rows if r["stage"] == stage]
        assert len(timed) == 2
        for r in timed:
            assert float(r["per_unit_ms"]) > 0
    # the candidate, occlusion, rooftop and composition stages are the
    # tracer's own timers over the trace stage's chunked solve of the five
    # receivers: the lateral candidates, the occlusion rounds, the rooftop
    # family where round 0 finds the direct ray blocked, and the rest of the
    # solve, from de-duplication through composition, the power floor and
    # the path build to the sorted path lists; they lie within the trace
    # stage's time.  The tracer's tables are built once per repeat, by its
    # construction, the tx_tables stage
    solve_stages = ("candidate_solve", "occlusion_solve", "rooftop_solve", "compose_solve")
    for stage in ("specular_trace", *solve_stages):
        assert {r["units"] for r in rows if r["stage"] == stage} == {"5"}
    for rep in ("0", "1"):
        seconds = {r["stage"]: float(r["seconds"]) for r in rows if r["repeat"] == rep}
        assert sum(seconds[stage] for stage in solve_stages) <= seconds["specular_trace"]
    assert {r["units"] for r in rows if r["stage"] == "tx_tables"} == {"1"}
    # the metrics and the TV-CIR cover the bracket's 11 snapshots; the writer
    # stage times one row per path row of trace.csv
    for stage in ("metric_snapshot", "tvcir_snapshot"):
        assert {r["units"] for r in rows if r["stage"] == stage} == {"11"}
    n_trace_rows = len(_read_csv(out / "trace.csv"))
    assert {r["units"] for r in rows if r["stage"] == "trace_csv_row"} == {str(n_trace_rows)}
    # the facet_term rows time the scatter_snapshot calls per live facet term
    # summed: the same seconds, the same terms in each repeat
    calls = [r for r in rows if r["stage"] == "scatter_snapshot"]
    terms = [r for r in rows if r["stage"] == "facet_term"]
    assert [r["seconds"] for r in terms] == [r["seconds"] for r in calls]
    assert len({r["units"] for r in terms}) == 1 and int(terms[0]["units"]) > 0
    # the TV-CIR writer stage times one unit per cell of tvcir.csv
    with open(out / "tvcir.csv", newline="") as fh:
        n_cells = sum(len(row) for row in list(csv.reader(fh))[1:])
    assert {r["units"] for r in rows if r["stage"] == "tvcir_csv_cell"} == {str(n_cells)}


def test_cli_holds_no_copy_of_the_solve():
    # bench times the solve by the tracer's own timers: the CLI binds the
    # tracer and its stage names from railchan.specular, and none of the
    # solve's parts (its private helpers, trace_rooftop, compose_path_matrix)
    shared = {"__builtins__", "annotations", "np", "time", "CarrierConfig", "EPS_GEOM", "token"}
    solve = vars(railchan.specular)
    bound = {name for name, obj in vars(railchan.cli).items() if solve.get(name) is obj}
    assert bound - shared == {"SpecularTracer", "SOLVE_STAGES"}
    assert railchan.specular not in vars(railchan.cli).values()


def test_bench_short_run(tmp_path, capsys):
    # the interpolation bracket sits on the step clock, so a 10-step run fits it
    out = tmp_path / "short"
    assert main(["bench", "--duration", "0.1", "--repeats", "1", "--output-dir", str(out)]) == 0
    assert (out / "bench.csv").is_file()
    # fewer than 10 steps cannot hold the bracket: exit 2, no output directory
    out = tmp_path / "too_short"
    assert main(["bench", "--duration", "0.05", "--output-dir", str(out)]) == 2
    assert "10 update steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_bench_repeats_below_one_exit_2(tmp_path, capsys, repeats):
    out = tmp_path / "bench"
    assert main(["bench", "--repeats", repeats, "--output-dir", str(out)]) == 2
    assert "--repeats" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------
def test_python_m_entry_point():
    # the child imports the same package as this process, wherever it lives
    src = str(Path(railchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "railchan", "validate-scene", "urban_canyon"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "scene OK" in proc.stdout


def test_run_imports_no_scipy(tmp_path):
    # the Fresnel integrals are em.py's own: a fresh process runs a stream,
    # whose solves need both, without importing scipy, and importing the CLI
    # does not build the Taylor table of the Fresnel kernel
    src = str(Path(railchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys
import railchan.cli
import railchan.em
assert railchan.em._taylor_table.cache_info().currsize == 0
rc = railchan.cli.main(["run", "--duration", "0.05", "--output-dir", {str(tmp_path / "run")!r}])
assert rc == 0, rc
assert railchan.em._taylor_table.cache_info().currsize == 1
assert "scipy" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
