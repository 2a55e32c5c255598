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

import railchan
from railchan.cli import main
from railchan.config import DEFAULT_PRESET, load_preset, preset_path


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
    ],
    ids=["window_stop_off_step", "run_tx_inside", "sweep_tx_inside", "scatter_study_tx_inside", "bench_tx_inside"],
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
    "argv",
    [
        ["run", "--duration", "0.05"],
        ["run", "--duration", "1.0", "--kf-interval", "0.5"],
        ["sweep", "--duration", "0.05"],
        ["scatter-study", "--kf-interval", "0.5", "--window", "0.0:0.5"],
        ["bench", "--duration", "0.5"],
    ],
    ids=["run", "run_kf_0.5", "sweep", "scatter_study", "bench"],
)
def test_receiver_inside_building_exits_2_before_output(tmp_path, monkeypatch, capsys, argv):
    # the track runs along y = 18 m, through building 0 (x 0-60 m, y 8-28 m,
    # 12 m high); at t = 0 the receiver is on its wall, not inside
    monkeypatch.chdir(tmp_path)
    raw = json.loads(preset_path(DEFAULT_PRESET, "config").read_text())
    raw["trajectory"]["waypoints_m"] = [[0.0, 18.0, 5.0], [1666.7, 18.0, 5.0]]
    (tmp_path / "rx_inside.json").write_text(json.dumps(raw))
    assert main(argv + ["--config", "rx_inside.json", "--output-dir", "out"]) == 2
    assert "receiver track" in capsys.readouterr().err
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
    ],
    ids=" ".join,
)
def test_non_finite_numbers_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    # JSON reads the literal 1e999 as an infinite float
    text = preset_path(DEFAULT_PRESET, "config").read_text()
    assert '"carrier_hz": 1.9e9' in text
    (tmp_path / "carrier_1e999.json").write_text(
        text.replace('"carrier_hz": 1.9e9', '"carrier_hz": 1e999')
    )
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


def test_validate_scene_preset_ok(capsys):
    assert main(["validate-scene", "urban_canyon"]) == 0
    out = capsys.readouterr().out
    assert "buildings:" in out and "scatterers:" in out


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def test_sweep_outputs(tmp_path):
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


def test_scatter_study_requires_scatter_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["scatter-study", "--duration", "24.0", "--scatter", "off"])
    assert rc == 2
    assert "scatter" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no output directory for a rejected config


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def test_bench_outputs(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--repeats", "2", "--output-dir", str(out)])
    assert rc == 0
    rows = _read_csv(out / "bench.csv")
    stages = {r["stage"] for r in rows}
    assert {
        "scene_load",
        "specular_trace",
        "scatter_snapshot",
        "interpolate_snapshot",
        "tvcir_snapshot",
        "trace_csv_row",
    } <= stages
    for stage in ("specular_trace", "tvcir_snapshot", "trace_csv_row"):
        timed = [r for r in rows if r["stage"] == stage]
        assert len(timed) == 2
        for r in timed:
            assert float(r["per_unit_ms"]) > 0
    # the TV-CIR covers the bracket's 11 snapshots; the writer stage times
    # one row per path row of trace.csv
    assert {r["units"] for r in rows if r["stage"] == "tvcir_snapshot"} == {"11"}
    n_trace_rows = len(_read_csv(out / "trace.csv"))
    assert {r["units"] for r in rows if r["stage"] == "trace_csv_row"} == {str(n_trace_rows)}


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
