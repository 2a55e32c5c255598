"""Scenario configuration: a validated JSON description of one simulation.

A scenario file pins everything a run needs — scene, carrier, transmitter,
trajectory, clocking, tracing limits, scattering mode, seed, and waveform
parameters — so that two runs of the same file are bit-for-bit reproducible.
Unknown keys anywhere in the document are rejected rather than ignored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import SCATTER_MODES, Trajectory, whole_steps
from .scene import Scene, _is_number, _is_point, load_scene_file
from .specular import TraceLimits

CONFIG_SCHEMA_VERSION = 1

DEFAULT_PRESET = "urban_canyon"

_TOP_KEYS = {
    "version",
    "scene",
    "carrier_hz",
    "tx_position_m",
    "tx_power_dbm",
    "trajectory",
    "duration_s",
    "update_step_s",
    "kf_interval_s",
    "limits",
    "scatter_mode",
    "seed",
    "bandwidth_hz",
    "rolloff",
    "sweep_intervals_s",
    "scatter_window_s",
}
_TRAJECTORY_KEYS = {"waypoints_m", "speed_kmh", "speed_mps"}
_LIMIT_KEYS = {"max_reflections", "max_vertical_diffractions", "rooftop", "power_floor_db"}

# keys a caller (the command line) may override on top of the file
OVERRIDABLE_KEYS = {
    "duration_s",
    "update_step_s",
    "kf_interval_s",
    "scatter_mode",
    "seed",
    "sweep_intervals_s",
    "scatter_window_s",
}


class ConfigError(ValueError):
    """Raised for a malformed, inconsistent, or unresolvable scenario."""


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _number(mapping: dict, key: str, where: str) -> float:
    try:
        value = mapping[key]
    except KeyError:
        raise ConfigError(f"missing key {key!r} in {where}") from None
    if not _is_number(value):
        raise ConfigError(f"{where}: {key!r} must be a finite number, got {value!r}")
    return float(value)


def preset_path(name: str, kind: str) -> Path:
    """Filesystem path of a bundled preset ('scene' or 'config')."""
    fname = f"{name}.{kind}.json"
    ref = resources.files("railchan").joinpath("presets", fname)
    p = Path(str(ref))
    if not p.is_file():
        raise ConfigError(f"no bundled preset {fname!r}")
    return p


def scene_file(spec: str, base_dir: Path | None = None) -> Path:
    """The scene file ``spec`` names: a ``*.json`` path, taken relative to
    ``base_dir`` when given and not absolute, or a bundled preset's name."""
    if not spec.endswith(".json"):
        return preset_path(spec, "scene")
    path = Path(spec)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    if not path.is_file():
        raise ConfigError(f"scene file not found: {path}")
    return path


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario ready to drive a simulation."""

    scene_spec: str
    scene_path: Path
    carrier_hz: float
    tx_position: np.ndarray
    tx_power_dbm: float
    waypoints: np.ndarray
    speed_mps: float
    duration_s: float
    update_step_s: float
    kf_interval_s: float
    limits: TraceLimits
    scatter_mode: str
    seed: int
    bandwidth_hz: float
    rolloff: float
    sweep_intervals_s: tuple[float, ...]
    scatter_window_s: tuple[float, float]

    def trajectory(self) -> Trajectory:
        return Trajectory(
            waypoints=self.waypoints.copy(),
            speed=self.speed_mps,
            duration=self.duration_s,
        )

    def load_scene(self) -> Scene:
        """The scene file, checked to leave the transmitter outside every
        building."""
        scene = load_scene_file(self.scene_path)
        if scene.contains_points(self.tx_position[None])[0]:
            raise ConfigError(
                f"'tx_position_m' {self.tx_position.tolist()} lies inside a building of the scene"
            )
        return scene

    def echo(self) -> dict:
        """JSON-ready normalized view, embedded in run manifests."""
        return {
            "version": CONFIG_SCHEMA_VERSION,
            "scene": self.scene_spec,
            "scene_path": str(self.scene_path),
            "carrier_hz": self.carrier_hz,
            "tx_position_m": [float(v) for v in self.tx_position],
            "tx_power_dbm": self.tx_power_dbm,
            "trajectory": {
                "waypoints_m": [[float(v) for v in w] for w in self.waypoints],
                "speed_mps": self.speed_mps,
            },
            "duration_s": self.duration_s,
            "update_step_s": self.update_step_s,
            "kf_interval_s": self.kf_interval_s,
            "limits": asdict(self.limits),
            "scatter_mode": self.scatter_mode,
            "seed": self.seed,
            "bandwidth_hz": self.bandwidth_hz,
            "rolloff": self.rolloff,
            "sweep_intervals_s": list(self.sweep_intervals_s),
            "scatter_window_s": list(self.scatter_window_s),
        }


def parse_config(
    raw: dict,
    base_dir: Path | None = None,
    overrides: dict | None = None,
) -> ScenarioConfig:
    """Validate a raw scenario mapping into a :class:`ScenarioConfig`.

    ``base_dir`` anchors relative scene paths (normally the config file's
    directory).  ``overrides`` are applied on top of the document before
    validation; only keys in :data:`OVERRIDABLE_KEYS` are accepted.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario must be a JSON object, got {type(raw).__name__}")
    raw = dict(raw)
    if overrides:
        for key, value in overrides.items():
            if key not in OVERRIDABLE_KEYS:
                raise ConfigError(f"key {key!r} cannot be overridden")
            if value is not None:
                raw[key] = value
    _reject_unknown(raw, _TOP_KEYS, "the scenario")

    version = raw.get("version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"scenario version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )

    scene_spec = raw.get("scene")
    if not isinstance(scene_spec, str) or not scene_spec:
        raise ConfigError("'scene' must be a preset name or a .json path")
    scene_path = scene_file(scene_spec, base_dir)

    carrier_hz = _number(raw, "carrier_hz", "the scenario")
    if carrier_hz <= 0:
        raise ConfigError("'carrier_hz' must be positive")

    tx = raw.get("tx_position_m")
    if not _is_point(tx, 3):
        raise ConfigError(f"'tx_position_m' must be an [x, y, z] triple of finite numbers, got {tx!r}")
    tx_arr = np.asarray(tx, dtype=float)
    if tx_arr[2] < 0.0:
        raise ConfigError(f"'tx_position_m' {tx_arr.tolist()} lies below the ground (z < 0)")

    tx_power_dbm = _number(raw, "tx_power_dbm", "the scenario")

    traj = raw.get("trajectory")
    if not isinstance(traj, dict):
        raise ConfigError("'trajectory' must be an object")
    _reject_unknown(traj, _TRAJECTORY_KEYS, "'trajectory'")
    wp = traj.get("waypoints_m")
    if not isinstance(wp, (list, tuple)) or len(wp) < 2 or not all(_is_point(w, 3) for w in wp):
        raise ConfigError(
            "'trajectory.waypoints_m' must be a list of at least two [x, y, z] points of finite numbers"
        )
    wp_arr = np.asarray(wp, dtype=float)
    for i, w in enumerate(wp_arr):
        if w[2] < 0.0:
            raise ConfigError(f"'trajectory.waypoints_m'[{i}] {w.tolist()} lies below the ground (z < 0)")
    has_kmh = "speed_kmh" in traj
    has_mps = "speed_mps" in traj
    if has_kmh == has_mps:
        raise ConfigError("'trajectory' needs exactly one of 'speed_kmh' or 'speed_mps'")
    if has_kmh:
        speed_mps = _number(traj, "speed_kmh", "'trajectory'") / 3.6
    else:
        speed_mps = _number(traj, "speed_mps", "'trajectory'")
    if speed_mps <= 0:
        raise ConfigError("trajectory speed must be positive")

    duration_s = _number(raw, "duration_s", "the scenario")
    update_step_s = _number(raw, "update_step_s", "the scenario")
    kf_interval_s = _number(raw, "kf_interval_s", "the scenario")
    if duration_s <= 0 or update_step_s <= 0 or kf_interval_s <= 0:
        raise ConfigError("'duration_s', 'update_step_s', and 'kf_interval_s' must be positive")
    try:
        Trajectory(waypoints=wp_arr, speed=speed_mps, duration=duration_s)
    except ValueError as exc:
        raise ConfigError(f"'trajectory': {exc}") from None
    if not whole_steps(duration_s, update_step_s):
        raise ConfigError(
            f"'duration_s' ({duration_s}) must be an integer multiple of 'update_step_s' ({update_step_s})"
        )
    if not whole_steps(kf_interval_s, update_step_s):
        raise ConfigError(
            f"'kf_interval_s' ({kf_interval_s}) must be an integer multiple of 'update_step_s' ({update_step_s})"
        )

    lim = raw.get("limits")
    if not isinstance(lim, dict):
        raise ConfigError("'limits' must be an object")
    _reject_unknown(lim, _LIMIT_KEYS, "'limits'")
    max_r = lim.get("max_reflections")
    max_d = lim.get("max_vertical_diffractions")
    # bools pass TraceLimits' range checks (True == 1), so types are checked here
    if not isinstance(max_r, int) or isinstance(max_r, bool):
        raise ConfigError("'limits.max_reflections' must be an integer")
    if not isinstance(max_d, int) or isinstance(max_d, bool):
        raise ConfigError("'limits.max_vertical_diffractions' must be an integer")
    rooftop = lim.get("rooftop")
    if not isinstance(rooftop, bool):
        raise ConfigError("'limits.rooftop' must be true or false")
    floor_db = _number(lim, "power_floor_db", "'limits'")
    try:
        limits = TraceLimits(
            max_reflections=max_r,
            max_vertical_diffractions=max_d,
            rooftop=rooftop,
            power_floor_db=floor_db,
        )
    except ValueError as exc:
        raise ConfigError(f"'limits': {exc}") from None

    scatter_mode = raw.get("scatter_mode", "off")
    if scatter_mode not in SCATTER_MODES:
        raise ConfigError(f"'scatter_mode' must be one of {SCATTER_MODES}, got {scatter_mode!r}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("'seed' must be a non-negative integer")

    bandwidth_hz = _number(raw, "bandwidth_hz", "the scenario")
    if bandwidth_hz <= 0:
        raise ConfigError("'bandwidth_hz' must be positive")
    rolloff = _number(raw, "rolloff", "the scenario")
    if not 0.0 <= rolloff <= 1.0:
        raise ConfigError("'rolloff' must lie in [0, 1]")

    sweep = raw.get("sweep_intervals_s", [])
    if not isinstance(sweep, (list, tuple)):
        raise ConfigError("'sweep_intervals_s' must be a list of intervals")
    sweep_vals = []
    for v in sweep:
        if not (_is_number(v) and v > 0):
            raise ConfigError(
                f"'sweep_intervals_s' entries must be positive finite numbers, got {v!r}"
            )
        if not whole_steps(float(v), update_step_s):
            raise ConfigError(
                f"sweep interval {v} must be an integer multiple of 'update_step_s' ({update_step_s})"
            )
        sweep_vals.append(float(v))

    window = raw.get("scatter_window_s", [0.0, duration_s])
    if not isinstance(window, (list, tuple)) or len(window) != 2 or not all(map(_is_number, window)):
        raise ConfigError("'scatter_window_s' must be a [start, stop] pair of finite seconds")
    w0, w1 = float(window[0]), float(window[1])
    if not (0.0 <= w0 < w1):
        raise ConfigError("'scatter_window_s' must satisfy 0 <= start < stop")

    return ScenarioConfig(
        scene_spec=scene_spec,
        scene_path=scene_path,
        carrier_hz=carrier_hz,
        tx_position=tx_arr,
        tx_power_dbm=tx_power_dbm,
        waypoints=wp_arr,
        speed_mps=float(speed_mps),
        duration_s=duration_s,
        update_step_s=update_step_s,
        kf_interval_s=kf_interval_s,
        limits=limits,
        scatter_mode=scatter_mode,
        seed=seed,
        bandwidth_hz=bandwidth_hz,
        rolloff=rolloff,
        sweep_intervals_s=tuple(sweep_vals),
        scatter_window_s=(w0, w1),
    )


def load_config_file(path, overrides: dict | None = None) -> ScenarioConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(raw, base_dir=p.parent, overrides=overrides)


def load_preset(name: str = DEFAULT_PRESET, overrides: dict | None = None) -> ScenarioConfig:
    """Load a bundled scenario preset by name."""
    return load_config_file(preset_path(name, "config"), overrides=overrides)
