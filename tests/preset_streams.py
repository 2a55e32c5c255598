"""Snapshot streams of the bundled preset, built the way the CLI builds them,
for tests that check outputs against an oracle on real data."""

from __future__ import annotations

from railchan.config import load_preset
from railchan.dynamics import Trajectory, stream_snapshots
from railchan.em import CarrierConfig


def preset_stream(*, duration_s: float, kf_interval_s: float, start_s: float = 0.0, **overrides):
    """(config, stream result) of the preset from ``start_s`` to ``duration_s``
    at ``kf_interval_s``; ``overrides`` are further config keys."""
    cfg = load_preset(overrides={"kf_interval_s": kf_interval_s, **overrides})
    traj = Trajectory(waypoints=cfg.waypoints.copy(), speed=cfg.speed_mps, duration=duration_s)
    result = stream_snapshots(
        cfg.load_scene(),
        traj,
        cfg.tx_position,
        CarrierConfig(cfg.carrier_hz),
        cfg.update_step_s,
        cfg.kf_interval_s,
        limits=cfg.limits,
        scatter_mode=cfg.scatter_mode,
        seed=cfg.seed,
        start_step=int(round(start_s / cfg.update_step_s)),
    )
    return cfg, result


def pylon_window(**overrides):
    """The stream of ``scatter-study --kf-interval 0.5 --window 20.5:21.0``;
    ``overrides`` are further config keys."""
    return preset_stream(duration_s=21.0, kf_interval_s=0.5, start_s=20.5, **overrides)
